"""Common interface shared by EmMark and the baseline watermarking schemes.

The fidelity experiment (Table 1) runs three watermarking frameworks —
EmMark, RandomWM and SpecMark — through the same pipeline: insert into a
quantized model, evaluate the watermarked model's quality, then extract and
report the WER.  :class:`Watermarker` is the small abstract interface that
lets the experiment treat them interchangeably.

Each scheme inserts and extracts with a plain loop over the model's layers,
in canonical layer order; EmMark's loop runs inside the
:class:`~repro.engine.WatermarkEngine`, which memoizes its location plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.engine.reports import ExtractionResult
from repro.models.activations import ActivationStats
from repro.quant.base import QuantizedModel

__all__ = ["InsertionRecord", "Watermarker"]


@dataclass
class InsertionRecord:
    """Method-agnostic record of one watermark insertion.

    EmMark's record wraps its :class:`~repro.core.keys.WatermarkKey`; the
    baselines store whatever they need to attempt extraction later (explicit
    locations for RandomWM, the DCT band description for SpecMark).
    """

    method: str
    signature: np.ndarray
    payload: Dict[str, object] = field(default_factory=dict)

    @property
    def total_bits(self) -> int:
        """Number of signature bits the method attempted to insert."""
        return int(np.asarray(self.signature).size)


class Watermarker:
    """Abstract base class for watermarking schemes.

    Sub-classes implement :meth:`insert` and :meth:`extract`; the shared
    :meth:`watermark_and_verify` convenience runs the full round trip used in
    the fidelity experiments.
    """

    #: Registry / reporting name of the scheme.
    method_name: str = "base"

    def insert(
        self,
        model: QuantizedModel,
        activations: Optional[ActivationStats] = None,
        signature: Optional[np.ndarray] = None,
    ) -> Tuple[QuantizedModel, InsertionRecord]:
        """Insert a watermark and return ``(watermarked_model, record)``."""
        raise NotImplementedError

    def extract(self, suspect: QuantizedModel, record: InsertionRecord) -> ExtractionResult:
        """Extract the watermark from ``suspect`` using ``record``."""
        raise NotImplementedError

    def watermark_and_verify(
        self,
        model: QuantizedModel,
        activations: Optional[ActivationStats] = None,
        signature: Optional[np.ndarray] = None,
    ) -> Tuple[QuantizedModel, InsertionRecord, ExtractionResult]:
        """Insert, then immediately extract from the watermarked model.

        Returns the watermarked model, the insertion record and the
        self-extraction result (which should be 100% WER for a functioning
        scheme — SpecMark's failure to achieve this on quantized models is
        one of the paper's findings).
        """
        watermarked, record = self.insert(model, activations=activations, signature=signature)
        result = self.extract(watermarked, record)
        return watermarked, record, result

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"
