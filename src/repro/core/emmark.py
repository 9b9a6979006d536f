"""The EmMark facade.

:class:`EmMark` packages the insertion and extraction stages behind the
:class:`~repro.core.interface.Watermarker` interface used by the experiment
harness, and also exposes the key-based API (``insert_with_key`` /
``extract_with_key`` / ``verify``) that downstream users of the library are
expected to call.  Everything else — co-resident owners, fleet screening,
tickets — is a :class:`~repro.engine.WatermarkEngine` method.

Every EmMark instance runs on a :class:`~repro.engine.WatermarkEngine` —
either one passed explicitly (e.g. the experiment harness shares a single
engine so attack sweeps reuse cached location plans) or the process-wide
default engine.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.config import EmMarkConfig
from repro.core.interface import InsertionRecord, Watermarker
from repro.core.keys import WatermarkKey
from repro.engine.engine import WatermarkEngine, get_default_engine
from repro.engine.reports import DEFAULT_OWNERSHIP_THRESHOLD, ExtractionResult, InsertionReport
from repro.models.activations import ActivationStats
from repro.quant.base import QuantizedModel

__all__ = ["EmMark"]


class EmMark(Watermarker):
    """EmMark watermarking for embedded quantized LLMs.

    Parameters
    ----------
    config:
        Insertion hyper-parameters.  When omitted, each insertion derives a
        configuration scaled to the target model via
        :meth:`EmMarkConfig.scaled_for_model`.
    engine:
        The :class:`~repro.engine.WatermarkEngine` to run on; the
        process-wide default engine (shared plan cache) is used when omitted.

    Examples
    --------
    >>> from repro.core import EmMark, EmMarkConfig
    >>> emmark = EmMark(EmMarkConfig(bits_per_layer=8, seed=100))
    >>> wm_model, key, report = emmark.insert_with_key(quantized, activations)
    >>> emmark.extract_with_key(wm_model, key).wer_percent
    100.0
    """

    method_name = "emmark"

    def __init__(
        self,
        config: Optional[EmMarkConfig] = None,
        engine: Optional[WatermarkEngine] = None,
    ) -> None:
        self.config = config
        self.engine = engine

    @property
    def _engine(self) -> WatermarkEngine:
        """The engine to run on: :attr:`engine`, or the process-wide default."""
        return self.engine if self.engine is not None else get_default_engine()

    # ------------------------------------------------------------------
    # Key-based API (primary)
    # ------------------------------------------------------------------
    def insert_with_key(
        self,
        model: QuantizedModel,
        activations: ActivationStats,
        signature: Optional[np.ndarray] = None,
        config: Optional[EmMarkConfig] = None,
    ) -> Tuple[QuantizedModel, WatermarkKey, InsertionReport]:
        """Watermark ``model`` and return the watermarked copy, key and report."""
        effective = config or self.config or EmMarkConfig.scaled_for_model(model)
        return self._engine.insert(model, activations, config=effective, signature=signature)

    def extract_with_key(self, suspect: QuantizedModel, key: WatermarkKey) -> ExtractionResult:
        """Extract the watermark from ``suspect`` using the owner's key."""
        return self._engine.extract(suspect, key, strict_layout=False)

    def verify(
        self,
        suspect: QuantizedModel,
        key: WatermarkKey,
        wer_threshold: float = DEFAULT_OWNERSHIP_THRESHOLD,
    ) -> bool:
        """Boolean ownership verdict (see :meth:`WatermarkEngine.verify`)."""
        return self._engine.verify(suspect, key, wer_threshold=wer_threshold)

    # ------------------------------------------------------------------
    # Watermarker interface (used by the Table 1 harness)
    # ------------------------------------------------------------------
    def insert(
        self,
        model: QuantizedModel,
        activations: Optional[ActivationStats] = None,
        signature: Optional[np.ndarray] = None,
    ) -> Tuple[QuantizedModel, InsertionRecord]:
        if activations is None:
            raise ValueError("EmMark requires full-precision activation statistics")
        watermarked, key, report = self.insert_with_key(model, activations, signature=signature)
        record = InsertionRecord(
            method=self.method_name,
            signature=key.signature,
            payload={"key": key, "report": report},
        )
        return watermarked, record

    def extract(self, suspect: QuantizedModel, record: InsertionRecord) -> ExtractionResult:
        key = record.payload.get("key")
        if not isinstance(key, WatermarkKey):
            raise ValueError("insertion record does not contain an EmMark watermark key")
        return self.extract_with_key(suspect, key)
