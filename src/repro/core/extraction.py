"""Watermark extraction and ownership proof (Section 4.2).

Given a suspect deployed model and the owner's
:class:`~repro.core.keys.WatermarkKey`, extraction

1. reproduces the watermark weight locations ``L`` by re-running the scoring
   and seeded sub-sampling on the key's reference weights and full-precision
   activations,
2. reads the suspect model's integer weights at ``L`` and forms
   ``ΔW[L] = W'[L] − W[L]`` (Equation 6),
3. compares ``ΔW[L]`` with the inserted signature ``B`` and reports the
   watermark extraction rate ``WER = 100 · |B|' / |B|`` (Equation 7), and
4. converts the match count into the false-claim probability of Equation 8 so
   the owner can quote the statistical strength of the ownership claim.

Since the engine refactor this module is the stable functional facade over
:class:`repro.engine.WatermarkEngine`: location reproduction is served from
the engine's memoized plan cache (an extraction against a previously seen
key performs **zero rescoring**), and the bulk workload lives in
:meth:`~repro.engine.WatermarkEngine.verify_fleet`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.core.insertion import _engine
from repro.core.keys import WatermarkKey
from repro.engine.reports import (
    DEFAULT_MAX_FALSE_CLAIM_PROBABILITY,
    DEFAULT_OWNERSHIP_THRESHOLD,
    ExtractionResult,
)
from repro.quant.base import QuantizedModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import WatermarkEngine

__all__ = ["ExtractionResult", "extract_watermark", "verify_ownership", "reproduce_locations"]


def reproduce_locations(
    key: WatermarkKey, engine: "Optional[WatermarkEngine]" = None
) -> Dict[str, np.ndarray]:
    """Recompute the watermark locations ``L`` from the key alone.

    The key carries the original quantized weights ``W``, the full-precision
    activations ``A_f``, the coefficients α/β and the seed ``d`` — everything
    the scoring + sub-sampling pipeline consumed during insertion — so the
    reproduced locations are identical to the inserted ones.  Repeated calls
    for the same key are served from the engine's plan cache.
    """
    return _engine(engine).reproduce_locations(key)


def extract_watermark(
    suspect: QuantizedModel,
    key: WatermarkKey,
    strict_layout: bool = True,
    engine: "Optional[WatermarkEngine]" = None,
) -> ExtractionResult:
    """Extract the watermark from ``suspect`` and compare it with the key.

    Parameters
    ----------
    suspect:
        The deployed (possibly attacked, possibly unrelated) quantized model.
    key:
        The owner's watermark key.
    strict_layout:
        When true (default) the suspect model must expose every layer named
        in the key with matching weight shapes; otherwise missing layers are
        counted as fully unmatched instead of raising.
    engine:
        Run on a specific :class:`~repro.engine.WatermarkEngine`; the
        process-wide default engine is used when omitted.

    Returns
    -------
    ExtractionResult
        Match counts, WER and the false-claim probability.
    """
    return _engine(engine).extract(suspect, key, strict_layout=strict_layout)


def verify_ownership(
    suspect: QuantizedModel,
    key: WatermarkKey,
    wer_threshold: float = DEFAULT_OWNERSHIP_THRESHOLD,
    max_false_claim_probability: Optional[float] = DEFAULT_MAX_FALSE_CLAIM_PROBABILITY,
    engine: "Optional[WatermarkEngine]" = None,
) -> bool:
    """Ownership verdict: does ``suspect`` carry the owner's watermark?

    The claim is asserted when the extraction rate reaches ``wer_threshold``
    percent *and* (optionally) the false-claim probability of the observed
    match count is below ``max_false_claim_probability``.  To screen many
    suspects against many keys in one call, use
    :meth:`repro.engine.WatermarkEngine.verify_fleet`.
    """
    return _engine(engine).verify(
        suspect,
        key,
        wer_threshold=wer_threshold,
        max_false_claim_probability=max_false_claim_probability,
    )
