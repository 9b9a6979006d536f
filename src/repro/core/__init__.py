"""EmMark: the paper's primary contribution.

The package implements the full watermarking pipeline of Section 4:

* :mod:`repro.core.config` — :class:`EmMarkConfig`, the insertion
  hyper-parameters (α, β, seed, bits per layer, candidate-pool ratio).
* :mod:`repro.core.signature` — Rademacher signature generation and
  per-layer partitioning.
* :mod:`repro.core.scoring` — the parameter-scoring function
  ``S = α·S_q + β·S_r`` (Equations 2–4) and candidate selection.
* :mod:`repro.core.keys` — :class:`WatermarkKey`, everything the owner keeps
  secret (signature, seed, reference weights, full-precision activations,
  coefficients) plus (de)serialization.
* :mod:`repro.core.strength` — the watermark-strength bound (Equation 8).
* :mod:`repro.core.emmark` — :class:`EmMark`, the one facade over the
  engine.
* :mod:`repro.core.baselines` — RandomWM and SpecMark comparison methods.

Signature insertion (Equation 5), location reproduction, extraction
(Equations 6–7) and ownership verdicts run in
:class:`repro.engine.WatermarkEngine`; call its methods directly, or go
through :class:`EmMark`.
"""

from repro.core.config import EmMarkConfig
from repro.core.signature import generate_signature, split_signature_per_layer
from repro.core.scoring import (
    LayerScores,
    combined_score,
    fused_scores,
    quality_score,
    robustness_score,
    select_candidates,
    topk_argsort_stable,
)
from repro.core.keys import WatermarkKey, model_fingerprint
from repro.core.strength import false_claim_probability, watermark_strength
from repro.core.emmark import EmMark
from repro.core.interface import InsertionRecord, Watermarker

__all__ = [
    "EmMarkConfig",
    "generate_signature",
    "split_signature_per_layer",
    "LayerScores",
    "quality_score",
    "robustness_score",
    "combined_score",
    "fused_scores",
    "topk_argsort_stable",
    "select_candidates",
    "WatermarkKey",
    "model_fingerprint",
    "false_claim_probability",
    "watermark_strength",
    "EmMark",
    "Watermarker",
    "InsertionRecord",
]
