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
* :mod:`repro.core.insertion` — signature insertion (Equation 5).
* :mod:`repro.core.extraction` — location reproduction, signature decoding,
  WER (Equations 6–7) and ownership verdicts.
* :mod:`repro.core.strength` — the watermark-strength bound (Equation 8).
* :mod:`repro.core.emmark` — the :class:`EmMark` facade tying it together.
* :mod:`repro.core.baselines` — RandomWM and SpecMark comparison methods.
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
from repro.core.insertion import (
    InsertionReport,
    MultiOwnerInsertionResult,
    insert_watermark,
    insert_watermark_multi,
)
from repro.core.extraction import (
    ExtractionResult,
    extract_watermark,
    reproduce_locations,
    verify_ownership,
)
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
    "insert_watermark",
    "insert_watermark_multi",
    "MultiOwnerInsertionResult",
    "InsertionReport",
    "ExtractionResult",
    "extract_watermark",
    "reproduce_locations",
    "verify_ownership",
    "false_claim_probability",
    "watermark_strength",
    "EmMark",
    "Watermarker",
    "InsertionRecord",
]
