"""Re-watermarking attack (Figure 2b).

The adversary knows EmMark's insertion algorithm but not the owner's secrets.
He therefore runs the same scoring + insertion procedure on the watermarked
model with *his own* hyper-parameters — the paper uses α=1, β=1.5, seed 22 —
and, crucially, with activation statistics measured on the **quantized**
model he possesses, because the full-precision model (whose activations drive
the owner's robustness score) is not available to him.

The perturbed positions partially overlap the owner's watermark, so the
attack nibbles at the WER, but Section 5.3 shows the owner's signature stays
above 95% extractable even when the attacker has inserted enough bits to
visibly damage the model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.core.config import EmMarkConfig
from repro.core.insertion import insert_watermark
from repro.core.keys import WatermarkKey
from repro.engine.reports import InsertionReport
from repro.models.activations import ActivationStats, collect_activation_stats
from repro.quant.base import QuantizedModel
from repro.utils.rng import new_rng

__all__ = ["RewatermarkAttackConfig", "rewatermark_attack"]

#: Attacker hyper-parameters from Section 5.3.
PAPER_ATTACK_ALPHA = 1.0
PAPER_ATTACK_BETA = 1.5
PAPER_ATTACK_SEED = 22


@dataclass(frozen=True)
class RewatermarkAttackConfig:
    """Configuration of one re-watermarking attack.

    Attributes
    ----------
    bits_per_layer:
        Number of signature bits the adversary inserts per layer (the x-axis
        of Figure 2b).
    alpha, beta, seed:
        The adversary's scoring coefficients and sub-sampling seed; the paper
        sets them to 1, 1.5 and 22 (all different from the owner's values).
    signature_seed:
        Seed of the adversary's own Rademacher signature.
    """

    bits_per_layer: int = 100
    alpha: float = PAPER_ATTACK_ALPHA
    beta: float = PAPER_ATTACK_BETA
    seed: int = PAPER_ATTACK_SEED
    signature_seed: int = 999

    def __post_init__(self) -> None:
        if self.bits_per_layer < 1:
            raise ValueError("bits_per_layer must be >= 1")


def rewatermark_attack(
    model: QuantizedModel,
    config: RewatermarkAttackConfig,
    calibration_corpus=None,
    attacker_activations: Optional[ActivationStats] = None,
) -> Tuple[QuantizedModel, WatermarkKey]:
    """Re-watermark ``model`` with the adversary's parameters.

    Parameters
    ----------
    model:
        The (already watermarked) deployed model.
    config:
        Attacker hyper-parameters.
    calibration_corpus:
        Corpus the attacker uses to measure activations on the *quantized*
        model (he has no full-precision model).  Required unless
        ``attacker_activations`` is given.
    attacker_activations:
        Pre-computed attacker-side activation statistics.

    Returns
    -------
    (attacked_model, attacker_key)
        The doubly-watermarked model and the adversary's own key (with which
        he can of course extract *his* signature — but not remove the
        owner's).
    """
    attacked, attacker_key, _ = _rewatermark(
        model, config, calibration_corpus, attacker_activations
    )
    return attacked, attacker_key


def _rewatermark(
    model: QuantizedModel,
    config: RewatermarkAttackConfig,
    calibration_corpus=None,
    attacker_activations: Optional[ActivationStats] = None,
) -> Tuple[QuantizedModel, WatermarkKey, InsertionReport]:
    """:func:`rewatermark_attack` plus the insertion report, whose ``ticket``
    lets the gauntlet verify the adversary's key without re-planning it."""
    if attacker_activations is None:
        if calibration_corpus is None:
            raise ValueError(
                "the attacker needs either a calibration corpus or activation statistics"
            )
        # The adversary can only run the model he has: the quantized one.
        attacker_activations = collect_activation_stats(
            model.materialize(), calibration_corpus
        )
    attacker_signature_rng = new_rng(config.signature_seed, "attacker-signature")
    total_bits = config.bits_per_layer * model.num_quantization_layers
    attacker_signature = attacker_signature_rng.choice(
        np.array([-1, 1], dtype=np.int64), size=total_bits
    )
    # replace() on a default config: only the fields the attacker actually
    # controls are overridden, so every other EmMarkConfig field (present or
    # future) keeps its default instead of silently falling back to whatever
    # a field-by-field rebuild happened to forward.
    attacker_config = replace(
        EmMarkConfig(),
        bits_per_layer=config.bits_per_layer,
        alpha=config.alpha,
        beta=config.beta,
        seed=config.seed,
        signature_seed=config.signature_seed,
    )
    return insert_watermark(
        model,
        attacker_activations,
        config=attacker_config,
        signature=attacker_signature,
    )
