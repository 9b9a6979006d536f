"""Forging-attack analysis (Section 5.3, "Forging Attacks").

Instead of removing the owner's watermark, a forging adversary claims the
model as his own.  The paper's discussion is qualitative; every quantity it
relies on is measured here:

1. **Counterfeit locations** (:func:`forge_with_fake_locations`) — the
   adversary invents watermark locations and a signature that matches the
   deployed weights there.  The claim is rejected because the locations
   cannot be *reproduced* from key material: that takes the full-precision
   activations, the scoring coefficients and the seed, and re-running the
   location selection on whatever "key" he fabricates misses the claimed
   locations.
2. **Counterfeit re-watermarking** (:func:`counterfeit_key_attack`) — the
   adversary inserts his own signature (the ``rewatermark`` attack) and can
   prove *that* one, but a neutral judge rules for the owner: the owner's
   key still extracts from the adversary's model (Figure 2b), while the
   adversary's watermark does not extract from the owner's original model
   — temporal precedence.
3. Matching the owner's signature by coincidence has probability
   ``9.09e-13`` per 40-bit layer and ``9.09e-13^n`` for an ``n``-layer model.

:func:`run` performs all three measurements on the simulated OPT-2.7B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.core.config import EmMarkConfig
from repro.core.emmark import EmMark
from repro.core.keys import WatermarkKey
from repro.core.strength import false_claim_probability, log10_watermark_strength
from repro.engine import get_default_engine
from repro.experiments.common import prepare_context
from repro.models.activations import ActivationStats
from repro.quant.base import QuantizedModel
from repro.robustness import build_attack
from repro.utils.rng import new_rng
from repro.utils.tables import Table, format_float

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import KeyLike

__all__ = [
    "ForgingOutcome",
    "ForgingResult",
    "counterfeit_key_attack",
    "forge_with_fake_locations",
    "run",
]

DEFAULT_MODEL = "opt-2.7b-sim"


@dataclass
class ForgingOutcome:
    """Result of a forging attempt as seen by a neutral verifier.

    Attributes
    ----------
    claimed_wer:
        WER the claimant can demonstrate at the claimed locations.
    reproducible:
        Whether the claimed locations can be re-derived from the claimant's
        alleged key material (the core of the verification protocol).
    location_overlap_fraction:
        Fraction of the claimed locations that coincide with the locations
        reproduced from the claimant's key material (1.0 for an honest key).
    false_claim_probability:
        Probability that the claimant's "match" could arise by chance.
    accepted:
        Final verdict of the verifier.
    """

    claimed_wer: float
    reproducible: bool
    location_overlap_fraction: float
    false_claim_probability: float
    accepted: bool

    def summary(self) -> str:
        """One-line human-readable verdict."""
        status = "ACCEPTED" if self.accepted else "REJECTED"
        return (
            f"{status}: claimed WER {self.claimed_wer:.1f}%, locations reproducible: "
            f"{self.reproducible} (overlap {self.location_overlap_fraction:.2f}), "
            f"P_c {self.false_claim_probability:.2e}"
        )


def forge_with_fake_locations(
    model: QuantizedModel,
    bits_per_layer: int = 12,
    seed: int = 7,
) -> ForgingOutcome:
    """Setting 1: claim ownership with invented locations and signature.

    The adversary picks arbitrary locations in the deployed model and
    declares the signature to be whatever weight values sit there (so his
    "extraction" trivially matches).  The verifier then asks for the key
    material that generated those locations; lacking full-precision
    activations and a scoring-consistent seed, the adversary can only
    fabricate a key whose reproduced locations miss the claimed ones, and
    the claim is rejected.
    """
    rng = new_rng(seed, "forge-locations")
    claimed_locations: Dict[str, np.ndarray] = {}
    total = 0
    for name, layer in model.layers.items():
        flat_size = layer.weight_int.size
        count = min(bits_per_layer, flat_size)
        claimed_locations[name] = rng.choice(flat_size, size=count, replace=False)
        total += count
    activation_rng = new_rng(seed, "forge-activations")
    fabricated_key = WatermarkKey(
        signature=rng.choice(np.array([-1, 1], dtype=np.int64), size=total),
        config=EmMarkConfig(bits_per_layer=bits_per_layer, alpha=1.0, beta=1.0, seed=seed),
        reference_weights=model.integer_weight_snapshot(),
        activations=ActivationStats(mean_abs={
            name: activation_rng.random(layer.in_features) + 0.1
            for name, layer in model.layers.items()
        }),
        layer_names=model.layer_names(),
        method=model.method,
        bits=model.bits,
        model_name=model.config.name,
    )
    overlap = _location_overlap(
        claimed_locations, get_default_engine().reproduce_locations(fabricated_key)
    )
    # Unable to tie the claimed locations to reproducible key material, the
    # verifier gives the claim no statistical weight.
    accepted = overlap > 0.99
    return ForgingOutcome(
        claimed_wer=100.0,  # the adversary "extracts" perfectly by construction
        reproducible=accepted,
        location_overlap_fraction=overlap,
        false_claim_probability=1.0,
        accepted=accepted,
    )


def counterfeit_key_attack(
    original_model: QuantizedModel,
    attacked_model: QuantizedModel,
    owner_key: "KeyLike",
    attacker_key: "KeyLike",
    wer_threshold: float = 90.0,
) -> Dict[str, ForgingOutcome]:
    """Setting 2: the adversary re-watermarked the model and claims ownership.

    A neutral judge runs both keys (or their tickets) against both models:
    the owner's against the adversary's re-watermarked model — it should
    still extract — and the adversary's against the owner's *original*
    model — it should fail, because his signature was not there before his
    attack.  Returns the two outcomes keyed by ``"owner_on_attacked"`` and
    ``"attacker_on_original"``.
    """
    engine = get_default_engine()
    verdicts = {
        "owner_on_attacked": engine.extract(attacked_model, owner_key, strict_layout=False),
        "attacker_on_original": engine.extract(
            original_model, attacker_key, strict_layout=False
        ),
    }
    return {
        label: ForgingOutcome(
            claimed_wer=result.wer_percent,
            reproducible=True,
            location_overlap_fraction=1.0,
            false_claim_probability=result.false_claim_probability,
            accepted=result.wer_percent >= wer_threshold,
        )
        for label, result in verdicts.items()
    }


def _location_overlap(
    claimed: Dict[str, np.ndarray], reproduced: Dict[str, np.ndarray]
) -> float:
    """Fraction of claimed locations present in the reproduced set."""
    total = 0
    overlap = 0
    for name, claimed_positions in claimed.items():
        reproduced_positions = set(np.asarray(reproduced.get(name, np.array([]))).tolist())
        total += len(claimed_positions)
        overlap += sum(1 for p in claimed_positions.tolist() if p in reproduced_positions)
    if total == 0:
        return 0.0
    return overlap / total


@dataclass
class ForgingResult:
    """Outcomes of the two forging settings plus the collision probability."""

    model_name: str
    bits: int
    fake_location_outcome: ForgingOutcome
    owner_on_attacked: ForgingOutcome
    attacker_on_original: ForgingOutcome
    per_layer_collision_probability: float
    log10_model_collision_probability: float
    num_layers: int

    def to_table(self) -> Table:
        table = Table(
            title=f"Forging attacks on {self.model_name} (INT{self.bits})",
            columns=["Scenario", "Claimed WER (%)", "Reproducible", "Accepted"],
        )
        table.add_row(
            [
                "Counterfeit locations",
                format_float(self.fake_location_outcome.claimed_wer),
                self.fake_location_outcome.reproducible,
                self.fake_location_outcome.accepted,
            ]
        )
        table.add_row(
            [
                "Owner key on re-watermarked model",
                format_float(self.owner_on_attacked.claimed_wer),
                self.owner_on_attacked.reproducible,
                self.owner_on_attacked.accepted,
            ]
        )
        table.add_row(
            [
                "Attacker key on original model",
                format_float(self.attacker_on_original.claimed_wer),
                self.attacker_on_original.reproducible,
                self.attacker_on_original.accepted,
            ]
        )
        return table

    def render(self) -> str:
        lines = [self.to_table().render()]
        lines.append(
            "Per-layer signature collision probability: "
            f"{self.per_layer_collision_probability:.3e}; whole-model (n={self.num_layers}): "
            f"1e{self.log10_model_collision_probability:.1f}"
        )
        return "\n".join(lines)


def run(
    model_name: str = DEFAULT_MODEL,
    bits: int = 4,
    profile: str = "default",
    attacker_bits_per_layer: Optional[int] = None,
) -> ForgingResult:
    """Run both forging scenarios and compute the collision probabilities."""
    context = prepare_context(model_name, bits, profile=profile)
    emmark = EmMark(context.emmark_config)
    original = context.fresh_quantized()
    watermarked, owner_key, _ = emmark.insert_with_key(original.clone(), context.activations)

    # Setting 1: counterfeit locations on the deployed model.
    fake_outcome = forge_with_fake_locations(
        watermarked, bits_per_layer=context.emmark_config.bits_per_layer
    )

    # Setting 2: the adversary re-watermarks and the dispute goes to a judge,
    # who checks the adversary's watermark through the ticket his insertion
    # built (the spec draws nothing from the generator).
    rewatermark = build_attack(
        "rewatermark", calibration_corpus=context.harness.calibration_corpus
    ).apply(
        watermarked,
        attacker_bits_per_layer or context.emmark_config.bits_per_layer,
        new_rng(0, "forging"),
    )
    outcomes = counterfeit_key_attack(
        original, rewatermark.model, owner_key, rewatermark.attacker_key
    )

    bits_per_layer = context.emmark_config.bits_per_layer
    return ForgingResult(
        model_name=model_name,
        bits=bits,
        fake_location_outcome=fake_outcome,
        owner_on_attacked=outcomes["owner_on_attacked"],
        attacker_on_original=outcomes["attacker_on_original"],
        per_layer_collision_probability=false_claim_probability(bits_per_layer, bits_per_layer),
        log10_model_collision_probability=log10_watermark_strength(
            bits_per_layer, watermarked.num_quantization_layers
        ),
        num_layers=watermarked.num_quantization_layers,
    )
