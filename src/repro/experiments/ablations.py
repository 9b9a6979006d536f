"""Additional ablations called out in DESIGN.md.

Two design choices of EmMark beyond the (α, β) coefficients deserve their own
sweeps:

* **Candidate-pool ratio** (``|B_c|·n / |B|``): a larger pool gives the seeded
  sub-sampling more secrecy (harder for an adversary to guess the final
  locations) but admits lower-ranked positions; the paper fixes 50/60 without
  exploring the trade-off.  :func:`run_pool_ratio_ablation` sweeps it.
* **Saliency source**: EmMark scores saliency with the *full-precision*
  model's activations; an adversary (or a careless implementation) only has
  the quantized model.  :func:`run_saliency_source_ablation` measures how
  much the selected locations differ between the two sources — the overlap
  gap is exactly what makes the re-watermark attack miss the owner's
  positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.core.emmark import EmMark
from repro.experiments.common import prepare_context
from repro.models.activations import collect_activation_stats
from repro.utils.tables import Table, format_float

__all__ = [
    "PoolRatioPoint",
    "PoolRatioResult",
    "run_pool_ratio_ablation",
    "SaliencySourceResult",
    "run_saliency_source_ablation",
]

DEFAULT_MODEL = "opt-2.7b-sim"


# ----------------------------------------------------------------------
# Candidate-pool ratio
# ----------------------------------------------------------------------
@dataclass
class PoolRatioPoint:
    """One pool-ratio setting."""

    ratio: float
    perplexity: float
    zero_shot_accuracy: float
    wer_percent: float
    mean_pool_size: float


@dataclass
class PoolRatioResult:
    """The pool-ratio sweep."""

    model_name: str
    bits: int
    points: List[PoolRatioPoint] = field(default_factory=list)

    def to_table(self) -> Table:
        table = Table(
            title=f"Ablation: candidate-pool ratio on {self.model_name} (INT{self.bits})",
            columns=["|Bc|·n/|B|", "PPL", "Zero-shot Acc (%)", "WER (%)", "mean |Bc|"],
        )
        for point in self.points:
            table.add_row(
                [
                    f"{point.ratio:g}",
                    format_float(point.perplexity),
                    format_float(point.zero_shot_accuracy),
                    format_float(point.wer_percent),
                    format_float(point.mean_pool_size, 0),
                ]
            )
        return table

    def render(self) -> str:
        return self.to_table().render()


def run_pool_ratio_ablation(
    model_name: str = DEFAULT_MODEL,
    bits: int = 4,
    ratios: Sequence[float] = (2.0, 5.0, 10.0, 25.0, 50.0),
    profile: str = "default",
    num_task_examples: int = 32,
) -> PoolRatioResult:
    """Sweep the candidate-pool ratio at fixed payload."""
    context = prepare_context(
        model_name, bits, profile=profile, num_task_examples=num_task_examples
    )
    result = PoolRatioResult(model_name=model_name, bits=bits)
    for ratio in ratios:
        config = context.emmark_config.with_overrides(candidate_pool_ratio=ratio)
        emmark = EmMark(config, engine=context.engine)
        watermarked, key, report = emmark.insert_with_key(
            context.fresh_quantized(), context.activations
        )
        quality = context.harness.evaluate(watermarked)
        extraction = emmark.extract_with_key(watermarked, key)
        result.points.append(
            PoolRatioPoint(
                ratio=ratio,
                perplexity=quality.perplexity,
                zero_shot_accuracy=quality.zero_shot_accuracy,
                wer_percent=extraction.wer_percent,
                mean_pool_size=float(np.mean(list(report.candidate_pool_sizes.values()))),
            )
        )
    return result


# ----------------------------------------------------------------------
# Saliency source
# ----------------------------------------------------------------------
@dataclass
class SaliencySourceResult:
    """Overlap between full-precision-scored and quantized-scored locations."""

    model_name: str
    bits: int
    per_layer_overlap: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_overlap(self) -> float:
        """Mean fraction of owner locations an adversary would also select."""
        if not self.per_layer_overlap:
            return 0.0
        return float(np.mean(list(self.per_layer_overlap.values())))

    def to_table(self) -> Table:
        table = Table(
            title=(
                f"Ablation: saliency source on {self.model_name} (INT{self.bits}) — "
                "location overlap when scoring with quantized-model activations"
            ),
            columns=["Layer", "Overlap fraction"],
        )
        for name, overlap in self.per_layer_overlap.items():
            table.add_row([name, format_float(overlap, 3)])
        table.add_row(["mean", format_float(self.mean_overlap, 3)])
        return table

    def render(self) -> str:
        return self.to_table().render()


def run_saliency_source_ablation(
    model_name: str = DEFAULT_MODEL,
    bits: int = 4,
    profile: str = "default",
) -> SaliencySourceResult:
    """Compare owner locations against quantized-activation-scored locations."""
    context = prepare_context(model_name, bits, profile=profile)
    emmark = EmMark(context.emmark_config, engine=context.engine)
    _, owner_key, _ = emmark.insert_with_key(context.fresh_quantized(), context.activations)
    # Insertion just warmed the plan cache, so this reproduction is pure lookups.
    owner_locations = context.engine.reproduce_locations(owner_key)

    # Re-score with activations measured on the *quantized* model, which is
    # all an adversary has.
    quantized_activations = collect_activation_stats(
        context.quantized.materialize(), context.harness.calibration_corpus
    )
    adversary_key = owner_key
    adversary_key = type(owner_key)(
        signature=owner_key.signature,
        config=owner_key.config,
        reference_weights=owner_key.reference_weights,
        activations=quantized_activations,
        layer_names=owner_key.layer_names,
        method=owner_key.method,
        bits=owner_key.bits,
        model_name=owner_key.model_name,
        outlier_columns=owner_key.outlier_columns,
    )
    adversary_locations = context.engine.reproduce_locations(adversary_key)

    result = SaliencySourceResult(model_name=model_name, bits=bits)
    for name in owner_key.layer_names:
        owner_set = set(np.asarray(owner_locations[name]).tolist())
        adversary_set = set(np.asarray(adversary_locations[name]).tolist())
        if not owner_set:
            result.per_layer_overlap[name] = 0.0
            continue
        result.per_layer_overlap[name] = len(owner_set & adversary_set) / len(owner_set)
    return result
