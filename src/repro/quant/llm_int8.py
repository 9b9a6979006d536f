"""LLM.int8(): mixed-precision outlier decomposition (INT8).

LLM.int8() [Dettmers et al., 2022] keeps the handful of input channels whose
activations contain extreme outliers in full precision and quantizes the rest
of the weight matrix to INT8.  At inference the two partial mat-muls are summed.
The paper uses LLM.int8() to produce the INT8 LLaMA-2 models that EmMark
watermarks.

The reproduction detects outlier channels from the calibration activation
maxima (either an absolute threshold or a top-fraction rule, whichever marks
more channels), stores their full-precision weight columns separately, and
quantizes the remaining columns with per-output-channel RTN.  Watermarking
only ever touches the integer part — the outlier columns are excluded from
the candidate set via :meth:`QuantizedLinear.quantized_mask`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models.activations import ActivationStats
from repro.quant.base import QuantizedLinear, quantize_tensor
from repro.quant.quantizer import BaseQuantizer

__all__ = ["LLMInt8Quantizer", "rewrite_outlier_entries"]


def rewrite_outlier_entries(
    layer: QuantizedLinear, fraction: float, rng: np.random.Generator
) -> int:
    """Resample a fraction of a layer's full-precision outlier entries.

    This is the attack-side hook of the LLM.int8() decomposition: the
    adversary rewrites entries of ``outlier_weight`` — the columns
    ``effective_weight()`` re-inserts verbatim — with fresh draws from the
    empirical distribution of the layer's own outlier values.  The integer
    tensor (where the watermark lives) is untouched, so the damage lands
    exclusively on model quality.  Mutates ``layer`` in place and returns the
    number of rewritten entries (0 when the layer has no outlier columns).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    if layer.outlier_weight is None or layer.outlier_weight.size == 0:
        return 0
    if not layer.outlier_weight.flags.writeable:
        # Frozen layers (shared-memory views handed to process-pool workers,
        # see repro.engine.shm) must never be attacked in place — numpy would
        # raise on the write below anyway, but with a message that hides
        # which tensor was frozen and why.
        raise ValueError(
            f"layer {layer.name!r} holds read-only outlier weights "
            "(a frozen/shared view); clone the model before attacking it"
        )
    if not layer.outlier_weight.flags["C_CONTIGUOUS"]:
        # reshape(-1) on a non-contiguous tensor is a copy and the writes
        # below would be lost.
        layer.outlier_weight = np.ascontiguousarray(layer.outlier_weight)
    flat = layer.outlier_weight.reshape(-1)
    count = int(round(flat.size * fraction))
    if count == 0:
        return 0
    positions = rng.choice(flat.size, size=count, replace=False)
    location = float(np.mean(flat))
    spread = float(np.std(flat))
    if spread == 0.0:
        spread = max(abs(location), 1.0)
    flat[positions] = rng.normal(location, spread, size=count)
    return count


class LLMInt8Quantizer(BaseQuantizer):
    """LLM.int8() style mixed-precision quantization.

    Parameters
    ----------
    bits:
        Bit width of the non-outlier weights (8 in the original work).
    outlier_threshold:
        Activation-magnitude threshold, expressed as a multiple of the mean
        per-channel maximum, above which a channel is treated as an outlier.
    max_outlier_fraction:
        Upper bound on the fraction of channels kept in full precision
        (LLM.int8() reports <1% in practice; the simulated models have more
        pronounced outliers so a slightly larger cap keeps behaviour stable).
    """

    method_name = "llm_int8"
    requires_activations = True

    def __init__(
        self,
        bits: int = 8,
        outlier_threshold: float = 3.0,
        max_outlier_fraction: float = 0.1,
        per_channel: bool = True,
    ) -> None:
        super().__init__(bits=bits, per_channel=per_channel)
        if outlier_threshold <= 0:
            raise ValueError("outlier_threshold must be positive")
        if not 0.0 <= max_outlier_fraction <= 0.5:
            raise ValueError("max_outlier_fraction must be in [0, 0.5]")
        self.outlier_threshold = float(outlier_threshold)
        self.max_outlier_fraction = float(max_outlier_fraction)

    def _detect_outlier_columns(self, name: str, activations: ActivationStats) -> np.ndarray:
        """Indices of input channels whose activations exceed the threshold."""
        act_max = np.asarray(activations.maximum.get(name, activations.mean_abs[name]))
        if act_max.size == 0:
            return np.zeros(0, dtype=np.int64)
        reference = float(np.mean(act_max)) + 1e-12
        candidates = np.flatnonzero(act_max > self.outlier_threshold * reference)
        cap = max(0, int(np.floor(act_max.size * self.max_outlier_fraction)))
        if candidates.size > cap:
            order = np.argsort(act_max[candidates])[::-1]
            candidates = candidates[order[:cap]]
        return np.sort(candidates.astype(np.int64))

    def _quantize_layer(
        self,
        name: str,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        activations: Optional[ActivationStats],
    ) -> QuantizedLinear:
        assert activations is not None  # guaranteed by BaseQuantizer.quantize
        outlier_columns = self._detect_outlier_columns(name, activations)
        working = weight.copy()
        outlier_weight = None
        if outlier_columns.size:
            outlier_weight = weight[:, outlier_columns].copy()
            # Zero the outlier columns before computing step sizes so they do
            # not inflate the per-row maxima of the INT8 part.
            working[:, outlier_columns] = 0.0
        weight_int, scale = quantize_tensor(working, self.grid, per_channel=self.per_channel)
        if outlier_columns.size:
            weight_int[:, outlier_columns] = 0
        return QuantizedLinear(
            name=name,
            weight_int=weight_int,
            scale=scale,
            grid=self.grid,
            bias=bias,
            outlier_columns=outlier_columns if outlier_columns.size else None,
            outlier_weight=outlier_weight if outlier_columns.size else None,
        )
