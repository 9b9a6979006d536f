"""Calibration passes collecting per-channel activation statistics.

EmMark's robustness score :math:`S_r` and the activation-aware quantizers
(AWQ, SmoothQuant, LLM.int8()) all need the same quantity: for every linear
("quantization") layer, the average absolute magnitude of the activation
feeding each *input channel*, measured on a small calibration corpus with the
**full-precision** model.  The paper denotes this :math:`A_f`.

:class:`ActivationStats` stores these per-layer channel vectors;
:func:`collect_activation_stats` runs the calibration forward passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

import numpy as np

from repro.data.corpus import TokenCorpus
from repro.models.transformer import TransformerLM

__all__ = ["ActivationStats", "ActivationCapture", "collect_activation_stats"]


class ActivationCapture:
    """Accumulator passed into the model forward to record linear inputs.

    For each linear layer (identified by its dotted name) the capture keeps a
    running sum of per-channel absolute activations, a running sum of squares
    (for diagnostics), the per-channel maximum, and the number of observed
    positions.
    """

    def __init__(self, collect_gram: bool = True) -> None:
        self._collect_gram = collect_gram
        self._abs_sum: Dict[str, np.ndarray] = {}
        self._sq_sum: Dict[str, np.ndarray] = {}
        self._max: Dict[str, np.ndarray] = {}
        self._gram: Dict[str, np.ndarray] = {}
        self._count: Dict[str, int] = {}

    def update(self, name: str, x: np.ndarray) -> None:
        """Record a batch of activations ``x`` of shape ``(..., channels)``."""
        raw = np.asarray(x, dtype=np.float64).reshape(-1, x.shape[-1])
        flat = np.abs(raw)
        if name not in self._abs_sum:
            channels = flat.shape[1]
            self._abs_sum[name] = np.zeros(channels)
            self._sq_sum[name] = np.zeros(channels)
            self._max[name] = np.zeros(channels)
            if self._collect_gram:
                self._gram[name] = np.zeros((channels, channels))
            self._count[name] = 0
        self._abs_sum[name] += flat.sum(axis=0)
        self._sq_sum[name] += (flat ** 2).sum(axis=0)
        self._max[name] = np.maximum(self._max[name], flat.max(axis=0))
        if self._collect_gram:
            self._gram[name] += raw.T @ raw
        self._count[name] += flat.shape[0]

    def finalize(self) -> "ActivationStats":
        """Convert the running sums into an :class:`ActivationStats`."""
        mean_abs = {}
        rms = {}
        maxima = {}
        gram = {}
        for name, total in self._abs_sum.items():
            count = max(self._count[name], 1)
            mean_abs[name] = total / count
            rms[name] = np.sqrt(self._sq_sum[name] / count)
            maxima[name] = self._max[name].copy()
            if self._collect_gram:
                gram[name] = self._gram[name] / count
        return ActivationStats(mean_abs=mean_abs, rms=rms, maximum=maxima, gram=gram)


@dataclass
class ActivationStats:
    """Per-layer, per-input-channel activation statistics.

    Attributes
    ----------
    mean_abs:
        ``layer name -> (in_channels,)`` mean absolute activation.  This is
        the paper's :math:`A_f` and the quantity every consumer uses by
        default.
    rms:
        Root-mean-square activation per channel (diagnostics / SmoothQuant).
    maximum:
        Maximum absolute activation per channel (LLM.int8() outlier
        detection).
    gram:
        Per-layer activation Gram matrix ``E[x xᵀ]`` of shape
        ``(in_channels, in_channels)``, used by GPTQ as the (proxy) Hessian
        for its error-compensation step.
    """

    mean_abs: Dict[str, np.ndarray]
    rms: Dict[str, np.ndarray] = field(default_factory=dict)
    maximum: Dict[str, np.ndarray] = field(default_factory=dict)
    gram: Dict[str, np.ndarray] = field(default_factory=dict)

    def layers(self) -> Iterable[str]:
        """Names of the layers with recorded statistics."""
        return self.mean_abs.keys()

    def channel_saliency(self, layer_name: str) -> np.ndarray:
        """Mean absolute activation of each input channel of ``layer_name``."""
        if layer_name not in self.mean_abs:
            raise KeyError(f"no activation statistics recorded for layer {layer_name!r}")
        return self.mean_abs[layer_name]

    def top_channels(self, layer_name: str, fraction: float) -> np.ndarray:
        """Indices of the most salient channels of a layer.

        Parameters
        ----------
        layer_name:
            Linear layer name.
        fraction:
            Fraction of channels to return (at least one channel).
        """
        saliency = self.channel_saliency(layer_name)
        count = max(1, int(round(saliency.size * fraction)))
        return np.argsort(saliency)[::-1][:count]


def collect_activation_stats(
    model: TransformerLM,
    corpus: TokenCorpus,
    sequence_length: int = 32,
    max_sequences: Optional[int] = 32,
) -> ActivationStats:
    """Run the full-precision model over a calibration corpus and collect stats.

    Parameters
    ----------
    model:
        The full-precision simulated LLM.
    corpus:
        Calibration corpus (a small held-out slice of the training data).
    sequence_length:
        Window length of each calibration forward pass.
    max_sequences:
        Cap on the number of calibration windows (keeps calibration cheap, as
        in the real AWQ/SmoothQuant pipelines which use ~128 samples).
    """
    capture = ActivationCapture()
    batch = corpus.as_matrix(sequence_length, max_sequences)
    if batch.shape[0] == 0:
        raise ValueError("calibration corpus too short for the requested sequence length")
    model.forward(batch, capture=capture)
    return capture.finalize()
