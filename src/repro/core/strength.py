"""Watermark strength (Equation 8).

The strength of an EmMark watermark is the probability that an *unrelated*
model matches at least ``k`` of the ``|B|`` inserted signature bits by chance.
Because each bit is Rademacher (±1 with probability 0.5) and an unrelated
model's weight differences are independent of the signature, the number of
matching bits follows a Binomial(|B|, 0.5) distribution:

``P_c = Σ_{i=k}^{|B|} C(|B|, i) · 0.5^{|B|}``

The paper reports ``P_c ≈ 9.09 × 10⁻¹³`` for a fully matched 40-bit layer and
``≈ 1.57 × 10⁻³⁰`` for 100 bits, and raises the per-layer strength to the
``n``-th power for an ``n``-layer model because the per-layer signatures are
independent.
"""

from __future__ import annotations

import functools
from typing import Union

import numpy as np
from scipy import special

__all__ = [
    "false_claim_probability",
    "watermark_strength",
    "log10_watermark_strength",
    "required_bits_for_strength",
]


@functools.lru_cache(maxsize=4096)
def false_claim_probability(total_bits: int, matched_bits: int) -> float:
    """Equation 8: probability of matching at least ``matched_bits`` by chance.

    A pure function of two integers, memoized: every verdict evaluates it
    (~0.1 ms of ``gammaln`` + ``logsumexp``), and the pairs ``(|B|, k)`` a
    process sees repeat.  Invalid arguments raise on every call (exceptions
    are never cached).

    Parameters
    ----------
    total_bits:
        Signature length ``|B|``.
    matched_bits:
        Observed number of matching bits ``k``.
    """
    if total_bits < 1:
        raise ValueError("total_bits must be >= 1")
    if not 0 <= matched_bits <= total_bits:
        raise ValueError("matched_bits must be between 0 and total_bits")
    if matched_bits == 0:
        return 1.0
    # Survival function of Binomial(n, 0.5) evaluated exactly in log space to
    # stay meaningful for the astronomically small tail probabilities the
    # paper quotes (1e-30 and far beyond).  Always sum the *smaller* tail:
    # summing the near-1 side directly wobbles by a few ULPs across adjacent
    # ``matched_bits`` values, which breaks the monotonicity callers rely on
    # when re-thresholding evidence.
    if 2 * matched_bits > total_bits:
        log_probability = _log_binomial_tail(total_bits, matched_bits)
        return float(min(1.0, np.exp(log_probability)))
    lower_tail = np.exp(_log_binomial_lower_tail(total_bits, matched_bits - 1))
    return float(max(0.0, 1.0 - lower_tail))


def _log_binomial_mass(n: int, lo: int, hi: int) -> float:
    """Natural log of ``P[lo <= X <= hi]`` for ``X ~ Binomial(n, 0.5)``."""
    terms = np.arange(lo, hi + 1, dtype=np.float64)
    log_terms = (
        special.gammaln(n + 1)
        - special.gammaln(terms + 1)
        - special.gammaln(n - terms + 1)
        - n * np.log(2.0)
    )
    return float(special.logsumexp(log_terms))


def _log_binomial_tail(n: int, k: int) -> float:
    """Natural log of ``P[X >= k]`` for ``X ~ Binomial(n, 0.5)``."""
    return _log_binomial_mass(n, k, n)


def _log_binomial_lower_tail(n: int, k: int) -> float:
    """Natural log of ``P[X <= k]`` for ``X ~ Binomial(n, 0.5)``."""
    return _log_binomial_mass(n, 0, k)


def watermark_strength(
    bits_per_layer: int, num_layers: int = 1, matched_fraction: float = 1.0
) -> float:
    """Strength of an EmMark watermark spanning ``num_layers`` layers.

    The per-layer false-claim probability (Equation 8) is raised to the power
    of the number of layers, following Section 5.1 / 5.3 of the paper where a
    per-layer strength of ``9.09e-13`` becomes ``9.09e-13^n`` for an
    ``n``-layer model.

    Returns 0.0 when the product underflows a double — the paper itself quotes
    values like ``1.57e-5760`` which are only representable in log space; use
    :func:`log10_watermark_strength` when the exact magnitude matters.
    """
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    if not 0.0 < matched_fraction <= 1.0:
        raise ValueError("matched_fraction must be in (0, 1]")
    matched = int(np.ceil(bits_per_layer * matched_fraction))
    per_layer = false_claim_probability(bits_per_layer, matched)
    return float(per_layer ** num_layers)


def log10_watermark_strength(
    bits_per_layer: int, num_layers: int = 1, matched_fraction: float = 1.0
) -> float:
    """Base-10 logarithm of :func:`watermark_strength` (never underflows)."""
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    if not 0.0 < matched_fraction <= 1.0:
        raise ValueError("matched_fraction must be in (0, 1]")
    matched = int(np.ceil(bits_per_layer * matched_fraction))
    log_per_layer = _log_binomial_tail(bits_per_layer, matched) / np.log(10.0)
    return float(num_layers * log_per_layer)


def required_bits_for_strength(
    target_probability: float, num_layers: int = 1
) -> int:
    """Smallest per-layer signature length achieving a target strength.

    Useful for capacity planning: given the desired overall false-claim
    probability and the number of quantization layers, how many bits must be
    inserted per layer (assuming full extraction)?
    """
    if not 0.0 < target_probability < 1.0:
        raise ValueError("target_probability must be in (0, 1)")
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    per_layer_target_log10 = np.log10(target_probability) / num_layers
    bits = 1
    while log10_watermark_strength(bits, 1) > per_layer_target_log10:
        bits += 1
        if bits > 4096:
            raise ValueError("target strength requires more than 4096 bits per layer")
    return bits


Probability = Union[float, np.floating]
