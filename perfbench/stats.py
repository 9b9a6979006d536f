"""Order statistics used by every report of the benchmark.

Percentiles are nearest-rank: the reported value is always one of the
measured samples, never an interpolation between two of them.  A tail
percentile is only *reportable* when at least ``MIN_BEYOND`` samples lie
beyond it; otherwise a single outlier decides it.

The gated figures use the fast end of each distribution: the lower
quartile of operation times (``LATENCY_Q``) and the upper quartile of block
rates (``RATE_Q``).  On a shared host whose speed swings by +-15% from one
second to the next, slow spells only ever add time; the fast quartile
tracks the program's own cost about twice as steadily as the median does
(across 20 s windows of one fixed loop: 7% against 14% inter-quartile
range), and a change to the program still moves every quantile.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

#: Samples that must lie strictly beyond a percentile for it to be reported.
MIN_BEYOND = 10
#: Percentiles considered for the tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Percentile of operation times reported as ``latency_p25_ms``.
LATENCY_Q = 25.0
#: Percentile of block rates reported as ``throughput_per_s``.
RATE_Q = 75.0


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    # round() guards against q/100*n landing a hair above an integer.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` of ``values``."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def block_rates(done: Sequence[float], per_block: int) -> List[float]:
    """Completions per second over consecutive blocks of ``per_block`` completions.

    ``done`` holds completion times in seconds.  Block ``i`` runs from
    completion ``i * per_block`` to completion ``(i + 1) * per_block``, so
    the first completion only opens the first block and a trailing partial
    block is dropped.
    """
    if per_block < 1:
        raise ValueError("per_block must be at least 1")
    ordered = sorted(done)
    rates = []
    for i in range(0, len(ordered) - per_block, per_block):
        span = ordered[i + per_block] - ordered[i]
        if span > 0:
            rates.append(per_block / span)
    return rates


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q`` percentile rank."""
    return n - _rank(n, q)


def reportable(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """Whether percentile ``q`` of ``n`` samples has ``min_beyond`` samples past it."""
    return n >= 1 and samples_beyond(n, q) >= min_beyond


def highest_reportable(
    n: int, candidates: Iterable[float] = TAIL_CANDIDATES, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """The highest candidate percentile that ``n`` samples can support."""
    for q in sorted(candidates, reverse=True):
        if reportable(n, q, min_beyond):
            return q
    return None


def summarize(values: Sequence[float]) -> Dict[str, object]:
    """p50, p90 and the highest reportable tail of ``values``, with the count."""
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": None, "p90": None, "tail_q": None, "tail": None}
    tail_q = highest_reportable(n)
    return {
        "n": n,
        "p50": percentile(values, 50),
        "p90": percentile(values, 90),
        "p90_reportable": reportable(n, 90),
        "tail_q": tail_q,
        "tail": None if tail_q is None else percentile(values, tail_q),
    }
