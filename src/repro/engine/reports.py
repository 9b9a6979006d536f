"""Structured reports produced by the watermarking engine.

These dataclasses are shared by every pipeline that sits on the engine — the
EmMark insertion/extraction stages, the baseline watermarkers and the batch
serving APIs (:meth:`~repro.engine.engine.WatermarkEngine.verify_fleet`,
:meth:`~repro.engine.engine.WatermarkEngine.insert_multi`).  They live in a
dependency-light module (NumPy only) so that both ``repro.core`` and
``repro.engine`` can import them without circularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.ticket import VerificationTicket

__all__ = [
    "DEFAULT_OWNERSHIP_THRESHOLD",
    "DEFAULT_MAX_FALSE_CLAIM_PROBABILITY",
    "InsertionReport",
    "ExtractionResult",
    "PairVerification",
    "FleetVerificationReport",
    "OwnerInsertion",
    "MultiOwnerInsertionResult",
]

#: WER (in percent) above which ownership is asserted by default.  Defined
#: here (the dependency-light module) so every verdict path shares a single
#: source of truth.
DEFAULT_OWNERSHIP_THRESHOLD = 90.0
#: Default bound on the Equation 8 false-claim probability.
DEFAULT_MAX_FALSE_CLAIM_PROBABILITY = 1e-6


@dataclass
class InsertionReport:
    """Summary of one insertion run (used by the efficiency experiment).

    Attributes
    ----------
    total_bits:
        Signature length ``|B|`` inserted across all layers.
    num_layers:
        Number of quantization layers watermarked.
    per_layer_seconds:
        Time spent scoring + inserting each layer, in canonical layer order.
        Measured with ``time.thread_time`` (the calling thread's own CPU
        time), so the value is the layer's cost even while other callers
        share the engine; the entries do not sum to the elapsed wall-clock
        time.
    candidate_pool_sizes:
        Per-layer candidate pool ``|B_c|``.
    wall_clock_seconds:
        Elapsed wall-clock time of the whole insertion, including the
        signature, clone and key construction around the layer loop.
        Table 2 reports per-layer cost from ``per_layer_seconds`` while this
        field carries the actually-observed latency.
    cache_hits, cache_misses:
        Location-plan lookups this insertion made (one per layer), counted
        apart from any concurrent insertion sharing the cache.
    ticket:
        The new key's verification ticket, built from the plans the
        insertion used (equal to ``engine.ticket_for(key)``); informational,
        excluded from equality and ``repr``.
    """

    total_bits: int
    num_layers: int
    per_layer_seconds: List[float]
    candidate_pool_sizes: Dict[str, int]
    wall_clock_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    ticket: Optional[VerificationTicket] = field(
        default=None, repr=False, compare=False, metadata={"informational": True}
    )

    @property
    def total_seconds(self) -> float:
        """Summed per-layer CPU time spent scoring and inserting.

        This is the Table 2 quantity (per-layer cost × layers); see
        :attr:`wall_clock_seconds` for the elapsed latency.
        """
        return float(sum(self.per_layer_seconds))

    @property
    def mean_seconds_per_layer(self) -> float:
        """Average insertion time per quantization layer (Table 2 metric)."""
        if not self.per_layer_seconds:
            return 0.0
        return float(np.mean(self.per_layer_seconds))


@dataclass
class ExtractionResult:
    """Outcome of one watermark extraction.

    Attributes
    ----------
    total_bits:
        Signature length ``|B|``.
    matched_bits:
        Number of signature bits recovered exactly (``|B|'``).
    wer_percent:
        Watermark extraction rate ``100 · |B|' / |B|`` (Equation 7).
    per_layer_wer:
        Extraction rate per quantization layer (diagnostics; the attacks
        rarely damage layers uniformly).
    false_claim_probability:
        Probability that an unrelated model would match at least
        ``matched_bits`` bits by chance (Equation 8).
    locations:
        The reproduced watermark locations per layer (flattened indices).
    wall_clock_seconds:
        Elapsed time of the extraction (location reproduction + matching).
    """

    total_bits: int
    matched_bits: int
    wer_percent: float
    per_layer_wer: Dict[str, float] = field(default_factory=dict)
    false_claim_probability: float = 1.0
    locations: Dict[str, np.ndarray] = field(default_factory=dict)
    wall_clock_seconds: float = 0.0

    @classmethod
    def from_counts(
        cls,
        total_bits: int,
        matched_bits: int,
        per_layer_wer: Optional[Dict[str, float]] = None,
        locations: Optional[Dict[str, np.ndarray]] = None,
        wall_clock_seconds: float = 0.0,
    ) -> "ExtractionResult":
        """Build a result from raw match counts (WER + Equation 8 derived)."""
        # Imported lazily: strength lives under repro.core, which imports this
        # module during its own package initialisation.
        from repro.core.strength import false_claim_probability

        wer = 100.0 * matched_bits / total_bits if total_bits else 0.0
        probability = (
            false_claim_probability(total_bits, matched_bits) if total_bits else 1.0
        )
        return cls(
            total_bits=total_bits,
            matched_bits=matched_bits,
            wer_percent=wer,
            per_layer_wer=per_layer_wer or {},
            false_claim_probability=probability,
            locations=locations or {},
            wall_clock_seconds=wall_clock_seconds,
        )

    @property
    def fully_extracted(self) -> bool:
        """True when every signature bit was recovered."""
        return self.matched_bits == self.total_bits

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"WER {self.wer_percent:.2f}% ({self.matched_bits}/{self.total_bits} bits), "
            f"false-claim probability {self.false_claim_probability:.3e}"
        )


@dataclass
class PairVerification:
    """One (suspect, key) cell of a fleet verification.

    ``owned`` is the ownership verdict under the thresholds the fleet call
    was made with; the raw evidence (WER, match counts, Equation 8
    probability) is retained so callers can re-threshold without re-running.
    """

    suspect_id: str
    key_id: str
    total_bits: int
    matched_bits: int
    wer_percent: float
    false_claim_probability: float
    owned: bool
    seconds: float = 0.0

    def to_dict(self) -> dict:
        """JSON-able form (the service's per-decision wire representation)."""
        return {
            "suspect_id": self.suspect_id,
            "key_id": self.key_id,
            "total_bits": self.total_bits,
            "matched_bits": self.matched_bits,
            "wer_percent": self.wer_percent,
            "false_claim_probability": self.false_claim_probability,
            "owned": self.owned,
            "seconds": self.seconds,
        }

    def summary(self) -> str:
        """One-line human-readable summary of the pair."""
        verdict = "OWNED" if self.owned else "not owned"
        return (
            f"{self.suspect_id} × {self.key_id}: WER {self.wer_percent:.2f}% "
            f"({self.matched_bits}/{self.total_bits}), "
            f"P_c {self.false_claim_probability:.3e} → {verdict}"
        )


@dataclass
class FleetVerificationReport:
    """Structured result of :meth:`WatermarkEngine.verify_fleet`.

    Attributes
    ----------
    pairs:
        One :class:`PairVerification` per evaluated (suspect, key) pair, in
        suspect-major order.
    wall_clock_seconds:
        Elapsed time of the whole fleet sweep.
    cache_hits, cache_misses, cache_evictions:
        Location-plan cache traffic of the sweep.  A warm sweep over a known
        key shows ``cache_misses == 0`` — the per-key scoring work is done
        exactly once no matter how many suspects are screened.  A non-zero
        eviction count means the cache is undersized for the key working set
        (warm sweeps will silently degrade to cold ones).
    """

    pairs: List[PairVerification] = field(default_factory=list)
    wall_clock_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0

    @property
    def num_pairs(self) -> int:
        """Number of evaluated (suspect, key) pairs."""
        return len(self.pairs)

    def owned_pairs(self) -> List[PairVerification]:
        """The pairs whose ownership claim was asserted."""
        return [pair for pair in self.pairs if pair.owned]

    def for_suspect(self, suspect_id: str) -> List[PairVerification]:
        """All pairs involving one suspect."""
        return [pair for pair in self.pairs if pair.suspect_id == suspect_id]

    def for_key(self, key_id: str) -> List[PairVerification]:
        """All pairs involving one key."""
        return [pair for pair in self.pairs if pair.key_id == key_id]

    def ownership_matrix(self) -> Dict[str, Dict[str, bool]]:
        """``{suspect_id: {key_id: owned}}`` verdict matrix."""
        matrix: Dict[str, Dict[str, bool]] = {}
        for pair in self.pairs:
            matrix.setdefault(pair.suspect_id, {})[pair.key_id] = pair.owned
        return matrix

    def cache_stats(self) -> dict:
        """JSON-able plan-cache traffic attributable to this sweep."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "evictions": self.cache_evictions,
        }

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        header = (
            f"fleet verification: {self.num_pairs} pairs, "
            f"{len(self.owned_pairs())} owned, "
            f"{self.wall_clock_seconds:.3f}s wall clock, "
            f"plan cache {self.cache_hits} hits / {self.cache_misses} misses "
            f"/ {self.cache_evictions} evictions"
        )
        return "\n".join([header] + [f"  {pair.summary()}" for pair in self.pairs])


@dataclass
class OwnerInsertion:
    """One owner's outcome inside a multi-owner (co-resident) insertion."""

    owner_id: str
    key: object
    report: InsertionReport


@dataclass
class MultiOwnerInsertionResult:
    """Structured result of :meth:`WatermarkEngine.insert_multi`.

    This is **one model carrying N keys**: every owner's signature lives on a
    disjoint slot pool of the same integer-weight domain, and each key
    extracts independently at full WER from :attr:`model`.
    """

    model: object
    items: List[OwnerInsertion] = field(default_factory=list)
    #: The :class:`~repro.engine.allocator.SlotAllocator` holding the final
    #: occupancy — hand it to a later ``engine.insert(occupied=...)`` to add
    #: another owner without disturbing the existing ones.
    allocator: object = None
    wall_clock_seconds: float = 0.0

    @property
    def num_owners(self) -> int:
        """Number of co-resident owners inserted."""
        return len(self.items)

    @property
    def total_bits(self) -> int:
        """Signature bits inserted across every owner."""
        return sum(item.report.total_bits for item in self.items)

    def keys(self) -> Dict[str, object]:
        """``{owner_id: WatermarkKey}`` for every co-resident owner."""
        return {item.owner_id: item.key for item in self.items}

    def key_for(self, owner_id: str) -> object:
        """One owner's key (raises ``KeyError`` for unknown owners)."""
        for item in self.items:
            if item.owner_id == owner_id:
                return item.key
        raise KeyError(f"unknown owner {owner_id!r}; inserted: {[i.owner_id for i in self.items]}")

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"multi-owner insertion: {self.num_owners} owners co-resident, "
            f"{self.total_bits} bits total, {self.wall_clock_seconds:.3f}s wall clock"
        )
