"""Thread-safe LRU cache for :class:`~repro.engine.plan.LocationPlan` objects.

The cache is the heart of the engine's "score once, reuse everywhere"
behaviour: insertion warms it, and every later extraction / ownership
verification / attack-sweep evaluation against the same key is a pure lookup
(zero rescoring — asserted by the engine test-suite via the hit/miss
counters exposed here).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.engine.plan import LocationPlan

__all__ = ["CacheStats", "PlanCache"]


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of cache traffic."""

    hits: int
    misses: int
    evictions: int
    entries: int
    max_entries: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-able counter snapshot (used by the service ``/stats`` endpoint)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "max_entries": self.max_entries,
            "hit_rate": self.hit_rate,
        }

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Traffic accumulated since an ``earlier`` snapshot."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
            entries=self.entries,
            max_entries=self.max_entries,
        )


class PlanCache:
    """A bounded, thread-safe, least-recently-used plan cache.

    Parameters
    ----------
    max_entries:
        Capacity bound; the least recently *used* plan is evicted when a new
        plan would exceed it.  Each entry holds one layer's candidate pool and
        locations (a few KB for the simulated models), so the default
        comfortably covers many models' worth of layers.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[str, LocationPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # Per-thread lookup tallies: the engine-wide counters above mix every
        # thread's traffic, so a caller attributing lookups to its own work
        # (one insertion among concurrent ones) reads these instead.
        self._thread = threading.local()

    # -- lookups ------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[LocationPlan]:
        """Return the cached plan for ``fingerprint`` (counts a hit/miss)."""
        with self._lock:
            plan = self._entries.get(fingerprint)
            if plan is None:
                self._misses += 1
            else:
                self._entries.move_to_end(fingerprint)
                self._hits += 1
        tally = self._thread
        if plan is None:
            tally.misses = getattr(tally, "misses", 0) + 1
        else:
            tally.hits = getattr(tally, "hits", 0) + 1
        return plan

    def thread_lookups(self) -> Tuple[int, int]:
        """``(hits, misses)`` of every lookup the calling thread has made."""
        tally = self._thread
        return getattr(tally, "hits", 0), getattr(tally, "misses", 0)

    def put(self, fingerprint: str, plan: LocationPlan) -> None:
        """Insert (or refresh) a plan, evicting the LRU entry if over capacity."""
        with self._lock:
            if fingerprint in self._entries:
                self._entries.move_to_end(fingerprint)
                self._entries[fingerprint] = plan
                return
            self._entries[fingerprint] = plan
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def get_or_compute(
        self, fingerprint: str, factory: Callable[[], LocationPlan]
    ) -> LocationPlan:
        """Cached plan for ``fingerprint``, computing it on a miss.

        The factory runs outside the lock so concurrent layers never serialize
        on each other's scoring work; two threads racing on the *same*
        fingerprint would both compute the identical plan (the computation is
        a pure function of the fingerprinted inputs) and the second insert is
        a harmless refresh.
        """
        plan = self.get(fingerprint)
        if plan is not None:
            return plan
        plan = factory()
        self.put(fingerprint, plan)
        return plan

    # -- bookkeeping ---------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    @property
    def hits(self) -> int:
        """Number of lookups served from the cache."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of lookups that required a fresh computation."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Number of plans dropped due to the capacity bound."""
        return self._evictions

    def stats(self) -> CacheStats:
        """Snapshot of the cache counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                max_entries=self.max_entries,
            )

    def clear(self) -> None:
        """Drop every cached plan (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def reset_lock(self) -> None:
        """Replace the internal lock without touching entries or counters.

        Fork hygiene only (see ``repro.engine.engine._reset_engines_after_fork``):
        a child forked while another parent thread held the lock would
        deadlock on its first cache access, so the inherited lock object is
        swapped for a fresh one.  Never call this in a process with live
        threads using the cache.
        """
        self._lock = threading.Lock()
