"""The unified watermarking engine.

This subsystem is the shared execution substrate underneath every watermark
pipeline in the reproduction:

* :mod:`repro.engine.plan` — :class:`LocationPlan`, the memoizable unit of
  scoring + seeded sub-sampling work, and its content fingerprint.
* :mod:`repro.engine.cache` — :class:`PlanCache`, a thread-safe LRU cache of
  plans with hit/miss/eviction counters.
* :mod:`repro.engine.reports` — structured reports: insertion timing
  (wall-clock vs. summed per-layer CPU), extraction results, and the
  fleet-verification / multi-owner insertion reports.
* :mod:`repro.engine.ticket` — :class:`VerificationTicket`, the few-KB
  per-key evidence a verdict reads (locations, reference integers at them,
  signature slices, layer shapes), derived once per key.
* :mod:`repro.engine.allocator` — :class:`SlotAllocator`, the
  slot-allocation layer tracking which (layer, flat-index) watermark
  positions of a model are already held, so several independently keyed
  owners can co-reside in one integer-weight domain on disjoint pools.
* :mod:`repro.engine.engine` — :class:`WatermarkEngine`, tying cached
  planning, the fused top-k scoring kernel and a serial per-layer loop
  together: ``insert`` / ``insert_multi`` / ``extract`` / ``verify`` /
  ``reproduce_locations`` / ``ticket_for``, the batch serving APIs
  ``verify_fleet`` / ``verification_session``, and the process-wide default
  engine :class:`~repro.core.emmark.EmMark` runs on when given none.

Quickstart
----------
>>> from repro.engine import WatermarkEngine
>>> engine = WatermarkEngine()
>>> wm, key, report = engine.insert(quantized, activations)
>>> engine.extract(wm, key).wer_percent          # served from the plan cache
100.0
>>> fleet = engine.verify_fleet({"a": wm, "b": quantized}, {"owner": key})
>>> fleet.ownership_matrix()
{'a': {'owner': True}, 'b': {'owner': False}}
"""

# Leaf modules first: repro.core imports repro.engine.reports during its own
# package initialisation, so everything imported eagerly here must stay free
# of repro.core dependencies.
from repro.engine.allocator import SlotAllocator, SlotCollisionError
from repro.engine.cache import CacheStats, PlanCache
from repro.engine.plan import LocationPlan, plan_fingerprint
from repro.engine.ticket import VerificationTicket
from repro.engine.reports import (
    ExtractionResult,
    FleetVerificationReport,
    InsertionReport,
    MultiOwnerInsertionResult,
    OwnerInsertion,
    PairVerification,
)

# The engine itself pulls in repro.core leaf modules (config, scoring, keys);
# importing it last keeps package initialisation cycle-free in both import
# orders (``import repro`` and ``import repro.engine``).
from repro.engine.engine import (
    EngineConfig,
    FleetVerificationSession,
    WatermarkEngine,
    derive_owner_configs,
    get_default_engine,
)

__all__ = [
    "CacheStats",
    "PlanCache",
    "LocationPlan",
    "plan_fingerprint",
    "VerificationTicket",
    "SlotAllocator",
    "SlotCollisionError",
    "InsertionReport",
    "ExtractionResult",
    "PairVerification",
    "FleetVerificationReport",
    "OwnerInsertion",
    "MultiOwnerInsertionResult",
    "EngineConfig",
    "WatermarkEngine",
    "FleetVerificationSession",
    "get_default_engine",
    "derive_owner_configs",
]
