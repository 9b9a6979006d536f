"""Occupancy audit: prove co-resident keys reproduce disjoint slot sets.

The registry's core multi-tenancy invariant is that every key registered
against one model fingerprint was planned around its siblings' occupancy —
their reproduced slot locations are pairwise disjoint, so no owner's bits
clobber another's.  The audit re-derives that from first principles: for
each model fingerprint it reloads the co-resident key set and replays
:meth:`repro.engine.allocator.SlotAllocator.from_keys`, which reproduces
every key's locations through the engine and raises
:class:`~repro.engine.allocator.SlotCollisionError` on any overlap.

Run it on demand via ``repro audit`` (offline over a registry directory, or
remotely against a server) or ``GET /v1/audit``.  The report digest is keyed
by model fingerprint, so the same registered key population always yields
the same digest whichever way it is audited.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.allocator import SlotAllocator, SlotCollisionError
from repro.utils.logging import get_logger

__all__ = ["ModelAuditVerdict", "OccupancyAuditReport", "occupancy_audit"]

logger = get_logger("service.occupancy")


@dataclass
class ModelAuditVerdict:
    """Disjointness verdict for one model fingerprint's co-resident key set."""

    model_fingerprint: str
    key_ids: List[str]
    owners: List[str]
    disjoint: bool
    total_slots: int = 0
    collision: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "model_fingerprint": self.model_fingerprint,
            "key_ids": list(self.key_ids),
            "owners": list(self.owners),
            "disjoint": self.disjoint,
            "total_slots": self.total_slots,
        }
        if self.collision is not None:
            payload["collision"] = dict(self.collision)
        return payload


@dataclass
class OccupancyAuditReport:
    """All per-fingerprint verdicts of one registry."""

    verdicts: List[ModelAuditVerdict] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every audited key set reproduced disjoint locations."""
        return all(verdict.disjoint for verdict in self.verdicts)

    @property
    def collisions(self) -> List[ModelAuditVerdict]:
        return [verdict for verdict in self.verdicts if not verdict.disjoint]

    def digest(self) -> str:
        """Stable content digest of the verdicts.

        Verdicts are keyed and sorted by model fingerprint before hashing,
        so the digest is independent of audit order — the same registered
        key population always produces the same digest.
        """
        canonical = json.dumps(
            [v.to_dict() for v in sorted(self.verdicts, key=lambda v: v.model_fingerprint)],
            sort_keys=True,
            separators=(",", ":"),
        )
        return "aud-" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "digest": self.digest(),
            "models": len(self.verdicts),
            "collisions": len(self.collisions),
            "elapsed_seconds": self.elapsed_seconds,
            "verdicts": [v.to_dict() for v in self.verdicts],
        }


def occupancy_audit(registry, engine=None) -> OccupancyAuditReport:
    """Audit every model fingerprint of ``registry`` for slot disjointness.

    Each fingerprint's active keys are loaded (lazily, through the registry's
    residency layer) and their locations reproduced via
    :meth:`SlotAllocator.from_keys`; plan-cache hits make repeats cheap.  An
    overlap does not abort the audit — the verdict records the collision and
    the sweep continues, so one bad co-residency surfaces without hiding
    others.
    """
    if engine is None:
        from repro.engine.engine import get_default_engine

        engine = get_default_engine()
    started = time.perf_counter()
    report = OccupancyAuditReport()
    for fingerprint in registry.model_fingerprints():
        keys = registry.keys_for_model(fingerprint)
        if not keys:
            continue  # every sibling revoked — nothing co-resident to audit
        owners = registry.owners_for_model(fingerprint)
        key_ids = sorted(keys)
        verdict = ModelAuditVerdict(
            model_fingerprint=fingerprint,
            key_ids=key_ids,
            owners=[owners.get(kid, "") for kid in key_ids],
            disjoint=True,
        )
        try:
            allocator = SlotAllocator.from_keys(
                {kid: keys[kid] for kid in key_ids}, engine
            )
            verdict.total_slots = allocator.total_slots
        except SlotCollisionError as exc:
            verdict.disjoint = False
            verdict.collision = {
                "layer": exc.layer_name,
                "indices": [int(i) for i in exc.indices[:8]],
                "holder": exc.holder,
            }
            logger.warning(
                "occupancy audit: collision on %s (layer %s, holder %s)",
                fingerprint,
                exc.layer_name,
                exc.holder,
            )
        report.verdicts.append(verdict)
    report.verdicts.sort(key=lambda v: v.model_fingerprint)
    report.elapsed_seconds = time.perf_counter() - started
    return report
