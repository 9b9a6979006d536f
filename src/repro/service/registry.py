"""Persistent registry of issued watermark keys.

The registry is the service-side source of truth for "which owners have
watermarked which models".  Keys are content-addressed by their signature
fingerprint (:meth:`repro.core.keys.WatermarkKey.fingerprint`) — registering
the same key twice is idempotent — and indexed by the model-identity
fingerprint (:meth:`~repro.core.keys.WatermarkKey.model_fingerprint`), so an
incoming suspect can be matched against exactly the keys issued for its model
family.

On-disk layout (one sub-directory per key under the registry root)::

    <root>/
      <key_id>/
        record.json          # owner, timestamps, revocation, fingerprints
        watermark_key.json   # WatermarkKey.save() metadata
        watermark_key.npz    # WatermarkKey.save() bulk arrays
      <key_id>.corrupt/      # quarantined entry (unreadable record or arrays)

A registry constructed without a root directory keeps everything in memory —
that mode backs unit tests and ephemeral servers.

Startup is *record-only*: only the small ``record.json`` files are read, never
the bulk NPZ archives, so a server fronting a million keys comes up in seconds.
Each key is served by its resident few-KB
:class:`~repro.engine.ticket.VerificationTicket`, derived at registration or,
after a restart, on first use from one load of the key on disk.  Full keys are
evidence: they load on demand only (occupancy audit, gauntlet subjects).
Corrupt entries are quarantined (directory renamed to ``<key_id>.corrupt``)
instead of bricking the registry, both at startup (bad record) and lazily (bad
arrays).

Thread-safety and lock order
----------------------------
All public methods are thread-safe.  Two lock tiers exist, and nesting only
ever goes downward through this list:

1. per-fingerprint *stripe* locks — serialise disk I/O (persist, and the
   load-and-derive of a ticket) for one model family, so ``/register`` and
   ``/verify`` on different families never contend and two first touches of
   one key load it once;
2. the *index* lock — guards the record map, model index, resident tickets
   and the maintained O(1) counters behind :meth:`stats`.

The index lock is never held while acquiring a stripe lock (lookups snapshot
the record first, then drop to the stripe), which keeps the order acyclic for
the lock-witness harness.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.keys import WatermarkKey
from repro.engine.engine import WatermarkEngine, get_default_engine
from repro.engine.ticket import VerificationTicket
from repro.utils.logging import get_logger
from repro.utils.serialization import load_json, save_json

__all__ = ["KeyRecord", "KeyRegistry", "RegistryError"]

PathLike = Union[str, Path]

logger = get_logger("service.registry")

_RECORD_FILE = "record.json"
_QUARANTINE_SUFFIX = ".corrupt"


class RegistryError(RuntimeError):
    """Raised for registry-level failures (unknown key, corrupt entry, …)."""


@dataclass
class KeyRecord:
    """Bookkeeping attached to one registered key.

    Attributes
    ----------
    key_id:
        Content-addressed id — the key's signature fingerprint.
    model_fingerprint:
        Identity fingerprint of the model the key was inserted into (the
        registry's lookup index for incoming suspects).
    owner:
        Free-form owner identity (team, org, contact).
    created_at:
        Unix timestamp of first registration.
    revoked:
        Revoked keys stay on disk for audit but are excluded from
        verification sweeps.
    total_bits, num_layers, model_name, method, bits:
        Denormalized key facts so ``/keys`` listings don't load bulk arrays.
    co_residents:
        Labels of the other owners co-resident in the key's model (from the
        key's slot-allocation metadata; empty for single-owner keys).
        Denormalized for the same reason: ``/keys`` and ``/suspects``
        listings surface multi-tenancy without loading key material.
    metadata:
        Arbitrary owner-supplied JSON-able metadata.
    """

    key_id: str
    model_fingerprint: str
    owner: str = ""
    created_at: float = 0.0
    revoked: bool = False
    total_bits: int = 0
    num_layers: int = 0
    model_name: str = ""
    method: str = ""
    bits: int = 0
    co_residents: List[str] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form (both the ``record.json`` file and ``/keys`` rows)."""
        return {
            "key_id": self.key_id,
            "model_fingerprint": self.model_fingerprint,
            "owner": self.owner,
            "created_at": self.created_at,
            "revoked": self.revoked,
            "total_bits": self.total_bits,
            "num_layers": self.num_layers,
            "model_name": self.model_name,
            "method": self.method,
            "bits": self.bits,
            "co_residents": list(self.co_residents),
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "KeyRecord":
        """Inverse of :meth:`to_dict`."""
        try:
            return cls(
                key_id=data["key_id"],
                model_fingerprint=data["model_fingerprint"],
                owner=data.get("owner", ""),
                created_at=float(data.get("created_at", 0.0)),
                revoked=bool(data.get("revoked", False)),
                total_bits=int(data.get("total_bits", 0)),
                num_layers=int(data.get("num_layers", 0)),
                model_name=data.get("model_name", ""),
                method=data.get("method", ""),
                bits=int(data.get("bits", 0)),
                co_residents=list(data.get("co_residents", [])),
                metadata=dict(data.get("metadata", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryError(f"malformed key record: {exc}") from exc


class KeyRegistry:
    """Thread-safe store of watermark keys, served as verification tickets.

    Parameters
    ----------
    root:
        Directory to persist into (created if missing; existing entries are
        indexed from their ``record.json`` only — bulk arrays load lazily).
        ``None`` keeps the registry purely in memory.
    engine:
        Engine that derives tickets (its plan cache serves the location
        reproduction); the process-wide default engine when omitted.
    stripes:
        Number of per-fingerprint lock stripes for disk I/O.
    """

    def __init__(
        self,
        root: Optional[PathLike] = None,
        engine: Optional[WatermarkEngine] = None,
        stripes: int = 16,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.engine = engine
        # Lock tiers — see the module docstring for the nesting order.
        self._stripes = [threading.RLock() for _ in range(max(1, int(stripes)))]
        self._index_lock = threading.RLock()
        self._records: Dict[str, KeyRecord] = {}
        # model_fingerprint -> [key_id, ...] in registration order
        self._by_model: Dict[str, List[str]] = {}
        self._tickets: Dict[str, VerificationTicket] = {}
        # Key material of an in-memory registry (a persistent one reads disk).
        self._memory_keys: Dict[str, WatermarkKey] = {}
        # Maintained counters (guarded by the index lock) keep stats() O(1).
        self._active_count = 0
        self._revoked_count = 0
        self._multi_owner_models = 0
        self._owner_counts: Dict[str, int] = {}
        self._model_active: Dict[str, int] = {}
        self._quarantined = 0
        self._key_loads = 0
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._load_existing()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _load_existing(self) -> None:
        """Index persisted entries from their records — *no* bulk-NPZ reads.

        A corrupt ``record.json`` (unparseable, or naming a different key id
        than its directory) quarantines that entry and continues with the
        rest; previously-quarantined ``*.corrupt`` directories are counted
        but otherwise ignored.
        """
        loaded = 0
        for entry in sorted(self.root.iterdir()):
            if entry.name.endswith(_QUARANTINE_SUFFIX):
                self._quarantined += 1
                continue
            if not (entry / _RECORD_FILE).exists():
                continue
            try:
                record = KeyRecord.from_dict(load_json(entry / _RECORD_FILE))
                if record.key_id != entry.name:
                    raise RegistryError(
                        f"registry entry {entry} holds record for {record.key_id!r}"
                    )
            except (RegistryError, ValueError, KeyError, OSError) as exc:
                self._quarantine(entry, reason=str(exc))
                continue
            self._install(record)
            loaded += 1
        if loaded:
            logger.info("indexed %d key records from %s", loaded, self.root)

    def _quarantine(self, entry: Path, reason: str) -> None:
        """Rename a corrupt entry to ``<name>.corrupt`` and count it."""
        target = entry.with_name(entry.name + _QUARANTINE_SUFFIX)
        suffix = 1
        while target.exists():
            target = entry.with_name(f"{entry.name}{_QUARANTINE_SUFFIX}.{suffix}")
            suffix += 1
        try:
            entry.rename(target)
        except OSError as exc:  # pragma: no cover - depends on filesystem state
            logger.error("could not quarantine %s: %s", entry, exc)
        with self._index_lock:
            self._quarantined += 1
        logger.warning("quarantined corrupt registry entry %s: %s", entry, reason)

    def _persist(self, record: KeyRecord, key: WatermarkKey) -> None:
        entry = self.root / record.key_id
        # Uncompressed so later lazy loads can memory-map the arrays.
        key.save(entry, compressed=False)
        save_json(entry / _RECORD_FILE, record.to_dict())

    def _persist_record(self, record: KeyRecord) -> None:
        save_json(self.root / record.key_id / _RECORD_FILE, record.to_dict())

    # ------------------------------------------------------------------
    # Index bookkeeping (callers hold the index lock)
    # ------------------------------------------------------------------
    def _install(self, record: KeyRecord) -> None:
        self._records[record.key_id] = record
        siblings = self._by_model.setdefault(record.model_fingerprint, [])
        if record.key_id not in siblings:
            siblings.append(record.key_id)
        if record.revoked:
            self._revoked_count += 1
        else:
            self._active_count += 1
            if record.owner:
                self._owner_counts[record.owner] = (
                    self._owner_counts.get(record.owner, 0) + 1
                )
            active = self._model_active.get(record.model_fingerprint, 0) + 1
            self._model_active[record.model_fingerprint] = active
            if active == 2:
                self._multi_owner_models += 1

    def _mark_revoked(self, record: KeyRecord) -> None:
        record.revoked = True
        self._active_count -= 1
        self._revoked_count += 1
        if record.owner:
            remaining = self._owner_counts.get(record.owner, 1) - 1
            if remaining <= 0:
                self._owner_counts.pop(record.owner, None)
            else:
                self._owner_counts[record.owner] = remaining
        active = self._model_active.get(record.model_fingerprint, 1) - 1
        self._model_active[record.model_fingerprint] = active
        if active == 1:
            self._multi_owner_models -= 1

    def _uninstall(self, record: KeyRecord) -> None:
        """Drop one entry from the index (quarantine of a lazily-bad key)."""
        if not record.revoked:
            self._mark_revoked(record)
            self._revoked_count -= 1
        else:
            self._revoked_count -= 1
        self._records.pop(record.key_id, None)
        self._tickets.pop(record.key_id, None)
        siblings = self._by_model.get(record.model_fingerprint, [])
        if record.key_id in siblings:
            siblings.remove(record.key_id)
        if not siblings:
            self._by_model.pop(record.model_fingerprint, None)
            self._model_active.pop(record.model_fingerprint, None)

    # ------------------------------------------------------------------
    # Key material and tickets
    # ------------------------------------------------------------------
    def _stripe(self, model_fingerprint: str) -> threading.RLock:
        digest = hashlib.sha256(model_fingerprint.encode("utf-8")).digest()
        return self._stripes[int.from_bytes(digest[:4], "big") % len(self._stripes)]

    def _load_key(self, record: KeyRecord) -> WatermarkKey:
        """``record``'s full key: from memory, or loaded from disk (uncached).

        A corrupt archive quarantines the entry and surfaces as
        :class:`RegistryError`.
        """
        if self.root is None:
            return self._memory_keys[record.key_id]
        entry = self.root / record.key_id
        try:
            key = WatermarkKey.load(entry, mmap=True)
        except (FileNotFoundError, ValueError) as exc:
            self._quarantine(entry, reason=str(exc))
            with self._index_lock:
                if record.key_id in self._records:
                    self._uninstall(record)
            raise RegistryError(f"corrupt registry entry {entry}: {exc}") from exc
        with self._index_lock:
            self._key_loads += 1
        return key

    def _derive_ticket(self, key_id: str, key: WatermarkKey) -> VerificationTicket:
        """The one derivation of a registry ticket, under the id already known."""
        engine = self.engine if self.engine is not None else get_default_engine()
        return engine.ticket_for(key, key_id=key_id)

    def _ticket(self, record: KeyRecord) -> VerificationTicket:
        """``record``'s resident ticket, derived from the key on disk on first use.

        Serialised per fingerprint stripe, so racing first touches of one
        key load it exactly once.
        """
        ticket = self._tickets.get(record.key_id)
        if ticket is not None:
            return ticket
        with self._stripe(record.model_fingerprint):
            ticket = self._tickets.get(record.key_id)
            if ticket is None:
                ticket = self._derive_ticket(record.key_id, self._load_key(record))
                with self._index_lock:
                    if not record.revoked:
                        self._tickets[record.key_id] = ticket
            return ticket

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def register(
        self,
        key: WatermarkKey,
        owner: str = "",
        metadata: Optional[Dict[str, object]] = None,
    ) -> KeyRecord:
        """Register ``key`` and return its record.

        Content-addressed and idempotent: re-registering an identical key
        returns the existing record unchanged (first owner wins — a second
        registration cannot silently seize someone else's key).
        """
        key_id = key.fingerprint()
        model_fp = key.model_fingerprint()
        with self._stripe(model_fp):
            with self._index_lock:
                existing = self._records.get(key_id)
            if existing is not None:
                return existing
            record = KeyRecord(
                key_id=key_id,
                model_fingerprint=model_fp,
                owner=owner,
                created_at=time.time(),
                total_bits=key.total_bits,
                num_layers=key.num_layers,
                model_name=key.model_name,
                method=key.method,
                bits=key.bits,
                co_residents=list(key.metadata.get("co_residents", [])),
                metadata=dict(metadata or {}),
            )
            # Derived before anything is written: a key that cannot be
            # planned leaves no trace in the registry.
            ticket = self._derive_ticket(key_id, key)
            if self.root is not None:
                self._persist(record, key)
            else:
                self._memory_keys[key_id] = key
            with self._index_lock:
                self._install(record)
                self._tickets[key_id] = ticket
            logger.info(
                "registered key %s (owner=%r, model=%s)", key_id, owner, key.model_name
            )
            return record

    def revoke(self, key_id: str) -> KeyRecord:
        """Mark a key as revoked (it stays on disk but stops being served)."""
        with self._index_lock:
            record = self._record_or_raise(key_id)
            if not record.revoked:
                self._mark_revoked(record)
                self._tickets.pop(key_id, None)
                if self.root is not None:
                    self._persist_record(record)
                logger.info("revoked key %s", key_id)
        return record

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _record_or_raise(self, key_id: str) -> KeyRecord:
        record = self._records.get(key_id)
        if record is None:
            raise RegistryError(f"unknown key id {key_id!r}")
        return record

    def get_key(self, key_id: str) -> WatermarkKey:
        """The full key for ``key_id`` (raises :class:`RegistryError`).

        Evidence, not serving state: a persistent registry loads it from disk
        on every call (counted in ``key_loads``) and does not keep it.
        """
        with self._index_lock:
            record = self._record_or_raise(key_id)
        return self._load_key(record)

    def get_record(self, key_id: str) -> KeyRecord:
        """The record for ``key_id`` (raises :class:`RegistryError`)."""
        with self._index_lock:
            return self._record_or_raise(key_id)

    def records(self) -> List[KeyRecord]:
        """All records in registration order (revoked included)."""
        with self._index_lock:
            return list(self._records.values())

    def active_records(self, key_ids: Optional[List[str]] = None) -> List[KeyRecord]:
        """Records of the non-revoked keys, optionally restricted to ``key_ids``.

        Asking for an unknown or revoked id raises, so a verification request
        can never silently run against fewer keys than it named.
        """
        with self._index_lock:
            if key_ids is None:
                return [record for record in self._records.values() if not record.revoked]
            wanted = []
            for kid in key_ids:
                record = self._record_or_raise(kid)
                if record.revoked:
                    raise RegistryError(f"key {kid!r} is revoked")
                wanted.append(record)
            return wanted

    def active_keys(
        self, key_ids: Optional[List[str]] = None
    ) -> Dict[str, VerificationTicket]:
        """``{key_id: ticket}`` of :meth:`active_records` — the verification lookup."""
        return {record.key_id: self._ticket(record) for record in self.active_records(key_ids)}

    def tickets_resident(self, key_ids: Optional[List[str]] = None) -> bool:
        """Whether :meth:`active_keys` for ``key_ids`` needs no disk read.

        True when every named key (every active key when ``None``) already
        has its resident ticket.  Unknown and revoked ids count as not
        resident, so their error is raised by :meth:`active_keys` itself.
        """
        with self._index_lock:
            if key_ids is None:
                # Only active keys ever hold a ticket (revocation drops it).
                return len(self._tickets) == self._active_count
            return all(kid in self._tickets for kid in key_ids)

    def keys_for_model(self, fingerprint: str) -> Dict[str, WatermarkKey]:
        """Full keys of the active keys on one model fingerprint (loaded on demand)."""
        return {
            record.key_id: self._load_key(record)
            for record in self.records_for_model(fingerprint)
        }

    def records_for_model(self, fingerprint: str) -> List[KeyRecord]:
        """Active records against one model fingerprint, registration order.

        The multi-owner lookup behind ``/suspects``: every co-resident key
        of a shared base answers here, each with its owner identity, so an
        incoming suspect can be ranked across all claimants of its family.
        """
        with self._index_lock:
            return [
                self._records[kid]
                for kid in self._by_model.get(fingerprint, [])
                if not self._records[kid].revoked
            ]

    def model_fingerprints(self) -> List[str]:
        """All model fingerprints with at least one registered key (sorted)."""
        with self._index_lock:
            return sorted(self._by_model)

    def owners_for_model(self, fingerprint: str) -> Dict[str, str]:
        """``{key_id: owner}`` of the active keys on one model fingerprint."""
        return {record.key_id: record.owner for record in self.records_for_model(fingerprint)}

    def owner_of(self, key_id: str) -> str:
        """Registered owner identity of one key (raises for unknown ids)."""
        with self._index_lock:
            return self._record_or_raise(key_id).owner

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._index_lock:
            return len(self._records)

    def __contains__(self, key_id: str) -> bool:
        with self._index_lock:
            return key_id in self._records

    def stats(self) -> Dict[str, object]:
        """JSON-able summary for the ``/stats`` endpoint — O(1), counters only."""
        with self._index_lock:
            return {
                "keys": len(self._records),
                "active": self._active_count,
                "revoked": self._revoked_count,
                "models": len(self._by_model),
                "multi_owner_models": self._multi_owner_models,
                "owners": len(self._owner_counts),
                "persistent": self.root is not None,
                "quarantined": self._quarantined,
                "key_loads": self._key_loads,
                "tickets": len(self._tickets),
            }
