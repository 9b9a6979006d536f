"""Client-side consistent-hash routing over a fleet of shard addresses.

:class:`FleetClient` holds one :class:`~repro.service.client.VerificationClient`
per shard and routes every call with the same
:class:`~repro.service.fleet.hashring.HashRing` the router uses (same labels,
same replica count), so it can drive the shards **directly** — no router hop
on the hot path.  ``repro loadgen --fleet`` uses exactly this placement.

Placement rules mirror the router's:

* ``register_key`` → the key's own model fingerprint,
* ``upload_suspect`` → the uploaded model's fingerprint (the client also
  remembers ``suspect_id → shard`` so later ``verify(suspect_id=...)``
  calls route without re-deriving anything),
* ``verify`` → the remembered suspect placement, or an inline model's
  fingerprint,
* ``stats`` / ``healthz`` / ``audit`` → fan-out with per-shard breakdown;
  ``audit`` merges the shard reports into one fleet digest.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.keys import WatermarkKey, model_fingerprint
from repro.quant.base import QuantizedModel
from repro.service.client import VerificationClient
from repro.service.fleet.audit import OccupancyAuditReport
from repro.service.fleet.hashring import HashRing
from repro.service.fleet.router import rollup_stats, shard_labels

__all__ = ["FleetClient"]


class FleetClient:
    """Consistent-hash client over ``addresses`` (``"host:port"`` each).

    ``replicas`` must match the fleet's ring configuration — a mismatched
    ring routes to the wrong shard, which surfaces as "key not found"
    verifies, not silent corruption, but costs the round trip.
    """

    def __init__(
        self,
        addresses: Sequence[str],
        timeout: float = 60.0,
        replicas: int = 64,
    ) -> None:
        if not addresses:
            raise ValueError("FleetClient needs at least one shard address")
        self.addresses = list(addresses)
        self.labels = shard_labels(len(self.addresses))
        self.ring = HashRing(self.labels, replicas=replicas)
        self._clients: List[VerificationClient] = []
        for address in self.addresses:
            host, _, port = address.rpartition(":")
            self._clients.append(VerificationClient(host, int(port), timeout=timeout))
        self._suspect_shards: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def shard_for(self, fingerprint: str) -> int:
        """Index of the shard owning one model fingerprint."""
        return self.ring.index_for(fingerprint)

    def client_for(self, fingerprint: str) -> VerificationClient:
        """The shard client owning one model fingerprint."""
        return self._clients[self.shard_for(fingerprint)]

    @property
    def clients(self) -> List[VerificationClient]:
        return list(self._clients)

    # ------------------------------------------------------------------
    # Routed endpoints
    # ------------------------------------------------------------------
    def register_key(
        self,
        key: WatermarkKey,
        owner: str = "",
        metadata: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        index = self.shard_for(key.model_fingerprint())
        record = self._clients[index].register_key(key, owner=owner, metadata=metadata)
        record["shard"] = self.labels[index]
        return record

    def upload_suspect(
        self,
        model: QuantizedModel,
        suspect_id: Optional[str] = None,
        rank: bool = False,
    ) -> Dict[str, object]:
        index = self.shard_for(model_fingerprint(model))
        response = self._clients[index].upload_suspect(model, suspect_id=suspect_id, rank=rank)
        response["shard"] = self.labels[index]
        returned_id = response.get("suspect_id")
        if isinstance(returned_id, str) and returned_id:
            self._suspect_shards[returned_id] = index
        return response

    def verify(
        self,
        suspect_id: Optional[str] = None,
        model: Optional[QuantizedModel] = None,
        key_ids: Optional[List[str]] = None,
        wer_threshold: Optional[float] = None,
        max_false_claim_probability: object = "unset",
    ) -> Dict[str, object]:
        if model is not None:
            index = self.shard_for(model_fingerprint(model))
        elif suspect_id is not None:
            known = self._suspect_shards.get(suspect_id)
            if known is None:
                raise KeyError(
                    f"unknown suspect id {suspect_id!r} — upload it through this "
                    "FleetClient so the placement is known"
                )
            index = known
        else:
            raise ValueError("provide suspect_id or model")
        response = self._clients[index].verify(
            suspect_id=suspect_id,
            model=model,
            key_ids=key_ids,
            wer_threshold=wer_threshold,
            max_false_claim_probability=max_false_claim_probability,
        )
        response["shard"] = self.labels[index]
        return response

    # ------------------------------------------------------------------
    # Fan-out endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, object]:
        shards = []
        for label, client in zip(self.labels, self._clients):
            entry: Dict[str, object] = {"shard": label}
            try:
                entry["health"] = client.healthz()
                entry["ok"] = True
            except Exception as exc:
                entry["ok"] = False
                entry["error"] = str(exc)
            shards.append(entry)
        return {
            "status": "ok" if all(s["ok"] for s in shards) else "degraded",
            "shards": shards,
        }

    def stats(self) -> Dict[str, object]:
        """Per-shard ``/v1/stats`` plus fleet totals (same roll-up keys as
        the router's ``/v1/fleet/stats``)."""
        all_stats = [client.stats() for client in self._clients]
        return {
            "fleet": {"shards": len(self.labels), **rollup_stats(all_stats)},
            "shards": [
                {"shard": label, "stats": stats, "ok": True}
                for label, stats in zip(self.labels, all_stats)
            ],
        }

    def audit(self) -> Dict[str, object]:
        """Fan out ``GET /v1/audit`` and merge into one fleet report dict."""
        reports = []
        per_shard = []
        for label, client in zip(self.labels, self._clients):
            payload = client._request("GET", "/v1/audit")["audit"]
            per_shard.append({
                "shard": label,
                "digest": payload.get("digest"),
                "models": payload.get("models"),
                "collisions": payload.get("collisions"),
            })
            reports.append(OccupancyAuditReport.from_dict(payload))
        merged = OccupancyAuditReport.merge(reports).to_dict()
        merged["shards"] = per_shard
        return merged

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        for client in self._clients:
            client.close()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
