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
  fingerprint.

Fleet-wide views (health, stats, the merged occupancy audit) are the
router's ``/v1/fleet/{healthz,stats,audit}`` fan-out; this client only
places requests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.keys import WatermarkKey, model_fingerprint
from repro.quant.base import QuantizedModel
from repro.service.client import VerificationClient
from repro.service.fleet.hashring import HashRing
from repro.service.fleet.router import shard_labels

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
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        for client in self._clients:
            client.close()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
