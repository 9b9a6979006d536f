"""Thin fleet router: consistent-hash request placement over shard servers.

:class:`ShardRouter` fronts N :class:`~repro.service.server.VerificationServer`
shards.  It owns **no keys, no suspects and no engine** — every request is
placed onto the shard that the :class:`~repro.service.fleet.hashring.HashRing`
assigns to its model fingerprint and forwarded byte-for-byte, so shard
responses (decisions included) pass through unmodified except for an added
``"shard"`` label.  Routing therefore never changes a decision: a fleet of
any size answers exactly what the single shard owning that model family
answers.

Surface (all JSON)::

    GET   /v1/fleet/healthz    router + per-shard liveness
    GET   /v1/fleet/stats      per-shard /v1/stats with a fleet roll-up
    GET   /v1/fleet/audit      merged occupancy audit (shard-stable digest)
    POST  /v1/fleet/register   route by the key's model fingerprint
    POST  /v1/fleet/suspects   route by the uploaded model's fingerprint
    POST  /v1/fleet/verify     route by suspect id (learned at upload) or
                               by an inline model's fingerprint

The unprefixed ``/v1/register``, ``/v1/suspects``, ``/v1/verify``,
``/v1/stats`` and ``/v1/healthz`` paths answer identically, so a plain
:class:`~repro.service.client.VerificationClient` (and ``repro loadgen``)
can point at the router as a drop-in single-server address.

Forwarding happens on executor threads (the stdlib HTTP client is
blocking); each thread keeps one keep-alive connection per shard, so a
closed-loop load generator reuses sockets across its whole request stream.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.keys import model_fingerprint
from repro.service.codec import key_from_wire, model_from_wire
from repro.service.fleet.audit import OccupancyAuditReport
from repro.service.fleet.hashring import HashRing
from repro.service.http import AsyncHttpServer, HttpError, Route
from repro.utils.logging import get_logger

__all__ = ["ShardRouter", "shard_labels"]

logger = get_logger("service.fleet.router")

_FORWARD_TIMEOUT_S = 120.0


#: Fleet totals summed over shards' ``/v1/stats``: total -> (section, field).
_ROLLUP = {
    "verifications": ("server", "verifications"),
    "decisions_owned": ("server", "decisions_owned"),
    "decisions_not_owned": ("server", "decisions_not_owned"),
    "registry_keys": ("registry", "keys"),
    "registry_tickets": ("registry", "tickets"),
    "suspects": ("suspects", "count"),
}


def rollup_stats(shard_stats: Sequence[Dict[str, object]]) -> Dict[str, int]:
    """Fleet totals of reachable shards' ``/v1/stats`` payloads — the one
    roll-up behind both ``/v1/fleet/stats`` and :meth:`FleetClient.stats`."""
    return {
        total: sum(int(stats.get(section, {}).get(name, 0)) for stats in shard_stats)
        for total, (section, name) in _ROLLUP.items()
    }


def shard_labels(count: int) -> List[str]:
    """Canonical shard labels (``shard-0`` … ``shard-N-1``) for a fleet."""
    return [f"shard-{i}" for i in range(count)]


class _ShardConnections:
    """Per-executor-thread keep-alive connections to every shard.

    ``http.client`` connections are not thread-safe; giving each executor
    thread its own set (via ``threading.local``) keeps forwarding lock-free
    on the hot path while still reusing sockets.  All connections ever
    created are tracked so :meth:`close_all` can drop them at shutdown.
    """

    def __init__(self, timeout: float) -> None:
        self._timeout = timeout
        self._local = threading.local()
        self._all: List[http.client.HTTPConnection] = []
        self._all_lock = threading.Lock()

    def get(self, address: str) -> http.client.HTTPConnection:
        cache: Dict[str, http.client.HTTPConnection] = getattr(
            self._local, "conns", None
        ) or {}
        if not hasattr(self._local, "conns"):
            self._local.conns = cache
        conn = cache.get(address)
        if conn is None:
            host, _, port = address.rpartition(":")
            conn = http.client.HTTPConnection(host, int(port), timeout=self._timeout)
            cache[address] = conn
            with self._all_lock:
                self._all.append(conn)
        return conn

    def drop(self, address: str) -> None:
        """Discard this thread's (poisoned) connection to ``address``."""
        cache = getattr(self._local, "conns", None)
        if cache and address in cache:
            conn = cache.pop(address)
            try:
                conn.close()
            except Exception:
                pass

    def close_all(self) -> None:
        with self._all_lock:
            conns, self._all = self._all, []
        for conn in conns:
            try:
                conn.close()
            except Exception:
                pass


class ShardRouter(AsyncHttpServer):
    """Consistent-hash HTTP router over a fixed list of shard addresses.

    Parameters
    ----------
    shards:
        Shard addresses, ``"host:port"``, in shard-index order.
    host, port:
        Router bind address (port 0 picks a free port).
    replicas:
        Virtual nodes per shard on the hash ring.
    timeout:
        Per-forward socket timeout, seconds.
    max_routed_suspects:
        LRU bound on the suspect-id → shard routing memory.
    """

    def __init__(
        self,
        shards: Sequence[str],
        host: str = "127.0.0.1",
        port: int = 0,
        replicas: int = 64,
        timeout: float = _FORWARD_TIMEOUT_S,
        max_routed_suspects: int = 4096,
    ) -> None:
        if not shards:
            raise ValueError("ShardRouter needs at least one shard address")
        self.addresses = list(shards)
        self.labels = shard_labels(len(self.addresses))
        self.ring = HashRing(self.labels, replicas=replicas)
        self._address_of = dict(zip(self.labels, self.addresses))
        self._connections_pool = _ShardConnections(timeout)
        self._max_routed_suspects = int(max_routed_suspects)
        # suspect_id -> shard label, learned from /fleet/suspects uploads.
        self._suspect_shards: "OrderedDict[str, str]" = OrderedDict()
        self._suspect_lock = threading.Lock()
        # Router-side request accounting; touched only on the event-loop
        # thread (the _count hook), read by /v1/fleet/stats.
        self._stats: Dict[str, int] = {
            "requests_total": 0,
            "errors": 0,
            "rejected_rate_limit": 0,
            "rejected_queue_full": 0,
            "forwarded": 0,
            "shard_errors": 0,
        }
        super().__init__(host, port)

    # ------------------------------------------------------------------
    # Plumbing hooks / lifecycle
    # ------------------------------------------------------------------
    def _count(self, stat: str) -> None:
        if stat in self._stats:
            self._stats[stat] += 1

    async def start(self) -> None:
        await super().start()
        logger.info(
            "fleet router listening on %s:%d (%d shards)",
            self._host,
            self.port,
            len(self.addresses),
        )

    async def stop(self) -> None:
        await super().stop()
        self._connections_pool.close_all()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def shard_for(self, fingerprint: str) -> str:
        """The shard label owning one model fingerprint."""
        return self.ring.node_for(fingerprint)

    def _remember_suspect(self, suspect_id: str, label: str) -> None:
        with self._suspect_lock:
            self._suspect_shards[suspect_id] = label
            self._suspect_shards.move_to_end(suspect_id)
            while len(self._suspect_shards) > self._max_routed_suspects:
                self._suspect_shards.popitem(last=False)

    def _shard_of_suspect(self, suspect_id: str) -> Optional[str]:
        with self._suspect_lock:
            label = self._suspect_shards.get(suspect_id)
            if label is not None:
                self._suspect_shards.move_to_end(suspect_id)
            return label

    # ------------------------------------------------------------------
    # Forwarding (blocking; always called through run_in_executor)
    # ------------------------------------------------------------------
    def _forward(
        self, label: str, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Dict[str, object]]:
        address = self._address_of[label]
        headers = {"Connection": "keep-alive"}
        if body:
            headers["Content-Type"] = "application/json"
        conn = self._connections_pool.get(address)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except Exception as exc:
            # Poisoned connection — drop it so the next call reconnects.
            self._connections_pool.drop(address)
            raise HttpError(
                502, f"shard {label} ({address}) unreachable: {exc}", counter="shard_errors"
            ) from exc
        try:
            parsed = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            parsed = {"error": {"code": "bad_gateway", "message": raw.decode("utf-8", "replace")}}
        if not isinstance(parsed, dict):
            parsed = {"result": parsed}
        return response.status, parsed

    async def _forward_async(
        self, label: str, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Dict[str, object]]:
        loop = asyncio.get_running_loop()
        status, payload = await loop.run_in_executor(
            None, self._forward, label, method, path, body
        )
        self._count("forwarded")
        if status >= 500:
            self._count("shard_errors")
        return status, payload

    async def _fan_out(self, method: str, path: str) -> List[Tuple[str, int, Dict[str, object]]]:
        """Issue one request to every shard concurrently; never raises —
        unreachable shards come back as their 502 envelope."""

        async def one(label: str) -> Tuple[str, int, Dict[str, object]]:
            try:
                status, payload = await self._forward_async(label, method, path)
            except HttpError as exc:
                from repro.service.http import error_envelope

                status, payload = exc.status, error_envelope(exc.status, str(exc), exc.code)
            return label, status, payload

        return list(await asyncio.gather(*(one(label) for label in self.labels)))

    # ------------------------------------------------------------------
    # Routing table
    # ------------------------------------------------------------------
    def _build_routes(self) -> List[Route]:
        fleet = [
            ("GET", "/v1/fleet/healthz", self._handle_healthz),
            ("GET", "/v1/fleet/stats", self._handle_stats),
            ("GET", "/v1/fleet/audit", self._handle_audit),
            ("POST", "/v1/fleet/register", self._handle_register),
            ("POST", "/v1/fleet/suspects", self._handle_suspects),
            ("POST", "/v1/fleet/verify", self._handle_verify),
        ]
        # Drop-in aliases: a plain VerificationClient pointed at the router
        # speaks the single-server surface and still gets fleet routing.
        aliases = [
            ("GET", "/v1/healthz", self._handle_healthz),
            ("GET", "/v1/stats", self._handle_stats),
            ("GET", "/v1/audit", self._handle_audit),
            ("POST", "/v1/register", self._handle_register),
            ("POST", "/v1/suspects", self._handle_suspects),
            ("POST", "/v1/verify", self._handle_verify),
        ]
        return [Route(m, p, h) for m, p, h in fleet + aliases]

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    async def _handle_healthz(self, _body, _params, query) -> Tuple[int, Dict[str, object]]:
        shards = await self._fan_out("GET", "/v1/healthz")
        shard_health = [
            {"shard": label, "address": self._address_of[label], "status": status,
             "ok": status == 200}
            for label, status, _payload in shards
        ]
        all_ok = all(entry["ok"] for entry in shard_health)
        payload: Dict[str, object] = {
            "status": "ok" if all_ok else "degraded",
            "uptime_seconds": time.time() - (self.started_at or time.time()),
            "shards": shard_health,
        }
        return (200 if all_ok else 503), payload

    async def _handle_stats(self, _body, _params, _query) -> Tuple[int, Dict[str, object]]:
        shards = await self._fan_out("GET", "/v1/stats")
        per_shard = []
        reachable_stats = []
        for label, status, payload in shards:
            entry: Dict[str, object] = {
                "shard": label,
                "address": self._address_of[label],
                "ok": status == 200,
            }
            if status == 200:
                reachable_stats.append(payload)
                entry["stats"] = payload
            else:
                entry["error"] = payload.get("error")
            per_shard.append(entry)
        with self._suspect_lock:
            routed = len(self._suspect_shards)
        return 200, {
            "fleet": {
                "shards": len(self.labels),
                "reachable_shards": len(reachable_stats),
                "router": dict(self._stats),
                "suspects_routed": routed,
                **rollup_stats(reachable_stats),
            },
            "shards": per_shard,
        }

    async def _handle_audit(self, _body, _params, _query) -> Tuple[int, Dict[str, object]]:
        shards = await self._fan_out("GET", "/v1/audit")
        per_shard = []
        reports: List[OccupancyAuditReport] = []
        failed = False
        for label, status, payload in shards:
            entry: Dict[str, object] = {
                "shard": label,
                "address": self._address_of[label],
                "ok": status == 200,
            }
            if status == 200 and isinstance(payload.get("audit"), dict):
                shard_audit = payload["audit"]
                entry["digest"] = shard_audit.get("digest")
                entry["models"] = shard_audit.get("models")
                entry["collisions"] = shard_audit.get("collisions")
                reports.append(OccupancyAuditReport.from_dict(shard_audit))
            else:
                failed = True
                entry["error"] = payload.get("error")
            per_shard.append(entry)
        if failed:
            return 502, {
                "error": {"code": "bad_gateway", "message": "audit failed on some shards"},
                "shards": per_shard,
            }
        merged = OccupancyAuditReport.merge(reports)
        body = merged.to_dict()
        body["shards"] = per_shard
        return 200, {"audit": body}

    async def _handle_register(self, body, _params, _query) -> Tuple[int, Dict[str, object]]:
        payload = self._json_body(body)
        if "key" not in payload:
            raise HttpError(400, "missing 'key' payload")
        loop = asyncio.get_running_loop()
        # The fingerprint decides placement, so the router always derives it
        # from the key bytes itself — trusting a client hint could strand a
        # key on the wrong shard and silently break the partition invariant.
        try:
            key = await loop.run_in_executor(None, key_from_wire, payload["key"])
        except ValueError as exc:
            raise HttpError(400, f"invalid key payload: {exc}") from exc
        label = self.shard_for(key.model_fingerprint())
        status, parsed = await self._forward_async(label, "POST", "/v1/register", body)
        if status == 200:
            parsed["shard"] = label
            # Clients unwrap the "registered" record — label that too.
            registered = parsed.get("registered")
            if isinstance(registered, dict):
                registered["shard"] = label
        return status, parsed

    async def _handle_suspects(self, body, _params, _query) -> Tuple[int, Dict[str, object]]:
        payload = self._json_body(body)
        if "model" not in payload:
            raise HttpError(400, "missing 'model' payload")
        loop = asyncio.get_running_loop()
        try:
            model = await loop.run_in_executor(None, model_from_wire, payload["model"])
        except ValueError as exc:
            raise HttpError(400, f"invalid model payload: {exc}") from exc
        label = self.shard_for(model_fingerprint(model))
        status, parsed = await self._forward_async(label, "POST", "/v1/suspects", body)
        if status == 200:
            parsed["shard"] = label
            suspect_id = parsed.get("suspect_id")
            if isinstance(suspect_id, str) and suspect_id:
                self._remember_suspect(suspect_id, label)
        return status, parsed

    async def _handle_verify(self, body, _params, _query) -> Tuple[int, Dict[str, object]]:
        payload = self._json_body(body)
        if "model" in payload:
            loop = asyncio.get_running_loop()
            try:
                model = await loop.run_in_executor(None, model_from_wire, payload["model"])
            except ValueError as exc:
                raise HttpError(400, f"invalid model payload: {exc}") from exc
            label = self.shard_for(model_fingerprint(model))
        else:
            suspect_id = payload.get("suspect_id")
            if not isinstance(suspect_id, str) or not suspect_id:
                raise HttpError(400, "provide 'suspect_id' (uploaded) or inline 'model'")
            known = self._shard_of_suspect(suspect_id)
            if known is None:
                raise HttpError(
                    404,
                    f"unknown suspect id {suspect_id!r} — upload through the "
                    "fleet router so it learns the placement",
                    code="unknown_suspect",
                )
            label = known
        status, parsed = await self._forward_async(label, "POST", "/v1/verify", body)
        if status == 200:
            parsed["shard"] = label
        return status, parsed
