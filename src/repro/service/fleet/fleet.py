"""Fleet topology: build, audit and tear down a sharded verification fleet.

:func:`launch_fleet` stands up N independent
:class:`~repro.service.server.VerificationServer` shards — each with its own
:class:`~repro.service.registry.KeyRegistry` partition, its own
:class:`~repro.engine.engine.WatermarkEngine` (private plan cache) and its
own dispatcher — fronts them with a
:class:`~repro.service.fleet.router.ShardRouter`, and (by default) runs the
occupancy audit over every shard before declaring the fleet up.

:func:`partition_registry` rebalances an existing on-disk registry into N
shard partitions by consistent-hashing each record's model fingerprint —
the same ring the router and :class:`~repro.service.fleet.client.FleetClient`
use, so a partitioned registry is immediately servable.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.engine.engine import EngineConfig, WatermarkEngine
from repro.service.fleet.audit import OccupancyAuditReport, occupancy_audit
from repro.service.fleet.hashring import HashRing
from repro.service.fleet.router import ShardRouter, shard_labels
from repro.service.registry import KeyRegistry
from repro.service.server import ServerHandle, ServiceConfig, VerificationServer
from repro.utils.logging import get_logger

__all__ = ["FleetAuditError", "FleetConfig", "FleetHandle", "launch_fleet", "partition_registry"]

logger = get_logger("service.fleet")


class FleetAuditError(RuntimeError):
    """Raised when the build-time occupancy audit finds a slot collision."""

    def __init__(self, report: OccupancyAuditReport) -> None:
        collisions = ", ".join(v.model_fingerprint for v in report.collisions)
        super().__init__(
            f"occupancy audit failed for {len(report.collisions)} model "
            f"fingerprint(s): {collisions}"
        )
        self.report = report


@dataclass
class FleetConfig:
    """Topology knobs for :func:`launch_fleet`.

    ``registry_root`` is the parent directory of the per-shard registry
    partitions (``<root>/shard-i``); ``None`` runs every shard in memory.
    ``plan_cache_entries`` sizes each shard's private plan cache (it serves
    ticket derivation).  ``run_audit`` gates the build-time occupancy audit;
    ``replicas`` is the ring's virtual-node count and must match whatever
    clients use for client-side routing.
    """

    num_shards: int = 2
    registry_root: Optional[Union[str, Path]] = None
    plan_cache_entries: int = 256
    max_wait_ms: float = 2.0
    max_batch: int = 32
    run_audit: bool = True
    replicas: int = 64
    host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")


@dataclass
class FleetHandle:
    """A running fleet: shard servers, their handles, and the router.

    Context-manager friendly::

        with launch_fleet(FleetConfig(num_shards=2)) as fleet:
            client = VerificationClient(port=fleet.port)
            ...
    """

    config: FleetConfig
    shards: List[VerificationServer]
    shard_handles: List[ServerHandle]
    router: ShardRouter
    router_handle: ServerHandle
    ring: HashRing
    audit_report: Optional[OccupancyAuditReport] = None
    labels: List[str] = field(default_factory=list)

    @property
    def port(self) -> int:
        """The router's bound port — the fleet's single front address."""
        return self.router_handle.port

    @property
    def shard_ports(self) -> List[int]:
        return [handle.port for handle in self.shard_handles]

    @property
    def addresses(self) -> List[str]:
        return [f"{self.config.host}:{port}" for port in self.shard_ports]

    def shard_for(self, fingerprint: str) -> int:
        """Index of the shard owning one model fingerprint."""
        return self.ring.index_for(fingerprint)

    def audit(self) -> OccupancyAuditReport:
        """Re-run the occupancy audit across all shards and merge."""
        reports = [
            occupancy_audit(server.registry, server.engine) for server in self.shards
        ]
        self.audit_report = OccupancyAuditReport.merge(reports)
        return self.audit_report

    def close(self) -> None:
        self.router_handle.close()
        for handle in self.shard_handles:
            handle.close()

    def __enter__(self) -> "FleetHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def launch_fleet(config: Optional[FleetConfig] = None, **kwargs) -> FleetHandle:
    """Build and start a sharded fleet; returns once every port is bound.

    Accepts either a :class:`FleetConfig` or its fields as keyword
    arguments.  When ``run_audit`` is set (the default) the occupancy audit
    runs over every shard's registry before the router accepts traffic and
    a collision raises :class:`FleetAuditError` — a fleet must never come
    up serving keys that overwrite each other's slots.
    """
    if config is not None and kwargs:
        raise ValueError("pass either a FleetConfig or its fields, not both")
    cfg = config or FleetConfig(**kwargs)
    labels = shard_labels(cfg.num_shards)
    ring = HashRing(labels, replicas=cfg.replicas)
    root = Path(cfg.registry_root) if cfg.registry_root is not None else None

    shards: List[VerificationServer] = []
    for index, label in enumerate(labels):
        engine = WatermarkEngine(EngineConfig(plan_cache_entries=cfg.plan_cache_entries))
        registry = KeyRegistry(root / label if root is not None else None, engine=engine)
        server = VerificationServer(
            engine=engine,
            registry=registry,
            config=ServiceConfig(
                host=cfg.host,
                port=0,
                max_batch=cfg.max_batch,
                max_wait_ms=cfg.max_wait_ms,
            ),
        )
        shards.append(server)

    audit_report: Optional[OccupancyAuditReport] = None
    if cfg.run_audit:
        reports = [occupancy_audit(s.registry, s.engine) for s in shards]
        audit_report = OccupancyAuditReport.merge(reports)
        if not audit_report.ok:
            raise FleetAuditError(audit_report)
        logger.info(
            "fleet build audit: %d model fingerprint(s) disjoint (digest %s)",
            len(audit_report.verdicts),
            audit_report.digest(),
        )

    shard_handles: List[ServerHandle] = []
    try:
        for server in shards:
            shard_handles.append(ServerHandle(server).start())
        router = ShardRouter(
            [f"{cfg.host}:{handle.port}" for handle in shard_handles],
            host=cfg.host,
            replicas=cfg.replicas,
        )
        router_handle = ServerHandle(router).start()
    except BaseException:
        for handle in shard_handles:
            try:
                handle.close()
            except Exception:
                pass
        raise

    logger.info(
        "fleet up: router :%d over %d shard(s) %s",
        router_handle.port,
        len(shard_handles),
        [handle.port for handle in shard_handles],
    )
    return FleetHandle(
        config=cfg,
        shards=shards,
        shard_handles=shard_handles,
        router=router,
        router_handle=router_handle,
        ring=ring,
        audit_report=audit_report,
        labels=labels,
    )


def partition_registry(
    source_root: Union[str, Path],
    dest_root: Union[str, Path],
    num_shards: int,
    replicas: int = 64,
) -> Dict[str, List[str]]:
    """Split one on-disk registry into ``num_shards`` ring-placed partitions.

    Every entry directory under ``source_root`` holding a ``record.json`` is
    copied into ``<dest_root>/<shard-label>/<key_id>`` according to the
    record's model fingerprint on the ring; quarantined ``*.corrupt``
    entries are left behind.  Returns ``{shard label: [key ids]}``.  The
    copy is additive — the source registry is not modified — so a rebalance
    is: partition, launch the fleet on ``dest_root``, audit, cut over.
    """
    source = Path(source_root)
    dest = Path(dest_root)
    if not source.is_dir():
        raise FileNotFoundError(f"registry root {source} does not exist")
    labels = shard_labels(num_shards)
    ring = HashRing(labels, replicas=replicas)
    placement: Dict[str, List[str]] = {label: [] for label in labels}
    for entry in sorted(source.iterdir()):
        record_path = entry / "record.json"
        if not entry.is_dir() or entry.name.endswith(".corrupt") or not record_path.exists():
            continue
        with record_path.open("r", encoding="utf-8") as fh:
            record = json.load(fh)
        fingerprint = record.get("model_fingerprint")
        if not isinstance(fingerprint, str) or not fingerprint:
            logger.warning("partition: %s has no model fingerprint, skipping", entry.name)
            continue
        label = ring.node_for(fingerprint)
        target = dest / label / entry.name
        if target.exists():
            shutil.rmtree(target)
        shutil.copytree(entry, target)
        placement[label].append(entry.name)
    for label in labels:
        (dest / label).mkdir(parents=True, exist_ok=True)
        placement[label].sort()
    logger.info(
        "partitioned %d registry entr(ies) over %d shard(s): %s",
        sum(len(v) for v in placement.values()),
        num_shards,
        {label: len(ids) for label, ids in placement.items()},
    )
    return placement
