"""Asyncio verification server (stdlib-only HTTP/1.1 + JSON).

:class:`VerificationServer` is the serving surface of the reproduction: the
owner registers watermark keys, deployments upload suspect snapshots, and
concurrent ``/verify`` requests are coalesced by the
:class:`~repro.service.dispatch.MicroBatchDispatcher` into single
``verify_fleet`` sweeps on the shared engine.

The service surface is versioned under ``/v1`` (all JSON unless noted):

======  ==========================  =========================================
method  path                        purpose
======  ==========================  =========================================
GET     /v1/healthz                 liveness probe; ``?ready`` variant answers
                                    503 while the dispatcher or job manager is
                                    draining
GET     /v1/stats                   counters: server, dispatcher, admission,
                                    jobs, plan cache, registry, audit tail
GET     /v1/metrics                 Prometheus text exposition (text/plain)
GET     /v1/keys                    registered key records
                                    (``?model_fingerprint=`` filter)
DELETE  /v1/keys/{key_id}           revoke a key
POST    /v1/register                register a watermark key
POST    /v1/suspects                upload a suspect snapshot, returns its id
POST    /v1/verify                  ownership check of one suspect
POST    /v1/robustness              synchronous robustness gauntlet (small
                                    grids; the connection is held open)
POST    /v1/jobs/robustness         submit a background gauntlet job → 202 +
                                    server-assigned job id
GET     /v1/jobs                    list retained jobs
GET     /v1/jobs/{job_id}           job status + progress
GET     /v1/jobs/{job_id}/events    chunked NDJSON per-cell verdict stream,
                                    readable while the sweep is still running
GET     /v1/jobs/{job_id}/report    final report once the job succeeded
DELETE  /v1/jobs/{job_id}           cooperative cancel
======  ==========================  =========================================

The historical unversioned paths (``/healthz``, ``/stats``, ``/metrics``,
``/keys``, ``/register``, ``/revoke``, ``/suspects``, ``/verify``,
``/robustness``) remain as deprecated aliases: they behave identically,
answer with a ``Deprecation: true`` header, and count into
``repro_server_legacy_requests_total``.

Errors share one envelope across every endpoint::

    {"error": {"code": "rate_limited", "message": "...", "retry_after": 1.0}}

The HTTP layer is deliberately minimal — request line + headers +
``Content-Length`` body, keep-alive connections, no TLS, chunked
transfer-encoding only on the job event stream — the stdlib-only constraint
rules out real frameworks, and the interesting engineering (admission
control, micro-batching, background jobs, audit) lives behind the routes,
not in header parsing.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import AsyncIterator, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.keys import model_fingerprint
from repro.engine.engine import EngineConfig, WatermarkEngine
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, MetricsRegistry, Sample
from repro.obs.trace import span
from repro.quant.base import QuantizedModel
from repro.service.audit import AuditLog
from repro.service.codec import key_from_wire, model_from_wire
from repro.service.dispatch import (
    MicroBatchDispatcher,
    OwnerRateLimiter,
    QueueFullError,
    TokenBucket,
    VerifyJob,
)
from repro.service.http import (
    ERROR_CODES as _ERROR_CODES,
    REASONS as _REASONS,
    AsyncHttpServer,
    HttpError as _HttpError,
    Route as _Route,
    StreamingResponse as _StreamingResponse,
    error_envelope as _error_envelope,
)
from repro.service.jobs import Job, JobLimitError, JobManager
from repro.service.registry import KeyRegistry, RegistryError
from repro.utils.logging import get_logger

__all__ = ["ServiceConfig", "VerificationServer", "ServerHandle", "run_in_background"]

logger = get_logger("service.server")

_VERIFY_TIMEOUT_S = 120.0
_GAUNTLET_TIMEOUT_S = 300.0
#: Report-size sanity ceiling for one /robustness request.  Since sweeps
#: run in constant memory (streaming match-and-release), the real admission
#: bound is the per-request CPU-time budget below, not this number — it
#: only caps the JSON report a single response can grow to.
_MAX_GAUNTLET_CELLS = 4096
#: Until the cost estimator has observed one real sweep, grids are clamped
#: to this (the historical per-request cap): an admission decision based on
#: an unvalidated seed estimate cannot be undone once the sweep is running.
_COLD_START_GAUNTLET_CELLS = 64
#: Concurrent /robustness sweeps; a timed-out sweep cannot be cancelled
#: (it runs CPU-bound on the executor), so admission is bounded instead —
#: abandoned work keeps its slot until it actually finishes.
_MAX_INFLIGHT_GAUNTLETS = 2

#: Server request counters: ``/stats`` key → (metric name, help text).  The
#: backing store is the shared :class:`MetricsRegistry` — ``/stats`` and
#: ``/metrics`` render the same counters, there is no second bookkeeping.
_SERVER_COUNTERS = {
    "requests_total": ("repro_server_requests_total", "HTTP requests received"),
    "verifications": ("repro_server_verifications_total", "completed /verify requests"),
    "decisions_owned": ("repro_server_decisions_owned_total", "ownership verdicts answered 'owned'"),
    "decisions_not_owned": (
        "repro_server_decisions_not_owned_total",
        "ownership verdicts answered 'not owned'",
    ),
    "rejected_rate_limit": (
        "repro_server_rejected_rate_limit_total",
        "requests rejected by the whole-server token bucket",
    ),
    "rejected_owner_rate": (
        "repro_server_rejected_owner_rate_total",
        "requests rejected by per-owner admission",
    ),
    "rejected_cpu_budget": (
        "repro_server_rejected_cpu_budget_total",
        "gauntlet requests rejected by the CPU-time budget",
    ),
    "rejected_queue_full": (
        "repro_server_rejected_queue_full_total",
        "requests rejected on a full dispatch queue",
    ),
    "timeouts": ("repro_server_timeouts_total", "requests that timed out server-side"),
    "errors": ("repro_server_errors_total", "requests answered with an error"),
    "gauntlets": ("repro_server_gauntlets_total", "completed /robustness sweeps"),
    "jobs_submitted": (
        "repro_server_jobs_submitted_total",
        "background robustness jobs accepted",
    ),
    "legacy_requests": (
        "repro_server_legacy_requests_total",
        "requests served via deprecated unversioned paths",
    ),
}


class _CellCostEstimator:
    """EWMA of the observed per-cell gauntlet CPU cost.

    ``/robustness`` admission is a CPU-time-fairness question, not a
    cell-count one: the streaming pipeline made sweeps constant-memory, so
    the server gates each request on its *projected CPU seconds* instead of
    a fixed cell cap.  The projection is the exponentially weighted mean of
    the per-cell cost actually observed on this server (attack + verify
    seconds summed across workers), seeded with a configurable conservative
    estimate before any sweep has run.
    """

    def __init__(self, initial_cell_seconds: float, smoothing: float = 0.3) -> None:
        if initial_cell_seconds <= 0:
            raise ValueError("initial_cell_seconds must be > 0")
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self._mean = float(initial_cell_seconds)
        self._smoothing = float(smoothing)
        self._observed_cells = 0
        self._lock = threading.Lock()

    def estimate(self, cells: int) -> float:
        """Projected CPU seconds for a grid of ``cells`` cells."""
        with self._lock:
            return cells * self._mean

    def observe(self, cells: int, cpu_seconds: float) -> None:
        """Fold one finished sweep's measured cost into the mean."""
        if cells <= 0 or cpu_seconds < 0:
            return
        per_cell = cpu_seconds / cells
        with self._lock:
            self._mean = (1.0 - self._smoothing) * self._mean + self._smoothing * per_cell
            self._observed_cells += cells

    @property
    def is_cold(self) -> bool:
        """True until at least one sweep's real cost has been observed."""
        with self._lock:
            return self._observed_cells == 0

    def stats(self) -> Dict[str, object]:
        """JSON-able snapshot for ``/stats``."""
        with self._lock:
            return {
                "mean_cell_seconds": self._mean,
                "observed_cells": self._observed_cells,
            }


def _model_content_id(model: QuantizedModel) -> str:
    """Short digest of a model's *weight values* (not just its shape).

    Used for default suspect ids: the shape-only model fingerprint would
    alias every same-architecture deployment to one id, so an upload of a
    different model could silently replace (or, batched, answer for) another
    suspect.  Hashing the integer weights keeps distinct contents distinct.
    """
    hasher = hashlib.sha256()
    for name in model.layer_names():
        hasher.update(name.encode("utf-8"))
        hasher.update(np.ascontiguousarray(model.get_layer(name).weight_int).tobytes())
    return hasher.hexdigest()[:12]


def _thresholds(payload: Dict[str, object]) -> Dict[str, object]:
    """The decision thresholds a verify or gauntlet request sets, validated.

    ``wer_threshold`` must be a number in [0, 100], ``max_false_claim_probability``
    ``null`` or a number in [0, 1]; anything else is a 400.  The range test
    rejects JSON ``NaN`` and ``Infinity``; booleans are refused although Python
    counts them as numbers (``true`` would read as 1.0).
    """
    thresholds: Dict[str, object] = {}
    for name, upper, nullable in (
        ("wer_threshold", 100.0, False),
        ("max_false_claim_probability", 1.0, True),
    ):
        if name not in payload:
            continue
        raw = payload[name]
        if raw is None and nullable:
            thresholds[name] = None
            continue
        if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not 0 <= raw <= upper:
            raise _HttpError(
                400,
                f"'{name}' must be {'null or ' if nullable else ''}a finite number "
                f"in [0, {upper:g}], got {json.dumps(raw)}",
            )
        thresholds[name] = float(raw)
    return thresholds


class _GauntletRequest:
    """A validated, admitted gauntlet request (shared by the synchronous
    ``/v1/robustness`` handler and the ``/v1/jobs/robustness`` submission —
    both surfaces apply identical validation and CPU-budget admission)."""

    __slots__ = (
        "suspect_id",
        "suspect",
        "key_id",
        "key",
        "attacks",
        "strengths",
        "num_cells",
        "config_kwargs",
    )

    def __init__(
        self,
        suspect_id: str,
        suspect: QuantizedModel,
        key_id: str,
        key,
        attacks,
        strengths: Dict[str, tuple],
        num_cells: int,
        config_kwargs: Dict[str, object],
    ) -> None:
        self.suspect_id = suspect_id
        self.suspect = suspect
        self.key_id = key_id
        self.key = key
        self.attacks = attacks
        self.strengths = strengths
        self.num_cells = num_cells
        self.config_kwargs = config_kwargs


class ServiceConfig:
    """Tuning knobs of a :class:`VerificationServer`.

    ``rate_limit_per_sec`` is the legacy whole-server token bucket;
    ``owner_rate_limit_per_sec`` keys admission by the registry owner the
    request's keys belong to — the multi-tenant replacement, giving each
    owner a private bucket so one aggressive owner cannot starve the rest.
    ``gauntlet_cpu_budget_s`` bounds one ``/robustness`` request — and each
    background job — by its *projected CPU seconds* (observed per-cell cost
    × cells) instead of the old fixed 64-cell cap — sweeps are
    constant-memory, so CPU-time fairness is the real resource; ``None``
    disables the budget gate.  ``checkpoint_dir`` makes background jobs
    durable: each job appends completed cells to a JSONL file
    content-addressed by its grid fingerprint, so resubmitting a killed
    job's request (even after a server restart) replays the finished cells
    and recomputes only the remainder.  ``job_workers`` /``job_max_active``
    size the background job pool.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        max_queue: int = 256,
        rate_limit_per_sec: Optional[float] = None,
        rate_limit_burst: Optional[float] = None,
        owner_rate_limit_per_sec: Optional[float] = None,
        owner_rate_limit_burst: Optional[float] = None,
        max_suspects: int = 1024,
        gauntlet_cpu_budget_s: Optional[float] = 120.0,
        gauntlet_initial_cell_cost_s: float = 0.02,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        job_workers: int = 2,
        job_max_active: int = 8,
    ) -> None:
        if rate_limit_burst and not rate_limit_per_sec:
            raise ValueError("rate_limit_burst requires rate_limit_per_sec")
        if owner_rate_limit_burst and not owner_rate_limit_per_sec:
            raise ValueError("owner_rate_limit_burst requires owner_rate_limit_per_sec")
        if max_suspects < 1:
            raise ValueError("max_suspects must be >= 1")
        if gauntlet_cpu_budget_s is not None and gauntlet_cpu_budget_s <= 0:
            raise ValueError("gauntlet_cpu_budget_s must be > 0 (or None to disable)")
        if gauntlet_initial_cell_cost_s <= 0:
            raise ValueError("gauntlet_initial_cell_cost_s must be > 0")
        if job_workers < 1:
            raise ValueError("job_workers must be >= 1")
        if job_max_active < 1:
            raise ValueError("job_max_active must be >= 1")
        self.host = host
        self.port = int(port)
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self.max_queue = int(max_queue)
        self.rate_limit_per_sec = rate_limit_per_sec
        self.rate_limit_burst = rate_limit_burst
        self.owner_rate_limit_per_sec = owner_rate_limit_per_sec
        self.owner_rate_limit_burst = owner_rate_limit_burst
        self.max_suspects = int(max_suspects)
        self.gauntlet_cpu_budget_s = gauntlet_cpu_budget_s
        self.gauntlet_initial_cell_cost_s = float(gauntlet_initial_cell_cost_s)
        self.checkpoint_dir = None if checkpoint_dir is None else Path(checkpoint_dir)
        self.job_workers = int(job_workers)
        self.job_max_active = int(job_max_active)


class VerificationServer(AsyncHttpServer):
    """The ownership-verification service.

    Parameters
    ----------
    engine:
        Shared :class:`WatermarkEngine`; a private one is created when
        omitted (fresh plan cache — a "cold" server).
    registry:
        Key store; an in-memory registry is created when omitted.
    config:
        Network + dispatcher + admission-control settings.
    audit:
        Audit sink; an in-memory-only log is created when omitted.
    """

    def __init__(
        self,
        engine: Optional[WatermarkEngine] = None,
        registry: Optional[KeyRegistry] = None,
        config: Optional[ServiceConfig] = None,
        audit: Optional[AuditLog] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.engine = engine if engine is not None else WatermarkEngine(EngineConfig())
        self.registry = registry if registry is not None else KeyRegistry(engine=self.engine)
        self.audit = audit if audit is not None else AuditLog()
        self.bucket = TokenBucket(self.config.rate_limit_per_sec, self.config.rate_limit_burst)
        self.owner_limiter = OwnerRateLimiter(
            self.config.owner_rate_limit_per_sec, self.config.owner_rate_limit_burst
        )
        self._gauntlet_cost = _CellCostEstimator(self.config.gauntlet_initial_cell_cost_s)
        # One registry per server: the dispatcher records into it directly,
        # the admission/audit/cache/registry layers are scraped through pull
        # collectors, and GET /metrics renders the whole thing.
        self.metrics = MetricsRegistry()
        self.dispatcher = MicroBatchDispatcher(
            self.engine,
            max_batch=self.config.max_batch,
            max_wait_ms=self.config.max_wait_ms,
            max_queue=self.config.max_queue,
            metrics=self.metrics,
        )
        # Background robustness jobs (POST /v1/jobs/robustness); exposes its
        # gauges through the shared registry.
        self.jobs = JobManager(
            max_workers=self.config.job_workers,
            max_active=self.config.job_max_active,
            metrics=self.metrics,
        )
        # Shared HTTP plumbing (routes, listener, connection handling).
        super().__init__(self.config.host, self.config.port)
        # Suspect store: uploaded deployment snapshots, addressed by id.
        # LRU-bounded so a long-running server cannot be grown to OOM by
        # repeated uploads under fresh ids.
        self._suspects: "OrderedDict[str, Tuple[QuantizedModel, str]]" = OrderedDict()
        self._suspects_lock = threading.Lock()
        self._suspect_evictions = 0
        self._request_ids = itertools.count(1)
        self._inline_ids = itertools.count(1)
        # Touched only from the event-loop thread (handler + done callback).
        self._gauntlets_inflight = 0
        # Server counters live on the metrics registry; /stats reads the same
        # instruments /metrics exposes (keyed here by their legacy stat name).
        self._counters = {
            stat: self.metrics.counter(metric, help=help_text)
            for stat, (metric, help_text) in _SERVER_COUNTERS.items()
        }
        self._request_latency = self.metrics.histogram(
            "repro_server_request_seconds",
            help="wall-clock seconds spent routing one HTTP request",
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self.metrics.register_collector(self._collect_samples)

    def _collect_samples(self):
        """Pull-based samples scraped at ``/metrics`` render time.

        Subsystems that keep their own counters (admission buckets, audit
        log, plan cache, key registry, suspect store) are *read* here rather
        than migrated onto event-time instruments — their hot paths stay
        untouched and the exposition still covers them.
        """
        cache = self.engine.cache_stats()
        registry = self.registry.stats()
        audit = self.audit.stats()
        with self._suspects_lock:
            num_suspects = len(self._suspects)
            suspect_evictions = self._suspect_evictions
        cost = self._gauntlet_cost.stats()
        return [
            Sample(
                "repro_admission_rejected_total",
                self.bucket.rejected,
                kind="counter",
                help="requests rejected by the whole-server token bucket",
            ),
            Sample(
                "repro_owner_admission_rejected_total",
                self.owner_limiter.rejected,
                kind="counter",
                help="requests rejected by per-owner admission",
            ),
            Sample(
                "repro_audit_entries_total",
                audit["entries"],
                kind="counter",
                help="ownership decisions recorded in the audit log",
            ),
            Sample(
                "repro_audit_dropped_writes_total",
                audit["dropped_writes"],
                kind="counter",
                help="audit entries whose disk copy was dropped",
            ),
            Sample(
                "repro_audit_writer_alive",
                1.0 if audit["writer_alive"] else 0.0,
                help="1 while the audit disk-writer path is healthy",
            ),
            Sample(
                "repro_plan_cache_hits_total",
                cache["hits"],
                kind="counter",
                help="location-plan cache hits",
            ),
            Sample(
                "repro_plan_cache_misses_total",
                cache["misses"],
                kind="counter",
                help="location-plan cache misses",
            ),
            Sample(
                "repro_plan_cache_evictions_total",
                cache["evictions"],
                kind="counter",
                help="location-plan cache evictions",
            ),
            Sample(
                "repro_plan_cache_entries",
                cache["entries"],
                help="location plans currently cached",
            ),
            Sample(
                "repro_registry_keys",
                registry["keys"],
                help="watermark keys ever registered",
            ),
            Sample(
                "repro_registry_active_keys",
                registry["active"],
                help="watermark keys currently active",
            ),
            Sample(
                "repro_registry_tickets",
                registry["tickets"],
                help="verification tickets held in memory",
            ),
            Sample(
                "repro_registry_key_loads_total",
                registry["key_loads"],
                kind="counter",
                help="full-key loads from disk (ticket derivation, audit, gauntlet)",
            ),
            Sample(
                "repro_registry_quarantined_total",
                registry["quarantined"],
                kind="counter",
                help="corrupt registry entries quarantined",
            ),
            Sample(
                "repro_suspects_stored",
                num_suspects,
                help="suspect snapshots currently stored",
            ),
            Sample(
                "repro_suspects_evicted_total",
                suspect_evictions,
                kind="counter",
                help="suspect snapshots evicted by the LRU bound",
            ),
            Sample(
                "repro_gauntlets_inflight",
                self._gauntlets_inflight,
                help="/robustness sweeps currently running",
            ),
            Sample(
                "repro_gauntlet_mean_cell_seconds",
                cost["mean_cell_seconds"],
                help="EWMA per-cell CPU cost used for admission",
            ),
        ]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start the dispatcher."""
        await super().start()
        self.dispatcher.start()
        logger.info("verification server listening on %s:%d", self.config.host, self.port)

    async def stop(self) -> None:
        """Stop accepting, close open connections, stop the dispatcher."""
        await super().stop()
        # Cooperative job shutdown: running sweeps see the cancel flag at
        # their next cell boundary and their checkpoints keep every finished
        # cell — a resubmitted job resumes from disk.  Joining the workers
        # (off the event loop) makes the flush durable before stop() returns,
        # so a successor server sharing the checkpoint directory always sees
        # the completed cells.
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.jobs.close(wait=True)
        )
        await self.dispatcher.stop()
        self.audit.close()

    # ------------------------------------------------------------------
    # Request accounting (hooks called by the shared HTTP plumbing)
    # ------------------------------------------------------------------
    def _count(self, stat: str) -> None:
        self._counters[stat].inc()

    def _observe_latency(self, seconds: float) -> None:
        self._request_latency.observe(seconds)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _build_routes(self) -> List[_Route]:
        """The versioned routing table plus its deprecated legacy aliases.

        Registration order is match order, so literal segments
        (``/v1/jobs/robustness``) must precede patterns that would also
        match them (``/v1/jobs/{job_id}``) for the same method.
        """
        v1 = [
            ("GET", "/v1/healthz", self._handle_healthz),
            ("GET", "/v1/stats", self._handle_stats),
            ("GET", "/v1/metrics", self._handle_metrics),
            ("GET", "/v1/keys", self._handle_keys),
            ("GET", "/v1/audit", self._handle_occupancy_audit),
            ("DELETE", "/v1/keys/{key_id}", self._handle_delete_key),
            ("POST", "/v1/register", self._handle_register),
            ("POST", "/v1/suspects", self._handle_suspects),
            ("POST", "/v1/verify", self._handle_verify),
            ("POST", "/v1/robustness", self._handle_robustness),
            ("POST", "/v1/jobs/robustness", self._handle_job_submit),
            ("GET", "/v1/jobs", self._handle_jobs_list),
            ("GET", "/v1/jobs/{job_id}", self._handle_job_status),
            ("GET", "/v1/jobs/{job_id}/events", self._handle_job_events),
            ("GET", "/v1/jobs/{job_id}/report", self._handle_job_report),
            ("DELETE", "/v1/jobs/{job_id}", self._handle_job_cancel),
        ]
        legacy = [
            ("GET", "/healthz", self._handle_healthz),
            ("GET", "/stats", self._handle_stats),
            ("GET", "/metrics", self._handle_metrics),
            ("GET", "/keys", self._handle_keys),
            ("POST", "/register", self._handle_register),
            ("POST", "/revoke", self._handle_revoke),
            ("POST", "/suspects", self._handle_suspects),
            ("POST", "/verify", self._handle_verify),
            ("POST", "/robustness", self._handle_robustness),
        ]
        return [_Route(m, p, h) for m, p, h in v1] + [
            _Route(m, p, h, legacy=True) for m, p, h in legacy
        ]

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _handle_healthz(self, _body: bytes, _params: Dict[str, str], query) -> Tuple[int, Dict[str, object]]:
        """Liveness — and, with ``?ready``, readiness.

        Liveness answers 200 while the process serves requests at all.
        Readiness additionally demands that neither the dispatcher nor the
        job manager is draining; during shutdown it flips to 503 so a load
        balancer stops sending traffic before the listener disappears.
        """
        payload: Dict[str, object] = {
            "status": "ok",
            "uptime_seconds": time.time() - (self.started_at or time.time()),
            "queue_depth": self.dispatcher.depth,
        }
        if "ready" in query:
            draining = [
                name
                for name, is_draining in (
                    ("dispatcher", self.dispatcher.draining),
                    ("jobs", self.jobs.draining),
                )
                if is_draining
            ]
            if draining:
                body = _error_envelope(
                    503, f"draining: {', '.join(draining)}", code="not_ready"
                )
                body["ready"] = False
                return 503, body
            payload["ready"] = True
        return 200, payload

    def _handle_metrics(self, _body: bytes, _params: Dict[str, str], _query) -> Tuple[int, str]:
        """Prometheus text exposition of every registered series."""
        return 200, self.metrics.render()

    def _handle_stats(self, _body: bytes, _params: Dict[str, str], _query) -> Tuple[int, Dict[str, object]]:
        with self._suspects_lock:
            num_suspects = len(self._suspects)
        return 200, {
            "server": {
                "uptime_seconds": time.time() - (self.started_at or time.time()),
                **{name: int(counter.value) for name, counter in self._counters.items()},
                "request_seconds": self._request_latency.summary(),
            },
            "dispatcher": self.dispatcher.stats(),
            "admission": self.bucket.stats(),
            "owner_admission": self.owner_limiter.stats(),
            "gauntlet": {
                "cpu_budget_s": self.config.gauntlet_cpu_budget_s,
                "max_cells": _MAX_GAUNTLET_CELLS,
                "inflight": self._gauntlets_inflight,
                **self._gauntlet_cost.stats(),
            },
            "jobs": self.jobs.stats(),
            "plan_cache": self.engine.cache_stats(),
            "registry": self.registry.stats(),
            "suspects": {
                "count": num_suspects,
                "max": self.config.max_suspects,
                "evictions": self._suspect_evictions,
            },
            "audit": self.audit.stats(),
        }

    def _handle_keys(self, _body: bytes, _params: Dict[str, str], query) -> Tuple[int, Dict[str, object]]:
        records = self.registry.records()
        wanted = query.get("model_fingerprint")
        if wanted:
            records = [r for r in records if r.model_fingerprint in wanted]
        return 200, {"keys": [record.to_dict() for record in records]}

    async def _handle_occupancy_audit(
        self, _body: bytes, _params: Dict[str, str], _query
    ) -> Tuple[int, Dict[str, object]]:
        """Re-verify slot disjointness of every co-resident key set.

        Reproduces each registered key's locations through the engine (plan
        cache makes repeats cheap) and answers with per-fingerprint verdicts
        plus a shard-count-stable digest; the fleet router merges these per
        shard into ``GET /v1/fleet/audit``.
        """
        from repro.service.fleet.audit import occupancy_audit

        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            None, lambda: occupancy_audit(self.registry, self.engine)
        )
        return 200, {"audit": report.to_dict()}

    async def _handle_register(self, body: bytes, _params: Dict[str, str], _query) -> Tuple[int, Dict[str, object]]:
        payload = self._json_body(body)
        if "key" not in payload:
            raise _HttpError(400, "missing 'key' payload")
        loop = asyncio.get_running_loop()
        try:
            # NPZ decode and registry persistence are CPU/disk bound — keep
            # them off the event loop so /healthz and queued /verify responses
            # stay live during large uploads.
            key = await loop.run_in_executor(None, key_from_wire, payload["key"])
        except ValueError as exc:
            raise _HttpError(400, f"invalid key payload: {exc}") from exc
        record = await loop.run_in_executor(
            None,
            lambda: self.registry.register(
                key,
                owner=str(payload.get("owner", "")),
                metadata=payload.get("metadata") or {},
            ),
        )
        return 200, {"registered": record.to_dict()}

    def _handle_revoke(self, body: bytes, _params: Dict[str, str], _query) -> Tuple[int, Dict[str, object]]:
        """Legacy body-addressed revocation (``POST /revoke``)."""
        payload = self._json_body(body)
        key_id = payload.get("key_id")
        if not key_id:
            raise _HttpError(400, "missing 'key_id'")
        return self._revoke(str(key_id))

    def _handle_delete_key(self, _body: bytes, params: Dict[str, str], _query) -> Tuple[int, Dict[str, object]]:
        """Resource-addressed revocation (``DELETE /v1/keys/{key_id}``)."""
        return self._revoke(params["key_id"])

    def _revoke(self, key_id: str) -> Tuple[int, Dict[str, object]]:
        try:
            record = self.registry.revoke(key_id)
        except RegistryError as exc:
            raise _HttpError(404, str(exc)) from exc
        return 200, {"revoked": record.to_dict()}

    async def _handle_suspects(self, body: bytes, _params: Dict[str, str], _query) -> Tuple[int, Dict[str, object]]:
        payload = self._json_body(body)
        if "model" not in payload:
            raise _HttpError(400, "missing 'model' payload")
        rank = payload.get("rank", False)
        if not isinstance(rank, bool):
            raise _HttpError(400, "'rank' must be a boolean")
        # Ranking is verification work (one fleet sweep against every
        # candidate key), so it pays the same global admission toll as
        # /verify; the per-owner charge happens below, once the candidate
        # keys — and with them the owners — are known.
        if rank and not self.bucket.try_acquire():
            raise _HttpError(429, "rate limit exceeded, retry later", retry_after=1.0)
        loop = asyncio.get_running_loop()
        try:
            model = await loop.run_in_executor(None, model_from_wire, payload["model"])
        except ValueError as exc:
            raise _HttpError(400, f"invalid model payload: {exc}") from exc
        fingerprint = model_fingerprint(model)
        suspect_id = payload.get("suspect_id")
        if suspect_id is not None and not isinstance(suspect_id, str):
            raise _HttpError(400, "'suspect_id' must be a string")
        if not suspect_id:
            # Content-addressed default: same bytes → same id, different
            # model → different id (see _model_content_id).
            suspect_id = "suspect-" + await loop.run_in_executor(
                None, _model_content_id, model
            )
        suspect_id = str(suspect_id)
        with self._suspects_lock:
            if suspect_id in self._suspects:
                self._suspects.move_to_end(suspect_id)
            self._suspects[suspect_id] = (model, fingerprint)
            while len(self._suspects) > self.config.max_suspects:
                self._suspects.popitem(last=False)
                self._suspect_evictions += 1
        candidate_records = self.registry.records_for_model(fingerprint)
        response: Dict[str, object] = {
            "suspect_id": suspect_id,
            "model_fingerprint": fingerprint,
            "num_layers": model.num_quantization_layers,
            "candidate_key_ids": [record.key_id for record in candidate_records],
            # Multi-owner view: every co-resident claimant of the suspect's
            # model family, with owner identity and co-residency up front.
            "candidate_keys": [
                {
                    "key_id": record.key_id,
                    "owner": record.owner,
                    "co_residents": list(record.co_residents),
                }
                for record in candidate_records
            ],
        }
        if rank and candidate_records:
            # Ranked claim shortlist: verify the upload against every
            # co-resident candidate key's ticket in one fleet sweep and
            # order by strength of evidence — verdict first, then WER, then
            # the Equation 8 probability.  Ticket lookup runs off the loop:
            # after a restart it derives the cold ones from disk.
            candidate_ids = [record.key_id for record in candidate_records]
            self._admit_owners(candidate_ids)
            future = loop.run_in_executor(
                None,
                lambda: self.engine.verify_fleet(
                    {suspect_id: model}, self.registry.active_keys(candidate_ids)
                ),
            )
            try:
                report = await asyncio.wait_for(asyncio.shield(future), _VERIFY_TIMEOUT_S)
            except asyncio.TimeoutError:
                raise _HttpError(503, "ranking timed out", counter="timeouts") from None
            except RegistryError as exc:  # a candidate revoked or quarantined meanwhile
                raise _HttpError(404, str(exc)) from exc
            owner_of = {record.key_id: record.owner for record in candidate_records}
            ranked = sorted(
                report.pairs,
                key=lambda p: (not p.owned, -p.wer_percent, p.false_claim_probability, p.key_id),
            )
            # Ranking issues real ownership verdicts — they enter the audit
            # log and the decision counters exactly like /verify decisions.
            request_id = f"req-{next(self._request_ids)}"
            for pair in ranked:
                if pair.owned:
                    self._counters["decisions_owned"].inc()
                else:
                    self._counters["decisions_not_owned"].inc()
                self.audit.record(
                    request_id=request_id,
                    kind="ranking",
                    suspect_id=suspect_id,
                    key_id=pair.key_id,
                    owned=pair.owned,
                    wer_percent=pair.wer_percent,
                    matched_bits=pair.matched_bits,
                    total_bits=pair.total_bits,
                    false_claim_probability=pair.false_claim_probability,
                )
            response["request_id"] = request_id
            response["ranking"] = [
                {
                    "key_id": pair.key_id,
                    "owner": owner_of.get(pair.key_id, ""),
                    "owned": pair.owned,
                    "wer_percent": pair.wer_percent,
                    "matched_bits": pair.matched_bits,
                    "total_bits": pair.total_bits,
                    "false_claim_probability": pair.false_claim_probability,
                }
                for pair in ranked
            ]
        elif rank:
            response["ranking"] = []
        return 200, response

    def _admit_owners(self, key_ids) -> None:
        """Per-owner admission: the request is charged to every owner whose
        keys it touches; any owner over their rate rejects the whole request
        (HTTP 429) without burning the other owners' budget."""
        if not self.owner_limiter.enabled:
            return
        owners = []
        for key_id in key_ids:
            try:
                owners.append(self.registry.owner_of(key_id))
            except RegistryError:
                owners.append("")
        if not self.owner_limiter.try_acquire(owners):
            raise _HttpError(
                429,
                "owner rate limit exceeded, retry later",
                counter="rejected_owner_rate",
                retry_after=1.0,
            )

    async def _handle_verify(self, body: bytes, _params: Dict[str, str], _query) -> Tuple[int, Dict[str, object]]:
        if not self.bucket.try_acquire():
            raise _HttpError(429, "rate limit exceeded, retry later", retry_after=1.0)
        payload = self._json_body(body)
        thresholds = _thresholds(payload)
        suspect_id, suspect = await self._resolve_suspect(payload)
        key_ids = payload.get("key_ids")
        if key_ids is not None and (
            not isinstance(key_ids, list) or not all(isinstance(k, str) for k in key_ids)
        ):
            raise _HttpError(400, "'key_ids' must be a list of key id strings")
        try:
            # Off the loop: a key untouched since a restart derives its
            # ticket from disk here (resident tickets return at once).
            keys = await asyncio.get_running_loop().run_in_executor(
                None, self.registry.active_keys, key_ids
            )
        except RegistryError as exc:
            raise _HttpError(404, str(exc)) from exc
        if not keys:
            raise _HttpError(400, "no active keys to verify against")
        self._admit_owners(keys)
        job = VerifyJob(
            request_id=f"req-{next(self._request_ids)}",
            suspect_id=suspect_id,
            suspect=suspect,
            keys=keys,
            **thresholds,
        )
        try:
            future = self.dispatcher.submit(job)
        except QueueFullError as exc:
            raise _HttpError(503, str(exc)) from exc
        try:
            outcome = await asyncio.wait_for(future, timeout=_VERIFY_TIMEOUT_S)
        except asyncio.TimeoutError:
            raise _HttpError(503, "verification timed out", counter="timeouts") from None
        self._counters["verifications"].inc()
        decisions = []
        for pair in outcome.decisions:
            if pair.owned:
                self._counters["decisions_owned"].inc()
            else:
                self._counters["decisions_not_owned"].inc()
            decisions.append(pair.to_dict())
            # Non-blocking: the ring-buffer append happens here, the disk
            # write + flush on the audit log's own writer thread.
            self.audit.record(
                request_id=outcome.request_id,
                suspect_id=pair.suspect_id,
                key_id=pair.key_id,
                owned=pair.owned,
                wer_percent=pair.wer_percent,
                matched_bits=pair.matched_bits,
                total_bits=pair.total_bits,
                false_claim_probability=pair.false_claim_probability,
                batch_id=outcome.batch_id,
                batch_size=outcome.batch_size,
            )
        return 200, {
            "request_id": outcome.request_id,
            "suspect_id": outcome.suspect_id,
            "decisions": decisions,
            "batch_id": outcome.batch_id,
            "batch_size": outcome.batch_size,
            "queue_ms": outcome.queue_seconds * 1000.0,
            "verify_ms": outcome.verify_seconds * 1000.0,
        }

    async def _parse_gauntlet_request(self, body: bytes) -> _GauntletRequest:
        """Validate + admit one gauntlet request (sync route or job submit).

        Performs the whole admission pipeline shared by both surfaces:
        whole-server token bucket, suspect resolution, single-key
        resolution, per-owner charge, attack-grid validation, the cell cap
        and the projected-CPU-seconds budget gate.  Raises
        :class:`_HttpError` on any failure; on success returns the
        validated request, ready to hand to a :class:`Gauntlet`.
        """
        from repro.robustness import build_attack, corpus_free_attacks
        from repro.robustness.attacks import ATTACK_REGISTRY

        if not self.bucket.try_acquire():
            raise _HttpError(429, "rate limit exceeded, retry later", retry_after=1.0)
        payload = self._json_body(body)
        config_kwargs: Dict[str, object] = _thresholds(payload)
        suspect_id, suspect = await self._resolve_suspect(payload)
        # One key per sweep: each (attack, strength) cell attacks the suspect
        # exactly once.  Sweeping K keys in one grid would re-run every attack
        # K times (with K different random draws), burning the cell budget on
        # incomparable rows — clients sweep additional keys with additional
        # requests.
        key_id = payload.get("key_id")
        if key_id is not None and not isinstance(key_id, str):
            raise _HttpError(400, "'key_id' must be a string")
        try:
            records = self.registry.active_records([key_id] if key_id else None)
        except RegistryError as exc:
            raise _HttpError(404, str(exc)) from exc
        if not records:
            raise _HttpError(400, "no active keys to run the gauntlet against")
        if len(records) > 1:
            raise _HttpError(
                400,
                f"registry holds {len(records)} active keys; pick one with 'key_id' "
                "(one gauntlet sweep targets one key)",
            )
        key_id = records[0].key_id
        self._admit_owners([key_id])

        raw_attacks = payload.get("attacks")
        if raw_attacks is None:
            raw_attacks = [{"name": name} for name in corpus_free_attacks()]
        if not isinstance(raw_attacks, list) or not raw_attacks:
            raise _HttpError(400, "'attacks' must be a non-empty list")
        attacks = []
        strengths: Dict[str, tuple] = {}
        seen_names = set()
        for entry in raw_attacks:
            if isinstance(entry, str):
                entry = {"name": entry}
            if not isinstance(entry, dict) or "name" not in entry:
                raise _HttpError(400, "each attack must be a name or {'name': ..., 'strengths': [...]}")
            name = str(entry["name"])
            if name in seen_names:
                raise _HttpError(400, f"duplicate attack {name!r} in the grid")
            seen_names.add(name)
            spec_cls = ATTACK_REGISTRY.get(name)
            if spec_cls is None:
                raise _HttpError(400, f"unknown attack {name!r}; available: {corpus_free_attacks()}")
            if spec_cls.requires_corpus:
                raise _HttpError(
                    400,
                    f"attack {name!r} needs an attacker-side corpus and cannot run server-side",
                )
            if "strengths" in entry:
                raw_strengths = entry["strengths"]
                if not isinstance(raw_strengths, list) or not raw_strengths:
                    raise _HttpError(400, f"'strengths' for {name!r} must be a non-empty list")
                try:
                    strengths[name] = tuple(float(v) for v in raw_strengths)
                except (TypeError, ValueError) as exc:
                    raise _HttpError(400, f"non-numeric strength for {name!r}: {exc}") from exc
            attacks.append(build_attack(name))
        num_cells = sum(
            len(strengths.get(spec.name, spec.default_strengths)) for spec in attacks
        )
        if num_cells > _MAX_GAUNTLET_CELLS:
            raise _HttpError(
                400,
                f"grid of {num_cells} cells exceeds the "
                f"{_MAX_GAUNTLET_CELLS}-cell report-size limit",
            )
        # CPU-time fairness gate: streaming sweeps are constant-memory, so
        # admission projects the grid's CPU seconds from the per-cell cost
        # observed on this server and rejects what would hog the executor.
        budget = self.config.gauntlet_cpu_budget_s
        if budget is not None:
            if self._gauntlet_cost.is_cold and num_cells > _COLD_START_GAUNTLET_CELLS:
                # The seed estimate hasn't been validated against a single
                # real sweep yet — a large grid admitted on a wrong guess
                # cannot be cancelled once running, so the first sweeps are
                # clamped to the historical 64-cell bound.
                raise _HttpError(
                    429,
                    f"grid of {num_cells} cells exceeds the "
                    f"{_COLD_START_GAUNTLET_CELLS}-cell cold-start bound "
                    "(no sweep cost observed yet; retry after a smaller sweep)",
                    counter="rejected_cpu_budget",
                )
            projected = self._gauntlet_cost.estimate(num_cells)
            if projected > budget:
                raise _HttpError(
                    429,
                    f"projected CPU cost {projected:.1f}s for {num_cells} cells "
                    f"exceeds the {budget:.0f}s per-request budget",
                    counter="rejected_cpu_budget",
                )
        try:
            seed = int(payload.get("seed", 0))
        except (TypeError, ValueError) as exc:
            raise _HttpError(400, f"invalid seed: {exc}") from exc
        config_kwargs.update(seed=seed, evaluate_quality=False)
        executor = payload.get("executor")
        if executor is not None:
            if executor not in ("serial", "thread", "process", "auto"):
                raise _HttpError(
                    400,
                    f"unknown executor {executor!r}; "
                    "pick serial, thread, process or auto",
                )
            if executor == "serial":
                config_kwargs["max_workers"] = 1
            elif executor == "process":
                config_kwargs["mode"] = "process"
            elif executor == "auto":
                config_kwargs["mode"] = "auto"
        # Gauntlet subjects carry the full key: loaded from disk only now,
        # after every validation and admission gate has passed.
        try:
            key = await asyncio.get_running_loop().run_in_executor(
                None, self.registry.get_key, key_id
            )
        except RegistryError as exc:
            raise _HttpError(404, str(exc)) from exc
        return _GauntletRequest(
            suspect_id=suspect_id,
            suspect=suspect,
            key_id=key_id,
            key=key,
            attacks=attacks,
            strengths=strengths,
            num_cells=num_cells,
            config_kwargs=config_kwargs,
        )

    def _build_gauntlet(self, request: _GauntletRequest):
        """The (gauntlet, subjects) pair both gauntlet surfaces run with."""
        from repro.robustness import Gauntlet, GauntletConfig, GauntletSubject

        subjects = {
            request.key_id: GauntletSubject(model=request.suspect, key=request.key)
        }
        gauntlet = Gauntlet(
            engine=self.engine,
            config=GauntletConfig(**request.config_kwargs),
            metrics=self.metrics,
        )
        return gauntlet, subjects

    def _record_cell_decision(
        self, request_id: str, suspect_id: str, key_id: str, cell, kind: str
    ) -> None:
        """Every gauntlet cell is an ownership decision against a registered
        key, so it enters the audit log (and the decision counters) exactly
        like a /verify verdict — the "every ownership decision is recorded"
        invariant does not stop at the gauntlet."""
        if cell.owned:
            self._counters["decisions_owned"].inc()
        else:
            self._counters["decisions_not_owned"].inc()
        self.audit.record(
            request_id=request_id,
            kind=kind,
            suspect_id=suspect_id,
            key_id=key_id,
            attack=cell.attack,
            strength=cell.strength,
            owned=cell.owned,
            wer_percent=cell.wer_percent,
            matched_bits=cell.matched_bits,
            total_bits=cell.total_bits,
            false_claim_probability=cell.false_claim_probability,
        )

    def _observe_gauntlet_cost(self, report) -> None:
        """Feed the admission estimator with the measured cost: per-cell
        attack seconds plus the summed verification time (both CPU-bound,
        summed across workers — the fair-share quantity, not wall clock)."""
        self._gauntlet_cost.observe(
            report.num_cells,
            sum(cell.attack_seconds for cell in report.cells) + report.verify_seconds,
        )

    async def _handle_robustness(self, body: bytes, _params: Dict[str, str], _query) -> Tuple[int, Dict[str, object]]:
        """Run the robustness gauntlet on a stored suspect against one key.

        The grid crosses the requested (corpus-free) attacks with their
        strength sweeps — overwriting, pruning, re-quantization and the
        float-domain scenarios (scale tampering, outlier-column rewrites,
        structured head/row pruning); corpus-backed attacks (re-watermarking,
        fine-tuning, GPTQ re-quantization, the adaptive attacker, souping)
        stay client-side.  Quality evaluation is disabled — the server holds
        keys and suspects, not evaluation corpora — so every cell reports
        ownership evidence only.  By default the sweep runs in streaming
        mode on the shared engine (each attacked model is verified and
        released as its worker finishes, so a grid never holds more than the
        worker count in memory), reusing any location plans the verification
        traffic has already cached; an ``executor`` payload key of
        ``"serial"``, ``"thread"``, ``"process"`` or ``"auto"`` selects the
        cell executor explicitly (``"process"`` publishes the suspect into
        shared memory and runs cells in worker processes).  Every cell
        verdict is written to the audit log.

        The connection is held open for the whole sweep — for long grids
        prefer ``POST /v1/jobs/robustness``, which answers 202 immediately
        and streams per-cell verdicts instead.
        """
        request = await self._parse_gauntlet_request(body)
        gauntlet, subjects = self._build_gauntlet(request)
        loop = asyncio.get_running_loop()
        # Bounded admission: a timed-out sweep keeps burning CPU on the
        # executor until it finishes (threads cannot be cancelled), so its
        # slot is released by the done callback, not by the timeout — retry
        # storms get 503s instead of stacking unbounded sweeps.
        if self._gauntlets_inflight >= _MAX_INFLIGHT_GAUNTLETS:
            raise _HttpError(
                503,
                f"{self._gauntlets_inflight} robustness sweeps already in flight, retry later",
                retry_after=1.0,
            )
        self._gauntlets_inflight += 1
        future = loop.run_in_executor(
            None, gauntlet.run, subjects, request.attacks, request.strengths
        )

        def _release(_future) -> None:
            self._gauntlets_inflight -= 1

        future.add_done_callback(_release)
        try:
            report = await asyncio.wait_for(asyncio.shield(future), timeout=_GAUNTLET_TIMEOUT_S)
        except asyncio.TimeoutError:
            raise _HttpError(503, "gauntlet timed out", counter="timeouts") from None
        except ValueError as exc:
            # Grid-level validation the gauntlet performs itself (duplicate
            # strengths, colliding cell ids, …) is still client input.
            raise _HttpError(400, f"invalid gauntlet grid: {exc}") from exc
        self._counters["gauntlets"].inc()
        self._observe_gauntlet_cost(report)
        request_id = f"req-{next(self._request_ids)}"
        for cell in report.cells:
            self._record_cell_decision(
                request_id, request.suspect_id, request.key_id, cell, kind="robustness"
            )
        return 200, {
            "request_id": request_id,
            "suspect_id": request.suspect_id,
            "key_id": request.key_id,
            "report": report.to_dict(),
        }

    # ------------------------------------------------------------------
    # Background jobs (POST /v1/jobs/robustness and friends)
    # ------------------------------------------------------------------
    async def _handle_job_submit(self, body: bytes, _params: Dict[str, str], _query) -> Tuple[int, Dict[str, object], Dict[str, str]]:
        """Submit a background gauntlet sweep; answers 202 + job id.

        The request passes the same validation and CPU-budget admission as
        the synchronous route, then runs on the job manager's worker pool.
        With a configured ``checkpoint_dir`` every completed cell is
        appended to a JSONL file content-addressed by the grid fingerprint
        (grid + seed + thresholds + the suspect's *content* digest), so
        resubmitting the identical request — after a cancel, a crash or a
        full server restart — replays the finished cells from disk and the
        resumed report's decision digest is bit-identical to an
        uninterrupted run.
        """
        from repro.robustness.checkpoint import CellCheckpoint

        request = await self._parse_gauntlet_request(body)
        gauntlet, subjects = self._build_gauntlet(request)
        checkpoint_dir = self.config.checkpoint_dir
        meta: Dict[str, object] = {
            "suspect_id": request.suspect_id,
            "key_id": request.key_id,
        }
        fingerprint: Optional[str] = None
        ckpt_path: Optional[Path] = None
        if checkpoint_dir is not None:
            # Content-addressed checkpoint: the fingerprint folds in the
            # suspect's weight digest, so the same grid over a *different*
            # upload can never resume a stale file.  Computed here (hashing
            # happens off the event loop) so the 202 status already names
            # the checkpoint, before the worker has picked the job up.
            loop = asyncio.get_running_loop()
            fingerprint = await loop.run_in_executor(
                None,
                lambda: gauntlet.grid_fingerprint_for(
                    subjects,
                    request.attacks,
                    request.strengths or None,
                    extra={"suspect_content": _model_content_id(request.suspect)},
                ),
            )
            ckpt_path = checkpoint_dir / f"{fingerprint[:16]}.jsonl"
            meta["checkpoint"] = str(ckpt_path)

        def run_sweep(job: Job):
            ckpt = None
            if ckpt_path is not None:
                ckpt = CellCheckpoint(ckpt_path, fingerprint=fingerprint)

            def on_cell(cell, replayed: bool) -> None:
                self._record_cell_decision(
                    job.job_id, request.suspect_id, request.key_id, cell,
                    kind="robustness-job",
                )
                job.record_cell(
                    {"cell_id": cell.cell_id, "cell": cell.to_dict()}, replayed
                )

            with span(
                "job.run",
                job_id=job.job_id,
                suspect_id=request.suspect_id,
                key_id=request.key_id,
                cells=request.num_cells,
            ):
                report = gauntlet.run(
                    subjects,
                    request.attacks,
                    request.strengths or None,
                    checkpoint=ckpt,
                    on_cell=on_cell,
                    should_stop=job.cancel_requested,
                )
            self._counters["gauntlets"].inc()
            self._observe_gauntlet_cost(report)
            return report

        try:
            job = self.jobs.submit(run_sweep, total_cells=request.num_cells, meta=meta)
        except JobLimitError as exc:
            raise _HttpError(
                429, str(exc), code="job_limit", retry_after=1.0
            ) from exc
        self._counters["jobs_submitted"].inc()
        return 202, {"job": job.status()}, {"Location": f"/v1/jobs/{job.job_id}"}

    def _job_or_404(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise _HttpError(404, f"unknown job id {job_id!r}")
        return job

    def _handle_jobs_list(self, _body: bytes, _params: Dict[str, str], _query) -> Tuple[int, Dict[str, object]]:
        return 200, {"jobs": [job.status() for job in self.jobs.jobs()]}

    def _handle_job_status(self, _body: bytes, params: Dict[str, str], _query) -> Tuple[int, Dict[str, object]]:
        return 200, {"job": self._job_or_404(params["job_id"]).status()}

    def _handle_job_events(self, _body: bytes, params: Dict[str, str], query) -> _StreamingResponse:
        """Chunked NDJSON stream of the job's event log.

        One JSON object per line: a ``cell`` record per completed cell
        (replayed checkpoint cells first, then fresh ones as they finish)
        and a final ``end`` record carrying the terminal state.  The stream
        is tail-follow: it stays open while the sweep runs and closes after
        the ``end`` record.  ``?since=N`` skips the first N events for
        reconnecting consumers.
        """
        job = self._job_or_404(params["job_id"])
        raw_since = query.get("since", ["0"])[0] or "0"
        try:
            since = int(raw_since)
        except ValueError:
            raise _HttpError(400, f"'since' must be an integer, got {raw_since!r}") from None
        if since < 0:
            raise _HttpError(400, "'since' must be >= 0")
        return _StreamingResponse(200, self._job_event_stream(job, since))

    async def _job_event_stream(self, job: Job, since: int) -> AsyncIterator[bytes]:
        index = since
        while True:
            events, terminal = job.events_since(index)
            for event in events:
                yield (json.dumps(event) + "\n").encode("utf-8")
            index += len(events)
            if terminal:
                # The snapshot above is taken under the job's lock, so when
                # `terminal` is True the `end` record was already in it.
                return
            await asyncio.sleep(0.05)

    def _handle_job_report(self, _body: bytes, params: Dict[str, str], _query) -> Tuple[int, Dict[str, object]]:
        job = self._job_or_404(params["job_id"])
        state = job.state
        if state not in ("succeeded", "failed", "cancelled"):
            raise _HttpError(
                409,
                f"job {job.job_id} is {state}; report not ready",
                code="job_not_finished",
                retry_after=0.5,
            )
        if state != "succeeded":
            detail = f": {job.error}" if job.error else ""
            raise _HttpError(
                409, f"job {job.job_id} {state}{detail}", code=f"job_{state}"
            )
        report = job.result
        return 200, {
            "job_id": job.job_id,
            "suspect_id": job.meta.get("suspect_id"),
            "key_id": job.meta.get("key_id"),
            "report": report.to_dict(),
        }

    def _handle_job_cancel(self, _body: bytes, params: Dict[str, str], _query) -> Tuple[int, Dict[str, object]]:
        """Cooperative cancel — the sweep stops at its next cell boundary.

        Cancelling an already-finished job is a 409: the verdict (and any
        checkpoint) already exists, there is nothing left to stop.
        """
        job = self._job_or_404(params["job_id"])
        if job.is_terminal:
            raise _HttpError(
                409, f"job {job.job_id} already {job.state}", code="job_finished"
            )
        self.jobs.cancel(job.job_id)
        return 202, {"job": job.status()}

    async def _resolve_suspect(self, payload: Dict[str, object]) -> Tuple[str, QuantizedModel]:
        """A verify request names a stored suspect or carries one inline."""
        if "model" in payload:
            try:
                model = await asyncio.get_running_loop().run_in_executor(
                    None, model_from_wire, payload["model"]
                )
            except ValueError as exc:
                raise _HttpError(400, f"invalid model payload: {exc}") from exc
            raw_id = payload.get("suspect_id")
            if raw_id is not None and not isinstance(raw_id, str):
                raise _HttpError(400, "'suspect_id' must be a string")
            # Anonymous inline suspects get a unique per-request id: a shared
            # default id would let the batch dispatcher deduplicate two
            # *different* same-architecture models onto one entry and answer
            # one client with the other's verdict.
            suspect_id = raw_id or f"inline-{next(self._inline_ids)}"
            return suspect_id, model
        suspect_id = payload.get("suspect_id")
        if suspect_id is not None and not isinstance(suspect_id, str):
            raise _HttpError(400, "'suspect_id' must be a string")
        if not suspect_id:
            raise _HttpError(400, "provide 'suspect_id' (uploaded) or inline 'model'")
        with self._suspects_lock:
            entry = self._suspects.get(suspect_id)
            if entry is not None:
                self._suspects.move_to_end(suspect_id)
        if entry is None:
            raise _HttpError(404, f"unknown suspect id {suspect_id!r}")
        return suspect_id, entry[0]


# ----------------------------------------------------------------------
# Background runner (tests, examples, load generator)
# ----------------------------------------------------------------------
class ServerHandle:
    """An :class:`AsyncHttpServer` running on a dedicated event-loop thread.

    Works for any server built on the shared HTTP plumbing — a
    :class:`VerificationServer` shard or a fleet
    :class:`~repro.service.fleet.router.ShardRouter`.  Created via
    :func:`run_in_background` (or directly for non-default servers); usable
    as a context manager::

        with run_in_background(server) as handle:
            client = VerificationClient(port=handle.port)
            ...
    """

    def __init__(self, server: AsyncHttpServer) -> None:
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Future] = None
        self._startup_error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, name="wm-server", daemon=True)

    @property
    def port(self) -> int:
        """The bound port (valid once started)."""
        return self.server.port

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self._stop = self._loop.create_future()
            self._ready.set()
            try:
                await self._stop
            finally:
                await self.server.stop()

        try:
            self._loop.run_until_complete(main())
        except BaseException:
            if self._startup_error is None:
                logger.exception("server thread crashed")
        finally:
            self._loop.close()

    def start(self) -> "ServerHandle":
        """Start the thread and wait for the socket to be bound."""
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise RuntimeError(f"server failed to start: {self._startup_error}")
        if not self._ready.is_set():
            raise RuntimeError("server did not start within 30s")
        return self

    def close(self) -> None:
        """Stop the server and join the thread (idempotent)."""
        if self._thread.is_alive() and self._stop is not None:
            self._loop.call_soon_threadsafe(
                lambda: self._stop.done() or self._stop.set_result(None)
            )
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def run_in_background(server: Optional[VerificationServer] = None, **config_kwargs) -> ServerHandle:
    """Start a server on a background thread and return its handle.

    ``config_kwargs`` are forwarded to :class:`ServiceConfig` when no server
    instance is given.
    """
    if server is not None and config_kwargs:
        raise ValueError(
            "pass either a server instance or ServiceConfig kwargs, not both "
            f"(got {sorted(config_kwargs)})"
        )
    if server is None:
        server = VerificationServer(config=ServiceConfig(**config_kwargs))
    return ServerHandle(server).start()
