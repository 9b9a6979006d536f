"""Closed-loop load generator for the verification service.

Follows the shape of ``llm-load-test``: N concurrent users, each in a closed
loop (send a request, wait for the response, immediately send the next one),
driven either for a fixed duration or until a shared request budget is
exhausted, with structured latency/throughput output.

Each user thread owns one keep-alive :class:`VerificationClient` connection
and walks the configured request mix round-robin with a per-user stride, so
a hit/miss template mix is exercised evenly at every concurrency level.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.service.client import (
    RateLimitedError,
    ServiceError,
    ServiceUnavailableError,
    VerificationClient,
)
from repro.utils.logging import get_logger

__all__ = [
    "RequestTemplate",
    "LoadConfig",
    "LoadReport",
    "run_load",
    "JobLoadConfig",
    "JobLoadReport",
    "run_job_load",
]

logger = get_logger("service.loadgen")


@dataclass(frozen=True)
class RequestTemplate:
    """One request shape in the load mix.

    Attributes
    ----------
    suspect_id:
        Id of a suspect snapshot already uploaded to the server.
    key_ids:
        Keys to check against (``None`` = every active key).
    label:
        Mix label carried into the per-request records (e.g. ``"hit"`` /
        ``"miss"``) so reports can split latency by request class.
    """

    suspect_id: str
    key_ids: Optional[tuple] = None
    label: str = ""


@dataclass
class LoadConfig:
    """Parameters of one load run.

    ``total_requests`` is a budget of request *attempts*: rejected (429/503)
    and errored attempts consume it too, so a run against a rate-limited
    server always terminates.  Without admission control in play,
    ``completed == total_requests``.
    """

    host: str = "127.0.0.1"
    port: int = 8420
    concurrency: int = 4
    duration_seconds: Optional[float] = None
    total_requests: Optional[int] = None
    templates: List[RequestTemplate] = field(default_factory=list)
    timeout: float = 60.0
    collect_decisions: bool = True

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if (self.duration_seconds is None) == (self.total_requests is None):
            raise ValueError("set exactly one of duration_seconds / total_requests")
        if not self.templates:
            raise ValueError("at least one request template is required")


@dataclass
class LoadReport:
    """Aggregated outcome of one load run."""

    concurrency: int
    elapsed_seconds: float
    completed: int
    errors: int
    rate_limited: int
    unavailable: int
    throughput_rps: float
    latency_ms: Dict[str, float]
    per_label_completed: Dict[str, int]
    #: Client-side timeouts — a distinct failure class from generic transport
    #: errors: the server may still be burning CPU on the abandoned request.
    timeouts: int = 0
    #: Requests completed in each 1-second window of the run (requests/s),
    #: so a flat p95 cannot hide a sawtooth or a mid-run stall.
    throughput_timeseries: List[int] = field(default_factory=list)
    decisions: List[Dict[str, object]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """All attempts that did not complete: rejections, timeouts, errors."""
        return self.errors + self.rate_limited + self.unavailable + self.timeouts

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form (``decisions`` excluded — they are bench-internal)."""
        return {
            "concurrency": self.concurrency,
            "elapsed_seconds": self.elapsed_seconds,
            "completed": self.completed,
            "errors": self.errors,
            "rate_limited": self.rate_limited,
            "unavailable": self.unavailable,
            "timeouts": self.timeouts,
            "failed": self.failed,
            "throughput_rps": self.throughput_rps,
            "throughput_timeseries": list(self.throughput_timeseries),
            "latency_ms": self.latency_ms,
            "per_label_completed": self.per_label_completed,
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        lat = self.latency_ms
        return (
            f"{self.concurrency} users × {self.elapsed_seconds:.2f}s: "
            f"{self.completed} ok ({self.throughput_rps:.1f} req/s), "
            f"p50 {lat.get('p50', 0):.1f}ms p95 {lat.get('p95', 0):.1f}ms "
            f"p99 {lat.get('p99', 0):.1f}ms, "
            f"{self.rate_limited} rate-limited, {self.unavailable} unavailable, "
            f"{self.timeouts} timeouts, {self.errors} errors"
        )


def _latency_stats(latencies_ms: List[float]) -> Dict[str, float]:
    """Mean + percentile summary of one latency population (ms)."""
    if not latencies_ms:
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    arr = np.asarray(latencies_ms)
    return {
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
    }


class _Budget:
    """Shared request budget for ``total_requests`` mode."""

    def __init__(self, total: Optional[int]) -> None:
        self._remaining = total
        self._lock = threading.Lock()

    def take(self) -> bool:
        if self._remaining is None:
            return True
        with self._lock:
            if self._remaining <= 0:
                return False
            self._remaining -= 1
            return True


@dataclass
class _WorkerResult:
    latencies_ms: List[float] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)
    completions: List[float] = field(default_factory=list)  # perf_counter stamps
    decisions: List[Dict[str, object]] = field(default_factory=list)
    errors: int = 0
    rate_limited: int = 0
    unavailable: int = 0
    timeouts: int = 0


def _worker(
    index: int,
    config: LoadConfig,
    stop: threading.Event,
    budget: _Budget,
    start_barrier: threading.Barrier,
    result: _WorkerResult,
) -> None:
    templates = config.templates
    client = VerificationClient(config.host, config.port, timeout=config.timeout)
    cursor = index  # stride by concurrency → even template coverage per user
    try:
        start_barrier.wait(timeout=30.0)
        while not stop.is_set():
            if not budget.take():
                break
            template = templates[cursor % len(templates)]
            cursor += config.concurrency
            begin = time.perf_counter()
            try:
                response = client.verify(
                    suspect_id=template.suspect_id,
                    key_ids=list(template.key_ids) if template.key_ids else None,
                )
            except RateLimitedError:
                result.rate_limited += 1
                continue
            except ServiceUnavailableError:
                result.unavailable += 1
                continue
            except TimeoutError:
                # socket.timeout is TimeoutError — a timed-out request may
                # still be running server-side, so it gets its own bucket.
                result.timeouts += 1
                continue
            except (ServiceError, OSError) as exc:
                result.errors += 1
                logger.debug("user %d request failed: %s", index, exc)
                continue
            done = time.perf_counter()
            result.latencies_ms.append((done - begin) * 1000.0)
            result.completions.append(done)
            result.labels.append(template.label)
            if config.collect_decisions:
                result.decisions.append(
                    {
                        "label": template.label,
                        "suspect_id": response["suspect_id"],
                        "decisions": response["decisions"],
                        "batch_size": response["batch_size"],
                    }
                )
    finally:
        client.close()


def run_load(config: LoadConfig) -> LoadReport:
    """Run one closed-loop load test and aggregate the results."""
    stop = threading.Event()
    budget = _Budget(config.total_requests)
    start_barrier = threading.Barrier(config.concurrency + 1)
    results = [_WorkerResult() for _ in range(config.concurrency)]
    threads = [
        threading.Thread(
            target=_worker,
            args=(i, config, stop, budget, start_barrier, results[i]),
            name=f"loadgen-{i}",
            daemon=True,
        )
        for i in range(config.concurrency)
    ]
    for thread in threads:
        thread.start()
    start_barrier.wait(timeout=30.0)
    started = time.perf_counter()
    if config.duration_seconds is not None:
        time.sleep(config.duration_seconds)
        stop.set()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    latencies = [lat for result in results for lat in result.latencies_ms]
    labels = [label for result in results for label in result.labels]
    decisions = [d for result in results for d in result.decisions]
    completed = len(latencies)
    per_label: Dict[str, int] = {}
    for label in labels:
        per_label[label] = per_label.get(label, 0) + 1
    latency_ms = _latency_stats(latencies)
    # Per-second throughput: completion stamps bucketed into 1s windows from
    # the common start barrier, covering the whole run (trailing zeros kept).
    buckets = [0] * max(1, int(np.ceil(elapsed))) if elapsed > 0 else []
    for result in results:
        for stamp in result.completions:
            offset = int(stamp - started)
            if 0 <= offset < len(buckets):
                buckets[offset] += 1
    report = LoadReport(
        concurrency=config.concurrency,
        elapsed_seconds=elapsed,
        completed=completed,
        errors=sum(result.errors for result in results),
        rate_limited=sum(result.rate_limited for result in results),
        unavailable=sum(result.unavailable for result in results),
        timeouts=sum(result.timeouts for result in results),
        throughput_rps=completed / elapsed if elapsed > 0 else 0.0,
        throughput_timeseries=buckets,
        latency_ms=latency_ms,
        per_label_completed=per_label,
        decisions=decisions,
    )
    logger.info("%s", report.summary())
    return report


# ----------------------------------------------------------------------
# Background-job load (POST /v1/jobs/robustness)
# ----------------------------------------------------------------------
@dataclass
class JobLoadConfig:
    """Parameters of one concurrent background-job run.

    ``jobs`` sweeps are submitted at once (each under its own seed, so the
    grids are distinct jobs rather than checkpoint-deduplicated replays of
    one grid) and every event stream is tailed to completion.  Keep ``jobs``
    at or below the server's ``job_max_active`` bound unless 429s are the
    point of the experiment.
    """

    host: str = "127.0.0.1"
    port: int = 8420
    jobs: int = 4
    suspect_id: str = ""
    key_id: Optional[str] = None
    attacks: Optional[List[object]] = None
    seeds: Optional[List[int]] = None
    timeout: float = 300.0

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not self.suspect_id:
            raise ValueError("suspect_id is required")
        if self.seeds is None:
            self.seeds = list(range(self.jobs))
        if len(self.seeds) != self.jobs:
            raise ValueError(f"need {self.jobs} seeds, got {len(self.seeds)}")


@dataclass
class JobLoadReport:
    """Aggregated outcome of one concurrent-jobs run."""

    jobs: int
    elapsed_seconds: float
    #: Terminal state per job, submission order.
    states: List[str]
    #: Decision digest per job (``None`` unless the job succeeded).
    digests: List[Optional[str]]
    #: Events observed on each job's NDJSON stream (cells + the end record).
    events_streamed: List[int]
    job_ids: List[str]
    #: Submissions rejected by admission (HTTP 429) — not part of ``states``.
    rejected: int = 0
    errors: int = 0

    @property
    def succeeded(self) -> int:
        return sum(1 for state in self.states if state == "succeeded")

    def to_dict(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "elapsed_seconds": self.elapsed_seconds,
            "states": list(self.states),
            "digests": list(self.digests),
            "events_streamed": list(self.events_streamed),
            "job_ids": list(self.job_ids),
            "rejected": self.rejected,
            "errors": self.errors,
            "succeeded": self.succeeded,
        }


def _job_worker(index: int, config: JobLoadConfig, slots: List[Optional[dict]]) -> None:
    client = VerificationClient(config.host, config.port, timeout=config.timeout)
    try:
        try:
            handle = client.submit_robustness_job(
                config.suspect_id,
                key_id=config.key_id,
                attacks=config.attacks,
                seed=config.seeds[index],
            )
        except RateLimitedError:
            slots[index] = {"rejected": True}
            return
        except (ServiceError, OSError) as exc:
            logger.debug("job %d submission failed: %s", index, exc)
            slots[index] = {"error": True}
            return
        # Tailing the event stream *is* the wait: it closes right after the
        # terminal `end` record, and counting its lines proves per-cell
        # records were readable mid-run.
        events = 0
        for _event in handle.events():
            events += 1
        status = handle.status()
        digest = None
        if status.get("state") == "succeeded":
            digest = handle.report()["report"]["decision_digest"]
        slots[index] = {
            "job_id": handle.job_id,
            "state": str(status.get("state")),
            "events": events,
            "digest": digest,
        }
    except (ServiceError, OSError, TimeoutError) as exc:
        logger.debug("job %d failed: %s", index, exc)
        slots[index] = {"error": True}
    finally:
        client.close()


def run_job_load(config: JobLoadConfig) -> JobLoadReport:
    """Submit ``config.jobs`` concurrent background sweeps, tail them all.

    Every worker thread submits one job, tails its NDJSON event stream to
    the terminal record and fetches the final report.  The per-job decision
    digests let callers assert bit-identity against direct
    :meth:`~repro.robustness.gauntlet.Gauntlet.run` calls — background
    execution, streaming and concurrency must never change a verdict.
    """
    slots: List[Optional[dict]] = [None] * config.jobs
    threads = [
        threading.Thread(
            target=_job_worker,
            args=(i, config, slots),
            name=f"jobload-{i}",
            daemon=True,
        )
        for i in range(config.jobs)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    states, digests, events, job_ids = [], [], [], []
    rejected = errors = 0
    for slot in slots:
        outcome = slot or {"error": True}
        if outcome.get("rejected"):
            rejected += 1
            continue
        if outcome.get("error"):
            errors += 1
            continue
        states.append(outcome["state"])
        digests.append(outcome["digest"])
        events.append(outcome["events"])
        job_ids.append(outcome["job_id"])
    report = JobLoadReport(
        jobs=config.jobs,
        elapsed_seconds=elapsed,
        states=states,
        digests=digests,
        events_streamed=events,
        job_ids=job_ids,
        rejected=rejected,
        errors=errors,
    )
    logger.info(
        "job load: %d submitted, %d succeeded, %d rejected, %d errors in %.2fs",
        config.jobs,
        report.succeeded,
        rejected,
        errors,
        elapsed,
    )
    return report
