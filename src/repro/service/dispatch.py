"""Micro-batching dispatcher and admission control for the verification server.

Two mechanisms sit between the HTTP handlers and the
:class:`~repro.engine.engine.WatermarkEngine`:

* :class:`TokenBucket` — classic token-bucket admission control.  Requests
  that arrive faster than the configured sustained rate (plus burst) are
  rejected up front with HTTP 429 instead of growing the queue without bound.
* :class:`MicroBatchDispatcher` — a bounded queue plus a single consumer
  task.  Concurrent ``/verify`` requests are coalesced into one
  :meth:`~repro.engine.engine.WatermarkEngine.verify_fleet` call per batch:
  the batch's suspects and keys are deduplicated, and the engine is handed
  the exact ``(suspect, key)`` pairs the batched requests asked for.  Keys
  arrive as the registry's resident
  :class:`~repro.engine.ticket.VerificationTicket`\\ s, so each pair is a
  gather-and-compare; batching amortizes the executor hand-off and lets the
  queue absorb bursts while a batch runs.

Verdicts are bit-identical to unbatched ``verify_fleet`` calls because each
pair's evidence (match counts, WER, Equation 8 probability) is computed
independently; batching only changes *when* work happens, never its result.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.engine.engine import WatermarkEngine
from repro.engine.reports import (
    DEFAULT_MAX_FALSE_CLAIM_PROBABILITY,
    DEFAULT_OWNERSHIP_THRESHOLD,
    PairVerification,
)
from repro.engine.ticket import VerificationTicket
from repro.obs.metrics import MetricsRegistry
from repro.quant.base import QuantizedModel
from repro.utils.logging import get_logger

__all__ = [
    "TokenBucket",
    "OwnerRateLimiter",
    "VerifyJob",
    "VerifyOutcome",
    "MicroBatchDispatcher",
    "QueueFullError",
]

logger = get_logger("service.dispatch")


class QueueFullError(RuntimeError):
    """Raised by :meth:`MicroBatchDispatcher.submit` when the queue is full."""


class TokenBucket:
    """Thread-safe token bucket.

    Parameters
    ----------
    rate:
        Sustained tokens (requests) per second; ``None`` or ``<= 0`` disables
        admission control entirely.
    burst:
        Bucket capacity — the instantaneous burst allowed on top of the
        sustained rate.  Defaults to ``rate`` (one second's worth).  When
        admission control is enabled the capacity is clamped to at least one
        token, so a fractional rate (e.g. one request per two seconds) still
        admits single requests instead of rejecting everything forever.
    """

    def __init__(self, rate: Optional[float] = None, burst: Optional[float] = None) -> None:
        self.rate = float(rate) if rate and rate > 0 else None
        capacity = float(burst) if burst and burst > 0 else (self.rate or 0.0)
        self.capacity = max(capacity, 1.0) if self.rate is not None else 0.0
        self._tokens = self.capacity
        self._updated = time.monotonic()
        self._lock = threading.Lock()
        self.rejected = 0

    @property
    def enabled(self) -> bool:
        """Whether admission control is active."""
        return self.rate is not None

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; never blocks."""
        if self.rate is None:
            return True
        with self._lock:
            now = time.monotonic()
            self._tokens = min(self.capacity, self._tokens + (now - self._updated) * self.rate)
            self._updated = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            self.rejected += 1
            return False

    def refund(self, tokens: float = 1.0) -> None:
        """Return previously acquired tokens (used by all-or-nothing callers).

        Capped at capacity, under the bucket's own lock — callers must never
        reach into :attr:`_tokens` directly.
        """
        with self._lock:
            self._tokens = min(self.capacity, self._tokens + tokens)

    def stats(self) -> Dict[str, object]:
        """JSON-able snapshot for ``/stats``."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "rate_per_sec": self.rate,
                "burst": self.capacity if self.enabled else None,
                "tokens": self._tokens if self.enabled else None,
                "rejected": self.rejected,
            }


class OwnerRateLimiter:
    """Per-owner token buckets, keyed by the registry's owner identity.

    A single global bucket lets one aggressive owner starve everyone — the
    multi-tenant serving story needs *fairness per owner*, not one shared
    faucet.  Each distinct owner gets a private :class:`TokenBucket` at the
    configured rate, created lazily on the owner's first request; requests
    touching several owners' keys must be admitted by **every** owner's
    bucket (tokens are only committed once all buckets admit, so a mixed
    rejection never burns the admitted owners' budget).

    Requests that cannot be attributed to a registered owner (e.g. keys
    registered with an empty owner string) are pooled under one anonymous
    bucket at the same rate.

    Parameters
    ----------
    rate, burst:
        Forwarded to each per-owner :class:`TokenBucket`; a ``None``/zero
        rate disables per-owner admission entirely.
    max_owners:
        Bound on the tracked-bucket map.  When exceeded, the least recently
        *used* owner's bucket is dropped (it re-creates full on the owner's
        next request) — an attacker churning owner identities cannot grow
        server memory without bound.
    """

    #: Bucket key for requests with no attributable registered owner.
    ANONYMOUS = "<anonymous>"

    def __init__(
        self,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        max_owners: int = 4096,
    ) -> None:
        if max_owners < 1:
            raise ValueError("max_owners must be >= 1")
        self.rate = float(rate) if rate and rate > 0 else None
        self.burst = burst
        self.max_owners = int(max_owners)
        self._lock = threading.Lock()
        self._buckets: "Dict[str, TokenBucket]" = {}
        self._order: List[str] = []  # LRU, least-recent first
        self.rejected = 0
        self.evicted_owners = 0

    @property
    def enabled(self) -> bool:
        """Whether per-owner admission control is active."""
        return self.rate is not None

    def _bucket(self, owner: str) -> TokenBucket:
        bucket = self._buckets.get(owner)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst)
            self._buckets[owner] = bucket
        else:
            self._order.remove(owner)
        self._order.append(owner)
        return bucket

    def _trim(self, in_use) -> None:
        """Evict least-recently-used buckets past ``max_owners``.

        Owners named by the in-flight request are never evicted — a request
        touching many owners must not orphan a bucket it is about to charge
        (the charge would land on an object no longer in the map, silently
        resetting that owner's rate state on its next request).
        """
        while len(self._buckets) > self.max_owners:
            evicted = next((o for o in self._order if o not in in_use), None)
            if evicted is None:
                break  # every tracked owner is in this request; let it ride
            self._order.remove(evicted)
            del self._buckets[evicted]
            self.evicted_owners += 1

    def try_acquire(self, owners) -> bool:
        """Admit one request charged to every owner in ``owners``.

        ``owners`` is an iterable of owner identities (deduplicated here;
        empty strings fold into the anonymous bucket).  All-or-nothing: the
        request is only charged when every bucket has a token.
        """
        if self.rate is None:
            return True
        labels = sorted({str(o) if o else self.ANONYMOUS for o in owners}) or [self.ANONYMOUS]
        with self._lock:
            buckets = [self._bucket(label) for label in labels]
            self._trim(in_use=set(labels))
            # All-or-nothing charge: a rejection halfway through refunds the
            # already-charged owners, so mixed requests can't burn budget on
            # a 429.
            granted: List[TokenBucket] = []
            for bucket in buckets:
                if bucket.try_acquire():
                    granted.append(bucket)
                else:
                    for charged in granted:
                        charged.refund()
                    self.rejected += 1
                    return False
            return True

    def stats(self) -> Dict[str, object]:
        """JSON-able snapshot for ``/stats``."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "rate_per_sec": self.rate,
                "owners_tracked": len(self._buckets),
                "max_owners": self.max_owners,
                "evicted_owners": self.evicted_owners,
                "rejected": self.rejected,
                "rejected_by_owner": {
                    owner: bucket.rejected
                    for owner, bucket in self._buckets.items()
                    if bucket.rejected
                },
            }


@dataclass
class VerifyJob:
    """One enqueued verification request.

    ``suspect_id``/``key_ids`` name the work; the model and the keys'
    tickets ride along so the dispatcher never goes back to the stores (a key
    revoked after admission still completes — the admission-time view wins).
    """

    request_id: str
    suspect_id: str
    suspect: QuantizedModel
    keys: Dict[str, VerificationTicket]
    wer_threshold: float = DEFAULT_OWNERSHIP_THRESHOLD
    max_false_claim_probability: Optional[float] = DEFAULT_MAX_FALSE_CLAIM_PROBABILITY
    enqueued_at: float = field(default_factory=time.perf_counter)
    future: "asyncio.Future[VerifyOutcome]" = field(default=None, repr=False)


@dataclass
class VerifyOutcome:
    """What the dispatcher hands back for one job."""

    request_id: str
    suspect_id: str
    decisions: List[PairVerification]
    batch_id: int
    batch_size: int
    queue_seconds: float
    verify_seconds: float


class MicroBatchDispatcher:
    """Coalesces concurrent verification jobs into single fleet sweeps.

    Parameters
    ----------
    engine:
        The verification engine the coalesced sweeps run on.
    max_batch:
        Hard cap on jobs folded into one ``verify_fleet`` call.
    max_wait_ms:
        How long the dispatcher waits for followers after the first job of a
        batch arrives.  Zero still batches whatever is already queued (the
        natural backlog that builds while the previous batch executes).
    max_queue:
        Bound on the pending-job queue; beyond it :meth:`submit` raises
        :class:`QueueFullError` (surfaced as HTTP 503).
    metrics:
        Registry the dispatcher's counters and histograms live on.  The
        server passes its own so batch-size and queue-time distributions
        show up on ``GET /metrics``; a private registry is created when
        omitted so the instruments (and :meth:`stats`) work standalone.
    """

    def __init__(
        self,
        engine: WatermarkEngine,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        max_queue: int = 256,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_wait_s = max(0.0, float(max_wait_ms)) / 1000.0
        self.max_queue = int(max_queue)
        self._queue: "asyncio.Queue[Optional[VerifyJob]]" = asyncio.Queue(maxsize=max_queue)
        # One worker: batches execute strictly one at a time, which is what
        # lets the queue accumulate the next batch while the current one runs.
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="wm-dispatch")
        self._task: Optional[asyncio.Task] = None
        self._closed = False
        self._batch_ids = itertools.count(1)
        # Counters live on the metrics registry (thread-safe instruments);
        # the legacy ``/stats`` fields read back from them via properties.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._batches = self.metrics.counter(
            "repro_dispatch_batches_total", "Coalesced verification batches executed"
        )
        self._jobs = self.metrics.counter(
            "repro_dispatch_jobs_total", "Verification jobs dispatched"
        )
        self._pairs = self.metrics.counter(
            "repro_dispatch_pairs_verified_total", "(suspect, key) pairs verified"
        )
        self._batch_size = self.metrics.histogram(
            "repro_dispatch_batch_size",
            "Jobs coalesced per batch",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128),
        )
        self._queue_time = self.metrics.histogram(
            "repro_dispatch_queue_seconds",
            "Seconds a job waited in the queue before its batch ran",
        )
        self.jobs_in_batches = 0
        self.largest_batch = 0

    # Legacy counter names (pre-registry) — still the ``/stats`` vocabulary.
    @property
    def batches(self) -> int:
        return int(self._batches.value)

    @property
    def jobs_dispatched(self) -> int:
        return int(self._jobs.value)

    @property
    def pairs_verified(self) -> int:
        return int(self._pairs.value)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        """True once :meth:`stop` has begun — no new jobs are accepted."""
        return self._closed

    def start(self) -> None:
        """Start the consumer task on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Drain nothing, cancel the consumer, shut the executor down."""
        self._closed = True
        if self._task is not None:
            await self._queue.put(None)
            await self._task
            self._task = None
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def submit(self, job: VerifyJob) -> "asyncio.Future[VerifyOutcome]":
        """Enqueue a job; returns the future its outcome will resolve on."""
        if self._closed:
            raise RuntimeError("dispatcher is stopped")
        job.future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            raise QueueFullError(
                f"verification queue full ({self.max_queue} pending requests)"
            ) from None
        return job.future

    @property
    def depth(self) -> int:
        """Jobs currently waiting in the queue."""
        return self._queue.qsize()

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            if first is None:
                return
            batch = [first]
            deadline = loop.time() + self.max_wait_s
            while len(batch) < self.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    # Window elapsed — still sweep up anything already queued.
                    while len(batch) < self.max_batch and not self._queue.empty():
                        follower = self._queue.get_nowait()
                        if follower is None:
                            await self._execute(batch)
                            return
                        batch.append(follower)
                    break
                try:
                    follower = await asyncio.wait_for(self._queue.get(), remaining)
                except asyncio.TimeoutError:
                    continue
                if follower is None:
                    await self._execute(batch)
                    return
                batch.append(follower)
            await self._execute(batch)

    async def _execute(self, batch: List[VerifyJob]) -> None:
        """Run one coalesced batch and resolve every job's future."""
        loop = asyncio.get_running_loop()
        batch_id = next(self._batch_ids)
        self._batches.inc()
        self._batch_size.observe(len(batch))
        self.jobs_in_batches += len(batch)
        self.largest_batch = max(self.largest_batch, len(batch))
        # Group by thresholds: verify_fleet applies one threshold pair per
        # call, and correctness (bit-identical verdicts) comes first.
        groups: Dict[Tuple[float, Optional[float]], List[VerifyJob]] = {}
        for job in batch:
            groups.setdefault(
                (job.wer_threshold, job.max_false_claim_probability), []
            ).append(job)
        for (wer_threshold, max_pc), jobs in groups.items():
            # Suspects are deduplicated by *object identity*, never by the
            # caller-supplied id string: two jobs that reference the same
            # stored snapshot share one sweep entry, while two different
            # inline models claiming the same suspect_id stay separate
            # (otherwise one client would receive verdicts computed on the
            # other client's weights).  The internal alias is mapped back to
            # each job's own suspect_id in its outcome.
            alias_of: Dict[int, str] = {}
            suspects: Dict[str, QuantizedModel] = {}
            keys: Dict[str, VerificationTicket] = {}
            pairs: List[Tuple[str, str]] = []
            seen_pairs = set()
            job_alias: Dict[int, str] = {}
            for job in jobs:
                alias = alias_of.get(id(job.suspect))
                if alias is None:
                    alias = f"s{len(suspects)}"
                    alias_of[id(job.suspect)] = alias
                    suspects[alias] = job.suspect
                job_alias[id(job)] = alias
                for key_id, key in job.keys.items():
                    keys.setdefault(key_id, key)
                    pair = (alias, key_id)
                    if pair not in seen_pairs:
                        seen_pairs.add(pair)
                        pairs.append(pair)
            start = time.perf_counter()
            try:
                report = await loop.run_in_executor(
                    self._executor,
                    lambda: self.engine.verify_fleet(
                        suspects,
                        keys,
                        wer_threshold=wer_threshold,
                        max_false_claim_probability=max_pc,
                        pairs=pairs,
                    ),
                )
            except Exception as exc:  # engine-level failure fails the group
                logger.exception("batch %d group failed", batch_id)
                for job in jobs:
                    if not job.future.done():
                        job.future.set_exception(exc)
                continue
            verify_seconds = time.perf_counter() - start
            self._pairs.inc(report.num_pairs)
            by_pair = {(p.suspect_id, p.key_id): p for p in report.pairs}
            now = time.perf_counter()
            for job in jobs:
                decisions = [
                    replace(by_pair[(job_alias[id(job)], kid)], suspect_id=job.suspect_id)
                    for kid in job.keys
                ]
                queue_seconds = max(0.0, now - job.enqueued_at - verify_seconds)
                self._queue_time.observe(queue_seconds)
                if not job.future.done():
                    job.future.set_result(
                        VerifyOutcome(
                            request_id=job.request_id,
                            suspect_id=job.suspect_id,
                            decisions=decisions,
                            batch_id=batch_id,
                            batch_size=len(batch),
                            queue_seconds=queue_seconds,
                            verify_seconds=verify_seconds,
                        )
                    )
                self._jobs.inc()
        logger.debug("batch %d: %d jobs, %d groups", batch_id, len(batch), len(groups))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """JSON-able snapshot for ``/stats``."""
        return {
            "batches": self.batches,
            "jobs_dispatched": self.jobs_dispatched,
            "largest_batch": self.largest_batch,
            "mean_batch_size": (self.jobs_in_batches / self.batches) if self.batches else 0.0,
            "pairs_verified": self.pairs_verified,
            "queue_depth": self.depth,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_s * 1000.0,
            "max_queue": self.max_queue,
            "batch_size": self._batch_size.summary(),
            "queue_seconds": self._queue_time.summary(),
        }
