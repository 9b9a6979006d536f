"""Background job manager for long-running robustness sweeps.

Every server-side robustness sweep is a job: ``POST /v1/jobs/robustness``
answers *202* with a server-assigned job id immediately, the sweep runs on
a bounded worker pool, and the client polls status, streams per-cell
verdicts, or blocks on the final report at its leisure (the client's
``robustness()`` is exactly that submit-and-wait).

:class:`JobManager` owns the pool and the job table; :class:`Job` is one
sweep's lifecycle:

* a state machine ``pending → running → succeeded | failed | cancelled``
  with monotonic transitions (a terminal state never changes),
* an append-only in-memory event log (one record per completed cell plus a
  terminal record) that the server's chunked NDJSON ``/events`` stream
  tails while the sweep is still running,
* a cooperative cancel flag the gauntlet probes between cells — cancelled
  sweeps keep every finished cell in their on-disk checkpoint, so
  resubmitting the same grid resumes instead of restarting.

Durability lives one layer down, in
:class:`~repro.robustness.checkpoint.CellCheckpoint`: the manager itself is
in-memory (a restarted server starts with an empty job table), but because
the server content-addresses checkpoint files by grid fingerprint,
resubmitting a killed job's request replays its completed cells from disk
and the resumed decision digest is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, Sample
from repro.utils.logging import get_logger

__all__ = ["Job", "JobLimitError", "JobManager", "JOB_STATES", "TERMINAL_STATES"]

logger = get_logger("service.jobs")

#: Every state a job can be in, in lifecycle order.
JOB_STATES = ("pending", "running", "succeeded", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = frozenset({"succeeded", "failed", "cancelled"})


class JobLimitError(RuntimeError):
    """The manager's bounded pool cannot accept another job right now."""


class Job:
    """One background sweep: state machine + event log + cancel flag.

    All mutation goes through the manager's runner; readers (status
    handlers, event streams) take consistent snapshots under the job's own
    condition variable.  The event log is append-only, so a streaming
    reader can tail it by index without ever missing or re-reading a
    record.
    """

    def __init__(self, job_id: str, kind: str, total_cells: int, meta: Dict[str, object]) -> None:
        self.job_id = job_id
        self.kind = kind
        self.total_cells = int(total_cells)
        self.meta = dict(meta)
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.error: Optional[str] = None
        #: The final result (a RobustnessReport for robustness jobs); set
        #: exactly once, together with the ``succeeded`` transition.
        self.result: Optional[object] = None
        self._state = "pending"
        self._completed_cells = 0
        self._replayed_cells = 0
        self._events: List[Dict[str, object]] = []
        self._cond = threading.Condition(threading.Lock())
        self._cancel = threading.Event()

    # -- state ---------------------------------------------------------
    @property
    def state(self) -> str:
        with self._cond:
            return self._state

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def _transition(self, state: str) -> bool:
        """Move to ``state`` unless already terminal; returns whether moved."""
        with self._cond:
            if self._state in TERMINAL_STATES:
                return False
            self._state = state
            if state == "running":
                self.started_at = time.time()
            if state in TERMINAL_STATES:
                self.finished_at = time.time()
            self._cond.notify_all()
            return True

    # -- cancellation --------------------------------------------------
    def request_cancel(self) -> None:
        """Raise the cooperative cancel flag (the sweep probes it between cells)."""
        self._cancel.set()

    def cancel_requested(self) -> bool:
        """The gauntlet's ``should_stop`` probe."""
        return self._cancel.is_set()

    # -- progress + events ---------------------------------------------
    def record_cell(self, record: Dict[str, object], replayed: bool) -> None:
        """Append one completed cell to the event log (any worker thread)."""
        with self._cond:
            self._completed_cells += 1
            if replayed:
                self._replayed_cells += 1
            event = {"kind": "cell", "seq": len(self._events), "replayed": replayed}
            event.update(record)
            self._events.append(event)
            self._cond.notify_all()

    def _record_end(self) -> None:
        with self._cond:
            self._events.append(
                {
                    "kind": "end",
                    "seq": len(self._events),
                    "job_id": self.job_id,
                    "state": self._state,
                    "completed_cells": self._completed_cells,
                    "total_cells": self.total_cells,
                    "error": self.error,
                }
            )
            self._cond.notify_all()

    def events_since(self, start: int) -> Tuple[List[Dict[str, object]], bool]:
        """Snapshot of events at index >= ``start`` plus a terminal flag.

        The flag reflects the same locked snapshot as the slice, so once it
        is True the slice is guaranteed to already contain the ``end``
        record — a tailing reader that drains and sees True can stop
        without racing the final event.
        """
        with self._cond:
            return list(self._events[start:]), self._state in TERMINAL_STATES

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state; True when it did."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._state not in TERMINAL_STATES:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    # -- views ---------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """JSON-able snapshot for ``GET /v1/jobs/{id}``."""
        with self._cond:
            completed = self._completed_cells
            replayed = self._replayed_cells
            state = self._state
            events = len(self._events)
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": state,
            "total_cells": self.total_cells,
            "completed_cells": completed,
            "replayed_cells": replayed,
            "num_events": events,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            **self.meta,
        }


class JobManager:
    """Bounded pool of background jobs plus their (LRU-retained) records.

    ``max_workers`` sweeps run concurrently; at most ``max_active`` jobs may
    be pending-or-running at once (the admission bound — beyond it
    :meth:`submit` raises :class:`JobLimitError`, which the server maps to
    HTTP 429).  Terminal jobs stay queryable until ``max_retained`` newer
    terminal jobs have displaced them.
    """

    def __init__(
        self,
        max_workers: int = 2,
        max_active: int = 8,
        max_retained: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if max_active < 1:
            raise ValueError("max_active must be >= 1")
        if max_retained < 1:
            raise ValueError("max_retained must be >= 1")
        self.max_workers = int(max_workers)
        self.max_active = int(max_active)
        self.max_retained = int(max_retained)
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="wm-job"
        )
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._draining = False
        self._finished: Dict[str, int] = {state: 0 for state in TERMINAL_STATES}
        self._evicted = 0
        if metrics is not None:
            metrics.register_collector(self._collect_samples)

    # -- metrics -------------------------------------------------------
    def _collect_samples(self) -> List[Sample]:
        with self._lock:
            active = sum(
                1 for job in self._jobs.values() if job.state not in TERMINAL_STATES
            )
            running = sum(1 for job in self._jobs.values() if job.state == "running")
            finished = dict(self._finished)
            evicted = self._evicted
        samples = [
            Sample("repro_jobs_active", active, help="jobs pending or running"),
            Sample("repro_jobs_running", running, help="jobs currently executing"),
            Sample(
                "repro_jobs_evicted_total",
                evicted,
                kind="counter",
                help="terminal job records displaced by the retention bound",
            ),
        ]
        for state in sorted(finished):
            samples.append(
                Sample(
                    f"repro_jobs_{state}_total",
                    finished[state],
                    kind="counter",
                    help=f"jobs that finished in state {state}",
                )
            )
        return samples

    # -- lifecycle -----------------------------------------------------
    @property
    def draining(self) -> bool:
        """True once :meth:`drain` was called — no new jobs are admitted."""
        return self._draining

    def drain(self) -> None:
        """Stop admitting, cancel whatever is active (without waiting)."""
        self._draining = True
        with self._lock:
            active = [
                job for job in self._jobs.values() if job.state not in TERMINAL_STATES
            ]
        for job in active:
            job.request_cancel()

    def close(self, wait: bool = True) -> None:
        """Drain and shut the worker pool down (idempotent)."""
        self.drain()
        self._executor.shutdown(wait=wait)

    # -- submission ----------------------------------------------------
    def submit(
        self,
        run_fn: Callable[[Job], object],
        total_cells: int,
        kind: str = "robustness",
        meta: Optional[Dict[str, object]] = None,
    ) -> Job:
        """Admit one job and hand it to the pool.

        ``run_fn(job)`` executes on a worker thread and returns the job's
        result; it is expected to probe ``job.cancel_requested`` and raise
        :class:`~repro.robustness.gauntlet.GauntletCancelled` when asked to
        stop.  Raises :class:`JobLimitError` when the active bound is hit
        or the manager is draining.
        """
        if self._draining:
            raise JobLimitError("job manager is draining, not accepting new jobs")
        with self._lock:
            active = sum(
                1 for job in self._jobs.values() if job.state not in TERMINAL_STATES
            )
            if active >= self.max_active:
                raise JobLimitError(
                    f"{active} jobs already active (bound {self.max_active}), retry later"
                )
            job = Job(f"job-{next(self._ids)}", kind, total_cells, meta or {})
            self._jobs[job.job_id] = job
            self._evict_locked()
        self._executor.submit(self._run, job, run_fn)
        return job

    def _run(self, job: Job, run_fn: Callable[[Job], object]) -> None:
        # Lazy import: keeps manager importable without dragging the full
        # robustness stack in at service-package import time.
        from repro.robustness.gauntlet import GauntletCancelled

        if job.cancel_requested() or not job._transition("running"):
            # Cancelled while still queued: never ran a cell.
            self._finish(job, "cancelled")
            return
        try:
            result = run_fn(job)
        except GauntletCancelled as exc:
            logger.info("job %s cancelled: %s", job.job_id, exc)
            self._finish(job, "cancelled")
        except Exception as exc:  # job bug or bad grid — record, keep serving
            logger.exception("job %s failed", job.job_id)
            job.error = f"{type(exc).__name__}: {exc}"
            self._finish(job, "failed")
        else:
            job.result = result
            self._finish(job, "succeeded")

    def _finish(self, job: Job, state: str) -> None:
        if job._transition(state):
            with self._lock:
                self._finished[state] += 1
        job._record_end()

    def _evict_locked(self) -> None:
        terminal = [
            job_id for job_id, job in self._jobs.items() if job.state in TERMINAL_STATES
        ]
        excess = len(terminal) - self.max_retained
        for job_id in terminal[:excess]:
            del self._jobs[job_id]
            self._evicted += 1

    # -- queries -------------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cooperative cancellation; returns the job (or None)."""
        job = self.get(job_id)
        if job is not None:
            job.request_cancel()
        return job

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def stats(self) -> Dict[str, object]:
        """JSON-able snapshot for ``/stats``."""
        with self._lock:
            states: Dict[str, int] = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                states[job.state] += 1
            return {
                "max_workers": self.max_workers,
                "max_active": self.max_active,
                "draining": self._draining,
                "retained": len(self._jobs),
                "evicted": self._evicted,
                "states": states,
                "finished": dict(self._finished),
            }
