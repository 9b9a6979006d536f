"""Process-pool execution of gauntlet cells over shared-memory models.

``executor="process"`` runs cells in worker processes, so attack stages
that are Python-level work (GPTQ requantization, adaptive-oracle scoring)
escape the GIL.  The cells themselves run through the same
:func:`~repro.robustness.cell.run_cell` and the same pool loop
(:meth:`~repro.robustness.gauntlet.Gauntlet.run`) as the thread executor;
this module holds only what is process-specific:

* **Shared, read-only, published once** — every subject model is flattened
  into one :class:`~repro.engine.shm.SharedArena` block; each worker
  re-materializes zero-copy read-only views at initialization.  The
  per-worker marginal footprint is therefore O(attacked model), not
  O(subject + attacked).
* **Pickled once per worker** — the rest of the cell context (attack specs,
  evaluation harnesses, the keys' few-KB verification tickets, thresholds,
  the grid seed) rides in a :class:`WorkerPayload` through the pool
  initializer, which rebuilds a :class:`~repro.robustness.cell.CellContext`.
* **Pickled per cell** — only a :class:`~repro.robustness.cell.GridCell`
  (three scalars) goes out and a :class:`~repro.robustness.cell.CellOutcome`
  (the cell's report row) comes back.
* **Cleanup** — the arena is unlinked exactly once, even when a worker dies
  mid-cell.

Determinism: workers derive each cell's RNG from ``(seed, coordinates)``
like every executor, and verification matches the parent's tickets
verbatim — so decision digests are bit-identical to serial and thread
execution at any worker count and under any start method.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.engine.engine import WatermarkEngine
from repro.engine.shm import ArenaHandle, ArenaView, SharedArena, SharedModelHandle, share_model
from repro.engine.ticket import VerificationTicket
from repro.eval.harness import EvaluationHarness
from repro.obs.trace import TraceCollector, span, tracing
from repro.robustness.attacks import AttackSpec
from repro.robustness.cell import CellContext, CellOutcome, GridCell, run_cell
from repro.utils.logging import get_logger

__all__ = [
    "START_METHODS",
    "WorkerPayload",
    "ProcessCellExecutor",
    "resolve_start_method",
    "run_cell_in_worker",
]

logger = get_logger("robustness.procpool")

#: Start methods the process executor accepts.
START_METHODS = ("fork", "spawn", "forkserver")


def resolve_start_method(requested: Optional[str] = None) -> str:
    """The multiprocessing start method to use.

    Explicit ``requested`` wins, then the ``REPRO_GAUNTLET_START_METHOD``
    environment variable, then the platform default (``fork`` on Linux,
    ``spawn`` on macOS/Windows).  Results are identical either way — the
    choice only trades worker startup cost (``spawn`` re-imports the world)
    against ``fork``'s inherited-state hazards (which
    ``repro.engine.engine._reset_engines_after_fork`` repairs).
    """
    if requested is not None:
        if requested not in START_METHODS:
            raise ValueError(
                f"start method must be one of {START_METHODS}, got {requested!r}"
            )
        return requested
    env = os.environ.get("REPRO_GAUNTLET_START_METHOD")
    if env:
        if env in START_METHODS:
            return env
        logger.warning("ignoring unknown REPRO_GAUNTLET_START_METHOD=%r", env)
    return multiprocessing.get_start_method()


@dataclass(frozen=True)
class WorkerPayload:
    """Per-worker resident context, delivered through the pool initializer.

    ``arena``/``models`` are shared-memory handles (model arrays are never
    pickled); the rest is small and rides the pickle: the parent's
    verification tickets and decision thresholds, plus the picklable part
    of the parent's :class:`~repro.robustness.cell.CellContext`.
    """

    arena: ArenaHandle
    models: Mapping[str, SharedModelHandle]
    tickets: Mapping[str, VerificationTicket]
    wer_threshold: float
    max_false_claim_probability: Optional[float]
    co_key_ids: Mapping[str, Tuple[Tuple[str, str], ...]]
    attacks: Mapping[str, AttackSpec]
    harnesses: Mapping[str, EvaluationHarness]
    evaluate_quality: bool
    seed: int
    #: Record spans inside workers and ship them back on each outcome.
    #: Pure telemetry: the attack/verify path is identical either way.
    trace: bool = False


@dataclass
class _WorkerState:
    """Module-global state of one worker process."""

    context: CellContext
    #: Keeps the shared block mapped while the context's models view it.
    view: ArenaView
    #: Worker-local span sink when the payload enables tracing, else ``None``.
    collector: Optional[TraceCollector] = None


_WORKER: Optional[_WorkerState] = None


def _init_worker(payload: WorkerPayload) -> None:
    """Pool initializer: attach the arena and rebuild the cell context.

    Each worker gets a private :class:`WatermarkEngine` (and with it a
    private plan cache) — per-worker cache hygiene instead of cross-process
    cache coherence.  The verification session holds the parent's tickets,
    so no worker repeats the scoring pass for registered keys; only per-cell
    attacker keys (re-watermarking cells) derive tickets locally, which is
    deterministic and therefore digest-safe.
    """
    global _WORKER
    collector = TraceCollector() if payload.trace else None
    with tracing(collector) if collector is not None else contextlib.nullcontext():
        with span("shm.restore", models=len(payload.models)):
            view = payload.arena.attach()
            models = {
                model_id: handle.restore(view)
                for model_id, handle in payload.models.items()
            }
        session = WatermarkEngine().verification_session(
            keys=payload.tickets,
            wer_threshold=payload.wer_threshold,
            max_false_claim_probability=payload.max_false_claim_probability,
        )
    context = CellContext(
        models=models,
        harnesses=payload.harnesses,
        attacks=payload.attacks,
        co_key_ids=payload.co_key_ids,
        evaluate_quality=payload.evaluate_quality,
        seed=payload.seed,
        session=session,
    )
    _WORKER = _WorkerState(context=context, view=view, collector=collector)


def run_cell_in_worker(cell: GridCell) -> CellOutcome:
    """Pool task: :func:`~repro.robustness.cell.run_cell` on the worker's context."""
    state = _WORKER
    if state is None:
        raise RuntimeError("worker not initialized (pool built without _init_worker)")
    with tracing(state.collector) if state.collector is not None else contextlib.nullcontext():
        outcome = run_cell(state.context, cell)
    outcome.worker_pid = os.getpid()
    if state.collector is not None:
        # Drained per cell so every span (including the worker's one-time
        # shm.restore) rides back exactly once.
        outcome.spans = state.collector.drain()
    return outcome


class ProcessCellExecutor:
    """Owns one gauntlet run's arena + process pool, as a context manager.

    Construction publishes the context's models into shared memory (the
    only copy the whole run pays) and derives every session key's ticket
    once in the parent; entering spawns :attr:`pool`, whose workers run
    :func:`run_cell_in_worker`.  Exiting shuts the pool down and closes the
    arena in a ``finally`` — combined with the arena's atexit sweep, the
    shared block is unlinked exactly once even when a worker dies mid-cell
    (the ``BrokenProcessPool`` propagates through ``__exit__``).
    """

    def __init__(
        self,
        context: CellContext,
        workers: int,
        start_method: Optional[str] = None,
        trace: bool = False,
    ) -> None:
        self._workers = max(1, int(workers))
        self.start_method = resolve_start_method(start_method)
        self._context = multiprocessing.get_context(self.start_method)
        session = context.session
        tickets = {key_id: session.ticket(key_id) for key_id in session.key_ids()}
        self._arena = SharedArena()
        self.pool: Optional[ProcessPoolExecutor] = None
        try:
            with span("shm.publish", models=len(context.models)):
                model_handles = {
                    model_id: share_model(self._arena, model, f"model/{model_id}")
                    for model_id, model in context.models.items()
                }
                arena_handle = self._arena.seal()
        except BaseException:
            self._arena.close()
            raise
        self._payload = WorkerPayload(
            arena=arena_handle,
            models=model_handles,
            tickets=tickets,
            wer_threshold=session.wer_threshold,
            max_false_claim_probability=session.max_false_claim_probability,
            co_key_ids=dict(context.co_key_ids),
            attacks=dict(context.attacks),
            harnesses=dict(context.harnesses),
            evaluate_quality=context.evaluate_quality,
            seed=context.seed,
            trace=trace,
        )

    def __enter__(self) -> "ProcessCellExecutor":
        self.pool = ProcessPoolExecutor(
            max_workers=self._workers,
            mp_context=self._context,
            initializer=_init_worker,
            initargs=(self._payload,),
        )
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            if self.pool is not None:
                self.pool.shutdown(wait=True, cancel_futures=True)
                self.pool = None
        finally:
            self._arena.close()
