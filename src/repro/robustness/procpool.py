"""Process-pool execution of gauntlet cells over shared-memory models.

The thread-mode gauntlet is GIL-bound wherever an attack's heavy stage is
Python-level work (GPTQ requantization, adaptive-oracle scoring), so on
multi-core boxes ``mode="process"`` farms cells out to real processes.  The
memory model:

* **Shared, read-only, published once** — every subject model is flattened
  into one :class:`~repro.engine.shm.SharedArena` block; each worker
  re-materializes zero-copy read-only views at initialization.  The
  per-worker marginal footprint is therefore O(attacked model), not
  O(subject + attacked).
* **Pickled once per worker** — the small context (attack specs, evaluation
  harnesses, the owner keys' few-KB verification tickets, thresholds, the
  grid seed) rides in a :class:`WorkerPayload` through the pool initializer.
* **Pickled per cell** — only a :class:`CellTask` (four scalars) goes out
  and a :class:`CellOutcome` (verdicts + quality numbers) comes back.

The task/outcome protocol is deliberately transport-agnostic — a task is
pure coordinates and an outcome is pure evidence, with every array-sized
object resident on the worker side — so the same cell executor can later be
backed by remote hosts instead of local processes.

Determinism: a worker derives each cell's RNG from ``(seed, coordinates)``
exactly as the in-process modes do, verification matches the parent's
tickets verbatim, and ticket derivation itself is a pure function of the
key — so decision digests are bit-identical to serial and thread execution
at any worker count and under any start method.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.engine import FleetVerificationSession, WatermarkEngine
from repro.engine.reports import PairVerification
from repro.engine.shm import (
    ArenaHandle,
    ArenaView,
    SharedArena,
    SharedModelHandle,
    share_model,
)
from repro.engine.ticket import VerificationTicket
from repro.eval.harness import EvaluationHarness, QualityReport
from repro.obs.trace import SpanRecord, TraceCollector, span, tracing
from repro.quant.base import QuantizedModel
from repro.robustness.attacks import AttackSpec
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng

__all__ = [
    "START_METHODS",
    "CellTask",
    "CellOutcome",
    "WorkerPayload",
    "ProcessCellExecutor",
    "resolve_start_method",
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
class CellTask:
    """Coordinates of one grid cell — all a worker needs beyond its payload.

    Four scalars; everything array-sized is already resident in the worker.
    The id derivations must stay in lockstep with
    ``repro.robustness.gauntlet._Cell`` (the in-process modes) — they are the
    suspect ids the verification evidence is keyed by.
    """

    index: int
    model_id: str
    attack_name: str
    strength: float

    @property
    def cell_id(self) -> str:
        return f"{self.model_id}/{self.attack_name}@{self.strength:g}"

    @property
    def attacker_key_id(self) -> str:
        return f"{self.cell_id}#attacker"


@dataclass
class CellOutcome:
    """One executed cell's evidence, shipped back to the parent.

    Mirrors exactly what the streaming mode's ``run_cell`` closure produces,
    so the parent assembles identical
    :class:`~repro.robustness.report.GauntletCellResult` rows from it.
    """

    index: int
    owner: PairVerification
    co: Dict[str, PairVerification]
    attacker: Optional[PairVerification]
    quality: Optional[QualityReport]
    attack_seconds: float
    verify_seconds: float
    info: Dict[str, object]
    #: Telemetry payload: the executing worker's pid and (tracing only) the
    #: spans recorded inside the worker, for the parent collector to merge.
    #: Informational — never flows into the cell's decision fields.
    worker_pid: int = 0
    spans: List[SpanRecord] = field(default_factory=list)


@dataclass(frozen=True)
class WorkerPayload:
    """Per-worker resident context, delivered through the pool initializer.

    ``arena``/``models`` are shared-memory handles (model arrays are never
    pickled); the rest is small and rides the pickle: the parent's
    verification tickets, attack specs, optional per-subject harnesses,
    co-owner key-id wiring, decision thresholds and the grid seed.
    """

    arena: ArenaHandle
    models: Mapping[str, SharedModelHandle]
    tickets: Mapping[str, VerificationTicket]
    co_key_ids: Mapping[str, Tuple[Tuple[str, str], ...]]
    attacks: Mapping[str, AttackSpec]
    harnesses: Mapping[str, EvaluationHarness]
    evaluate_quality: bool
    seed: int
    wer_threshold: float
    max_false_claim_probability: Optional[float]
    #: Record spans inside workers and ship them back on each outcome.
    #: Pure telemetry: the attack/verify path is identical either way.
    trace: bool = False


@dataclass
class _WorkerState:
    """Module-global state of one worker process."""

    models: Dict[str, QuantizedModel]
    session: FleetVerificationSession
    payload: WorkerPayload
    view: ArenaView
    #: Worker-local span sink when the payload enables tracing, else ``None``.
    collector: Optional[TraceCollector] = None


_WORKER: Optional[_WorkerState] = None


def _init_worker(payload: WorkerPayload) -> None:
    """Pool initializer: attach the arena and build this worker's substrate.

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
    _WORKER = _WorkerState(
        models=models, session=session, payload=payload, view=view, collector=collector
    )


def _run_cell(task: CellTask) -> CellOutcome:
    """Execute one cell in a worker: attack → quality → verify → release."""
    state = _WORKER
    if state is None:
        raise RuntimeError("worker not initialized (pool built without _init_worker)")
    payload = state.payload
    subject = state.models[task.model_id]
    spec = payload.attacks[task.attack_name]
    # Identical derivation to Gauntlet._cell_rng — the executor must never
    # influence the attack randomness.
    rng = new_rng(
        payload.seed, "gauntlet", task.model_id, task.attack_name, f"{task.strength:g}"
    )
    with tracing(state.collector) if state.collector is not None else contextlib.nullcontext():
        with span(
            "gauntlet.cell",
            cell=task.cell_id,
            attack=task.attack_name,
            strength=task.strength,
        ):
            start = time.perf_counter()
            outcome = spec.apply(subject, task.strength, rng)
            quality = (
                payload.harnesses[task.model_id].evaluate(outcome.model)
                if payload.evaluate_quality
                else None
            )
            attack_seconds = time.perf_counter() - start
            verify_start = time.perf_counter()
            owner = state.session.verify(task.cell_id, outcome.model, task.model_id)
            co = {
                owner_id: state.session.verify(task.cell_id, outcome.model, key_id)
                for owner_id, key_id in payload.co_key_ids.get(task.model_id, ())
            }
            attacker = None
            if outcome.attacker_key is not None:
                attacker = state.session.verify_once(
                    task.cell_id, outcome.model, outcome.attacker_key,
                    task.attacker_key_id,
                )
            verify_seconds = time.perf_counter() - verify_start
    return CellOutcome(
        index=task.index,
        owner=owner,
        co=co,
        attacker=attacker,
        quality=quality,
        attack_seconds=attack_seconds,
        verify_seconds=verify_seconds,
        info=dict(outcome.info),
        worker_pid=os.getpid(),
        # Drained per cell so every span (including the worker's one-time
        # shm.restore) rides back exactly once.
        spans=state.collector.drain() if state.collector is not None else [],
    )


class ProcessCellExecutor:
    """Owns one gauntlet run's arena + process pool, as a context manager.

    Construction publishes the models into shared memory (the only copy the
    whole run pays); entering spawns the pool; :meth:`run` maps
    tasks in submission order.  Exiting shuts the pool down and closes the
    arena in a ``finally`` — combined with the arena's atexit sweep, the
    shared block is unlinked exactly once even when a worker dies mid-cell
    (the ``BrokenProcessPool`` propagates through ``__exit__``).
    """

    def __init__(
        self,
        models: Mapping[str, QuantizedModel],
        tickets: Mapping[str, VerificationTicket],
        co_key_ids: Mapping[str, Tuple[Tuple[str, str], ...]],
        attacks: Mapping[str, AttackSpec],
        harnesses: Mapping[str, EvaluationHarness],
        evaluate_quality: bool,
        seed: int,
        wer_threshold: float,
        max_false_claim_probability: Optional[float],
        workers: int,
        start_method: Optional[str] = None,
        trace: bool = False,
    ) -> None:
        self._workers = max(1, int(workers))
        self.start_method = resolve_start_method(start_method)
        self._context = multiprocessing.get_context(self.start_method)
        self._arena = SharedArena()
        self._pool: Optional[ProcessPoolExecutor] = None
        try:
            with span("shm.publish", models=len(models)):
                model_handles = {
                    model_id: share_model(self._arena, model, f"model/{model_id}")
                    for model_id, model in models.items()
                }
                arena_handle = self._arena.seal()
        except BaseException:
            self._arena.close()
            raise
        self._payload = WorkerPayload(
            arena=arena_handle,
            models=model_handles,
            tickets=dict(tickets),
            co_key_ids=dict(co_key_ids),
            attacks=dict(attacks),
            harnesses=dict(harnesses),
            evaluate_quality=evaluate_quality,
            seed=seed,
            wer_threshold=wer_threshold,
            max_false_claim_probability=max_false_claim_probability,
            trace=trace,
        )

    def __enter__(self) -> "ProcessCellExecutor":
        self._pool = ProcessPoolExecutor(
            max_workers=self._workers,
            mp_context=self._context,
            initializer=_init_worker,
            initargs=(self._payload,),
        )
        return self

    def run(
        self,
        tasks: Sequence[CellTask],
        on_complete: Optional[Callable[[CellOutcome], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> List[CellOutcome]:
        """Execute ``tasks`` on the pool; outcomes come back in task order.

        ``on_complete`` fires in the parent as each cell finishes (completion
        order, not task order) — the hook live progress rendering hangs off.
        The returned list is always task-ordered regardless: each outcome
        carries its grid ``index``, so the ordering never depends on which
        worker finished first.

        ``should_stop`` is the cooperative-cancellation probe: checked after
        every completion batch; when it returns True, not-yet-started cells
        are cancelled, in-flight cells are drained to completion (a worker
        process cannot be interrupted mid-cell), and the partial outcome
        list is returned in task order.
        """
        if self._pool is None:
            raise RuntimeError("executor not entered; use it as a context manager")
        if on_complete is None and should_stop is None:
            return list(self._pool.map(_run_cell, tasks))
        futures = {self._pool.submit(_run_cell, task): task for task in tasks}
        slots: List[Optional[CellOutcome]] = [None] * len(tasks)
        offset = {task.index: position for position, task in enumerate(tasks)}
        pending = set(futures)
        while pending:
            if should_stop is not None and should_stop():
                # Unstarted cells are dropped; started ones finish below so
                # their results (and checkpoint appends) are not lost.
                still_running = {f for f in pending if not f.cancel()}
                for future in still_running:
                    outcome = future.result()
                    slots[offset[outcome.index]] = outcome
                    if on_complete is not None:
                        on_complete(outcome)
                break
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                outcome = future.result()
                slots[offset[outcome.index]] = outcome
                if on_complete is not None:
                    on_complete(outcome)
        return [outcome for outcome in slots if outcome is not None]

    def __exit__(self, *exc_info) -> None:
        try:
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None
        finally:
            self._arena.close()
