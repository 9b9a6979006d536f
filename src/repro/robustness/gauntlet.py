"""The robustness gauntlet: parallel (attack × strength × model) sweeps.

Before this subsystem existed, every robustness figure hand-rolled the same
loop — attack the watermarked model at one strength, evaluate quality,
re-extract the owner's watermark, repeat — strictly serially, paying one
location-plan reproduction per sweep point.  :class:`Gauntlet` turns that
into one reusable engine-backed pipeline:

1. **Grid construction** — subjects (a watermarked model + its owner key +
   optionally an evaluation harness) crossed with registered attack specs
   and their strength sweeps produce an ordered list of
   :class:`~repro.robustness.cell.GridCell`\\ s.
2. **One cell function** — :func:`~repro.robustness.cell.run_cell` attacks,
   measures quality, verifies the cell through a shared
   :class:`~repro.engine.engine.FleetVerificationSession` (owner, co-owners,
   then the attacker's one-shot key) and **drops the attacked model**.
   Each key's ticket is derived once per run, so peak memory is
   O(in-flight cells × model size), whatever the grid size.
3. **One pool loop** — ``executor="thread"`` (the default) and
   ``executor="process"`` submit every cell to a
   :class:`concurrent.futures.Executor` and consume outcomes in completion
   order (checkpoint append, ``on_cell`` hook, progress line); cancellation
   drops unstarted cells and drains in-flight ones.  The process pool runs
   over shared-memory models (:mod:`repro.robustness.procpool`), which
   sidesteps the GIL where attack stages are Python-heavy.
   ``executor="serial"`` runs the cells inline, in grid order, and
   ``executor="auto"`` picks serial or process per run (see
   :meth:`Gauntlet._resolve_executor`).

Each cell derives its own RNG from the gauntlet seed and the cell
coordinates, so results are bit-identical at any ``max_workers`` and under
every executor.  The result is a
:class:`~repro.robustness.report.RobustnessReport`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Executor, ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, TextIO, Tuple, Union

from repro.core.keys import WatermarkKey
from repro.engine.engine import WatermarkEngine, get_default_engine
from repro.engine.reports import (
    DEFAULT_MAX_FALSE_CLAIM_PROBABILITY,
    DEFAULT_OWNERSHIP_THRESHOLD,
)
from repro.eval.harness import EvaluationHarness
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressRenderer
from repro.obs.trace import get_collector, span
from repro.quant.base import QuantizedModel
from repro.robustness.attacks import AttackSpec
from repro.robustness.cell import CellContext, CellOutcome, GridCell, run_cell
from repro.robustness.checkpoint import CellCheckpoint, grid_fingerprint, merge_completed
from repro.robustness.procpool import START_METHODS, ProcessCellExecutor, run_cell_in_worker
from repro.robustness.report import GauntletCellResult, RobustnessReport
from repro.utils.logging import get_logger

__all__ = [
    "EXECUTORS",
    "GauntletCancelled",
    "GauntletConfig",
    "GauntletSubject",
    "Gauntlet",
    "run_gauntlet",
]

logger = get_logger("robustness.gauntlet")

StrengthMap = Mapping[str, Sequence[float]]

#: Cell executors of :meth:`Gauntlet.run`.  ``"auto"`` resolves to serial or
#: process execution per run (machine + grid heuristic).
EXECUTORS = ("serial", "thread", "process", "auto")

#: Per-cell completion hook: ``on_cell(result, replayed)`` fires once per
#: grid cell — replayed cells (checkpoint hits) first, in grid order, then
#: fresh cells in completion order.
CellHook = Callable[[GauntletCellResult, bool], None]


class GauntletCancelled(RuntimeError):
    """A gauntlet run stopped cooperatively between cells (``should_stop``).

    Cells completed before the stop are already checkpointed (when a
    checkpoint is attached), so a later run resumes from them instead of
    recomputing.
    """

    def __init__(self, completed: int, total: int) -> None:
        super().__init__(
            f"gauntlet cancelled after {completed}/{total} cells"
        )
        self.completed = completed
        self.total = total


@dataclass(frozen=True)
class GauntletConfig:
    """Tuning knobs of a :class:`Gauntlet`.

    Attributes
    ----------
    max_workers:
        Worker-pool width for cell execution.  ``None`` resolves to
        ``min(8, cpu_count)``.  Results are identical at every setting — the
        knob only trades wall clock (and peak memory: at most
        ``max_workers`` attacked models are alive at once).
    seed:
        Root seed of the per-cell attacker RNGs.
    wer_threshold, max_false_claim_probability:
        Ownership-decision thresholds forwarded to the verification stage.
    evaluate_quality:
        Measure perplexity / zero-shot accuracy per cell (needs subjects
        with a harness).  The verification server disables this — it holds
        keys and suspects, not evaluation corpora.
    executor:
        ``"serial"`` runs cells inline with one worker; ``"thread"``
        (default) runs them on a thread pool, inline when it resolves to one
        worker or fewer than two pending cells; ``"process"`` runs them in
        worker processes over shared-memory models (GIL-free attack
        stages); ``"auto"`` runs serially on single-core boxes or grids
        smaller than the worker pool, in processes otherwise.  Decisions are
        bit-identical under every executor — what actually ran is recorded
        as ``RobustnessReport.executor``.
    start_method:
        Multiprocessing start method of the process executor (``"fork"``,
        ``"spawn"`` or ``"forkserver"``); ``None`` defers to the
        ``REPRO_GAUNTLET_START_METHOD`` environment variable, then the
        platform default.  Ignored by the in-process executors.
    progress:
        Render a live stderr progress line (cells done/total, cells/sec,
        ETA, per-attack min-WER so far) while the grid executes.  Works
        under every executor; pure I/O — decisions are identical with it on
        or off.
    """

    max_workers: Optional[int] = None
    seed: int = 0
    wer_threshold: float = DEFAULT_OWNERSHIP_THRESHOLD
    max_false_claim_probability: Optional[float] = DEFAULT_MAX_FALSE_CLAIM_PROBABILITY
    evaluate_quality: bool = True
    executor: str = "thread"
    start_method: Optional[str] = None
    progress: bool = False

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1 (or None for auto)")
        if self.executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {self.executor!r}")
        if self.start_method is not None and self.start_method not in START_METHODS:
            raise ValueError(
                f"start_method must be one of {START_METHODS} (or None), "
                f"got {self.start_method!r}"
            )

    def resolved_workers(self) -> int:
        """The worker count: ``max_workers``, else ``min(8, cpu_count)``."""
        if self.max_workers is not None:
            return self.max_workers
        return max(1, min(8, os.cpu_count() or 1))


@dataclass
class GauntletSubject:
    """One watermarked deployment under test.

    Attributes
    ----------
    model:
        The watermarked quantized model (never mutated; attacks clone it).
    key:
        The owner's watermark key for this model.
    harness:
        Evaluation harness measuring the attacked models' quality; optional
        when the gauntlet runs with ``evaluate_quality=False``.
    co_keys:
        Optional co-resident owners' keys (``{owner_id: key}``) for
        multi-owner subjects — models carrying several disjoint watermarks
        (see :meth:`~repro.engine.engine.WatermarkEngine.insert_multi`).
        Every grid cell is verified against each co-resident key as well,
        and the per-owner evidence lands in
        :attr:`~repro.robustness.report.GauntletCellResult.co_owner_wer_percent`,
        so one sweep shows how an attack degrades *every* owner of the
        deployment, not just the primary one.
    """

    model: QuantizedModel
    key: WatermarkKey
    harness: Optional[EvaluationHarness] = None
    co_keys: Optional[Mapping[str, WatermarkKey]] = None


class Gauntlet:
    """Engine-backed executor of robustness grids.

    Parameters
    ----------
    engine:
        Shared :class:`WatermarkEngine` for the verification stage; the
        process-wide default engine (shared plan cache) when omitted.
    config:
        Gauntlet tuning; defaults to :class:`GauntletConfig` defaults.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` the run's
        sweep-level telemetry (cells executed, cells/sec, worker
        utilization) is recorded into — the server passes its own so
        gauntlet runs show up on ``GET /metrics``.
    progress_stream:
        Override of the progress line's target stream (tests); ``None``
        means stderr.
    """

    def __init__(
        self,
        engine: Optional[WatermarkEngine] = None,
        config: Optional[GauntletConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        progress_stream: Optional[TextIO] = None,
    ) -> None:
        self._engine = engine
        self.config = config if config is not None else GauntletConfig()
        self.metrics = metrics
        self.progress_stream = progress_stream

    @property
    def engine(self) -> WatermarkEngine:
        """The engine the verification stage runs on."""
        return self._engine if self._engine is not None else get_default_engine()

    # ------------------------------------------------------------------
    # Grid construction
    # ------------------------------------------------------------------
    @staticmethod
    def _named_subjects(
        subjects: Union[GauntletSubject, Mapping[str, GauntletSubject]],
    ) -> List[Tuple[str, GauntletSubject]]:
        if isinstance(subjects, GauntletSubject):
            return [("subject-0", subjects)]
        if not subjects:
            raise ValueError("gauntlet needs at least one subject")
        return list(subjects.items())

    def _build_grid(
        self,
        subjects: List[Tuple[str, GauntletSubject]],
        attacks: Sequence[AttackSpec],
        strengths: Optional[StrengthMap],
    ) -> List[GridCell]:
        if not attacks:
            raise ValueError("gauntlet needs at least one attack spec")
        names = [spec.name for spec in attacks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attack specs in the grid: {names}")
        if strengths:
            unknown = set(strengths) - set(names)
            if unknown:
                raise ValueError(
                    f"strengths given for attacks not in the grid: {sorted(unknown)}"
                )
        cells: List[GridCell] = []
        for model_id, _subject in subjects:
            for spec in attacks:
                sweep = (strengths or {}).get(spec.name, spec.default_strengths)
                if not sweep:
                    raise ValueError(
                        f"attack {spec.name!r} has no strengths (and no defaults)"
                    )
                for strength in sweep:
                    spec.check_strength(strength)
                    cells.append(GridCell(model_id, spec.name, float(strength)))
        # Cell ids are the suspect ids of the verification stage; a collision
        # (duplicate strengths, or strengths differing only past the %g
        # rendering) would silently hand one cell the other's verdict, so it
        # is an error instead.
        seen_ids: Dict[str, float] = {}
        for cell in cells:
            if cell.cell_id in seen_ids:
                raise ValueError(
                    f"grid cells collide on id {cell.cell_id!r} (strengths "
                    f"{seen_ids[cell.cell_id]!r} and {cell.strength!r}); "
                    "deduplicate the strength sweep"
                )
            seen_ids[cell.cell_id] = cell.strength
        return cells

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def grid_fingerprint_for(
        self,
        subjects: Union[GauntletSubject, Mapping[str, GauntletSubject]],
        attacks: Sequence[AttackSpec],
        strengths: Optional[StrengthMap] = None,
        extra: Optional[Mapping[str, object]] = None,
    ) -> str:
        """Checkpoint identity of the grid this gauntlet would run.

        Folds in everything the decision digest depends on — subjects,
        (attack → strengths), seed, thresholds, ``evaluate_quality`` — so a
        checkpoint written under one fingerprint can never replay into a
        grid that would have decided differently.  ``extra`` binds
        caller-side identity (e.g. the server's suspect content id).
        """
        subject_items = self._named_subjects(subjects)
        resolved = {
            spec.name: tuple(
                float(s)
                for s in (strengths or {}).get(spec.name, spec.default_strengths)
            )
            for spec in attacks
        }
        return grid_fingerprint(
            [model_id for model_id, _subject in subject_items],
            resolved,
            seed=self.config.seed,
            wer_threshold=self.config.wer_threshold,
            max_false_claim_probability=self.config.max_false_claim_probability,
            evaluate_quality=self.config.evaluate_quality,
            extra=extra,
        )

    def run(
        self,
        subjects: Union[GauntletSubject, Mapping[str, GauntletSubject]],
        attacks: Sequence[AttackSpec],
        strengths: Optional[StrengthMap] = None,
        checkpoint: Optional[Union[str, Path, CellCheckpoint]] = None,
        on_cell: Optional[CellHook] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> RobustnessReport:
        """Execute the (attack × strength × subject) grid.

        Parameters
        ----------
        subjects:
            One :class:`GauntletSubject` or a mapping of explicit ids.
        attacks:
            Attack specs forming the grid's attack axis (see
            :mod:`repro.robustness.attacks`).
        strengths:
            Optional per-attack strength sweeps, keyed by attack name;
            attacks not listed use their ``default_strengths``.
        checkpoint:
            Append-only JSONL checkpoint of completed cells.  A path (the
            CLI's ``--checkpoint``/``--resume``) is opened against this
            grid's :meth:`grid_fingerprint_for`; a ready-made
            :class:`~repro.robustness.checkpoint.CellCheckpoint` (the job
            manager's content-addressed files) is used as given.  Cells
            already on disk are **replayed instead of recomputed**, and the
            resumed report's decision digest is bit-identical to an
            uninterrupted run (JSON-exact fields + grid-order reassembly).
        on_cell:
            Per-cell completion hook ``on_cell(result, replayed)`` — the
            server's job event stream hangs off it.  Replayed cells fire
            first (grid order, ``replayed=True``), fresh cells as they
            finish (completion order).  Pure observer: results are identical
            with it attached or not.
        should_stop:
            Cooperative cancellation probe, checked between cells; when it
            returns True the run raises :class:`GauntletCancelled`.
            Completed cells are already checkpointed, so a cancelled sweep
            resumes instead of restarting.

        Returns
        -------
        RobustnessReport
            Grid-major cell results plus sweep-level wall-clock and
            plan-cache figures.  Decision fields are identical for any
            worker count and executor.
        """
        wall_start = time.perf_counter()
        subject_items = self._named_subjects(subjects)
        cells = self._build_grid(subject_items, attacks, strengths)

        if self.config.evaluate_quality:
            missing = [
                model_id
                for model_id, subject in subject_items
                if subject.harness is None
            ]
            if missing:
                raise ValueError(
                    f"evaluate_quality=True but subjects {missing[:4]} have no harness; "
                    "attach one or run with evaluate_quality=False"
                )

        ckpt: Optional[CellCheckpoint] = None
        if isinstance(checkpoint, CellCheckpoint):
            ckpt = checkpoint
        elif checkpoint is not None:
            ckpt = CellCheckpoint(
                checkpoint,
                fingerprint=self.grid_fingerprint_for(subjects, attacks, strengths),
            )
        completed = ckpt.load() if ckpt is not None else {}
        pending = [cell for cell in cells if cell.cell_id not in completed]
        replayed_results = [
            completed[cell.cell_id] for cell in cells if cell.cell_id in completed
        ]
        if replayed_results:
            logger.info(
                "checkpoint replay: %d/%d cells from %s",
                len(replayed_results),
                len(cells),
                ckpt.path,
            )

        executor, workers = self._resolve_executor(len(pending))
        collector = get_collector()
        context = self._context(subject_items, attacks)
        renderer: Optional[ProgressRenderer] = None
        if self.config.progress and cells:
            renderer = ProgressRenderer(len(cells), stream=self.progress_stream)
            renderer.start()
        outcomes: List[CellOutcome] = []

        def complete(outcome: CellOutcome) -> None:
            # Fresh-cell completion, in completion order.  Persist first
            # (fsync-batched), then notify — a crash between the two re-runs
            # the hook on resume rather than losing the cell.
            outcomes.append(outcome)
            result = outcome.result
            if outcome.spans and collector is not None:
                collector.extend(outcome.spans)
            if ckpt is not None:
                ckpt.append(result)
            if on_cell is not None:
                on_cell(result, False)
            if renderer is not None:
                renderer.update(result.attack, result.wer_percent)

        start_method: Optional[str] = None
        try:
            for result in replayed_results:
                if on_cell is not None:
                    on_cell(result, True)
                if renderer is not None:
                    renderer.update(result.attack, result.wer_percent)
            with span(
                "gauntlet.run",
                cells=len(cells),
                pending=len(pending),
                executor=executor,
                workers=workers,
            ):
                if executor == "serial":
                    for position, cell in enumerate(pending):
                        if should_stop is not None and should_stop():
                            raise GauntletCancelled(position, len(pending))
                        complete(run_cell(context, cell))
                elif executor == "thread":
                    # A private pool: the engine's layer-level pool stays
                    # free for location reproduction and for attacks that
                    # insert through an engine (re-watermarking).
                    with ThreadPoolExecutor(
                        max_workers=workers, thread_name_prefix="gauntlet"
                    ) as pool:
                        _run_pool(
                            pool, partial(run_cell, context), pending, complete, should_stop,
                        )
                else:
                    with ProcessCellExecutor(
                        context, workers, self.config.start_method,
                        trace=collector is not None,
                    ) as processes:
                        start_method = processes.start_method
                        _run_pool(
                            processes.pool, run_cell_in_worker, pending,
                            complete, should_stop,
                        )
        finally:
            if renderer is not None:
                renderer.finish()
            if ckpt is not None:
                ckpt.close()

        wall_clock = time.perf_counter() - wall_start
        # Reassemble in grid order: fresh cells and replayed cells slot back
        # into their grid positions, so results never depend on completion
        # order and a resumed digest equals the uninterrupted one.
        fresh = {outcome.result.cell_id: outcome.result for outcome in outcomes}
        grid_cells, _num_replayed = merge_completed(
            [cell.cell_id for cell in cells], completed, fresh
        )
        traffic = context.session.cache_traffic()
        report = RobustnessReport(
            cells=grid_cells,
            seed=self.config.seed,
            workers=workers,
            wall_clock_seconds=wall_clock,
            # Summed per-cell verification time: verification interleaves
            # with the attacks, so there is no contiguous stage to time.
            verify_seconds=sum(outcome.verify_seconds for outcome in outcomes),
            # Parent-side traffic; process workers' plan caches are private
            # by design and not aggregated.
            cache_hits=traffic.hits,
            cache_misses=traffic.misses,
            executor=executor,
            start_method=start_method,
            worker_utilization=(
                _utilization(outcomes, wall_clock) if executor == "process" else {}
            ),
        )
        self._record_metrics(report)
        logger.debug("%s", report.summary())
        return report

    def _record_metrics(self, report: RobustnessReport) -> None:
        """Publish sweep-level telemetry into the attached registry (if any)."""
        if self.metrics is None:
            return
        self.metrics.counter(
            "repro_gauntlet_cells_total", "Gauntlet cells executed"
        ).inc(report.num_cells)
        self.metrics.gauge(
            "repro_gauntlet_cells_per_second", "Throughput of the last sweep"
        ).set(report.cells_per_second)
        self.metrics.histogram(
            "repro_gauntlet_cell_verify_seconds", "Per-sweep summed verification time"
        ).observe(report.verify_seconds)
        for pid, utilization in report.worker_utilization.items():
            self.metrics.gauge(
                "repro_gauntlet_worker_utilization",
                "Busy fraction per process-pool worker (last sweep)",
                labels={"pid": pid},
            ).set(utilization)

    def _resolve_executor(self, num_pending: int) -> Tuple[str, int]:
        """The executor and worker count that actually run ``num_pending`` cells.

        Parallelism costs real money up front (pool spin-up, and for the
        process executor a model publication + per-worker attach), so it is
        not bought where it cannot pay off.  Nothing pending runs nothing
        inline, and ``"thread"`` runs inline with a single worker or fewer
        than two pending cells.  ``"auto"`` runs serially when a single-core
        box cannot run two cells at once or the grid has fewer cells than
        workers (most of the pool would idle while still paying its
        startup); every other machine/grid combination takes the process
        executor — the only one whose attack stages escape the GIL.
        """
        executor = self.config.executor
        workers = self.config.resolved_workers()
        if executor == "serial":
            return "serial", 1
        if executor == "auto":
            if (os.cpu_count() or 1) <= 1 or num_pending < workers:
                return "serial", 1
            return "process", workers
        if num_pending == 0 or (executor == "thread" and (workers <= 1 or num_pending < 2)):
            return "serial", workers
        return executor, workers

    def _context(
        self,
        subject_items: List[Tuple[str, GauntletSubject]],
        attacks: Sequence[AttackSpec],
    ) -> CellContext:
        """The in-process cell context: subjects plus a session over their keys.

        Subject keys are registered under the subject ids, co-resident
        owners' keys under ``"<subject id>::<owner id>"``.
        """
        keys: Dict[str, WatermarkKey] = {}
        co_key_ids: Dict[str, Tuple[Tuple[str, str], ...]] = {}
        for model_id, subject in subject_items:
            keys[model_id] = subject.key
            wired = []
            for owner_id, co_key in (subject.co_keys or {}).items():
                key_id = f"{model_id}::{owner_id}"
                keys[key_id] = co_key
                wired.append((owner_id, key_id))
            if wired:
                co_key_ids[model_id] = tuple(wired)
        return CellContext(
            models={model_id: subject.model for model_id, subject in subject_items},
            harnesses={
                model_id: subject.harness
                for model_id, subject in subject_items
                if subject.harness is not None
            },
            attacks={spec.name: spec for spec in attacks},
            co_key_ids=co_key_ids,
            evaluate_quality=self.config.evaluate_quality,
            seed=self.config.seed,
            session=self.engine.verification_session(
                keys=keys,
                wer_threshold=self.config.wer_threshold,
                max_false_claim_probability=self.config.max_false_claim_probability,
            ),
        )


def _run_pool(
    pool: Executor,
    fn: Callable[[GridCell], CellOutcome],
    cells: Sequence[GridCell],
    complete: Callable[[CellOutcome], None],
    should_stop: Optional[Callable[[], bool]],
) -> None:
    """The pool loop shared by the thread and process executors.

    Submits every cell and hands each outcome to ``complete`` in completion
    order.  ``should_stop`` is checked between completions: once it returns
    True, unstarted cells are cancelled, in-flight cells are drained and
    completed (so they are checkpointed, not lost) and
    :class:`GauntletCancelled` is raised — unless no cell was left unstarted,
    in which case the grid is complete.
    """
    pending = {pool.submit(fn, cell) for cell in cells}
    finished = 0
    try:
        while pending:
            if should_stop is not None and should_stop():
                running = [future for future in pending if not future.cancel()]
                skipped = len(pending) - len(running)
                pending = set()
                for future in running:
                    complete(future.result())
                    finished += 1
                if skipped:
                    raise GauntletCancelled(finished, len(cells))
                return
            done, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                complete(future.result())
                finished += 1
    finally:
        # A failing cell (or hook) must not leave the rest of the grid queued.
        for future in pending:
            future.cancel()


def _utilization(outcomes: Sequence[CellOutcome], wall_clock: float) -> Dict[str, float]:
    """Busy fraction per worker pid over the sweep: were the cores fed?"""
    if wall_clock <= 0:
        return {}
    busy: Dict[str, float] = {}
    for outcome in outcomes:
        pid = str(outcome.worker_pid or "unknown")
        busy[pid] = busy.get(pid, 0.0) + outcome.result.attack_seconds + outcome.verify_seconds
    return {pid: seconds / wall_clock for pid, seconds in sorted(busy.items())}


def run_gauntlet(
    subjects: Union[GauntletSubject, Mapping[str, GauntletSubject]],
    attacks: Sequence[AttackSpec],
    strengths: Optional[StrengthMap] = None,
    engine: Optional[WatermarkEngine] = None,
    checkpoint: Optional[Union[str, Path, CellCheckpoint]] = None,
    on_cell: Optional[CellHook] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    **config_kwargs,
) -> RobustnessReport:
    """One-call convenience: build a :class:`Gauntlet` and run the grid."""
    return Gauntlet(engine=engine, config=GauntletConfig(**config_kwargs)).run(
        subjects,
        attacks,
        strengths,
        checkpoint=checkpoint,
        on_cell=on_cell,
        should_stop=should_stop,
    )
