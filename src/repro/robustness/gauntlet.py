"""The robustness gauntlet: parallel (attack × strength × model) sweeps.

Before this subsystem existed, every robustness figure hand-rolled the same
loop — attack the watermarked model at one strength, evaluate quality,
re-extract the owner's watermark, repeat — strictly serially, paying one
location-plan reproduction per sweep point.  :class:`Gauntlet` turns that
into one reusable engine-backed pipeline:

1. **Grid construction** — subjects (a watermarked model + its owner key +
   optionally an evaluation harness) crossed with registered attack specs
   and their strength sweeps produce an ordered list of cells.
2. **Streaming match-and-release execution** (the default) — cells run on a
   configurable worker pool; each worker attacks, measures quality, verifies
   its cell through a shared
   :class:`~repro.engine.engine.FleetVerificationSession` and **drops the
   attacked model immediately**.  Each owner key's location plans are
   reproduced once per run (lazily, on the first cell that needs them), so
   peak memory is O(``max_workers`` × model size) instead of the batched
   stage's O(num_cells × model size) — which is what makes arbitrarily large
   grids feasible.
3. **Batched mode** (``mode="batched"``) — the original two-stage pipeline:
   every cell's attacked model is retained and verified in one
   :meth:`~repro.engine.engine.WatermarkEngine.verify_fleet` sweep.  Kept as
   the reference implementation; its decision digest is bit-identical to the
   streaming path at any worker count (the benchmark gates on it).
4. **Process mode** (``mode="process"``) — cells run in worker *processes*
   over shared-memory models
   (:mod:`repro.robustness.procpool`): one publication of the subjects into
   a :class:`~repro.engine.shm.SharedArena`, zero-copy read-only views per
   worker, only cell coordinates and verdicts crossing the process
   boundary.  This sidesteps the GIL where attack stages are Python-heavy;
   ``mode="auto"`` picks between serial and process execution based on the
   machine and the grid (see :meth:`Gauntlet._resolve_execution`).

Each cell derives its own RNG from the gauntlet seed and the cell
coordinates, so results are bit-identical at any ``max_workers`` and in
every mode.  The result is a
:class:`~repro.robustness.report.RobustnessReport`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
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
from repro.robustness.checkpoint import CellCheckpoint, grid_fingerprint, merge_completed
from repro.robustness.procpool import START_METHODS, CellTask, ProcessCellExecutor
from repro.robustness.report import GauntletCellResult, RobustnessReport
from repro.utils.logging import get_logger
from repro.utils.rng import new_rng

__all__ = [
    "GauntletCancelled",
    "GauntletConfig",
    "GauntletSubject",
    "Gauntlet",
    "run_gauntlet",
]

logger = get_logger("robustness.gauntlet")

StrengthMap = Mapping[str, Sequence[float]]

#: Execution modes of :meth:`Gauntlet.run`.  ``"auto"`` resolves to serial
#: streaming or process execution per run (machine + grid heuristic).
GAUNTLET_MODES = ("streaming", "batched", "process", "auto")

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
        Worker-pool width for cell execution.  ``None`` resolves to the
        ``REPRO_GAUNTLET_WORKERS`` environment variable, falling back to
        ``min(8, cpu_count)``; ``1`` forces serial execution.  Results are
        identical at every setting — the knob only trades wall clock (and,
        in streaming mode, peak memory: at most ``max_workers`` attacked
        models are alive at once).
    seed:
        Root seed of the per-cell attacker RNGs.
    wer_threshold, max_false_claim_probability:
        Ownership-decision thresholds forwarded to the verification stage.
    evaluate_quality:
        Measure perplexity / zero-shot accuracy per cell (needs subjects
        with a harness).  The verification server disables this — it holds
        keys and suspects, not evaluation corpora.
    mode:
        ``"streaming"`` (default) verifies and releases each cell as its
        worker finishes; ``"batched"`` retains every attacked model and runs
        one ``verify_fleet`` sweep; ``"process"`` runs cells in worker
        processes over shared-memory models (GIL-free attack stages);
        ``"auto"`` falls back to serial streaming on single-core boxes or
        grids smaller than the worker pool, process execution otherwise.
        Decisions are bit-identical in every mode — the resolved choice is
        recorded on the report.
    start_method:
        Multiprocessing start method for ``mode="process"``/``"auto"``
        (``"fork"``, ``"spawn"`` or ``"forkserver"``); ``None`` defers to
        the ``REPRO_GAUNTLET_START_METHOD`` environment variable, then the
        platform default.  Ignored by the in-process modes.
    progress:
        Render a live stderr progress line (cells done/total, cells/sec,
        ETA, per-attack min-WER so far) while the grid executes.  Works in
        every mode; pure I/O — decisions are identical with it on or off.
    """

    max_workers: Optional[int] = None
    seed: int = 0
    wer_threshold: float = DEFAULT_OWNERSHIP_THRESHOLD
    max_false_claim_probability: Optional[float] = DEFAULT_MAX_FALSE_CLAIM_PROBABILITY
    evaluate_quality: bool = True
    mode: str = "streaming"
    start_method: Optional[str] = None
    progress: bool = False

    def __post_init__(self) -> None:
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be >= 1 (or None for auto)")
        if self.mode not in GAUNTLET_MODES:
            raise ValueError(f"mode must be one of {GAUNTLET_MODES}, got {self.mode!r}")
        if self.start_method is not None and self.start_method not in START_METHODS:
            raise ValueError(
                f"start_method must be one of {START_METHODS} (or None), "
                f"got {self.start_method!r}"
            )

    def resolved_workers(self) -> int:
        """The worker count after applying the environment override."""
        if self.max_workers is not None:
            return self.max_workers
        env = os.environ.get("REPRO_GAUNTLET_WORKERS")
        if env:
            try:
                return max(1, int(env))
            except ValueError:
                logger.warning("ignoring non-integer REPRO_GAUNTLET_WORKERS=%r", env)
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


@dataclass
class _Cell:
    """Internal: one grid coordinate."""

    index: int
    model_id: str
    spec: AttackSpec
    strength: float

    @property
    def cell_id(self) -> str:
        return f"{self.model_id}/{self.spec.name}@{self.strength:g}"

    @property
    def attacker_key_id(self) -> str:
        return f"{self.cell_id}#attacker"


def _co_key_id(model_id: str, owner_id: str) -> str:
    """Verification-session id of one co-resident owner's key."""
    return f"{model_id}::{owner_id}"


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
    ) -> List[_Cell]:
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
        cells: List[_Cell] = []
        for model_id, _subject in subjects:
            for spec in attacks:
                sweep = (strengths or {}).get(spec.name, spec.default_strengths)
                if not sweep:
                    raise ValueError(
                        f"attack {spec.name!r} has no strengths (and no defaults)"
                    )
                for strength in sweep:
                    cells.append(
                        _Cell(
                            index=len(cells),
                            model_id=model_id,
                            spec=spec,
                            strength=float(strength),
                        )
                    )
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
            worker count and either execution mode.
        """
        wall_start = time.perf_counter()
        subject_items = self._named_subjects(subjects)
        subject_for = dict(subject_items)
        cells = self._build_grid(subject_items, attacks, strengths)
        workers = self.config.resolved_workers()

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

        def emit(result: GauntletCellResult) -> None:
            # Fresh-cell completion: persist first (fsync-batched), then
            # notify — a crash between the two re-runs the hook on resume
            # rather than losing the cell.
            if ckpt is not None:
                ckpt.append(result)
            if on_cell is not None:
                on_cell(result, False)

        mode, workers = self._resolve_execution(len(pending), workers)
        renderer: Optional[ProgressRenderer] = None
        if self.config.progress and cells:
            renderer = ProgressRenderer(len(cells), stream=self.progress_stream)
            renderer.start()
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
                mode=mode,
                workers=workers,
            ):
                if not pending:
                    report = RobustnessReport(
                        cells=[],
                        seed=self.config.seed,
                        workers=workers,
                        wall_clock_seconds=time.perf_counter() - wall_start,
                        mode="streaming" if mode == "auto" else mode,
                    )
                elif mode == "batched":
                    report = self._run_batched(
                        subject_items, subject_for, pending, workers, wall_start,
                        renderer, emit, should_stop,
                    )
                elif mode == "process":
                    report = self._run_process(
                        subject_items, subject_for, pending, workers, wall_start,
                        renderer, emit, should_stop,
                    )
                else:
                    report = self._run_streaming(
                        subject_items, subject_for, pending, workers, wall_start,
                        renderer, emit, should_stop,
                    )
        finally:
            if renderer is not None:
                renderer.finish()
            if ckpt is not None:
                ckpt.close()
        if mode != "process":
            # The in-process modes execute cells serially below the
            # parallelism threshold and on a thread pool above it; record
            # which one actually happened (informational — never digested).
            report.executor = (
                "serial" if (workers <= 1 or len(pending) < 2) else "thread"
            )
        # Reassemble in grid order: replayed cells slot back into the
        # positions they were originally computed in, so the resumed digest
        # equals the uninterrupted one byte for byte.
        fresh_by_id = {cell.cell_id: cell for cell in report.cells}
        report.cells, _num_replayed = merge_completed(
            [cell.cell_id for cell in cells], completed, fresh_by_id
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

    def _resolve_execution(self, num_cells: int, workers: int) -> Tuple[str, int]:
        """Resolve ``mode="auto"`` into a concrete (mode, workers) choice.

        The heuristic attacks the measured thread-mode regression head-on:
        parallelism costs real money up front (pool spin-up, and for the
        process mode a model publication + per-worker attach), so it must
        not be bought where it cannot pay off —

        * a single-core box cannot run two cells at once in any executor, and
        * a grid with fewer cells than workers leaves most of the pool idle
          while still paying its startup,

        so both cases run serially (streaming pipeline, one worker).  Every
        other machine/grid combination takes the process executor — the only
        one whose attack stages escape the GIL.  Explicit modes are returned
        unchanged; the resolved choice lands in ``RobustnessReport.mode``.
        """
        if self.config.mode != "auto":
            return self.config.mode, workers
        if (os.cpu_count() or 1) <= 1 or num_cells < workers:
            return "streaming", 1
        return "process", workers

    def _cell_rng(self, cell: _Cell):
        # The RNG depends only on (seed, coordinates) — never on which worker
        # picks the cell up or which mode runs it — so grids are reproducible
        # at any pool width.
        return new_rng(
            self.config.seed,
            "gauntlet",
            cell.model_id,
            cell.spec.name,
            f"{cell.strength:g}",
        )

    @staticmethod
    def _cell_result(cell, owner, attacker, quality, attack_seconds, info, co=None):
        """One cell's report row.

        Shared by both execution modes — being identical by construction is
        part of the streaming ≡ batched decision guarantee.  ``co`` carries
        the co-resident owners' :class:`PairVerification`\\ s for multi-owner
        subjects.
        """
        return GauntletCellResult(
            model_id=cell.model_id,
            attack=cell.spec.name,
            strength=cell.strength,
            strength_unit=cell.spec.strength_unit,
            wer_percent=owner.wer_percent,
            matched_bits=owner.matched_bits,
            total_bits=owner.total_bits,
            false_claim_probability=owner.false_claim_probability,
            owned=owner.owned,
            attacker_wer_percent=None if attacker is None else attacker.wer_percent,
            perplexity=None if quality is None else quality.perplexity,
            zero_shot_accuracy=None if quality is None else quality.zero_shot_accuracy,
            attack_seconds=attack_seconds,
            info=dict(info),
            co_owner_wer_percent={oid: pair.wer_percent for oid, pair in (co or {}).items()},
            co_owner_owned={oid: pair.owned for oid, pair in (co or {}).items()},
        )

    # ------------------------------------------------------------------
    # Streaming mode (default): verify-and-release per cell
    # ------------------------------------------------------------------
    def _run_streaming(
        self,
        subject_items: List[Tuple[str, GauntletSubject]],
        subject_for: Dict[str, GauntletSubject],
        cells: List[_Cell],
        workers: int,
        wall_start: float,
        renderer: Optional[ProgressRenderer] = None,
        emit: Optional[Callable[[GauntletCellResult], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> RobustnessReport:
        session_keys = {model_id: subject.key for model_id, subject in subject_items}
        for model_id, subject in subject_items:
            for owner_id, co_key in (subject.co_keys or {}).items():
                session_keys[_co_key_id(model_id, owner_id)] = co_key
        session = self.engine.verification_session(
            keys=session_keys,
            wer_threshold=self.config.wer_threshold,
            max_false_claim_probability=self.config.max_false_claim_probability,
        )

        def run_cell(cell: _Cell) -> Tuple[GauntletCellResult, float]:
            subject = subject_for[cell.model_id]
            rng = self._cell_rng(cell)
            with span(
                "gauntlet.cell",
                cell=cell.cell_id,
                attack=cell.spec.name,
                strength=cell.strength,
            ):
                start = time.perf_counter()
                outcome = cell.spec.apply(subject.model, cell.strength, rng)
                quality = (
                    subject.harness.evaluate(outcome.model)
                    if self.config.evaluate_quality
                    else None
                )
                attack_seconds = time.perf_counter() - start
                verify_start = time.perf_counter()
                owner = session.verify(cell.cell_id, outcome.model, cell.model_id)
                co = {
                    owner_id: session.verify(
                        cell.cell_id, outcome.model, _co_key_id(cell.model_id, owner_id)
                    )
                    for owner_id in (subject.co_keys or {})
                }
                attacker = None
                if outcome.attacker_key is not None:
                    # One-shot: the adversary key belongs to this cell alone, so
                    # it is verified without session registration — retaining it
                    # (a full model-size reference snapshot per cell) would quietly
                    # re-grow the O(grid) memory the streaming mode removes.
                    attacker = session.verify_once(
                        cell.cell_id, outcome.model, outcome.attacker_key,
                        cell.attacker_key_id,
                    )
                verify_seconds = time.perf_counter() - verify_start
            result = self._cell_result(
                cell, owner, attacker, quality, attack_seconds, outcome.info, co=co
            )
            # ``outcome`` — and with it the attacked model — dies with this
            # frame: nothing past this point references it, which is the
            # O(workers × model size) peak-memory guarantee.
            return result, verify_seconds

        if workers <= 1 or len(cells) < 2:
            outputs = []
            for position, cell in enumerate(cells):
                if should_stop is not None and should_stop():
                    raise GauntletCancelled(position, len(cells))
                output = run_cell(cell)
                outputs.append(output)
                if emit is not None:
                    emit(output[0])
                if renderer is not None:
                    renderer.update(cell.spec.name, output[0].wer_percent)
        else:
            # A private pool: the engine's layer-level pool stays free for
            # location reproduction (and for attacks that insert watermarks
            # through an engine, e.g. re-watermarking).  Completion-order
            # consumption feeds the progress line; outputs are reassembled
            # in grid order, so results never depend on finish order.
            def run_cell_cooperative(cell: _Cell) -> Tuple[GauntletCellResult, float]:
                # Cancellation is between-cells: a worker picking up its next
                # cell after the stop flag rose raises instead of attacking.
                if should_stop is not None and should_stop():
                    raise GauntletCancelled(0, len(cells))
                return run_cell(cell)

            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="gauntlet"
            ) as pool:
                future_for = {
                    pool.submit(run_cell_cooperative, cell): cell for cell in cells
                }
                slots: List[Optional[Tuple[GauntletCellResult, float]]] = (
                    [None] * len(cells)
                )
                position = {cell.index: i for i, cell in enumerate(cells)}
                cancelled = False
                for future in as_completed(future_for):
                    cell = future_for[future]
                    try:
                        output = future.result()
                    except GauntletCancelled:
                        # Keep draining: cells that did complete are still
                        # emitted (and checkpointed) below, so nothing
                        # finished is lost to the cancellation.
                        cancelled = True
                        continue
                    slots[position[cell.index]] = output
                    if emit is not None:
                        emit(output[0])
                    if renderer is not None:
                        renderer.update(cell.spec.name, output[0].wer_percent)
                outputs = [output for output in slots if output is not None]
                if cancelled:
                    raise GauntletCancelled(len(outputs), len(cells))

        traffic = session.cache_traffic()
        return RobustnessReport(
            cells=[result for result, _ in outputs],
            seed=self.config.seed,
            workers=workers,
            wall_clock_seconds=time.perf_counter() - wall_start,
            # Summed per-cell verification time: the verification work is
            # interleaved with the attacks, so there is no contiguous
            # "verification stage" wall-clock span to report.
            verify_seconds=sum(seconds for _, seconds in outputs),
            cache_hits=traffic.hits,
            cache_misses=traffic.misses,
            mode="streaming",
        )

    # ------------------------------------------------------------------
    # Process mode: worker processes over shared-memory models
    # ------------------------------------------------------------------
    def _run_process(
        self,
        subject_items: List[Tuple[str, GauntletSubject]],
        subject_for: Dict[str, GauntletSubject],
        cells: List[_Cell],
        workers: int,
        wall_start: float,
        renderer: Optional[ProgressRenderer] = None,
        emit: Optional[Callable[[GauntletCellResult], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> RobustnessReport:
        stats_before = self.engine.cache.stats()
        models = {model_id: subject.model for model_id, subject in subject_items}
        keys = {model_id: subject.key for model_id, subject in subject_items}
        co_key_ids: Dict[str, Tuple[Tuple[str, str], ...]] = {}
        for model_id, subject in subject_items:
            wired = []
            for owner_id, co_key in (subject.co_keys or {}).items():
                key_id = _co_key_id(model_id, owner_id)
                keys[key_id] = co_key
                wired.append((owner_id, key_id))
            if wired:
                co_key_ids[model_id] = tuple(wired)
        # The parent derives every registered key's ticket exactly once
        # (locations served from the plan cache when warm); workers match
        # the pickled tickets verbatim instead of re-running the scoring
        # pass — bit-identical by purity of ticket derivation.
        tickets = {key_id: self.engine.ticket_for(key) for key_id, key in keys.items()}
        attacks = {cell.spec.name: cell.spec for cell in cells}
        harnesses = {
            model_id: subject.harness
            for model_id, subject in subject_items
            if subject.harness is not None
        }
        tasks = [
            CellTask(
                index=cell.index,
                model_id=cell.model_id,
                attack_name=cell.spec.name,
                strength=cell.strength,
            )
            for cell in cells
        ]
        collector = get_collector()
        executor = ProcessCellExecutor(
            models=models,
            tickets=tickets,
            co_key_ids=co_key_ids,
            attacks=attacks,
            harnesses=harnesses,
            evaluate_quality=self.config.evaluate_quality,
            seed=self.config.seed,
            wer_threshold=self.config.wer_threshold,
            max_false_claim_probability=self.config.max_false_claim_probability,
            workers=workers,
            start_method=self.config.start_method,
            trace=collector is not None,
        )
        cell_for = {cell.index: cell for cell in cells}
        on_complete = None
        if renderer is not None or collector is not None or emit is not None:
            def on_complete(outcome):
                # Parent-side completion hook: merge worker spans into the
                # collector, feed the progress line, and emit the cell result
                # (checkpoint append + job events).  Outcome ordering is the
                # executor's job; nothing here touches the returned results.
                if collector is not None and outcome.spans:
                    collector.extend(outcome.spans)
                if emit is not None:
                    emit(
                        self._cell_result(
                            cell_for[outcome.index],
                            outcome.owner,
                            outcome.attacker,
                            outcome.quality,
                            outcome.attack_seconds,
                            outcome.info,
                            co=outcome.co,
                        )
                    )
                if renderer is not None:
                    renderer.update(
                        cell_for[outcome.index].spec.name, outcome.owner.wer_percent
                    )
        with executor:
            outcomes = executor.run(tasks, on_complete=on_complete, should_stop=should_stop)
        if should_stop is not None and should_stop():
            raise GauntletCancelled(len(outcomes), len(cells))
        results = [
            self._cell_result(
                cell,
                outcome.owner,
                outcome.attacker,
                outcome.quality,
                outcome.attack_seconds,
                outcome.info,
                co=outcome.co,
            )
            for cell, outcome in zip(cells, outcomes)
        ]
        traffic = self.engine.cache.stats().delta(stats_before)
        wall_clock = time.perf_counter() - wall_start
        # Worker utilization: busy (attack + verify) seconds per worker pid
        # over the sweep's wall clock — the "were my cores actually fed?"
        # number for a 10k-cell run.
        busy: Dict[str, float] = {}
        for outcome in outcomes:
            pid = str(outcome.worker_pid or "unknown")
            busy[pid] = busy.get(pid, 0.0) + outcome.attack_seconds + outcome.verify_seconds
        utilization = (
            {pid: seconds / wall_clock for pid, seconds in sorted(busy.items())}
            if wall_clock > 0
            else {}
        )
        return RobustnessReport(
            cells=results,
            seed=self.config.seed,
            workers=workers,
            wall_clock_seconds=wall_clock,
            verify_seconds=sum(outcome.verify_seconds for outcome in outcomes),
            # Parent-side traffic only (the location reproduction above);
            # per-worker plan caches are private by design and not aggregated.
            cache_hits=traffic.hits,
            cache_misses=traffic.misses,
            mode="process",
            executor="process",
            start_method=executor.start_method,
            worker_utilization=utilization,
        )

    # ------------------------------------------------------------------
    # Batched mode: the original two-stage reference pipeline
    # ------------------------------------------------------------------
    def _run_batched(
        self,
        subject_items: List[Tuple[str, GauntletSubject]],
        subject_for: Dict[str, GauntletSubject],
        cells: List[_Cell],
        workers: int,
        wall_start: float,
        renderer: Optional[ProgressRenderer] = None,
        emit: Optional[Callable[[GauntletCellResult], None]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> RobustnessReport:
        # -- stage 1: attack + quality, cell-parallel ----------------------
        def run_cell(cell: _Cell):
            # Batched cells only become results after the fleet sweep, so
            # cancellation aborts the whole stage (nothing checkpointable
            # exists yet) — the streaming/process modes are the
            # checkpoint-friendly executors.
            if should_stop is not None and should_stop():
                raise GauntletCancelled(0, len(cells))
            subject = subject_for[cell.model_id]
            rng = self._cell_rng(cell)
            with span(
                "gauntlet.cell",
                cell=cell.cell_id,
                attack=cell.spec.name,
                strength=cell.strength,
            ):
                start = time.perf_counter()
                outcome = cell.spec.apply(subject.model, cell.strength, rng)
                quality = (
                    subject.harness.evaluate(outcome.model)
                    if self.config.evaluate_quality
                    else None
                )
            elapsed = time.perf_counter() - start
            # Progress counts attacked cells; WERs only exist after the
            # batched verify_fleet sweep, so the line shows counts/ETA only.
            if renderer is not None:
                renderer.update()
            return outcome, quality, elapsed

        if workers <= 1 or len(cells) < 2:
            staged = [run_cell(cell) for cell in cells]
        else:
            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="gauntlet"
            ) as pool:
                staged = list(pool.map(run_cell, cells))

        # -- stage 2: one batched verify_fleet sweep -----------------------
        # Every attacked model is alive simultaneously here — the
        # O(num_cells × model size) peak the streaming mode removes.
        verify_start = time.perf_counter()
        suspects: Dict[str, QuantizedModel] = {}
        keys: Dict[str, WatermarkKey] = {
            model_id: subject.key for model_id, subject in subject_items
        }
        for model_id, subject in subject_items:
            for owner_id, co_key in (subject.co_keys or {}).items():
                keys[_co_key_id(model_id, owner_id)] = co_key
        pairs: List[Tuple[str, str]] = []
        for cell, (outcome, _quality, _seconds) in zip(cells, staged):
            suspects[cell.cell_id] = outcome.model
            pairs.append((cell.cell_id, cell.model_id))
            for owner_id in (subject_for[cell.model_id].co_keys or {}):
                pairs.append((cell.cell_id, _co_key_id(cell.model_id, owner_id)))
            if outcome.attacker_key is not None:
                keys[cell.attacker_key_id] = outcome.attacker_key
                pairs.append((cell.cell_id, cell.attacker_key_id))
        fleet = self.engine.verify_fleet(
            suspects,
            keys,
            wer_threshold=self.config.wer_threshold,
            max_false_claim_probability=self.config.max_false_claim_probability,
            pairs=pairs,
        )
        verify_seconds = time.perf_counter() - verify_start
        by_pair = {(pair.suspect_id, pair.key_id): pair for pair in fleet.pairs}

        # -- stage 3: assemble the report ----------------------------------
        results: List[GauntletCellResult] = []
        for cell, (outcome, quality, attack_seconds) in zip(cells, staged):
            owner = by_pair[(cell.cell_id, cell.model_id)]
            attacker = by_pair.get((cell.cell_id, cell.attacker_key_id))
            co = {
                owner_id: by_pair[(cell.cell_id, _co_key_id(cell.model_id, owner_id))]
                for owner_id in (subject_for[cell.model_id].co_keys or {})
            }
            result = self._cell_result(
                cell, owner, attacker, quality, attack_seconds, outcome.info, co=co
            )
            if emit is not None:
                emit(result)
            results.append(result)
        return RobustnessReport(
            cells=results,
            seed=self.config.seed,
            workers=workers,
            wall_clock_seconds=time.perf_counter() - wall_start,
            verify_seconds=verify_seconds,
            cache_hits=fleet.cache_hits,
            cache_misses=fleet.cache_misses,
            mode="batched",
        )


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
