"""One gauntlet cell: its coordinates, its context, and the function that runs it.

Every executor of :class:`~repro.robustness.gauntlet.Gauntlet` — the inline
serial loop, the thread pool and the process pool — runs a cell through the
same :func:`run_cell`: attack → quality → verify the owner key, then each
co-resident owner key, then the attacker's own watermark (re-watermarking and
soup cells), through the ticket the attack's insertion handed forward.
The executors differ only in where the :class:`CellContext` comes from:
in-process executors build it from the subjects, pool workers rebuild it
from shared-memory model views and the parent's pickled tickets
(:mod:`repro.robustness.procpool`).

A :class:`GridCell` is three scalars, so it crosses a process boundary for
free; everything array-sized lives in the context.  Each cell derives its
RNG from ``(seed, coordinates)`` only, which is why decisions are
bit-identical under every executor and worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Mapping, Tuple

from repro.engine.engine import FleetVerificationSession
from repro.eval.harness import EvaluationHarness
from repro.obs.trace import SpanRecord, span
from repro.quant.base import QuantizedModel
from repro.robustness.attacks import AttackSpec
from repro.robustness.report import GauntletCellResult, format_cell_id
from repro.utils.rng import new_rng

__all__ = ["GridCell", "CellContext", "CellOutcome", "run_cell"]


@dataclass(frozen=True)
class GridCell:
    """Coordinates of one grid cell: subject, attack, strength.

    The ``cell_id`` is unique within a grid (the grid builder rejects
    collisions), so results are put back in grid order by id.
    """

    model_id: str
    attack: str
    strength: float

    @property
    def cell_id(self) -> str:
        """Suspect id of the cell's attacked model (and its checkpoint key)."""
        return format_cell_id(self.model_id, self.attack, self.strength)

    @property
    def attacker_key_id(self) -> str:
        return f"{self.cell_id}#attacker"

    def rng(self, seed: int):
        """The attacker RNG: a function of the grid seed and coordinates only."""
        return new_rng(seed, "gauntlet", self.model_id, self.attack, f"{self.strength:g}")


@dataclass
class CellContext:
    """Everything :func:`run_cell` reads besides the cell itself.

    ``co_key_ids`` maps a subject id to its ``(owner_id, session key id)``
    pairs; ``session`` holds the subject keys under the subject ids and the
    co-owner keys under those session ids.
    """

    models: Mapping[str, QuantizedModel]
    harnesses: Mapping[str, EvaluationHarness]
    attacks: Mapping[str, AttackSpec]
    co_key_ids: Mapping[str, Tuple[Tuple[str, str], ...]]
    evaluate_quality: bool
    seed: int
    session: FleetVerificationSession


@dataclass
class CellOutcome:
    """One executed cell: its report row plus executor telemetry.

    ``worker_pid`` and ``spans`` are filled in by process workers only
    (utilization and trace shipping); none of it reaches a decision field.
    """

    result: GauntletCellResult
    verify_seconds: float
    worker_pid: int = 0
    spans: List[SpanRecord] = field(default_factory=list)


def run_cell(context: CellContext, cell: GridCell) -> CellOutcome:
    """Attack → quality → verify one cell, then release the attacked model."""
    spec = context.attacks[cell.attack]
    session = context.session
    with span("gauntlet.cell", cell=cell.cell_id, attack=cell.attack, strength=cell.strength):
        start = time.perf_counter()
        outcome = spec.apply(context.models[cell.model_id], cell.strength, cell.rng(context.seed))
        quality = (
            context.harnesses[cell.model_id].evaluate(outcome.model)
            if context.evaluate_quality
            else None
        )
        attack_seconds = time.perf_counter() - start
        verify_start = time.perf_counter()
        owner = session.verify(cell.cell_id, outcome.model, cell.model_id)
        co = {
            owner_id: session.verify(cell.cell_id, outcome.model, key_id)
            for owner_id, key_id in context.co_key_ids.get(cell.model_id, ())
        }
        attacker = None
        if outcome.attacker_key is not None:
            # One-shot: the adversary's ticket belongs to this cell alone, so
            # it is verified without session registration.  It was built by
            # the attack's own insertion, so nothing is re-planned here.
            attacker = session.verify_once(
                cell.cell_id, outcome.model, outcome.attacker_key, cell.attacker_key_id
            )
        verify_seconds = time.perf_counter() - verify_start
    result = GauntletCellResult(
        model_id=cell.model_id,
        attack=cell.attack,
        strength=cell.strength,
        strength_unit=spec.strength_unit,
        wer_percent=owner.wer_percent,
        matched_bits=owner.matched_bits,
        total_bits=owner.total_bits,
        false_claim_probability=owner.false_claim_probability,
        owned=owner.owned,
        attacker_wer_percent=None if attacker is None else attacker.wer_percent,
        perplexity=None if quality is None else quality.perplexity,
        zero_shot_accuracy=None if quality is None else quality.zero_shot_accuracy,
        attack_seconds=attack_seconds,
        info=dict(outcome.info),
        co_owner_wer_percent={oid: pair.wer_percent for oid, pair in co.items()},
        co_owner_owned={oid: pair.owned for oid, pair in co.items()},
    )
    # ``outcome`` — and with it the attacked model — dies with this frame,
    # so at most one attacked model per in-flight cell is ever alive.
    return CellOutcome(result=result, verify_seconds=verify_seconds)
