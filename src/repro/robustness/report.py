"""Aggregated results of a robustness gauntlet run.

A gauntlet executes an (attack × strength × model) grid; every cell yields
the attacked model's ownership evidence (WER, matched bits, Equation 8
probability, verdict), optionally its quality (perplexity, zero-shot
accuracy) and, for re-watermarking cells, the adversary's own extraction
rate.  :class:`RobustnessReport` collects the cells and answers the
questions Figures 2a/2b/3 ask of them:

* :meth:`RobustnessReport.min_wer_by_attack` — the watermark's worst case
  under each attack (the paper's ">99% under overwriting" style claims),
* :meth:`RobustnessReport.frontier` — the quality-vs-WER frontier: how much
  model quality an adversary must burn to push the WER down,
* :meth:`RobustnessReport.to_table` / :meth:`to_dict` — rendering for humans
  and machines (CLI, benchmarks, the ``/v1/jobs/robustness`` report).

Decision fields are deterministic for a fixed (subjects, attacks,
strengths, seed) grid regardless of the gauntlet's worker count;
:meth:`RobustnessReport.decision_digest` condenses them into one hash so
equivalence gates are a string comparison.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.utils.tables import Table, format_float

__all__ = ["GauntletCellResult", "RobustnessReport", "format_cell_id"]


def format_cell_id(model_id: str, attack: str, strength: float) -> str:
    """Stable identifier of a grid cell: its suspect id and checkpoint key."""
    return f"{model_id}/{attack}@{strength:g}"


@dataclass
class GauntletCellResult:
    """One (model, attack, strength) cell of the gauntlet grid.

    Quality fields are ``None`` when the gauntlet ran without an evaluation
    harness (e.g. on the verification server, which holds no dataset);
    ``attacker_wer_percent`` is ``None`` unless the attack inserted its own
    watermark.
    """

    model_id: str
    attack: str
    strength: float
    #: Display label for the strength axis; the strength *value* is digested
    #: via ``cell_id``.
    strength_unit: str = field(metadata={"informational": True})
    wer_percent: float
    matched_bits: int
    total_bits: int
    #: Equation 8, fully determined by the digested ``matched_bits`` /
    #: ``total_bits`` pair — re-digesting the float would only pin its
    #: formatting.
    false_claim_probability: float = field(metadata={"informational": True})
    owned: bool
    attacker_wer_percent: Optional[float] = None
    perplexity: Optional[float] = None
    zero_shot_accuracy: Optional[float] = None
    #: Wall-clock timing — varies run to run by construction.
    attack_seconds: float = field(default=0.0, metadata={"informational": True})
    #: Free-form attack annotations (worker ids, trace spans, ...).
    info: Dict[str, object] = field(
        default_factory=dict, metadata={"informational": True}
    )
    #: Per-co-resident-owner evidence for multi-owner subjects (``co_keys``
    #: on the :class:`~repro.robustness.gauntlet.GauntletSubject`); empty for
    #: single-owner grids.
    co_owner_wer_percent: Dict[str, float] = field(default_factory=dict)
    co_owner_owned: Dict[str, bool] = field(default_factory=dict)

    @property
    def cell_id(self) -> str:
        """Stable identifier of the cell inside its grid."""
        return format_cell_id(self.model_id, self.attack, self.strength)

    def decision_fields(self) -> Tuple:
        """The worker-count-invariant fields (used for equivalence gates)."""
        fields = (
            self.cell_id,
            self.wer_percent,
            self.matched_bits,
            self.total_bits,
            self.owned,
            self.attacker_wer_percent,
            self.perplexity,
            self.zero_shot_accuracy,
        )
        if self.co_owner_wer_percent:
            # Appended only for multi-owner cells so single-owner digests —
            # which the versioned benchmark gates pin — stay unchanged.
            fields += (
                tuple(sorted(self.co_owner_wer_percent.items())),
                tuple(sorted(self.co_owner_owned.items())),
            )
        return fields

    @classmethod
    def from_dict(cls, payload: dict) -> "GauntletCellResult":
        """Rebuild a cell from its :meth:`to_dict` form (checkpoint replay).

        Inverse of :meth:`to_dict` for every decision field: floats, ints,
        bools and ``None`` round-trip exactly through JSON, so a replayed
        cell's :meth:`decision_fields` — and with them the report's
        :meth:`~RobustnessReport.decision_digest` — are bit-identical to the
        originals.
        """
        return cls(
            model_id=str(payload["model_id"]),
            attack=str(payload["attack"]),
            strength=float(payload["strength"]),
            strength_unit=str(payload.get("strength_unit", "")),
            wer_percent=float(payload["wer_percent"]),
            matched_bits=int(payload["matched_bits"]),
            total_bits=int(payload["total_bits"]),
            false_claim_probability=float(payload.get("false_claim_probability", 0.0)),
            owned=bool(payload["owned"]),
            attacker_wer_percent=(
                None
                if payload.get("attacker_wer_percent") is None
                else float(payload["attacker_wer_percent"])
            ),
            perplexity=(
                None
                if payload.get("perplexity") is None
                else float(payload["perplexity"])
            ),
            zero_shot_accuracy=(
                None
                if payload.get("zero_shot_accuracy") is None
                else float(payload["zero_shot_accuracy"])
            ),
            attack_seconds=float(payload.get("attack_seconds", 0.0)),
            info=dict(payload.get("info") or {}),
            co_owner_wer_percent={
                str(owner): float(wer)
                for owner, wer in (payload.get("co_owner_wer_percent") or {}).items()
            },
            co_owner_owned={
                str(owner): bool(owned)
                for owner, owned in (payload.get("co_owner_owned") or {}).items()
            },
        )

    def to_dict(self) -> dict:
        """JSON-able form of the cell."""
        return {
            "model_id": self.model_id,
            "attack": self.attack,
            "strength": self.strength,
            "strength_unit": self.strength_unit,
            "wer_percent": self.wer_percent,
            "matched_bits": self.matched_bits,
            "total_bits": self.total_bits,
            "false_claim_probability": self.false_claim_probability,
            "owned": self.owned,
            "attacker_wer_percent": self.attacker_wer_percent,
            "perplexity": self.perplexity,
            "zero_shot_accuracy": self.zero_shot_accuracy,
            "attack_seconds": self.attack_seconds,
            "info": self.info,
            "co_owner_wer_percent": dict(self.co_owner_wer_percent),
            "co_owner_owned": dict(self.co_owner_owned),
        }


@dataclass
class RobustnessReport:
    """Structured result of one :class:`~repro.robustness.gauntlet.Gauntlet` run.

    ``cells`` are ordered grid-major (subjects, then attacks, then
    strengths, exactly as submitted), independent of which worker finished
    first.
    """

    cells: List[GauntletCellResult] = field(default_factory=list)
    seed: int = 0
    workers: int = 1
    wall_clock_seconds: float = 0.0
    verify_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: How cells were actually executed: "serial", "thread" or "process"
    #: (an "auto" request records what it resolved to).  Informational only
    #: — decision fields and the digest are executor-invariant.
    executor: str = "serial"
    #: Multiprocessing start method of a process-executor run ("fork"/
    #: "spawn"/"forkserver"); ``None`` for the in-process executors.
    start_method: Optional[str] = None
    #: Busy fraction per worker process (``{pid: busy_seconds / wall}``) of a
    #: process-executor run; empty for the in-process executors.
    #: Informational telemetry — never part of :meth:`decision_digest`.
    worker_utilization: Dict[str, float] = field(default_factory=dict)

    @property
    def cells_per_second(self) -> float:
        """Sweep throughput (informational; 0.0 when wall clock is unknown)."""
        if self.wall_clock_seconds <= 0:
            return 0.0
        return self.num_cells / self.wall_clock_seconds

    # -- structure ---------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Number of grid cells executed."""
        return len(self.cells)

    def attacks(self) -> List[str]:
        """Attack names present in the grid, in first-seen order."""
        seen: List[str] = []
        for cell in self.cells:
            if cell.attack not in seen:
                seen.append(cell.attack)
        return seen

    def model_ids(self) -> List[str]:
        """Subject ids present in the grid, in first-seen order."""
        seen: List[str] = []
        for cell in self.cells:
            if cell.model_id not in seen:
                seen.append(cell.model_id)
        return seen

    def cells_for(
        self, attack: Optional[str] = None, model_id: Optional[str] = None
    ) -> List[GauntletCellResult]:
        """Cells filtered by attack and/or subject."""
        return [
            cell
            for cell in self.cells
            if (attack is None or cell.attack == attack)
            and (model_id is None or cell.model_id == model_id)
        ]

    # -- the robustness questions -----------------------------------------
    def min_wer_by_attack(self) -> Dict[str, float]:
        """Lowest owner WER observed under each attack (worst case)."""
        result: Dict[str, float] = {}
        for cell in self.cells:
            current = result.get(cell.attack)
            if current is None or cell.wer_percent < current:
                result[cell.attack] = cell.wer_percent
        return result

    def min_wer_by_owner(self, model_id: Optional[str] = None) -> Dict[str, float]:
        """Lowest WER per owner across a multi-owner grid (worst case).

        The primary key reports under the owner id ``"<primary>"``;
        co-resident owners report under their ``co_keys`` ids.  Empty
        co-resident maps make this the single-entry primary summary.
        """
        result: Dict[str, float] = {}
        for cell in self.cells_for(model_id=model_id):
            for owner, wer in [("<primary>", cell.wer_percent), *cell.co_owner_wer_percent.items()]:
                current = result.get(owner)
                if current is None or wer < current:
                    result[owner] = wer
        return result

    def frontier(self, model_id: Optional[str] = None) -> List[dict]:
        """The quality-vs-WER frontier: cells sorted by descending WER.

        Each entry pairs the ownership evidence with the quality cost the
        attacker paid for it, so reading the list top to bottom answers
        "how much model quality must an adversary destroy to push the WER
        this low?".  Cells without quality measurements are skipped.
        """
        cells = [
            cell
            for cell in self.cells_for(model_id=model_id)
            if cell.perplexity is not None
        ]
        cells.sort(key=lambda cell: (-cell.wer_percent, cell.perplexity))
        return [
            {
                "cell_id": cell.cell_id,
                "attack": cell.attack,
                "strength": cell.strength,
                "wer_percent": cell.wer_percent,
                "owned": cell.owned,
                "perplexity": cell.perplexity,
                "zero_shot_accuracy": cell.zero_shot_accuracy,
            }
            for cell in cells
        ]

    def decision_digest(self) -> str:
        """SHA-256 over every cell's decision fields.

        Two runs of the same grid must produce the same digest no matter how
        many workers executed them — the benchmark's equivalence gate.
        """
        hasher = hashlib.sha256()
        for cell in self.cells:
            hasher.update(repr(cell.decision_fields()).encode("utf-8"))
        return hasher.hexdigest()

    # -- rendering ---------------------------------------------------------
    def to_table(self, title: str = "Robustness gauntlet") -> Table:
        """Human-readable table of every cell."""
        table = Table(
            title=title,
            columns=[
                "Model",
                "Attack",
                "Strength",
                "PPL",
                "Zero-shot Acc (%)",
                "Owner WER (%)",
                "Attacker WER (%)",
                "Owned",
            ],
        )
        for cell in self.cells:
            table.add_row(
                [
                    cell.model_id,
                    cell.attack,
                    f"{cell.strength:g} {cell.strength_unit}".strip(),
                    "-" if cell.perplexity is None else format_float(cell.perplexity),
                    "-"
                    if cell.zero_shot_accuracy is None
                    else format_float(cell.zero_shot_accuracy),
                    format_float(cell.wer_percent),
                    "-"
                    if cell.attacker_wer_percent is None
                    else format_float(cell.attacker_wer_percent),
                    "yes" if cell.owned else "no",
                ]
            )
        return table

    def render(self) -> str:
        """Rendered table plus the per-attack worst-case summary."""
        lines = [self.to_table().render(), ""]
        for attack, wer in sorted(self.min_wer_by_attack().items()):
            lines.append(f"  min WER under {attack}: {wer:.2f}%")
        lines.append(
            f"  {self.num_cells} cells, {self.workers} workers "
            f"({self.executor}), "
            f"{self.wall_clock_seconds:.3f}s wall clock "
            f"({self.verify_seconds:.3f}s verification)"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-able form (CLI ``--json``, benchmarks, job reports)."""
        return {
            "cells": [cell.to_dict() for cell in self.cells],
            "min_wer_by_attack": self.min_wer_by_attack(),
            "frontier": self.frontier(),
            "decision_digest": self.decision_digest(),
            "seed": self.seed,
            "workers": self.workers,
            "executor": self.executor,
            "start_method": self.start_method,
            "num_cells": self.num_cells,
            "wall_clock_seconds": self.wall_clock_seconds,
            "verify_seconds": self.verify_seconds,
            "cells_per_second": self.cells_per_second,
            "worker_utilization": dict(self.worker_utilization),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialized :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        """One-line human-readable summary."""
        worst = self.min_wer_by_attack()
        worst_attack = min(worst, key=worst.get) if worst else "-"
        return (
            f"gauntlet: {self.num_cells} cells over {len(self.attacks())} attacks, "
            f"worst WER {worst.get(worst_attack, 0.0):.2f}% ({worst_attack}), "
            f"{self.wall_clock_seconds:.3f}s wall clock, {self.workers} workers"
        )
