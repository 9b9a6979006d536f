"""The robustness gauntlet (Section 5.3 at scale).

A declarative attack registry of 11+ removal/forging scenarios
(:mod:`repro.robustness.attacks`), a parallel grid runner that sends
every cell through one cell function (:mod:`repro.robustness.cell`) — each
attacked model is verified through a shared engine verification session
and released as its worker finishes, so peak memory is O(workers), not
O(grid) — on a serial, thread or process executor
(:mod:`repro.robustness.gauntlet`), and a report aggregation
(:mod:`repro.robustness.report`).  The Figure 2a / 2b /
3 experiments, the ``repro gauntlet`` CLI sub-command and the verification
server's ``/v1/jobs/robustness`` route all run on this subsystem.

>>> from repro.robustness import Gauntlet, GauntletSubject, build_attack
>>> subject = GauntletSubject(model=watermarked, key=key, harness=harness)
>>> report = Gauntlet().run(
...     {"deploy-a": subject},
...     [build_attack("overwrite"), build_attack("pruning")],
...     strengths={"overwrite": (0, 100, 300), "pruning": (0.0, 0.5)},
... )
>>> report.min_wer_by_attack()
{'overwrite': 99.4, 'pruning': 97.2}
"""

from repro.robustness.attacks import (
    ATTACK_REGISTRY,
    AttackOutcome,
    AttackSpec,
    available_attacks,
    build_attack,
    corpus_free_attacks,
    register_attack,
)
from repro.robustness.checkpoint import CellCheckpoint, CheckpointError, grid_fingerprint
from repro.robustness.gauntlet import (
    Gauntlet,
    GauntletCancelled,
    GauntletConfig,
    GauntletSubject,
    run_gauntlet,
)
from repro.robustness.report import GauntletCellResult, RobustnessReport

__all__ = [
    "ATTACK_REGISTRY",
    "AttackOutcome",
    "AttackSpec",
    "available_attacks",
    "build_attack",
    "corpus_free_attacks",
    "register_attack",
    "CellCheckpoint",
    "CheckpointError",
    "grid_fingerprint",
    "Gauntlet",
    "GauntletCancelled",
    "GauntletConfig",
    "GauntletSubject",
    "run_gauntlet",
    "GauntletCellResult",
    "RobustnessReport",
]
