"""The ``sweep`` workload's own process: serial robustness gauntlet passes.

Usage: ``python perfbench/sweep_worker.py --seed N --seconds S --trace 0|1 --out FILE
[--setup-only]``

Set-up builds the RTN-8 base, inserts the owner's watermark (secret seed
from the workload seed), builds the six attacks and runs one warm-up pass
whose decision digest every later pass must repeat; then it prints
``ready``.  The measured part repeats serial ``run_gauntlet`` passes (quality
evaluation off) until ``--seconds`` pass, at least two of them, and writes
its figures as JSON to ``--out``.  With ``--trace 1`` the first half of the
time runs untraced and the second half with the timing wrappers installed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import fixtures  # noqa: E402
from perfbench.fixtures import rng_for  # noqa: E402
from perfbench.oracle import check_sweep_pass  # noqa: E402
from perfbench.spans import SpanStore, Window  # noqa: E402
from perfbench.wrap import SWEEP_ATTACKS, install_sweep  # noqa: E402

MIN_PASSES = 2


class Sweep:
    def __init__(self, seed: int) -> None:
        from repro.engine import WatermarkEngine
        from repro.robustness import GauntletSubject, build_attack

        self.base = fixtures.build_base()
        owner_seed = fixtures.distinct_seeds(rng_for(seed, "owners"), 1)[0]
        self.attacker_seed = int(rng_for(seed, "attacker").integers(2**31))
        self.engine = WatermarkEngine()
        model, key = fixtures.insert_owner(self.engine, self.base, owner_seed)
        self.subject = {"deploy": GauntletSubject(model=model, key=key)}
        calibration = self.base.dataset.calibration
        self.attacks = [build_attack(name, calibration_corpus=calibration)
                        for name in SWEEP_ATTACKS]
        self.reference_digest: Optional[str] = None
        self.problems: List[str] = []
        self.passes = 0
        self.checked_cells = 0
        self.failed_cells = 0

    def run_pass(self) -> List[Window]:
        """One serial pass; returns its cells as windows between completions."""
        from repro.robustness import run_gauntlet

        marks: List[float] = []
        start = time.perf_counter()
        report = run_gauntlet(
            self.subject, self.attacks, engine=self.engine, max_workers=1,
            evaluate_quality=False, seed=self.attacker_seed,
            on_cell=lambda _result, _replayed: marks.append(time.perf_counter()),
        )
        self.passes += 1
        bounds = [start] + marks
        cells = [Window(f"pass{self.passes}:cell{i}", bounds[i], bounds[i + 1])
                 for i in range(len(marks))]
        self.checked_cells += len(report.cells)
        problems = check_sweep_pass(report.decision_digest(), self.reference_digest,
                                    report.cells)
        if self.reference_digest is None:
            self.reference_digest = report.decision_digest()
        if problems:
            self.problems.extend(problems[:5])
            self.failed_cells += len(report.cells)
        return cells

    def run_for(self, seconds: float) -> List[List[Window]]:
        """Passes until ``seconds`` are up (at least ``MIN_PASSES``); their cells."""
        passes: List[List[Window]] = []
        deadline = time.perf_counter() + seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(self.run_pass())
        return passes


def _pass_times(passes: List[List[Window]]) -> Dict[str, list]:
    """Each pass's wall time and its cells' times (ms), in pass order."""
    return {
        "pass_ms": [(cells[-1].end - cells[0].start) * 1000.0 for cells in passes],
        "cell_ms": [[(c.end - c.start) * 1000.0 for c in cells] for cells in passes],
    }


def _cache_lookups(engines) -> Dict[str, int]:
    hits = misses = 0
    for engine in engines:
        stats = engine.cache_info()
        hits += stats.hits
        misses += stats.misses
    return {"hits": hits, "misses": misses}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sweep = Sweep(args.seed)
    sweep.run_pass()  # warm-up: fills plan caches, fixes the reference digest
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result: Dict[str, object] = {}
    if args.trace:
        from repro.engine import get_default_engine
        from repro.eval.harness import EvaluationHarness
        from perfbench.ledger import sweep_ledger

        untraced = sweep.run_for(args.seconds / 2)
        store = SpanStore()
        installed = install_sweep(store)
        engines = (sweep.engine, get_default_engine())
        before = _cache_lookups(engines)
        traced = sweep.run_for(args.seconds / 2)
        after = _cache_lookups(engines)
        EvaluationHarness(sweep.base.dataset, num_task_examples=8).evaluate(
            sweep.subject["deploy"].model
        )
        installed.remove()
        ledger = sweep_ledger(store.spans(), [w for cells in traced for w in cells])
        hits = after["hits"] - before["hits"]
        lookups = hits + after["misses"] - before["misses"]
        ledger.set("engine.plan_cache_hit_ratio", hits / lookups if lookups else 0.0, lookups)
        result["ledger"] = {"values": ledger.values, "counts": ledger.counts}
        result["untraced"] = _pass_times(untraced)
        store.dump(Path(args.out).with_suffix(".spans.json"))
        passes = traced
    else:
        passes = sweep.run_for(args.seconds)

    result.update(_pass_times(passes))
    result.update({
        "cells_per_pass": len(passes[0]),
        "checked_cells": sweep.checked_cells,
        "failed_cells": sweep.failed_cells,
        "problems": sweep.problems,
        "reference_digest": sweep.reference_digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
