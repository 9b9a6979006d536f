#!/usr/bin/env python3
"""Validate ``BENCH_*.json`` artifacts and gate on regression thresholds.

Every benchmark in this directory emits a JSON report; CI uploads them as
artifacts and the ``bench-regression`` job feeds them back through this
script.  Two layers of checking run per report:

1. **Schema validation** — the fields downstream tooling (CI gates, the
   README tables, dashboards) reads must exist with the right types.  A
   benchmark refactor that silently renames ``speedup`` fails here instead
   of green-washing the gate.
2. **Regression gates** — decision-equivalence flags must hold in every
   mode, and the timing/speedup floors apply in measured mode (smoke runs
   on shared CI runners are not fair timings, exactly as the benchmarks
   themselves reason).

The thresholds live here — in versioned, unit-tested Python — rather than
inline in workflow YAML, so changing a bar is a reviewed diff and the bars
are testable (``tests/benchmarks/test_compare_bench.py``).

Usage::

    python benchmarks/compare_bench.py benchmarks/results/BENCH_gauntlet.json
    python benchmarks/compare_bench.py artifacts/          # dirs are globbed

Exit code 0 when every report validates and passes its gates, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

__all__ = [
    "GAUNTLET_MIN_WER",
    "GAUNTLET_CAPACITY_WER",
    "MIN_SPEEDUP_MEASURED",
    "MIN_PROCESS_SPEEDUP_MEASURED",
    "MIN_TELEMETRY_THROUGHPUT_RATIO",
    "MIN_FLEET_SPEEDUP_MEASURED",
    "FLEET_SPEEDUP_SHARDS",
    "validate_schema",
    "check_gates",
    "evaluate_report",
    "collect_reports",
    "main",
]

# ----------------------------------------------------------------------
# Versioned thresholds (formerly hardcoded inline in ci.yml)
# ----------------------------------------------------------------------
#: Per-attack worst-case WER floors on the gauntlet's figure grids.  The
#: paper's headline claims: the watermark survives overwriting (>99% at real
#: scale; >90% on the scaled sims) and re-watermarking (>95% / >80% scaled).
GAUNTLET_MIN_WER: Dict[str, float] = {
    "overwrite": 90.0,
    "rewatermark": 80.0,
}
#: Untouched watermarked models (the Figure 3 capacity subjects) must
#: extract perfectly.
GAUNTLET_CAPACITY_WER = 100.0
#: Speedup floors applied in measured mode only: parallel gauntlet vs
#: serial, engine round-trip vs the seed pipeline, warm vs cold extraction,
#: and warm vs cold service throughput must never regress below parity.
MIN_SPEEDUP_MEASURED = 1.0
#: The process executor's acceptance bar: on a ≥ 4-core host in measured
#: mode, 4 worker processes over shared-memory residents must complete the
#: figure grids ≥ 1.5× faster than serial.  Only applied when the report's
#: ``cpu_count`` clears the worker width — a single-core runner cannot
#: parallelize the grid in any executor.
MIN_PROCESS_SPEEDUP_MEASURED = 1.5
#: The observability layer's overhead bar: a serial gauntlet pass with
#: tracing and live progress enabled must retain at least 95% of the
#: uninstrumented pass's throughput (measured mode only — smoke timings on
#: shared runners are noise).  Decision equivalence with telemetry on is
#: gated unconditionally via ``telemetry_digests_equal``.
MIN_TELEMETRY_THROUGHPUT_RATIO = 0.95
#: The sharded fleet's acceptance bar: on a ≥ 4-core host in measured mode,
#: a 4-shard fleet (consistent-hash routed, per-shard plan caches and
#: dispatchers) must sustain ≥ 1.5× the verify throughput of the 1-shard
#: baseline on identical scoped requests.  Decision and occupancy-audit
#: digest equality across shard counts is gated unconditionally — routing
#: must never change a verdict.
MIN_FLEET_SPEEDUP_MEASURED = 1.5
#: Shard width the fleet speedup bar is measured at (and the core count the
#: host must clear for the bar to apply).
FLEET_SPEEDUP_SHARDS = 4


class _Num:
    """Schema marker: a real number that is not a bool."""


#: field name -> expected type (dict/list checked structurally, _Num for
#: numbers — ``bool`` is an ``int`` in Python, so numbers get their own
#: marker that rejects it).
SCHEMAS: Dict[str, Dict[str, object]] = {
    "gauntlet": {
        "benchmark": str,
        "smoke": bool,
        "mode": str,
        "cpu_count": int,
        "grid": dict,
        "repeats": int,
        "serial_seconds": _Num,
        "parallel_seconds": _Num,
        "process_seconds": _Num,
        "parallel_workers": int,
        "speedup": _Num,
        "process_speedup": _Num,
        "process_start_method": str,
        "peak_rss_kb": dict,
        "instrumented_seconds": _Num,
        "telemetry_throughput_ratio": _Num,
        "telemetry_spans_recorded": int,
        "decision_digests_equal": bool,
        "streaming_batched_digests_equal": bool,
        "streaming_process_digests_equal": bool,
        "telemetry_digests_equal": bool,
        "decision_digests": list,
        "min_wer_by_attack": dict,
        "plan_cache": dict,
    },
    "engine_throughput": {
        "benchmark": str,
        "smoke": bool,
        "num_layers": int,
        "seed_roundtrip_seconds": _Num,
        "engine_roundtrip_seconds": _Num,
        "roundtrip_speedup_vs_seed": _Num,
        "insertions_per_sec": _Num,
        "extractions_per_sec_cold": _Num,
        "extractions_per_sec_warm": _Num,
        "warm_vs_cold_extraction_speedup": _Num,
        "plan_cache": dict,
    },
    "service_load": {
        "benchmark": str,
        "smoke": bool,
        "fleet": dict,
        "throughput_rps_cold": _Num,
        "throughput_rps_warm": _Num,
        "warm_over_cold_speedup": _Num,
        "concurrency_levels": dict,
        "decisions_checked_against_direct_verify_fleet": int,
    },
    "service_fleet": {
        "benchmark": str,
        "smoke": bool,
        "cpu_count": int,
        "fleet": dict,
        "shard_counts": list,
        "shard_levels": dict,
        "speedup_4_vs_1": _Num,
        "decision_digest_single": str,
        "decision_digests_by_shards": dict,
        "decision_digests_equal": bool,
        "audit_digests_by_shards": dict,
        "audit_digests_equal": bool,
        "registry_scale": dict,
        "registry_cold_start_key_loads_x1000": int,
        "registry_cold_start_tickets_x1000": int,
        "registry_first_touch_key_loads_x1000": int,
    },
    "service_jobs": {
        "benchmark": str,
        "smoke": bool,
        "grid": dict,
        "total_cells": int,
        "cancelled_after_cells": int,
        "replayed_cells": int,
        "fresh_cells": int,
        "events_streamed": int,
        "uninterrupted_decision_digest": str,
        "resumed_decision_digest": str,
        "digest_match": bool,
        "job_states": list,
    },
}


def _type_ok(value: object, expected: object) -> bool:
    if expected is _Num:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, expected)


def _type_name(expected: object) -> str:
    return "number" if expected is _Num else getattr(expected, "__name__", str(expected))


def validate_schema(report: Dict[str, object]) -> List[str]:
    """Structural errors of ``report`` against its declared benchmark kind."""
    kind = report.get("benchmark")
    if kind not in SCHEMAS:
        return [f"unknown benchmark kind {kind!r}; known: {sorted(SCHEMAS)}"]
    errors = []
    for field, expected in SCHEMAS[kind].items():
        if field not in report:
            errors.append(f"missing required field {field!r}")
        elif not _type_ok(report[field], expected):
            errors.append(
                f"field {field!r} should be {_type_name(expected)}, "
                f"got {type(report[field]).__name__}"
            )
    return errors


# ----------------------------------------------------------------------
# Regression gates
# ----------------------------------------------------------------------
def _gate_gauntlet(report: Dict[str, object]) -> List[str]:
    failures = []
    if report["decision_digests_equal"] is not True:
        failures.append("serial and parallel gauntlet decisions differ")
    if report["streaming_batched_digests_equal"] is not True:
        failures.append("streaming and batched gauntlet decisions differ")
    if report["streaming_process_digests_equal"] is not True:
        failures.append("streaming and process gauntlet decisions differ")
    if report["telemetry_digests_equal"] is not True:
        failures.append("tracing/progress changed gauntlet decisions")
    if (
        not report["serial_seconds"] > 0
        or not report["parallel_seconds"] > 0
        or not report["process_seconds"] > 0
    ):
        failures.append("timings must be positive")
    min_wer = report["min_wer_by_attack"]
    for attack, floor in GAUNTLET_MIN_WER.items():
        observed = min_wer.get(attack)
        if observed is None:
            failures.append(f"min_wer_by_attack is missing attack {attack!r}")
        elif not observed > floor:
            failures.append(
                f"min WER under {attack} is {observed:.2f}%, needs > {floor}%"
            )
    capacity = min_wer.get("capacity")
    if capacity is None:
        failures.append("min_wer_by_attack is missing the capacity rows")
    elif capacity != GAUNTLET_CAPACITY_WER:
        failures.append(
            f"capacity-subject WER is {capacity:.2f}%, must be exactly "
            f"{GAUNTLET_CAPACITY_WER}%"
        )
    if not report["smoke"] and report["speedup"] < MIN_SPEEDUP_MEASURED:
        failures.append(
            f"parallel gauntlet speedup {report['speedup']:.2f}x regressed below "
            f"{MIN_SPEEDUP_MEASURED}x (measured mode)"
        )
    if (
        not report["smoke"]
        and report["cpu_count"] >= report["parallel_workers"]
        and report["process_speedup"] < MIN_PROCESS_SPEEDUP_MEASURED
    ):
        failures.append(
            f"process gauntlet speedup {report['process_speedup']:.2f}x is below "
            f"{MIN_PROCESS_SPEEDUP_MEASURED}x "
            f"(measured mode, {report['cpu_count']} cores)"
        )
    if (
        not report["smoke"]
        and report["telemetry_throughput_ratio"] < MIN_TELEMETRY_THROUGHPUT_RATIO
    ):
        failures.append(
            f"instrumented gauntlet retains only "
            f"{report['telemetry_throughput_ratio']:.2f}x of uninstrumented "
            f"throughput, below {MIN_TELEMETRY_THROUGHPUT_RATIO}x (measured mode)"
        )
    return failures


def _gate_engine(report: Dict[str, object]) -> List[str]:
    failures = []
    if not report["insertions_per_sec"] > 0:
        failures.append("insertions_per_sec must be positive")
    if not report["extractions_per_sec_warm"] > 0:
        failures.append("extractions_per_sec_warm must be positive")
    if not report["smoke"]:
        if report["roundtrip_speedup_vs_seed"] < MIN_SPEEDUP_MEASURED:
            failures.append(
                f"engine round-trip speedup vs seed {report['roundtrip_speedup_vs_seed']:.2f}x "
                f"regressed below {MIN_SPEEDUP_MEASURED}x (measured mode)"
            )
        if report["warm_vs_cold_extraction_speedup"] < MIN_SPEEDUP_MEASURED:
            failures.append(
                f"warm extraction speedup {report['warm_vs_cold_extraction_speedup']:.2f}x "
                f"regressed below {MIN_SPEEDUP_MEASURED}x (measured mode)"
            )
    return failures


def _gate_service(report: Dict[str, object]) -> List[str]:
    failures = []
    if not report["throughput_rps_cold"] > 0:
        failures.append("cold throughput must be positive")
    if not report["throughput_rps_warm"] > 0:
        failures.append("warm throughput must be positive")
    for level, result in report["concurrency_levels"].items():
        if not isinstance(result, dict) or not result.get("throughput_rps", 0) > 0:
            failures.append(f"concurrency level {level!r} reports no throughput")
    if not report["decisions_checked_against_direct_verify_fleet"] > 0:
        failures.append("no decisions were checked against direct verify_fleet")
    if not report["smoke"] and report["warm_over_cold_speedup"] < MIN_SPEEDUP_MEASURED:
        failures.append(
            f"warm-over-cold throughput {report['warm_over_cold_speedup']:.2f}x "
            f"regressed below {MIN_SPEEDUP_MEASURED}x (measured mode)"
        )
    return failures


def _gate_service_fleet(report: Dict[str, object]) -> List[str]:
    failures = []
    if report["decision_digests_equal"] is not True:
        failures.append("fleet decisions diverged from the unsharded server")
    for shards, digest in report["decision_digests_by_shards"].items():
        if digest != report["decision_digest_single"]:
            failures.append(
                f"{shards}-shard decision digest {digest!r} != unsharded "
                f"{report['decision_digest_single']!r}"
            )
    if report["audit_digests_equal"] is not True:
        failures.append("occupancy-audit digest changed with the shard count")
    if len(set(report["audit_digests_by_shards"].values())) > 1:
        failures.append("audit_digests_by_shards carries more than one digest")
    for level, result in report["shard_levels"].items():
        if not isinstance(result, dict) or not result.get("throughput_rps", 0) > 0:
            failures.append(f"shard level {level!r} reports no throughput")
    # Lazy tickets are a structural claim, never a timing: re-opening a
    # registry over ×1000 persisted keys must read zero NPZ archives, and
    # the first touch of a key derives its ticket from exactly one load.
    if report["registry_cold_start_key_loads_x1000"] != 0:
        failures.append(
            f"registry startup performed "
            f"{report['registry_cold_start_key_loads_x1000']} bulk NPZ loads "
            "at x1000 scale (must be 0)"
        )
    if report["registry_cold_start_tickets_x1000"] != 0:
        failures.append(
            f"registry startup left {report['registry_cold_start_tickets_x1000']} "
            "tickets resident at x1000 scale (must be 0)"
        )
    if report["registry_first_touch_key_loads_x1000"] != 1:
        failures.append(
            f"first touch of a key performed "
            f"{report['registry_first_touch_key_loads_x1000']} key loads "
            "at x1000 scale (must be exactly 1)"
        )
    if (
        not report["smoke"]
        and report["cpu_count"] >= FLEET_SPEEDUP_SHARDS
        and report["speedup_4_vs_1"] < MIN_FLEET_SPEEDUP_MEASURED
    ):
        failures.append(
            f"4-shard fleet speedup {report['speedup_4_vs_1']:.2f}x is below "
            f"{MIN_FLEET_SPEEDUP_MEASURED}x "
            f"(measured mode, {report['cpu_count']} cores)"
        )
    return failures


def _gate_service_jobs(report: Dict[str, object]) -> List[str]:
    """The async-jobs resume bar, gated unconditionally (never a timing):
    a sweep cancelled mid-run and resumed from its checkpoint must replay
    the completed cells and land on a digest **bit-identical** to the
    uninterrupted run of the same grid."""
    failures = []
    if report["digest_match"] is not True:
        failures.append("resumed job digest differs from the uninterrupted run")
    if not report["uninterrupted_decision_digest"]:
        failures.append("uninterrupted_decision_digest is empty")
    if report["resumed_decision_digest"] != report["uninterrupted_decision_digest"]:
        failures.append(
            "resumed_decision_digest does not equal uninterrupted_decision_digest"
        )
    if not report["replayed_cells"] >= 1:
        failures.append("resume replayed no checkpointed cells")
    if report["replayed_cells"] + report["fresh_cells"] != report["total_cells"]:
        failures.append("replayed + fresh cells must cover the whole grid")
    if not report["events_streamed"] > report["total_cells"]:
        failures.append(
            "event stream must carry every cell verdict plus the end record"
        )
    return failures


_GATES = {
    "gauntlet": _gate_gauntlet,
    "engine_throughput": _gate_engine,
    "service_load": _gate_service,
    "service_fleet": _gate_service_fleet,
    "service_jobs": _gate_service_jobs,
}


def check_gates(report: Dict[str, object]) -> List[str]:
    """Regression-gate failures (assumes the schema already validated)."""
    return _GATES[report["benchmark"]](report)


def evaluate_report(report: Dict[str, object]) -> List[str]:
    """All problems with one report: schema errors, then (if clean) gates."""
    errors = validate_schema(report)
    if errors:
        return errors
    return check_gates(report)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def collect_reports(paths: List[str]) -> List[Path]:
    """Expand files/directories into the BENCH_*.json files they contain."""
    found: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.extend(sorted(path.rglob("BENCH_*.json")))
        else:
            found.append(path)
    return found


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+",
                        help="BENCH_*.json files, or directories to glob")
    args = parser.parse_args(argv)
    files = collect_reports(args.paths)
    if not files:
        print("error: no BENCH_*.json reports found", file=sys.stderr)
        return 2
    exit_code = 0
    for path in files:
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"FAIL {path}: unreadable report ({exc})")
            exit_code = 1
            continue
        if not isinstance(report, dict):
            print(f"FAIL {path}: report must be a JSON object")
            exit_code = 1
            continue
        problems = evaluate_report(report)
        if problems:
            print(f"FAIL {path} ({report.get('benchmark', '?')}):")
            for problem in problems:
                print(f"  - {problem}")
            exit_code = 1
        else:
            mode = "smoke" if report.get("smoke") else "measured"
            print(f"OK   {path} ({report['benchmark']}, {mode} mode)")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
