"""Unit tests for the versioned benchmark schema/threshold gate.

``benchmarks/compare_bench.py`` is what CI's ``bench-regression`` job runs
over the uploaded ``BENCH_*.json`` artifacts; these tests pin its thresholds
(formerly inline YAML) and its failure modes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

# Under --import-mode=importlib the benchmarks directory is not on sys.path;
# make the gate importable the same way benchmarks/conftest.py imports
# bench_utils.
_BENCH_DIR = str(Path(__file__).resolve().parents[2] / "benchmarks")
if _BENCH_DIR not in sys.path:
    sys.path.insert(0, _BENCH_DIR)

import compare_bench  # noqa: E402


def gauntlet_report(**overrides):
    report = {
        "benchmark": "gauntlet",
        "smoke": True,
        "mode": "streaming",
        "cpu_count": 8,
        "grid": {"total_cells": 19},
        "repeats": 1,
        "serial_seconds": 2.0,
        "parallel_seconds": 1.0,
        "process_seconds": 0.8,
        "parallel_workers": 4,
        "speedup": 2.0,
        "process_speedup": 2.5,
        "process_start_method": "fork",
        "peak_rss_kb": {"parent": 500_000, "worker_max": 120_000},
        "instrumented_seconds": 2.05,
        "telemetry_throughput_ratio": 0.98,
        "telemetry_spans_recorded": 120,
        "decision_digests_equal": True,
        "streaming_batched_digests_equal": True,
        "streaming_process_digests_equal": True,
        "telemetry_digests_equal": True,
        "decision_digests": ["a", "b", "c", "d"],
        "min_wer_by_attack": {
            "overwrite": 97.5,
            "rewatermark": 94.0,
            "capacity": 100.0,
            "gptq/requantize": 12.0,
        },
        "plan_cache": {"hits": 10, "misses": 2},
    }
    report.update(overrides)
    return report


def engine_report(**overrides):
    report = {
        "benchmark": "engine_throughput",
        "smoke": True,
        "num_layers": 24,
        "seed_roundtrip_seconds": 2.0,
        "engine_roundtrip_seconds": 0.5,
        "roundtrip_speedup_vs_seed": 4.0,
        "insertions_per_sec": 10.0,
        "extractions_per_sec_cold": 5.0,
        "extractions_per_sec_warm": 50.0,
        "warm_vs_cold_extraction_speedup": 10.0,
        "plan_cache": {"hits": 1},
    }
    report.update(overrides)
    return report


def service_report(**overrides):
    report = {
        "benchmark": "service_load",
        "smoke": True,
        "fleet": {"num_keys": 3},
        "throughput_rps_cold": 40.0,
        "throughput_rps_warm": 90.0,
        "warm_over_cold_speedup": 2.25,
        "concurrency_levels": {"4": {"throughput_rps": 80.0}},
        "decisions_checked_against_direct_verify_fleet": 12,
    }
    report.update(overrides)
    return report


def fleet_report(**overrides):
    digest = "dec-" + "a" * 20
    audit = "aud-" + "b" * 20
    report = {
        "benchmark": "service_fleet",
        "smoke": True,
        "cpu_count": 8,
        "fleet": {"model_families": 4, "keys": 4},
        "shard_counts": [1, 2, 4],
        "shard_levels": {
            "1": {"throughput_rps": 40.0},
            "2": {"throughput_rps": 60.0},
            "4": {"throughput_rps": 80.0},
        },
        "speedup_4_vs_1": 2.0,
        "decision_digest_single": digest,
        "decision_digests_by_shards": {"1": digest, "2": digest, "4": digest},
        "decision_digests_equal": True,
        "audit_digests_by_shards": {"1": audit, "2": audit, "4": audit},
        "audit_digests_equal": True,
        "registry_scale": {"x1000": {"keys": 1000}},
        "registry_cold_start_key_loads_x1000": 0,
        "registry_cold_start_tickets_x1000": 0,
        "registry_first_touch_key_loads_x1000": 1,
    }
    report.update(overrides)
    return report


def jobs_report(**overrides):
    digest = "a" * 64
    report = {
        "benchmark": "service_jobs",
        "smoke": True,
        "grid": {"overwrite": [0, 60]},
        "total_cells": 5,
        "cancelled_after_cells": 2,
        "replayed_cells": 2,
        "fresh_cells": 3,
        "events_streamed": 6,
        "uninterrupted_decision_digest": digest,
        "resumed_decision_digest": digest,
        "digest_match": True,
        "job_states": ["cancelled", "succeeded"],
    }
    report.update(overrides)
    return report


class TestSchemaValidation:
    @pytest.mark.parametrize(
        "factory",
        [
            gauntlet_report,
            engine_report,
            service_report,
            fleet_report,
            jobs_report,
        ],
    )
    def test_valid_reports_pass(self, factory):
        assert compare_bench.evaluate_report(factory()) == []

    def test_unknown_kind_rejected(self):
        errors = compare_bench.validate_schema({"benchmark": "vibes"})
        assert errors and "unknown benchmark kind" in errors[0]

    def test_missing_field_reported_by_name(self):
        report = gauntlet_report()
        del report["speedup"]
        errors = compare_bench.validate_schema(report)
        assert any("'speedup'" in e and "missing" in e for e in errors)

    def test_wrong_type_reported(self):
        errors = compare_bench.validate_schema(gauntlet_report(serial_seconds="fast"))
        assert any("'serial_seconds'" in e and "number" in e for e in errors)

    def test_bool_is_not_a_number(self):
        # True would satisfy isinstance(x, int): the schema must reject it.
        errors = compare_bench.validate_schema(gauntlet_report(speedup=True))
        assert any("'speedup'" in e for e in errors)

    def test_schema_errors_shortcircuit_gates(self):
        report = gauntlet_report(decision_digests_equal=False)
        del report["min_wer_by_attack"]
        problems = compare_bench.evaluate_report(report)
        # Only the schema error is reported; gates never ran on a bad shape.
        assert all("missing" in p for p in problems)


class TestGauntletGates:
    def test_decision_equivalence_flag_gates(self):
        problems = compare_bench.evaluate_report(
            gauntlet_report(decision_digests_equal=False)
        )
        assert any("serial and parallel" in p for p in problems)

    def test_streaming_batched_flag_gates(self):
        problems = compare_bench.evaluate_report(
            gauntlet_report(streaming_batched_digests_equal=False)
        )
        assert any("streaming and batched" in p for p in problems)

    def test_overwrite_wer_threshold_is_versioned_here(self):
        assert compare_bench.GAUNTLET_MIN_WER["overwrite"] == 90.0
        bad = gauntlet_report()
        bad["min_wer_by_attack"]["overwrite"] = 85.0
        problems = compare_bench.evaluate_report(bad)
        assert any("overwrite" in p and "90" in p for p in problems)

    def test_exactly_at_floor_fails(self):
        # The historical gate was strictly greater-than; keep it that way.
        bad = gauntlet_report()
        bad["min_wer_by_attack"]["overwrite"] = 90.0
        assert compare_bench.evaluate_report(bad)

    def test_missing_attack_row_fails(self):
        bad = gauntlet_report()
        del bad["min_wer_by_attack"]["rewatermark"]
        problems = compare_bench.evaluate_report(bad)
        assert any("rewatermark" in p for p in problems)

    def test_capacity_must_be_perfect(self):
        bad = gauntlet_report()
        bad["min_wer_by_attack"]["capacity"] = 99.9
        problems = compare_bench.evaluate_report(bad)
        assert any("capacity" in p for p in problems)

    def test_speedup_gate_skipped_in_smoke_mode(self):
        assert compare_bench.evaluate_report(gauntlet_report(speedup=0.4)) == []

    def test_speedup_gate_applies_in_measured_mode(self):
        problems = compare_bench.evaluate_report(
            gauntlet_report(smoke=False, speedup=0.9)
        )
        assert any("speedup" in p for p in problems)
        assert compare_bench.evaluate_report(
            gauntlet_report(smoke=False, speedup=1.0)
        ) == []

    def test_streaming_process_flag_gates(self):
        problems = compare_bench.evaluate_report(
            gauntlet_report(streaming_process_digests_equal=False)
        )
        assert any("streaming and process" in p for p in problems)

    def test_process_speedup_bar_is_1_5x(self):
        assert compare_bench.MIN_PROCESS_SPEEDUP_MEASURED == 1.5
        problems = compare_bench.evaluate_report(
            gauntlet_report(smoke=False, process_speedup=1.4)
        )
        assert any("process gauntlet speedup" in p for p in problems)
        assert compare_bench.evaluate_report(
            gauntlet_report(smoke=False, process_speedup=1.5)
        ) == []

    def test_process_speedup_gate_skipped_below_worker_width(self):
        # A single-core runner cannot parallelize the grid in any executor:
        # the bar only applies when the host clears the worker count.
        assert compare_bench.evaluate_report(
            gauntlet_report(smoke=False, cpu_count=1, process_speedup=0.8)
        ) == []

    def test_process_speedup_gate_skipped_in_smoke_mode(self):
        assert compare_bench.evaluate_report(
            gauntlet_report(process_speedup=0.4)
        ) == []

    def test_process_timing_must_be_positive(self):
        problems = compare_bench.evaluate_report(gauntlet_report(process_seconds=0.0))
        assert any("timings" in p for p in problems)

    def test_telemetry_digest_flag_gates_even_in_smoke(self):
        problems = compare_bench.evaluate_report(
            gauntlet_report(telemetry_digests_equal=False)
        )
        assert any("tracing/progress changed" in p for p in problems)

    def test_telemetry_overhead_bar_is_0_95x(self):
        assert compare_bench.MIN_TELEMETRY_THROUGHPUT_RATIO == 0.95
        problems = compare_bench.evaluate_report(
            gauntlet_report(smoke=False, telemetry_throughput_ratio=0.90)
        )
        assert any("instrumented gauntlet" in p for p in problems)
        assert compare_bench.evaluate_report(
            gauntlet_report(smoke=False, telemetry_throughput_ratio=0.95)
        ) == []

    def test_telemetry_overhead_gate_skipped_in_smoke_mode(self):
        assert compare_bench.evaluate_report(
            gauntlet_report(telemetry_throughput_ratio=0.5)
        ) == []


class TestEngineAndServiceGates:
    def test_engine_zero_throughput_fails(self):
        problems = compare_bench.evaluate_report(engine_report(insertions_per_sec=0.0))
        assert any("insertions_per_sec" in p for p in problems)

    def test_engine_measured_mode_speedup_floors(self):
        problems = compare_bench.evaluate_report(
            engine_report(smoke=False, roundtrip_speedup_vs_seed=0.8)
        )
        assert any("round-trip" in p for p in problems)

    def test_service_level_without_throughput_fails(self):
        problems = compare_bench.evaluate_report(
            service_report(concurrency_levels={"4": {"throughput_rps": 0.0}})
        )
        assert any("concurrency level" in p for p in problems)

    def test_service_measured_warm_regression_fails(self):
        problems = compare_bench.evaluate_report(
            service_report(smoke=False, warm_over_cold_speedup=0.5)
        )
        assert any("warm-over-cold" in p for p in problems)


class TestServiceFleetGates:
    """The sharded-fleet bars: bit-identity and lazy residency are
    unconditional; the 4-shard speedup floor applies only measured on a
    wide-enough host."""

    def test_decision_divergence_flag_gates_even_in_smoke(self):
        problems = compare_bench.evaluate_report(
            fleet_report(decision_digests_equal=False)
        )
        assert any("diverged from the unsharded server" in p for p in problems)

    def test_digest_fields_must_agree_with_the_flag(self):
        # decision_digests_equal=True but a per-shard digest differs: the
        # cross-check catches a benchmark that computes the flag wrong.
        by_shards = {"1": "dec-" + "a" * 20, "2": "dec-" + "c" * 20}
        problems = compare_bench.evaluate_report(
            fleet_report(decision_digests_by_shards=by_shards)
        )
        assert any("2-shard decision digest" in p for p in problems)

    def test_audit_digest_instability_fails(self):
        problems = compare_bench.evaluate_report(
            fleet_report(audit_digests_equal=False)
        )
        assert any("occupancy-audit digest changed" in p for p in problems)

    def test_audit_digest_set_cross_checked(self):
        audits = {"1": "aud-" + "b" * 20, "2": "aud-" + "d" * 20}
        problems = compare_bench.evaluate_report(
            fleet_report(audit_digests_by_shards=audits)
        )
        assert any("more than one digest" in p for p in problems)

    def test_shard_level_without_throughput_fails(self):
        report = fleet_report()
        report["shard_levels"]["2"] = {"throughput_rps": 0.0}
        problems = compare_bench.evaluate_report(report)
        assert any("shard level '2'" in p for p in problems)

    def test_cold_start_npz_loads_fail_even_in_smoke(self):
        # Lazy residency is structural: re-opening a x1000 registry must
        # read zero archives regardless of mode.
        problems = compare_bench.evaluate_report(
            fleet_report(registry_cold_start_key_loads_x1000=1000)
        )
        assert any("bulk NPZ loads" in p for p in problems)

    def test_cold_start_resident_keys_fail_even_in_smoke(self):
        # What a registry keeps resident per key is its ticket; startup must
        # derive none of them.
        problems = compare_bench.evaluate_report(
            fleet_report(registry_cold_start_tickets_x1000=7)
        )
        assert any("tickets resident" in p for p in problems)

    @pytest.mark.parametrize("loads", [0, 2])
    def test_first_touch_must_load_exactly_one_key(self, loads):
        problems = compare_bench.evaluate_report(
            fleet_report(registry_first_touch_key_loads_x1000=loads)
        )
        assert any("first touch" in p for p in problems)

    def test_speedup_bar_is_1_5x_at_4_shards(self):
        assert compare_bench.MIN_FLEET_SPEEDUP_MEASURED == 1.5
        assert compare_bench.FLEET_SPEEDUP_SHARDS == 4
        problems = compare_bench.evaluate_report(
            fleet_report(smoke=False, speedup_4_vs_1=1.4)
        )
        assert any("4-shard fleet speedup" in p for p in problems)
        assert compare_bench.evaluate_report(
            fleet_report(smoke=False, speedup_4_vs_1=1.5)
        ) == []

    def test_speedup_gate_skipped_in_smoke_mode(self):
        assert compare_bench.evaluate_report(
            fleet_report(speedup_4_vs_1=0.4)
        ) == []

    def test_speedup_gate_skipped_below_shard_width(self):
        # A narrow host cannot run 4 shards in parallel; the bar only
        # applies when the core count clears the shard width.
        assert compare_bench.evaluate_report(
            fleet_report(smoke=False, cpu_count=2, speedup_4_vs_1=0.8)
        ) == []


class TestServiceJobsGates:
    """The async-jobs resume bar: exactness gates, applied in every mode."""

    def test_digest_mismatch_fails(self):
        problems = compare_bench.evaluate_report(
            jobs_report(digest_match=False, resumed_decision_digest="b" * 64)
        )
        assert any("differs from the uninterrupted run" in p for p in problems)

    def test_digest_fields_must_agree_with_the_flag(self):
        # digest_match=True but the actual digests differ: the cross-check
        # catches a benchmark that computes the flag wrong.
        problems = compare_bench.evaluate_report(
            jobs_report(resumed_decision_digest="b" * 64)
        )
        assert any("does not equal" in p for p in problems)

    def test_empty_digest_fails(self):
        problems = compare_bench.evaluate_report(
            jobs_report(
                uninterrupted_decision_digest="", resumed_decision_digest=""
            )
        )
        assert any("empty" in p for p in problems)

    def test_zero_replayed_cells_fails_even_in_smoke(self):
        problems = compare_bench.evaluate_report(
            jobs_report(replayed_cells=0, fresh_cells=5)
        )
        assert any("replayed no checkpointed cells" in p for p in problems)

    def test_cell_accounting_must_cover_the_grid(self):
        problems = compare_bench.evaluate_report(jobs_report(fresh_cells=2))
        assert any("cover the whole grid" in p for p in problems)

    def test_stream_must_include_the_end_record(self):
        problems = compare_bench.evaluate_report(jobs_report(events_streamed=5))
        assert any("end record" in p for p in problems)


class TestCli:
    def _write(self, path: Path, payload) -> Path:
        path.write_text(json.dumps(payload))
        return path

    def test_passing_files_exit_zero(self, tmp_path, capsys):
        a = self._write(tmp_path / "BENCH_gauntlet.json", gauntlet_report())
        b = self._write(tmp_path / "BENCH_engine.json", engine_report())
        assert compare_bench.main([str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == 2

    def test_directory_globbing_finds_artifacts(self, tmp_path, capsys):
        nested = tmp_path / "artifacts" / "BENCH_service"
        nested.mkdir(parents=True)
        self._write(nested / "BENCH_service.json", service_report())
        assert compare_bench.main([str(tmp_path)]) == 0
        assert "BENCH_service.json" in capsys.readouterr().out

    def test_failing_report_exits_one_and_names_problem(self, tmp_path, capsys):
        bad = self._write(
            tmp_path / "BENCH_gauntlet.json",
            gauntlet_report(decision_digests_equal=False),
        )
        assert compare_bench.main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "serial and parallel" in out

    def test_unreadable_json_exits_one(self, tmp_path):
        bad = tmp_path / "BENCH_x.json"
        bad.write_text("{not json")
        assert compare_bench.main([str(bad)]) == 1

    def test_empty_directory_exits_two(self, tmp_path):
        assert compare_bench.main([str(tmp_path)]) == 2

    def test_real_emitted_report_passes(self, tmp_path):
        """The gate accepts what benchmarks/test_gauntlet.py actually emits
        (kept in sync via the repository's own benchmark artifact when
        present)."""
        emitted = Path(_BENCH_DIR) / "results" / "BENCH_gauntlet.json"
        if not emitted.exists():
            pytest.skip("no local benchmark artifact; CI covers this pairing")
        report = json.loads(emitted.read_text())
        assert compare_bench.evaluate_report(report) == []
