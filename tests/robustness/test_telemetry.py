"""Telemetry must never perturb decisions.

The hard invariant of the observability layer: gauntlet decision digests are
bit-identical with tracing and progress enabled vs disabled, across the
serial, thread, and process executors (the latter under both ``fork`` and
``spawn``).  Spans are measurement-only; the progress renderer is I/O-only;
worker telemetry (pids, utilization) never enters ``decision_fields``.
"""

from __future__ import annotations

import io
import os

import pytest

from repro.obs import MetricsRegistry, TraceCollector, tracing
from repro.robustness import Gauntlet, GauntletConfig, build_attack, run_gauntlet

GRID = {"overwrite": (0, 20), "pruning": (0.4,)}  # 3 cells


def _attacks():
    return [build_attack("overwrite"), build_attack("pruning")]


@pytest.fixture(scope="module")
def untraced_reference(awq_subject):
    """Digest of the shared grid with no telemetry whatsoever."""
    return run_gauntlet(
        {"awq": awq_subject}, _attacks(), GRID,
        max_workers=1, seed=13, evaluate_quality=False,
    )


class TestTracingDigestInvariance:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_streaming_digest_identical_with_tracing(
        self, awq_subject, untraced_reference, workers
    ):
        collector = TraceCollector()
        with tracing(collector):
            traced = run_gauntlet(
                {"awq": awq_subject}, _attacks(), GRID,
                max_workers=workers, seed=13, evaluate_quality=False,
            )
        assert traced.decision_digest() == untraced_reference.decision_digest()
        for ours, theirs in zip(traced.cells, untraced_reference.cells):
            assert ours.decision_fields() == theirs.decision_fields()
        names = {record.name for record in collector.records}
        assert "gauntlet.run" in names
        assert "gauntlet.cell" in names
        assert "engine.verify_pair" in names

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("workers", [1, 4])
    def test_process_digest_identical_with_tracing(
        self, awq_subject, untraced_reference, workers, start_method
    ):
        collector = TraceCollector()
        with tracing(collector):
            traced = run_gauntlet(
                {"awq": awq_subject}, _attacks(), GRID,
                max_workers=workers, seed=13, evaluate_quality=False,
                executor="process", start_method=start_method,
            )
        assert traced.executor == "process"
        assert traced.decision_digest() == untraced_reference.decision_digest()
        # Worker spans shipped back to the parent: one gauntlet.cell span per
        # cell, recorded under the worker's pid, plus the shm round-trip.
        cell_spans = [r for r in collector.records if r.name == "gauntlet.cell"]
        assert len(cell_spans) == traced.num_cells
        assert all(span.pid != os.getpid() for span in cell_spans)
        names = {record.name for record in collector.records}
        assert "shm.publish" in names
        assert "shm.restore" in names

    def test_process_worker_utilization_reported_not_digested(self, awq_subject):
        report = run_gauntlet(
            {"awq": awq_subject}, _attacks(), GRID,
            max_workers=2, seed=13, evaluate_quality=False,
            executor="process", start_method="fork",
        )
        assert report.worker_utilization
        assert all(value >= 0.0 for value in report.worker_utilization.values())
        assert report.cells_per_second > 0.0
        payload = report.to_dict()
        assert payload["worker_utilization"] == report.worker_utilization
        # Informational only — no cell decision carries worker telemetry.
        for cell in report.cells:
            fields = repr(cell.decision_fields())
            assert "worker" not in fields and "pid" not in fields


class TestProgressDigestInvariance:
    def _run_with_progress(self, subject, **config_kwargs):
        stream = io.StringIO()
        gauntlet = Gauntlet(
            config=GauntletConfig(
                seed=13, evaluate_quality=False, progress=True, **config_kwargs
            ),
            progress_stream=stream,
        )
        report = gauntlet.run({"awq": subject}, _attacks(), GRID)
        return report, stream.getvalue()

    def test_serial_progress_renders_and_digest_unchanged(
        self, awq_subject, untraced_reference
    ):
        report, output = self._run_with_progress(awq_subject, max_workers=1)
        assert report.executor == "serial"
        assert report.decision_digest() == untraced_reference.decision_digest()
        assert "[3/3]" in output
        assert "cells/s" in output
        assert "min WER" in output
        assert output.endswith("\n")

    def test_thread_progress_renders_and_digest_unchanged(
        self, awq_subject, untraced_reference
    ):
        report, output = self._run_with_progress(awq_subject, max_workers=4)
        assert report.executor == "thread"
        assert report.decision_digest() == untraced_reference.decision_digest()
        assert "[3/3]" in output

    def test_process_progress_renders_and_digest_unchanged(
        self, awq_subject, untraced_reference
    ):
        report, output = self._run_with_progress(
            awq_subject, max_workers=2, executor="process", start_method="fork"
        )
        assert report.executor == "process"
        assert report.decision_digest() == untraced_reference.decision_digest()
        assert "[3/3]" in output


class TestSweepMetrics:
    def test_gauntlet_records_into_registry(self, awq_subject):
        registry = MetricsRegistry()
        gauntlet = Gauntlet(
            config=GauntletConfig(max_workers=1, seed=13, evaluate_quality=False),
            metrics=registry,
        )
        report = gauntlet.run({"awq": awq_subject}, _attacks(), GRID)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["repro_gauntlet_cells_total"] == report.num_cells
        assert snapshot["gauges"]["repro_gauntlet_cells_per_second"] > 0.0
        assert "repro_gauntlet_cell_verify_seconds" in snapshot["histograms"]
