"""Closed-loop load generator: config validation and a short live run."""

import pytest

from repro.service.loadgen import (
    JobLoadConfig,
    LoadConfig,
    RequestTemplate,
    run_job_load,
    run_load,
)


class TestConfigValidation:
    def test_requires_exactly_one_stop_condition(self):
        template = [RequestTemplate("s")]
        with pytest.raises(ValueError):
            LoadConfig(templates=template)  # neither
        with pytest.raises(ValueError):
            LoadConfig(templates=template, duration_seconds=1.0, total_requests=5)
        LoadConfig(templates=template, total_requests=5)  # ok

    def test_requires_templates(self):
        with pytest.raises(ValueError):
            LoadConfig(total_requests=5)

    def test_requires_positive_concurrency(self):
        with pytest.raises(ValueError):
            LoadConfig(templates=[RequestTemplate("s")], total_requests=1, concurrency=0)


class TestLiveRun:
    def test_request_budget_run_against_server(self, server_handle):
        report = run_load(
            LoadConfig(
                port=server_handle.port,
                concurrency=3,
                total_requests=12,
                templates=[
                    RequestTemplate("hit", label="hit"),
                    RequestTemplate("miss", label="miss"),
                ],
            )
        )
        assert report.completed == 12
        assert report.errors == 0
        assert report.throughput_rps > 0
        assert report.latency_ms["p50"] > 0
        assert report.latency_ms["p99"] >= report.latency_ms["p50"]
        assert set(report.per_label_completed) == {"hit", "miss"}
        # Closed-loop mix striding covers both labels roughly evenly.
        assert min(report.per_label_completed.values()) >= 4
        # Decisions carried back for the benchmark's equivalence check.
        assert len(report.decisions) == 12
        hit_decisions = [d for d in report.decisions if d["label"] == "hit"]
        assert all(d["decisions"][0]["owned"] for d in hit_decisions)
        report_dict = report.to_dict()
        assert "decisions" not in report_dict
        assert report_dict["completed"] == 12
        # Failure accounting: a clean run has zero in every failure class,
        # and the aggregate ``failed`` field mirrors their sum.
        assert report.timeouts == 0
        assert report.failed == 0
        assert report_dict["failed"] == 0
        assert report_dict["timeouts"] == 0
        # Per-second throughput time-series: one integer bucket per elapsed
        # second, summing to the completed count.
        series = report.throughput_timeseries
        assert series and all(isinstance(count, int) for count in series)
        assert sum(series) == report.completed
        assert report_dict["throughput_timeseries"] == series

    def test_failed_counts_every_failure_class(self):
        from repro.service.loadgen import LoadReport

        report = LoadReport(
            concurrency=1,
            elapsed_seconds=1.0,
            completed=1,
            errors=2,
            rate_limited=3,
            unavailable=4,
            timeouts=5,
            throughput_rps=1.0,
            latency_ms={},
            per_label_completed={},
        )
        assert report.failed == 14
        assert report.to_dict()["failed"] == 14


class TestJobLoadConfig:
    def test_requires_suspect(self):
        with pytest.raises(ValueError, match="suspect_id"):
            JobLoadConfig(jobs=2)

    def test_requires_positive_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            JobLoadConfig(jobs=0, suspect_id="hit")

    def test_seed_count_must_match(self):
        with pytest.raises(ValueError, match="seeds"):
            JobLoadConfig(jobs=3, suspect_id="hit", seeds=[1, 2])
        config = JobLoadConfig(jobs=3, suspect_id="hit")
        assert config.seeds == [0, 1, 2]


class TestConcurrentJobs:
    ATTACKS = [
        {"name": "overwrite", "strengths": [0, 20]},
        {"name": "pruning", "strengths": [0.5]},
    ]

    def test_concurrent_jobs_complete_with_exact_digests(
        self, server_handle, watermarked_and_key
    ):
        """No starvation under concurrency, and every job's digest is
        bit-identical to a direct library-path Gauntlet run of its grid."""
        from repro.engine import WatermarkEngine
        from repro.robustness import GauntletSubject, build_attack, run_gauntlet

        seeds = [3, 4, 5]
        report = run_job_load(
            JobLoadConfig(
                port=server_handle.port,
                jobs=len(seeds),
                suspect_id="hit",
                attacks=self.ATTACKS,
                seeds=seeds,
            )
        )
        assert report.states == ["succeeded"] * len(seeds)
        assert report.succeeded == len(seeds)
        assert report.rejected == 0
        assert report.errors == 0
        assert len(set(report.job_ids)) == len(seeds)
        # Each stream carried every cell verdict plus the end record.
        assert all(count == 4 for count in report.events_streamed)

        watermarked, key = watermarked_and_key
        for seed, digest in zip(seeds, report.digests):
            direct = run_gauntlet(
                {key.fingerprint(): GauntletSubject(model=watermarked, key=key)},
                [build_attack("overwrite"), build_attack("pruning")],
                strengths={"overwrite": (0, 20), "pruning": (0.5,)},
                engine=WatermarkEngine(),
                evaluate_quality=False,
                seed=seed,
            )
            assert digest == direct.decision_digest()

        report_dict = report.to_dict()
        assert report_dict["succeeded"] == len(seeds)
        assert report_dict["digests"] == report.digests

    def test_overflow_beyond_max_active_is_counted_not_fatal(
        self, watermarked_and_key
    ):
        from repro.engine import EngineConfig, WatermarkEngine
        from repro.service import (
            ServiceConfig,
            VerificationClient,
            VerificationServer,
            run_in_background,
        )

        watermarked, key = watermarked_and_key
        server = VerificationServer(
            engine=WatermarkEngine(EngineConfig()),
            config=ServiceConfig(port=0, job_max_active=1),
        )
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                c.register_key(key, owner="acme")
                c.upload_suspect(watermarked, suspect_id="hit")
            report = run_job_load(
                JobLoadConfig(
                    port=handle.port,
                    jobs=4,
                    suspect_id="hit",
                    attacks=[{"name": "slowmo", "strengths": [0, 1]}],
                    seeds=[11, 12, 13, 14],
                )
            )
            # With one active slot, some submissions bounce with 429
            # job_limit; the ones that land still finish cleanly.
            assert report.succeeded + report.rejected == 4
            assert report.succeeded >= 1
            assert report.errors == 0
