"""Tests for the server-side robustness gauntlet.

A sweep runs as a background job (``POST /v1/jobs/robustness``);
``VerificationClient.robustness()`` submits one and waits for its report.
"""

import http.client
import json

import pytest

from repro.engine import WatermarkEngine
from repro.robustness import (
    ATTACK_REGISTRY,
    AttackOutcome,
    GauntletSubject,
    build_attack,
    register_attack,
    run_gauntlet,
)
from repro.robustness.attacks import AttackSpec
from repro.service import client as client_mod
from repro.service.client import JobHandle, ServiceError

ATTACKS = [
    {"name": "overwrite", "strengths": [0, 20]},
    {"name": "pruning", "strengths": [0.5]},
]


class TestRobustnessEndpoint:
    def test_gauntlet_on_stored_suspect(self, client):
        out = client.robustness("hit", attacks=ATTACKS, seed=3)
        assert out["suspect_id"] == "hit"
        assert out["key_id"].startswith("wmk-")
        report = out["report"]
        assert report["num_cells"] == 3
        cells = {(c["attack"], c["strength"]): c for c in report["cells"]}
        assert cells[("overwrite", 0.0)]["wer_percent"] == 100.0
        assert cells[("overwrite", 0.0)]["owned"] is True
        # Server-side runs are quality-free: no harness lives there.
        assert all(c["perplexity"] is None for c in report["cells"])
        assert set(report["min_wer_by_attack"]) == {"overwrite", "pruning"}

    def test_matches_direct_gauntlet(self, client, watermarked_and_key):
        """The endpoint's evidence is bit-identical to the library path."""
        watermarked, key = watermarked_and_key
        out = client.robustness("hit", attacks=ATTACKS, seed=3)
        key_id = out["key_id"]
        direct = run_gauntlet(
            {key_id: GauntletSubject(model=watermarked, key=key)},
            [build_attack("overwrite"), build_attack("pruning")],
            strengths={"overwrite": (0, 20), "pruning": (0.5,)},
            engine=WatermarkEngine(),
            evaluate_quality=False,
            seed=3,
        )
        assert out["report"]["decision_digest"] == direct.decision_digest()

    def test_process_executor_matches_streaming_digest(self, client):
        streaming = client.robustness("hit", attacks=ATTACKS, seed=3)
        process = client.robustness("hit", attacks=ATTACKS, seed=3, executor="process")
        assert process["report"]["executor"] == "process"
        assert (
            process["report"]["decision_digest"]
            == streaming["report"]["decision_digest"]
        )

    def test_serial_executor_pins_one_worker(self, client):
        out = client.robustness("hit", attacks=ATTACKS, seed=3, executor="serial")
        assert out["report"]["executor"] == "serial"
        assert out["report"]["workers"] == 1

    def test_unknown_executor_rejected(self, client):
        with pytest.raises(ServiceError, match="unknown executor"):
            client.robustness("hit", attacks=ATTACKS, executor="quantum")

    def test_default_attacks_are_corpus_free(self, client):
        out = client.robustness("hit", attacks=[
            {"name": "overwrite", "strengths": [10]},
        ])
        assert out["report"]["num_cells"] == 1

    def test_corpus_attack_rejected(self, client):
        with pytest.raises(ServiceError, match="corpus"):
            client.robustness("hit", attacks=["rewatermark"])

    def test_unknown_attack_rejected(self, client):
        with pytest.raises(ServiceError, match="unknown attack"):
            client.robustness("hit", attacks=["weight-exorcism"])

    def test_beyond_the_old_64_cell_cap_is_accepted(self, client):
        # The fixed 64-cell cap is gone: sweeps run in constant memory, so a
        # 100-cell grid admits under the CPU-time budget and completes.  A
        # small sweep first warms the cost estimator (the cold-start clamp
        # keeps unvalidated seed estimates from admitting big grids).
        client.robustness("hit", attacks=[{"name": "none", "strengths": [0]}])
        out = client.robustness(
            "hit",
            attacks=[{"name": "overwrite", "strengths": list(range(100))}],
            seed=11,
        )
        assert out["report"]["num_cells"] == 100

    def test_report_size_sanity_bound_rejected(self, client):
        with pytest.raises(ServiceError, match="report-size"):
            client.robustness(
                "hit",
                attacks=[{"name": "overwrite", "strengths": list(range(5000))}],
            )

    def test_unknown_suspect_rejected(self, client):
        with pytest.raises(ServiceError, match="unknown suspect"):
            client.robustness("nobody", attacks=ATTACKS)

    def test_duplicate_attack_rejected_as_400(self, client):
        with pytest.raises(ServiceError, match="duplicate attack") as excinfo:
            client.robustness(
                "hit",
                attacks=["overwrite", {"name": "overwrite", "strengths": [10]}],
            )
        assert excinfo.value.status == 400

    def test_duplicate_strengths_rejected_as_400(self, client):
        # Colliding cell ids are refused at submission: no job is created.
        jobs_before = client.jobs()
        with pytest.raises(ServiceError, match="invalid gauntlet grid") as excinfo:
            client.submit_robustness_job(
                "hit", attacks=[{"name": "overwrite", "strengths": [10, 10]}]
            )
        assert excinfo.value.status == 400
        assert excinfo.value.code == "invalid_request"
        assert client.jobs() == jobs_before

    def test_attack_range_error_fails_the_job(self, client):
        # A strength the attack rejects only when its cell runs (this spec
        # declares no strength domain) fails the job; the report fetch is a
        # 409.  Declared domains are refused at submission instead
        # (TestStrengthDomainAtSubmission).
        @register_attack
        class BrittleAttack(AttackSpec):
            name = "test-brittle"

            def apply(self, model, strength, rng):
                if strength > 0:
                    raise ValueError("test-brittle strength rejected when the cell runs")
                return AttackOutcome(model=model.clone())

        try:
            with pytest.raises(ServiceError, match="test-brittle") as excinfo:
                client.robustness(
                    "hit", attacks=[{"name": "test-brittle", "strengths": [1]}],
                    executor="serial",
                )
        finally:
            del ATTACK_REGISTRY["test-brittle"]
        assert excinfo.value.status == 409
        assert excinfo.value.code == "job_failed"

    def test_timeout_cancels_the_job(self, client, monkeypatch):
        monkeypatch.setattr(client_mod, "_ROBUSTNESS_WAIT_S", 0.3)
        with pytest.raises(TimeoutError):
            client.robustness(
                "hit",
                attacks=[{"name": "slowmo", "strengths": [0, 1, 2, 3, 4, 5]}],
                executor="serial",
            )
        job_id = client.jobs()[-1]["job_id"]
        final = JobHandle(client, job_id).wait(timeout=120)
        assert final["state"] == "cancelled"
        assert final["completed_cells"] < final["total_cells"]

    def test_unknown_key_id_rejected(self, client):
        with pytest.raises(ServiceError, match="key"):
            client.robustness("hit", key_id="wmk-does-not-exist", attacks=ATTACKS)

    def test_cells_enter_audit_log_and_counters(self, client):
        before = client.stats()
        out = client.robustness("hit", attacks=[{"name": "overwrite", "strengths": [0, 20]}])
        after = client.stats()
        decided = (
            after["server"]["decisions_owned"] + after["server"]["decisions_not_owned"]
            - before["server"]["decisions_owned"] - before["server"]["decisions_not_owned"]
        )
        assert decided == 2
        assert after["audit"]["entries"] == before["audit"]["entries"] + 2
        assert out["job_id"].startswith("job-")

    def test_non_watermarked_suspect_never_owned(self, client):
        out = client.robustness("miss", attacks=[{"name": "none", "strengths": [0]}])
        assert all(not c["owned"] for c in out["report"]["cells"])

    def test_gauntlet_counter_increments(self, client):
        before = client.stats()["server"]["gauntlets"]
        client.robustness("hit", attacks=[{"name": "none", "strengths": [0]}])
        assert client.stats()["server"]["gauntlets"] == before + 1

    def test_observed_cost_feeds_the_estimator(self, client):
        client.robustness("hit", attacks=[{"name": "overwrite", "strengths": [0, 20]}])
        gauntlet_stats = client.stats()["gauntlet"]
        assert gauntlet_stats["observed_cells"] >= 2
        assert gauntlet_stats["mean_cell_seconds"] > 0.0
        assert gauntlet_stats["cpu_budget_s"] is not None


#: Raw JSON bodies the grid validator must refuse, as sent on the wire
#: (``Infinity``/``NaN`` are the non-standard literals Python's json emits
#: and parses; ``1e400`` parses to an infinite float, a 401-digit integer
#: overflows ``float``), with the field the error must name.
_OVERWRITE = '"attacks": [{"name": "overwrite", "strengths": [%s]}]'
_BAD_GRIDS = [
    pytest.param(_OVERWRITE % "Infinity", "strengths", id="strength-inf"),
    pytest.param(_OVERWRITE % "-Infinity", "strengths", id="strength-neg-inf"),
    pytest.param(_OVERWRITE % "NaN", "strengths", id="strength-nan"),
    pytest.param(_OVERWRITE % "1e400", "strengths", id="strength-float-overflow"),
    pytest.param(_OVERWRITE % ("1" + "0" * 400), "strengths", id="strength-int-overflow"),
    pytest.param(_OVERWRITE % "true", "strengths", id="strength-bool"),
    pytest.param(_OVERWRITE % '"10"', "strengths", id="strength-string"),
    pytest.param(_OVERWRITE % "0, 20" + ', "seed": 3.7', "seed", id="seed-fraction"),
    pytest.param(_OVERWRITE % "0, 20" + ', "seed": true', "seed", id="seed-bool"),
    pytest.param(_OVERWRITE % "0, 20" + ', "seed": "3"', "seed", id="seed-string"),
]


class TestGridValueValidation:
    """Non-finite, boolean and fractional grid values are 400s up front."""

    @staticmethod
    def _post_raw(port, path, fields):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            body = ('{"suspect_id": "hit", ' + fields + "}").encode("utf-8")
            conn.request("POST", path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    @staticmethod
    def _call_robustness(client, fields):
        # The same body through the client's submit-and-wait call: the 400
        # must surface at submission, not after a wait on a job.
        body = json.loads('{"suspect_id": "hit", ' + fields + "}")
        try:
            client.robustness(**body)
        except ServiceError as error:
            return error.status, {"error": {"code": error.code, "message": str(error)}}
        raise AssertionError("robustness() accepted a bad grid")

    @pytest.mark.parametrize("via", ["/v1/jobs/robustness", "client.robustness"])
    @pytest.mark.parametrize("fields,field", _BAD_GRIDS)
    def test_bad_value_rejected_before_any_work(
        self, client, server_handle, via, fields, field
    ):
        jobs_before = client.jobs()
        stats_before = client.stats()
        if via == "client.robustness":
            status, payload = self._call_robustness(client, fields)
        else:
            status, payload = self._post_raw(server_handle.port, via, fields)
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert f"'{field}'" in payload["error"]["message"]
        assert client.jobs() == jobs_before
        stats_after = client.stats()
        assert stats_after["audit"]["entries"] == stats_before["audit"]["entries"]
        assert stats_after["server"]["gauntlets"] == stats_before["server"]["gauntlets"]

    def test_integer_seed_and_finite_strengths_accepted(self, client, server_handle):
        status, payload = self._post_raw(
            server_handle.port, "/v1/jobs/robustness",
            '"attacks": [{"name": "overwrite", "strengths": [0, 2.5e1]}], "seed": 3',
        )
        assert status == 202
        handle = JobHandle(client, payload["job"]["job_id"])
        assert handle.wait(timeout=120)["state"] == "succeeded"
        report = handle.report()["report"]
        assert [c["strength"] for c in report["cells"]] == [0.0, 25.0]
        assert report["seed"] == 3


def _raw_request(port, method, path, body=None):
    """One request over a fresh connection: (status, decoded JSON body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {} if body is None else {"Content-Type": "application/json"}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


#: Strengths outside the attack's declared domain, as sent on the wire.
_OUT_OF_DOMAIN = [
    pytest.param("pruning", "2.0", id="pruning-sparsity-above-1"),
    pytest.param("overwrite", "-5", id="overwrite-negative"),
    pytest.param("overwrite", "2.5", id="overwrite-fractional"),
    pytest.param("structured-prune", "1.0", id="structured-prune-everything"),
    pytest.param("scale-tamper", "-0.2", id="scale-tamper-negative"),
    pytest.param("requantize", "0", id="requantize-zero-bits"),
]


class TestStrengthDomainAtSubmission:
    """Out-of-domain strengths are a 400 before any job exists."""

    @pytest.mark.parametrize("attack,strength", _OUT_OF_DOMAIN)
    def test_refused_before_a_job_exists(self, server_handle, attack, strength):
        port = server_handle.port
        status, before = _raw_request(port, "GET", "/v1/jobs")
        assert status == 200
        body = (
            '{"suspect_id": "hit", "attacks": [{"name": "%s", "strengths": [0, %s]}]}'
            % (attack, strength)
        ).encode("utf-8")
        status, payload = _raw_request(port, "POST", "/v1/jobs/robustness", body)
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert f"{attack} strength" in payload["error"]["message"]
        status, after = _raw_request(port, "GET", "/v1/jobs")
        assert status == 200
        assert after["jobs"] == before["jobs"]


class TestCpuBudgetGate:
    """The per-request CPU-time budget that replaced the 64-cell cap."""

    def test_projected_cost_over_budget_rejected_as_429(self, watermarked_and_key):
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
            # 1 s/cell seed estimate and a 5 s budget: a 6-cell grid projects
            # over budget deterministically, before any sweep has run.
            config=ServiceConfig(
                port=0,
                gauntlet_cpu_budget_s=5.0,
                gauntlet_initial_cell_cost_s=1.0,
            ),
        )
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as client:
                client.register_key(key, owner="acme")
                client.upload_suspect(watermarked, suspect_id="hit")
                with pytest.raises(ServiceError, match="CPU cost") as excinfo:
                    client.robustness(
                        "hit", attacks=[{"name": "overwrite", "strengths": list(range(6))}]
                    )
                assert excinfo.value.status == 429
                # A grid inside the budget is admitted.
                out = client.robustness(
                    "hit", attacks=[{"name": "overwrite", "strengths": [0, 20]}]
                )
                assert out["report"]["num_cells"] == 2
                assert client.stats()["server"]["rejected_cpu_budget"] == 1

    def test_cold_server_clamps_to_64_cells_until_a_sweep_is_observed(
        self, watermarked_and_key
    ):
        from repro.service import (
            ServiceConfig,
            VerificationClient,
            VerificationServer,
            run_in_background,
        )

        watermarked, key = watermarked_and_key
        server = VerificationServer(config=ServiceConfig(port=0))
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as client:
                client.register_key(key, owner="acme")
                client.upload_suspect(watermarked, suspect_id="hit")
                # Cold: the seed estimate is unvalidated, big grids clamp.
                with pytest.raises(ServiceError, match="cold-start") as excinfo:
                    client.robustness(
                        "hit",
                        attacks=[{"name": "overwrite", "strengths": list(range(100))}],
                    )
                assert excinfo.value.status == 429
                # One observed sweep lifts the clamp; the budget governs.
                client.robustness("hit", attacks=[{"name": "none", "strengths": [0]}])
                out = client.robustness(
                    "hit",
                    attacks=[{"name": "overwrite", "strengths": list(range(100))}],
                )
                assert out["report"]["num_cells"] == 100

    def test_budget_disabled_with_none(self, watermarked_and_key):
        from repro.service.server import ServiceConfig, VerificationServer, _CellCostEstimator

        config = ServiceConfig(gauntlet_cpu_budget_s=None, gauntlet_initial_cell_cost_s=10.0)
        server = VerificationServer(config=config)
        assert server.config.gauntlet_cpu_budget_s is None
        # Estimator sanity: EWMA moves toward observations.
        estimator = _CellCostEstimator(1.0, smoothing=0.5)
        estimator.observe(10, 1.0)  # 0.1 s/cell observed
        assert estimator.estimate(10) < 10.0
        assert estimator.stats()["observed_cells"] == 10

    def test_bad_budget_config_rejected(self):
        from repro.service import ServiceConfig

        with pytest.raises(ValueError, match="gauntlet_cpu_budget_s"):
            ServiceConfig(gauntlet_cpu_budget_s=0.0)
        with pytest.raises(ValueError, match="gauntlet_initial_cell_cost_s"):
            ServiceConfig(gauntlet_initial_cell_cost_s=-1.0)
