"""End-to-end tests of the HTTP verification server.

A module-scoped server (see ``conftest.py``) holds one registered key and the
``hit`` / ``miss`` suspect pair; tests talk to it through the stdlib client.
Mutating scenarios (revocation, rate limiting) spin up their own servers so
the shared one stays pristine.
"""

import threading

import pytest

from repro.engine import EngineConfig, WatermarkEngine
from repro.service import (
    RateLimitedError,
    ServiceConfig,
    ServiceError,
    VerificationClient,
    VerificationServer,
    run_in_background,
)


class TestBasicEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0

    def test_keys_listing(self, client, watermarked_and_key):
        _, key = watermarked_and_key
        records = client.keys()
        assert [r["key_id"] for r in records] == [key.fingerprint()]
        assert records[0]["owner"] == "acme"
        assert records[0]["revoked"] is False

    def test_keys_filtered_by_model_fingerprint(self, client, watermarked_and_key):
        _, key = watermarked_and_key
        assert client.keys(model_fingerprint=key.model_fingerprint())
        assert client.keys(model_fingerprint="wmm-none") == []

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/verify")
        assert excinfo.value.status == 405

    def test_invalid_json_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/register", {"owner": "x"})
        assert excinfo.value.status == 400


class TestVerification:
    def test_hit_is_owned(self, client):
        response = client.verify(suspect_id="hit")
        assert len(response["decisions"]) == 1
        decision = response["decisions"][0]
        assert decision["owned"] is True
        assert decision["wer_percent"] == 100.0
        assert decision["matched_bits"] == decision["total_bits"]

    def test_miss_is_not_owned(self, client):
        decision = client.verify(suspect_id="miss")["decisions"][0]
        assert decision["owned"] is False

    def test_decisions_match_direct_engine_call(
        self, client, watermarked_and_key, quantized_awq4
    ):
        """The serving path must be bit-identical to the library path."""
        watermarked, key = watermarked_and_key
        direct = WatermarkEngine(EngineConfig()).verify_fleet(
            {"hit": watermarked, "miss": quantized_awq4}, {key.fingerprint(): key}
        )
        direct_by_pair = {(p.suspect_id, p.key_id): p for p in direct.pairs}
        for suspect_id in ("hit", "miss"):
            decision = client.verify(suspect_id=suspect_id)["decisions"][0]
            reference = direct_by_pair[(suspect_id, decision["key_id"])]
            assert decision["matched_bits"] == reference.matched_bits
            assert decision["total_bits"] == reference.total_bits
            assert decision["owned"] == reference.owned
            assert decision["wer_percent"] == reference.wer_percent

    def test_inline_model_verification(self, client, watermarked_and_key):
        watermarked, _ = watermarked_and_key
        response = client.verify(model=watermarked)
        assert response["decisions"][0]["owned"] is True

    def test_explicit_key_ids(self, client, watermarked_and_key):
        _, key = watermarked_and_key
        response = client.verify(suspect_id="hit", key_ids=[key.fingerprint()])
        assert response["decisions"][0]["key_id"] == key.fingerprint()

    def test_non_string_suspect_id_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/verify", {"suspect_id": ["hit"]})
        assert excinfo.value.status == 400

    def test_unknown_suspect_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.verify(suspect_id="ghost")
        assert excinfo.value.status == 404

    def test_unknown_key_id_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.verify(suspect_id="hit", key_ids=["wmk-ghost"])
        assert excinfo.value.status == 404

    def test_concurrent_requests_batch_and_agree(self, server_handle):
        """Parallel clients hammering hit/miss still get exact verdicts."""
        results = {}
        errors = []

        def worker(suspect_id, slot):
            try:
                with VerificationClient(port=server_handle.port) as c:
                    results[slot] = c.verify(suspect_id=suspect_id)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=("hit" if i % 2 == 0 else "miss", i))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for slot, response in results.items():
            expected = slot % 2 == 0
            assert response["decisions"][0]["owned"] is expected


class TestStatsAndAudit:
    def test_stats_exposes_all_sections(self, client):
        client.verify(suspect_id="hit")
        stats = client.stats()
        assert {"server", "dispatcher", "admission", "plan_cache", "registry",
                "suspects", "audit"} <= set(stats)
        assert stats["server"]["verifications"] >= 1
        assert stats["registry"]["keys"] == 1
        assert stats["suspects"]["count"] >= 2
        assert stats["audit"]["entries"] >= 1
        # Satellite: plan-cache hit/miss/eviction counters are observable.
        assert {"hits", "misses", "evictions", "hit_rate"} <= set(stats["plan_cache"])

    def test_warm_cache_serving(self, client):
        """Verification of a registered key reads its resident ticket: no
        rescoring, no plan lookups at all, no key loads."""
        client.verify(suspect_id="hit")
        before = client.stats()
        client.verify(suspect_id="hit")
        after = client.stats()
        assert after["plan_cache"]["misses"] == before["plan_cache"]["misses"]
        assert after["plan_cache"]["hits"] == before["plan_cache"]["hits"]
        assert after["registry"]["key_loads"] == before["registry"]["key_loads"]

    def test_restarted_server_derives_each_ticket_once(self, watermarked_and_key, tmp_path):
        """A server over a re-opened registry holds no tickets; the first
        verify (or ranked upload) of a key derives its ticket from exactly one
        disk load, and every later request reads the resident ticket."""
        from repro.service.registry import KeyRegistry

        watermarked, key = watermarked_and_key
        KeyRegistry(tmp_path / "reg").register(key, owner="acme")
        engine = WatermarkEngine(EngineConfig())
        server = VerificationServer(
            engine=engine,
            registry=KeyRegistry(tmp_path / "reg", engine=engine),
            config=ServiceConfig(port=0, max_wait_ms=1.0),
        )
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                assert c.stats()["registry"]["tickets"] == 0
                ranked = c.upload_suspect(watermarked, suspect_id="hit", rank=True)
                assert ranked["ranking"][0]["owned"] is True
                for _ in range(2):
                    assert c.verify("hit")["decisions"][0]["owned"] is True
                registry = c.stats()["registry"]
        assert registry["tickets"] == 1
        assert registry["key_loads"] == 1


class TestRevocationAndAdmission:
    def test_revoked_key_stops_serving(self, watermarked_and_key, quantized_awq4):
        watermarked, key = watermarked_and_key
        server = VerificationServer(config=ServiceConfig(port=0, max_wait_ms=1.0))
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                record = c.register_key(key, owner="acme")
                c.upload_suspect(watermarked, suspect_id="hit")
                assert c.verify(suspect_id="hit")["decisions"][0]["owned"] is True
                revoked = c.revoke_key(record["key_id"])
                assert revoked["revoked"] is True
                with pytest.raises(ServiceError) as excinfo:
                    c.verify(suspect_id="hit")
                assert excinfo.value.status == 400  # no active keys left

    def test_default_suspect_ids_are_content_addressed(
        self, watermarked_and_key, quantized_awq4
    ):
        """Same-architecture but different-weight uploads must not alias."""
        watermarked, key = watermarked_and_key
        server = VerificationServer(config=ServiceConfig(port=0, max_wait_ms=1.0))
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                c.register_key(key, owner="acme")
                id_wm = c.upload_suspect(watermarked)["suspect_id"]
                id_clean = c.upload_suspect(quantized_awq4)["suspect_id"]
                assert id_wm != id_clean
                assert c.upload_suspect(watermarked)["suspect_id"] == id_wm
                assert c.verify(suspect_id=id_wm)["decisions"][0]["owned"] is True
                assert c.verify(suspect_id=id_clean)["decisions"][0]["owned"] is False

    def test_burst_without_rate_is_rejected(self):
        with pytest.raises(ValueError, match="rate_limit_burst requires"):
            ServiceConfig(rate_limit_burst=50)

    def test_suspect_store_is_lru_bounded(self, watermarked_and_key, quantized_awq4):
        watermarked, key = watermarked_and_key
        server = VerificationServer(
            config=ServiceConfig(port=0, max_wait_ms=1.0, max_suspects=2)
        )
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                c.register_key(key, owner="acme")
                for index in range(4):
                    c.upload_suspect(quantized_awq4, suspect_id=f"s-{index}")
                c.upload_suspect(watermarked, suspect_id="hit")
                stats = c.stats()["suspects"]
                assert stats["count"] == 2
                assert stats["evictions"] == 3
                # Newest entries survive, oldest were evicted.
                assert c.verify(suspect_id="hit")["decisions"][0]["owned"] is True
                with pytest.raises(ServiceError) as excinfo:
                    c.verify(suspect_id="s-0")
                assert excinfo.value.status == 404

    def test_oversized_header_returns_400(self, server_handle):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server_handle.port, timeout=5)
        try:
            conn.putrequest("GET", "/healthz", skip_host=False)
            conn.putheader("X-Padding", "x" * (80 * 1024))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_rate_limit_returns_429(self, watermarked_and_key):
        watermarked, key = watermarked_and_key
        server = VerificationServer(
            config=ServiceConfig(
                port=0, max_wait_ms=1.0, rate_limit_per_sec=0.001, rate_limit_burst=2
            )
        )
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                c.register_key(key, owner="acme")
                c.upload_suspect(watermarked, suspect_id="hit")
                assert c.verify(suspect_id="hit")["decisions"]
                assert c.verify(suspect_id="hit")["decisions"]
                with pytest.raises(RateLimitedError):
                    c.verify(suspect_id="hit")
                stats = c.stats()
                assert stats["admission"]["rejected"] >= 1
                assert stats["server"]["rejected_rate_limit"] >= 1


class TestMultiOwnerService:
    """Per-owner admission control and multi-owner /suspects ranking."""

    @pytest.fixture()
    def second_owner_key(self, quantized_awq4, activation_stats, emmark_config):
        """A second owner's key for the same model (different seed d)."""
        config = emmark_config.with_overrides(
            seed=emmark_config.seed + 13, signature_seed=emmark_config.signature_seed + 13
        )
        _, key, _ = WatermarkEngine().insert(
            quantized_awq4, activation_stats, config=config
        )
        return key

    def test_per_owner_rate_limit_is_keyed_by_registry_owner(
        self, watermarked_and_key, second_owner_key
    ):
        watermarked, key = watermarked_and_key
        server = VerificationServer(
            config=ServiceConfig(
                port=0,
                max_wait_ms=1.0,
                owner_rate_limit_per_sec=0.001,
                owner_rate_limit_burst=2,
            )
        )
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                acme = c.register_key(key, owner="acme")["key_id"]
                globex = c.register_key(second_owner_key, owner="globex")["key_id"]
                c.upload_suspect(watermarked, suspect_id="hit")
                # acme's private bucket drains after its burst of 2...
                assert c.verify(suspect_id="hit", key_ids=[acme])["decisions"]
                assert c.verify(suspect_id="hit", key_ids=[acme])["decisions"]
                with pytest.raises(RateLimitedError):
                    c.verify(suspect_id="hit", key_ids=[acme])
                # ...while globex's bucket is untouched: one owner cannot
                # starve another (the global-bucket failure mode).
                assert c.verify(suspect_id="hit", key_ids=[globex])["decisions"]
                stats = c.stats()
                assert stats["owner_admission"]["enabled"] is True
                assert stats["owner_admission"]["rejected"] >= 1
                assert "acme" in stats["owner_admission"]["rejected_by_owner"]
                assert stats["server"]["rejected_owner_rate"] >= 1

    def test_mixed_owner_request_rejection_refunds_admitted_owners(
        self, watermarked_and_key, second_owner_key
    ):
        watermarked, key = watermarked_and_key
        server = VerificationServer(
            config=ServiceConfig(
                port=0,
                max_wait_ms=1.0,
                owner_rate_limit_per_sec=0.001,
                owner_rate_limit_burst=2,
            )
        )
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                acme = c.register_key(key, owner="acme")["key_id"]
                globex = c.register_key(second_owner_key, owner="globex")["key_id"]
                c.upload_suspect(watermarked, suspect_id="hit")
                # Drain acme entirely.
                c.verify(suspect_id="hit", key_ids=[acme])
                c.verify(suspect_id="hit", key_ids=[acme])
                # A request touching both owners is rejected by acme's empty
                # bucket — and must not charge globex for the failed attempt.
                with pytest.raises(RateLimitedError):
                    c.verify(suspect_id="hit", key_ids=[acme, globex])
                with pytest.raises(RateLimitedError):
                    c.verify(suspect_id="hit", key_ids=[acme, globex])
                assert c.verify(suspect_id="hit", key_ids=[globex])["decisions"]
                assert c.verify(suspect_id="hit", key_ids=[globex])["decisions"]

    def test_owner_burst_without_rate_is_rejected(self):
        with pytest.raises(ValueError, match="owner_rate_limit_burst requires"):
            ServiceConfig(owner_rate_limit_burst=10)

    def test_suspects_ranking_across_co_resident_keys(
        self, watermarked_and_key, second_owner_key
    ):
        watermarked, key = watermarked_and_key
        server = VerificationServer(
            engine=WatermarkEngine(EngineConfig()),
            config=ServiceConfig(port=0, max_wait_ms=1.0),
        )
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                acme = c.register_key(key, owner="acme")["key_id"]
                globex = c.register_key(second_owner_key, owner="globex")["key_id"]
                out = c.upload_suspect(watermarked, suspect_id="hit", rank=True)
                # Both claimants of the model family are listed with owners.
                assert {entry["key_id"] for entry in out["candidate_keys"]} == {acme, globex}
                assert {entry["owner"] for entry in out["candidate_keys"]} == {"acme", "globex"}
                # Ranking puts the true owner first with full evidence.
                ranking = out["ranking"]
                assert [entry["key_id"] for entry in ranking][0] == acme
                assert ranking[0]["owned"] is True
                assert ranking[0]["wer_percent"] == 100.0
                assert ranking[0]["owner"] == "acme"
                assert ranking[1]["key_id"] == globex
                assert ranking[1]["owned"] is False
                # Without the flag the upload stays cheap (no ranking field).
                plain = c.upload_suspect(watermarked, suspect_id="hit-2")
                assert "ranking" not in plain

    def test_rank_flag_must_be_boolean(self, watermarked_and_key):
        watermarked, key = watermarked_and_key
        server = VerificationServer(config=ServiceConfig(port=0, max_wait_ms=1.0))
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                from repro.service.codec import model_to_wire

                with pytest.raises(ServiceError, match="'rank' must be a boolean") as excinfo:
                    c._request(
                        "POST", "/suspects",
                        {"model": model_to_wire(watermarked), "rank": "yes"},
                    )
                assert excinfo.value.status == 400

    def test_multi_owner_keys_register_with_co_residents(
        self, quantized_awq4, activation_stats
    ):
        engine = WatermarkEngine()
        result = engine.insert_multi(quantized_awq4, activation_stats, 2)
        server = VerificationServer(config=ServiceConfig(port=0, max_wait_ms=1.0))
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                for owner_id, key in result.keys().items():
                    c.register_key(key, owner=owner_id)
                c.upload_suspect(result.model, suspect_id="deploy")
                # Both co-resident owners verify independently at 100%.
                for record in c.keys():
                    decision = c.verify(
                        suspect_id="deploy", key_ids=[record["key_id"]]
                    )["decisions"][0]
                    assert decision["owned"] is True
                    assert decision["wer_percent"] == 100.0
                    assert record["co_residents"]  # denormalized onto the record
                assert c.stats()["registry"]["multi_owner_models"] == 1


class TestVersionedSurface:
    """The /v1 resource surface, legacy aliases and the error envelope."""

    def test_v1_and_legacy_paths_serve_the_same_payload(self, client):
        v1 = client._request("GET", "/v1/healthz")
        legacy = client._request("GET", "/healthz")
        assert v1["status"] == legacy["status"] == "ok"

    def test_legacy_path_carries_deprecation_header(self, server_handle):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server_handle.port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            assert response.getheader("Deprecation") == "true"
            conn.request("GET", "/v1/healthz")
            response = conn.getresponse()
            response.read()
            assert response.status == 200
            assert response.getheader("Deprecation") is None
        finally:
            conn.close()

    def test_legacy_requests_are_counted(self, client):
        before = client.stats()["server"]["legacy_requests"]
        client._request("GET", "/healthz")
        client._request("GET", "/stats")
        after = client.stats()["server"]["legacy_requests"]
        assert after == before + 2
        assert "repro_server_legacy_requests_total" in client.metrics()

    def test_error_envelope_shape(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.verify(suspect_id="ghost")
        error = excinfo.value.payload["error"]
        assert set(error) >= {"code", "message"}
        assert error["code"] == "not_found"
        assert excinfo.value.code == "not_found"
        assert "ghost" in error["message"]

    def test_envelope_codes_by_status(self, client):
        cases = [
            ("POST", "/v1/register", {"owner": "x"}, 400, "invalid_request"),
            ("GET", "/v1/nope", None, 404, "not_found"),
            ("GET", "/v1/verify", None, 405, "method_not_allowed"),
        ]
        for method, path, body, status, code in cases:
            with pytest.raises(ServiceError) as excinfo:
                client._request(method, path, body)
            assert excinfo.value.status == status
            assert excinfo.value.code == code

    def test_rate_limited_envelope_carries_retry_after(self, watermarked_and_key):
        watermarked, key = watermarked_and_key
        server = VerificationServer(
            config=ServiceConfig(
                port=0, max_wait_ms=1.0, rate_limit_per_sec=0.001, rate_limit_burst=1
            )
        )
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                c.register_key(key, owner="acme")
                c.upload_suspect(watermarked, suspect_id="hit")
                c.verify(suspect_id="hit")
                with pytest.raises(RateLimitedError) as excinfo:
                    c.verify(suspect_id="hit")
                assert excinfo.value.code == "rate_limited"
                assert excinfo.value.retry_after is not None

    def test_reason_phrases_cover_all_emitted_statuses(self):
        # Regression: 202 (job submit) and 409 (job conflicts) once fell
        # through to the bare status number because _REASONS lacked them.
        from repro.service.server import _ERROR_CODES, _REASONS

        for status in (200, 202, 400, 404, 405, 409, 429, 500, 503):
            assert status in _REASONS
        assert _REASONS[202] == "Accepted"
        assert _REASONS[409] == "Conflict"
        # Every defaulted error status has an envelope code.
        for status in (400, 404, 405, 409, 429, 500, 503):
            assert status in _ERROR_CODES

    def test_delete_key_resource_route(self, watermarked_and_key):
        _, key = watermarked_and_key
        server = VerificationServer(config=ServiceConfig(port=0, max_wait_ms=1.0))
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                record = c.register_key(key, owner="acme")
                revoked = c._request("DELETE", f"/v1/keys/{record['key_id']}")
                assert revoked["revoked"]["revoked"] is True
                # Legacy POST /revoke still answers for old clients.
                again = c._request("POST", "/revoke", {"key_id": record["key_id"]})
                assert again["revoked"]["revoked"] is True
                with pytest.raises(ServiceError) as excinfo:
                    c._request("DELETE", "/v1/keys/wmk-ghost")
                assert excinfo.value.status == 404

    def test_readiness_probe_flips_to_503_on_drain(self, watermarked_and_key):
        server = VerificationServer(config=ServiceConfig(port=0, max_wait_ms=1.0))
        with run_in_background(server) as handle:
            with VerificationClient(port=handle.port) as c:
                ready = c.healthz(ready=True)
                assert ready["status"] == "ok"
                assert ready["ready"] is True
                server.jobs.drain()
                from repro.service import ServiceUnavailableError

                with pytest.raises(ServiceUnavailableError) as excinfo:
                    c.healthz(ready=True)
                assert excinfo.value.code == "not_ready"
                assert excinfo.value.payload["ready"] is False
                # Liveness stays green while draining (the pod is alive).
                assert c.healthz()["status"] == "ok"
