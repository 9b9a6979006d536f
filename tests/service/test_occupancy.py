"""Occupancy audit: offline verdicts, the live ``GET /v1/audit`` endpoint and
``repro audit --port`` against a running server all agree on one digest."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.engine import EngineConfig, WatermarkEngine
from repro.engine.allocator import SlotAllocator
from repro.service import (
    KeyRegistry,
    ServiceConfig,
    ServiceError,
    VerificationClient,
    VerificationServer,
    occupancy_audit,
    run_in_background,
)


def synthetic_keys(base_key, count):
    """Distinct keys (and model fingerprints) from one real insertion.

    ``model_name`` feeds both fingerprints, so renaming yields genuinely
    distinct registry entries while keeping the reproduced slot locations
    (driven by config/weights/activations) intact.
    """
    return [
        replace(base_key, model_name=f"synth-{index:04d}") for index in range(count)
    ]


class TestOccupancyAudit:
    def test_single_key_is_disjoint(self, watermarked_and_key):
        _, key = watermarked_and_key
        registry = KeyRegistry()
        registry.register(key, owner="acme")
        report = occupancy_audit(registry)
        assert report.ok
        assert len(report.verdicts) == 1
        verdict = report.verdicts[0]
        assert verdict.model_fingerprint == key.model_fingerprint()
        assert verdict.key_ids == [key.fingerprint()]
        assert verdict.owners == ["acme"]
        assert verdict.total_slots == key.total_bits
        assert report.digest().startswith("aud-")

    def test_occupancy_aware_co_residents_pass(
        self, quantized_awq4, activation_stats, emmark_config, watermarked_and_key
    ):
        _, first = watermarked_and_key
        engine = WatermarkEngine(EngineConfig())
        occupied = SlotAllocator.from_keys({first.fingerprint(): first}, engine)
        _, second, _ = engine.insert(
            quantized_awq4,
            activation_stats,
            config=emmark_config.with_overrides(signature_seed=977),
            occupied=occupied,
        )
        assert second.fingerprint() != first.fingerprint()
        registry = KeyRegistry()
        registry.register(first, owner="acme")
        registry.register(second, owner="globex")
        report = occupancy_audit(registry, engine)
        assert report.ok
        (verdict,) = report.verdicts
        assert verdict.total_slots == first.total_bits + second.total_bits
        assert sorted(verdict.owners) == ["acme", "globex"]

    def test_overlapping_pair_is_detected(self, watermarked_and_key):
        _, key = watermarked_and_key
        # Same plan inputs, negated signature: a distinct key id that
        # reproduces the exact same locations — a guaranteed collision.
        impostor = replace(key, signature=-key.signature)
        assert impostor.fingerprint() != key.fingerprint()
        registry = KeyRegistry()
        registry.register(key, owner="acme")
        registry.register(impostor, owner="mallory")
        report = occupancy_audit(registry)
        assert not report.ok
        (verdict,) = report.collisions
        assert verdict.collision is not None
        assert verdict.collision["layer"]
        assert verdict.collision["indices"]
        assert verdict.collision["holder"] in verdict.key_ids

    def test_collision_does_not_abort_the_sweep(self, watermarked_and_key):
        _, key = watermarked_and_key
        clean = synthetic_keys(key, 1)[0]
        registry = KeyRegistry()
        registry.register(key, owner="acme")
        registry.register(replace(key, signature=-key.signature), owner="mallory")
        registry.register(clean, owner="acme")
        report = occupancy_audit(registry)
        assert len(report.verdicts) == 2
        assert len(report.collisions) == 1
        by_fp = {v.model_fingerprint: v for v in report.verdicts}
        assert by_fp[clean.model_fingerprint()].disjoint

    def test_empty_registry_is_ok_with_no_verdicts(self):
        report = occupancy_audit(KeyRegistry())
        assert report.ok
        assert report.verdicts == []
        assert report.to_dict()["models"] == 0
        assert report.digest() == occupancy_audit(KeyRegistry()).digest()

    def test_each_model_fingerprint_gets_one_verdict_in_order(
        self, watermarked_and_key
    ):
        _, base = watermarked_and_key
        keys = synthetic_keys(base, 4)
        registry = KeyRegistry()
        for key in reversed(keys):
            registry.register(key, owner="acme")
        report = occupancy_audit(registry)
        fingerprints = [v.model_fingerprint for v in report.verdicts]
        assert fingerprints == sorted(k.model_fingerprint() for k in keys)
        assert all(v.disjoint and len(v.key_ids) == 1 for v in report.verdicts)

    def test_digest_is_registration_order_invariant(self, watermarked_and_key):
        _, base = watermarked_and_key
        keys = synthetic_keys(base, 6)
        forward, backward = KeyRegistry(), KeyRegistry()
        for key in keys:
            forward.register(key, owner="acme")
        for key in reversed(keys):
            backward.register(key, owner="acme")
        assert occupancy_audit(forward).digest() == occupancy_audit(backward).digest()

    def test_digest_tracks_the_key_population(self, watermarked_and_key):
        _, base = watermarked_and_key
        first, second = synthetic_keys(base, 2)
        registry = KeyRegistry()
        registry.register(first, owner="acme")
        before = occupancy_audit(registry).digest()
        registry.register(second, owner="acme")
        assert occupancy_audit(registry).digest() != before

    def test_digest_ignores_elapsed_time(self, watermarked_and_key):
        _, key = watermarked_and_key
        registry = KeyRegistry()
        registry.register(key, owner="acme")
        report = occupancy_audit(registry)
        digest = report.digest()
        report.elapsed_seconds += 60.0
        assert report.digest() == digest

    def test_revoking_the_impostor_clears_the_collision(self, watermarked_and_key):
        _, key = watermarked_and_key
        impostor = replace(key, signature=-key.signature)
        registry = KeyRegistry()
        registry.register(key, owner="acme")
        registry.register(impostor, owner="mallory")
        assert not occupancy_audit(registry).ok
        registry.revoke(impostor.fingerprint())
        report = occupancy_audit(registry)
        assert report.ok
        (verdict,) = report.verdicts
        assert verdict.key_ids == [key.fingerprint()]
        assert verdict.owners == ["acme"]

    def test_fully_revoked_model_is_not_audited(self, watermarked_and_key):
        _, key = watermarked_and_key
        registry = KeyRegistry()
        registry.register(key, owner="acme")
        registry.revoke(key.fingerprint())
        report = occupancy_audit(registry)
        assert report.ok
        assert report.verdicts == []

    def test_report_dict_carries_a_collision_only_when_found(
        self, watermarked_and_key
    ):
        _, key = watermarked_and_key
        clean = synthetic_keys(key, 1)[0]
        registry = KeyRegistry()
        registry.register(key, owner="acme")
        registry.register(replace(key, signature=-key.signature), owner="mallory")
        registry.register(clean, owner="acme")
        report = occupancy_audit(registry)
        payload = report.to_dict()
        assert payload["ok"] is False
        assert payload["digest"] == report.digest()
        assert payload["models"] == 2
        assert payload["collisions"] == 1
        by_fp = {v["model_fingerprint"]: v for v in payload["verdicts"]}
        assert "collision" not in by_fp[clean.model_fingerprint()]
        assert by_fp[key.model_fingerprint()]["collision"]["holder"] in (
            by_fp[key.model_fingerprint()]["key_ids"]
        )
        json.dumps(payload)  # the endpoint and ``--json`` serialise it as is

    def test_collision_indices_are_capped_at_eight(self, watermarked_and_key):
        _, key = watermarked_and_key
        registry = KeyRegistry()
        registry.register(key, owner="acme")
        registry.register(replace(key, signature=-key.signature), owner="mallory")
        (verdict,) = occupancy_audit(registry).collisions
        indices = verdict.collision["indices"]
        assert 1 <= len(indices) <= 8
        assert all(type(index) is int for index in indices)

    def test_reopened_registry_audits_to_the_same_digest(
        self, watermarked_and_key, tmp_path
    ):
        _, base = watermarked_and_key
        written = KeyRegistry(tmp_path / "reg")
        for key in synthetic_keys(base, 3):
            written.register(key, owner="acme")
        reopened = KeyRegistry(tmp_path / "reg")
        assert occupancy_audit(reopened).digest() == occupancy_audit(written).digest()
        assert occupancy_audit(reopened).ok


@pytest.fixture(scope="module")
def live_registry(watermarked_and_key, tmp_path_factory):
    """(server handle, registry directory): a server over a persisted registry."""
    _, key = watermarked_and_key
    root = tmp_path_factory.mktemp("audit") / "reg"
    KeyRegistry(root).register(key, owner="acme")
    engine = WatermarkEngine(EngineConfig())
    server = VerificationServer(
        engine=engine,
        registry=KeyRegistry(root, engine=engine),
        config=ServiceConfig(port=0),
    )
    with run_in_background(server) as handle:
        yield handle, root


class TestLiveAudit:
    """A running server's ``GET /v1/audit`` is the offline audit of its
    registry directory, and ``repro audit --port`` reports it unchanged."""

    def test_endpoint_digest_matches_offline_audit(self, live_registry):
        handle, root = live_registry
        with VerificationClient(port=handle.port) as client:
            live = client._request("GET", "/v1/audit")["audit"]
        offline = occupancy_audit(KeyRegistry(root))
        assert live["ok"] is True
        assert live["models"] == 1
        assert live["digest"] == offline.digest()

    def test_cli_port_audit_prints_the_live_digest(self, live_registry, capsys):
        handle, root = live_registry
        offline = occupancy_audit(KeyRegistry(root))
        code = main(["audit", "--port", str(handle.port), "--json"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["ok"] is True
        assert out["digest"] == offline.digest()

    def test_cli_port_audit_text_line(self, live_registry, capsys):
        handle, root = live_registry
        offline = occupancy_audit(KeyRegistry(root))
        assert main(["audit", "--port", str(handle.port)]) == 0
        out = capsys.readouterr().out
        assert "DISJOINT — 1 model fingerprint(s), 0 collision(s)" in out
        assert offline.digest() in out

    def test_audit_route_is_get_only(self, live_registry):
        handle, _ = live_registry
        with VerificationClient(port=handle.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/v1/audit", {})
        assert excinfo.value.status == 405


@pytest.fixture(scope="module")
def colliding_server(watermarked_and_key, tmp_path_factory):
    """(server handle, registry directory) over two keys on the same slots."""
    _, key = watermarked_and_key
    root = tmp_path_factory.mktemp("collision") / "reg"
    seeded = KeyRegistry(root)
    seeded.register(key, owner="acme")
    seeded.register(replace(key, signature=-key.signature), owner="mallory")
    engine = WatermarkEngine(EngineConfig())
    server = VerificationServer(
        engine=engine,
        registry=KeyRegistry(root, engine=engine),
        config=ServiceConfig(port=0),
    )
    with run_in_background(server) as handle:
        yield handle, root


class TestLiveCollision:
    """A collision the server's registry holds is reported by the endpoint
    and by ``repro audit --port`` exactly as the offline audit sees it."""

    def test_endpoint_reports_the_collision(self, colliding_server, watermarked_and_key):
        handle, root = colliding_server
        _, key = watermarked_and_key
        with VerificationClient(port=handle.port) as client:
            live = client._request("GET", "/v1/audit")["audit"]
        assert live["ok"] is False
        assert live["collisions"] == 1
        (verdict,) = live["verdicts"]
        assert verdict["model_fingerprint"] == key.model_fingerprint()
        assert sorted(verdict["owners"]) == ["acme", "mallory"]
        assert live["digest"] == occupancy_audit(KeyRegistry(root)).digest()

    def test_cli_port_audit_exits_one_and_names_the_collision(
        self, colliding_server, watermarked_and_key, capsys
    ):
        handle, _ = colliding_server
        _, key = watermarked_and_key
        assert main(["audit", "--port", str(handle.port)]) == 1
        captured = capsys.readouterr()
        assert "COLLISION — 1 model fingerprint(s), 1 collision(s)" in captured.out
        assert f"COLLISION {key.model_fingerprint()}: layer" in captured.out
