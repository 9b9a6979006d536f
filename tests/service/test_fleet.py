"""Sharded fleet: hash ring, occupancy audit, router/client round-trips.

The invariants under test are the ones the benchmark gate
(``benchmarks/compare_bench.py``, kind ``service_fleet``) later enforces on
real artifacts: placement is deterministic and coordination-free, the
occupancy audit's digest is independent of how the key population is
sharded, and a verify answered through the router is bit-identical to one
answered by the owning shard directly.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine import EngineConfig, WatermarkEngine
from repro.engine.allocator import SlotAllocator
from repro.service import (
    FleetAuditError,
    FleetClient,
    HashRing,
    KeyRegistry,
    OccupancyAuditReport,
    ServiceError,
    VerificationClient,
    launch_fleet,
    occupancy_audit,
    partition_registry,
    shard_labels,
)
from repro.service.loadgen import LoadConfig, RequestTemplate, run_load


def synthetic_keys(base_key, count):
    """Distinct keys (and model fingerprints) from one real insertion.

    ``model_name`` feeds both fingerprints, so renaming yields genuinely
    distinct registry entries while keeping the reproduced slot locations
    (driven by config/weights/activations) intact.
    """
    return [
        replace(base_key, model_name=f"synth-{index:04d}") for index in range(count)
    ]


class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        keys = [f"wmm-{i:03d}" for i in range(200)]
        a = HashRing(shard_labels(4))
        b = HashRing(shard_labels(4))
        assert [a.node_for(k) for k in keys] == [b.node_for(k) for k in keys]

    def test_index_for_matches_label_order(self):
        ring = HashRing(["shard-0", "shard-1", "shard-2"])
        for key in (f"wmm-{i}" for i in range(50)):
            assert ring.nodes[ring.index_for(key)] == ring.node_for(key)

    def test_spread_covers_every_node_and_sums(self):
        keys = [f"wmm-{i:04d}" for i in range(500)]
        ring = HashRing(shard_labels(4))
        spread = ring.spread(keys)
        assert sum(spread.values()) == len(keys)
        assert all(count > 0 for count in spread.values())

    def test_adding_a_shard_only_moves_keys_to_the_new_shard(self):
        # The consistent-hashing contract: growing the fleet never shuffles
        # keys between surviving shards — a key either stays put or lands on
        # the newcomer.
        keys = [f"wmm-{i:04d}" for i in range(300)]
        before = HashRing(shard_labels(2))
        after = HashRing(shard_labels(3))
        for key in keys:
            new_owner = after.node_for(key)
            if new_owner != "shard-2":
                assert new_owner == before.node_for(key)

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a", "a"])
        with pytest.raises(ValueError):
            HashRing(["a"], replicas=0)

    def test_shard_labels(self):
        assert shard_labels(3) == ["shard-0", "shard-1", "shard-2"]


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

    def test_digest_is_shard_count_invariant(self, watermarked_and_key):
        _, base = watermarked_and_key
        keys = synthetic_keys(base, 6)
        single = KeyRegistry()
        for key in keys:
            single.register(key, owner="acme")
        whole = occupancy_audit(single)

        ring = HashRing(shard_labels(2))
        partitions = [KeyRegistry(), KeyRegistry()]
        for key in keys:
            partitions[ring.index_for(key.model_fingerprint())].register(
                key, owner="acme"
            )
        merged = OccupancyAuditReport.merge(
            [occupancy_audit(part) for part in partitions]
        )
        assert merged.digest() == whole.digest()
        assert merged.ok

    def test_merge_rejects_duplicate_fingerprints(self, watermarked_and_key):
        _, key = watermarked_and_key
        registry = KeyRegistry()
        registry.register(key, owner="acme")
        report = occupancy_audit(registry)
        with pytest.raises(ValueError, match="more than one shard"):
            OccupancyAuditReport.merge([report, report])

    def test_wire_round_trip_preserves_digest(self, watermarked_and_key):
        _, key = watermarked_and_key
        registry = KeyRegistry()
        registry.register(key, owner="acme")
        registry.register(replace(key, signature=-key.signature), owner="mallory")
        report = occupancy_audit(registry)
        revived = OccupancyAuditReport.from_dict(report.to_dict())
        assert revived.digest() == report.digest()
        assert revived.ok == report.ok
        assert len(revived.collisions) == len(report.collisions)


@pytest.fixture(scope="module")
def fleet(watermarked_and_key, quantized_awq4):
    """A running 2-shard fleet with the key and both suspects registered
    through the router (so the router learns the suspect placements)."""
    watermarked, key = watermarked_and_key
    with launch_fleet(num_shards=2, max_wait_ms=1.0) as handle:
        with VerificationClient(port=handle.port) as client:
            record = client.register_key(key, owner="acme", metadata={"suite": "fleet"})
            hit = client.upload_suspect(watermarked, suspect_id="fleet-hit")
            miss = client.upload_suspect(quantized_awq4, suspect_id="fleet-miss")
        yield handle, record, hit, miss


class TestFleetRoundTrip:
    def test_register_reports_the_ring_placement(self, fleet, watermarked_and_key):
        handle, record, hit, miss = fleet
        _, key = watermarked_and_key
        expected = handle.labels[handle.shard_for(key.model_fingerprint())]
        assert record["shard"] == expected
        # hit and miss are deployments of the same model family, so they
        # land behind the same shard as the key.
        assert hit["shard"] == expected
        assert miss["shard"] == expected

    def test_router_verify_is_bit_identical_to_the_owning_shard(
        self, fleet, watermarked_and_key
    ):
        handle, _, _, _ = fleet
        _, key = watermarked_and_key
        shard_index = handle.shard_for(key.model_fingerprint())
        with VerificationClient(port=handle.port) as routed, VerificationClient(
            port=handle.shard_ports[shard_index]
        ) as direct:
            via_router = routed.verify("fleet-hit", key_ids=[key.fingerprint()])
            via_shard = direct.verify("fleet-hit", key_ids=[key.fingerprint()])

        def decisions(payload):
            # Everything but the wall-clock timing must match bit for bit.
            return [
                {k: v for k, v in row.items() if k != "seconds"}
                for row in payload["decisions"]
            ]

        assert decisions(via_router) == decisions(via_shard)
        hit = via_router["decisions"][0]
        assert hit["owned"] is True
        miss = None
        with VerificationClient(port=handle.port) as routed:
            miss = routed.verify("fleet-miss", key_ids=[key.fingerprint()])
        assert miss["decisions"][0]["owned"] is False

    def test_unknown_suspect_is_a_routing_404(self, fleet):
        handle, _, _, _ = fleet
        with VerificationClient(port=handle.port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.verify("never-uploaded")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "unknown_suspect"

    def test_fleet_stats_aggregates_shards(self, fleet):
        handle, _, _, _ = fleet
        with VerificationClient(port=handle.port) as client:
            stats = client._request("GET", "/v1/fleet/stats")
        assert stats["fleet"]["shards"] == 2
        assert stats["fleet"]["reachable_shards"] == 2
        assert stats["fleet"]["registry_keys"] == 1
        assert stats["fleet"]["registry_tickets"] == 1
        assert stats["fleet"]["suspects"] == 2
        assert stats["fleet"]["suspects_routed"] == 2
        assert stats["fleet"]["router"]["forwarded"] > 0
        assert len(stats["shards"]) == 2
        assert all(entry["ok"] for entry in stats["shards"])

    def test_fleet_healthz(self, fleet):
        handle, _, _, _ = fleet
        with VerificationClient(port=handle.port) as client:
            health = client._request("GET", "/v1/fleet/healthz")
        assert health["status"] == "ok"
        assert len(health["shards"]) == 2

    def test_fleet_audit_merges_and_matches_offline(self, fleet):
        handle, _, _, _ = fleet
        with VerificationClient(port=handle.port) as client:
            fanned = client._request("GET", "/v1/fleet/audit")["audit"]
        assert fanned["ok"] is True
        assert fanned["models"] == 1
        assert len(fanned["shards"]) == 2
        offline = OccupancyAuditReport.merge(
            [
                occupancy_audit(server.registry, server.engine)
                for server in handle.shards
            ]
        )
        assert fanned["digest"] == offline.digest()
        assert handle.audit().digest() == offline.digest()

    def test_fleet_client_routes_without_the_router(
        self, fleet, watermarked_and_key, quantized_awq4
    ):
        handle, _, _, _ = fleet
        watermarked, key = watermarked_and_key
        with FleetClient(handle.addresses) as client:
            assert client.shard_for(key.model_fingerprint()) == handle.shard_for(
                key.model_fingerprint()
            )
            uploaded = client.upload_suspect(watermarked, suspect_id="direct-hit")
            assert (
                uploaded["shard"]
                == handle.labels[handle.shard_for(key.model_fingerprint())]
            )
            response = client.verify("direct-hit", key_ids=[key.fingerprint()])
            assert response["decisions"][0]["owned"] is True
            with pytest.raises(KeyError, match="unknown suspect"):
                client.verify("never-uploaded")
            stats = client.stats()
            assert stats["fleet"]["registry_keys"] == 1
            assert stats["fleet"]["registry_tickets"] == 1
            audit = client.audit()
            assert audit["ok"] is True
            assert audit["digest"] == handle.audit().digest()

    def test_loadgen_fleet_mode_reports_per_shard(self, fleet, watermarked_and_key):
        handle, _, _, _ = fleet
        _, key = watermarked_and_key
        shard_index = handle.shard_for(key.model_fingerprint())
        config = LoadConfig(
            concurrency=2,
            total_requests=6,
            templates=[
                RequestTemplate(
                    "fleet-hit",
                    key_ids=(key.fingerprint(),),
                    label="hit",
                    shard=shard_index,
                )
            ],
            fleet=handle.addresses,
        )
        report = run_load(config)
        assert report.completed == 6
        assert report.errors == 0
        # Every fleet address gets a breakdown row; only the targeted shard
        # carries traffic.
        assert set(report.shard_latency_ms) == {"shard-0", "shard-1"}
        shard_name = f"shard-{shard_index}"
        other = f"shard-{1 - shard_index}"
        assert report.shard_latency_ms[shard_name]["p50"] > 0
        assert sum(report.shard_timeseries[shard_name]) == 6
        assert sum(report.shard_timeseries[other]) == 0


class TestLoadConfigFleetValidation:
    def test_fleet_mode_requires_shard_indices(self):
        with pytest.raises(ValueError, match="needs a shard index"):
            LoadConfig(
                total_requests=1,
                templates=[RequestTemplate("s")],
                fleet=["127.0.0.1:1"],
            )

    def test_shard_index_must_be_in_range(self):
        with pytest.raises(ValueError, match="needs a shard index"):
            LoadConfig(
                total_requests=1,
                templates=[RequestTemplate("s", shard=2)],
                fleet=["127.0.0.1:1", "127.0.0.1:2"],
            )

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="at least one shard"):
            LoadConfig(
                total_requests=1,
                templates=[RequestTemplate("s", shard=0)],
                fleet=[],
            )


class TestFleetBuild:
    def test_launch_audit_rejects_colliding_partition(
        self, tmp_path, watermarked_and_key
    ):
        _, key = watermarked_and_key
        root = tmp_path / "registry"
        seeded = KeyRegistry(root / "shard-0")
        seeded.register(key, owner="acme")
        seeded.register(replace(key, signature=-key.signature), owner="mallory")
        with pytest.raises(FleetAuditError) as excinfo:
            launch_fleet(num_shards=1, registry_root=root)
        assert len(excinfo.value.report.collisions) == 1

    def test_partition_registry_follows_the_ring(self, tmp_path, watermarked_and_key):
        _, base = watermarked_and_key
        keys = synthetic_keys(base, 5)
        source = tmp_path / "source"
        registry = KeyRegistry(source)
        for key in keys:
            registry.register(key, owner="acme")
        placement = partition_registry(source, tmp_path / "sharded", 2)
        ring = HashRing(shard_labels(2))
        assert sorted(placement) == ["shard-0", "shard-1"]
        for key in keys:
            expected = ring.node_for(key.model_fingerprint())
            assert key.fingerprint() in placement[expected]
        # Every partition reopens as a servable registry; the union of the
        # shards is exactly the source population and the source survives.
        total = 0
        for label, key_ids in placement.items():
            part = KeyRegistry(tmp_path / "sharded" / label)
            assert part.stats()["keys"] == len(key_ids)
            total += len(key_ids)
        assert total == len(keys)
        assert KeyRegistry(source).stats()["keys"] == len(keys)
