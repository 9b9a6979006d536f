"""Multi-owner watermark coexistence on the engine's slot-allocation layer.

The acceptance bar of the multi-owner refactor:

* two owners inserted into the same RTN-INT8 model each extract at 100% WER,
* decisions are bit-identical to a single-owner insertion when the
  occupancy set is empty, and
* every owner verifies independently through extraction and the fleet
  verification session, from the key material alone.
"""

import numpy as np
import pytest

from repro.core.config import EmMarkConfig
from repro.core.keys import WatermarkKey
from repro.engine import SlotAllocator, WatermarkEngine
from repro.quant.api import quantize_model


@pytest.fixture(scope="module")
def rtn_int8(trained_model, activation_stats):
    """The RTN-INT8 base named by the acceptance criteria."""
    return quantize_model(trained_model, "rtn", bits=8, activations=activation_stats)


@pytest.fixture(scope="module")
def multi_result(rtn_int8, activation_stats):
    """Two owners co-resident in one RTN-INT8 model."""
    return WatermarkEngine().insert_multi(rtn_int8, activation_stats, 2)


class TestTwoOwnersOnRtnInt8:
    def test_both_owners_extract_at_100_percent(self, multi_result):
        engine = WatermarkEngine()
        for owner_id, key in multi_result.keys().items():
            result = engine.extract(multi_result.model, key, strict_layout=False)
            assert result.wer_percent == 100.0, owner_id
            assert result.false_claim_probability < 1e-6

    def test_slot_pools_are_disjoint(self, multi_result):
        engine = WatermarkEngine()
        keys = multi_result.keys()
        locations = {oid: engine.reproduce_locations(key) for oid, key in keys.items()}
        for name in multi_result.model.layer_names():
            overlap = np.intersect1d(
                locations["owner-0"][name], locations["owner-1"][name]
            )
            assert overlap.size == 0, name

    def test_allocator_accounts_for_every_bit(self, multi_result):
        total_bits = sum(item.report.total_bits for item in multi_result.items)
        assert multi_result.allocator.total_slots == total_bits
        assert set(multi_result.allocator.owners()) == {"owner-0", "owner-1"}

    def test_keys_record_co_residency(self, multi_result):
        keys = multi_result.keys()
        assert keys["owner-0"].co_residents == ["owner-1"]
        assert keys["owner-1"].co_residents == ["owner-0"]
        # Owner-0 planned on a virgin model; owner-1 under owner-0's slots.
        assert keys["owner-0"].occupied_slots == {}
        occupied = keys["owner-1"].occupied_slots
        assert sum(len(v) for v in occupied.values()) == keys["owner-0"].total_bits

    def test_fleet_session_verifies_each_owner_independently(self, multi_result):
        report = WatermarkEngine().verify_fleet(
            {"deployment": multi_result.model}, multi_result.keys()
        )
        assert report.ownership_matrix() == {
            "deployment": {"owner-0": True, "owner-1": True}
        }
        for pair in report.pairs:
            assert pair.wer_percent == 100.0

    def test_key_fingerprints_are_distinct(self, multi_result):
        ids = [key.fingerprint() for key in multi_result.keys().values()]
        assert len(set(ids)) == 2

    def test_keys_survive_save_load_with_occupancy(self, multi_result, tmp_path):
        key = multi_result.key_for("owner-1")
        key.save(tmp_path)
        loaded = WatermarkKey.load(tmp_path)
        assert loaded.fingerprint() == key.fingerprint()
        assert loaded.occupied_slots == key.occupied_slots
        assert loaded.co_residents == key.co_residents
        result = WatermarkEngine().extract(multi_result.model, loaded, strict_layout=False)
        assert result.wer_percent == 100.0


class TestEmptyOccupancyBitIdentical:
    def test_insert_with_empty_allocator_matches_plain_insert(
        self, rtn_int8, activation_stats
    ):
        config = EmMarkConfig.scaled_for_model(rtn_int8)
        plain_model, plain_key, _ = WatermarkEngine().insert(
            rtn_int8, activation_stats, config=config
        )
        allocator = SlotAllocator()
        occupied_model, occupied_key, _ = WatermarkEngine().insert(
            rtn_int8, activation_stats, config=config, occupied=allocator, owner="solo"
        )
        for name in rtn_int8.layer_names():
            np.testing.assert_array_equal(
                plain_model.get_layer(name).weight_int,
                occupied_model.get_layer(name).weight_int,
            )
        assert plain_key.fingerprint() == occupied_key.fingerprint()
        assert occupied_key.occupied_slots == {}

    def test_owner_zero_of_multi_matches_single_owner_plan(
        self, rtn_int8, activation_stats, multi_result
    ):
        config = EmMarkConfig.scaled_for_model(rtn_int8)
        _, single_key, _ = WatermarkEngine().insert(
            rtn_int8, activation_stats, config=config
        )
        engine = WatermarkEngine()
        single = engine.reproduce_locations(single_key)
        first = engine.reproduce_locations(multi_result.key_for("owner-0"))
        for name in single:
            np.testing.assert_array_equal(single[name], first[name])

    def test_empty_occupancy_shares_cache_entries_with_plain_plans(
        self, rtn_int8, activation_stats
    ):
        # One engine: a plain insert warms the cache; re-planning through an
        # empty allocator must be pure hits (identical fingerprints).
        engine = WatermarkEngine()
        config = EmMarkConfig.scaled_for_model(rtn_int8)
        engine.insert(rtn_int8, activation_stats, config=config)
        before = engine.cache_info()
        engine.insert(
            rtn_int8, activation_stats, config=config, occupied=SlotAllocator()
        )
        traffic = engine.cache_info().delta(before)
        assert traffic.misses == 0
        assert traffic.hits == rtn_int8.num_quantization_layers


class TestOccupancyPlanning:
    def test_plain_mapping_accepted_as_occupancy(self, rtn_int8, activation_stats):
        engine = WatermarkEngine()
        config = EmMarkConfig.scaled_for_model(rtn_int8)
        _, first_key, _ = engine.insert(rtn_int8, activation_stats, config=config)
        occupied = {
            name: locs for name, locs in engine.reproduce_locations(first_key).items()
        }
        watermarked, second_key, _ = engine.insert(
            rtn_int8, activation_stats, config=config, occupied=occupied
        )
        second = engine.reproduce_locations(second_key)
        for name, taken in occupied.items():
            assert np.intersect1d(second[name], taken).size == 0

    def test_occupied_plans_rerank_to_the_next_best_free_slots(
        self, rtn_int8, activation_stats
    ):
        # The re-ranked pool must be the best *free* positions: every
        # occupied candidate is replaced by the next position in score order,
        # never by an arbitrary one.
        engine = WatermarkEngine()
        config = EmMarkConfig.scaled_for_model(rtn_int8)
        layer = next(rtn_int8.iter_layers())
        saliency = activation_stats.channel_saliency(layer.name)
        free = engine.plan_for_layer(layer, saliency, config.bits_per_layer, config)
        occupied = free.candidate_indices[:5]
        blocked = engine.plan_for_layer(
            layer, saliency, config.bits_per_layer, config, occupied=occupied
        )
        assert np.intersect1d(blocked.candidate_indices, occupied).size == 0
        # The surviving prefix of the virgin ranking is preserved in order.
        survivors = [c for c in free.candidate_indices if c not in set(occupied)]
        np.testing.assert_array_equal(
            blocked.candidate_indices[: len(survivors)], survivors
        )

    def test_insufficient_free_candidates_raise(self, rtn_int8, activation_stats):
        engine = WatermarkEngine()
        config = EmMarkConfig.scaled_for_model(rtn_int8)
        layer = next(rtn_int8.iter_layers())
        saliency = activation_stats.channel_saliency(layer.name)
        # Occupy every eligible position: planning must fail loudly.
        everything = np.arange(layer.num_weights, dtype=np.int64)
        with pytest.raises(ValueError, match="candidate positions"):
            engine.plan_for_layer(
                layer, saliency, config.bits_per_layer, config, occupied=everything
            )

    def test_insert_multi_and_allocator_claim_roundtrip(self, rtn_int8, activation_stats):
        result = WatermarkEngine().insert_multi(rtn_int8, activation_stats, 3)
        assert result.num_owners == 3
        engine = WatermarkEngine()
        for key in result.keys().values():
            extraction = engine.extract(result.model, key, strict_layout=False)
            assert extraction.wer_percent == 100.0
        allocator = SlotAllocator()
        _, key, _ = WatermarkEngine().insert(
            rtn_int8, activation_stats, occupied=allocator, owner="facade"
        )
        assert allocator.owners() == ["facade"]
        assert allocator.total_slots == key.total_bits

    def test_insert_multi_validates_owner_arguments(self, rtn_int8, activation_stats):
        engine = WatermarkEngine()
        with pytest.raises(ValueError, match="owner count"):
            engine.insert_multi(rtn_int8, activation_stats, 0)
        with pytest.raises(ValueError, match="at least one owner"):
            engine.insert_multi(rtn_int8, activation_stats, [])

    def test_resuming_allocation_from_issued_keys(self, rtn_int8, activation_stats):
        # A later custody stage: rebuild the occupancy from the shipped keys
        # alone, then add a third owner without disturbing the first two.
        engine = WatermarkEngine()
        result = engine.insert_multi(rtn_int8, activation_stats, 2)
        allocator = SlotAllocator.from_keys(result.keys(), engine=engine)
        base = EmMarkConfig.scaled_for_model(rtn_int8)
        from dataclasses import replace

        third_config = replace(base, seed=base.seed + 99, signature_seed=base.signature_seed + 99)
        model3, key3, _ = engine.insert(
            result.model, activation_stats, config=third_config,
            occupied=allocator, owner="owner-2",
        )
        verifier = WatermarkEngine()
        for key in [*result.keys().values(), key3]:
            assert verifier.extract(model3, key, strict_layout=False).wer_percent == 100.0
