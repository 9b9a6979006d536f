"""Tests for the LRU plan cache and the plan fingerprinting."""

import gc

import numpy as np
import pytest

from repro.core.config import EmMarkConfig
from repro.engine.cache import PlanCache
from repro.engine.plan import LocationPlan, plan_fingerprint, weights_digest
from repro.engine.plan import _weights_digest as _weights_digest_memo
from repro.quant.base import QuantizationGrid, QuantizedLinear


def make_plan(name: str) -> LocationPlan:
    return LocationPlan(
        layer_name=name,
        fingerprint=name,
        candidate_indices=np.arange(8),
        locations=np.arange(4),
        pool_size=8,
        num_weights=64,
    )


class TestPlanCache:
    def test_miss_then_hit(self):
        cache = PlanCache(max_entries=4)
        assert cache.get("a") is None
        cache.put("a", make_plan("a"))
        assert cache.get("a").layer_name == "a"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_get_or_compute_runs_factory_once(self):
        cache = PlanCache(max_entries=4)
        calls = []

        def factory():
            calls.append(1)
            return make_plan("a")

        first = cache.get_or_compute("a", factory)
        second = cache.get_or_compute("a", factory)
        assert first is second
        assert len(calls) == 1

    def test_lru_eviction_order(self):
        cache = PlanCache(max_entries=2)
        cache.put("a", make_plan("a"))
        cache.put("b", make_plan("b"))
        # Touch "a" so "b" becomes the least recently used entry.
        assert cache.get("a") is not None
        cache.put("c", make_plan("c"))
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.evictions == 1

    def test_capacity_bound_holds(self):
        cache = PlanCache(max_entries=3)
        for index in range(10):
            cache.put(str(index), make_plan(str(index)))
        assert len(cache) == 3
        assert cache.evictions == 7

    def test_stats_snapshot_and_delta(self):
        cache = PlanCache(max_entries=4)
        cache.get("missing")
        before = cache.stats()
        cache.put("a", make_plan("a"))
        cache.get("a")
        cache.get("a")
        delta = cache.stats().delta(before)
        assert delta.hits == 2
        assert delta.misses == 0
        assert before.hit_rate == 0.0
        assert cache.stats().hit_rate == pytest.approx(2 / 3)

    def test_clear_preserves_counters(self):
        cache = PlanCache(max_entries=4)
        cache.put("a", make_plan("a"))
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)


def fingerprint_of(layer, activations, config, bits_needed=4):
    return plan_fingerprint(
        layer_name=layer.name,
        grid_bits=layer.grid.bits,
        weight_int=layer.weight_int,
        outlier_columns=layer.outlier_columns,
        channel_activations=activations,
        alpha=config.alpha,
        beta=config.beta,
        seed=config.seed,
        exclude_saturated=config.exclude_saturated,
        pool_size=config.candidate_pool_size(layer.num_weights),
        bits_needed=bits_needed,
    )


class TestPlanFingerprint:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.weight = rng.integers(-6, 7, size=(8, 8))
        self.layer = QuantizedLinear(
            name="probe",
            weight_int=self.weight,
            scale=np.ones((8, 1)),
            grid=QuantizationGrid(4),
        )
        self.activations = rng.random(8) + 0.5
        self.config = EmMarkConfig(bits_per_layer=4)

    def test_deterministic(self):
        assert fingerprint_of(self.layer, self.activations, self.config) == fingerprint_of(
            self.layer, self.activations, self.config
        )

    def test_sensitive_to_every_scoring_input(self):
        base = fingerprint_of(self.layer, self.activations, self.config)
        assert base != fingerprint_of(
            self.layer, self.activations, self.config.with_overrides(seed=101)
        )
        assert base != fingerprint_of(
            self.layer, self.activations, self.config.with_overrides(alpha=0.7)
        )
        assert base != fingerprint_of(
            self.layer, self.activations, self.config.with_overrides(exclude_saturated=False)
        )
        assert base != fingerprint_of(self.layer, self.activations, self.config, bits_needed=5)
        assert base != fingerprint_of(self.layer, self.activations * 1.01, self.config)
        perturbed = QuantizedLinear(
            name="probe",
            weight_int=np.where(self.weight == 1, 2, self.weight),
            scale=np.ones((8, 1)),
            grid=QuantizationGrid(4),
        )
        assert base != fingerprint_of(perturbed, self.activations, self.config)
        renamed = QuantizedLinear(
            name="probe2",
            weight_int=self.weight,
            scale=np.ones((8, 1)),
            grid=QuantizationGrid(4),
        )
        assert base != fingerprint_of(renamed, self.activations, self.config)

    def test_insensitive_to_scales_and_signature_seed(self):
        """Quantization scales and signature seeds cannot change locations."""
        base = fingerprint_of(self.layer, self.activations, self.config)
        rescaled = QuantizedLinear(
            name="probe",
            weight_int=self.weight,
            scale=np.full((8, 1), 3.5),
            grid=QuantizationGrid(4),
        )
        assert base == fingerprint_of(rescaled, self.activations, self.config)
        assert base == fingerprint_of(
            self.layer, self.activations, self.config.with_overrides(signature_seed=999)
        )


class TestWeightsDigest:
    """The per-array digest memo behind :func:`plan_fingerprint`."""

    @staticmethod
    def _frozen(array):
        array = np.array(array, dtype=np.int64)
        array.flags.writeable = False
        return array

    def test_equal_content_in_distinct_arrays_digests_equal(self):
        first = self._frozen(np.arange(12).reshape(3, 4))
        second = self._frozen(np.arange(12).reshape(3, 4))
        writable = np.arange(12).reshape(3, 4)
        assert first is not second
        assert weights_digest(first) == weights_digest(second) == weights_digest(writable)

    def test_digest_covers_shape(self):
        flat = self._frozen(np.arange(12))
        assert weights_digest(flat) != weights_digest(self._frozen(flat.reshape(3, 4)))

    def test_replaced_array_gets_a_new_digest(self):
        layer = QuantizedLinear(
            name="probe",
            weight_int=np.zeros((2, 3), dtype=np.int64),
            scale=np.ones((2, 1)),
            grid=QuantizationGrid(4),
        )
        before = weights_digest(layer.weight_int)
        layer.add_to_weights(np.array([4]), np.array([1]))
        assert weights_digest(layer.weight_int) != before
        layer.weight_int = np.zeros((2, 3), dtype=np.int64)
        assert weights_digest(layer.weight_int) == before

    def test_writable_array_is_rehashed_after_each_change(self):
        weights = np.zeros((2, 3), dtype=np.int64)
        digests = {weights_digest(weights)}
        for step in range(1, 4):
            weights[0, 0] = step
            digests.add(weights_digest(weights))
        assert len(digests) == 4
        assert _weights_digest_memo._entries.get(id(weights)) is None

    def test_array_made_writable_again_is_not_served_stale(self):
        weights = self._frozen(np.zeros((2, 3)))
        before = weights_digest(weights)
        weights.flags.writeable = True
        weights[0, 0] = 1
        changed = weights_digest(weights)
        weights.flags.writeable = False
        assert changed != before
        assert weights_digest(weights) == changed

    def test_dead_array_leaves_the_memo(self):
        # Collect first: arrays that earlier tests left in reference cycles
        # would otherwise leave the memo during the collection below.
        gc.collect()
        entries = _weights_digest_memo._entries
        arrays = [self._frozen(np.full((2, 2), value)) for value in range(5)]
        keys = [id(array) for array in arrays]
        digests = [weights_digest(array) for array in arrays]
        assert all(entries[key][0]() is array for key, array in zip(keys, arrays))
        del arrays
        gc.collect()
        assert [entries.get(key) for key in keys] == [None] * 5
        # Fresh arrays (which may reuse the dead ids) get their own digests.
        for value, digest in enumerate(digests):
            fresh = self._frozen(np.full((2, 2), value + 10))
            assert weights_digest(fresh) != digest
            assert weights_digest(fresh) == weights_digest(np.full((2, 2), value + 10))

    def test_fingerprint_follows_a_replaced_weight_array(self):
        config = EmMarkConfig(bits_per_layer=2)
        activations = np.ones(3)
        layer = QuantizedLinear(
            name="probe",
            weight_int=np.zeros((2, 3), dtype=np.int64),
            scale=np.ones((2, 1)),
            grid=QuantizationGrid(4),
        )
        before = fingerprint_of(layer, activations, config)
        clone = layer.copy()
        assert fingerprint_of(clone, activations, config) == before
        clone.add_to_weights(np.array([0]), np.array([1]))
        assert fingerprint_of(clone, activations, config) != before
        assert fingerprint_of(layer, activations, config) == before
