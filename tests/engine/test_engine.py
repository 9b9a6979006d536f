"""Tests for the unified watermark engine.

Covers cache-hit determinism (locations are identical cold / warm / on a
fresh engine), zero rescoring on warm-cache extraction,
plan-cache eviction behaviour inside the engine, the batch serving API
(``verify_fleet`` over mixed suspects) and the default engine :class:`EmMark`
runs on.
"""

import threading

import numpy as np
import pytest

from repro.core.config import EmMarkConfig
from repro.core.emmark import EmMark
from repro.engine import EngineConfig, PlanCache, WatermarkEngine, get_default_engine
from repro.quant.api import quantize_model
from repro.robustness import build_attack
from repro.utils.rng import new_rng


@pytest.fixture()
def config(quantized_awq4):
    return EmMarkConfig.scaled_for_model(quantized_awq4, bits_per_layer=8)


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(plan_cache_entries=0)

    def test_plan_cache_entries_is_the_only_setting(self):
        assert EngineConfig(plan_cache_entries=7).plan_cache_entries == 7
        for removed in ("max_workers", "parallel_threshold"):
            with pytest.raises(TypeError):
                EngineConfig(**{removed: 2})

    def test_worker_env_variable_is_ignored(
        self, monkeypatch, quantized_awq4, activation_stats, config
    ):
        """``REPRO_ENGINE_WORKERS`` no longer starts threads or changes results."""
        reference, _, _ = WatermarkEngine().insert(
            quantized_awq4, activation_stats, config=config
        )
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "4")
        before = set(threading.enumerate())
        model, _, _ = WatermarkEngine().insert(quantized_awq4, activation_stats, config=config)
        assert set(threading.enumerate()) - before == set()
        for name in reference.layer_names():
            np.testing.assert_array_equal(
                reference.get_layer(name).weight_int, model.get_layer(name).weight_int
            )


class TestDeterminism:
    def test_locations_identical_cold_warm_and_fresh_engine(
        self, quantized_awq4, activation_stats, config
    ):
        engine = WatermarkEngine()
        _, key, _ = engine.insert(quantized_awq4, activation_stats, config=config)
        warm_locations = engine.reproduce_locations(key)        # warm lookup
        fresh_locations = WatermarkEngine().reproduce_locations(key)  # cold recompute
        for name in key.layer_names:
            np.testing.assert_array_equal(warm_locations[name], fresh_locations[name])

    def test_insertion_identical_cold_warm_and_fresh_engine(
        self, quantized_awq4, activation_stats, config
    ):
        engine = WatermarkEngine()
        cold_model, _, _ = engine.insert(quantized_awq4, activation_stats, config=config)
        warm_model, _, _ = engine.insert(quantized_awq4, activation_stats, config=config)
        fresh_model, _, _ = WatermarkEngine().insert(
            quantized_awq4, activation_stats, config=config
        )
        for name in cold_model.layer_names():
            for model in (warm_model, fresh_model):
                np.testing.assert_array_equal(
                    cold_model.get_layer(name).weight_int, model.get_layer(name).weight_int
                )

    def test_eviction_does_not_change_results(
        self, quantized_awq4, activation_stats, config
    ):
        """A pathologically small cache thrashes but stays correct."""
        tiny = WatermarkEngine(cache=PlanCache(max_entries=1))
        watermarked, key, _ = tiny.insert(quantized_awq4, activation_stats, config=config)
        result = tiny.extract(watermarked, key)
        assert result.wer_percent == 100.0
        assert tiny.cache.evictions > 0

    def test_insert_extract_reproduce_round_trip(
        self, quantized_awq4, activation_stats, config
    ):
        engine = WatermarkEngine()
        watermarked, key, _ = engine.insert(quantized_awq4, activation_stats, config=config)
        assert engine.extract(watermarked, key).wer_percent == 100.0
        locations = engine.reproduce_locations(key)
        assert set(locations) == set(key.layer_names)


class TestWarmCache:
    def test_extraction_after_insertion_performs_zero_rescoring(
        self, quantized_awq4, activation_stats, config
    ):
        engine = WatermarkEngine()
        watermarked, key, report = engine.insert(
            quantized_awq4, activation_stats, config=config
        )
        assert report.cache_misses == report.num_layers  # cold insertion scores once
        before = engine.cache_info()
        result = engine.extract(watermarked, key)
        traffic = engine.cache_info().delta(before)
        assert result.wer_percent == 100.0
        assert traffic.misses == 0
        assert traffic.hits == len(key.layer_names)

    def test_repeat_verification_stays_warm(self, quantized_awq4, activation_stats, config):
        engine = WatermarkEngine()
        watermarked, key, _ = engine.insert(quantized_awq4, activation_stats, config=config)
        assert engine.verify(watermarked, key)
        before = engine.cache_info()
        # A previously-verified key: every later screening is pure lookups.
        assert engine.verify(watermarked, key)
        assert not engine.verify(quantized_awq4, key)
        assert engine.cache_info().delta(before).misses == 0

    def test_repeated_insertion_hits_cache(self, quantized_awq4, activation_stats, config):
        engine = WatermarkEngine()
        _, _, first = engine.insert(quantized_awq4, activation_stats, config=config)
        _, _, second = engine.insert(quantized_awq4, activation_stats, config=config)
        assert first.cache_misses == first.num_layers
        assert second.cache_misses == 0
        assert second.cache_hits == second.num_layers

    def test_config_change_invalidates_plans(self, quantized_awq4, activation_stats, config):
        engine = WatermarkEngine()
        engine.insert(quantized_awq4, activation_stats, config=config)
        before = engine.cache_info()
        engine.insert(
            quantized_awq4, activation_stats, config=config.with_overrides(seed=config.seed + 1)
        )
        assert engine.cache_info().delta(before).misses == len(quantized_awq4.layers)


class TestInsertionReportTiming:
    def test_wall_clock_and_per_layer_seconds_reported(
        self, quantized_awq4, activation_stats, config
    ):
        engine = WatermarkEngine()
        _, _, report = engine.insert(quantized_awq4, activation_stats, config=config)
        assert report.wall_clock_seconds > 0
        assert len(report.per_layer_seconds) == report.num_layers
        assert report.total_seconds == pytest.approx(sum(report.per_layer_seconds))


class TestVerifyFleet:
    @pytest.fixture()
    def fleet(self, quantized_awq4, activation_stats, config):
        engine = WatermarkEngine()
        watermarked, key, _ = engine.insert(quantized_awq4, activation_stats, config=config)
        attacked = build_attack("overwrite", style="resample").apply(
            watermarked, 3, new_rng(1)
        ).model
        return engine, watermarked, attacked, key

    def test_mixed_suspects(self, fleet, quantized_awq4, trained_model):
        engine, watermarked, attacked, key = fleet
        # An unrelated deployment: same architecture, independently quantized
        # with a different framework, never watermarked.
        unrelated = quantize_model(trained_model, "rtn", bits=8)
        report = engine.verify_fleet(
            {
                "watermarked": watermarked,
                "original": quantized_awq4,
                "attacked": attacked,
                "unrelated": unrelated,
            },
            {"owner": key},
        )
        matrix = report.ownership_matrix()
        assert matrix["watermarked"]["owner"] is True
        assert matrix["original"]["owner"] is False
        assert matrix["unrelated"]["owner"] is False
        # A light overwrite attack cannot dislodge the watermark (Figure 2a).
        assert matrix["attacked"]["owner"] is True
        assert report.num_pairs == 4
        assert {pair.suspect_id for pair in report.owned_pairs()} == {"watermarked", "attacked"}

    def test_fleet_scores_each_key_once(self, fleet, quantized_awq4):
        engine, watermarked, attacked, key = fleet
        before = engine.cache_info()
        report = engine.verify_fleet(
            [watermarked, quantized_awq4, attacked], {"owner": key}
        )
        traffic = engine.cache_info().delta(before)
        # Insertion already planned this key: the whole sweep re-scores
        # nothing, and the key's locations are reproduced exactly once (one
        # cache lookup per layer) no matter how many suspects are screened.
        assert traffic.misses == 0
        assert traffic.hits == len(key.layer_names)
        assert report.cache_misses == 0

    def test_sequence_suspects_are_auto_named(self, fleet):
        engine, watermarked, _, key = fleet
        report = engine.verify_fleet([watermarked], [key])
        assert report.pairs[0].suspect_id == "suspect-0"
        assert report.pairs[0].key_id == "key-0"
        assert report.pairs[0].summary()

    def test_report_evidence_is_retained(self, fleet):
        engine, watermarked, _, key = fleet
        report = engine.verify_fleet({"wm": watermarked}, {"owner": key})
        pair = report.for_suspect("wm")[0]
        assert pair.total_bits == key.total_bits
        assert pair.matched_bits == key.total_bits
        assert pair.false_claim_probability < 1e-20
        assert report.for_key("owner") == report.pairs
        assert "wm" in report.summary()


class TestDefaultEngine:
    def test_emmark_routes_through_default_engine(
        self, quantized_awq4, activation_stats, config
    ):
        engine = get_default_engine()
        emmark = EmMark(config)
        watermarked, key, _ = emmark.insert_with_key(quantized_awq4, activation_stats)
        before = engine.cache_info()
        result = emmark.extract_with_key(watermarked, key)
        assert result.wer_percent == 100.0
        assert engine.cache_info().delta(before).misses == 0
