"""Tests for the unified watermark engine.

Covers the ISSUE-1 acceptance points: cache-hit determinism (locations are
identical cold / warm / parallel), zero rescoring on warm-cache extraction,
plan-cache eviction behaviour inside the engine, and the batch serving APIs
(``verify_fleet`` over mixed suspects, ``insert_batch``).
"""

import numpy as np
import pytest

from repro.core.config import EmMarkConfig
from repro.core.extraction import extract_watermark, reproduce_locations
from repro.core.insertion import insert_watermark
from repro.engine import EngineConfig, PlanCache, WatermarkEngine, get_default_engine
from repro.quant.api import quantize_model
from repro.robustness import build_attack
from repro.utils.rng import new_rng


@pytest.fixture()
def config(quantized_awq4):
    return EmMarkConfig.scaled_for_model(quantized_awq4, bits_per_layer=8)


def serial_engine() -> WatermarkEngine:
    return WatermarkEngine(EngineConfig(max_workers=1))


def parallel_engine(workers: int = 4) -> WatermarkEngine:
    return WatermarkEngine(EngineConfig(max_workers=workers))


class TestEngineConfig:
    def test_explicit_workers_resolved(self):
        assert EngineConfig(max_workers=3).resolved_workers() == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "5")
        assert EngineConfig().resolved_workers() == 5

    def test_invalid_env_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_WORKERS", "many")
        assert EngineConfig().resolved_workers() >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(max_workers=0)
        with pytest.raises(ValueError):
            EngineConfig(plan_cache_entries=0)


class TestDeterminism:
    def test_locations_identical_cold_warm_and_parallel(
        self, quantized_awq4, activation_stats, config
    ):
        cold = serial_engine()
        _, key, _ = cold.insert(quantized_awq4, activation_stats, config=config)
        cold_locations = cold.reproduce_locations(key)          # warm lookup
        fresh = serial_engine()
        fresh_locations = fresh.reproduce_locations(key)        # cold recompute
        threaded = parallel_engine()
        parallel_locations = threaded.reproduce_locations(key)  # cold, parallel
        for name in key.layer_names:
            np.testing.assert_array_equal(cold_locations[name], fresh_locations[name])
            np.testing.assert_array_equal(cold_locations[name], parallel_locations[name])

    def test_serial_and_parallel_insertion_agree(
        self, quantized_awq4, activation_stats, config
    ):
        serial_model, _, _ = serial_engine().insert(
            quantized_awq4, activation_stats, config=config
        )
        parallel_model, _, _ = parallel_engine().insert(
            quantized_awq4, activation_stats, config=config
        )
        for name in serial_model.layer_names():
            np.testing.assert_array_equal(
                serial_model.get_layer(name).weight_int,
                parallel_model.get_layer(name).weight_int,
            )

    def test_eviction_does_not_change_results(
        self, quantized_awq4, activation_stats, config
    ):
        """A pathologically small cache thrashes but stays correct."""
        tiny = WatermarkEngine(
            EngineConfig(max_workers=1), cache=PlanCache(max_entries=1)
        )
        watermarked, key, _ = tiny.insert(quantized_awq4, activation_stats, config=config)
        result = tiny.extract(watermarked, key)
        assert result.wer_percent == 100.0
        assert tiny.cache.evictions > 0

    def test_functional_api_accepts_engine(self, quantized_awq4, activation_stats, config):
        engine = serial_engine()
        watermarked, key, _ = insert_watermark(
            quantized_awq4, activation_stats, config=config, engine=engine
        )
        assert extract_watermark(watermarked, key, engine=engine).wer_percent == 100.0
        locations = reproduce_locations(key, engine=engine)
        assert set(locations) == set(key.layer_names)


class TestWarmCache:
    def test_extraction_after_insertion_performs_zero_rescoring(
        self, quantized_awq4, activation_stats, config
    ):
        engine = parallel_engine()
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
        engine = serial_engine()
        watermarked, key, _ = engine.insert(quantized_awq4, activation_stats, config=config)
        assert engine.verify(watermarked, key)
        before = engine.cache_info()
        # A previously-verified key: every later screening is pure lookups.
        assert engine.verify(watermarked, key)
        assert not engine.verify(quantized_awq4, key)
        assert engine.cache_info().delta(before).misses == 0

    def test_repeated_insertion_hits_cache(self, quantized_awq4, activation_stats, config):
        engine = serial_engine()
        _, _, first = engine.insert(quantized_awq4, activation_stats, config=config)
        _, _, second = engine.insert(quantized_awq4, activation_stats, config=config)
        assert first.cache_misses == first.num_layers
        assert second.cache_misses == 0
        assert second.cache_hits == second.num_layers

    def test_config_change_invalidates_plans(self, quantized_awq4, activation_stats, config):
        engine = serial_engine()
        engine.insert(quantized_awq4, activation_stats, config=config)
        before = engine.cache_info()
        engine.insert(
            quantized_awq4, activation_stats, config=config.with_overrides(seed=config.seed + 1)
        )
        assert engine.cache_info().delta(before).misses == len(quantized_awq4.layers)


class TestInsertionReportTiming:
    def test_wall_clock_and_cpu_seconds_reported(
        self, quantized_awq4, activation_stats, config
    ):
        engine = parallel_engine()
        _, _, report = engine.insert(quantized_awq4, activation_stats, config=config)
        assert report.wall_clock_seconds > 0
        assert report.total_seconds == pytest.approx(sum(report.per_layer_seconds))
        assert report.cpu_seconds == report.total_seconds
        assert report.parallel_workers == 4
        assert report.parallel_speedup > 0


class TestVerifyFleet:
    @pytest.fixture()
    def fleet(self, quantized_awq4, activation_stats, config):
        engine = parallel_engine()
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


class TestInsertBatch:
    def test_batch_round_trip(self, quantized_awq4, activation_stats, config):
        engine = parallel_engine()
        result = engine.insert_batch(
            {"a": quantized_awq4.clone(), "b": quantized_awq4.clone()},
            activation_stats,
            config=config,
        )
        assert result.num_models == 2
        assert result.total_bits == 2 * config.total_bits(len(quantized_awq4.layers))
        for model_id, key in result.keys().items():
            extraction = engine.extract(result.models()[model_id], key)
            assert extraction.wer_percent == 100.0

    def test_identical_models_share_plans(self, quantized_awq4, activation_stats, config):
        engine = serial_engine()
        result = engine.insert_batch(
            [quantized_awq4.clone(), quantized_awq4.clone()],
            activation_stats,
            config=config,
        )
        reports = [item.report for item in result.items]
        assert reports[0].cache_misses == reports[0].num_layers
        assert reports[1].cache_misses == 0

    def test_activation_sequence_must_align(self, quantized_awq4, activation_stats):
        engine = serial_engine()
        with pytest.raises(ValueError):
            engine.insert_batch(
                [quantized_awq4.clone(), quantized_awq4.clone()],
                [activation_stats],
            )


class TestDefaultEngine:
    def test_functional_api_routes_through_default_engine(
        self, quantized_awq4, activation_stats, config
    ):
        engine = get_default_engine()
        watermarked, key, _ = insert_watermark(quantized_awq4, activation_stats, config=config)
        before = engine.cache_info()
        result = extract_watermark(watermarked, key)
        assert result.wer_percent == 100.0
        assert engine.cache_info().delta(before).misses == 0
