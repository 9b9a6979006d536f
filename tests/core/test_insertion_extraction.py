"""Tests for watermark insertion, key handling and extraction."""

import numpy as np
import pytest

from repro.core.config import EmMarkConfig
from repro.core.keys import WatermarkKey
from repro.core.signature import generate_signature
from repro.engine import get_default_engine

engine = get_default_engine()


@pytest.fixture(scope="module")
def inserted(quantized_awq4_module, activation_stats_module):
    config = EmMarkConfig.scaled_for_model(quantized_awq4_module, bits_per_layer=8)
    return engine.insert(quantized_awq4_module, activation_stats_module, config=config)


# Module-scoped aliases of the session fixtures so `inserted` can be module-scoped.
@pytest.fixture(scope="module")
def quantized_awq4_module(request):
    return request.getfixturevalue("quantized_awq4")


@pytest.fixture(scope="module")
def activation_stats_module(request):
    return request.getfixturevalue("activation_stats")


class TestInsertion:
    def test_returns_clone_by_default(self, inserted, quantized_awq4):
        watermarked, _, _ = inserted
        assert watermarked is not quantized_awq4

    def test_exactly_bits_per_layer_weights_changed(self, inserted, quantized_awq4):
        watermarked, key, _ = inserted
        diff = watermarked.weight_difference(quantized_awq4)
        for name in watermarked.layer_names():
            changed = np.count_nonzero(diff[name])
            assert changed == key.config.bits_per_layer

    def test_changes_are_plus_minus_one(self, inserted, quantized_awq4):
        watermarked, _, _ = inserted
        diff = watermarked.weight_difference(quantized_awq4)
        for delta in diff.values():
            nonzero = delta[delta != 0]
            assert set(np.unique(nonzero)) <= {-1, 1}

    def test_no_weight_leaves_grid(self, inserted):
        watermarked, _, _ = inserted
        for layer in watermarked.iter_layers():
            assert layer.weight_int.max() <= layer.grid.qmax
            assert layer.weight_int.min() >= layer.grid.qmin

    def test_saturated_positions_never_selected(self, inserted, quantized_awq4):
        watermarked, _, _ = inserted
        diff = watermarked.weight_difference(quantized_awq4)
        for name, layer in quantized_awq4.layers.items():
            changed_positions = np.flatnonzero(diff[name].reshape(-1))
            saturated = np.flatnonzero(layer.saturated_mask().reshape(-1))
            assert not set(changed_positions.tolist()) & set(saturated.tolist())

    def test_report_contents(self, inserted, quantized_awq4):
        _, key, report = inserted
        assert report.num_layers == quantized_awq4.num_quantization_layers
        assert report.total_bits == key.total_bits
        assert len(report.per_layer_seconds) == report.num_layers
        assert report.mean_seconds_per_layer >= 0
        assert report.total_seconds >= 0

    def test_in_place_insertion(self, quantized_awq4, activation_stats):
        target = quantized_awq4.clone()
        config = EmMarkConfig.scaled_for_model(target, bits_per_layer=4)
        watermarked, _, _ = engine.insert(
            target, activation_stats, config=config, in_place=True
        )
        assert watermarked is target

    def test_explicit_signature_used(self, quantized_awq4, activation_stats):
        config = EmMarkConfig.scaled_for_model(quantized_awq4, bits_per_layer=4)
        signature = generate_signature(config.total_bits(quantized_awq4.num_quantization_layers), 77)
        _, key, _ = engine.insert(
            quantized_awq4, activation_stats, config=config, signature=signature
        )
        np.testing.assert_array_equal(key.signature, signature)

    def test_wrong_signature_length_rejected(self, quantized_awq4, activation_stats):
        config = EmMarkConfig.scaled_for_model(quantized_awq4, bits_per_layer=4)
        with pytest.raises(ValueError):
            engine.insert(
                quantized_awq4, activation_stats, config=config,
                signature=np.array([1, -1, 1]),
            )

    def test_missing_activations_rejected(self, quantized_awq4, activation_stats):
        from repro.models.activations import ActivationStats

        partial = ActivationStats(mean_abs={
            name: activation_stats.mean_abs[name]
            for name in list(activation_stats.mean_abs)[:2]
        })
        with pytest.raises(ValueError):
            engine.insert(quantized_awq4, partial)

    def test_oversized_payload_rejected(self, quantized_awq4, activation_stats):
        config = EmMarkConfig.scaled_for_model(
            quantized_awq4, bits_per_layer=10_000, max_candidate_fraction=1.0
        )
        with pytest.raises(ValueError):
            engine.insert(quantized_awq4, activation_stats, config=config)

    def test_insertion_is_deterministic(self, quantized_awq4, activation_stats):
        config = EmMarkConfig.scaled_for_model(quantized_awq4, bits_per_layer=4)
        a, _, _ = engine.insert(quantized_awq4, activation_stats, config=config)
        b, _, _ = engine.insert(quantized_awq4, activation_stats, config=config)
        for name in a.layer_names():
            np.testing.assert_array_equal(
                a.get_layer(name).weight_int, b.get_layer(name).weight_int
            )


class TestExtraction:
    def test_self_extraction_is_perfect(self, inserted):
        watermarked, key, _ = inserted
        result = engine.extract(watermarked, key)
        assert result.wer_percent == 100.0
        assert result.fully_extracted
        assert result.matched_bits == key.total_bits

    def test_non_watermarked_model_gives_zero(self, inserted, quantized_awq4):
        _, key, _ = inserted
        result = engine.extract(quantized_awq4, key)
        assert result.wer_percent == 0.0
        assert result.false_claim_probability == pytest.approx(1.0)

    def test_per_layer_wer_reported(self, inserted):
        watermarked, key, _ = inserted
        result = engine.extract(watermarked, key)
        assert set(result.per_layer_wer) == set(key.layer_names)
        assert all(v == 100.0 for v in result.per_layer_wer.values())

    def test_false_claim_probability_small_for_full_match(self, inserted):
        watermarked, key, _ = inserted
        result = engine.extract(watermarked, key)
        assert result.false_claim_probability < 1e-20

    def test_locations_match_insertion_diff(self, inserted, quantized_awq4):
        watermarked, key, _ = inserted
        locations = engine.reproduce_locations(key)
        diff = watermarked.weight_difference(quantized_awq4)
        for name in key.layer_names:
            changed = set(np.flatnonzero(diff[name].reshape(-1)).tolist())
            assert changed == set(np.asarray(locations[name]).tolist())

    def test_different_seed_reproduces_different_locations(self, inserted):
        _, key, _ = inserted
        original = engine.reproduce_locations(key)
        altered_key = WatermarkKey(
            signature=key.signature,
            config=key.config.with_overrides(seed=key.config.seed + 1),
            reference_weights=key.reference_weights,
            activations=key.activations,
            layer_names=key.layer_names,
            method=key.method,
            bits=key.bits,
            model_name=key.model_name,
            outlier_columns=key.outlier_columns,
        )
        altered = engine.reproduce_locations(altered_key)
        overlaps = [
            len(set(original[n].tolist()) & set(altered[n].tolist())) / len(original[n])
            for n in key.layer_names
        ]
        assert np.mean(overlaps) < 0.9

    def test_partial_damage_partial_wer(self, inserted):
        watermarked, key, _ = inserted
        damaged = watermarked.clone()
        locations = engine.reproduce_locations(key)
        # Undo the watermark in half the layers.
        for name in key.layer_names[: len(key.layer_names) // 2]:
            layer = damaged.get_layer(name)
            restored = layer.weight_int.copy()
            flat = restored.reshape(-1)
            flat[locations[name]] = key.reference_weights[name].reshape(-1)[locations[name]]
            layer.weight_int = restored
        result = engine.extract(damaged, key)
        assert 0.0 < result.wer_percent < 100.0

    def test_missing_layer_strict_raises(self, inserted):
        watermarked, key, _ = inserted
        crippled = watermarked.clone()
        first = crippled.layer_names()[0]
        del crippled.layers[first]
        with pytest.raises(KeyError):
            engine.extract(crippled, key, strict_layout=True)
        result = engine.extract(crippled, key, strict_layout=False)
        assert result.per_layer_wer[first] == 0.0

    def test_verify_thresholds(self, inserted, quantized_awq4):
        watermarked, key, _ = inserted
        assert engine.verify(watermarked, key)
        assert not engine.verify(quantized_awq4, key)


class TestWatermarkKey:
    def test_signature_for_layer_slicing(self, inserted):
        _, key, _ = inserted
        bits = key.config.bits_per_layer
        np.testing.assert_array_equal(key.signature_for_layer(key.layer_names[0]), key.signature[:bits])
        np.testing.assert_array_equal(
            key.signature_for_layer(key.layer_names[1]), key.signature[bits : 2 * bits]
        )

    def test_signature_for_unknown_layer(self, inserted):
        _, key, _ = inserted
        with pytest.raises(KeyError):
            key.signature_for_layer("blocks.99.attn.q_proj")

    def test_save_and_load_round_trip(self, inserted, tmp_path):
        watermarked, key, _ = inserted
        key.save(tmp_path / "key")
        restored = WatermarkKey.load(tmp_path / "key")
        np.testing.assert_array_equal(restored.signature, key.signature)
        assert restored.config == key.config
        assert restored.layer_names == key.layer_names
        assert restored.method == key.method
        # And, critically, extraction with the restored key still works.
        result = engine.extract(watermarked, restored)
        assert result.wer_percent == 100.0

    def test_signature_length_validated(self, inserted):
        _, key, _ = inserted
        with pytest.raises(ValueError):
            WatermarkKey(
                signature=key.signature[:-1],
                config=key.config,
                reference_weights=key.reference_weights,
                activations=key.activations,
                layer_names=key.layer_names,
            )

    def test_missing_reference_weights_rejected(self, inserted):
        _, key, _ = inserted
        incomplete = dict(key.reference_weights)
        incomplete.pop(key.layer_names[0])
        with pytest.raises(ValueError):
            WatermarkKey(
                signature=key.signature,
                config=key.config,
                reference_weights=incomplete,
                activations=key.activations,
                layer_names=key.layer_names,
            )

    def test_describe_mentions_model(self, inserted):
        _, key, _ = inserted
        assert key.model_name in key.describe()
