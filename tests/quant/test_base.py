"""Tests for the quantization data structures."""

import pickle
import re

import numpy as np
import pytest

from repro.quant.base import (
    QuantizationGrid,
    QuantizedLinear,
    dequantize_tensor,
    quantize_tensor,
)


class TestQuantizationGrid:
    def test_int8_range(self):
        grid = QuantizationGrid(8)
        assert grid.qmax == 127
        assert grid.qmin == -127
        assert grid.num_levels == 255

    def test_int4_range(self):
        grid = QuantizationGrid(4)
        assert grid.qmax == 7
        assert grid.qmin == -7

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            QuantizationGrid(1)
        with pytest.raises(ValueError):
            QuantizationGrid(20)

    def test_clip(self):
        grid = QuantizationGrid(4)
        np.testing.assert_array_equal(grid.clip(np.array([-100, 0, 100])), [-7, 0, 7])

    def test_step_size_matches_equation_1(self):
        grid = QuantizationGrid(4)
        assert grid.step_size(np.array([7.0]))[0] == pytest.approx(1.0)
        assert grid.step_size(np.array([14.0]))[0] == pytest.approx(2.0)

    def test_step_size_zero_guard(self):
        grid = QuantizationGrid(4)
        assert grid.step_size(np.array([0.0]))[0] == 1.0


class TestQuantizeTensor:
    def test_round_trip_error_bounded_by_half_step(self, rng):
        weight = rng.normal(size=(8, 16))
        weight_int, scale = quantize_tensor(weight, QuantizationGrid(8))
        restored = dequantize_tensor(weight_int, scale)
        assert np.max(np.abs(restored - weight)) <= 0.5 * scale.max() + 1e-12

    def test_values_within_grid(self, rng):
        weight = rng.normal(size=(4, 8)) * 10
        weight_int, _ = quantize_tensor(weight, QuantizationGrid(4))
        assert weight_int.max() <= 7 and weight_int.min() >= -7

    def test_per_channel_uses_row_maxima(self, rng):
        weight = np.array([[1.0, 0.5], [100.0, 50.0]])
        _, scale = quantize_tensor(weight, QuantizationGrid(4), per_channel=True)
        assert scale[1, 0] == pytest.approx(100.0 / 7)
        assert scale[0, 0] == pytest.approx(1.0 / 7)

    def test_per_tensor_single_scale(self, rng):
        weight = rng.normal(size=(4, 8))
        _, scale = quantize_tensor(weight, QuantizationGrid(4), per_channel=False)
        assert np.allclose(scale, scale[0, 0])

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            quantize_tensor(np.zeros(5), QuantizationGrid(4))

    def test_int4_error_larger_than_int8(self, rng):
        weight = rng.normal(size=(16, 32))
        for_bits = {}
        for bits in (4, 8):
            weight_int, scale = quantize_tensor(weight, QuantizationGrid(bits))
            for_bits[bits] = np.abs(dequantize_tensor(weight_int, scale) - weight).mean()
        assert for_bits[4] > for_bits[8]


def _make_layer(weight_int, bits=4, **kwargs):
    weight_int = np.asarray(weight_int)
    return QuantizedLinear(
        name="probe",
        weight_int=weight_int,
        scale=np.ones((weight_int.shape[0], 1)),
        grid=QuantizationGrid(bits),
        **kwargs,
    )


def _unsaturated_index(layer):
    """A flat index where ``+1`` stays on ``layer``'s grid."""
    return int(np.flatnonzero(~layer.saturated_mask().reshape(-1))[0])


class TestQuantizedLinear:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            QuantizedLinear(
                name="x",
                weight_int=np.zeros((2, 2), dtype=int),
                scale=np.ones((3, 1)),
                grid=QuantizationGrid(4),
            )

    def test_grid_range_validated(self):
        with pytest.raises(ValueError):
            _make_layer([[100, 0], [0, 0]], bits=4)

    def test_saturated_mask(self):
        layer = _make_layer([[7, 3], [-7, 0]])
        np.testing.assert_array_equal(layer.saturated_mask(), [[True, False], [True, False]])

    def test_quantized_mask_excludes_outliers(self):
        layer = _make_layer(
            [[0, 3], [0, 1]],
            outlier_columns=np.array([0]),
            outlier_weight=np.array([[1.5], [2.5]]),
        )
        np.testing.assert_array_equal(layer.quantized_mask(), [[False, True], [False, True]])

    def test_effective_weight_undoes_smoothing(self):
        layer = _make_layer([[2, 4]], input_smoothing=np.array([2.0, 4.0]))
        np.testing.assert_allclose(layer.effective_weight(), [[1.0, 1.0]])

    def test_effective_weight_restores_outliers(self):
        layer = _make_layer(
            [[0, 3]], outlier_columns=np.array([0]), outlier_weight=np.array([[9.9]])
        )
        np.testing.assert_allclose(layer.effective_weight(), [[9.9, 3.0]])

    def test_add_to_weights_clips_at_grid(self):
        layer = _make_layer([[7, 0]])
        layer.add_to_weights(np.array([0, 1]), np.array([1, -1]))
        np.testing.assert_array_equal(layer.weight_int, [[7, -1]])

    def test_add_to_weights_shape_check(self):
        layer = _make_layer([[0, 0]])
        with pytest.raises(ValueError):
            layer.add_to_weights(np.array([0]), np.array([1, 1]))

    def test_copy_is_deep(self):
        layer = _make_layer([[1, 2]])
        clone = layer.copy()
        with pytest.raises(ValueError):
            clone.weight_int[0, 0] = 5
        clone.add_to_weights(np.array([0]), np.array([4]))
        clone.weight_int = np.array([[5, -2]])
        assert clone.weight_int.tolist() == [[5, -2]]
        assert layer.weight_int.tolist() == [[1, 2]]

    def test_outlier_fields_must_be_paired(self):
        with pytest.raises(ValueError):
            _make_layer([[0, 0]], outlier_columns=np.array([0]))


class TestQuantizedModel:
    def test_materialize_matches_effective_weights(self, quantized_awq4, trained_model):
        materialized = quantized_awq4.materialize()
        name = quantized_awq4.layer_names()[0]
        np.testing.assert_allclose(
            materialized.get_linear(name).weight.value,
            quantized_awq4.get_layer(name).effective_weight(),
        )

    def test_materialize_preserves_unquantized_state(self, quantized_awq4, trained_model):
        materialized = quantized_awq4.materialize()
        np.testing.assert_allclose(
            materialized.lm_head.weight.value, trained_model.lm_head.weight.value
        )
        np.testing.assert_allclose(
            materialized.token_embedding.weight.value,
            trained_model.token_embedding.weight.value,
        )

    def test_clone_independent(self, quantized_awq4):
        clone = quantized_awq4.clone()
        name = clone.layer_names()[0]
        with pytest.raises(ValueError):
            clone.get_layer(name).weight_int[0, 0] += 1
        index = _unsaturated_index(clone.get_layer(name))
        clone.get_layer(name).add_to_weights(np.array([index]), np.array([1]))
        assert not np.array_equal(
            clone.get_layer(name).weight_int, quantized_awq4.get_layer(name).weight_int
        )

    def test_integer_weight_snapshot_is_copy(self, quantized_awq4):
        snapshot = quantized_awq4.integer_weight_snapshot()
        name = quantized_awq4.layer_names()[0]
        with pytest.raises(ValueError):
            snapshot[name][0, 0] += 5
        # Editing the model replaces its array; the snapshot keeps the old one.
        clone = quantized_awq4.clone()
        snapshot = clone.integer_weight_snapshot()
        before = snapshot[name].copy()
        index = _unsaturated_index(clone.get_layer(name))
        clone.get_layer(name).add_to_weights(np.array([index]), np.array([1]))
        np.testing.assert_array_equal(snapshot[name], before)
        assert not np.array_equal(snapshot[name], clone.get_layer(name).weight_int)

    def test_weight_difference(self, quantized_awq4):
        clone = quantized_awq4.clone()
        name = clone.layer_names()[0]
        index = _unsaturated_index(clone.get_layer(name))
        edited = clone.get_layer(name).weight_int.copy()
        edited.reshape(-1)[index] += 1
        clone.get_layer(name).weight_int = edited
        diff = clone.weight_difference(quantized_awq4)
        assert diff[name].reshape(-1)[index] == 1
        assert np.sum(np.abs(diff[name])) == 1

    def test_get_layer_unknown(self, quantized_awq4):
        with pytest.raises(KeyError):
            quantized_awq4.get_layer("blocks.42.attn.q_proj")

    def test_layer_count_matches_model(self, quantized_awq4, trained_model):
        assert quantized_awq4.num_quantization_layers == trained_model.num_quantization_layers

    def test_total_quantized_weights(self, quantized_awq4):
        expected = sum(layer.num_weights for layer in quantized_awq4.iter_layers())
        assert quantized_awq4.total_quantized_weights() == expected


class TestImmutableWeights:
    """``weight_int`` is a read-only value replaced through one validated path."""

    def test_owned_int64_array_is_frozen_in_place(self):
        weights = np.array([[1, 2], [3, 4]], dtype=np.int64)
        layer = _make_layer(weights)
        assert layer.weight_int is weights
        assert not weights.flags.writeable

    @pytest.mark.parametrize(
        "make",
        [
            lambda base: base[:1],  # writable, contiguous view
            lambda base: base[:, ::2],  # non-contiguous
            lambda base: base.astype(np.int32),  # other dtype
        ],
    )
    def test_views_and_other_dtypes_are_copied(self, make):
        base = np.arange(8, dtype=np.int64).reshape(2, 4) % 7
        given = make(base)
        layer = _make_layer(given)
        assert layer.weight_int is not given
        assert layer.weight_int.dtype == np.int64
        assert layer.weight_int.flags.c_contiguous and not layer.weight_int.flags.writeable
        np.testing.assert_array_equal(layer.weight_int, given)
        base[0, 0] = 6  # the caller's array stays writable and detached
        assert layer.weight_int[0, 0] == 0

    def test_in_place_write_raises(self):
        layer = _make_layer([[1, 2]])
        with pytest.raises(ValueError):
            layer.weight_int[0, 0] = 3
        with pytest.raises(ValueError):
            layer.weight_int.reshape(-1)[0] = 3

    def test_out_of_grid_replacement_raises_and_leaves_layer(self):
        layer = _make_layer([[1, 2], [3, 4]])
        before = layer.weight_int
        with pytest.raises(ValueError, match="outside the quantization grid"):
            layer.weight_int = np.full((2, 2), 999)
        assert layer.weight_int is before
        assert layer.weight_int.tolist() == [[1, 2], [3, 4]]

    def test_reshaped_replacement_raises_and_leaves_layer(self):
        layer = _make_layer([[1, 2, 3], [4, 5, 6]], input_smoothing=np.ones(3))
        before, scale = layer.weight_int, layer.scale.copy()
        for shape in [(2, 2), (3, 3), (6,), (1, 6)]:
            with pytest.raises(ValueError, match=rf"'probe'.*\(2, 3\).*{re.escape(str(shape))}"):
                layer.weight_int = np.zeros(shape, dtype=np.int64)
        assert layer.weight_int is before
        assert layer.weight_int.tolist() == [[1, 2, 3], [4, 5, 6]]
        np.testing.assert_array_equal(layer.scale, scale)

    def test_in_grid_replacement_is_frozen(self):
        layer = _make_layer([[1, 2]])
        layer.weight_int = np.array([[-7, 7]])
        assert layer.weight_int.tolist() == [[-7, 7]]
        assert not layer.weight_int.flags.writeable

    def test_validated_values_are_rechecked_on_a_narrower_grid(self):
        wide = _make_layer([[100, -100]], bits=8)
        with pytest.raises(ValueError, match="outside the quantization grid"):
            _make_layer(wide.weight_int, bits=4)
        with pytest.raises(ValueError, match="outside the quantization grid"):
            wide.weight_int = wide.weight_int * 2

    def test_grid_scan_runs_once_per_array(self, monkeypatch):
        from repro.quant import base

        scans = []
        scan = base._weight_range._compute
        monkeypatch.setattr(
            base._weight_range, "_compute", lambda array: scans.append(1) or scan(array)
        )
        layer = _make_layer(np.arange(6).reshape(2, 3))
        assert len(scans) == 1
        layer.copy().copy()
        assert len(scans) == 1
        layer.add_to_weights(np.array([0]), np.array([1]))
        assert len(scans) == 2

    def test_add_to_weights_is_copy_on_write(self):
        layer = _make_layer([[1, 2]])
        shared = layer.weight_int
        clone = layer.copy()
        assert clone.weight_int is shared
        clone.add_to_weights(np.array([1]), np.array([3]))
        assert clone.weight_int.tolist() == [[1, 5]]
        assert shared.tolist() == [[1, 2]] and layer.weight_int is shared

    def test_copy_shares_weights_and_copies_the_rest(self):
        layer = _make_layer(
            [[0, 3]],
            input_smoothing=np.array([1.0, 2.0]),
            outlier_columns=np.array([0]),
            outlier_weight=np.array([[1.5]]),
        )
        clone = layer.copy()
        assert clone.weight_int is layer.weight_int
        for field in ("scale", "input_smoothing", "outlier_columns", "outlier_weight"):
            assert not np.shares_memory(getattr(clone, field), getattr(layer, field))
            assert getattr(clone, field).flags.writeable

    def test_frozen_layer_refuses_new_weights(self):
        layer = _make_layer([[1, 2]]).freeze()
        with pytest.raises(ValueError, match="'probe' holds read-only weights"):
            layer.add_to_weights(np.array([0]), np.array([1]))
        with pytest.raises(ValueError, match="'probe' holds read-only weights"):
            layer.weight_int = np.array([[0, 0]])
        assert not layer.scale.flags.writeable
        clone = layer.copy()
        clone.add_to_weights(np.array([0]), np.array([1]))
        assert clone.scale.flags.writeable
        assert clone.weight_int.tolist() == [[2, 2]]

    def test_unpickled_layer_keeps_read_only_weights(self):
        layer = pickle.loads(pickle.dumps(_make_layer([[1, 2]])))
        assert not layer.weight_int.flags.writeable
        assert layer.scale.flags.writeable
        layer.add_to_weights(np.array([0]), np.array([1]))
        assert layer.weight_int.tolist() == [[2, 2]]

    def test_unpickled_frozen_layer_stays_frozen(self):
        layer = pickle.loads(pickle.dumps(_make_layer([[1, 2]]).freeze()))
        assert not layer.weight_int.flags.writeable and not layer.scale.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            layer.add_to_weights(np.array([0]), np.array([1]))


class TestSharedModelWeights:
    def test_clone_shares_weights_and_copies_state(self, quantized_awq4):
        clone = quantized_awq4.clone()
        for name, layer in clone.layers.items():
            assert layer.weight_int is quantized_awq4.layers[name].weight_int
        for key, value in clone.full_precision_state.items():
            assert not np.shares_memory(value, quantized_awq4.full_precision_state[key])

    def test_snapshot_is_the_models_own_arrays(self, quantized_awq4):
        snapshot = quantized_awq4.integer_weight_snapshot()
        for name, weights in snapshot.items():
            assert weights is quantized_awq4.layers[name].weight_int

    def test_unpickled_model_keeps_read_only_weights(self, quantized_awq4):
        restored = pickle.loads(pickle.dumps(quantized_awq4))
        for name, layer in restored.layers.items():
            assert not layer.weight_int.flags.writeable
            np.testing.assert_array_equal(layer.weight_int, quantized_awq4.layers[name].weight_int)
        assert all(value.flags.writeable for value in restored.full_precision_state.values())

    def test_unpickled_frozen_model_stays_frozen(self, quantized_awq4):
        restored = pickle.loads(pickle.dumps(quantized_awq4.clone().freeze()))
        assert not any(value.flags.writeable for value in restored.full_precision_state.values())
        layer = next(restored.iter_layers())
        with pytest.raises(ValueError, match="read-only"):
            layer.add_to_weights(np.array([0]), np.array([1]))
        clone = restored.clone()
        next(clone.iter_layers()).add_to_weights(np.array([0]), np.array([1]))
