"""Tests for activation statistics collection."""

import numpy as np
import pytest

from repro.models.activations import ActivationCapture, ActivationStats, collect_activation_stats


class TestActivationCapture:
    def test_mean_abs_computation(self):
        capture = ActivationCapture(collect_gram=False)
        capture.update("layer", np.array([[1.0, -2.0], [3.0, 0.0]]))
        stats = capture.finalize()
        np.testing.assert_allclose(stats.mean_abs["layer"], [2.0, 1.0])

    def test_max_tracking(self):
        capture = ActivationCapture(collect_gram=False)
        capture.update("layer", np.array([[1.0, -5.0]]))
        capture.update("layer", np.array([[2.0, 1.0]]))
        stats = capture.finalize()
        np.testing.assert_allclose(stats.maximum["layer"], [2.0, 5.0])

    def test_gram_is_mean_outer_product(self):
        capture = ActivationCapture(collect_gram=True)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        capture.update("layer", x)
        stats = capture.finalize()
        np.testing.assert_allclose(stats.gram["layer"], x.T @ x / 2)

    def test_multiple_layers_tracked_independently(self):
        capture = ActivationCapture(collect_gram=False)
        capture.update("a", np.ones((2, 3)))
        capture.update("b", np.zeros((2, 4)))
        stats = capture.finalize()
        assert set(stats.layers()) == {"a", "b"}
        assert stats.mean_abs["b"].shape == (4,)

    def test_higher_rank_inputs_flattened(self):
        capture = ActivationCapture(collect_gram=False)
        capture.update("layer", np.ones((2, 3, 4)))
        stats = capture.finalize()
        assert stats.mean_abs["layer"].shape == (4,)


class TestActivationStats:
    def test_channel_saliency_lookup(self):
        stats = ActivationStats(mean_abs={"x": np.array([1.0, 2.0])})
        np.testing.assert_allclose(stats.channel_saliency("x"), [1.0, 2.0])

    def test_channel_saliency_missing_layer(self):
        stats = ActivationStats(mean_abs={})
        with pytest.raises(KeyError):
            stats.channel_saliency("missing")

    def test_top_channels(self):
        stats = ActivationStats(mean_abs={"x": np.array([0.1, 5.0, 1.0, 3.0])})
        top = stats.top_channels("x", fraction=0.5)
        assert list(top) == [1, 3]

    def test_top_channels_at_least_one(self):
        stats = ActivationStats(mean_abs={"x": np.array([0.1, 5.0])})
        assert stats.top_channels("x", fraction=0.01).size == 1


class TestCollectActivationStats:
    def test_covers_every_linear_layer(self, trained_model, small_dataset):
        stats = collect_activation_stats(trained_model, small_dataset.calibration)
        linear_names = set(trained_model.linear_layer_names())
        assert linear_names.issubset(set(stats.layers()))

    def test_channel_counts_match_layer_inputs(self, trained_model, small_dataset):
        stats = collect_activation_stats(trained_model, small_dataset.calibration)
        for name, linear in trained_model.named_linear_layers():
            assert stats.mean_abs[name].shape == (linear.in_features,)

    def test_outlier_channels_are_salient(self, trained_model, small_dataset):
        """Channels amplified at initialisation must show up as high-activation."""
        stats = collect_activation_stats(trained_model, small_dataset.calibration)
        saliency = stats.channel_saliency("blocks.0.attn.q_proj")
        outliers = trained_model.outlier_channels
        outlier_mean = saliency[outliers].mean()
        others = np.setdiff1d(np.arange(saliency.size), outliers)
        assert outlier_mean > 1.5 * saliency[others].mean()

    def test_short_corpus_rejected(self, trained_model, small_dataset):
        tiny = small_dataset.calibration
        shorter = type(tiny)(tiny.tokens[:5], tiny.vocabulary, "short")
        with pytest.raises(ValueError):
            collect_activation_stats(trained_model, shorter, sequence_length=32)
