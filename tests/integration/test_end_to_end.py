"""End-to-end integration tests spanning the whole pipeline.

These tests follow the full lifecycle a downstream user would run: train (or
load) a model, quantize it with each framework the paper uses, watermark it,
persist the key, ship the model, and later prove ownership — including after
attacks and against unrelated models.
"""

import numpy as np
import pytest

from repro.core import EmMark, EmMarkConfig, WatermarkKey
from repro.eval.harness import EvaluationHarness
from repro.models.activations import collect_activation_stats
from repro.quant.api import quantize_model
from repro.models.transformer import TransformerLM
from repro.robustness import build_attack
from repro.utils.rng import new_rng

from tests.conftest import make_tiny_llama_config


@pytest.mark.parametrize("method,bits", [("smoothquant", 8), ("llm_int8", 8), ("awq", 4), ("gptq", 4)])
def test_full_lifecycle_per_quantizer(trained_model, activation_stats, method, bits, tmp_path):
    """Quantize → watermark → save key → reload key → verify ownership."""
    quantized = quantize_model(trained_model, method, bits=bits, activations=activation_stats)
    emmark = EmMark(EmMarkConfig.scaled_for_model(quantized, bits_per_layer=6))
    watermarked, key, report = emmark.insert_with_key(quantized, activation_stats)

    key_dir = tmp_path / f"key-{method}-{bits}"
    key.save(key_dir)
    restored_key = WatermarkKey.load(key_dir)

    assert emmark.extract_with_key(watermarked, restored_key).wer_percent == 100.0
    assert not emmark.verify(quantized, restored_key)
    assert report.total_seconds < 30.0


def test_watermark_quality_and_robustness_end_to_end(
    trained_model, activation_stats, quantized_awq4, small_dataset
):
    """The full fidelity + robustness story on one model."""
    harness = EvaluationHarness(small_dataset, max_sequences=10, num_task_examples=6)
    baseline = harness.evaluate(quantized_awq4)

    emmark = EmMark(EmMarkConfig.scaled_for_model(quantized_awq4, bits_per_layer=8))
    watermarked, key, _ = emmark.insert_with_key(quantized_awq4, activation_stats)
    watermarked_quality = harness.evaluate(watermarked)

    # Fidelity: the watermark is quality-neutral within a tight tolerance.
    assert abs(watermarked_quality.perplexity - baseline.perplexity) / baseline.perplexity < 0.05
    assert abs(watermarked_quality.zero_shot_accuracy - baseline.zero_shot_accuracy) <= 10.0

    # Robustness: an overwriting attack leaves the watermark extractable.
    attacked = build_attack("overwrite").apply(watermarked, 40, new_rng(9)).model
    assert emmark.extract_with_key(attacked, key).wer_percent > 90.0

    # Integrity: an architecturally identical but unrelated model never
    # verifies (its accidental bit matches stay far below the threshold and
    # carry no statistical weight).
    unrelated = TransformerLM(trained_model.config, seed=123)
    unrelated_stats = collect_activation_stats(unrelated, small_dataset.calibration)
    unrelated_quantized = quantize_model(unrelated, "awq", bits=4, activations=unrelated_stats)
    unrelated_result = emmark.extract_with_key(unrelated_quantized, key)
    assert unrelated_result.wer_percent < 40.0
    assert unrelated_result.false_claim_probability > 1e-3
    assert not emmark.verify(unrelated_quantized, key)


def test_llama_style_model_lifecycle(small_dataset):
    """The LLaMA-2-style architecture (RMSNorm/SiLU, LLM.int8) works end to end."""
    from repro.models.training import TrainingConfig, train_language_model

    model = TransformerLM(make_tiny_llama_config(), seed=1)
    train_language_model(
        model, small_dataset.train,
        TrainingConfig(steps=40, batch_size=4, sequence_length=17, seed=2),
    )
    stats = collect_activation_stats(model, small_dataset.calibration)
    quantized = quantize_model(model, "llm_int8", bits=8, activations=stats)
    emmark = EmMark(EmMarkConfig.scaled_for_model(quantized, bits_per_layer=10))
    watermarked, key, _ = emmark.insert_with_key(quantized, stats)
    assert emmark.extract_with_key(watermarked, key).wer_percent == 100.0
    # Outlier columns (kept in FP16 by LLM.int8) never carry watermark bits.
    diff = watermarked.weight_difference(quantized)
    for name, layer in quantized.layers.items():
        if layer.outlier_columns is None:
            continue
        assert np.all(diff[name][:, layer.outlier_columns] == 0)


def test_two_owners_signatures_do_not_collide(quantized_awq4, activation_stats):
    """Different owners (different signature seeds) never cross-verify."""
    config = EmMarkConfig.scaled_for_model(quantized_awq4, bits_per_layer=8)
    owner_a = EmMark(config.with_overrides(signature_seed=1, seed=100))
    owner_b = EmMark(config.with_overrides(signature_seed=2, seed=200))
    model_a, key_a, _ = owner_a.insert_with_key(quantized_awq4, activation_stats)
    model_b, key_b, _ = owner_b.insert_with_key(quantized_awq4, activation_stats)
    assert owner_a.extract_with_key(model_a, key_a).wer_percent == 100.0
    assert owner_b.extract_with_key(model_b, key_b).wer_percent == 100.0
    assert owner_a.extract_with_key(model_b, key_a).wer_percent < 60.0
    assert owner_b.extract_with_key(model_a, key_b).wer_percent < 60.0
