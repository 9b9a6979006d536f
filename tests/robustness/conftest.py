"""Robustness-suite fixtures.

On top of the session substrate from ``tests/conftest.py`` this adds an
LLM.int8() quantization with *guaranteed* outlier columns (the INT8
attack-effectiveness regression tests need full-precision columns to exist),
a watermarked subject pair shared across the gauntlet tests, and an
independent re-watermarking reference for the ``rewatermark`` spec.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EmMarkConfig
from repro.engine import WatermarkEngine
from repro.eval.harness import EvaluationHarness
from repro.quant.api import quantize_model
from repro.models.activations import collect_activation_stats
from repro.robustness import GauntletSubject
from repro.utils.rng import new_rng


@pytest.fixture(scope="session")
def quantized_llm_int8(trained_model, activation_stats):
    """LLM.int8() quantization with at least one outlier column per layer."""
    quantized = quantize_model(
        trained_model,
        "llm_int8",
        bits=8,
        activations=activation_stats,
        outlier_threshold=1.05,
        max_outlier_fraction=0.25,
    )
    layers_with_outliers = [
        layer for layer in quantized.iter_layers() if layer.outlier_columns is not None
    ]
    assert layers_with_outliers, "fixture must produce outlier columns"
    return quantized


@pytest.fixture(scope="session")
def tiny_harness(small_dataset):
    """A small, fast evaluation harness for gauntlet quality measurements."""
    return EvaluationHarness(small_dataset, num_task_examples=4, max_sequences=8)


@pytest.fixture(scope="session")
def gauntlet_engine():
    """A private engine so cache-traffic assertions see only gauntlet work."""
    return WatermarkEngine()


@pytest.fixture(scope="session")
def awq_subject(quantized_awq4, activation_stats, tiny_harness, gauntlet_engine):
    """A watermarked AWQ INT4 subject with harness, ready for the gauntlet."""
    config = EmMarkConfig.scaled_for_model(quantized_awq4, bits_per_layer=8)
    watermarked, key, _ = gauntlet_engine.insert(
        quantized_awq4, activation_stats, config=config
    )
    return GauntletSubject(model=watermarked, key=key, harness=tiny_harness)


@pytest.fixture(scope="session")
def int8_subject(quantized_llm_int8, activation_stats, tiny_harness, gauntlet_engine):
    """A watermarked LLM.int8() subject (outlier columns present)."""
    config = EmMarkConfig.scaled_for_model(quantized_llm_int8, bits_per_layer=8)
    watermarked, key, _ = gauntlet_engine.insert(
        quantized_llm_int8, activation_stats, config=config
    )
    return GauntletSubject(model=watermarked, key=key, harness=tiny_harness)


@pytest.fixture(scope="session")
def multi_owner_subject(quantized_awq4, activation_stats, tiny_harness, gauntlet_engine):
    """One AWQ model carrying two co-resident owners ('acme' and 'globex')."""
    from dataclasses import replace

    base = EmMarkConfig.scaled_for_model(quantized_awq4, bits_per_layer=8)
    result = gauntlet_engine.insert_multi(
        quantized_awq4,
        activation_stats,
        {
            "acme": base,
            "globex": replace(base, seed=base.seed + 11, signature_seed=base.signature_seed + 11),
        },
    )
    return GauntletSubject(
        model=result.model,
        key=result.key_for("acme"),
        harness=tiny_harness,
        co_keys={"globex": result.key_for("globex")},
    )


def _assert_same_ticket(ours, theirs):
    """Layer-by-layer equality of two verification tickets."""
    assert [layer.name for layer in ours.layers] == [layer.name for layer in theirs.layers]
    for mine, other in zip(ours.layers, theirs.layers):
        assert mine.shape == other.shape
        np.testing.assert_array_equal(mine.locations, other.locations)
        np.testing.assert_array_equal(mine.reference, other.reference)
        np.testing.assert_array_equal(mine.signature, other.signature)


@pytest.fixture(scope="session")
def assert_same_ticket():
    return _assert_same_ticket


@pytest.fixture(scope="session")
def paper_rewatermark():
    """The paper's re-watermarking adversary, derived without the spec.

    Returns ``insert(model, bits_per_layer, corpus, engine) -> (attacked,
    attacker_ticket)``: ``engine.insert`` with the Section 5.3 attacker
    parameters (α=1, β=1.5, d=22, signature seed 999) on activations
    collected afresh from the quantized model, and the ticket derived from
    the resulting full key.
    """

    def insert(model, bits_per_layer, corpus, engine):
        activations = collect_activation_stats(model.materialize(), corpus)
        config = EmMarkConfig(
            bits_per_layer=bits_per_layer, alpha=1.0, beta=1.5, seed=22, signature_seed=999
        )
        signature = new_rng(999, "attacker-signature").choice(
            np.array([-1, 1], dtype=np.int64),
            size=bits_per_layer * model.num_quantization_layers,
        )
        attacked, key, _ = engine.insert(model, activations, config=config, signature=signature)
        return attacked, engine.ticket_for(key)

    return insert
