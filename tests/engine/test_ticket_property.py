"""Property tests: ticket matching equals the extraction definition.

The definition (arXiv:2402.17938, §4.2), computed here without the engine's
matcher: reproduce the key's locations ``L`` per layer, read the suspect's
integers there, subtract the key's reference integers, and count the
positions equal to that layer's signature slice.  A layer the suspect lacks,
or whose shape differs from the reference, extracts nothing.  Tickets are
derived on an engine whose plan cache never saw the insertion, and are
matched after a pickle round trip (what process-pool workers receive), so
agreement is not one cached value compared with itself.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import EmMarkConfig
from repro.engine import WatermarkEngine
from repro.quant.api import quantize_model
from repro.robustness import build_attack


@pytest.fixture(scope="module")
def subjects(trained_model, quantized_awq4, activation_stats):
    """``{name: (watermarked model, key)}``: a single owner, two co-resident
    owners (the second planned under the first's occupancy) and an
    LLM.int8 model whose key carries outlier columns."""
    engine = WatermarkEngine()
    out = {}
    config = EmMarkConfig.scaled_for_model(quantized_awq4, bits_per_layer=8)
    model, key, _ = engine.insert(quantized_awq4, activation_stats, config=config)
    out["single"] = (model, key)
    multi = engine.insert_multi(quantized_awq4, activation_stats, 2)
    for item in multi.items:
        out[item.owner_id] = (multi.model, item.key)
    assert out["owner-1"][1].occupied_slots
    int8 = quantize_model(trained_model, "llm_int8", bits=8, activations=activation_stats)
    model, key, _ = engine.insert(int8, activation_stats)
    assert any(columns.size for columns in key.outlier_columns.values())
    out["int8"] = (model, key)
    return out, engine


@pytest.fixture(scope="module")
def tickets(subjects):
    """Each key's ticket from a cold engine, shipped through pickle."""
    by_name, _ = subjects
    cold = WatermarkEngine()
    return {
        name: pickle.loads(pickle.dumps(cold.ticket_for(key)))
        for name, (_, key) in by_name.items()
    }


def definition(engine, suspect, key):
    """(matched bits, per-layer WER, locations) straight from the definition."""
    locations = engine.reproduce_locations(key)
    matched = 0
    per_layer = {}
    for name in key.layer_names:
        signature = key.signature_for_layer(name)
        reference = key.reference_weights[name]
        layer = suspect.layers.get(name)
        if layer is None or layer.weight_int.shape != reference.shape:
            per_layer[name] = 0.0
            continue
        where = locations[name]
        hits = int(np.count_nonzero(layer.weight_int.flat[where] - reference.flat[where] == signature))
        matched += hits
        per_layer[name] = 100.0 * hits / signature.size
    return matched, per_layer, locations


NAMES = ["single", "owner-0", "owner-1", "int8"]


@settings(max_examples=60, deadline=None)
@given(
    key_name=st.sampled_from(NAMES),
    model_name=st.sampled_from(NAMES),
    attack=st.sampled_from(["none", "overwrite", "pruning"]),
    strength=st.floats(0.0, 1.0),
    layout=st.sampled_from(["intact", "missing", "reshaped"]),
    layer_pick=st.integers(0, 10_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_ticket_match_equals_definition(
    subjects, tickets, key_name, model_name, attack, strength, layout, layer_pick, seed
):
    by_name, engine = subjects
    model, _ = by_name[model_name]
    _, key = by_name[key_name]
    rng = np.random.default_rng(seed)
    if attack == "overwrite":
        suspect = build_attack("overwrite").apply(model, int(strength * 200), rng).model
    elif attack == "pruning":
        suspect = build_attack("pruning").apply(model, 0.9 * strength, rng).model
    else:
        suspect = model.clone()
    victim = key.layer_names[layer_pick % len(key.layer_names)]
    if layout == "missing":
        del suspect.layers[victim]
    elif layout == "reshaped":
        suspect.layers[victim].weight_int = suspect.layers[victim].weight_int[:, :-1]

    matched, per_layer, locations = definition(engine, suspect, key)
    ticket = tickets[key_name]
    result = ticket.match(suspect)

    assert result.total_bits == key.total_bits
    assert result.matched_bits == matched
    assert result.per_layer_wer == per_layer
    if layout != "intact":
        assert result.per_layer_wer[victim] == 0.0
    assert set(result.locations) == set(locations)
    for name, where in locations.items():
        np.testing.assert_array_equal(result.locations[name], where)
