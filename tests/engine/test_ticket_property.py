"""Property tests: ticket matching equals the extraction definition.

The definition (arXiv:2402.17938, §4.2), computed here without the engine's
matcher: reproduce the key's locations ``L`` per layer, read the suspect's
integers there, subtract the key's reference integers, and count the
positions equal to that layer's signature slice.  A layer the suspect lacks,
or whose shape differs from the reference, extracts nothing.  Tickets are
derived on an engine whose plan cache never saw the insertion, and are
matched after a pickle round trip (what process-pool workers receive), so
agreement is not one cached value compared with itself.  The ticket an
insertion hands forward on its report is held to the same standard: equal,
field for field, to the one a cold engine derives from the returned key.
"""

from __future__ import annotations

import pickle
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import EmMarkConfig
from repro.engine import WatermarkEngine
from repro.quant.api import quantize_model
from repro.quant.base import QuantizedLinear
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


def without_last_column(layer):
    """A new layer one input channel narrower, every per-channel array sliced."""
    width = layer.in_features - 1
    columns, outliers = layer.outlier_columns, layer.outlier_weight
    if columns is not None:
        kept = columns < width
        columns, outliers = columns[kept], outliers[:, kept]
    return QuantizedLinear(
        name=layer.name,
        weight_int=layer.weight_int[:, :width],
        scale=layer.scale.copy(),
        grid=layer.grid,
        bias=None if layer.bias is None else layer.bias.copy(),
        input_smoothing=(
            None if layer.input_smoothing is None else layer.input_smoothing[:width].copy()
        ),
        outlier_columns=None if columns is None else columns.copy(),
        outlier_weight=None if outliers is None else outliers.copy(),
    )


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
        suspect.layers[victim] = without_last_column(suspect.layers[victim])

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


# ----------------------------------------------------------------------
# The ticket an insertion hands forward equals the one derived from its key
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bases(trained_model, quantized_awq4, activation_stats):
    """RTN-8 and AWQ-4 bases of one trained model."""
    return {
        "rtn-8": quantize_model(trained_model, "rtn", bits=8),
        "awq-4": quantized_awq4,
    }


def assert_same_ticket(handed, derived):
    assert handed.key_id == derived.key_id
    assert len(handed.layers) == len(derived.layers)
    for ours, theirs in zip(handed.layers, derived.layers):
        assert ours.name == theirs.name
        assert ours.shape == theirs.shape
        for field in ("locations", "reference", "signature"):
            a, b = getattr(ours, field), getattr(theirs, field)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(
    base=st.sampled_from(["rtn-8", "awq-4"]),
    owners=st.integers(1, 3),
    bits_per_layer=st.integers(1, 16),
    seed=st.integers(0, 2**31 - 1),
    attack_seed=st.integers(0, 2**32 - 1),
)
def test_insert_ticket_equals_ticket_for(
    bases, activation_stats, base, owners, bits_per_layer, seed, attack_seed
):
    model = bases[base]
    config = EmMarkConfig.scaled_for_model(
        model, bits_per_layer=bits_per_layer, seed=seed, signature_seed=seed + 1
    )
    engine = WatermarkEngine()
    if owners == 1:
        watermarked, key, report = engine.insert(model, activation_stats, config=config)
        inserted = [(key, report)]
    else:
        multi = engine.insert_multi(
            model, activation_stats, {f"o{i}": replace(config, seed=seed + i) for i in range(owners)}
        )
        watermarked = multi.model
        inserted = [(item.key, item.report) for item in multi.items]
        # Later owners were planned under the earlier owners' occupancy.
        assert all(key.occupied_slots for key, _ in inserted[1:])
    attacked = build_attack("overwrite").apply(
        watermarked, 40, np.random.default_rng(attack_seed)
    ).model
    # A cold engine: the derived ticket re-plans from the key alone.
    cold = WatermarkEngine()
    for key, report in inserted:
        derived = cold.ticket_for(key)
        assert_same_ticket(report.ticket, derived)
        assert_same_ticket(pickle.loads(pickle.dumps(report.ticket)), derived)
        for suspect in (watermarked, attacked):
            handed = report.ticket.match(suspect)
            reference = derived.match(suspect)
            assert handed.matched_bits == reference.matched_bits
            assert handed.per_layer_wer == reference.per_layer_wer
        assert report.ticket.match(watermarked).wer_percent == 100.0


def test_insert_counts_only_its_own_lookups(bases, activation_stats):
    """Concurrent insertions on one engine each report one lookup per layer."""
    model = bases["awq-4"]
    # Frequent thread switches, so the two callers' layer lookups interleave.
    engine = WatermarkEngine()
    reports = []
    errors = []

    def worker(offset):
        try:
            for index in range(5):
                config = EmMarkConfig.scaled_for_model(
                    model, bits_per_layer=4, seed=100 * offset + index
                )
                reports.append(engine.insert(model, activation_stats, config=config)[2])
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(offset,)) for offset in (1, 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(reports) == 10
    for report in reports:
        assert report.cache_hits + report.cache_misses == report.num_layers
        assert report.cache_misses == report.num_layers  # every seed is new


def test_cold_engine_calls_start_no_thread(bases, activation_stats):
    """A cold insert and a cold ticket derivation run on the caller's thread."""
    model = bases["awq-4"]
    config = EmMarkConfig.scaled_for_model(model, bits_per_layer=4, seed=977)
    before = set(threading.enumerate())
    _, key, report = WatermarkEngine().insert(model, activation_stats, config=config)
    WatermarkEngine().ticket_for(key)
    after = set(threading.enumerate())
    assert report.cache_misses == report.num_layers > 1  # both calls planned cold
    assert after - before == set()
    assert not [t.name for t in after if t.name.startswith("wm-engine")]
