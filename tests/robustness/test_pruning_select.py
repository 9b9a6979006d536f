"""Magnitude pruning zeroes exactly the stable-argsort prefix of ``|w|``.

:class:`~repro.robustness.attacks.PruningAttack` picks each layer's pruned
set by counting integer levels rather than sorting.  The set it must zero is
``np.argsort(np.abs(flat), kind="stable")[:round(n * s)]``: the smallest
magnitudes, ties at the threshold level admitted in index order.  A property
test holds it to that definition on heavily tied 4- and 8-bit layers, and
golden digests pin the pruned weights of two quantized models; the digests
were computed with the earlier argsort-based implementation.  The golden
fixture is free of training and calibration forward passes (untrained
model, seeded synthetic statistics), so the hashed bytes do not depend on
BLAS summation order.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.activations import ActivationStats
from repro.models.transformer import TransformerLM
from repro.quant.api import quantize_model
from repro.quant.base import QuantizationGrid, QuantizedLinear, QuantizedModel
from repro.robustness import build_attack
from repro.utils.rng import new_rng
from tests.conftest import make_tiny_config

GOLDEN_PRUNED_DIGESTS = {
    ("rtn", 8, 0.3): "bfeaf1daf24a10f14476",
    ("rtn", 8, 0.6): "f7709c97aacff3af484c",
    ("rtn", 8, 0.9): "b8d182636c0b509be634",
    ("awq", 4, 0.3): "4a72733d22212a80bc2b",
    ("awq", 4, 0.6): "df2a0c91d4c484eb7e48",
    ("awq", 4, 0.9): "0b5b57e8f5fa3ec82172",
}


def _single_layer_model(weight_int, bits):
    layer = QuantizedLinear(
        name="probe",
        weight_int=weight_int,
        scale=np.ones((weight_int.shape[0], 1)),
        grid=QuantizationGrid(bits),
    )
    return QuantizedModel(
        config=make_tiny_config(),
        layers={"probe": layer},
        full_precision_state={},
        method="rtn",
        bits=bits,
    )


@st.composite
def tied_layers(draw):
    """(weights, bits): few distinct levels, all-zero or all-equal layers."""
    bits = draw(st.sampled_from([4, 8]))
    qmax = 2 ** (bits - 1) - 1
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["few levels", "all zero", "all equal", "full grid"]))
    if layout == "all zero":
        return np.zeros((rows, cols), dtype=np.int64), bits
    if layout == "all equal":
        return np.full((rows, cols), draw(st.integers(-qmax, qmax)), dtype=np.int64), bits
    if layout == "few levels":
        levels = rng.choice(np.arange(-qmax, qmax + 1), size=draw(st.integers(1, 3)))
        return rng.choice(levels, size=(rows, cols)).astype(np.int64), bits
    return rng.integers(-qmax, qmax + 1, size=(rows, cols)), bits


@settings(max_examples=300, deadline=None)
@given(
    layer=tied_layers(),
    kind=st.sampled_from(["zero", "one weight", "random", "all"]),
    fraction=st.floats(0.0, 1.0),
)
def test_pruned_set_is_the_stable_argsort_prefix(layer, kind, fraction):
    weights, bits = layer
    n = weights.size
    sparsity = {"zero": 0.0, "one weight": 1.0 / n, "random": fraction, "all": 1.0}[kind]
    model = _single_layer_model(weights, bits)
    pruned = build_attack("pruning").apply(model, sparsity, new_rng(0)).model
    flat = weights.reshape(-1)
    expected = flat.copy()
    expected[np.argsort(np.abs(flat), kind="stable")[: int(round(n * sparsity))]] = 0
    np.testing.assert_array_equal(pruned.get_layer("probe").weight_int.reshape(-1), expected)
    np.testing.assert_array_equal(model.get_layer("probe").weight_int, weights)


@pytest.fixture(scope="module")
def golden_bases():
    """``{(method, bits): quantized model}`` of an untrained tiny model."""
    model = TransformerLM(make_tiny_config(name="golden-opt"), seed=7)
    rng = np.random.default_rng(2402)
    mean_abs, maximum = {}, {}
    for name, linear in model.named_linear_layers():
        mean_abs[name] = rng.random(linear.in_features) + 0.05
        maximum[name] = mean_abs[name] * 4.0
    stats = ActivationStats(mean_abs=mean_abs, maximum=maximum)
    return {
        (method, bits): quantize_model(model, method, bits=bits, activations=stats)
        for method, bits in [("rtn", 8), ("awq", 4)]
    }


def _weights_digest(model):
    hasher = hashlib.blake2b(digest_size=10)
    for layer in model.iter_layers():
        hasher.update(layer.name.encode())
        hasher.update(np.asarray(layer.weight_int.shape, dtype=np.int64).tobytes())
        hasher.update(layer.weight_int.tobytes())
    return hasher.hexdigest()


@pytest.mark.parametrize("method, bits, sparsity", sorted(GOLDEN_PRUNED_DIGESTS))
def test_pruned_weights_are_pinned(golden_bases, method, bits, sparsity):
    base = golden_bases[(method, bits)]
    before = base.integer_weight_snapshot()
    attacked = build_attack("pruning").apply(base, sparsity, new_rng(0)).model
    assert _weights_digest(attacked) == GOLDEN_PRUNED_DIGESTS[(method, bits, sparsity)]
    # The attack never mutates its input model.
    for name, layer in base.layers.items():
        assert layer.weight_int is before[name]
        assert attacked.layers[name].weight_int is not before[name]
