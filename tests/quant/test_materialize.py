"""Golden ``QuantizedModel.materialize`` outputs.

``materialize`` builds its model from ``full_precision_state`` and the
layers alone, without a throwaway random initialisation.  These literals
pin the materialized ``state_dict`` of one model per quantizer; they were
computed with the earlier implementation, which initialised a random model
and overwrote its parameters.  The fixture is free of training and
calibration forward passes (untrained model, seeded synthetic statistics),
so the hashed bytes do not depend on BLAS summation order.
"""

import hashlib

import numpy as np
import pytest

from repro.models.activations import ActivationStats
from repro.models.transformer import TransformerLM
from repro.quant.api import quantize_model
from tests.conftest import make_tiny_config

GOLDEN_STATE_DIGESTS = {
    ("rtn", 8): "5bcc1bf63a8f1d8b7387",
    ("awq", 4): "0996871864f83d0082de",
    ("smoothquant", 8): "84e66521de3b3b753a6c",
    ("gptq", 4): "f268a9fd1676bdc3ed80",
    ("llm_int8", 8): "3ebe4d22aaddcc768625",
}


@pytest.fixture(scope="module")
def golden_base():
    """(untrained model, synthetic calibration statistics incl. Gram matrices)."""
    model = TransformerLM(make_tiny_config(name="golden-opt"), seed=7)
    rng = np.random.default_rng(2402)
    mean_abs, maximum, gram = {}, {}, {}
    for name, linear in model.named_linear_layers():
        width = linear.in_features
        mean_abs[name] = rng.random(width) + 0.05
        peaks = mean_abs[name] * 4.0
        # Two loud channels per layer give LLM.int8() outlier columns.
        peaks[rng.choice(width, 2, replace=False)] *= 10.0
        maximum[name] = peaks
        noise = rng.random((width, width))
        gram[name] = (noise + noise.T) / 2 + width * np.eye(width)
    return model, ActivationStats(mean_abs=mean_abs, maximum=maximum, gram=gram)


def _state_digest(model: TransformerLM) -> str:
    hasher = hashlib.sha256()
    for name, value in sorted(model.state_dict().items()):
        hasher.update(name.encode())
        hasher.update(str(value.dtype).encode())
        hasher.update(np.asarray(value.shape, dtype=np.int64).tobytes())
        hasher.update(np.ascontiguousarray(value).tobytes())
    return hasher.hexdigest()[:20]


@pytest.mark.parametrize("method, bits", sorted(GOLDEN_STATE_DIGESTS))
def test_materialized_state_is_pinned(golden_base, method, bits):
    model, stats = golden_base
    quantized = quantize_model(model, method, bits=bits, activations=stats)
    if method == "llm_int8":
        assert any(layer.outlier_columns is not None for layer in quantized.iter_layers())
    materialized = quantized.materialize()
    np.testing.assert_array_equal(materialized.outlier_channels, model.outlier_channels)
    assert _state_digest(materialized) == GOLDEN_STATE_DIGESTS[(method, bits)]


def test_missing_full_precision_entry_raises(golden_base):
    model, stats = golden_base
    quantized = quantize_model(model, "rtn", bits=8, activations=stats)
    dropped = next(iter(quantized.full_precision_state))
    del quantized.full_precision_state[dropped]
    with pytest.raises(KeyError, match=dropped):
        quantized.materialize()
