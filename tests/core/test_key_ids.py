"""Golden watermark-key ids.

A key id (:meth:`WatermarkKey.fingerprint`) is the registry's content
address: every persisted entry, audit row and client reference is filed
under it.  A refactor of key construction or serialization must leave the
id of an unchanged key bit-identical, so these literals pin the ids of one
key per insertion flavour: RTN-8, AWQ-4, LLM.int8() (outlier columns) and
the second owner of a two-owner ``insert_multi`` (recorded occupancy).

The fixture is deliberately free of training and calibration forward
passes: an untrained tiny model and saliency drawn from a seeded
``default_rng`` keep every hashed byte independent of BLAS summation order.
"""

import numpy as np
import pytest

from repro.core.config import EmMarkConfig
from repro.engine import WatermarkEngine
from repro.models.activations import ActivationStats
from repro.models.transformer import TransformerLM
from repro.quant.api import quantize_model
from tests.conftest import make_tiny_config

GOLDEN_IDS = {
    ("rtn", 8): "wmk-e5ff6b58792eae3ffed0",
    ("awq", 4): "wmk-bf59243204c3d5c35b27",
    ("llm_int8", 8): "wmk-bf226d781b72c4186e77",
}
GOLDEN_SECOND_OWNER_ID = "wmk-c37fc0fae3a403fbaaaa"


@pytest.fixture(scope="module")
def golden_base():
    """(untrained model, synthetic calibration statistics)."""
    model = TransformerLM(make_tiny_config(name="golden-opt"), seed=7)
    rng = np.random.default_rng(2402)
    mean_abs, maximum = {}, {}
    for name, linear in model.named_linear_layers():
        mean_abs[name] = rng.random(linear.in_features) + 0.05
        peaks = mean_abs[name] * 4.0
        # Two loud channels per layer give LLM.int8() outlier columns.
        peaks[rng.choice(linear.in_features, 2, replace=False)] *= 10.0
        maximum[name] = peaks
    return model, ActivationStats(mean_abs=mean_abs, maximum=maximum)


def _insert(golden_base, method, bits):
    model, stats = golden_base
    quantized = quantize_model(model, method, bits=bits, activations=stats)
    _, key, _ = WatermarkEngine().insert(
        quantized, stats, config=EmMarkConfig.scaled_for_model(quantized)
    )
    return key


@pytest.mark.parametrize("method, bits", sorted(GOLDEN_IDS))
def test_single_owner_key_id_is_pinned(golden_base, method, bits):
    key = _insert(golden_base, method, bits)
    if method == "llm_int8":
        assert key.outlier_columns, "the fixture must exercise outlier columns"
    assert key.fingerprint() == GOLDEN_IDS[(method, bits)]


def test_two_owner_key_ids_are_pinned(golden_base):
    model, stats = golden_base
    quantized = quantize_model(model, "rtn", bits=8, activations=stats)
    keys = WatermarkEngine().insert_multi(quantized, stats, 2).keys()
    # Owner-0 plans on a virgin model: its id is the single-owner RTN-8 id.
    assert keys["owner-0"].fingerprint() == GOLDEN_IDS[("rtn", 8)]
    assert keys["owner-1"].occupied_slots
    assert keys["owner-1"].fingerprint() == GOLDEN_SECOND_OWNER_ID
