"""Shared fixtures for the test suite.

The heavyweight objects (a trained tiny model, its activation statistics and
quantized instances) are built once per session; tests that mutate models
always work on clones, so sharing is safe.
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
import socket
import struct
import threading

import numpy as np
import pytest

from repro.data.wikitext import build_wikitext_sim
from repro.models.activations import collect_activation_stats
from repro.models.config import ModelConfig
from repro.models.training import TrainingConfig, train_language_model
from repro.models.transformer import TransformerLM
from repro.quant.api import quantize_model
from repro.utils.serialization import save_json, save_npz


TINY_VOCAB = 128


def make_tiny_config(name: str = "tiny-opt", **overrides) -> ModelConfig:
    """A very small OPT-style configuration used across the tests."""
    defaults = dict(
        name=name,
        vocab_size=TINY_VOCAB,
        d_model=32,
        n_layers=2,
        n_heads=2,
        d_ff=64,
        max_seq_len=32,
        norm_type="layernorm",
        activation="relu",
        family="opt",
        virtual_params_billions=0.125,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


def make_tiny_llama_config(name: str = "tiny-llama", **overrides) -> ModelConfig:
    """A very small LLaMA-style configuration (RMSNorm + SiLU)."""
    defaults = dict(
        name=name,
        vocab_size=TINY_VOCAB,
        d_model=32,
        n_layers=2,
        n_heads=2,
        d_ff=48,
        max_seq_len=32,
        norm_type="rmsnorm",
        activation="silu",
        family="llama2",
        virtual_params_billions=7.0,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


@contextlib.contextmanager
def one_shot_server(reply):
    """A listener that answers its first connection with ``reply`` and
    closes; yields its port."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    listener.settimeout(10)

    def serve():
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        with conn:
            conn.recv(65536)
            conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1]
    finally:
        thread.join(timeout=10)
        listener.close()


def legacy_key_payload(key, stats):
    """``key.to_payload()`` in the older archive layout.

    Keys used to carry every calibration statistic: ``mean_abs`` of every
    captured layer plus ``activations/{rms,max,gram}/<layer>``.  Archives and
    clients of that layout still exist; tests build them from a current key
    and the calibration ``stats`` it was planned from.
    """
    meta, arrays = key.to_payload()
    for kind, values in (
        ("mean_abs", stats.mean_abs),
        ("rms", stats.rms),
        ("max", stats.maximum),
        ("gram", stats.gram),
    ):
        for name, value in values.items():
            arrays[f"activations/{kind}/{name}"] = value
    return meta, arrays


def save_legacy_key(key, stats, directory):
    """Write ``key`` into ``directory`` the way :meth:`WatermarkKey.save`
    did for the older layout (uncompressed, as the registry persists it)."""
    meta, arrays = legacy_key_payload(key, stats)
    directory.mkdir(parents=True, exist_ok=True)
    save_json(directory / "watermark_key.json", meta)
    save_npz(directory / "watermark_key.npz", arrays, compressed=False)
    return directory


MALFORMED_KEY_CASES = (
    "saliency missing",
    "saliency wrong length",
    "saliency 2-d",
    "saliency nan",
    "slot out of range",
    "negative slot",
    "slot in unknown layer",
    "repeated slot",
    "non-integer slot",
)


MALFORMED_LAYOUT_CASES = (
    "layout not json",
    "layout nested too deep",
    "layout not a list",
    "entry not a triple",
    "unknown member",
    "negative dim",
    "bool dim",
    "float dim",
    "duplicate name",
    "entry runs past member",
    "values left over",
    "stray member",
    "member of another dtype",
)


def legacy_wire(wire):
    """``wire`` (a ``model_to_wire`` / ``key_to_wire`` object) in the older
    JSON form, its archive as base64 text."""
    return {**wire, "arrays": base64.b64encode(wire["arrays"]).decode("ascii")}


def malformed_layout_archive(archive, case):
    """The packed wire ``archive`` (bytes) re-packed with its layout or
    members broken as ``case`` names (one of
    :data:`MALFORMED_LAYOUT_CASES`); the other entries stay intact."""
    with np.load(io.BytesIO(archive), allow_pickle=False) as handle:
        members = {name: handle[name] for name in handle.files}
    layout = json.loads(members.pop("layout").tobytes())
    name, dtype, shape = layout[0]
    if case == "entry not a triple":
        layout[0] = [name, dtype]
    elif case == "unknown member":
        layout[0][1] = "<c16"
    elif case in ("negative dim", "bool dim", "float dim", "entry runs past member"):
        extra = {"negative dim": -1, "bool dim": True, "float dim": 1.0}.get(case, 2)
        layout[0][2] = shape + [extra]
    elif case == "duplicate name":
        layout[1][0] = name
    elif case == "values left over":
        members[dtype] = np.concatenate([members[dtype], members[dtype][:1]])
    elif case == "stray member":
        members["<c16"] = np.zeros(1, dtype=np.complex128)
    elif case == "member of another dtype":
        members[dtype] = members[dtype].astype(np.complex64)
    text = json.dumps({"entries": layout} if case == "layout not a list" else layout).encode()
    text = {"layout not json": b"\xff[", "layout nested too deep": b"[" * 100_000}.get(case, text)
    members["layout"] = np.frombuffer(text, dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez(buffer, **members)
    return buffer.getvalue()


#: Framing faults of a binary request, each with the words its refusal names.
MALFORMED_FRAME_CASES = {
    "shorter than the prefix": "length prefix",
    "length past the end": "runs past",
    "head not utf-8": "not UTF-8 JSON",
    "head not json": "not UTF-8 JSON",
    "head nested too deep": "recursion depth",
    "head not an object": "must be a JSON object",
    "no wire object": "exactly one wire object",
    "no wire object lacking arrays": "exactly one wire object",
    "two wire objects lacking arrays": "exactly one wire object",
    "empty archive": "empty archive",
}


def malformed_frame(request, case):
    """The binary frame of ``request`` (one wire object carrying archive
    bytes) broken as ``case`` names (a key of :data:`MALFORMED_FRAME_CASES`).
    Every other part of the frame stays well formed."""
    slot, other = ("model", "key") if "model" in request else ("key", "model")
    archive = request[slot]["arrays"]
    head = {**request, slot: {"meta": request[slot]["meta"]}}
    if case == "no wire object":
        del head[slot]
    elif case == "no wire object lacking arrays":
        head[slot]["arrays"] = ""
    elif case == "two wire objects lacking arrays":
        head[other] = {"meta": {}}
    elif case == "empty archive":
        archive = b""
    text = {
        "head not utf-8": b'{"\xff": 1}',
        "head not json": b"{not json",
        "head not an object": b"[1, 2]",
        "head nested too deep": b"[" * 100_000,
    }.get(case, json.dumps(head).encode("utf-8"))
    if case == "length past the end":
        # A truncated upload: the body ends inside the head it announces.
        return struct.pack(">I", len(text)) + text[: len(text) // 2]
    body = struct.pack(">I", len(text)) + text + archive
    return body[:3] if case == "shorter than the prefix" else body


def malformed_key_payload(key, case):
    """``key.to_payload()`` with its first layer broken as ``case`` names
    (one of :data:`MALFORMED_KEY_CASES`)."""
    meta, arrays = key.to_payload()
    meta = dict(meta, metadata=dict(meta["metadata"]))
    layer = key.layer_names[0]
    member = f"activations/mean_abs/{layer}"
    channels = key.reference_weights[layer].shape[1]
    size = key.reference_weights[layer].size
    saliency = {
        "saliency wrong length": np.ones(channels - 1),
        "saliency 2-d": np.ones((1, channels)),
        "saliency nan": np.full(channels, np.nan),
    }
    slots = {
        "slot out of range": {layer: [size]},
        "negative slot": {layer: [-1]},
        "slot in unknown layer": {"blocks.99.attn.q_proj": [0]},
        "repeated slot": {layer: [3, 3]},
        "non-integer slot": {layer: [1.5]},
    }
    if case == "saliency missing":
        del arrays[member]
    elif case in saliency:
        arrays[member] = saliency[case]
    else:
        meta["metadata"]["occupied_slots"] = slots[case]
    return meta, arrays


@pytest.fixture(scope="session")
def small_dataset():
    """A compact WikiText-sim bundle shared by the whole session."""
    return build_wikitext_sim(
        vocab_size=TINY_VOCAB,
        train_tokens=12_000,
        validation_tokens=3_000,
        calibration_tokens=2_000,
        seed=99,
    )


@pytest.fixture(scope="session")
def tiny_config() -> ModelConfig:
    return make_tiny_config()


@pytest.fixture()
def untrained_model(tiny_config) -> TransformerLM:
    """A freshly initialised (untrained) tiny model."""
    return TransformerLM(tiny_config, seed=3)


@pytest.fixture(scope="session")
def trained_model(small_dataset) -> TransformerLM:
    """A tiny model trained enough that quality metrics carry signal."""
    model = TransformerLM(make_tiny_config(), seed=0)
    train_language_model(
        model,
        small_dataset.train,
        TrainingConfig(steps=160, batch_size=8, sequence_length=25, learning_rate=1e-2, seed=0),
    )
    return model


@pytest.fixture(scope="session")
def activation_stats(trained_model, small_dataset):
    """Calibration activation statistics of the trained tiny model."""
    return collect_activation_stats(trained_model, small_dataset.calibration)


@pytest.fixture(scope="session")
def quantized_awq4(trained_model, activation_stats):
    """The trained tiny model quantized to INT4 with AWQ."""
    return quantize_model(trained_model, "awq", bits=4, activations=activation_stats)


@pytest.fixture(scope="session")
def quantized_int8(trained_model, activation_stats):
    """The trained tiny model quantized to INT8 with SmoothQuant."""
    return quantize_model(trained_model, "smoothquant", bits=8, activations=activation_stats)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A per-test deterministic RNG."""
    return np.random.default_rng(1234)
