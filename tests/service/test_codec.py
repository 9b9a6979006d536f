"""Wire / disk codec round trips for keys and quantized models."""

import base64
import dataclasses
import io
import json
import struct
import time
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.config import EmMarkConfig
from repro.core.keys import WatermarkKey, model_fingerprint
from repro.engine import WatermarkEngine
from repro.quant.api import quantize_model
from repro.quant.base import QuantizedLinear
from repro.service.codec import (
    WIRE_MEDIA_TYPE,
    decode_frame,
    encode_body,
    key_from_wire,
    key_to_wire,
    load_model,
    model_from_wire,
    model_to_payload,
    model_to_wire,
    pack_arrays,
    save_model,
    unpack_arrays,
)
from repro.service.registry import KeyRegistry
from repro.service.server import _model_content_id
from repro.utils.serialization import save_json, save_npz, to_jsonable
from tests.conftest import (
    MALFORMED_FRAME_CASES,
    MALFORMED_LAYOUT_CASES,
    legacy_wire,
    malformed_frame,
    malformed_layout_archive,
)

#: Every dtype the packed wire is exercised with.
_WIRE_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint64, np.float32, np.float64, np.bool_)


@st.composite
def _array_dicts(draw):
    """``{name: array}`` mixing :data:`_WIRE_DTYPES` with 0-d, zero-size,
    1-D and 2-D shapes (uint64 kept within the int64 range)."""
    names = draw(st.lists(st.text(min_size=1, max_size=10), max_size=8, unique=True))
    arrays = {}
    for name in names:
        dtype = np.dtype(draw(st.sampled_from(_WIRE_DTYPES)))
        shape = draw(st.sampled_from([(), (0,), (5,), (2, 3), (0, 4), (3, 0)]))
        elements = st.integers(0, 2**63 - 1) if dtype == np.uint64 else None
        arrays[name] = draw(hnp.arrays(dtype, shape, elements=elements))
    return arrays


#: JSON values as a frame head carries them (lists, not tuples; no NaN).
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _framed_requests(draw):
    """A request object with one wire object carrying archive bytes, plus
    arbitrary JSON scalars and containers beside it."""
    slot = draw(st.sampled_from(["model", "key"]))
    others = draw(
        st.dictionaries(st.text(max_size=8).filter(lambda k: k not in ("model", "key")),
                        _JSON_VALUES, max_size=4)
    )
    meta = draw(st.dictionaries(st.text(max_size=8), _JSON_VALUES, max_size=4))
    archive = draw(st.binary(min_size=1, max_size=64))
    return {**others, slot: {"meta": meta, "arrays": archive}}


#: Values at and just past each narrow dtype's range, and ±2**40 past int32.
_BOUNDARIES = (
    0, 127, 128, -128, -129, 32767, 32768, -32768, -32769,
    2**31 - 1, 2**31, -(2**31), -(2**31) - 1, 2**40, -(2**40),
)


@pytest.fixture(scope="module")
def subjects(trained_model, quantized_awq4, activation_stats):
    """``{name: (watermarked model, key)}`` for an RTN-8 and an AWQ-4 deployment."""
    engine = WatermarkEngine()
    out = {}
    for name, model in (
        ("rtn8", quantize_model(trained_model, "rtn", bits=8)),
        ("awq4", quantized_awq4),
    ):
        config = EmMarkConfig.scaled_for_model(model, bits_per_layer=8)
        watermarked, key, _ = engine.insert(model, activation_stats, config=config)
        out[name] = (watermarked, key)
    return out


def _compressed_int64_wire(meta, arrays):
    """A wire payload as written before integer narrowing: int64, deflated."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return {"meta": to_jsonable(meta), "arrays": base64.b64encode(buffer.getvalue()).decode("ascii")}


def _reference_with(key, layer, values):
    """``layer``'s reference weights zeroed, then led by ``values`` — a
    well-formed key layer holding exactly the integers under test."""
    weights = np.zeros_like(key.reference_weights[layer])
    weights.flat[: len(values)] = values
    return weights


class TestArrayTransport:
    def test_round_trip(self):
        arrays = {
            "a": np.arange(12, dtype=np.int64).reshape(3, 4),
            "b/nested": np.linspace(0, 1, 7),
        }
        decoded = unpack_arrays(pack_arrays(arrays))
        assert set(decoded) == {"a", "b/nested"}
        np.testing.assert_array_equal(decoded["a"], arrays["a"])
        np.testing.assert_allclose(decoded["b/nested"], arrays["b/nested"])

    def test_base64_text_decodes_like_the_bytes(self):
        arrays = {"a": np.arange(6, dtype=np.int8), "b": np.ones((2, 2))}
        archive = pack_arrays(arrays)
        for decoded in (unpack_arrays(archive), unpack_arrays(base64.b64encode(archive).decode())):
            assert list(decoded) == ["a", "b"]
            for name, value in arrays.items():
                np.testing.assert_array_equal(decoded[name], value)

    def test_rejects_bad_base64(self):
        with pytest.raises(ValueError, match="base64"):
            unpack_arrays("!!! not base64 !!!")

    def test_rejects_non_npz(self):
        with pytest.raises(ValueError, match="npz"):
            unpack_arrays(base64.b64encode(b"plain bytes").decode())
        with pytest.raises(ValueError, match="npz"):
            unpack_arrays(b"plain bytes")
        with pytest.raises(ValueError, match="npz"):
            unpack_arrays(b"")

    def test_rejects_non_archive_payload(self):
        with pytest.raises(ValueError, match="archive bytes or base64 text"):
            unpack_arrays(123)
        with pytest.raises(ValueError, match="archive bytes or base64 text"):
            unpack_arrays(["nested"])


class TestPackedArchive:
    """One stored member per dtype plus the ``layout`` member."""

    @settings(max_examples=80, deadline=None)
    @given(arrays=_array_dicts())
    def test_mixed_dicts_round_trip(self, arrays):
        encoded = pack_arrays(arrays)
        decoded = unpack_arrays(encoded)
        assert list(decoded) == list(arrays)
        for name, value in arrays.items():
            assert decoded[name].dtype == value.dtype
            assert decoded[name].shape == value.shape
            np.testing.assert_array_equal(decoded[name], value)
        with zipfile.ZipFile(io.BytesIO(encoded)) as archive:
            members = sorted(archive.namelist())
        dtypes = {value.dtype.str for value in arrays.values()}
        assert members == sorted(f"{name}.npy" for name in dtypes | {"layout"})

    def test_model_travels_as_three_members(self, subjects):
        watermarked, _ = subjects["rtn8"]
        raw = model_to_wire(watermarked)["arrays"]
        with zipfile.ZipFile(io.BytesIO(raw)) as archive:
            assert sorted(archive.namelist()) == ["<f8.npy", "layout.npy", "|i1.npy"]

    @pytest.mark.parametrize("case", MALFORMED_LAYOUT_CASES)
    def test_malformed_layout_is_refused(self, watermarked_and_key, case):
        watermarked, _ = watermarked_and_key
        encoded = malformed_layout_archive(model_to_wire(watermarked)["arrays"], case)
        with pytest.raises(ValueError, match="wire (layout|member)"):
            unpack_arrays(encoded)


class TestRequestFrame:
    """The binary body of a request that carries a key or a model."""

    @settings(max_examples=80, deadline=None)
    @given(request=_framed_requests())
    def test_round_trip(self, request):
        body, media_type = encode_body(request)
        assert media_type == WIRE_MEDIA_TYPE
        assert decode_frame(body) == request

    def test_requests_without_an_archive_stay_json(self):
        body, media_type = encode_body({"suspect_id": "hit", "key_ids": ["a"]})
        assert media_type == "application/json"
        assert json.loads(body) == {"suspect_id": "hit", "key_ids": ["a"]}

    def test_frame_carries_the_archive_raw(self, watermarked_and_key):
        watermarked, _ = watermarked_and_key
        wire = model_to_wire(watermarked)
        body, _ = encode_body({"model": wire, "suspect_id": "x"})
        assert body.endswith(wire["arrays"])
        assert len(body) < len(wire["arrays"]) + 4 + len(json.dumps(wire["meta"])) + 64

    def test_two_archives_are_refused(self, watermarked_and_key):
        watermarked, key = watermarked_and_key
        with pytest.raises(ValueError, match="one archive"):
            encode_body({"model": model_to_wire(watermarked), "key": key_to_wire(key)})

    @pytest.mark.parametrize("case", MALFORMED_FRAME_CASES)
    @pytest.mark.parametrize("slot", ["model", "key"])
    def test_malformed_frame_is_refused(self, watermarked_and_key, case, slot):
        watermarked, key = watermarked_and_key
        wire = model_to_wire(watermarked) if slot == "model" else key_to_wire(key)
        with pytest.raises(ValueError, match=MALFORMED_FRAME_CASES[case]):
            decode_frame(malformed_frame({slot: wire, "suspect_id": "x"}, case))

    def test_unterminated_escaped_string_head_is_refused_quickly(self):
        # A head of one quote followed by escaped quotes and no closing
        # quote: a backtracking string scan over it is quadratic.
        text = b'"' + b'\\"' * 131_072 + b"x"
        body = struct.pack(">I", len(text)) + text + b"\x00"
        started = time.perf_counter()
        with pytest.raises(ValueError, match="not UTF-8 JSON"):
            decode_frame(body)
        assert time.perf_counter() - started < 2.0

    @pytest.mark.parametrize("name", ["rtn8", "awq4"])
    def test_framed_and_legacy_forms_decode_identically(self, subjects, name):
        watermarked, key = subjects[name]
        for slot, wire, decode in (
            ("model", model_to_wire(watermarked), model_from_wire),
            ("key", key_to_wire(key), key_from_wire),
        ):
            framed = decode(decode_frame(encode_body({slot: wire})[0])[slot])
            legacy = decode(json.loads(encode_body({slot: legacy_wire(wire)})[0])[slot])
            if slot == "model":
                for content_id in (_model_content_id, model_fingerprint):
                    assert content_id(framed) == content_id(legacy) == content_id(watermarked)
            else:
                assert framed.fingerprint() == legacy.fingerprint() == key.fingerprint()


class TestKeyWire:
    def test_round_trip_preserves_verification(self, watermarked_and_key):
        watermarked, key = watermarked_and_key
        restored = key_from_wire(key_to_wire(key))
        assert restored.fingerprint() == key.fingerprint()
        np.testing.assert_array_equal(restored.signature, key.signature)
        assert WatermarkEngine().extract(watermarked, restored).wer_percent == 100.0

    def test_rejects_malformed_envelope(self):
        with pytest.raises(ValueError):
            key_from_wire({"meta": {}})
        with pytest.raises(ValueError):
            key_from_wire("not an object")


class TestModelCodec:
    def test_wire_round_trip_preserves_weights(self, quantized_awq4):
        restored = model_from_wire(model_to_wire(quantized_awq4))
        assert restored.layer_names() == quantized_awq4.layer_names()
        assert restored.method == quantized_awq4.method
        assert restored.bits == quantized_awq4.bits
        assert restored.config == quantized_awq4.config
        for name in quantized_awq4.layer_names():
            original = quantized_awq4.get_layer(name)
            copy = restored.get_layer(name)
            np.testing.assert_array_equal(copy.weight_int, original.weight_int)
            np.testing.assert_allclose(copy.scale, original.scale)
            assert copy.grid.bits == original.grid.bits
            if original.input_smoothing is not None:
                np.testing.assert_allclose(copy.input_smoothing, original.input_smoothing)

    def test_wire_round_trip_preserves_full_precision_state(self, quantized_awq4):
        restored = model_from_wire(model_to_wire(quantized_awq4))
        assert set(restored.full_precision_state) == set(quantized_awq4.full_precision_state)
        for name, value in quantized_awq4.full_precision_state.items():
            np.testing.assert_allclose(restored.full_precision_state[name], value)

    def test_disk_round_trip(self, quantized_awq4, tmp_path):
        save_model(quantized_awq4, tmp_path / "model")
        restored = load_model(tmp_path / "model")
        assert restored.layer_names() == quantized_awq4.layer_names()
        for name in quantized_awq4.layer_names():
            np.testing.assert_array_equal(
                restored.get_layer(name).weight_int,
                quantized_awq4.get_layer(name).weight_int,
            )

    def test_restored_model_verifies_identically(self, watermarked_and_key):
        """Transport must not perturb a single verification-relevant bit."""
        watermarked, key = watermarked_and_key
        restored = model_from_wire(model_to_wire(watermarked))
        engine = WatermarkEngine()
        direct = engine.extract(watermarked, key)
        via_wire = engine.extract(restored, key)
        assert via_wire.matched_bits == direct.matched_bits
        assert via_wire.total_bits == direct.total_bits

    def test_rejects_malformed_envelope(self):
        with pytest.raises(ValueError):
            model_from_wire({"arrays": ""})

    @pytest.mark.parametrize(
        "member, message",
        [("gradient/{layer}", "unknown model array"), ("orphan", "unknown model array"),
         ("scale/ghost", "missing from layer_order")],
    )
    def test_unplaceable_member_is_refused(self, quantized_awq4, member, message):
        meta, arrays = model_to_payload(quantized_awq4)
        arrays[member.format(layer=quantized_awq4.layer_names()[0])] = np.ones((2, 1))
        with pytest.raises(ValueError, match=message):
            model_from_wire({"meta": to_jsonable(meta), "arrays": pack_arrays(arrays)})

    def test_layer_left_out_of_layer_order_is_refused(self, quantized_awq4):
        meta, arrays = model_to_payload(quantized_awq4)
        meta["layer_order"] = meta["layer_order"][1:]
        with pytest.raises(ValueError, match="missing from layer_order"):
            model_from_wire({"meta": to_jsonable(meta), "arrays": pack_arrays(arrays)})


class TestIntegerNarrowing:
    """Integer fields travel narrowed and decode to the same int64 values."""

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from(_BOUNDARIES),
                st.integers(min_value=-(2**40), max_value=2**40),
            ),
            max_size=24,
        ),
        columns=st.lists(
            st.one_of(st.sampled_from((127, 128, 32768)), st.integers(min_value=0, max_value=4095)),
            max_size=8,
        ),
    )
    def test_key_integers_round_trip_as_int64(self, watermarked_and_key, values, columns):
        _, key = watermarked_and_key
        layer = key.layer_names[0]
        weights = _reference_with(key, layer, values)
        outliers = np.asarray(columns, dtype=np.int64)
        probe = dataclasses.replace(
            key,
            reference_weights={**key.reference_weights, layer: weights},
            outlier_columns={layer: outliers},
        )
        restored = key_from_wire(key_to_wire(probe))
        for got, want in (
            (restored.reference_weights[layer], weights),
            (restored.outlier_columns[layer], outliers),
        ):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        assert restored.fingerprint() == probe.fingerprint()

    @pytest.mark.parametrize(
        "value, dtype",
        [(127, np.int8), (-128, np.int8), (128, np.int16), (-129, np.int16),
         (32768, np.int32), (-(2**31), np.int32), (2**31, np.int64), (2**40, np.int64)],
    )
    def test_narrowest_signed_dtype_is_sent(self, watermarked_and_key, value, dtype):
        _, key = watermarked_and_key
        layer = key.layer_names[0]
        probe = dataclasses.replace(
            key,
            reference_weights={**key.reference_weights, layer: _reference_with(key, layer, [0, value])},
        )
        sent = unpack_arrays(key_to_wire(probe)["arrays"])
        assert sent[f"weights/{layer}"].dtype == dtype

    def test_model_outlier_columns_wide_and_empty(self, quantized_awq4):
        """LLM.int8-style outlier indices past 127, and none at all, survive the wire."""
        model = quantized_awq4.clone()
        wide, empty = model.layer_names()[:2]
        grid = model.get_layer(wide).grid
        for name, columns in ((wide, [5, 128, 200, 299]), (empty, [])):
            model.layers[name] = QuantizedLinear(
                name=name,
                weight_int=np.zeros((4, 300), dtype=np.int64),
                scale=np.ones((4, 1)),
                grid=grid,
                outlier_columns=np.asarray(columns, dtype=np.int64),
                outlier_weight=np.zeros((4, len(columns))),
            )
        restored = model_from_wire(model_to_wire(model))
        for name in (wide, empty):
            got = restored.get_layer(name).outlier_columns
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, model.get_layer(name).outlier_columns)

    def test_wire_and_saved_models_are_narrow_and_stored(self, subjects, tmp_path):
        watermarked, key = subjects["rtn8"]
        save_model(watermarked, tmp_path)
        archives = [tmp_path / "model.npz"] + [
            io.BytesIO(wire["arrays"])
            for wire in (model_to_wire(watermarked), key_to_wire(key))
        ]
        for source in archives:
            with zipfile.ZipFile(source) as archive:
                assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
        with np.load(tmp_path / "model.npz") as saved:
            on_disk = {name: saved[name] for name in saved.files}
        for sent in (on_disk, unpack_arrays(model_to_wire(watermarked)["arrays"])):
            assert all(v.dtype == np.int8 for k, v in sent.items() if k.startswith("weight_int/"))
            assert all(v.dtype == np.float64 for k, v in sent.items() if k.startswith("scale/"))

    @pytest.mark.parametrize("name", ["rtn8", "awq4"])
    def test_content_ids_unchanged_through_the_wire(self, subjects, name):
        watermarked, key = subjects[name]
        model = model_from_wire(model_to_wire(watermarked))
        restored_key = key_from_wire(key_to_wire(key))
        assert restored_key.fingerprint() == key.fingerprint()
        assert _model_content_id(model) == _model_content_id(watermarked)
        assert model_fingerprint(model) == model_fingerprint(watermarked)
        layer = key.layer_names[0]
        engine = WatermarkEngine()
        plans = [
            engine.plan_for_layer(
                m.get_layer(layer),
                k.activations.channel_saliency(layer),
                k.config.bits_per_layer,
                k.config,
            )
            for m, k in ((watermarked, key), (model, restored_key))
        ]
        assert plans[0].fingerprint == plans[1].fingerprint
        np.testing.assert_array_equal(plans[0].locations, plans[1].locations)
        direct = WatermarkEngine().extract(watermarked, key)
        via_wire = WatermarkEngine().extract(model, restored_key)
        assert via_wire.matched_bits == direct.matched_bits == direct.total_bits


class TestBackwardCompatibility:
    """Payloads and directories written before narrowing still decode."""

    def test_int64_compressed_key_payload(self, subjects):
        _, key = subjects["awq4"]
        restored = key_from_wire(_compressed_int64_wire(*key.to_payload()))
        assert restored.fingerprint() == key.fingerprint()
        for layer in key.layer_names:
            np.testing.assert_array_equal(restored.reference_weights[layer], key.reference_weights[layer])

    def test_int64_compressed_model_payload(self, subjects):
        watermarked, _ = subjects["rtn8"]
        restored = model_from_wire(_compressed_int64_wire(*model_to_payload(watermarked)))
        assert _model_content_id(restored) == _model_content_id(watermarked)

    def test_compressed_model_directory(self, subjects, tmp_path):
        watermarked, _ = subjects["awq4"]
        meta, arrays = model_to_payload(watermarked)
        save_json(tmp_path / "model.json", meta)
        save_npz(tmp_path / "model.npz", arrays, compressed=True)
        restored = load_model(tmp_path)
        assert _model_content_id(restored) == _model_content_id(watermarked)
        for name in watermarked.layer_names():
            assert restored.get_layer(name).weight_int.dtype == np.int64

    def test_registry_key_archives_stay_int64_and_stored(self, subjects, tmp_path):
        """The registry memory-maps its archives; wire narrowing must not reach them."""
        _, key = subjects["rtn8"]
        record = KeyRegistry(tmp_path).register(key, owner="acme")
        archive_path = tmp_path / record.key_id / "watermark_key.npz"
        with zipfile.ZipFile(archive_path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_STORED}
        with np.load(archive_path, allow_pickle=False) as handle:
            integer_fields = [n for n in handle.files if n == "signature" or n.startswith(("weights/", "outliers/"))]
            assert integer_fields
            assert {handle[n].dtype for n in integer_fields} == {np.dtype(np.int64)}
        loaded = WatermarkKey.load(tmp_path / record.key_id, mmap=True)
        assert loaded.fingerprint() == key.fingerprint()


class TestIntegerFieldValidation:
    """A non-integer dtype in an integer field is refused, never truncated."""

    @pytest.mark.parametrize(
        "bad",
        [
            lambda w: w.astype(np.float64) + 0.7,
            lambda w: w.astype(bool),
            lambda w: w.astype(np.complex128),
            lambda w: w.astype("U8"),
        ],
        ids=["float", "bool", "complex", "str"],
    )
    def test_model_weight_int(self, watermarked_and_key, bad):
        watermarked, _ = watermarked_and_key
        meta, arrays = model_to_payload(watermarked)
        field = f"weight_int/{watermarked.layer_names()[0]}"
        arrays[field] = bad(arrays[field])
        with pytest.raises(ValueError, match="integers"):
            model_from_wire({"meta": to_jsonable(meta), "arrays": pack_arrays(arrays)})

    @pytest.mark.parametrize("field", ["weights/", "outliers/", "signature"])
    def test_key_integer_fields(self, watermarked_and_key, field):
        _, key = watermarked_and_key
        layer = key.layer_names[0]
        meta, arrays = dataclasses.replace(
            key, outlier_columns={layer: np.arange(3, dtype=np.int64)}
        ).to_payload()
        name = field if field == "signature" else field + layer
        arrays[name] = arrays[name].astype(np.float64) + 0.7
        with pytest.raises(ValueError, match="integers"):
            key_from_wire({"meta": to_jsonable(meta), "arrays": pack_arrays(arrays)})

    def test_unsigned_fields_widen_unless_out_of_range(self, watermarked_and_key):
        _, key = watermarked_and_key
        layer = key.layer_names[0]
        meta, arrays = dataclasses.replace(
            key, outlier_columns={layer: np.arange(3, dtype=np.int64)}
        ).to_payload()
        arrays[f"outliers/{layer}"] = np.asarray([1, 200], dtype=np.uint64)
        restored = key_from_wire({"meta": to_jsonable(meta), "arrays": pack_arrays(arrays)})
        assert restored.outlier_columns[layer].dtype == np.int64
        np.testing.assert_array_equal(restored.outlier_columns[layer], [1, 200])
        arrays[f"outliers/{layer}"] = np.asarray([1, 2**63], dtype=np.uint64)
        with pytest.raises(ValueError, match="int64 range"):
            key_from_wire({"meta": to_jsonable(meta), "arrays": pack_arrays(arrays)})
