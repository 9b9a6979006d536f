"""Wire and on-disk codecs for keys and quantized models.

Keys and suspect models are mostly bulk numeric state.  The codec therefore
splits each into a two-part wire object:

* ``meta`` — plain JSON scalars (config, layer order, grid bits, …),
* ``arrays`` — every NumPy array packed into one ``.npz`` archive with
  uncompressed (``ZIP_STORED``) members, as raw bytes.

The archive holds one member per distinct dtype, named by the dtype
(``|i1``, ``<f8``, …): the arrays of that dtype flattened and concatenated
in order.  A ``layout`` member (JSON ``[[name, dtype, shape], …]`` stored
as uint8 bytes) says how to split them back, so a model travels as three
members instead of one per array.  Decoding checks the layout strictly and
returns each array as a view into its member.  An archive without a
``layout`` member is an older one-member-per-array archive and decodes as
it is.

A request that carries a key or a model travels as one binary frame of
media type :data:`WIRE_MEDIA_TYPE` (:func:`encode_body` /
:func:`decode_frame`): a 4-byte big-endian head length, a UTF-8 JSON head
(the request object, its one wire object without ``arrays``) and the raw
archive.  The frame is checked strictly — the length must fit the body, the
head must be a UTF-8 JSON object (too deep a nesting is refused, not
recursed into) with exactly one wire object lacking ``arrays``, and the
archive must not be empty — so a malformed frame is a :class:`ValueError`
before anything is decoded.  The head is bounded only by the body, as a
JSON request is: a co-resident key's head lists every slot its earlier
owners hold, which no fixed cap below the body limit fits.  Requests without bulk state stay plain JSON.  A JSON request
whose ``arrays`` is base64 text (the older wire form) still decodes.

Integer fields (quantized weights, reference weights, outlier columns, the
signature) are written in the smallest signed dtype that holds their values
and widened back to int64 on decode, so decoded models and keys — and every
content id hashed from them — are identical to the originals.  Decoding
refuses an integer field that arrives with a non-integer dtype instead of
truncating it.  Archives written before narrowing (int64, deflated) decode
the same way.

The same ``(meta, arrays)`` payload backs the on-disk directory form used by
the ``repro verify`` CLI (``model.json`` + ``model.npz``), mirroring the
layout :meth:`repro.core.keys.WatermarkKey.save` uses for keys.  Both disk
forms keep one member per array, and keys saved by
:meth:`~repro.core.keys.WatermarkKey.save` (and so the registry) stay int64:
the registry memory-maps them.

Nothing here is pickled: NPZ archives are loaded with ``allow_pickle=False``,
so a malicious payload can at worst fail to parse.
"""

from __future__ import annotations

import base64
import io
import json
import math
import struct
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Mapping, Tuple, Union

import numpy as np

from repro.core.keys import WatermarkKey
from repro.models.config import ModelConfig
from repro.quant.base import QuantizationGrid, QuantizedLinear, QuantizedModel
from repro.utils.serialization import (
    load_json,
    load_npz,
    save_json,
    save_npz,
    to_jsonable,
    widen_int64,
)

__all__ = [
    "WIRE_MEDIA_TYPE",
    "decode_frame",
    "encode_body",
    "pack_arrays",
    "unpack_arrays",
    "key_to_wire",
    "key_from_wire",
    "model_to_payload",
    "model_from_payload",
    "model_to_wire",
    "model_from_wire",
    "save_model",
    "load_model",
]

PathLike = Union[str, Path]

#: Array-name prefixes of integer fields: narrowed on encode, widened to int64
#: (and refused unless integer-typed) on decode.
_INTEGER_FIELDS = ("weight_int/", "outlier_columns/", "weights/", "outliers/", "signature")

#: Per-layer array kinds of a model payload (``<kind>/<layer>``).
_LAYER_FIELDS = ("weight_int", "scale", "bias", "smoothing", "outlier_columns", "outlier_weight")

#: Name of the packed archive's layout member (never a dtype string).
_LAYOUT = "layout"

#: Media type of a request framed by :func:`encode_body`.
WIRE_MEDIA_TYPE = "application/vnd.repro.wire"

#: Request members that hold a wire object (``{"meta", "arrays"}``).
_WIRE_SLOTS = ("model", "key")

_FRAME_PREFIX = struct.Struct(">I")


# ----------------------------------------------------------------------
# Array transport
# ----------------------------------------------------------------------
def pack_arrays(arrays: Dict[str, np.ndarray]) -> bytes:
    """Pack named arrays into one stored NPZ archive.

    The archive holds one flat member per distinct dtype plus the ``layout``
    member that :func:`unpack_arrays` splits them back by.
    """
    groups: Dict[str, List[np.ndarray]] = {}
    layout = []
    for name, value in arrays.items():
        value = np.asarray(value)
        groups.setdefault(value.dtype.str, []).append(value.ravel())
        layout.append([name, value.dtype.str, list(value.shape)])
    members = {dtype: np.concatenate(parts) for dtype, parts in groups.items()}
    members[_LAYOUT] = np.frombuffer(json.dumps(layout).encode("utf-8"), dtype=np.uint8)
    buffer = io.BytesIO()
    np.savez(buffer, **members)
    return buffer.getvalue()


def unpack_arrays(archive: Union[bytes, str]) -> Dict[str, np.ndarray]:
    """Inverse of :func:`pack_arrays`: ``{name: array}`` in layout order.

    ``archive`` is the raw archive, or the base64 text of one (the older
    JSON wire form).  Raises :class:`ValueError` on anything that is not a
    valid NPZ archive (truncated upload, wrong encoding, pickled payload) or
    whose layout does not split its members exactly.
    """
    if isinstance(archive, str):
        try:
            archive = base64.b64decode(archive.encode("ascii"), validate=True)
        except Exception as exc:
            raise ValueError(f"payload is not valid base64: {exc}") from exc
    if not isinstance(archive, bytes):
        raise ValueError(
            f"array payload must be archive bytes or base64 text, got {type(archive).__name__}"
        )
    try:
        with np.load(io.BytesIO(archive), allow_pickle=False) as handle:
            members = {name: handle[name] for name in handle.files}
    except Exception as exc:
        raise ValueError(f"payload is not a valid npz archive: {exc}") from exc
    if _LAYOUT not in members:
        return members  # an older archive: one member per array
    return _unpack(members.pop(_LAYOUT), members)


# ----------------------------------------------------------------------
# Request frames
# ----------------------------------------------------------------------
def encode_body(request: Mapping[str, object]) -> Tuple[bytes, str]:
    """``(body, media type)`` of one request object.

    A request whose wire object (``model`` or ``key``) carries archive bytes
    becomes a :data:`WIRE_MEDIA_TYPE` frame; any other request is JSON.
    """
    slots = [
        slot for slot in _WIRE_SLOTS
        if isinstance(request.get(slot), dict) and isinstance(request[slot].get("arrays"), bytes)
    ]
    if not slots:
        return json.dumps(request).encode("utf-8"), "application/json"
    if len(slots) > 1:
        raise ValueError(f"a frame carries one archive, not {len(slots)} ({slots})")
    slot = slots[0]
    wire = request[slot]
    head = {**request, slot: {name: value for name, value in wire.items() if name != "arrays"}}
    text = json.dumps(head).encode("utf-8")
    return b"".join((_FRAME_PREFIX.pack(len(text)), text, wire["arrays"])), WIRE_MEDIA_TYPE


def decode_frame(body: bytes) -> Dict[str, object]:
    """The request object of a :func:`encode_body` frame.

    The archive goes back into the one wire object that lacks ``arrays``,
    as raw bytes for :func:`model_from_wire` / :func:`key_from_wire`.  Any
    framing fault (see the module docstring) is a :class:`ValueError`.
    """
    if len(body) < _FRAME_PREFIX.size:
        raise ValueError(f"frame of {len(body)} bytes has no 4-byte length prefix")
    (length,) = _FRAME_PREFIX.unpack_from(body)
    end = _FRAME_PREFIX.size + length
    if end > len(body):
        raise ValueError(f"frame head of {length} bytes runs past the {len(body)}-byte body")
    try:
        head = json.loads(body[_FRAME_PREFIX.size:end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"frame head is not UTF-8 JSON: {exc}") from exc
    if not isinstance(head, dict):
        raise ValueError("frame head must be a JSON object")
    slots = [
        slot for slot in _WIRE_SLOTS
        if isinstance(head.get(slot), dict) and "arrays" not in head[slot]
    ]
    if len(slots) != 1:
        raise ValueError(
            f"frame head must hold exactly one wire object without 'arrays', got {slots}"
        )
    archive = body[end:]
    if not archive:
        raise ValueError("frame carries an empty archive")
    head[slots[0]]["arrays"] = archive
    return head


def _unpack(layout_bytes: np.ndarray, members: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Split the dtype ``members`` into named views as ``layout_bytes`` says.

    Every entry must name an existing member and carry a unique name and
    non-negative integer dims, and together the entries must consume every
    member exactly; anything else is a :class:`ValueError`.
    """
    if layout_bytes.dtype != np.uint8 or layout_bytes.ndim != 1:
        raise ValueError("wire layout must be a flat uint8 member")
    try:
        layout = json.loads(layout_bytes.tobytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"wire layout is not JSON: {exc}") from exc
    if not isinstance(layout, list):
        raise ValueError("wire layout must be a list of [name, dtype, shape] entries")
    for dtype, member in members.items():
        if member.ndim != 1 or member.dtype.str != dtype:
            raise ValueError(f"wire member {dtype!r} is not a flat {dtype} array")
    used = dict.fromkeys(members, 0)
    arrays: Dict[str, np.ndarray] = {}
    for entry in layout:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"wire layout entry {entry!r} is not [name, dtype, shape]")
        name, dtype, shape = entry
        if not isinstance(name, str) or name in arrays:
            raise ValueError(f"wire layout names {name!r} twice or not as a string")
        if not isinstance(dtype, str) or dtype not in members:
            raise ValueError(f"wire layout entry {name!r} names no member {dtype!r}")
        # ``type(...) is int`` also refuses bools, which JSON keeps distinct.
        if not isinstance(shape, list) or any(type(dim) is not int or dim < 0 for dim in shape):
            raise ValueError(f"wire layout entry {name!r} has shape {shape!r}")
        start = used[dtype]
        end = start + math.prod(shape)
        if end > members[dtype].size:
            raise ValueError(f"wire layout entry {name!r} runs past member {dtype!r}")
        try:
            arrays[name] = members[dtype][start:end].reshape(shape)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"wire layout entry {name!r} has shape {shape!r}: {exc}") from exc
        used[dtype] = end
    for dtype, end in used.items():
        if end != members[dtype].size:
            raise ValueError(
                f"wire member {dtype!r} holds {members[dtype].size - end} values no layout entry names"
            )
    return arrays


def _narrow_integers(arrays: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """``arrays`` with each int64 integer field in the smallest signed dtype
    that holds its values (int8, int16, int32, else int64).  Lossless; the
    decoders widen back to int64.  Float arrays pass through untouched."""
    narrowed: Dict[str, np.ndarray] = {}
    for name, value in arrays.items():
        if name.startswith(_INTEGER_FIELDS) and value.dtype == np.int64:
            low, high = (int(value.min()), int(value.max())) if value.size else (0, 0)
            for dtype in (np.int8, np.int16, np.int32):
                info = np.iinfo(dtype)
                if info.min <= low and high <= info.max:
                    value = value.astype(dtype)
                    break
        narrowed[name] = value
    return narrowed


# ----------------------------------------------------------------------
# Watermark keys
# ----------------------------------------------------------------------
def key_to_wire(key: WatermarkKey) -> Dict[str, object]:
    """Wire object of a watermark key: JSON-able ``meta`` plus the packed
    archive as raw bytes in ``arrays`` (sent framed, see :func:`encode_body`)."""
    meta, arrays = key.to_payload()
    return {"meta": to_jsonable(meta), "arrays": pack_arrays(_narrow_integers(arrays))}


def key_from_wire(wire: Dict[str, object]) -> WatermarkKey:
    """Rebuild a :class:`WatermarkKey` from :func:`key_to_wire` output (or
    its older form, with ``arrays`` as base64 text)."""
    if not isinstance(wire, dict) or "meta" not in wire or "arrays" not in wire:
        raise ValueError("key payload must be an object with 'meta' and 'arrays'")
    return WatermarkKey.from_payload(wire["meta"], unpack_arrays(wire["arrays"]))


# ----------------------------------------------------------------------
# Quantized models
# ----------------------------------------------------------------------
def model_to_payload(model: QuantizedModel) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Split a quantized model into ``(meta, arrays)``.

    The payload round-trips everything verification (and materialization)
    needs: integer weights, scales, grids, smoothing factors, outlier columns
    and the full-precision remainder of the state dict.
    """
    meta: Dict[str, object] = {
        "config": asdict(model.config),
        "method": model.method,
        "bits": model.bits,
        "base_seed": model.base_seed,
        "metadata": model.metadata,
        "layers": {name: {"grid_bits": layer.grid.bits} for name, layer in model.layers.items()},
        "layer_order": model.layer_names(),
    }
    arrays: Dict[str, np.ndarray] = {}
    for name, layer in model.layers.items():
        arrays[f"weight_int/{name}"] = layer.weight_int
        arrays[f"scale/{name}"] = layer.scale
        if layer.bias is not None:
            arrays[f"bias/{name}"] = layer.bias
        if layer.input_smoothing is not None:
            arrays[f"smoothing/{name}"] = layer.input_smoothing
        if layer.outlier_columns is not None:
            arrays[f"outlier_columns/{name}"] = layer.outlier_columns
            arrays[f"outlier_weight/{name}"] = layer.outlier_weight
    for name, value in model.full_precision_state.items():
        arrays[f"state/{name}"] = value
    return meta, arrays


def model_from_payload(
    meta: Dict[str, object], arrays: Dict[str, np.ndarray]
) -> QuantizedModel:
    """Rebuild a :class:`QuantizedModel` from :func:`model_to_payload` output.

    An array of an unknown kind, or of a layer missing from ``layer_order``,
    is a :class:`ValueError`, never silently dropped.
    """
    try:
        config_dict = dict(meta["config"])
        config = ModelConfig(**config_dict)
        grouped: Dict[str, Dict[str, np.ndarray]] = {}
        full_precision_state: Dict[str, np.ndarray] = {}
        for key, value in arrays.items():
            kind, _, name = key.partition("/")
            if kind == "state":
                full_precision_state[name] = value
            elif kind in _LAYER_FIELDS:
                if key.startswith(_INTEGER_FIELDS):
                    value = widen_int64(value, key)
                grouped.setdefault(name, {})[kind] = value
            else:
                raise ValueError(f"unknown model array {key!r}")
        layer_order = list(meta["layer_order"])
        unlisted = sorted(set(grouped) - set(layer_order))
        if unlisted:
            raise ValueError(f"arrays for layers missing from layer_order: {unlisted}")
        layers: Dict[str, QuantizedLinear] = {}
        for name in layer_order:
            parts = grouped[name]
            grid = QuantizationGrid(int(meta["layers"][name]["grid_bits"]))
            layers[name] = QuantizedLinear(
                name=name,
                weight_int=parts["weight_int"],
                scale=parts["scale"],
                grid=grid,
                bias=parts.get("bias"),
                input_smoothing=parts.get("smoothing"),
                outlier_columns=parts.get("outlier_columns"),
                outlier_weight=parts.get("outlier_weight"),
            )
        return QuantizedModel(
            config=config,
            layers=layers,
            full_precision_state=full_precision_state,
            method=meta.get("method", ""),
            bits=int(meta.get("bits", 0)),
            base_seed=int(meta.get("base_seed", 0)),
            metadata=dict(meta.get("metadata", {})),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed quantized model payload: {exc}") from exc


def model_to_wire(model: QuantizedModel) -> Dict[str, object]:
    """Wire object of a quantized model: JSON-able ``meta`` plus the packed
    archive as raw bytes in ``arrays`` (sent framed, see :func:`encode_body`)."""
    meta, arrays = model_to_payload(model)
    return {"meta": to_jsonable(meta), "arrays": pack_arrays(_narrow_integers(arrays))}


def model_from_wire(wire: Dict[str, object]) -> QuantizedModel:
    """Rebuild a :class:`QuantizedModel` from :func:`model_to_wire` output
    (or its older form, with ``arrays`` as base64 text)."""
    if not isinstance(wire, dict) or "meta" not in wire or "arrays" not in wire:
        raise ValueError("model payload must be an object with 'meta' and 'arrays'")
    return model_from_payload(wire["meta"], unpack_arrays(wire["arrays"]))


def save_model(model: QuantizedModel, directory: PathLike) -> Path:
    """Persist a quantized model into ``directory`` (``model.json`` + ``model.npz``)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta, arrays = model_to_payload(model)
    save_json(directory / "model.json", meta)
    save_npz(directory / "model.npz", _narrow_integers(arrays), compressed=False)
    return directory


def load_model(directory: PathLike) -> QuantizedModel:
    """Load a model previously written by :func:`save_model`."""
    directory = Path(directory)
    meta = load_json(directory / "model.json")
    arrays = load_npz(directory / "model.npz")
    return model_from_payload(meta, arrays)
