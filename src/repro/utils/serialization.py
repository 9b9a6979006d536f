"""Serialization helpers for watermark keys, experiment results and models.

Two formats are used:

* JSON for small structured data (watermark key metadata, experiment result
  rows).  NumPy scalars and arrays are converted to plain Python types first.
* ``.npz`` archives for bulky numeric payloads (reference weights, activation
  statistics, model checkpoints).
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Any, Dict, Mapping, Union

import numpy as np

__all__ = [
    "save_json",
    "load_json",
    "save_npz",
    "load_npz",
    "load_npz_mmap",
    "to_jsonable",
]

PathLike = Union[str, Path]


def to_jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-serialisable Python objects.

    NumPy scalars become Python scalars, NumPy arrays become nested lists,
    tuples become lists, and mappings are converted key-by-key.  Keys are
    coerced to strings because JSON objects only allow string keys.
    """
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Mapping):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [to_jsonable(v) for v in value]
    if hasattr(value, "to_dict"):
        return to_jsonable(value.to_dict())
    raise TypeError(f"cannot convert {type(value)!r} to a JSON-serialisable value")


def save_json(path: PathLike, data: Any, indent: int = 2) -> Path:
    """Write ``data`` to ``path`` as JSON, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(to_jsonable(data), indent=indent, sort_keys=True))
    return path


def load_json(path: PathLike) -> Any:
    """Read a JSON file written by :func:`save_json`."""
    return json.loads(Path(path).read_text())


def save_npz(
    path: PathLike, arrays: Dict[str, np.ndarray], compressed: bool = True
) -> Path:
    """Save a dictionary of arrays to an ``.npz`` archive.

    ``compressed=False`` writes ``ZIP_STORED`` members, which
    :func:`load_npz_mmap` can map directly into the page cache instead of
    decompressing into anonymous memory — the format the key registry
    persists so on-demand key loads stay in OS-evictable pages.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if compressed:
        np.savez_compressed(path, **arrays)
    else:
        np.savez(path, **arrays)
    return path


def load_npz(path: PathLike) -> Dict[str, np.ndarray]:
    """Load an ``.npz`` archive into a plain dictionary of arrays."""
    with np.load(Path(path), allow_pickle=False) as handle:
        return {key: handle[key] for key in handle.files}


def _mmap_member(
    path: Path, info: zipfile.ZipInfo
) -> Union[np.ndarray, None]:
    """Memory-map one ``ZIP_STORED`` ``.npy`` member of an archive, or ``None``.

    Returns ``None`` whenever the member cannot be mapped safely (compressed,
    object dtype, unfamiliar ``.npy`` header version) so the caller can fall
    back to an ordinary in-memory read.
    """
    if info.compress_type != zipfile.ZIP_STORED:
        return None
    with open(path, "rb") as handle:
        # The local file header is 30 fixed bytes followed by the (variable
        # length) file name and extra field; the raw member payload starts
        # immediately after.  ZIP_STORED payloads are byte-identical to the
        # embedded ``.npy`` file, so the array body can be mapped in place.
        handle.seek(info.header_offset)
        local = handle.read(30)
        if len(local) != 30 or local[:4] != b"PK\x03\x04":
            return None
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        handle.seek(info.header_offset + 30 + name_len + extra_len)
        try:
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
            else:
                return None
        except ValueError:
            return None
        if dtype.hasobject:
            return None
        offset = handle.tell()
    return np.memmap(
        path,
        dtype=dtype,
        mode="r",
        offset=offset,
        shape=shape,
        order="F" if fortran else "C",
    )


def load_npz_mmap(path: PathLike) -> Dict[str, np.ndarray]:
    """Load an ``.npz`` archive, memory-mapping members where possible.

    Uncompressed (``ZIP_STORED``) members come back as read-only
    :class:`numpy.memmap` views backed by the archive file; compressed or
    otherwise unmappable members are read into memory exactly like
    :func:`load_npz`.  Mixed archives therefore always load — mapping is an
    optimisation, never a requirement.
    """
    path = Path(path)
    out: Dict[str, np.ndarray] = {}
    fallback: list[str] = []
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            name = info.filename
            if name.endswith(".npy"):
                name = name[: -len(".npy")]
            mapped = _mmap_member(path, info)
            if mapped is None:
                fallback.append(name)
            else:
                out[name] = mapped
    if fallback:
        with np.load(path, allow_pickle=False) as handle:
            for name in fallback:
                out[name] = handle[name]
    return out
