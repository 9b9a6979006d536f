"""The owner's watermark key.

Section 4.1 lists what the owner keeps after insertion: "(i) signature
sequence ``B``; (ii) the random seed ``d``, the original quantized weight
``W``, full-precision activation ``A_f``, and α, β coefficients for location
``L`` reproduction."  :class:`WatermarkKey` bundles exactly these pieces, plus
the metadata needed to interpret them (layer order, bits per layer, the
quantization method/precision of the model the key belongs to).

The key is what makes the scheme confidential: an adversary holding the
deployed model but not the key cannot reproduce the scores (no ``A_f``), the
candidate sub-sampling (no ``d``), or the expected signature (no ``B``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Tuple, Union

import numpy as np

from repro.core.config import EmMarkConfig
from repro.models.activations import ActivationStats
from repro.utils.serialization import (
    load_json,
    load_npz,
    load_npz_mmap,
    save_json,
    save_npz,
)

__all__ = ["WatermarkKey", "model_fingerprint", "layer_shapes_fingerprint"]

PathLike = Union[str, Path]


def _digest(payload: Dict[str, object], prefix: str, extra_bytes: bytes = b"") -> str:
    """Short stable hex digest of a JSON-able payload (+ optional raw bytes)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    hasher = hashlib.sha256(canonical.encode("utf-8"))
    hasher.update(extra_bytes)
    return f"{prefix}-{hasher.hexdigest()[:20]}"


def layer_shapes_fingerprint(
    model_name: str,
    method: str,
    bits: int,
    layer_shapes: Mapping[str, Tuple[int, ...]],
) -> str:
    """Content fingerprint of a model *identity* (name, precision, geometry).

    This is the registry's index key: a watermark key computed for a model and
    any suspect deployment of that model (watermarked or not) share the same
    fingerprint, because watermarking and the integer-domain attacks change
    weight values, never layer names or shapes.
    """
    payload = {
        "model_name": model_name,
        "method": method,
        "bits": int(bits),
        "layers": {name: list(shape) for name, shape in layer_shapes.items()},
    }
    return _digest(payload, "wmm")


def model_fingerprint(model) -> str:
    """The :func:`layer_shapes_fingerprint` of a quantized model.

    Duck-typed (anything exposing ``config.name``, ``method``, ``bits`` and a
    ``layers`` mapping of objects with ``weight_int`` works) so this module
    stays free of a ``repro.quant`` import.
    """
    return layer_shapes_fingerprint(
        model.config.name,
        model.method,
        model.bits,
        {name: tuple(layer.weight_int.shape) for name, layer in model.layers.items()},
    )


@dataclass
class WatermarkKey:
    """Everything the model owner needs to later prove ownership.

    Attributes
    ----------
    signature:
        The full ±1 signature sequence ``B``.
    config:
        The :class:`~repro.core.config.EmMarkConfig` used at insertion
        (contains α, β and the random seed ``d``).
    reference_weights:
        Snapshot of the *original* (pre-watermark) integer weights ``W`` per
        layer; extraction compares the suspect model against these.
    activations:
        The full-precision activation statistics ``A_f`` used for scoring.
    layer_names:
        Quantization layers in the canonical order the signature was split
        over.
    method, bits:
        Quantization framework and precision of the watermarked model (for
        bookkeeping and sanity checks at extraction time).
    model_name:
        Name of the model configuration the key belongs to.
    outlier_columns:
        For LLM.int8()-quantized models, the per-layer indices of the input
        channels kept in full precision; extraction needs them to rebuild the
        exact eligibility mask used during insertion.
    """

    signature: np.ndarray
    config: EmMarkConfig
    reference_weights: Dict[str, np.ndarray]
    activations: ActivationStats
    layer_names: List[str]
    method: str = ""
    bits: int = 0
    model_name: str = ""
    outlier_columns: Dict[str, np.ndarray] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.signature = np.asarray(self.signature, dtype=np.int64).reshape(-1)
        expected = self.config.bits_per_layer * len(self.layer_names)
        if self.signature.size != expected:
            raise ValueError(
                f"signature length {self.signature.size} does not match "
                f"{self.config.bits_per_layer} bits x {len(self.layer_names)} layers"
            )
        missing = [name for name in self.layer_names if name not in self.reference_weights]
        if missing:
            raise ValueError(f"reference weights missing for layers: {missing[:4]}")

    @property
    def total_bits(self) -> int:
        """Total signature length ``|B|``."""
        return int(self.signature.size)

    @property
    def num_layers(self) -> int:
        """Number of quantization layers covered by the key."""
        return len(self.layer_names)

    def signature_for_layer(self, layer_name: str) -> np.ndarray:
        """The slice of the signature assigned to ``layer_name``."""
        try:
            index = self.layer_names.index(layer_name)
        except ValueError as exc:
            raise KeyError(f"layer {layer_name!r} is not covered by this key") from exc
        bits = self.config.bits_per_layer
        return self.signature[index * bits : (index + 1) * bits]

    # ------------------------------------------------------------------
    # Co-residency (multi-owner coexistence)
    # ------------------------------------------------------------------
    @property
    def co_residents(self) -> List[str]:
        """Labels of the other owners sharing this key's model (may be empty).

        Recorded by the engine when the key was inserted through a
        :class:`~repro.engine.allocator.SlotAllocator`; purely informational
        (verification never needs it — the occupancy itself lives in
        ``metadata["occupied_slots"]``).
        """
        return list(self.metadata.get("co_residents", []))

    @property
    def occupied_slots(self) -> Dict[str, List[int]]:
        """Per-layer slots that were already held when this key was planned.

        Location-determining: extraction replays this occupancy so the
        re-ranked plan reproduces exactly.  Empty for single-owner keys.
        """
        return {
            str(name): [int(i) for i in indices]
            for name, indices in (self.metadata.get("occupied_slots") or {}).items()
        }

    # ------------------------------------------------------------------
    # Fingerprinting (content addressing for the key registry)
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content-addressed identifier of the key.

        Hashes the signature bits together with everything that determines the
        watermark locations (α, β, seed ``d``, pool rule, layer order), the
        model identity, **the reference integer weights and the activation
        saliencies**, so two registrations of the same key collapse to one
        registry entry while any semantic difference — a different signature,
        seed, a retrained model under the same name, or re-collected
        calibration activations — yields a distinct id.  (Weights and
        activations both determine the locations ``L``; omitting either
        would let a newer key silently collide with a stale registry entry
        whose locations no longer match.)
        """
        weights = hashlib.sha256()
        for name in self.layer_names:
            weights.update(np.ascontiguousarray(self.reference_weights[name]).tobytes())
            weights.update(
                np.ascontiguousarray(
                    self.activations.channel_saliency(name), dtype=np.float64
                ).tobytes()
            )
        payload = {
            "config": {
                "bits_per_layer": self.config.bits_per_layer,
                "alpha": self.config.alpha,
                "beta": self.config.beta,
                "seed": self.config.seed,
                "candidate_pool_ratio": self.config.candidate_pool_ratio,
                "max_candidate_fraction": self.config.max_candidate_fraction,
                "exclude_saturated": self.config.exclude_saturated,
            },
            "layer_names": self.layer_names,
            "model_name": self.model_name,
            "method": self.method,
            "bits": self.bits,
        }
        occupied = self.metadata.get("occupied_slots") or {}
        if occupied:
            # The slot-allocation axis is location-determining: the same
            # signature + seed + weights planned under different co-resident
            # occupancies selects different positions, so the occupancy must
            # separate the ids.  Absent occupancy adds nothing — pre-existing
            # single-owner fingerprints are unchanged.
            payload["occupied_slots"] = {
                str(name): [int(i) for i in indices] for name, indices in occupied.items()
            }
        return _digest(
            payload, "wmk", extra_bytes=self.signature.tobytes() + weights.digest()
        )

    def model_fingerprint(self) -> str:
        """Identity fingerprint of the model this key was inserted into.

        Matches :func:`model_fingerprint` of the original quantized model and
        of any suspect deployment of it, which is how the registry finds the
        candidate keys for an incoming suspect.
        """
        return layer_shapes_fingerprint(
            self.model_name,
            self.method,
            self.bits,
            {name: tuple(w.shape) for name, w in self.reference_weights.items()},
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_payload(self) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
        """Split the key into ``(meta, arrays)`` — JSON-able scalars plus bulk.

        The payload is the single serialization form behind both the on-disk
        directory layout (:meth:`save`) and the service wire format
        (:mod:`repro.service.codec`).
        """
        meta = {
            "config": {
                "bits_per_layer": self.config.bits_per_layer,
                "alpha": self.config.alpha,
                "beta": self.config.beta,
                "seed": self.config.seed,
                "candidate_pool_ratio": self.config.candidate_pool_ratio,
                "max_candidate_fraction": self.config.max_candidate_fraction,
                "signature_seed": self.config.signature_seed,
                "exclude_saturated": self.config.exclude_saturated,
            },
            "layer_names": self.layer_names,
            "method": self.method,
            "bits": self.bits,
            "model_name": self.model_name,
            "metadata": self.metadata,
        }
        arrays: Dict[str, np.ndarray] = {"signature": self.signature}
        for name, weights in self.reference_weights.items():
            arrays[f"weights/{name}"] = weights
        for name, columns in self.outlier_columns.items():
            arrays[f"outliers/{name}"] = np.asarray(columns, dtype=np.int64)
        for key, value in self.activations.to_arrays().items():
            arrays[f"activations/{key}"] = value
        return meta, arrays

    @classmethod
    def from_payload(
        cls, meta: Dict[str, object], arrays: Dict[str, np.ndarray]
    ) -> "WatermarkKey":
        """Rebuild a key from the ``(meta, arrays)`` form of :meth:`to_payload`."""
        try:
            reference_weights: Dict[str, np.ndarray] = {}
            outlier_columns: Dict[str, np.ndarray] = {}
            activation_arrays: Dict[str, np.ndarray] = {}
            # ``asarray`` instead of ``astype``: already-int64 inputs pass
            # through untouched, so a key loaded from a memory-mapped archive
            # stays zero-copy and read-only; mistyped inputs are still
            # converted exactly as before.
            for key, value in arrays.items():
                if key.startswith("weights/"):
                    reference_weights[key[len("weights/") :]] = np.asarray(value, dtype=np.int64)
                elif key.startswith("outliers/"):
                    outlier_columns[key[len("outliers/") :]] = np.asarray(value, dtype=np.int64)
                elif key.startswith("activations/"):
                    activation_arrays[key[len("activations/") :]] = value
            config = EmMarkConfig(**meta["config"])
            return cls(
                signature=np.asarray(arrays["signature"], dtype=np.int64),
                config=config,
                reference_weights=reference_weights,
                activations=ActivationStats.from_arrays(activation_arrays),
                layer_names=list(meta["layer_names"]),
                method=meta.get("method", ""),
                bits=int(meta.get("bits", 0)),
                model_name=meta.get("model_name", ""),
                outlier_columns=outlier_columns,
                metadata=dict(meta.get("metadata", {})),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed watermark key payload: {exc}") from exc

    def save(self, directory: PathLike, compressed: bool = True) -> Path:
        """Persist the key into ``directory`` (two files: JSON + NPZ).

        The JSON file holds the scalar metadata and configuration, the NPZ
        archive holds the signature, reference weights and activations.
        ``compressed=False`` writes the archive with ``ZIP_STORED`` members so
        later loads can memory-map the arrays (see ``mmap`` on :meth:`load`) —
        the layout the lazy key registry persists.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        meta, arrays = self.to_payload()
        save_json(directory / "watermark_key.json", meta)
        save_npz(directory / "watermark_key.npz", arrays, compressed=compressed)
        return directory

    @classmethod
    def load(cls, directory: PathLike, mmap: bool = False) -> "WatermarkKey":
        """Load a key previously written by :meth:`save`.

        With ``mmap=True`` uncompressed archive members come back as read-only
        memory-mapped views (compressed members silently fall back to an
        in-memory read), so a registry's on-demand key loads read their bulk
        arrays through the page cache rather than into anonymous memory.

        Raises
        ------
        FileNotFoundError
            When either of the two key files is missing.
        ValueError
            When a file exists but is corrupted (invalid JSON, a damaged NPZ
            archive, or metadata inconsistent with the arrays).
        """
        directory = Path(directory)
        try:
            meta = load_json(directory / "watermark_key.json")
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"corrupted watermark key metadata in {directory}: {exc}"
            ) from exc
        loader = load_npz_mmap if mmap else load_npz
        try:
            arrays = loader(directory / "watermark_key.npz")
        except FileNotFoundError:
            raise
        except Exception as exc:  # zipfile.BadZipFile, pickle refusal, OSError…
            raise ValueError(
                f"corrupted watermark key archive in {directory}: {exc}"
            ) from exc
        return cls.from_payload(meta, arrays)

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"WatermarkKey(model={self.model_name or '?'}, method={self.method or '?'}, "
            f"bits={self.bits}, |B|={self.total_bits}, layers={self.num_layers}, "
            f"alpha={self.config.alpha}, beta={self.config.beta}, seed={self.config.seed})"
        )
