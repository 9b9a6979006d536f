"""Verification tickets: the part of a watermark key a verdict reads.

EmMark proves ownership by reading the suspect's integer weights at the
watermark locations ``L`` and comparing their offsets from the original
weights ``W`` with the signature ``B`` (arXiv:2402.17938, §4.2).  Reproducing
``L`` is per-key work (scoring, or a plan-cache hit that still fingerprints
the key's full reference weights and activations); the match reads only a few
hundred integers.  A :class:`VerificationTicket` holds exactly those, per
layer: locations, reference integers at them, signature slice and layer shape
— a few KB against a multi-MB key.  It is a plain picklable value, derived
once per key by :meth:`~repro.engine.engine.WatermarkEngine.ticket_for`, or
handed forward by :meth:`~repro.engine.engine.WatermarkEngine.insert` (on
its report), which builds it from the plans it just inserted with; both go
through :meth:`VerificationTicket.from_key` and agree exactly.  Matching a
ticket is bit-identical to matching the key it came from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.engine.reports import ExtractionResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.keys import WatermarkKey
    from repro.quant.base import QuantizedModel

__all__ = ["TicketLayer", "VerificationTicket"]


def _frozen(values) -> np.ndarray:
    """A private read-only int64 copy (tickets are shared across threads)."""
    array = np.array(values, dtype=np.int64).reshape(-1)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class TicketLayer:
    """The match inputs of one quantization layer."""

    name: str
    shape: Tuple[int, ...]
    locations: np.ndarray
    reference: np.ndarray
    signature: np.ndarray


@dataclass(frozen=True)
class VerificationTicket:
    """Per-key verification evidence: locations, reference values, signature.

    ``key_id`` is the source key's fingerprint when the deriving caller
    already knows it (the registry does); deriving never hashes the key.
    """

    layers: Tuple[TicketLayer, ...]
    key_id: Optional[str] = None

    @classmethod
    def from_key(
        cls,
        key: "WatermarkKey",
        locations: Mapping[str, np.ndarray],
        key_id: Optional[str] = None,
    ) -> "VerificationTicket":
        """Build the ticket of ``key`` from its reproduced ``locations``."""
        layers = []
        for name in key.layer_names:
            reference = key.reference_weights[name]
            where = _frozen(locations[name])
            layers.append(TicketLayer(
                name, tuple(reference.shape), where,
                _frozen(reference.reshape(-1)[where]), _frozen(key.signature_for_layer(name)),
            ))
        return cls(layers=tuple(layers), key_id=key_id)

    def match(
        self,
        suspect: "QuantizedModel",
        strict_layout: bool = False,
        wall_start: Optional[float] = None,
    ) -> ExtractionResult:
        """Match ``suspect``: one gather and compare per layer.

        A layer the suspect lacks or has in another shape extracts 0%
        (``strict_layout`` raises instead).  ``wall_start`` (default: now)
        starts the result's wall clock.
        """
        if wall_start is None:
            wall_start = time.perf_counter()
        matched = 0
        total = 0
        per_layer_wer: Dict[str, float] = {}
        for layer in self.layers:
            total += layer.signature.size
            suspect_layer = suspect.layers.get(layer.name)
            if suspect_layer is None:
                if strict_layout:
                    raise KeyError(f"suspect model has no quantized layer named {layer.name!r}")
                per_layer_wer[layer.name] = 0.0
                continue
            if suspect_layer.weight_int.shape != layer.shape:
                if strict_layout:
                    raise ValueError(
                        f"layer {layer.name!r} shape mismatch: suspect "
                        f"{suspect_layer.weight_int.shape} vs reference {layer.shape}"
                    )
                per_layer_wer[layer.name] = 0.0
                continue
            delta = suspect_layer.weight_int.reshape(-1)[layer.locations] - layer.reference
            layer_matches = int(np.sum(delta == layer.signature))
            matched += layer_matches
            per_layer_wer[layer.name] = 100.0 * layer_matches / layer.signature.size
        return ExtractionResult.from_counts(
            total_bits=total,
            matched_bits=matched,
            per_layer_wer=per_layer_wer,
            locations={layer.name: layer.locations for layer in self.layers},
            wall_clock_seconds=time.perf_counter() - wall_start,
        )
