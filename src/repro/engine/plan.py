"""Location plans: the cacheable unit of watermark-placement work.

Scoring a layer and seed-sub-sampling its candidate pool is a *pure function*
of ``(reference weights, activations, configuration, payload size)`` — the
paper relies on exactly this purity for extraction to reproduce the
insertion-time locations.  A :class:`LocationPlan` captures one such result
together with the :func:`plan_fingerprint` of its inputs, so that the
engine's ``insert``, ``reproduce_locations``, ``verify`` and repeated
attack-sweep extractions can all share one memoized computation instead of
re-running the scoring pipeline per call.

Determinism is guaranteed by construction: cached and uncached lookups run
the identical code path, and the fingerprint covers every input that can
influence the outcome (integer weights, grid, outlier columns, activation
vector, α/β, the secret seed ``d``, pool sizing and the per-layer payload).

The integer weights enter the fingerprint as their :func:`weights_digest`,
which is memoized per read-only array: layer weights are immutable (see
:mod:`repro.quant.base`), so re-planning an unchanged subject — every
gauntlet cell re-watermarks one — hashes its weights once, not per call.
Fingerprints are process-local cache keys; nothing persists them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.memo import ReadOnlyArrayMemo

__all__ = ["LocationPlan", "plan_fingerprint", "weights_digest"]


def _hash_array(hasher: "hashlib._Hash", array: Optional[np.ndarray]) -> None:
    """Feed an array (or its absence) into the hash, shape included."""
    if array is None:
        hasher.update(b"<none>")
        return
    array = np.ascontiguousarray(array)
    hasher.update(str(array.dtype).encode())
    hasher.update(np.asarray(array.shape, dtype=np.int64).tobytes())
    hasher.update(array.tobytes())


def _int64_digest(array: np.ndarray) -> bytes:
    hasher = hashlib.blake2b(digest_size=16)
    _hash_array(hasher, np.asarray(array, dtype=np.int64))
    return hasher.digest()


_weights_digest = ReadOnlyArrayMemo(_int64_digest)


def weights_digest(weight_int: np.ndarray) -> bytes:
    """Content digest of integer weights: blake2b over dtype, shape and int64 bytes.

    Memoized per read-only array (by identity, dropped when the array
    dies); a writable array is hashed afresh on every call.
    """
    return _weights_digest(np.asarray(weight_int))


def plan_fingerprint(
    layer_name: str,
    grid_bits: int,
    weight_int: np.ndarray,
    outlier_columns: Optional[np.ndarray],
    channel_activations: np.ndarray,
    alpha: float,
    beta: float,
    seed: int,
    exclude_saturated: bool,
    pool_size: int,
    bits_needed: int,
    occupied: Optional[np.ndarray] = None,
) -> str:
    """Content fingerprint of one layer's location-plan inputs.

    Every argument is an input of the scoring + sub-sampling pipeline;
    anything *not* listed here (quantization scales, biases, the signature
    bits themselves, ``signature_seed``) provably cannot change the selected
    locations, which is what lets insertion, extraction and fleet
    verification share plans across different signatures and suspects.

    ``occupied`` is the slot-allocation axis: the flat indices already held
    by co-resident watermarks, which the planner re-ranks past.  An empty or
    absent occupancy contributes nothing to the digest — a plan computed
    against a virgin model keeps the exact fingerprint it had before the
    allocator existed, so single-owner cache entries stay valid and shared.

    ``weight_int`` contributes its :func:`weights_digest`, so an unchanged
    read-only weight array is hashed once however often it is planned.
    """
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(layer_name.encode("utf-8"))
    hasher.update(np.asarray([grid_bits, seed, pool_size, bits_needed], dtype=np.int64).tobytes())
    hasher.update(np.asarray([alpha, beta], dtype=np.float64).tobytes())
    hasher.update(b"1" if exclude_saturated else b"0")
    hasher.update(weights_digest(weight_int))
    _hash_array(hasher, outlier_columns)
    _hash_array(hasher, np.asarray(channel_activations, dtype=np.float64))
    if occupied is not None and occupied.size:
        hasher.update(b"occupied")
        _hash_array(hasher, np.asarray(occupied, dtype=np.int64))
    return hasher.hexdigest()


@dataclass(frozen=True)
class LocationPlan:
    """Memoized scoring + sub-sampling result for one quantization layer.

    Attributes
    ----------
    layer_name:
        The layer the plan belongs to.
    fingerprint:
        :func:`plan_fingerprint` of the inputs that produced the plan.
    candidate_indices:
        The ``|B_c|`` best-scoring flattened positions, ascending-score order.
    locations:
        The seed-sub-sampled watermark positions (``bits_needed`` of them).
    pool_size:
        Candidate pool size actually used.
    num_weights:
        Layer weight count the plan was computed for (sanity checking).
    compute_seconds:
        CPU time spent building the plan (0 is never stored — a cache hit
        reports the original cost via :attr:`compute_seconds`).
    """

    layer_name: str
    fingerprint: str
    candidate_indices: np.ndarray
    locations: np.ndarray
    pool_size: int
    num_weights: int
    compute_seconds: float = 0.0

    def __post_init__(self) -> None:
        # Plans are shared through the cache and handed to callers by
        # reference (e.g. via ExtractionResult.locations); freezing the
        # arrays turns accidental in-place mutation — which would silently
        # corrupt every later extraction for the key — into an immediate
        # ValueError.
        object.__setattr__(
            self, "candidate_indices", np.asarray(self.candidate_indices, dtype=np.int64)
        )
        object.__setattr__(self, "locations", np.asarray(self.locations, dtype=np.int64))
        self.candidate_indices.setflags(write=False)
        self.locations.setflags(write=False)

    @property
    def num_locations(self) -> int:
        """Number of watermark positions the plan selects."""
        return int(self.locations.size)
