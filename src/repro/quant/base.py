"""Core quantization data structures.

Everything the watermarking layer touches lives here:

* :class:`QuantizationGrid` — a symmetric ``N``-bit integer grid
  (Equation 1 of the paper: ``X_q = round(X / Δ)``, ``Δ = max|X| / (2^{N-1}-1)``).
* :class:`QuantizedLinear` — one quantized projection: integer weights,
  per-output-channel scales, optional per-input-channel smoothing factors
  (AWQ / SmoothQuant) and optional full-precision outlier columns
  (LLM.int8()).
* :class:`QuantizedModel` — the collection of quantized layers of one model
  plus its remaining full-precision state, able to *materialize* an
  evaluation-ready :class:`~repro.models.transformer.TransformerLM` with the
  dequantized effective weights.

A layer's integer weights are an immutable value: ``weight_int`` is always a
read-only, C-contiguous int64 array.  Writers never edit it in place; they
assign a new array of the same shape (``layer.weight_int = new``), which is
validated against the grid and frozen, or call
:meth:`QuantizedLinear.add_to_weights`, which does the same copy-on-write.  Because nothing writes them, clones, key
snapshots and shared-memory views share one weight array, and per-array
work — the grid check here, the content digest in
:mod:`repro.engine.plan` — runs once per array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.models.config import ModelConfig
from repro.models.transformer import TransformerLM
from repro.utils.memo import ReadOnlyArrayMemo

__all__ = [
    "QuantizationGrid",
    "QuantizedLinear",
    "QuantizedModel",
    "quantize_tensor",
    "dequantize_tensor",
]


@dataclass(frozen=True)
class QuantizationGrid:
    """A symmetric signed integer grid with ``bits`` bits.

    The grid covers ``[-qmax, +qmax]`` with ``qmax = 2**(bits-1) - 1``;
    the value ``-2**(bits-1)`` is unused, matching the symmetric quantizers
    in SmoothQuant/AWQ/GPTQ.
    """

    bits: int

    def __post_init__(self) -> None:
        if not 2 <= self.bits <= 16:
            raise ValueError(f"bits must be between 2 and 16, got {self.bits}")

    @property
    def qmax(self) -> int:
        """Largest representable level."""
        return 2 ** (self.bits - 1) - 1

    @property
    def qmin(self) -> int:
        """Smallest representable level (symmetric)."""
        return -self.qmax

    @property
    def num_levels(self) -> int:
        """Number of representable levels."""
        return 2 * self.qmax + 1

    def clip(self, values: np.ndarray) -> np.ndarray:
        """Clip integer values into the representable range."""
        return np.clip(values, self.qmin, self.qmax)

    def step_size(self, max_abs: np.ndarray) -> np.ndarray:
        """Quantization step ``Δ = max|X| / qmax`` (Equation 1)."""
        max_abs = np.asarray(max_abs, dtype=np.float64)
        return np.where(max_abs > 0, max_abs / self.qmax, 1.0)


def quantize_tensor(
    weight: np.ndarray,
    grid: QuantizationGrid,
    per_channel: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Quantize a 2-D weight matrix onto ``grid``.

    Parameters
    ----------
    weight:
        Full-precision weight of shape ``(out_features, in_features)``.
    grid:
        Target integer grid.
    per_channel:
        When true (the default, matching weight quantization practice in
        SmoothQuant/AWQ/GPTQ) the step size is computed per output channel
        (per row); otherwise a single per-tensor step is used.

    Returns
    -------
    (weight_int, scale):
        ``weight_int`` — integer levels with the same shape as ``weight``;
        ``scale`` — per-row step sizes of shape ``(out_features, 1)`` (also
        for per-tensor mode, where every row shares the same value).
    """
    weight = np.asarray(weight, dtype=np.float64)
    if weight.ndim != 2:
        raise ValueError("quantize_tensor expects a 2-D weight matrix")
    if per_channel:
        max_abs = np.max(np.abs(weight), axis=1, keepdims=True)
    else:
        max_abs = np.full((weight.shape[0], 1), np.max(np.abs(weight)))
    scale = grid.step_size(max_abs)
    weight_int = grid.clip(np.round(weight / scale)).astype(np.int64)
    return weight_int, scale


def dequantize_tensor(weight_int: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Map integer levels back to real values: ``W ≈ W_q * Δ``."""
    return np.asarray(weight_int, dtype=np.float64) * np.asarray(scale, dtype=np.float64)


def _value_range(array: np.ndarray) -> Tuple[int, int]:
    """``(min, max)`` of an integer array (``(0, 0)`` when empty)."""
    if array.size == 0:
        return 0, 0
    return int(array.min()), int(array.max())


#: Value range of every live read-only weight array, scanned once per array:
#: a clone or key view of a validated layer checks its grid without a scan.
_weight_range = ReadOnlyArrayMemo(_value_range)


def _immutable_int64(array) -> np.ndarray:
    """``array`` as a read-only, C-contiguous int64 array nobody else writes.

    An int64, C-contiguous array that owns its data is frozen in place (no
    copy); an already read-only one is adopted as is (shared-memory views,
    another layer's weights).  A writable view, a non-contiguous array or
    another dtype is copied first, so no outside alias can write the result.
    """
    array = np.asarray(array)
    if not (
        array.dtype == np.int64
        and array.flags.c_contiguous
        and (array.flags.owndata or not array.flags.writeable)
    ):
        array = np.array(array, dtype=np.int64, order="C")
    array.flags.writeable = False
    return array


@dataclass
class QuantizedLinear:
    """One quantized linear ("quantization") layer.

    Attributes
    ----------
    name:
        Dotted name of the layer inside the model (e.g.
        ``"blocks.0.attn.q_proj"``).
    weight_int:
        Integer weight levels, shape ``(out_features, in_features)``: always
        a read-only int64 array.  Assigning a new array replaces it through
        the one validated path (shape- and grid-checked, then frozen); a
        replacement of another shape or with out-of-grid levels raises
        :class:`ValueError` and leaves the layer unchanged.
    scale:
        Per-output-channel step sizes, shape ``(out_features, 1)``.
    grid:
        The integer grid the levels live on.
    bias:
        Full-precision bias (biases are not quantized by any of the
        reproduced frameworks).
    input_smoothing:
        Optional per-input-channel factor ``s`` (shape ``(in_features,)``).
        The quantizer stored ``quantize(W * s)``; the mathematically
        equivalent full-precision operator is ``(W_q * Δ) / s`` applied to the
        *unscaled* input.  Used by SmoothQuant and AWQ.
    outlier_columns:
        Optional indices of input channels kept in full precision
        (LLM.int8() mixed-precision decomposition).
    outlier_weight:
        Full-precision weight values of the outlier columns, shape
        ``(out_features, len(outlier_columns))``.
    """

    name: str
    weight_int: np.ndarray
    scale: np.ndarray
    grid: QuantizationGrid
    bias: Optional[np.ndarray] = None
    input_smoothing: Optional[np.ndarray] = None
    outlier_columns: Optional[np.ndarray] = None
    outlier_weight: Optional[np.ndarray] = None
    _frozen: bool = field(default=False, init=False, repr=False, compare=False)

    def __setattr__(self, name: str, value) -> None:
        if name == "weight_int":
            if self.__dict__.get("_frozen"):
                # Frozen layers (e.g. zero-copy shared-memory views in
                # process-pool workers) are never edited, not even by
                # replacement: a missed clone() fails loudly, naming the layer.
                raise ValueError(
                    f"layer {self.name!r} holds read-only weights (a frozen/shared "
                    "view); clone the model before mutating it"
                )
            value = _immutable_int64(value)
            # During construction the grid is not set yet; __post_init__
            # checks the constructor's array once every field is in place.
            if "grid" in self.__dict__:
                if value.shape != self.weight_int.shape:
                    # scale, input_smoothing and outlier_weight are sized
                    # for the current shape; a reshaped layer is a new layer.
                    raise ValueError(
                        f"layer {self.name!r} holds weights of shape "
                        f"{self.weight_int.shape}; a replacement must keep it, "
                        f"got shape {value.shape}"
                    )
                self._check_grid(value)
        object.__setattr__(self, name, value)

    def __setstate__(self, state) -> None:
        # Pickle rebuilds arrays writable: restore the immutable weights (and
        # a frozen layer's read-only arrays) in the receiving process.
        self.__dict__.update(state)
        self.weight_int.flags.writeable = False
        if self._frozen:
            self.freeze()

    def __post_init__(self) -> None:
        self.scale = np.asarray(self.scale, dtype=np.float64)
        if self.weight_int.ndim != 2:
            raise ValueError("weight_int must be 2-D")
        if self.scale.shape != (self.weight_int.shape[0], 1):
            raise ValueError("scale must have shape (out_features, 1)")
        if self.input_smoothing is not None:
            self.input_smoothing = np.asarray(self.input_smoothing, dtype=np.float64)
            if self.input_smoothing.shape != (self.weight_int.shape[1],):
                raise ValueError("input_smoothing must have shape (in_features,)")
        if (self.outlier_columns is None) != (self.outlier_weight is None):
            raise ValueError("outlier_columns and outlier_weight must be given together")
        if self.outlier_columns is not None:
            self.outlier_columns = np.asarray(self.outlier_columns, dtype=np.int64)
            self.outlier_weight = np.asarray(self.outlier_weight, dtype=np.float64)
            if self.outlier_weight.shape != (
                self.weight_int.shape[0],
                self.outlier_columns.size,
            ):
                raise ValueError("outlier_weight shape must be (out_features, n_outliers)")
        self._check_grid(self.weight_int)

    def _check_grid(self, weight_int: np.ndarray) -> None:
        """Refuse levels outside the grid (one scan per read-only array)."""
        low, high = _weight_range(weight_int)
        if low < self.grid.qmin or high > self.grid.qmax:
            raise ValueError("weight_int contains values outside the quantization grid")

    # -- geometry ----------------------------------------------------------
    @property
    def out_features(self) -> int:
        """Number of output channels (rows)."""
        return int(self.weight_int.shape[0])

    @property
    def in_features(self) -> int:
        """Number of input channels (columns)."""
        return int(self.weight_int.shape[1])

    @property
    def num_weights(self) -> int:
        """Total number of quantized weight parameters in the layer."""
        return int(self.weight_int.size)

    # -- dequantization ------------------------------------------------------
    def dequantized(self) -> np.ndarray:
        """Dequantize the integer weights (without undoing input smoothing)."""
        return dequantize_tensor(self.weight_int, self.scale)

    def effective_weight(self) -> np.ndarray:
        """Full-precision weight equivalent to the quantized operator.

        Undoes the input smoothing (so the weight can be applied to the
        original, unscaled activations) and re-inserts the full-precision
        outlier columns of LLM.int8().
        """
        weight = self.dequantized()
        if self.input_smoothing is not None:
            weight = weight / self.input_smoothing[None, :]
        if self.outlier_columns is not None:
            weight = weight.copy()
            weight[:, self.outlier_columns] = self.outlier_weight
        return weight

    # -- editing (used by watermarking and attacks) --------------------------
    def saturated_mask(self) -> np.ndarray:
        """Boolean mask of weights already at the minimum or maximum level.

        EmMark excludes these positions from candidate selection: adding
        ``±1`` to a saturated level would either overflow the grid or require
        clipping that destroys the signature.
        """
        return (self.weight_int <= self.grid.qmin) | (self.weight_int >= self.grid.qmax)

    def quantized_mask(self) -> np.ndarray:
        """Boolean mask of positions that actually carry quantized values.

        Outlier columns of LLM.int8() stay in full precision, so they are not
        valid carriers for an integer-domain watermark.
        """
        mask = np.ones_like(self.weight_int, dtype=bool)
        if self.outlier_columns is not None:
            mask[:, self.outlier_columns] = False
        return mask

    def add_to_weights(self, flat_indices: np.ndarray, deltas: np.ndarray) -> None:
        """Add integer ``deltas`` at flattened positions, clipping to the grid.

        This is the single mutation primitive shared by watermark insertion
        and by the perturbation attacks, so grid-overflow handling is
        identical everywhere.  It is copy-on-write: the edited copy replaces
        ``weight_int``, so clones and keys sharing the old array keep it.
        """
        flat_indices = np.asarray(flat_indices, dtype=np.int64)
        deltas = np.asarray(deltas, dtype=np.int64)
        if flat_indices.shape != deltas.shape:
            raise ValueError("flat_indices and deltas must have the same shape")
        updated = self.weight_int.copy()
        flat = updated.reshape(-1)
        flat[flat_indices] = self.grid.clip(flat[flat_indices] + deltas)
        self.weight_int = updated

    def freeze(self) -> "QuantizedLinear":
        """Mark every array of the layer read-only (in place; returns self).

        Writes through any alias raise instead of silently corrupting shared
        state — the safety contract of the zero-copy shared-memory views the
        process-pool gauntlet hands its workers — and the layer refuses new
        weights, from :meth:`add_to_weights` or by assignment.  ``copy()`` of a frozen layer is not frozen: it
        shares the (always read-only) weights and holds writable copies of
        the other arrays, so the attack pipeline's clone-then-mutate pattern
        is unaffected.
        """
        self._frozen = True
        for array in (
            self.scale,
            self.bias,
            self.input_smoothing,
            self.outlier_columns,
            self.outlier_weight,
        ):
            if array is not None:
                array.flags.writeable = False
        return self

    def copy(self) -> "QuantizedLinear":
        """Copy of the layer that shares the immutable integer weights.

        The other arrays are copied: scale tampering and outlier rewriting
        edit them in place.
        """
        return QuantizedLinear(
            name=self.name,
            weight_int=self.weight_int,
            scale=self.scale.copy(),
            grid=self.grid,
            bias=None if self.bias is None else self.bias.copy(),
            input_smoothing=None
            if self.input_smoothing is None
            else self.input_smoothing.copy(),
            outlier_columns=None
            if self.outlier_columns is None
            else self.outlier_columns.copy(),
            outlier_weight=None if self.outlier_weight is None else self.outlier_weight.copy(),
        )


@dataclass
class QuantizedModel:
    """A quantized simulated LLM.

    Attributes
    ----------
    config:
        Architecture of the underlying model.
    layers:
        Mapping from linear-layer name to :class:`QuantizedLinear`, in the
        canonical order produced by
        :meth:`~repro.models.transformer.TransformerLM.named_linear_layers`.
    full_precision_state:
        State-dict entries of everything that is *not* a quantized linear
        weight (embeddings, norms, biases, LM head).
    method:
        Name of the quantization algorithm that produced the model.
    bits:
        Bit width of the quantized weights.
    base_seed:
        Initialisation seed of the original model (needed to rebuild an
        architecture-identical :class:`TransformerLM` when materializing).
    """

    config: ModelConfig
    layers: Dict[str, QuantizedLinear]
    full_precision_state: Dict[str, np.ndarray]
    method: str
    bits: int
    base_seed: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)
    _frozen: bool = field(default=False, init=False, repr=False, compare=False)

    def __setstate__(self, state) -> None:
        # The layers restore their own invariants; a frozen model also
        # re-freezes its full-precision state, which pickle made writable.
        self.__dict__.update(state)
        if self._frozen:
            self.freeze()

    # -- structure ------------------------------------------------------------
    def layer_names(self) -> List[str]:
        """Names of the quantized layers in canonical order."""
        return list(self.layers)

    @property
    def num_quantization_layers(self) -> int:
        """The paper's ``n``: number of quantized layers."""
        return len(self.layers)

    def iter_layers(self) -> Iterator[QuantizedLinear]:
        """Iterate over the quantized layers in canonical order."""
        return iter(self.layers.values())

    def get_layer(self, name: str) -> QuantizedLinear:
        """Look up a quantized layer by name."""
        try:
            return self.layers[name]
        except KeyError as exc:
            raise KeyError(
                f"no quantized layer named {name!r}; known layers: {self.layer_names()[:4]}..."
            ) from exc

    def total_quantized_weights(self) -> int:
        """Total number of integer weight parameters across all layers."""
        return sum(layer.num_weights for layer in self.iter_layers())

    # -- evaluation -------------------------------------------------------------
    def materialize(self) -> TransformerLM:
        """Build a full-precision model whose linears use the effective weights.

        The returned :class:`TransformerLM` computes exactly the function of
        the quantized model (dequantized weights, smoothing undone, outlier
        columns re-inserted) and can be fed to the shared evaluation harness.

        Layers recorded in ``metadata["pruned_rows"]`` (structured pruning:
        whole attention heads or MLP rows physically removed, so the integer
        tensor is narrower than the architecture) are scattered back into
        zero-filled matrices of the original shape — a removed output row
        contributes exactly nothing, which is the function a structurally
        pruned network computes.

        The model's state comes from ``full_precision_state`` and the layers
        alone, loaded strictly: a parameter neither provides raises
        :class:`KeyError` rather than keeping an arbitrary value.
        """
        state = {
            key: np.asarray(value, dtype=np.float64)
            for key, value in self.full_precision_state.items()
        }
        pruned_rows = self.metadata.get("pruned_rows") or {}
        for name, layer in self.layers.items():
            weight = layer.effective_weight()
            bias = layer.bias
            pruning = pruned_rows.get(name)
            if pruning is not None:
                kept = np.asarray(pruning["kept_rows"], dtype=np.int64)
                full_rows = int(pruning["out_features"])
                if kept.size != weight.shape[0]:
                    raise ValueError(
                        f"pruned_rows metadata for layer {name!r} keeps {kept.size} rows "
                        f"but the layer holds {weight.shape[0]}"
                    )
                scattered = np.zeros((full_rows, weight.shape[1]))
                scattered[kept] = weight
                weight = scattered
                if bias is not None:
                    full_bias = np.zeros(full_rows)
                    full_bias[kept] = bias
                    bias = full_bias
            state[f"{name}.weight"] = weight
            if bias is not None:
                state[f"{name}.bias"] = bias
        return TransformerLM.from_state(self.config, self.base_seed, state)

    def freeze(self) -> "QuantizedModel":
        """Mark every layer and state array read-only (in place; returns self).

        See :meth:`QuantizedLinear.freeze`; :meth:`clone` of a frozen model
        is not frozen.
        """
        self._frozen = True
        for layer in self.iter_layers():
            layer.freeze()
        for array in self.full_precision_state.values():
            array.flags.writeable = False
        return self

    # -- copying ---------------------------------------------------------------
    def clone(self) -> "QuantizedModel":
        """Independent copy (used before watermarking / attacking).

        The layers share their immutable integer weights with this model
        (see :meth:`QuantizedLinear.copy`); every other array is copied.
        """
        return QuantizedModel(
            config=self.config,
            layers={name: layer.copy() for name, layer in self.layers.items()},
            full_precision_state={
                key: value.copy() for key, value in self.full_precision_state.items()
            },
            method=self.method,
            bits=self.bits,
            base_seed=self.base_seed,
            metadata=dict(self.metadata),
        )

    def integer_weight_snapshot(self) -> Dict[str, np.ndarray]:
        """Every layer's integer weights, keyed by layer name.

        The arrays are the layers' own immutable ones, shared rather than
        copied: later edits replace a layer's array and leave the snapshot
        as it was.  Watermark keys store this snapshot as the reference
        ``W`` used during extraction (Equation 6: ``ΔW = W' − W``).
        """
        return {name: layer.weight_int for name, layer in self.layers.items()}

    def weight_difference(self, other: "QuantizedModel") -> Dict[str, np.ndarray]:
        """Element-wise integer difference ``self − other`` per layer."""
        if self.layer_names() != other.layer_names():
            raise ValueError("models have different layer sets; cannot diff")
        return {
            name: self.layers[name].weight_int - other.layers[name].weight_int
            for name in self.layers
        }
