"""Shared-memory model residency for multi-process execution.

The process-pool gauntlet (``mode="process"``) needs every worker to see the
subject models without paying a per-worker copy: a grid over a fleet of
subjects would otherwise multiply the resident weights by the worker count
before a single attack runs.  (Owner keys need no such treatment: workers
receive their few-KB verification tickets by pickle.)  This module publishes
the bulk arrays **once** into one ``multiprocessing.shared_memory`` block and
ships only
picklable *handles* (block name + an ``{array name: (offset, dtype, shape)}``
manifest plus scalar metadata); each worker re-materializes read-only,
zero-copy numpy views over the same physical pages.

Three layers:

* :class:`SharedArena` — the owning side.  Arrays are staged by name,
  :meth:`~SharedArena.seal` copies them into a single 64-byte-aligned block,
  and :meth:`~SharedArena.close` unlinks it **exactly once** (context-manager
  friendly; an atexit sweep catches arenas leaked by a crashed run, and the
  unique ``repro_shm_`` name prefix makes stale segments detectable).
* :class:`ArenaHandle` / :class:`ArenaView` — the worker side.  The handle
  is a frozen, picklable description; :meth:`ArenaHandle.attach` maps the
  block in the worker and hands out read-only views (attachers never unlink;
  see :func:`_attach` for the resource-tracker story).
* :func:`share_model` and :class:`SharedModelHandle` — the domain
  flattening: a :class:`~repro.quant.base.QuantizedModel` becomes a set of
  prefixed arena arrays plus a small metadata dict, and restores as a frozen
  (read-only weights) model whose arrays alias the shared block.

Nothing here is gauntlet-specific: any future remote/multi-host cell
executor can reuse the same handle protocol with a different transport.
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.models.config import ModelConfig
from repro.quant.base import QuantizationGrid, QuantizedLinear, QuantizedModel

__all__ = [
    "SHM_NAME_PREFIX",
    "SharedArena",
    "ArenaHandle",
    "ArenaView",
    "SharedModelHandle",
    "share_model",
]

#: Prefix of every arena's shared-memory segment name.  On Linux the segment
#: appears as ``/dev/shm/<name>``, so leak checks can simply glob for it.
SHM_NAME_PREFIX = "repro_shm_"

_ALIGNMENT = 64

# Owner-side registry of live segments, swept at interpreter exit so a run
# that dies between seal() and close() (e.g. a crashed worker propagating
# BrokenProcessPool past a missing try/finally) cannot leak /dev/shm blocks.
_LIVE_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}
_LIVE_LOCK = threading.Lock()


def _sweep_live_segments() -> None:
    with _LIVE_LOCK:
        leaked = list(_LIVE_SEGMENTS.items())
        _LIVE_SEGMENTS.clear()
    for _name, shm in leaked:
        try:
            shm.close()
            shm.unlink()
        except OSError:
            pass  # already gone — unlink is at-most-once by definition


atexit.register(_sweep_live_segments)


def _reset_after_fork() -> None:
    """Fork hygiene for the owner-side registry (REP007).

    The child gets a fresh lock (the parent's could be forked mid-acquire)
    and an empty registry: segments belong to the creating process — a
    worker must never unlink what the parent still serves, neither in its
    atexit sweep nor via a close() on an inherited handle.
    """
    global _LIVE_LOCK
    _LIVE_LOCK = threading.Lock()
    _LIVE_SEGMENTS.clear()


os.register_at_fork(after_in_child=_reset_after_fork)


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment.

    Attaching registers the name with the resource tracker on Python < 3.13,
    which is infamous for making *independent* attaching processes unlink a
    segment they never owned.  Here every attacher is a pool worker sharing
    the owner's tracker daemon (both ``fork`` and ``spawn`` children inherit
    the tracker fd), where the tracker keeps one name *set* per resource
    type: the extra registration is a no-op, and explicitly unregistering
    would strip the owner's entry — breaking both its tracked unlink and the
    crash-time safety net — so a plain attach is the correct behaviour.
    """
    return shared_memory.SharedMemory(name=name)


#: Manifest entry: (byte offset, numpy dtype string, shape).
ManifestEntry = Tuple[int, str, Tuple[int, ...]]


class ArenaView:
    """Read-only, zero-copy access to a (possibly attached) arena block.

    Every :meth:`array` call returns a numpy view directly over the shared
    pages with ``writeable=False`` — restoring a model from a view costs no
    array copies and accidental writes raise instead of corrupting every
    process at once.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        manifest: Mapping[str, ManifestEntry],
        owns_attachment: bool,
    ) -> None:
        self._shm = shm
        self._manifest = dict(manifest)
        self._owns_attachment = owns_attachment

    def array(self, name: str) -> np.ndarray:
        """The named array as a read-only view over the shared block."""
        try:
            offset, dtype, shape = self._manifest[name]
        except KeyError as exc:
            raise KeyError(
                f"arena has no array named {name!r}; "
                f"known: {list(self._manifest)[:4]}..."
            ) from exc
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=offset)
        view.flags.writeable = False
        return view

    def close(self) -> None:
        """Drop this process's mapping (never unlinks — that is the owner's)."""
        if self._owns_attachment and self._shm is not None:
            self._shm.close()
            self._shm = None  # type: ignore[assignment]


@dataclass(frozen=True)
class ArenaHandle:
    """Picklable description of a sealed arena: segment name + manifest.

    This is the only thing that crosses the process boundary; workers call
    :meth:`attach` to map the same physical pages.
    """

    shm_name: str
    manifest: Tuple[Tuple[str, ManifestEntry], ...]

    def attach(self) -> ArenaView:
        """Map the shared block in this process (read-only views)."""
        return ArenaView(
            _attach(self.shm_name), dict(self.manifest), owns_attachment=True
        )


class SharedArena:
    """Owner of one shared-memory block holding many named arrays.

    Usage::

        with SharedArena() as arena:
            model_handle = share_model(arena, model, "subject/awq")
            handle = arena.seal()          # copies staged arrays into shm
            ...  # run workers with (handle, model_handle)
        # __exit__ → close(): the block is unlinked exactly once

    ``close()`` is idempotent and also runs from the module's atexit sweep,
    so even an owner that crashes after seal() leaves no stale segment.
    """

    def __init__(self) -> None:
        self._staged: "Optional[Dict[str, np.ndarray]]" = {}
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._manifest: Dict[str, ManifestEntry] = {}
        self._name = SHM_NAME_PREFIX + f"{os.getpid():x}_{secrets.token_hex(6)}"

    @property
    def name(self) -> str:
        """Segment name (``/dev/shm/<name>`` on Linux once sealed)."""
        return self._name

    def stage(self, name: str, array: np.ndarray) -> None:
        """Register ``array`` for publication under ``name`` (pre-seal only)."""
        if self._staged is None:
            raise RuntimeError("arena is already sealed; stage arrays before seal()")
        if name in self._staged:
            raise ValueError(f"array name {name!r} staged twice")
        self._staged[name] = np.ascontiguousarray(array)

    def seal(self) -> ArenaHandle:
        """Copy every staged array into one shared block and return its handle."""
        if self._staged is None:
            raise RuntimeError("arena is already sealed")
        staged, self._staged = self._staged, None
        offset = 0
        layout: Dict[str, Tuple[int, np.ndarray]] = {}
        for name, array in staged.items():
            offset = (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
            layout[name] = (offset, array)
            offset += array.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(1, offset), name=self._name)
        with _LIVE_LOCK:
            _LIVE_SEGMENTS[self._name] = shm
        self._shm = shm
        for name, (start, array) in layout.items():
            self._manifest[name] = (start, array.dtype.str, tuple(array.shape))
            dest = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf, offset=start)
            dest[...] = array
        return self.handle()

    def handle(self) -> ArenaHandle:
        """The picklable :class:`ArenaHandle` of the sealed block."""
        if self._shm is None:
            raise RuntimeError("arena is not sealed (or already closed)")
        return ArenaHandle(shm_name=self._name, manifest=tuple(self._manifest.items()))

    def view(self) -> ArenaView:
        """Owner-side view (no extra attachment; close() stays the owner's)."""
        if self._shm is None:
            raise RuntimeError("arena is not sealed (or already closed)")
        return ArenaView(self._shm, self._manifest, owns_attachment=False)

    def close(self) -> None:
        """Unmap and unlink the block — exactly once, no matter who calls."""
        with _LIVE_LOCK:
            shm = _LIVE_SEGMENTS.pop(self._name, None)
        self._shm = None
        self._staged = None
        if shm is not None:
            try:
                shm.close()
                shm.unlink()
            except OSError:  # pragma: no cover - segment externally removed
                pass

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# Domain flattening: QuantizedModel <-> arena arrays
# ----------------------------------------------------------------------
_LAYER_OPTIONAL_FIELDS = ("bias", "input_smoothing", "outlier_columns", "outlier_weight")


@dataclass(frozen=True)
class SharedModelHandle:
    """Picklable recipe for rebuilding one :class:`QuantizedModel` from an arena.

    Bulk arrays live in the arena under ``<prefix>/...``; everything scalar
    (architecture config, per-layer grid bits, quantization metadata) rides
    in the handle itself.  :meth:`restore` is zero-copy: every array of the
    restored model is a read-only view over the shared block.
    """

    prefix: str
    config: ModelConfig
    method: str
    bits: int
    base_seed: int
    metadata: Tuple[Tuple[str, object], ...]
    layer_specs: Tuple[Tuple[str, int, Tuple[str, ...]], ...]  # (name, grid bits, optional fields)
    state_keys: Tuple[str, ...]

    def restore(self, view: ArenaView) -> QuantizedModel:
        """Rebuild the model as read-only views over ``view``'s block."""
        layers: Dict[str, QuantizedLinear] = {}
        for name, grid_bits, present in self.layer_specs:
            base = f"{self.prefix}/layer/{name}"
            optional = {field: view.array(f"{base}/{field}") for field in present}
            layers[name] = QuantizedLinear(
                name=name,
                weight_int=view.array(f"{base}/weight_int"),
                scale=view.array(f"{base}/scale"),
                grid=QuantizationGrid(grid_bits),
                **optional,
            )
        state = {
            key: view.array(f"{self.prefix}/state/{key}") for key in self.state_keys
        }
        # Every array above is already a read-only arena view; freeze() is an
        # idempotent belt-and-braces pass that keeps the invariant explicit.
        return QuantizedModel(
            config=self.config,
            layers=layers,
            full_precision_state=state,
            method=self.method,
            bits=self.bits,
            base_seed=self.base_seed,
            metadata=dict(self.metadata),
        ).freeze()


def share_model(arena: SharedArena, model: QuantizedModel, prefix: str) -> SharedModelHandle:
    """Stage ``model``'s arrays into ``arena`` and return the restore handle.

    The canonical dtypes (int64 weights, float64 scales — exactly what
    :class:`QuantizedLinear` normalizes to) are staged as-is, so the
    worker-side ``__post_init__`` re-normalization is a no-op view pass-through
    rather than a hidden copy.
    """
    layer_specs = []
    for name, layer in model.layers.items():
        base = f"{prefix}/layer/{name}"
        arena.stage(f"{base}/weight_int", layer.weight_int)
        arena.stage(f"{base}/scale", layer.scale)
        present = []
        for field in _LAYER_OPTIONAL_FIELDS:
            value = getattr(layer, field)
            if value is not None:
                arena.stage(f"{base}/{field}", value)
                present.append(field)
        layer_specs.append((name, layer.grid.bits, tuple(present)))
    for key, value in model.full_precision_state.items():
        arena.stage(f"{prefix}/state/{key}", value)
    return SharedModelHandle(
        prefix=prefix,
        config=model.config,
        method=model.method,
        bits=model.bits,
        base_seed=model.base_seed,
        metadata=tuple(model.metadata.items()),
        layer_specs=tuple(layer_specs),
        state_keys=tuple(model.full_precision_state),
    )
