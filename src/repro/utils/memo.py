"""Per-array memoization for read-only NumPy arrays.

A read-only array whose contents never change can carry derived values —
its value range, its content digest — that are computed once and then
looked up by identity.  :class:`ReadOnlyArrayMemo` keeps such values keyed
by ``id(array)`` with a weak reference to the array:

* only read-only arrays are memoized; a writable array is recomputed on
  every call, because it may have changed since the last one, and any
  entry left from a read-only spell of the same array is dropped;
* an entry is dropped when its array dies (weakref callback), so the table
  stays bounded by the live arrays and a reused id never aliases a stale
  entry.

No lock is taken: each table operation is a single dict call, and CPython
runs an array's weakref callbacks before its memory (and so its id) can be
reused.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Generic, Tuple, TypeVar

import numpy as np

__all__ = ["ReadOnlyArrayMemo"]

T = TypeVar("T")


class ReadOnlyArrayMemo(Generic[T]):
    """``compute(array)`` memoized per read-only array (see module docstring)."""

    def __init__(self, compute: Callable[[np.ndarray], T]) -> None:
        self._compute = compute
        self._entries: Dict[int, Tuple[weakref.ref, T]] = {}

    def __call__(self, array: np.ndarray) -> T:
        key = id(array)
        if array.flags.writeable:
            self._entries.pop(key, None)
            return self._compute(array)
        entry = self._entries.get(key)
        if entry is not None and entry[0]() is array:
            return entry[1]
        value = self._compute(array)
        ref = weakref.ref(array, lambda dead, key=key: self._forget(key, dead))
        self._entries[key] = (ref, value)
        return value

    def _forget(self, key: int, dead: weakref.ref) -> None:
        entry = self._entries.get(key)
        if entry is not None and entry[0] is dead:
            self._entries.pop(key, None)

    def __len__(self) -> int:
        return len(self._entries)
