"""In-memory span store for the traced run, and the arithmetic on its spans.

A span is one timed call at a layer boundary: its name, start and end on
the host-wide monotonic clock (``time.perf_counter``, so spans recorded in
the server process line up with the client's), the span that was open on
the same thread when it started (its parent), and the request id when the
call's arguments carry one.  Spans stay in memory until the run ends and
are then written out as JSON.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Spans kept per process; later spans are counted as dropped.
DEFAULT_LIMIT = 400_000


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    request_id: Optional[str] = None
    tid: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class OpenSpan:
    """Handle of a span still running; its name and request id may be set late."""

    __slots__ = ("sid", "name", "request_id")

    def __init__(self, sid: int, name: str, request_id: Optional[str]) -> None:
        self.sid = sid
        self.name = name
        self.request_id = request_id


class SpanStore:
    """Append-only span list with per-thread parent tracking.

    Spans are kept as plain tuples (``list.append`` is atomic, so recording
    takes no lock) and turned into :class:`Span` objects when read.
    """

    def __init__(self, limit: int = DEFAULT_LIMIT) -> None:
        self.limit = int(limit)
        self.dropped = 0
        self._spans: List[tuple] = []
        #: Plain measurements that are not spans (payload sizes), by name.
        self.values: Dict[str, List[float]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, record: tuple) -> None:
        if len(self._spans) < self.limit:
            self._spans.append(record)
        else:
            self.dropped += 1

    def timed_call(self, name: str, fn, args: tuple, kwargs: dict,
                   request_id: Optional[str] = None, on_result=None):
        """Call ``fn(*args, **kwargs)`` as one span, child of the thread's open span.

        ``on_result(handle, args, kwargs, result)`` may rename the span or set
        its request id from the result.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        handle = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if on_result is not None:
                handle = OpenSpan(sid, name, request_id)
                on_result(handle, args, kwargs, result)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if handle is not None:
                name, request_id = handle.name, handle.request_id
            self._append((sid, name, start, end, parent, request_id, threading.get_ident()))

    def add(
        self,
        name: str,
        start: float,
        end: float,
        request_id: Optional[str] = None,
        parent: Optional[int] = None,
    ) -> int:
        """Record a span measured elsewhere (e.g. a queue wait reported back)."""
        sid = next(self._ids)
        self._append((sid, name, start, end, parent, request_id, threading.get_ident()))
        return sid

    def record(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def spans(self) -> List[Span]:
        return [Span(*record) for record in list(self._spans)]

    def dump(self, path: os.PathLike) -> None:
        """Write every span as JSON (atomically, via a temporary file)."""
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        values = {name: list(v) for name, v in list(self.values.items())}
        payload = {"pid": os.getpid(), "dropped": self.dropped, "values": values,
                   "spans": [asdict(s) for s in self.spans()]}
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)


def load_spans(path: os.PathLike) -> Tuple[List[Span], Dict[str, List[float]]]:
    """Read the spans and values written by :meth:`SpanStore.dump`."""
    payload = json.loads(Path(path).read_text())
    return [Span(**record) for record in payload["spans"]], payload.get("values", {})


def covered(interval: Tuple[float, float], others: Iterable[Tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``others`` covers."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in others if b > lo and a < hi)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Only spans from one process may be passed: parents are looked up by
    ``sid``, which is unique per process.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered((s.start, s.end), children.get(s.sid, ()))
        for s in spans
    }


@dataclass
class Window:
    """One unit of work (a request, a cell) that spans are grouped under."""

    key: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def solo_windows(windows: Sequence[Window]) -> List[Window]:
    """The windows that overlap no other window.

    Spans recorded without a request id (in another process, or on a pool
    thread) can only be attributed by time; that is unambiguous only for a
    request that was alone in flight.
    """
    ordered = sorted(windows, key=lambda w: w.start)
    solo = []
    latest_end = float("-inf")  # an earlier window may outlast its successor
    for i, w in enumerate(ordered):
        clear_after = i + 1 == len(ordered) or ordered[i + 1].start >= w.end
        if latest_end <= w.start and clear_after:
            solo.append(w)
        latest_end = max(latest_end, w.end)
    return solo


def group_by_window(
    windows: Sequence[Window],
    spans: Iterable[Span],
    names: Iterable[str],
    self_time: Optional[Dict[int, float]] = None,
    self_names: Iterable[str] = (),
) -> Dict[str, Dict[str, float]]:
    """Sum, per window, the time of each named span lying inside it.

    ``windows`` must not overlap one another.  A span belongs to the window
    containing its whole interval.  Spans named in ``self_names`` contribute
    their self time (from ``self_time``) instead of their duration.
    """
    wanted = set(names)
    self_names = set(self_names)
    ordered = sorted(windows, key=lambda w: w.start)
    starts = [w.start for w in ordered]
    totals: Dict[str, Dict[str, float]] = {w.key: {} for w in ordered}
    for s in spans:
        if s.name not in wanted:
            continue
        i = bisect.bisect_right(starts, s.start) - 1
        if i < 0:
            continue
        w = ordered[i]
        if s.end > w.end:
            continue
        value = self_time[s.sid] if (s.name in self_names and self_time) else s.duration
        bucket = totals[w.key]
        bucket[s.name] = bucket.get(s.name, 0.0) + value
    return totals
