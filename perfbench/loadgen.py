"""Open- and closed-loop request generators with bounded connections.

Every request is a plain callable that returns whether it succeeded; each
sender thread owns one client (one connection), so the generator never uses
more connections than senders.  In the open loop a request is due at its
scheduled time whether or not earlier requests have finished; its latency
is measured from that due time, so a stall that delays later sends shows in
their latency, and the generator's own lateness is reported separately.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence

import numpy as np

Sender = Callable[[object], bool]


@dataclass
class Outcome:
    index: int
    due: float
    sent: float
    done: float
    ok: bool

    @property
    def latency(self) -> float:
        """Seconds from when the request was due to when its reply arrived."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        return lateness(self.due, self.sent)


def lateness(due: float, sent: float) -> float:
    """How late the generator sent a request (never negative)."""
    return max(0.0, sent - due)


def poisson_schedule(rate: float, duration: float, rng: np.random.Generator) -> List[float]:
    """Seeded Poisson arrival offsets (seconds from the phase start) in ``[0, duration)``."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    offsets: List[float] = []
    t = float(rng.exponential(1.0 / rate))
    while t < duration:
        offsets.append(t)
        t += float(rng.exponential(1.0 / rate))
    return offsets


def run_open_loop(
    offsets: Sequence[float], items: Sequence[object], senders: Sequence[Sender]
) -> List[Outcome]:
    """Send ``items[i]`` at ``offsets[i]``, on whichever sender is free first."""
    if len(offsets) != len(items):
        raise ValueError("one item per scheduled arrival")
    start = time.perf_counter()
    outcomes: List[Outcome] = []
    lock = threading.Lock()
    next_index = [0]

    def worker(send: Sender) -> None:
        while True:
            with lock:
                i = next_index[0]
                if i >= len(items):
                    return
                next_index[0] = i + 1
            due = start + offsets[i]
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            ok = send(items[i])
            done = time.perf_counter()
            with lock:
                outcomes.append(Outcome(i, due, sent, done, ok))

    _run_threads(worker, [(send,) for send in senders])
    outcomes.sort(key=lambda o: o.index)
    return outcomes


def run_closed_loop(
    item_streams: Sequence[Iterator[object]], senders: Sequence[Sender], duration: float
) -> List[Outcome]:
    """Each sender sends its next item as soon as its previous reply arrives."""
    if len(item_streams) != len(senders):
        raise ValueError("one item stream per sender")
    deadline = time.perf_counter() + duration
    outcomes: List[Outcome] = []
    lock = threading.Lock()

    def worker(send: Sender, stream: Iterator[object]) -> None:
        while time.perf_counter() < deadline:
            item = next(stream)
            sent = time.perf_counter()
            ok = send(item)
            done = time.perf_counter()
            with lock:
                outcomes.append(Outcome(len(outcomes), sent, sent, done, ok))

    _run_threads(worker, list(zip(senders, item_streams)))
    return outcomes


def _run_threads(worker: Callable[..., None], arg_tuples: Sequence[tuple]) -> None:
    """Run ``worker(*args)`` on one thread per tuple; re-raise the first error."""
    errors: List[BaseException] = []

    def guarded(*args) -> None:
        try:
            worker(*args)
        except BaseException as exc:  # re-raised in the calling thread below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=a, daemon=True) for a in arg_tuples]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
