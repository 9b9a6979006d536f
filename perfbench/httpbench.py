"""The HTTP workloads, ``verify-id`` and ``ingest``, against a ``repro serve`` process.

Shared set-up: four owners insert EmMark watermarks into the RTN-8 base
with distinct secret seeds; the server (disk registry, audit log, default
``ServiceConfig``) receives their keys and six stored suspects (each
owner's deployment, the clean base, an overwrite-attacked copy), and one
all-key verification per suspect warms the plans.  ``setup_s`` is the time
from launching the server process to the end of that warm-up.
"""

from __future__ import annotations

import http.client
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from perfbench import fixtures
from perfbench.fixtures import Base, rng_for
from perfbench.loadgen import Outcome, poisson_schedule, run_closed_loop, run_open_loop
from perfbench.oracle import check_response, reference_decisions
from perfbench.serverproc import ServerProcess
from repro.engine import WatermarkEngine
from repro.service.client import ServiceError, VerificationClient

#: Open-loop arrival rate of ``verify-id`` (requests/s), fixed so that later
#: commits are compared at one load.  On the commit that defined the
#: benchmark (2-core x86 host) the closed loop sustains ~120 req/s; above
#: ~45 req/s the two sender connections themselves start to queue (p90
#: generator lateness > 5 ms), so the rate sits at a third of capacity.
OPEN_LOOP_RPS = 25.0
#: Share of the measured time spent in the open-loop phases (rest: closed loop).
OPEN_SHARE = 0.6
#: Rounds of (open loop, closed loop), so both phases sample the whole run.
#: Each open loop sends ~120 requests in a 25 s run; latencies and block
#: rates are pooled over the rounds.
BLOCKS = 3
#: Sender threads, each with its own connection (at most ``nproc``).
SENDERS = max(1, min(2, os.cpu_count() or 1))
#: One all-key attribution sweep per this many requests; the rest are
#: one-key owner checks.
SWEEP_EVERY = 4
#: ``ingest`` reads the server's peak RSS after this many enrollments, a
#: fixed count, because the registry keeps every key it was given.
INGEST_RSS_AFTER = 12
#: Replies per block when the closed loop's rate is taken block by block
#: (~0.25 s at ~125 req/s, ~35 blocks in a 25 s run).
RATE_BLOCK = 32
#: Enrollments per block for ``ingest``'s rate: each enrollment is its own
#: block (~0.35 s, ~60 blocks in a 25 s run).
INGEST_RATE_BLOCK = 1

REQUEST_ERRORS = (ServiceError, OSError, http.client.HTTPException, ValueError)


@dataclass
class Request:
    suspect: str
    key_ids: Optional[List[str]]  # None: every registered key (attribution sweep)


@dataclass
class Fleet:
    """Client-side inputs: owners, keys, stored suspects, reference verdicts."""

    base: Base
    owner_seeds: List[int]
    keys: Dict[str, object]
    suspects: Dict[str, object]
    expected: Dict[Tuple[str, str], Dict[str, object]]

    @property
    def key_ids(self) -> List[str]:
        return list(self.keys)


def build_fleet(seed: int) -> Fleet:
    base = fixtures.build_base()
    owner_seeds = fixtures.distinct_seeds(rng_for(seed, "owners"), fixtures.NUM_OWNERS)
    engine = WatermarkEngine()
    keys: Dict[str, object] = {}
    suspects: Dict[str, object] = {}
    for i, d in enumerate(owner_seeds):
        model, key = fixtures.insert_owner(engine, base, d)
        keys[key.fingerprint()] = key
        suspects[f"deploy-{i}"] = model
    suspects["clean-base"] = base.quantized
    attacker_seed = int(rng_for(seed, "attacker").integers(2**31))
    suspects["overwrite-0"] = fixtures.overwrite_copy(suspects["deploy-0"], attacker_seed)
    engine.close()
    oracle_engine = WatermarkEngine()
    expected = reference_decisions(oracle_engine, suspects, keys)
    oracle_engine.close()
    return Fleet(base, owner_seeds, keys, suspects, expected)


def start_server(fleet: Fleet, workdir: Path, spans_path: Optional[Path] = None
                 ) -> Tuple[ServerProcess, float]:
    """Launch a server, load keys and suspects, warm it; return it and the time taken."""
    started = time.perf_counter()
    server = ServerProcess(workdir, spans_path)
    port = server.start()
    try:
        with VerificationClient(port=port, timeout=60) as client:
            for i, (key_id, key) in enumerate(fleet.keys.items()):
                record = client.register_key(key, owner=f"owner-{i}")
                if record["key_id"] != key_id:
                    raise RuntimeError(f"registry id {record['key_id']} != key {key_id}")
            for name, model in fleet.suspects.items():
                client.upload_suspect(model, suspect_id=name)
            for name in fleet.suspects:
                problems = check_response(client.verify(suspect_id=name), fleet.expected,
                                          name, fleet.key_ids)
                if problems:
                    raise RuntimeError(f"warm-up verdict mismatch: {problems[:3]}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


@dataclass
class Failures:
    """Failed requests with the first few reasons (for the report)."""

    count: int = 0
    reasons: List[str] = field(default_factory=list)

    def add(self, reason: str) -> None:
        self.count += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def request_mix(fleet: Fleet, rng, count: int) -> List[Request]:
    """``count`` requests: a fixed share of attribution sweeps in seeded order."""
    sweeps = count // SWEEP_EVERY
    kinds = rng.permutation([True] * sweeps + [False] * (count - sweeps))
    names = list(fleet.suspects)
    requests = []
    for sweep in kinds:
        suspect = names[int(rng.integers(len(names)))]
        if sweep:
            requests.append(Request(suspect, None))
        else:
            requests.append(Request(suspect, [fleet.key_ids[int(rng.integers(len(fleet.keys)))]]))
    return requests


def mix_stream(fleet: Fleet, rng) -> Iterator[Request]:
    while True:
        yield from request_mix(fleet, rng, 4 * SWEEP_EVERY)


def make_sender(client: VerificationClient, fleet: Fleet, failures: Failures):
    def send(request: Request) -> bool:
        try:
            response = client.verify(suspect_id=request.suspect, key_ids=request.key_ids)
        except REQUEST_ERRORS as exc:
            failures.add(f"{type(exc).__name__}: {exc}")
            return False
        problems = check_response(response, fleet.expected, request.suspect,
                                  request.key_ids or fleet.key_ids)
        if problems:
            failures.add("; ".join(problems[:3]))
            return False
        return True

    return send


@dataclass
class Phase:
    name: str
    outcomes: List[Outcome]
    seconds: float

    @property
    def sent(self) -> int:
        return len(self.outcomes)

    @property
    def succeeded(self) -> int:
        return sum(o.ok for o in self.outcomes)

    def summary(self) -> str:
        return (f"phase {self.name}: sent={self.sent} succeeded={self.succeeded} "
                f"failed={self.sent - self.succeeded} over {self.seconds:.2f}s")


def measure_verify_id(port: int, fleet: Fleet, seed: int, seconds: float,
                      failures: Failures) -> List[Tuple[Phase, Phase]]:
    """``BLOCKS`` rounds of an open loop at ``OPEN_LOOP_RPS`` followed by a
    closed loop on ``SENDERS`` connections; returns each round's two phases."""
    open_s = seconds * OPEN_SHARE / BLOCKS
    closed_s = seconds * (1.0 - OPEN_SHARE) / BLOCKS
    clients = [VerificationClient(port=port, timeout=30) for _ in range(SENDERS)]
    streams = [mix_stream(fleet, rng_for(seed, f"closed-mix-{i}")) for i in range(SENDERS)]
    rounds = []
    try:
        senders = [make_sender(c, fleet, failures) for c in clients]
        for b in range(BLOCKS):
            offsets = poisson_schedule(OPEN_LOOP_RPS, open_s, rng_for(seed, f"arrivals-{b}"))
            items = request_mix(fleet, rng_for(seed, f"open-mix-{b}"), len(offsets))
            open_phase = Phase("open-loop", run_open_loop(offsets, items, senders), open_s)
            started = time.perf_counter()
            closed = run_closed_loop(streams, senders, closed_s)
            rounds.append((open_phase,
                           Phase("closed-loop", closed, time.perf_counter() - started)))
    finally:
        for c in clients:
            c.close()
    return rounds


@dataclass
class Enrollment:
    insert_s: float
    register_s: float
    upload_verify_s: float
    ok: bool
    #: ``time.perf_counter()`` when the enrollment and its checks were done.
    done: float


def measure_ingest(server: ServerProcess, fleet: Fleet, seed: int, seconds: float,
                   failures: Failures) -> Tuple[List[Enrollment], float, float]:
    """Enroll new owners until ``seconds`` pass (and at least ``INGEST_RSS_AFTER``).

    Returns the enrollments, the server's peak RSS after ``INGEST_RSS_AFTER``
    of them, and the elapsed time.
    """
    engine = WatermarkEngine()
    oracle_engine = WatermarkEngine()
    seeds_rng = rng_for(seed, "enrollees")
    used = set(fleet.owner_seeds)
    enrollments: List[Enrollment] = []
    rss_mb = 0.0
    started = time.perf_counter()
    deadline = started + seconds
    with VerificationClient(port=server.port, timeout=60) as client:
        while len(enrollments) < INGEST_RSS_AFTER or time.perf_counter() < deadline:
            d = fixtures.distinct_seeds(seeds_rng, 1, used)[0]
            used.add(d)
            t0 = time.perf_counter()
            model, key = fixtures.insert_owner(engine, fleet.base, d)
            insert_s = time.perf_counter() - t0
            key_id = key.fingerprint()
            ok = False
            t1 = t2 = t3 = time.perf_counter()
            try:
                record = client.register_key(key, owner=f"enrollee-{len(enrollments)}")
                t2 = time.perf_counter()
                response = client.verify(model=model, key_ids=[key_id])
                t3 = time.perf_counter()
            except REQUEST_ERRORS as exc:
                failures.add(f"{type(exc).__name__}: {exc}")
            else:
                expected = reference_decisions(oracle_engine, {"enrollee": model}, {key_id: key})
                problems = check_response(response, expected, "enrollee", [key_id])
                if record["key_id"] != key_id:
                    problems.append(f"registered as {record['key_id']}, expected {key_id}")
                if problems:
                    failures.add("; ".join(problems[:3]))
                ok = not problems
            enrollments.append(Enrollment(insert_s, t2 - t1, t3 - t2, ok,
                                          time.perf_counter()))
            if len(enrollments) == INGEST_RSS_AFTER:
                rss_mb = server.peak_rss_mb()
    elapsed = time.perf_counter() - started
    engine.close()
    oracle_engine.close()
    return enrollments, rss_mb, elapsed
