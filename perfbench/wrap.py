"""Timing wrappers installed around the program's public functions.

Only the traced run installs them; the end-to-end runs execute the program
untouched.  Each wrapper records one span per call into a
:class:`~perfbench.spans.SpanStore`.  Functions that other modules import by
name (the codec, the scoring kernel, the plan fingerprint) are wrapped where
they are looked up, so the program's own call sites go through the wrapper.
"""

from __future__ import annotations

import functools
from typing import Callable, List, Optional, Tuple

from perfbench.spans import SpanStore

#: Attacks of the ``sweep`` workload; each gets an ``attack.<name>`` span.
SWEEP_ATTACKS = (
    "overwrite",
    "rewatermark",
    "pruning",
    "requantize",
    "scale-tamper",
    "structured-prune",
)

RequestIdOf = Callable[[tuple, dict], Optional[str]]
OnResult = Callable[[object, tuple, dict, object], None]


class Installed:
    """The wrappers put in place; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        store: SpanStore,
        owner: object,
        attr: str,
        name: str,
        request_id: Optional[RequestIdOf] = None,
        on_result: Optional[OnResult] = None,
    ) -> None:
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            rid = request_id(args, kwargs) if request_id is not None else None
            return store.timed_call(name, original, args, kwargs, rid, on_result)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _wire_bytes(store: SpanStore, metric: str) -> OnResult:
    def record(_handle, _args, _kwargs, wire) -> None:
        store.record(metric, len(wire["arrays"]))

    return record


def _verify_response(handle, _args, _kwargs, response) -> None:
    """Tag a verify span with the server's request id; all-key sweeps get their
    own name so one-key checks can be summarized apart from them."""
    handle.request_id = response.get("request_id")
    if len(response.get("decisions", ())) != 1:
        handle.name = "client.verify_all"


def install_engine(store: SpanStore) -> Installed:
    """Verification-path engine spans (any process): locate, fingerprint, match."""
    import repro.engine.engine as engine_mod
    from repro.engine.engine import FleetVerificationSession, WatermarkEngine

    inst = Installed()
    inst.wrap(store, engine_mod, "plan_fingerprint", "plan.fingerprint")
    inst.wrap(store, WatermarkEngine, "reproduce_locations", "engine.locate")
    inst.wrap(store, WatermarkEngine, "verify_fleet", "engine.verify_fleet")
    inst.wrap(store, FleetVerificationSession, "verify", "engine.match")
    inst.wrap(store, FleetVerificationSession, "verify_once", "engine.verify_once")
    return inst


def _install_insert(store: SpanStore, inst: Installed) -> None:
    """Insertion-path spans: insert, per-layer planning, scoring, model copies.

    Not installed in the server, which never inserts: a warm locate calls
    ``plan_for_layer`` once per layer, and every extra wrapper on that path
    adds interpreter-lock hand-offs between the engine's pool threads.
    """
    import repro.engine.engine as engine_mod
    from repro.engine.engine import WatermarkEngine
    from repro.quant.base import QuantizedModel

    inst.wrap(store, WatermarkEngine, "insert", "engine.insert")
    inst.wrap(store, WatermarkEngine, "plan_for_layer", "engine.plan")
    inst.wrap(store, engine_mod, "select_candidates", "scoring.select")
    inst.wrap(store, QuantizedModel, "clone", "model.clone")


def install_client(store: SpanStore) -> Installed:
    """Client-side spans: request encode, whole requests, and the engine."""
    import repro.service.client as client_mod
    from repro.service.client import VerificationClient

    inst = install_engine(store)
    _install_insert(store, inst)
    inst.wrap(store, client_mod, "model_to_wire", "codec.model_encode",
              on_result=_wire_bytes(store, "wire.model_bytes"))
    inst.wrap(store, client_mod, "key_to_wire", "codec.key_encode",
              on_result=_wire_bytes(store, "wire.key_bytes"))
    inst.wrap(store, VerificationClient, "verify", "client.verify",
              on_result=_verify_response)
    inst.wrap(store, VerificationClient, "register_key", "client.register")
    return inst


def install_server(store: SpanStore) -> Installed:
    """Server-side spans: decode, registry, admission, queue, engine, audit."""
    import repro.service.server as server_mod
    from repro.service.audit import AuditLog
    from repro.service.dispatch import MicroBatchDispatcher, TokenBucket
    from repro.service.registry import KeyRegistry

    def job_request_id(args, _kwargs):
        return args[1].request_id

    def queue_span(_handle, args, _kwargs, future) -> None:
        job = args[1]

        def done(fut) -> None:
            if fut.cancelled() or fut.exception() is not None:
                return
            outcome = fut.result()
            store.add("dispatch.queue", job.enqueued_at,
                      job.enqueued_at + outcome.queue_seconds, job.request_id)

        future.add_done_callback(done)

    inst = install_engine(store)
    inst.wrap(store, server_mod, "model_from_wire", "codec.model_decode")
    inst.wrap(store, server_mod, "key_from_wire", "codec.key_decode")
    inst.wrap(store, KeyRegistry, "active_keys", "registry.lookup")
    inst.wrap(store, KeyRegistry, "register", "registry.register")
    inst.wrap(store, TokenBucket, "try_acquire", "dispatch.admit")
    inst.wrap(store, MicroBatchDispatcher, "submit", "dispatch.admit",
              request_id=job_request_id, on_result=queue_span)
    inst.wrap(store, AuditLog, "record", "audit.record",
              request_id=lambda _args, kwargs: kwargs.get("request_id"))
    return inst


def install_sweep(store: SpanStore) -> Installed:
    """Gauntlet spans: the run, each attack, quality evaluation, the engine."""
    from repro.eval.harness import EvaluationHarness
    from repro.robustness import ATTACK_REGISTRY, Gauntlet

    inst = install_engine(store)
    _install_insert(store, inst)
    inst.wrap(store, Gauntlet, "run", "gauntlet.run")
    for name in SWEEP_ATTACKS:
        inst.wrap(store, ATTACK_REGISTRY[name], "apply", f"attack.{name}")
    inst.wrap(store, EvaluationHarness, "evaluate", "quality.evaluate")
    return inst
