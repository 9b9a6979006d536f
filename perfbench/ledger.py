"""The per-layer ledger: what each traced stage cost, per unit of work.

A *unit* is one request (HTTP workloads) or one gauntlet cell (``sweep``).
Spans are grouped into units by time, a stage's cost in a unit is the sum
of its spans there, and the reported figure is the median over the units
the stage appears in, with that count.  HTTP requests that overlapped
another request are left out, because spans recorded in the server without
a request id cannot be told apart between them.

``PER_LAYER`` is the catalogue: each metric with its unit, which way is
better, the layer it measures, and the end-to-end metric and workload it
should move.  ``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from perfbench.spans import Span, Window, group_by_window, self_times, solo_windows
from perfbench.wrap import SWEEP_ATTACKS

# (name, unit, better, layer, should move)
PER_LAYER: List[Tuple[str, str, str, str, str]] = [
    ("codec.model_encode_ms", "ms", "lower", "service.client/service.codec encode",
     "latency_p25_ms on ingest (upload_verify); ~0 on verify-id"),
    ("codec.key_encode_ms", "ms", "lower", "service.client/service.codec encode",
     "register latency on ingest; ~0 on verify-id"),
    ("wire.model_bytes", "bytes", "lower", "service.codec wire payload",
     "upload_verify latency on ingest"),
    ("wire.key_bytes", "bytes", "lower", "service.codec wire payload",
     "register latency on ingest"),
    ("codec.model_decode_ms", "ms", "lower", "service.codec decode",
     "latency_p25_ms on ingest"),
    ("codec.key_decode_ms", "ms", "lower", "service.codec decode",
     "register latency on ingest"),
    ("http.residual_ms", "ms", "lower", "service.http (client latency - traced stages)",
     "latency_p25_ms on verify-id; upload_verify on ingest, scaled by bytes"),
    ("dispatch.admit_ms", "ms", "lower", "service.dispatch admission",
     "latency_p25_ms, throughput_per_s on verify-id"),
    ("dispatch.queue_ms", "ms", "lower", "service.dispatch batching queue",
     "latency_p25_ms, throughput_per_s on verify-id"),
    ("dispatch.mean_batch_size", "count", "higher", "service.dispatch",
     "throughput_per_s on verify-id"),
    ("dispatch.batches", "count", "lower", "service.dispatch",
     "throughput_per_s on verify-id"),
    ("registry.lookup_ms", "ms", "lower", "service.registry lookup",
     "small on verify-id"),
    ("registry.register_ms", "ms", "lower", "service.registry register",
     "register latency on ingest"),
    ("registry.key_loads", "count", "lower", "service.registry residency",
     "setup_s; latency on a cold registry"),
    ("engine.locate_ms", "ms", "lower", "engine reproduce_locations",
     "latency_p25_ms on verify-id (largest share); upload_verify on ingest; ~0 on sweep"),
    ("plan.fingerprint_ms", "ms", "lower", "engine.plan fingerprint",
     "latency_p25_ms on verify-id and ingest"),
    ("engine.plan_cache_hit_ratio", "ratio", "higher", "engine plan cache",
     "latency_p25_ms on verify-id"),
    ("engine.match_ms", "ms", "lower", "engine FleetVerificationSession.verify (self)",
     "all workloads; small everywhere"),
    ("engine.insert_ms", "ms", "lower", "engine insert",
     "insert latency on ingest; throughput_per_s on sweep via rewatermark"),
    ("engine.plan_ms", "ms", "lower", "engine plan_for_layer (summed over layers)",
     "insert latency on ingest; throughput_per_s on sweep"),
    ("scoring.select_ms", "ms", "lower", "core.scoring select_candidates (summed over layers)",
     "insert latency on ingest; throughput_per_s on sweep"),
    ("audit.record_ms", "ms", "lower", "service.audit record",
     "latency_p25_ms on verify-id"),
    ("audit.dropped_writes", "count", "lower", "service.audit", "error_rate"),
    ("model.clone_ms", "ms", "lower", "quant.base QuantizedModel.clone",
     "throughput_per_s on sweep; insert latency on ingest"),
    *[
        (f"attack.{name}_ms", "ms", "lower", "robustness.attacks apply",
         "throughput_per_s on sweep; nothing elsewhere")
        for name in SWEEP_ATTACKS
    ],
    ("gauntlet.verify_ms", "ms", "lower", "robustness.gauntlet verification per cell",
     "throughput_per_s on sweep"),
    ("gauntlet.overhead_ms", "ms", "lower", "robustness.gauntlet (cell - traced stages)",
     "throughput_per_s on sweep"),
    ("quality.evaluate_ms", "ms", "lower", "eval EvaluationHarness.evaluate (traced only)",
     "none this round; quality is off in sweep"),
    ("loadgen.lag_ms", "ms", "lower", "benchmark open-loop generator (p90 lateness)",
     "must stay ~0 for verify-id latency to be valid"),
    ("trace.coverage", "ratio", "higher", "ledger: summed stage medians / their requests' median",
     "(check) ~1"),
    ("trace.traced_share", "ratio", "higher", "ledger: same, without the residual stage",
     "(check) share the wrappers explain"),
    ("trace.overhead_pct", "%", "lower", "traced vs untraced latency_p25_ms",
     "(check) tracing cost"),
]

PER_LAYER_NAMES = [row[0] for row in PER_LAYER]

# Server and client stages on the verify path that do not nest in one another.
VERIFY_TOP = ("codec.model_encode", "codec.model_decode", "registry.lookup", "dispatch.admit",
              "dispatch.queue", "engine.verify_fleet", "audit.record")
VERIFY_STAGES = VERIFY_TOP + ("engine.locate", "plan.fingerprint", "engine.match")
# Stages summed for coverage: the verify path without the batch wrapper,
# whose inside is reported as locate + match.
VERIFY_COVERAGE = ("codec.model_encode", "codec.model_decode", "registry.lookup",
                   "dispatch.admit", "dispatch.queue", "engine.locate", "engine.match",
                   "audit.record")
REGISTER_STAGES = ("codec.key_encode", "codec.key_decode", "registry.register")
INSERT_STAGES = ("engine.insert", "engine.plan", "scoring.select", "model.clone")
SELF_TIMED = ("engine.match",)


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def stage_median(
    per_unit: Mapping[str, Mapping[str, float]], stage: str
) -> Tuple[float, int]:
    """Median (ms) of ``stage`` over the units it appears in, and that count."""
    values = [u[stage] for u in per_unit.values() if stage in u]
    if not values:
        return 0.0, 0
    return _ms(statistics.median(values)), len(values)


def _windows(spans: Iterable[Span], name: str, since: float, until: float) -> List[Window]:
    return [
        Window(f"{name}#{s.sid}", s.start, s.end)
        for s in spans
        if s.name == name and s.start >= since and s.end <= until
    ]


def _group(
    windows: Sequence[Window],
    stores: Sequence[Tuple[List[Span], Dict[int, float]]],
    names: Sequence[str],
) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {w.key: {} for w in windows}
    for spans, self_time in stores:
        for key, stages in group_by_window(windows, spans, names, self_time, SELF_TIMED).items():
            merged[key].update(stages)
    return merged


class Ledger:
    """Per-layer metric values with their sample counts."""

    def __init__(self) -> None:
        self.values: Dict[str, float] = {name: 0.0 for name in PER_LAYER_NAMES}
        self.counts: Dict[str, int] = {name: 0 for name in PER_LAYER_NAMES}

    def set(self, name: str, value: float, n: int = 1) -> None:
        if name not in self.values:
            raise KeyError(f"unknown per-layer metric {name!r}")
        self.values[name] = float(value)
        self.counts[name] = int(n)

    def set_stage(self, per_unit: Mapping[str, Mapping[str, float]], stage: str) -> None:
        """Record ``<stage>_ms`` as the stage's median over units."""
        self.set(stage + "_ms", *stage_median(per_unit, stage))

    def metrics(self) -> Dict[str, Dict[str, object]]:
        units = {row[0]: row[1] for row in PER_LAYER}
        return {name: {"value": self.values[name], "unit": units[name]}
                for name in PER_LAYER_NAMES}

    def table(self) -> List[str]:
        rows = []
        for name, unit, _better, layer, moves in PER_LAYER:
            rows.append(f"  {name:<30} {self.values[name]:>12.4f} {unit:<6} "
                        f"n={self.counts[name]:<6} {layer}  -> {moves}")
        return rows


def counter_delta(before: Mapping, after: Mapping) -> Dict[str, float]:
    """Server counters moved between two ``/v1/stats`` snapshots."""

    def moved(section: str, counter: str) -> float:
        return after[section][counter] - before[section][counter]

    d = {
        "plan_hits": moved("plan_cache", "hits"),
        "plan_misses": moved("plan_cache", "misses"),
        "batches": moved("dispatcher", "batches"),
        "jobs": moved("dispatcher", "jobs_dispatched"),
        "key_loads": moved("registry", "key_loads"),
        "dropped_writes": moved("audit", "dropped_writes"),
    }
    lookups = d["plan_hits"] + d["plan_misses"]
    d["plan_hit_ratio"] = d["plan_hits"] / lookups if lookups else 0.0
    d["mean_batch_size"] = d["jobs"] / d["batches"] if d["batches"] else 0.0
    return d


def apply_counters(ledger: Ledger, delta: Mapping[str, float]) -> None:
    ledger.set("dispatch.mean_batch_size", delta["mean_batch_size"], delta["batches"])
    ledger.set("dispatch.batches", delta["batches"])
    ledger.set("registry.key_loads", delta["key_loads"])
    ledger.set("engine.plan_cache_hit_ratio", delta["plan_hit_ratio"],
               delta["plan_hits"] + delta["plan_misses"])
    ledger.set("audit.dropped_writes", delta["dropped_writes"])


def http_ledger(
    client_spans: List[Span],
    client_values: Mapping[str, List[float]],
    server_spans: List[Span],
    since: float,
    until: float,
) -> Ledger:
    """Per-layer figures of an HTTP workload's traced phase ``[since, until]``.

    The verify-path stages are summarized over one-key verifications (the
    owner checks of ``verify-id``, the upload checks of ``ingest``) that were
    alone in flight; coverage compares their summed stage medians with the
    median latency of those same requests.
    """
    ledger = Ledger()
    stores = [(client_spans, self_times(client_spans)), (server_spans, self_times(server_spans))]

    verify = solo_windows(_windows(client_spans, "client.verify", since, until))
    per_verify = _group(verify, stores, VERIFY_STAGES)
    for w in verify:
        stages = per_verify[w.key]
        stages["http.residual"] = w.duration - sum(stages.get(s, 0.0) for s in VERIFY_TOP)
    for stage in ("codec.model_encode", "codec.model_decode", "registry.lookup",
                  "dispatch.admit", "dispatch.queue", "engine.locate", "plan.fingerprint",
                  "engine.match", "audit.record", "http.residual"):
        ledger.set_stage(per_verify, stage)

    register = solo_windows(_windows(client_spans, "client.register", since, until))
    per_register = _group(register, stores, REGISTER_STAGES)
    for stage in REGISTER_STAGES:
        ledger.set_stage(per_register, stage)

    inserts = _windows(client_spans, "engine.insert", since, until)
    per_insert = _group(inserts, stores[:1], INSERT_STAGES)
    for stage in INSERT_STAGES:
        ledger.set_stage(per_insert, stage)

    for metric in ("wire.model_bytes", "wire.key_bytes"):
        sizes = client_values.get(metric, [])
        if sizes:
            ledger.set(metric, statistics.median(sizes), len(sizes))

    if verify:
        e2e_ms = _ms(statistics.median(w.duration for w in verify))
        traced = sum(stage_median(per_verify, s)[0] for s in VERIFY_COVERAGE)
        residual = stage_median(per_verify, "http.residual")[0]
        ledger.set("trace.traced_share", traced / e2e_ms, len(verify))
        ledger.set("trace.coverage", (traced + residual) / e2e_ms, len(verify))
    return ledger


def sweep_ledger(spans: List[Span], cells: Sequence[Window]) -> Ledger:
    """Per-layer figures of the traced gauntlet passes; ``cells`` are the cell windows."""
    ledger = Ledger()
    attack_names = tuple(f"attack.{name}" for name in SWEEP_ATTACKS)
    names = attack_names + ("engine.match", "engine.verify_once", "engine.locate",
                            "plan.fingerprint", "model.clone", "engine.insert",
                            "engine.plan", "scoring.select")
    self_time = self_times(spans)
    per_cell = group_by_window(cells, spans, names)
    per_cell_self = group_by_window(cells, spans, ("engine.match",), self_time, SELF_TIMED)
    for name in SWEEP_ATTACKS:
        ledger.set_stage(per_cell, f"attack.{name}")
    for stage in ("engine.locate", "plan.fingerprint", "model.clone", "engine.insert",
                  "engine.plan", "scoring.select"):
        ledger.set_stage(per_cell, stage)
    ledger.set_stage(per_cell_self, "engine.match")

    verify: Dict[str, Dict[str, float]] = {}
    overhead: Dict[str, Dict[str, float]] = {}
    for w in cells:
        stages = per_cell[w.key]
        spent = stages.get("engine.match", 0.0) + stages.get("engine.verify_once", 0.0)
        verify[w.key] = {"v": spent}
        attacked = sum(stages.get(a, 0.0) for a in attack_names)
        overhead[w.key] = {"o": w.duration - spent - attacked}
    ledger.set("gauntlet.verify_ms", *stage_median(verify, "v"))
    ledger.set("gauntlet.overhead_ms", *stage_median(overhead, "o"))
    total = sum(w.duration for w in cells)
    if total > 0:
        share = 1.0 - sum(o["o"] for o in overhead.values()) / total
        ledger.set("trace.traced_share", share, len(cells))
        ledger.set("trace.coverage", share, len(cells))
    evaluations = [s.duration for s in spans if s.name == "quality.evaluate"]
    if evaluations:
        ledger.set("quality.evaluate_ms", _ms(statistics.median(evaluations)), len(evaluations))
    return ledger
