"""Sharded-fleet benchmark: shard scaling, decision identity, registry scale.

Three claims ride in one report (``BENCH_fleet.json``):

1. **Shard scaling** — verify throughput of a 1-, 2- and 4-shard fleet
   (consistent-hash placement, client-side routing, per-shard latency
   percentiles).  The 4-vs-1 speedup is gated at ≥ 1.5× by
   ``compare_bench.py`` in measured mode on ≥ 4-core hosts only; shards run
   in one process (per-shard dispatcher threads), so single-core smoke
   timings are not a fair scaling measurement.
2. **Decision bit-identity** — every suspect verified through the fleet
   router (any shard count) must produce decisions bit-identical to a
   single unsharded :class:`VerificationServer` over the same keys; the
   occupancy-audit digest must likewise be invariant to the shard count.
   Both are digest-gated unconditionally.
3. **Registry scale-up** — a registry re-opened over ×100 and ×1000
   synthetic persisted keys must index records only: zero NPZ loads and
   zero resident tickets at startup, and the first touch of a key derives
   its ticket from exactly one key load (both gated unconditionally at
   ×1000); touch latencies and ticket vs key bytes are measured afterwards.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import shutil
import tempfile
import time
from functools import lru_cache
from pathlib import Path
from typing import Dict, List

from repro.core.config import EmMarkConfig
from repro.data.wikitext import build_wikitext_sim
from repro.engine import EngineConfig, WatermarkEngine
from repro.models.activations import collect_activation_stats
from repro.models.config import ModelConfig
from repro.models.transformer import TransformerLM
from repro.quant.api import quantize_model
from repro.service import (
    FleetClient,
    FleetConfig,
    KeyRegistry,
    LoadConfig,
    RequestTemplate,
    ServiceConfig,
    VerificationClient,
    VerificationServer,
    launch_fleet,
    run_in_background,
    run_load,
)

SHARD_COUNTS = [1, 2, 4]
CONCURRENCY = 8


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _results_dir() -> Path:
    override = os.environ.get("REPRO_BENCH_RESULTS")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "results"


# ----------------------------------------------------------------------
# Substrate: several independent model families so the ring has keys to
# spread — one family per (name, seed), each carrying one watermark.
# ----------------------------------------------------------------------
@lru_cache(maxsize=1)
def _build_families():
    num_families = 4 if _smoke() else 8
    dataset = build_wikitext_sim(
        vocab_size=128,
        train_tokens=4_000,
        validation_tokens=1_000,
        calibration_tokens=1_000,
        seed=99,
    )
    families = []
    for index in range(num_families):
        config = ModelConfig(
            name=f"fleet-bench-{index}",
            vocab_size=128,
            d_model=48,
            n_layers=2,
            n_heads=2,
            d_ff=96,
            max_seq_len=32,
            norm_type="layernorm",
            activation="relu",
            family="opt",
            virtual_params_billions=0.125,
        )
        model = TransformerLM(config, seed=index)
        activations = collect_activation_stats(model, dataset.calibration)
        quantized = quantize_model(model, "awq", bits=4, activations=activations)
        emmark = EmMarkConfig.scaled_for_model(quantized, bits_per_layer=8)
        watermarked, key, _ = WatermarkEngine(EngineConfig()).insert(
            quantized, activations, config=emmark
        )
        families.append((watermarked, key))
    return families


def _decision_digest(responses: List[Dict[str, object]]) -> str:
    """Order-independent digest over every (suspect, key) decision tuple."""
    rows = []
    for response in responses:
        for decision in response["decisions"]:
            rows.append(
                {
                    "suspect_id": response["suspect_id"],
                    "key_id": decision["key_id"],
                    "matched_bits": decision["matched_bits"],
                    "total_bits": decision["total_bits"],
                    "owned": decision["owned"],
                    "wer_percent": decision["wer_percent"],
                }
            )
    rows.sort(key=lambda row: (row["suspect_id"], row["key_id"]))
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return "dec-" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]


def _measure_fleet(families, num_shards: int, total_requests: int):
    """One fleet at ``num_shards``: identity digests through the router,
    then a client-side-routed load burst with per-shard breakdown."""
    with launch_fleet(FleetConfig(num_shards=num_shards, max_wait_ms=1.0)) as fleet:
        # Register + upload THROUGH the router: it derives every placement
        # itself (and learns suspect ids), so the identity pass also proves
        # the router's routing.  The returned shard labels seed the
        # client-side templates — FleetClient's ring must agree with them.
        fleet_client = FleetClient(fleet.addresses)
        router_client = VerificationClient(port=fleet.port)
        templates = []
        for index, (watermarked, key) in enumerate(families):
            record = router_client.register_key(key, owner=f"owner-{index}")
            uploaded = router_client.upload_suspect(watermarked, suspect_id=f"sus-{index}")
            assert uploaded["shard"] == record["shard"]
            shard_index = fleet.labels.index(uploaded["shard"])
            assert fleet_client.shard_for(key.model_fingerprint()) == shard_index
            # Scoped to the suspect's own key: every request costs the same
            # (suspect, key) sweep at every shard count — otherwise an
            # unscoped verify against a 1-shard registry checks all N keys
            # while a 4-shard one checks its local subset, and both the
            # decision digest and the speedup would measure topology, not
            # routing.
            templates.append(
                RequestTemplate(
                    f"sus-{index}",
                    key_ids=(key.fingerprint(),),
                    label=f"sus-{index}",
                    shard=shard_index,
                )
            )
        fleet_client.close()

        # Identity pass through the ROUTER: placement decisions included.
        responses = [
            router_client.verify(suspect_id=f"sus-{index}", key_ids=[key.fingerprint()])
            for index, (_, key) in enumerate(families)
        ]
        audit_digest = router_client._request("GET", "/v1/fleet/audit")["audit"]["digest"]
        router_client.close()

        # Warm-up, then the measured burst, client-side routed (no router hop).
        run_load(
            LoadConfig(
                fleet=fleet.addresses,
                concurrency=CONCURRENCY,
                total_requests=max(len(templates) * 2, 16),
                templates=templates,
                collect_decisions=False,
            )
        )
        report = run_load(
            LoadConfig(
                fleet=fleet.addresses,
                concurrency=CONCURRENCY,
                total_requests=total_requests,
                templates=templates,
                collect_decisions=False,
            )
        )
    assert report.completed == total_requests and report.failed == 0
    assert sum(report.throughput_timeseries) == report.completed
    spread = {label: sum(series) for label, series in report.shard_timeseries.items()}
    assert sum(spread.values()) == report.completed
    return _decision_digest(responses), audit_digest, report


def _synthetic_keys(base_key, count: int):
    """``count`` distinct synthetic keys: the same bulk arrays under new
    model names, so each gets its own fingerprint pair without paying an
    engine insertion per key."""
    keys = []
    for index in range(count):
        keys.append(dataclasses.replace(base_key, model_name=f"synth-{index:04d}"))
    return keys


def _measure_registry_scale(base_key, count: int) -> Dict[str, object]:
    root = Path(tempfile.mkdtemp(prefix=f"fleet-registry-x{count}-"))
    engine = WatermarkEngine(EngineConfig())
    try:
        writer = KeyRegistry(root, engine=engine)
        persist_started = time.perf_counter()
        key_ids = [
            writer.register(key, owner=f"owner-{i}").key_id
            for i, key in enumerate(_synthetic_keys(base_key, count))
        ]
        persist_seconds = time.perf_counter() - persist_started
        assert len(set(key_ids)) == count

        # The claim under test: re-opening over N persisted keys indexes
        # records only — no NPZ archive is read until a key is asked for.
        reopen_started = time.perf_counter()
        registry = KeyRegistry(root, engine=engine)
        startup_seconds = time.perf_counter() - reopen_started
        stats = registry.stats()
        cold_key_loads = stats["key_loads"]
        cold_tickets = stats["tickets"]
        assert stats["keys"] == count

        # Lazy path: the first touch loads one archive (mmap) and derives the
        # key's ticket; the second touch is served by the resident ticket.
        first_touch_started = time.perf_counter()
        ticket = registry.active_keys([key_ids[0]])[key_ids[0]]
        first_touch_ms = (time.perf_counter() - first_touch_started) * 1000.0
        first_touch_key_loads = registry.stats()["key_loads"] - cold_key_loads
        resident_touch_started = time.perf_counter()
        registry.active_keys([key_ids[0]])
        resident_touch_ms = (time.perf_counter() - resident_touch_started) * 1000.0
        assert registry.stats()["key_loads"] == cold_key_loads + first_touch_key_loads

        # Every touched key keeps exactly one ticket resident, loaded once.
        sample = key_ids if count <= 100 else key_ids[:100]
        registry.active_keys(sample)
        after = registry.stats()
        assert after["tickets"] == len(sample)
        assert after["key_loads"] == cold_key_loads + len(sample)
        return {
            "keys": count,
            "persist_seconds": persist_seconds,
            "startup_seconds": startup_seconds,
            "cold_start_key_loads": cold_key_loads,
            "cold_start_tickets": cold_tickets,
            "first_touch_key_loads": first_touch_key_loads,
            "first_touch_ms": first_touch_ms,
            "resident_touch_ms": resident_touch_ms,
            "tickets_after_sweep": after["tickets"],
            "ticket_bytes": sum(
                array.nbytes
                for layer in ticket.layers
                for array in (layer.locations, layer.reference, layer.signature)
            ),
            "key_bytes": sum(array.nbytes for array in base_key.to_payload()[1].values()),
        }
    finally:
        engine.close()
        shutil.rmtree(root, ignore_errors=True)


def test_service_fleet():
    smoke = _smoke()
    total_requests = 48 if smoke else 240
    families = _build_families()

    # -- the unsharded baseline: one plain VerificationServer --------------
    server = VerificationServer(
        engine=WatermarkEngine(EngineConfig()),
        config=ServiceConfig(port=0, max_wait_ms=1.0),
    )
    with run_in_background(server) as handle:
        with VerificationClient(port=handle.port) as client:
            for index, (watermarked, key) in enumerate(families):
                client.register_key(key, owner=f"owner-{index}")
                client.upload_suspect(watermarked, suspect_id=f"sus-{index}")
            # Same scoped requests as the fleet pass (see _measure_fleet).
            single_responses = [
                client.verify(suspect_id=f"sus-{index}", key_ids=[key.fingerprint()])
                for index, (_, key) in enumerate(families)
            ]
    digest_single = _decision_digest(single_responses)

    # -- fleets at every shard count ---------------------------------------
    shard_levels: Dict[str, Dict[str, object]] = {}
    decision_digests: Dict[str, str] = {}
    audit_digests: Dict[str, str] = {}
    for num_shards in SHARD_COUNTS:
        digest, audit_digest, report = _measure_fleet(families, num_shards, total_requests)
        decision_digests[str(num_shards)] = digest
        audit_digests[str(num_shards)] = audit_digest
        shard_levels[str(num_shards)] = report.to_dict()

    speedup = (
        shard_levels["4"]["throughput_rps"] / shard_levels["1"]["throughput_rps"]
        if shard_levels["1"]["throughput_rps"]
        else 0.0
    )
    digests_equal = all(d == digest_single for d in decision_digests.values())
    audits_equal = len(set(audit_digests.values())) == 1

    # -- registry scale-up --------------------------------------------------
    base_key = families[0][1]
    registry_scale = {
        "x100": _measure_registry_scale(base_key, 100),
        "x1000": _measure_registry_scale(base_key, 1000),
    }

    payload: Dict[str, object] = {
        "benchmark": "service_fleet",
        "smoke": smoke,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "fleet": {
            "model_families": len(families),
            "keys": len(families),
            "suspects": len(families),
            "concurrency": CONCURRENCY,
            "requests_per_level": total_requests,
        },
        "shard_counts": SHARD_COUNTS,
        "shard_levels": shard_levels,
        "speedup_4_vs_1": speedup,
        "decision_digest_single": digest_single,
        "decision_digests_by_shards": decision_digests,
        "decision_digests_equal": digests_equal,
        "audit_digests_by_shards": audit_digests,
        "audit_digests_equal": audits_equal,
        "registry_scale": registry_scale,
        "registry_cold_start_key_loads_x1000": registry_scale["x1000"]["cold_start_key_loads"],
        "registry_cold_start_tickets_x1000": registry_scale["x1000"]["cold_start_tickets"],
        "registry_first_touch_key_loads_x1000": registry_scale["x1000"]["first_touch_key_loads"],
    }
    results_dir = _results_dir()
    results_dir.mkdir(parents=True, exist_ok=True)
    out_path = results_dir / "BENCH_fleet.json"
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n{json.dumps(payload, indent=2, sort_keys=True)}\n[written to {out_path}]")

    # Structural guarantees (always); the timing gates live in
    # compare_bench.py and apply in measured mode on >= 4 cores.
    assert digests_equal, "fleet decisions diverged from the unsharded server"
    assert audits_equal, "occupancy-audit digest changed with the shard count"
    assert payload["registry_cold_start_key_loads_x1000"] == 0
    assert payload["registry_cold_start_tickets_x1000"] == 0
    assert payload["registry_first_touch_key_loads_x1000"] == 1
    for level, result in shard_levels.items():
        assert result["throughput_rps"] > 0, f"no throughput at {level} shard(s)"
