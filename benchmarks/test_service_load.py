"""Verification-service load benchmark — emits ``BENCH_service.json``.

Measures the serving stack end to end (HTTP + admission + micro-batching +
engine) the way ``llm-load-test`` measures LLM inference servers:

* closed-loop load at ≥ 2 concurrency levels, reporting throughput and
  p50/p95/p99 latency,
* cold vs. warm verification throughput (each cold run is a brand-new server
  over the persisted registry — a restart, so no verification ticket is
  resident and the first requests derive them from the keys on disk; the
  warm runs reuse that server once every ticket is resident),
* a correctness gate: every ownership decision returned under concurrent
  mixed hit/miss load must be **bit-identical** to a direct
  ``WatermarkEngine.verify_fleet`` call on the same suspects and keys.

The fleet is intentionally non-trivial: three registered keys (one owner key
plus two unrelated keys with different secret seeds ``d``) and two suspects
(a watermarked deployment and a clean one), so every request sweeps 3 keys
and the hit/miss mix exercises both verdict paths.

Run modes
---------
``pytest benchmarks/test_service_load.py``
    Full measurement (more requests, best-of repeats).
``REPRO_BENCH_SMOKE=1 pytest benchmarks/test_service_load.py``
    Short structural run used by CI.

The JSON lands in ``benchmarks/results/BENCH_service.json`` (override the
directory with ``REPRO_BENCH_RESULTS``).
"""

from __future__ import annotations

import functools
import json
import os
import platform
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from repro.core.config import EmMarkConfig
from repro.data.wikitext import build_wikitext_sim
from repro.engine import EngineConfig, WatermarkEngine
from repro.models.activations import collect_activation_stats
from repro.models.config import ModelConfig
from repro.models.training import TrainingConfig, train_language_model
from repro.models.transformer import TransformerLM
from repro.quant.api import quantize_model
from repro.service import (
    LoadConfig,
    RequestTemplate,
    ServiceConfig,
    VerificationClient,
    VerificationServer,
    run_in_background,
    run_load,
)
from repro.service.registry import KeyRegistry

CONCURRENCY_LEVELS = [2, 8]


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _results_dir() -> Path:
    override = os.environ.get("REPRO_BENCH_RESULTS")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "results"


# ----------------------------------------------------------------------
# Fixture fleet: one model family, three keys, hit + miss suspects
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def _build_fleet():
    dataset = build_wikitext_sim(
        vocab_size=128,
        train_tokens=12_000,
        validation_tokens=3_000,
        calibration_tokens=2_000,
        seed=99,
    )
    model_config = ModelConfig(
        name="bench-serve-opt",
        vocab_size=128,
        d_model=64,
        n_layers=4,
        n_heads=4,
        d_ff=512,
        max_seq_len=32,
        norm_type="layernorm",
        activation="relu",
        family="opt",
        virtual_params_billions=0.35,
    )
    model = TransformerLM(model_config, seed=0)
    steps = 20 if _smoke() else 120
    train_language_model(
        model,
        dataset.train,
        TrainingConfig(steps=steps, batch_size=8, sequence_length=25, learning_rate=1e-2, seed=0),
    )
    activations = collect_activation_stats(model, dataset.calibration)
    quantized = quantize_model(model, "awq", bits=4, activations=activations)
    base_config = EmMarkConfig.scaled_for_model(quantized, bits_per_layer=8)
    insert_engine = WatermarkEngine(EngineConfig())
    keys = {}
    watermarked = None
    # Three independent owners: distinct secret seeds `d` give every key its
    # own location plans, so a cold sweep has 3 × num_layers plans to score.
    for index, seed_offset in enumerate((0, 7, 13)):
        config = base_config.with_overrides(
            seed=base_config.seed + seed_offset, signature_seed=index + 1
        )
        wm, key, _ = insert_engine.insert(quantized, activations, config=config)
        keys[key.fingerprint()] = key
        if index == 0:
            watermarked = wm  # the deployment carrying owner 0's watermark
    return quantized, watermarked, keys


def _start_server(registry_root, watermarked, clean):
    """Fresh server over the persisted registry (no tickets resident yet, an
    empty plan cache) with the suspects uploaded."""
    engine = WatermarkEngine(EngineConfig())
    server = VerificationServer(
        engine=engine,
        registry=KeyRegistry(registry_root, engine=engine),
        config=ServiceConfig(port=0, max_wait_ms=1.0, max_batch=32),
    )
    handle = run_in_background(server)
    with VerificationClient(port=handle.port) as client:
        client.upload_suspect(watermarked, suspect_id="hit")
        client.upload_suspect(clean, suspect_id="miss")
    return handle


def _mixed_templates():
    return [
        RequestTemplate("hit", label="hit"),
        RequestTemplate("miss", label="miss"),
    ]


def _burst(port: int, concurrency: int, total_requests: int, collect: bool = False):
    return run_load(
        LoadConfig(
            port=port,
            concurrency=concurrency,
            total_requests=total_requests,
            templates=_mixed_templates(),
            collect_decisions=collect,
        )
    )


def test_service_load():
    smoke = _smoke()
    repeats = 1 if smoke else 4
    requests_cold = 16
    requests_level = 24 if smoke else 120
    clean, watermarked, keys = _build_fleet()

    # -- reference verdicts: the direct library path -----------------------
    direct = WatermarkEngine(EngineConfig()).verify_fleet(
        {"hit": watermarked, "miss": clean}, keys
    )
    direct_by_pair = {(p.suspect_id, p.key_id): p for p in direct.pairs}
    assert sum(pair.owned for pair in direct.pairs) == 1  # only (hit, owner-0)

    # -- cold vs. warm throughput (same request count, same concurrency) ---
    cold_concurrency = CONCURRENCY_LEVELS[0]
    cold_best = 0.0
    warm_best = 0.0
    handle = None
    registry_root = Path(tempfile.mkdtemp(prefix="bench-service-registry-"))
    try:
        writer = KeyRegistry(registry_root)
        for key_id, key in keys.items():
            writer.register(key, owner=f"owner-{key_id[-6:]}")
        # One cold and one warm sample per fresh server, so both sides of the
        # warm > cold gate are a best-of over the same number of runs.
        for _ in range(repeats):
            if handle is not None:
                handle.close()
            handle = _start_server(registry_root, watermarked, clean)  # a restart
            cold = _burst(handle.port, cold_concurrency, requests_cold)
            assert cold.completed == requests_cold and cold.errors == 0
            cold_best = max(cold_best, cold.throughput_rps)
            warm = _burst(handle.port, cold_concurrency, requests_cold)
            assert warm.completed == requests_cold and warm.errors == 0
            warm_best = max(warm_best, warm.throughput_rps)

        # -- concurrency sweep on the warm server --------------------------
        levels: Dict[str, Dict[str, object]] = {}
        all_decisions: List[dict] = []
        for concurrency in CONCURRENCY_LEVELS:
            report = _burst(handle.port, concurrency, requests_level, collect=True)
            assert report.completed == requests_level
            assert report.errors == 0
            assert report.failed == 0
            assert report.throughput_rps > 0
            # Ramp behavior rides into BENCH_service.json: the per-second
            # time-series accounts for every completed request.
            assert sum(report.throughput_timeseries) == report.completed
            all_decisions.extend(report.decisions)
            levels[str(concurrency)] = report.to_dict()

        with VerificationClient(port=handle.port) as client:
            stats = client.stats()
    finally:
        if handle is not None:
            handle.close()
        shutil.rmtree(registry_root, ignore_errors=True)

    # -- correctness gate: batched serving ≡ direct verify_fleet -----------
    assert all_decisions, "sweep collected no decisions"
    for record in all_decisions:
        for decision in record["decisions"]:
            reference = direct_by_pair[(record["suspect_id"], decision["key_id"])]
            assert decision["matched_bits"] == reference.matched_bits
            assert decision["total_bits"] == reference.total_bits
            assert decision["owned"] == reference.owned
            assert decision["wer_percent"] == reference.wer_percent

    payload: Dict[str, object] = {
        "benchmark": "service_load",
        "smoke": smoke,
        "platform": platform.platform(),
        "fleet": {
            "model": "bench-serve-opt",
            "num_keys": len(keys),
            "num_suspects": 2,
            "num_layers": clean.num_quantization_layers,
            "pairs_per_request": len(keys),
        },
        "requests_per_level": requests_level,
        "cold_requests": requests_cold,
        "repeats": repeats,
        "throughput_rps_cold": cold_best,
        "throughput_rps_warm": warm_best,
        "warm_over_cold_speedup": (warm_best / cold_best) if cold_best else 0.0,
        "concurrency_levels": levels,
        "server_stats": {
            "dispatcher": stats["dispatcher"],
            "plan_cache": stats["plan_cache"],
            "registry": stats["registry"],
            "server": stats["server"],
        },
        "decisions_checked_against_direct_verify_fleet": sum(
            len(record["decisions"]) for record in all_decisions
        ),
    }
    results_dir = _results_dir()
    results_dir.mkdir(parents=True, exist_ok=True)
    out_path = results_dir / "BENCH_service.json"
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n{json.dumps(payload, indent=2, sort_keys=True)}\n[written to {out_path}]")

    # Structural guarantees (always).
    assert payload["throughput_rps_cold"] > 0
    assert payload["throughput_rps_warm"] > 0
    assert stats["dispatcher"]["batches"] >= 1
    # The last server's cold burst derived each key's ticket from exactly one
    # key load; every later request read the resident tickets.
    assert stats["registry"]["tickets"] == len(keys)
    assert stats["registry"]["key_loads"] == len(keys)
    if not smoke:
        # The acceptance bar: resident tickets serve strictly more
        # verification throughput than a restarted server deriving them, at
        # the same concurrency and request count.  Measured mode only — like the engine benchmark's
        # perf gates, a single-repeat smoke run on a noisy shared CI runner
        # is not a fair timing comparison.
        assert warm_best > cold_best, (
            f"warm throughput {warm_best:.1f} req/s is not higher than "
            f"cold {cold_best:.1f} req/s"
        )


# ----------------------------------------------------------------------
# Async jobs: cancel mid-run, resume from checkpoint, digest identity
# ----------------------------------------------------------------------
def _register_slow_attack():
    """A sleepy identity attack so the cancel reliably lands mid-sweep."""
    from repro.robustness.attacks import (
        ATTACK_REGISTRY,
        AttackOutcome,
        AttackSpec,
        register_attack,
    )

    if "bench-slow" in ATTACK_REGISTRY:
        return

    @register_attack
    class BenchSlowAttack(AttackSpec):
        name = "bench-slow"
        strength_unit = "-"
        default_strengths = (0,)

        def apply(self, model, strength, rng):
            time.sleep(0.2)
            return AttackOutcome(model=model.clone())


def test_job_resume_digest():
    """Submit → stream → cancel → resume; the resumed sweep must replay the
    checkpointed cells and produce a decision digest bit-identical to an
    uninterrupted run of the same grid.  Emits ``BENCH_jobs.json``."""
    _register_slow_attack()
    smoke = _smoke()
    clean, watermarked, keys = _build_fleet()
    results_dir = _results_dir()
    checkpoint_dir = results_dir / "job_checkpoints"
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    for stale in checkpoint_dir.glob("*.jsonl"):
        stale.unlink()

    # Slow cells lead the grid so the cooperative cancel lands mid-sweep.
    attacks = [
        {"name": "bench-slow", "strengths": [0, 1]},
        {"name": "overwrite", "strengths": [0, 60]},
        {"name": "pruning", "strengths": [0.4]},
    ]
    total_cells = 5
    seed = 17

    owner_key_id = next(iter(keys))  # insertion order: owner 0's key first
    server = VerificationServer(
        engine=WatermarkEngine(EngineConfig()),
        config=ServiceConfig(port=0, max_wait_ms=1.0, checkpoint_dir=checkpoint_dir),
    )
    with run_in_background(server) as handle:
        with VerificationClient(port=handle.port) as client:
            for key_id, key in keys.items():
                client.register_key(key, owner=f"owner-{key_id[-6:]}")
            client.upload_suspect(watermarked, suspect_id="hit")

            # Uninterrupted reference via the synchronous endpoint (no
            # checkpoint involvement on this path).
            uninterrupted = client.robustness(
                "hit", key_id=owner_key_id, attacks=attacks, seed=seed,
                executor="serial",
            )["report"]["decision_digest"]

            victim = client.submit_robustness_job(
                "hit", key_id=owner_key_id, attacks=attacks, seed=seed,
                executor="serial",
            )
            stream = victim.events()
            next(stream)  # ≥1 cell checkpointed
            stream.close()
            victim.cancel()
            cancelled = victim.wait(timeout=120)
            assert cancelled["state"] == "cancelled"
            cancelled_after = int(cancelled["completed_cells"])
            assert 0 < cancelled_after < total_cells

            resumed = client.submit_robustness_job(
                "hit", key_id=owner_key_id, attacks=attacks, seed=seed,
                executor="serial",
            )
            events = list(resumed.events())
            cells = [event for event in events if event["kind"] == "cell"]
            replayed = sum(1 for event in cells if event["replayed"])
            fresh = len(cells) - replayed
            final = resumed.status()
            assert final["state"] == "succeeded"
            resumed_digest = resumed.report()["report"]["decision_digest"]

    payload: Dict[str, object] = {
        "benchmark": "service_jobs",
        "smoke": smoke,
        "platform": platform.platform(),
        "grid": {
            attack["name"]: list(attack["strengths"]) for attack in attacks
        },
        "total_cells": total_cells,
        "cancelled_after_cells": cancelled_after,
        "replayed_cells": replayed,
        "fresh_cells": fresh,
        "events_streamed": len(events),
        "uninterrupted_decision_digest": uninterrupted,
        "resumed_decision_digest": resumed_digest,
        "digest_match": resumed_digest == uninterrupted,
        "job_states": [cancelled["state"], final["state"]],
    }
    out_path = results_dir / "BENCH_jobs.json"
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\n{json.dumps(payload, indent=2, sort_keys=True)}\n[written to {out_path}]")

    # The resume bar holds in every mode (it is an exactness gate, never a
    # timing): replayed cells cover the pre-cancel work and the digest is
    # bit-identical to the uninterrupted sweep.
    assert payload["digest_match"] is True
    assert replayed >= 1
    assert replayed + fresh == total_cells
    assert list(checkpoint_dir.glob("*.jsonl")), "checkpoint artifact missing"
