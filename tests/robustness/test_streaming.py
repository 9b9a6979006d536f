"""Gauntlet memory and verification-session guarantees.

Every executor verifies and releases each attacked model as its cell
finishes, so a run never holds more than ``max_workers`` attacked models
alive at once.  That is proven with a weakref-instrumented attack spec that
counts the attacked models currently alive.  The engine-level
:class:`~repro.engine.engine.FleetVerificationSession` underneath is tested
against ``verify_fleet`` directly.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np
import pytest

from repro.engine import WatermarkEngine
from repro.robustness import (
    GauntletConfig,
    GauntletSubject,
    build_attack,
    run_gauntlet,
)
from repro.robustness.attacks import AttackSpec


class TestStreamingVsBatchedEquivalence:
    """Executor default, executor validation and warm plan-cache reuse."""

    def test_streaming_is_the_default_mode(self, awq_subject, gauntlet_engine):
        assert GauntletConfig().executor == "thread"
        report = run_gauntlet({"m": awq_subject}, [build_attack("overwrite")],
                              {"overwrite": (0, 20)}, engine=gauntlet_engine,
                              max_workers=2)
        assert report.executor == "thread"
        assert report.to_dict()["executor"] == "thread"
        assert "mode" not in report.to_dict()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            GauntletConfig(executor="clairvoyant")
        with pytest.raises(TypeError):
            GauntletConfig(mode="streaming")

    def test_streaming_warm_rerun_hits_plan_cache(self, awq_subject):
        engine = WatermarkEngine()
        strengths = {"overwrite": (0, 20)}
        run_gauntlet({"m": awq_subject}, [build_attack("overwrite")], strengths,
                     engine=engine)
        warm = run_gauntlet({"m": awq_subject}, [build_attack("overwrite")], strengths,
                            engine=engine)
        assert warm.cache_misses == 0
        assert warm.cache_hits >= awq_subject.model.num_quantization_layers


class _TrackedOverwrite(AttackSpec):
    """Overwrite wrapper counting how many attacked models are alive.

    ``apply`` increments an alive counter and attaches a weakref finalizer
    that decrements it when the attacked model is garbage collected;
    ``peak`` therefore records the maximum number of attacked models that
    ever coexisted.  CPython's refcounting frees each model as soon as the
    pipeline drops its last reference, so the peak is deterministic.
    """

    name = "tracked-overwrite"
    strength_unit = "weights/layer"
    default_strengths = (10,)

    def __init__(self) -> None:
        self._inner = build_attack("overwrite")
        self._lock = threading.Lock()
        self.alive = 0
        self.peak = 0

    def _release(self) -> None:
        with self._lock:
            self.alive -= 1

    def apply(self, model, strength, rng):
        outcome = self._inner.apply(model, strength, rng)
        with self._lock:
            self.alive += 1
            self.peak = max(self.peak, self.alive)
        weakref.finalize(outcome.model, self._release)
        return outcome


class TestPeakAliveModels:
    """The O(workers × model size) claim, measured rather than asserted."""

    STRENGTHS = {"tracked-overwrite": (5, 10, 15, 20, 25, 30, 35, 40)}
    WORKERS = 2

    def _run(self, subject, engine, executor):
        spec = _TrackedOverwrite()
        bare = GauntletSubject(model=subject.model, key=subject.key)
        report = run_gauntlet({"m": bare}, [spec], self.STRENGTHS,
                              engine=engine, max_workers=self.WORKERS,
                              evaluate_quality=False, executor=executor)
        return spec, report

    def test_streaming_peak_is_bounded_by_workers(self, awq_subject, gauntlet_engine):
        spec, report = self._run(awq_subject, gauntlet_engine, "thread")
        assert report.num_cells == 8
        assert report.executor == "thread"
        # At most one attacked model per in-flight worker (+1 slack for a
        # result the pool is momentarily handing over).
        assert spec.peak <= self.WORKERS + 1
        assert spec.alive == 0


class TestVerificationSession:
    """The engine-level incremental API underneath the gauntlet."""

    def test_verify_matches_verify_fleet_evidence(self, awq_subject, int8_subject):
        engine = WatermarkEngine()
        suspects = {"a": awq_subject.model, "b": int8_subject.model}
        keys = {"ka": awq_subject.key, "kb": int8_subject.key}
        fleet = engine.verify_fleet(suspects, keys)
        session = engine.verification_session(keys=keys)
        for pair in fleet.pairs:
            incremental = session.verify(pair.suspect_id, suspects[pair.suspect_id], pair.key_id)
            assert incremental.wer_percent == pair.wer_percent
            assert incremental.matched_bits == pair.matched_bits
            assert incremental.total_bits == pair.total_bits
            assert incremental.owned == pair.owned
            assert incremental.false_claim_probability == pair.false_claim_probability

    def test_locations_reproduced_once_per_key(self, awq_subject):
        engine = WatermarkEngine()
        session = engine.verification_session(keys={"k": awq_subject.key})
        session.verify("s1", awq_subject.model, "k")
        first = session.cache_traffic()
        session.verify("s2", awq_subject.model, "k")
        second = session.cache_traffic()
        # The second suspect is a pure match pass: zero new cache traffic.
        assert second.misses == first.misses
        assert second.hits == first.hits

    def test_verify_once_retains_nothing_and_matches_registered_verify(
        self, awq_subject, int8_subject
    ):
        """One-shot keys (per-cell attacker keys) must neither register nor
        cache — that is what keeps attacker-heavy grids O(workers)
        — while producing the exact evidence a registered verify would."""
        engine = WatermarkEngine()
        session = engine.verification_session(keys={"owner": awq_subject.key})
        once = session.verify_once(
            "s", awq_subject.model, int8_subject.key, "oneshot"
        )
        assert session.key_ids() == ["owner"]
        assert once.key_id == "oneshot"
        registered = engine.verification_session(
            keys={"k": int8_subject.key}
        ).verify("s", awq_subject.model, "k")
        assert once.wer_percent == registered.wer_percent
        assert once.matched_bits == registered.matched_bits
        assert once.owned == registered.owned
        assert once.false_claim_probability == registered.false_claim_probability

    def test_add_key_is_idempotent_for_same_object(self, awq_subject):
        engine = WatermarkEngine()
        session = engine.verification_session()
        session.add_key("k", awq_subject.key)
        session.add_key("k", awq_subject.key)
        assert session.key_ids() == ["k"]

    def test_rebinding_id_to_different_key_rejected(self, awq_subject, int8_subject):
        engine = WatermarkEngine()
        session = engine.verification_session(keys={"k": awq_subject.key})
        with pytest.raises(ValueError, match="already bound"):
            session.add_key("k", int8_subject.key)

    def test_unknown_key_id_rejected(self, awq_subject):
        engine = WatermarkEngine()
        session = engine.verification_session()
        with pytest.raises(KeyError, match="unknown key id"):
            session.verify("s", awq_subject.model, "nobody")

    def test_concurrent_cold_verifies_race_safely(self, awq_subject):
        """Two workers racing on a cold key must both get correct verdicts
        (and the key's plans must be reproduced exactly once)."""
        from concurrent.futures import ThreadPoolExecutor

        engine = WatermarkEngine()
        session = engine.verification_session(keys={"k": awq_subject.key})
        with ThreadPoolExecutor(max_workers=4) as pool:
            pairs = list(pool.map(
                lambda i: session.verify(f"s{i}", awq_subject.model, "k"), range(8)
            ))
        assert all(pair.wer_percent == 100.0 for pair in pairs)
        traffic = session.cache_traffic()
        layers = awq_subject.model.num_quantization_layers
        assert traffic.hits + traffic.misses == layers

    def test_report_wraps_pairs_with_cache_traffic(self, awq_subject):
        engine = WatermarkEngine()
        session = engine.verification_session(keys={"k": awq_subject.key})
        pair = session.verify("s", awq_subject.model, "k")
        report = session.report([pair])
        assert report.pairs == [pair]
        assert report.cache_hits + report.cache_misses > 0
        assert report.wall_clock_seconds > 0


def test_structured_prune_streams_through_full_grid(awq_subject, gauntlet_engine):
    """End-to-end: a reshaping attack flows through the gauntlet
    (quality via materialize-scatter, verification via strict_layout=False)."""
    report = run_gauntlet(
        {"m": awq_subject},
        [build_attack("structured-prune"), build_attack("scale-tamper")],
        strengths={"structured-prune": (0.0, 0.5), "scale-tamper": (0.3,)},
        engine=gauntlet_engine, max_workers=4, seed=2,
    )
    by_cell = {(c.attack, c.strength): c for c in report.cells}
    assert by_cell[("structured-prune", 0.0)].wer_percent == 100.0
    assert by_cell[("structured-prune", 0.5)].wer_percent < 50.0
    assert not by_cell[("structured-prune", 0.5)].owned
    assert by_cell[("scale-tamper", 0.3)].wer_percent == 100.0
    assert all(np.isfinite(c.perplexity) for c in report.cells)
