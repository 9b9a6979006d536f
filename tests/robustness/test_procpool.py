"""Process-pool gauntlet guarantees: digest equality, auto executor, shm hygiene.

``executor="process"`` promises exactly what the thread executor promises —
bit-identical decisions at any worker count — plus two of its own: shared
model residency (workers see zero-copy read-only views, never copies) and a
shared-memory segment that is unlinked exactly once even when a worker is
killed mid-cell.  Digest equality is asserted against both in-process
executors, under both ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import glob
import os
import pickle
import signal

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.engine import WatermarkEngine
from repro.engine.engine import get_default_engine
from repro.engine.shm import SHM_NAME_PREFIX
from repro.robustness import GauntletConfig, GauntletSubject, build_attack, run_gauntlet
from repro.robustness.attacks import AttackSpec
from repro.robustness.procpool import resolve_start_method

GRID_STRENGTHS = {"overwrite": (0, 20), "pruning": (0.4,), "rewatermark": (6, 12)}


def _stale_segments():
    return glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*")


def _grid_attacks(small_dataset):
    return [
        build_attack("overwrite"),
        build_attack("pruning"),
        build_attack("rewatermark", calibration_corpus=small_dataset.calibration),
    ]


@pytest.fixture(scope="module")
def reference_digests(awq_subject, small_dataset):
    """Serial and thread digests of the shared grid, computed once."""
    subjects = {"awq": awq_subject}
    serial = run_gauntlet(
        subjects, _grid_attacks(small_dataset), GRID_STRENGTHS,
        max_workers=1, seed=11, evaluate_quality=False,
    )
    threaded = run_gauntlet(
        subjects, _grid_attacks(small_dataset), GRID_STRENGTHS,
        max_workers=4, seed=11, evaluate_quality=False,
    )
    assert serial.executor == "serial" and threaded.executor == "thread"
    assert serial.decision_digest() == threaded.decision_digest()
    return serial


class TestDigestEquality:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_process_matches_serial_and_thread(
        self, awq_subject, small_dataset, reference_digests, workers, start_method
    ):
        report = run_gauntlet(
            {"awq": awq_subject}, _grid_attacks(small_dataset), GRID_STRENGTHS,
            max_workers=workers, seed=11, evaluate_quality=False,
            executor="process", start_method=start_method,
        )
        assert report.executor == "process"
        assert report.start_method == start_method
        assert report.decision_digest() == reference_digests.decision_digest()
        for ours, theirs in zip(report.cells, reference_digests.cells):
            assert ours.decision_fields() == theirs.decision_fields()
            assert ours.false_claim_probability == theirs.false_claim_probability

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_quality_evaluation_matches_across_executors(
        self, awq_subject, small_dataset, start_method
    ):
        """Harnesses ship to workers and perplexity/zero-shot agree exactly."""
        subjects = {"awq": awq_subject}
        attacks = [build_attack("overwrite")]
        strengths = {"overwrite": (0, 20)}
        streaming = run_gauntlet(subjects, attacks, strengths, max_workers=2, seed=3)
        process = run_gauntlet(
            subjects, attacks, strengths, max_workers=2, seed=3,
            executor="process", start_method=start_method,
        )
        assert process.decision_digest() == streaming.decision_digest()
        for ours, theirs in zip(process.cells, streaming.cells):
            assert ours.perplexity == theirs.perplexity
            assert ours.zero_shot_accuracy == theirs.zero_shot_accuracy

    def test_soup_cell_in_spawned_workers(self, awq_subject, quantized_awq4, activation_stats):
        """Soup's base model rides in its pickled spec; spawned workers unpickle
        it with read-only weights and must still produce the serial verdict."""
        subjects = {"awq": awq_subject}
        attacks = [build_attack("soup", base_model=quantized_awq4,
                                base_activations=activation_stats)]
        strengths = {"soup": (0.5,)}
        serial = run_gauntlet(
            subjects, attacks, strengths, max_workers=1, seed=13, evaluate_quality=False
        )
        process = run_gauntlet(
            subjects, attacks, strengths, max_workers=1, seed=13, evaluate_quality=False,
            executor="process", start_method="spawn",
        )
        assert process.executor == "process" and process.start_method == "spawn"
        assert process.decision_digest() == serial.decision_digest()
        assert process.cells[0].attacker_wer_percent == serial.cells[0].attacker_wer_percent
        assert 25.0 < process.cells[0].attacker_wer_percent < 75.0

    def test_multi_owner_co_keys_verified_in_workers(self, multi_owner_subject):
        subjects = {"multi": multi_owner_subject}
        attacks = [build_attack("overwrite"), build_attack("pruning")]
        strengths = {"overwrite": (0, 30), "pruning": (0.3,)}
        streaming = run_gauntlet(
            subjects, attacks, strengths, max_workers=2, seed=5, evaluate_quality=False
        )
        process = run_gauntlet(
            subjects, attacks, strengths, max_workers=2, seed=5, evaluate_quality=False,
            executor="process", start_method="fork",
        )
        assert process.decision_digest() == streaming.decision_digest()
        assert all(cell.co_owner_wer_percent for cell in process.cells)

    def test_rewatermark_runs_after_parent_engine_warmed(
        self, awq_subject, small_dataset
    ):
        """Fork hygiene: a forked worker inherits the parent's default engine
        — plan cache, locks and all — and re-watermarking inserts through
        it.  With a deliberately warmed parent engine, the run still
        completes because the at-fork reset replaces the inherited locks."""
        # Warm the parent's default engine: its lock and cache are in use.
        get_default_engine().reproduce_locations(awq_subject.key)
        report = run_gauntlet(
            {"awq": awq_subject},
            [build_attack("rewatermark", calibration_corpus=small_dataset.calibration)],
            {"rewatermark": (6,)},
            max_workers=2, seed=7, evaluate_quality=False,
            executor="process", start_method="fork",
        )
        assert report.num_cells == 1
        assert report.cells[0].attacker_wer_percent is not None


class TestAutoMode:
    ATTACKS_KW = dict(seed=2, evaluate_quality=False, executor="auto")

    def test_single_core_falls_back_to_serial(self, awq_subject, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        report = run_gauntlet(
            {"m": awq_subject}, [build_attack("overwrite")],
            {"overwrite": (0, 10, 20)}, max_workers=4, **self.ATTACKS_KW,
        )
        assert report.executor == "serial"
        assert report.workers == 1

    def test_small_grid_falls_back_to_serial(self, awq_subject, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        report = run_gauntlet(
            {"m": awq_subject}, [build_attack("overwrite")],
            {"overwrite": (0, 10)}, max_workers=4, **self.ATTACKS_KW,
        )
        assert report.executor == "serial"

    def test_multi_core_large_grid_takes_process_mode(self, awq_subject, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        report = run_gauntlet(
            {"m": awq_subject}, [build_attack("overwrite")],
            {"overwrite": (0, 10, 20)}, max_workers=2, **self.ATTACKS_KW,
        )
        assert report.executor == "process"

    def test_resolved_choice_lands_in_report_dict(self, awq_subject, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        report = run_gauntlet(
            {"m": awq_subject}, [build_attack("overwrite")],
            {"overwrite": (0, 10)}, max_workers=2, **self.ATTACKS_KW,
        )
        payload = report.to_dict()
        assert payload["executor"] == "serial"
        assert payload["start_method"] is None

    def test_invalid_start_method_rejected(self):
        with pytest.raises(ValueError, match="start_method"):
            GauntletConfig(start_method="telepathy")

    def test_env_var_start_method(self, monkeypatch):
        monkeypatch.setenv("REPRO_GAUNTLET_START_METHOD", "spawn")
        assert resolve_start_method(None) == "spawn"
        assert resolve_start_method("fork") == "fork"  # explicit wins
        monkeypatch.setenv("REPRO_GAUNTLET_START_METHOD", "nonsense")
        assert resolve_start_method(None) in ("fork", "spawn", "forkserver")


class _KillerAttack(AttackSpec):
    """SIGKILLs its worker at any non-zero strength (crash-path instrument).

    Defined at test-module scope, so it is only usable under ``fork`` (spawn
    workers re-import and cannot see pytest's test modules) — which is all
    the crash test needs.
    """

    name = "killer"
    strength_unit = "kills"
    default_strengths = (1,)

    def apply(self, model, strength, rng):
        if strength > 0:
            os.kill(os.getpid(), signal.SIGKILL)
        from repro.robustness.attacks import AttackOutcome

        return AttackOutcome(model=model.clone())


class TestSharedMemoryHygiene:
    def test_no_stale_segments_after_run(self, awq_subject):
        run_gauntlet(
            {"m": awq_subject}, [build_attack("overwrite")], {"overwrite": (0, 10)},
            max_workers=2, seed=1, evaluate_quality=False,
            executor="process", start_method="fork",
        )
        assert not _stale_segments()

    def test_killed_worker_leaves_no_stale_segments(self, awq_subject):
        bare = GauntletSubject(model=awq_subject.model, key=awq_subject.key)
        with pytest.raises(BrokenProcessPool):
            run_gauntlet(
                {"m": bare}, [_KillerAttack()], {"killer": (0, 1)},
                max_workers=2, seed=1, evaluate_quality=False,
                executor="process", start_method="fork",
            )
        assert not _stale_segments()


class TestPreloadedLocations:
    def test_preloaded_session_matches_fresh_reproduction(self, awq_subject):
        """A session handed a shipped (pickled) ticket — what a pool worker
        receives — gives the verdict a locally derived one gives, and costs
        zero plan-cache traffic."""
        engine = WatermarkEngine()
        fresh = engine.verification_session(keys={"k": awq_subject.key})
        expected = fresh.verify("s", awq_subject.model, "k")
        shipped = pickle.loads(pickle.dumps(fresh.ticket("k")))

        preloaded = WatermarkEngine().verification_session(keys={"k": shipped})
        got = preloaded.verify("s", awq_subject.model, "k")
        assert got.wer_percent == expected.wer_percent
        assert got.matched_bits == expected.matched_bits
        assert got.owned == expected.owned
        traffic = preloaded.cache_traffic()
        assert traffic.hits == 0 and traffic.misses == 0

    def test_rebinding_id_to_other_ticket_rejected(self, awq_subject):
        ticket = WatermarkEngine().ticket_for(awq_subject.key)
        session = WatermarkEngine().verification_session(keys={"k": ticket})
        session.add_key("k", ticket)  # same object: idempotent
        with pytest.raises(ValueError, match="already bound"):
            session.add_key("k", pickle.loads(pickle.dumps(ticket)))
