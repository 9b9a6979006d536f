"""Checkpoint/resume semantics of the gauntlet.

The load-bearing guarantee: a sweep interrupted after any number of
checkpointed cells and later resumed produces a decision digest
**bit-identical** to an uninterrupted run — JSON-exact cell fields plus
grid-order reassembly, regardless of worker count on either side.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.robustness import (
    CellCheckpoint,
    CheckpointError,
    Gauntlet,
    GauntletCancelled,
    GauntletSubject,
    build_attack,
    grid_fingerprint,
    run_gauntlet,
)
from repro.robustness.attacks import AttackSpec
from repro.robustness.checkpoint import merge_completed
from repro.robustness.gauntlet import GauntletConfig

ATTACKS = ("overwrite", "pruning")
STRENGTHS = {"overwrite": (0, 10, 20), "pruning": (0.3, 0.5)}


def _attacks():
    return [build_attack(name) for name in ATTACKS]


def _bare(subject):
    return GauntletSubject(model=subject.model, key=subject.key)


def _run(subject, engine, checkpoint=None, on_cell=None, should_stop=None, workers=1):
    return run_gauntlet(
        {"m": _bare(subject)},
        _attacks(),
        strengths=STRENGTHS,
        engine=engine,
        checkpoint=checkpoint,
        on_cell=on_cell,
        should_stop=should_stop,
        evaluate_quality=False,
        max_workers=workers,
        seed=3,
    )


class TestGridFingerprint:
    def test_deterministic(self):
        kwargs = dict(
            subject_ids=["m"],
            attack_strengths={"overwrite": (0, 10)},
            seed=3,
            wer_threshold=95.0,
            max_false_claim_probability=1e-6,
            evaluate_quality=False,
        )
        assert grid_fingerprint(**kwargs) == grid_fingerprint(**kwargs)

    @pytest.mark.parametrize(
        "override",
        [
            {"subject_ids": ["other"]},
            {"attack_strengths": {"overwrite": (0, 20)}},
            {"seed": 4},
            {"wer_threshold": 90.0},
            {"max_false_claim_probability": None},
            {"evaluate_quality": True},
            {"extra": {"suspect_content": "abc"}},
        ],
    )
    def test_decision_relevant_inputs_change_it(self, override):
        base = dict(
            subject_ids=["m"],
            attack_strengths={"overwrite": (0, 10)},
            seed=3,
            wer_threshold=95.0,
            max_false_claim_probability=1e-6,
            evaluate_quality=False,
        )
        assert grid_fingerprint(**base) != grid_fingerprint(**{**base, **override})


class TestCellCheckpoint:
    def test_missing_file_loads_empty(self, tmp_path):
        ckpt = CellCheckpoint(tmp_path / "none.jsonl", fingerprint="f" * 64)
        assert ckpt.load() == {}

    def test_fingerprint_mismatch_rejected(self, tmp_path, awq_subject, gauntlet_engine):
        path = tmp_path / "ck.jsonl"
        full = _run(awq_subject, gauntlet_engine, checkpoint=path)
        assert full.num_cells == 5
        with pytest.raises(CheckpointError, match="different grid"):
            CellCheckpoint(path, fingerprint="0" * 64).load()

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(CheckpointError, match="not a gauntlet checkpoint"):
            CellCheckpoint(path, fingerprint="f" * 64).load()

    def test_torn_final_line_tolerated(self, tmp_path, awq_subject, gauntlet_engine):
        path = tmp_path / "ck.jsonl"
        _run(awq_subject, gauntlet_engine, checkpoint=path)
        lines = path.read_text().splitlines()
        fingerprint = json.loads(lines[0])["fingerprint"]
        # Simulate a crash mid-append: truncate the last record.
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        completed = CellCheckpoint(path, fingerprint=fingerprint).load()
        assert len(completed) == len(lines) - 2  # header + torn line dropped

    def test_corrupt_mid_file_rejected(self, tmp_path, awq_subject, gauntlet_engine):
        path = tmp_path / "ck.jsonl"
        _run(awq_subject, gauntlet_engine, checkpoint=path)
        lines = path.read_text().splitlines()
        fingerprint = json.loads(lines[0])["fingerprint"]
        lines[2] = lines[2][: len(lines[2]) // 2]  # torn *before* later records
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt record mid-file"):
            CellCheckpoint(path, fingerprint=fingerprint).load()

    def test_merge_completed_orders_by_grid(self):
        class _Cell:
            def __init__(self, cell_id):
                self.cell_id = cell_id

        cells, replayed = merge_completed(
            ["a", "b", "c"],
            {"b": _Cell("b")},
            {"a": _Cell("a"), "c": _Cell("c")},
        )
        assert [c.cell_id for c in cells] == ["a", "b", "c"]
        assert replayed == 1


class TestResume:
    def test_cancel_then_resume_digest_identical(
        self, tmp_path, awq_subject, gauntlet_engine
    ):
        full = _run(awq_subject, gauntlet_engine)
        path = tmp_path / "ck.jsonl"
        seen = {"n": 0}

        def on_cell(_result, _replayed):
            seen["n"] += 1

        with pytest.raises(GauntletCancelled) as info:
            _run(
                awq_subject,
                gauntlet_engine,
                checkpoint=path,
                on_cell=on_cell,
                should_stop=lambda: seen["n"] >= 2,
            )
        assert info.value.completed == 2
        assert info.value.total == 5

        events = []
        resumed = _run(
            awq_subject,
            gauntlet_engine,
            checkpoint=path,
            on_cell=lambda r, replayed: events.append((r.cell_id, replayed)),
        )
        assert resumed.decision_digest() == full.decision_digest()
        replayed = [cell_id for cell_id, was_replayed in events if was_replayed]
        fresh = [cell_id for cell_id, was_replayed in events if not was_replayed]
        assert len(replayed) == 2 and len(fresh) == 3
        assert set(replayed + fresh) == {c.cell_id for c in full.cells}

    def test_resume_with_different_worker_count(
        self, tmp_path, awq_subject, gauntlet_engine
    ):
        """Serial checkpoint, threaded resume — digests still match."""
        full = _run(awq_subject, gauntlet_engine)
        path = tmp_path / "ck.jsonl"
        seen = {"n": 0}

        def on_cell(_result, _replayed):
            seen["n"] += 1

        with pytest.raises(GauntletCancelled):
            _run(
                awq_subject,
                gauntlet_engine,
                checkpoint=path,
                on_cell=on_cell,
                should_stop=lambda: seen["n"] >= 1,
            )
        resumed = _run(awq_subject, gauntlet_engine, checkpoint=path, workers=4)
        assert resumed.decision_digest() == full.decision_digest()

    def test_completed_checkpoint_replays_everything(
        self, tmp_path, awq_subject, gauntlet_engine
    ):
        path = tmp_path / "ck.jsonl"
        full = _run(awq_subject, gauntlet_engine, checkpoint=path)
        events = []
        replayed = _run(
            awq_subject,
            gauntlet_engine,
            checkpoint=path,
            on_cell=lambda r, was_replayed: events.append(was_replayed),
        )
        assert replayed.decision_digest() == full.decision_digest()
        assert events == [True] * 5

    def test_checkpoint_instance_passthrough(
        self, tmp_path, awq_subject, gauntlet_engine
    ):
        """A caller-built CellCheckpoint (the job manager's path) is honoured."""
        gauntlet = Gauntlet(
            engine=gauntlet_engine,
            config=GauntletConfig(seed=3, evaluate_quality=False, max_workers=1),
        )
        subjects = {"m": _bare(awq_subject)}
        fingerprint = gauntlet.grid_fingerprint_for(
            subjects, _attacks(), STRENGTHS, extra={"suspect_content": "abc"}
        )
        ckpt = CellCheckpoint(tmp_path / "ck.jsonl", fingerprint=fingerprint)
        report = gauntlet.run(subjects, _attacks(), STRENGTHS, checkpoint=ckpt)
        assert report.num_cells == 5
        reopened = CellCheckpoint(tmp_path / "ck.jsonl", fingerprint=fingerprint)
        assert len(reopened.load()) == 5

    def test_cancel_before_first_cell(self, awq_subject, gauntlet_engine):
        with pytest.raises(GauntletCancelled) as info:
            _run(awq_subject, gauntlet_engine, should_stop=lambda: True)
        assert info.value.completed == 0

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_pool_cancel_checkpoints_in_flight_cells_then_resumes(
        self, tmp_path, awq_subject, gauntlet_engine, executor
    ):
        """The shared pool loop: a stop drops unstarted cells, but every cell
        that finished — including ones in flight at the stop — is emitted and
        checkpointed, so the resume recomputes only the rest."""
        subjects = {"m": _bare(awq_subject)}
        # More cells than the process pool's call queue holds (workers + 1),
        # so some are still unstarted when the first one completes.
        strengths = {"slow-overwrite": (0, 10, 20, 30, 40, 50, 60, 70)}

        def run(**kwargs):
            return run_gauntlet(
                subjects, [_SlowOverwrite()], strengths, engine=gauntlet_engine,
                evaluate_quality=False, seed=3, max_workers=2, executor=executor,
                start_method="fork", **kwargs,
            )

        full = run()
        path = tmp_path / "ck.jsonl"
        emitted = []
        with pytest.raises(GauntletCancelled) as info:
            run(
                checkpoint=path,
                on_cell=lambda result, _replayed: emitted.append(result.cell_id),
                should_stop=lambda: len(emitted) >= 1,
            )
        # The other worker's cell was in flight at the stop: drained, not lost.
        assert 2 <= info.value.completed == len(emitted) < info.value.total == 8
        ckpt = CellCheckpoint(path, fingerprint=Gauntlet(
            engine=gauntlet_engine,
            config=GauntletConfig(seed=3, evaluate_quality=False, max_workers=2),
        ).grid_fingerprint_for(subjects, [_SlowOverwrite()], strengths))
        assert sorted(ckpt.load()) == sorted(emitted)

        fresh = []
        resumed = run(
            checkpoint=path,
            on_cell=lambda result, replayed: None if replayed else fresh.append(result.cell_id),
        )
        assert resumed.decision_digest() == full.decision_digest()
        assert sorted(fresh + emitted) == sorted(c.cell_id for c in full.cells)


class _SlowOverwrite(AttackSpec):
    """Overwrite that takes long enough for a stop to find unstarted cells.

    Defined at test-module scope, so the process executor can use it only
    under ``fork``.
    """

    name = "slow-overwrite"
    strength_unit = "weights/layer"
    default_strengths = (0,)

    def apply(self, model, strength, rng):
        # Staggered, so the first completion arrives alone.
        time.sleep(0.05 + strength / 200)
        return build_attack("overwrite").apply(model, strength, rng)
