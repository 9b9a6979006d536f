"""Lock-witness hygiene across multiprocessing start methods.

The invariant: worker-side lock traffic must never poison the parent's
acquisition-order graph.  Under ``fork`` the child inherits the patched
factories and the graph — ``os.register_at_fork`` clears the child's copy
so it starts empty (and its COW memory cannot reach the parent anyway).
Under ``spawn`` the child re-imports everything and never runs the pytest
plugin's enable, so it executes entirely unwitnessed.

Child entry points live at module level so ``spawn`` can pickle them.
"""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest

from repro.analysis import lockgraph
from repro.analysis.lockgraph import LockWitness


@pytest.fixture
def isolated_witness():
    was_enabled = lockgraph.is_enabled()
    original = lockgraph.witness
    lockgraph.witness = LockWitness()
    lockgraph.enable()
    try:
        yield lockgraph.witness
    finally:
        lockgraph.disable()
        lockgraph.witness = original
        if was_enabled:
            lockgraph.enable()


def _nest_two_locks() -> None:
    first = threading.Lock()
    second = threading.Lock()
    with first:
        with second:
            pass


def _fork_child_probe(queue) -> None:
    """Runs in a fork child: report inherited state, then record edges."""
    inherited_edges = len(lockgraph.witness.edges_snapshot())
    _nest_two_locks()
    queue.put(
        {
            "pid": os.getpid(),
            "inherited_edges": inherited_edges,
            "enabled": lockgraph.is_enabled(),
            "edges_after": len(lockgraph.witness.edges_snapshot()),
        }
    )


def _spawn_child_probe(queue) -> None:
    """Runs in a spawn child: the witness must simply not be there."""
    import _thread

    queue.put(
        {
            "pid": os.getpid(),
            "enabled": lockgraph.is_enabled(),
            "lock_factory_is_raw": threading.Lock is _thread.allocate_lock,
            "edges": len(lockgraph.witness.edges_snapshot()),
        }
    )


class TestForkIsolation:
    def test_fork_child_starts_with_empty_graph(self, isolated_witness):
        _nest_two_locks()  # parent edge, recorded pre-fork
        assert len(isolated_witness.edges_snapshot()) == 1
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_fork_child_probe, args=(queue,))
        child.start()
        outcome = queue.get(timeout=30)
        child.join(timeout=30)
        assert child.exitcode == 0
        # register_at_fork wiped the inherited graph before the child ran.
        assert outcome["inherited_edges"] == 0
        # The child keeps witnessing into its own (COW) memory...
        assert outcome["enabled"] is True
        assert outcome["edges_after"] >= 1
        assert outcome["pid"] != os.getpid()

    def test_fork_child_edges_never_reach_parent(self, isolated_witness):
        before = isolated_witness.edges_snapshot()
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_fork_child_probe, args=(queue,))
        child.start()
        outcome = queue.get(timeout=30)
        child.join(timeout=30)
        assert outcome["edges_after"] >= 1
        after = isolated_witness.edges_snapshot()
        # Parent graph unchanged by anything the worker did...
        assert set(after) == set(before)
        # ...and every parent edge was recorded by the parent pid.
        assert all(info.pid == os.getpid() for info in after.values())

    def test_held_stack_does_not_leak_into_child(self, isolated_witness):
        # Fork while the parent holds a witnessed lock: the child's held
        # stack must be clean, or its first acquisition would record a
        # bogus parent-lock -> child-lock edge.
        held = threading.Lock()
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        with held:
            child = ctx.Process(target=_fork_child_probe, args=(queue,))
            child.start()
            outcome = queue.get(timeout=30)
            child.join(timeout=30)
        assert outcome["edges_after"] == 1  # just the child's own nest


class TestSpawnIsolation:
    def test_spawn_child_runs_unwitnessed(self, isolated_witness):
        _nest_two_locks()
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        child = ctx.Process(target=_spawn_child_probe, args=(queue,))
        child.start()
        outcome = queue.get(timeout=60)
        child.join(timeout=60)
        assert child.exitcode == 0
        assert outcome["enabled"] is False
        assert outcome["lock_factory_is_raw"] is True
        assert outcome["edges"] == 0
        # Parent still witnessed throughout.
        assert lockgraph.is_enabled()
        assert len(isolated_witness.edges_snapshot()) == 1


class TestProcessGauntletUnderWitness:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_process_executor_digest_with_witness(
        self, analysis_subject, start_method
    ):
        """The real worker path: process-pool gauntlet under the witness."""
        from repro.robustness import build_attack, run_gauntlet

        grid = {"overwrite": (0, 10)}

        def run():
            return run_gauntlet(
                {"m": analysis_subject},
                [build_attack("overwrite")],
                grid,
                max_workers=2,
                seed=7,
                evaluate_quality=False,
                executor="process",
                start_method=start_method,
            )

        was_enabled = lockgraph.is_enabled()
        if was_enabled:
            lockgraph.disable()
        reference = run()
        original = lockgraph.witness
        lockgraph.witness = LockWitness()
        lockgraph.enable()
        try:
            witnessed = run()
            report = lockgraph.witness.report()
        finally:
            lockgraph.disable()
            lockgraph.witness = original
            if was_enabled:
                lockgraph.enable()
        assert witnessed.decision_digest() == reference.decision_digest()
        assert report.ok, "\n" + report.render()
        # Worker pids never appear in the parent graph.
        assert all(info.pid == os.getpid() for info in report.edges.values())
