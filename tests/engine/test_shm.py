"""Shared-memory arena guarantees: zero-copy restore, write guards, unlink-once.

The process-pool gauntlet's memory model rests on :mod:`repro.engine.shm`:
models published once, restored in workers as read-only views over the same
pages, and the segment unlinked exactly once no matter how the run
ends.  These tests pin each of those properties in-process (the cross-process
behaviour is covered by ``tests/robustness/test_procpool.py``).
"""

from __future__ import annotations

import glob
import pickle

import numpy as np
import pytest

from repro.core.config import EmMarkConfig
from repro.engine import WatermarkEngine
from repro.engine.shm import (
    SHM_NAME_PREFIX,
    SharedArena,
    share_model,
)


def _stale_segments():
    return glob.glob(f"/dev/shm/{SHM_NAME_PREFIX}*")


@pytest.fixture(scope="module")
def watermarked_pair(quantized_awq4, activation_stats):
    engine = WatermarkEngine()
    config = EmMarkConfig.scaled_for_model(quantized_awq4, bits_per_layer=8)
    model, key, _ = engine.insert(quantized_awq4, activation_stats, config=config)
    return model, key, engine


class TestModelRoundTrip:
    def test_restored_model_is_bit_identical_and_zero_copy(self, watermarked_pair):
        model, _, _ = watermarked_pair
        with SharedArena() as arena:
            handle = share_model(arena, model, "m")
            arena_handle = arena.seal()
            view = arena_handle.attach()
            restored = handle.restore(view)
            assert restored.layer_names() == model.layer_names()
            assert restored.method == model.method and restored.bits == model.bits
            for name in model.layers:
                original = model.layers[name]
                mirrored = restored.layers[name]
                np.testing.assert_array_equal(mirrored.weight_int, original.weight_int)
                np.testing.assert_array_equal(mirrored.scale, original.scale)
                # Zero-copy: the restored array is a view over the shared
                # block, not a copy of it.
                assert np.shares_memory(mirrored.weight_int, view.array(f"m/layer/{name}/weight_int"))
            for state_key, value in model.full_precision_state.items():
                np.testing.assert_array_equal(
                    restored.full_precision_state[state_key], value
                )
            view.close()

    def test_restored_model_is_frozen_but_clonable(self, watermarked_pair):
        model, _, _ = watermarked_pair
        with SharedArena() as arena:
            handle = share_model(arena, model, "m")
            view = arena.seal().attach()
            restored = handle.restore(view)
            layer = next(iter(restored.layers.values()))
            with pytest.raises(ValueError, match="read-only"):
                layer.add_to_weights(np.array([0]), np.array([1]))
            clone = restored.clone()
            cloned_layer = next(iter(clone.layers.values()))
            cloned_layer.add_to_weights(np.array([0]), np.array([1]))  # writable again
            view.close()

    def test_handles_survive_pickling(self, watermarked_pair):
        model, _, _ = watermarked_pair
        with SharedArena() as arena:
            handle = share_model(arena, model, "m")
            arena_handle = arena.seal()
            arena_handle2, handle2 = pickle.loads(pickle.dumps((arena_handle, handle)))
            view = arena_handle2.attach()
            restored = handle2.restore(view)
            name = model.layer_names()[0]
            np.testing.assert_array_equal(
                restored.layers[name].weight_int, model.layers[name].weight_int
            )
            view.close()

    def test_materialize_works_on_frozen_views(self, watermarked_pair):
        model, _, _ = watermarked_pair
        with SharedArena() as arena:
            handle = share_model(arena, model, "m")
            view = arena.seal().attach()
            restored = handle.restore(view)
            materialized = restored.materialize()
            reference = model.materialize()
            batch = np.arange(8, dtype=np.int64).reshape(1, -1)
            np.testing.assert_allclose(
                materialized.forward(batch), reference.forward(batch)
            )
            view.close()


class TestArenaLifecycle:
    def test_segment_unlinked_exactly_once(self, watermarked_pair):
        model, _, _ = watermarked_pair
        arena = SharedArena()
        share_model(arena, model, "m")
        arena.seal()
        assert glob.glob(f"/dev/shm/{arena.name}")
        arena.close()
        assert not glob.glob(f"/dev/shm/{arena.name}")
        arena.close()  # idempotent — no error, nothing to double-unlink

    def test_no_stale_segments_after_context_exit(self, watermarked_pair):
        model, _, _ = watermarked_pair
        with SharedArena() as arena:
            share_model(arena, model, "m")
            arena.seal()
        assert not _stale_segments()

    def test_atexit_sweep_collects_leaked_arena(self, watermarked_pair):
        from repro.engine import shm as shm_module

        model, _, _ = watermarked_pair
        arena = SharedArena()
        share_model(arena, model, "m")
        arena.seal()
        assert glob.glob(f"/dev/shm/{arena.name}")
        # Simulate the owner dying without close(): only the sweep runs.
        shm_module._sweep_live_segments()
        assert not glob.glob(f"/dev/shm/{arena.name}")
        arena.close()  # still safe afterwards

    def test_stage_after_seal_rejected(self):
        arena = SharedArena()
        arena.stage("a", np.arange(4))
        arena.seal()
        try:
            with pytest.raises(RuntimeError, match="sealed"):
                arena.stage("b", np.arange(4))
        finally:
            arena.close()

    def test_duplicate_name_rejected(self):
        arena = SharedArena()
        arena.stage("a", np.arange(4))
        with pytest.raises(ValueError, match="staged twice"):
            arena.stage("a", np.arange(4))
        arena.close()

    def test_unknown_array_name_rejected(self):
        arena = SharedArena()
        arena.stage("a", np.arange(4))
        view = arena.seal().attach()
        try:
            with pytest.raises(KeyError, match="no array named"):
                view.array("missing")
        finally:
            view.close()
            arena.close()
