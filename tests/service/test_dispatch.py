"""TokenBucket and MicroBatchDispatcher behaviour (no HTTP involved)."""

import asyncio
import time

import pytest

from repro.engine import EngineConfig, WatermarkEngine
from repro.service.dispatch import (
    MicroBatchDispatcher,
    QueueFullError,
    TokenBucket,
    VerifyJob,
)


class TestTokenBucket:
    def test_disabled_bucket_always_admits(self):
        bucket = TokenBucket(rate=None)
        assert not bucket.enabled
        assert all(bucket.try_acquire() for _ in range(1000))
        assert bucket.rejected == 0

    def test_burst_capacity_then_rejects(self):
        bucket = TokenBucket(rate=0.001, burst=3)
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]
        assert bucket.rejected == 1

    def test_refill_restores_tokens(self):
        bucket = TokenBucket(rate=1000.0, burst=1)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        import time

        time.sleep(0.01)  # 1000/s refill → full again
        assert bucket.try_acquire()

    def test_fractional_rate_still_admits_single_requests(self):
        """rate < 1/s must not lock the bucket shut (capacity clamps to 1)."""
        bucket = TokenBucket(rate=0.5)
        assert bucket.capacity == 1.0
        assert bucket.try_acquire()
        assert not bucket.try_acquire()  # next token in ~2s, not never

    def test_stats_shape(self):
        stats = TokenBucket(rate=5.0, burst=10.0).stats()
        assert stats["enabled"] is True
        assert stats["rate_per_sec"] == 5.0
        assert stats["burst"] == 10.0


def _run_jobs(dispatcher_kwargs, jobs_spec, engine):
    """Drive a dispatcher inside a private event loop and return outcomes.

    Every job is submitted before the consumer task first runs, so the whole
    list is backlog and coalesces up to ``max_batch`` per batch.
    """

    async def main():
        dispatcher = MicroBatchDispatcher(engine, **dispatcher_kwargs)
        dispatcher.start()
        futures = [dispatcher.submit(job) for job in jobs_spec]
        outcomes = await asyncio.gather(*futures)
        await dispatcher.stop()
        return dispatcher, outcomes

    return asyncio.run(main())


class TestMicroBatchDispatcher:
    def test_concurrent_jobs_coalesce_into_one_batch(
        self, watermarked_and_key, quantized_awq4
    ):
        watermarked, key = watermarked_and_key
        engine = WatermarkEngine(EngineConfig())
        keys = {"owner": key}
        jobs = [
            VerifyJob(f"req-{i}", sid, model, dict(keys))
            for i, (sid, model) in enumerate(
                [("hit", watermarked), ("miss", quantized_awq4)] * 3
            )
        ]
        dispatcher, outcomes = _run_jobs(dict(max_batch=16), jobs, engine)
        # All six submitted before the loop ran → a single coalesced batch.
        assert dispatcher.batches == 1
        assert dispatcher.largest_batch == 6
        # Six jobs but only two distinct (suspect, key) pairs were verified.
        assert dispatcher.pairs_verified == 2
        owned = {o.suspect_id: o.decisions[0].owned for o in outcomes}
        assert owned == {"hit": True, "miss": False}

    def test_batched_decisions_match_direct_verify_fleet(
        self, watermarked_and_key, quantized_awq4
    ):
        watermarked, key = watermarked_and_key
        engine = WatermarkEngine(EngineConfig())
        direct = WatermarkEngine(EngineConfig()).verify_fleet(
            {"hit": watermarked, "miss": quantized_awq4}, {"owner": key}
        )
        direct_by_pair = {(p.suspect_id, p.key_id): p for p in direct.pairs}
        jobs = [
            VerifyJob("r1", "hit", watermarked, {"owner": key}),
            VerifyJob("r2", "miss", quantized_awq4, {"owner": key}),
        ]
        _, outcomes = _run_jobs(dict(max_batch=8), jobs, engine)
        for outcome in outcomes:
            for pair in outcome.decisions:
                reference = direct_by_pair[(pair.suspect_id, pair.key_id)]
                assert pair.matched_bits == reference.matched_bits
                assert pair.total_bits == reference.total_bits
                assert pair.owned == reference.owned
                assert pair.wer_percent == reference.wer_percent

    def test_threshold_groups_split_within_a_batch(self, watermarked_and_key):
        watermarked, key = watermarked_and_key
        engine = WatermarkEngine(EngineConfig())
        jobs = [
            VerifyJob("strict", "hit", watermarked, {"owner": key}, wer_threshold=100.0),
            VerifyJob("lenient", "hit", watermarked, {"owner": key}, wer_threshold=1.0),
        ]
        dispatcher, outcomes = _run_jobs(dict(max_batch=8), jobs, engine)
        assert dispatcher.batches == 1  # one batch, two threshold groups inside
        assert all(o.decisions[0].owned for o in outcomes)

    def test_same_id_different_models_do_not_alias(
        self, watermarked_and_key, quantized_awq4
    ):
        """Two jobs claiming one suspect_id but carrying different models must
        each be judged on their own weights (dedup is by object identity)."""
        watermarked, key = watermarked_and_key
        engine = WatermarkEngine(EngineConfig())
        jobs = [
            VerifyJob("a", "prod", watermarked, {"owner": key}),
            VerifyJob("b", "prod", quantized_awq4, {"owner": key}),
        ]
        dispatcher, outcomes = _run_jobs(dict(max_batch=8), jobs, engine)
        assert dispatcher.batches == 1  # both coalesced into one batch
        by_request = {o.request_id: o.decisions[0] for o in outcomes}
        assert by_request["a"].owned is True
        assert by_request["b"].owned is False
        # Both decisions still report the caller's suspect id.
        assert by_request["a"].suspect_id == "prod"
        assert by_request["b"].suspect_id == "prod"

    def test_queue_bound_raises(self, watermarked_and_key):
        watermarked, key = watermarked_and_key
        engine = WatermarkEngine(EngineConfig())

        async def main():
            dispatcher = MicroBatchDispatcher(engine, max_queue=2)
            # Not started: jobs stay queued, so the bound is reached.
            dispatcher.submit(VerifyJob("a", "hit", watermarked, {"k": key}))
            dispatcher.submit(VerifyJob("b", "hit", watermarked, {"k": key}))
            with pytest.raises(QueueFullError):
                dispatcher.submit(VerifyJob("c", "hit", watermarked, {"k": key}))
            dispatcher.start()
            await dispatcher.stop()

        asyncio.run(main())

    def test_max_batch_splits_load(self, watermarked_and_key):
        watermarked, key = watermarked_and_key
        engine = WatermarkEngine(EngineConfig())
        jobs = [
            VerifyJob(f"req-{i}", "hit", watermarked, {"owner": key}) for i in range(5)
        ]
        dispatcher, outcomes = _run_jobs(dict(max_batch=2), jobs, engine)
        assert dispatcher.batches == 3  # ceil(5 / 2)
        assert dispatcher.largest_batch <= 2
        assert len(outcomes) == 5

    def test_stats_shape(self, watermarked_and_key):
        watermarked, key = watermarked_and_key
        engine = WatermarkEngine(EngineConfig())
        jobs = [VerifyJob("r", "hit", watermarked, {"owner": key})]
        dispatcher, _ = _run_jobs(dict(max_batch=4), jobs, engine)
        stats = dispatcher.stats()
        assert stats["batches"] == 1
        assert stats["jobs_dispatched"] == 1
        assert stats["queue_depth"] == 0
        assert stats["mean_batch_size"] == 1.0


class _BacklogEngine:
    """Stub engine whose first sweep calls :attr:`on_first_sweep` before it runs.

    Batches run on the event loop, so nothing else can be submitted while
    one runs; the hook stands in for the requests that arrive meanwhile.  It
    records each sweep's suspects and delegates the arithmetic to a real
    engine, so outcomes stay genuine verdicts.
    """

    def __init__(self):
        self.engine = WatermarkEngine(EngineConfig())
        self.on_first_sweep = lambda: None
        self.sweeps = []

    def verify_fleet(self, suspects, keys, **kwargs):
        self.sweeps.append(len(suspects))
        if len(self.sweeps) == 1:
            self.on_first_sweep()
        return self.engine.verify_fleet(suspects, keys, **kwargs)


async def _yield_to_loop(times=10):
    """Let ready callbacks run without letting any timer come due."""
    for _ in range(times):
        await asyncio.sleep(0)


class TestBacklogCoalescing:
    def test_lone_job_runs_at_once_and_backlog_forms_next_batch(
        self, watermarked_and_key, quantized_awq4
    ):
        watermarked, key = watermarked_and_key
        engine = _BacklogEngine()
        models = {"a": watermarked, "b": quantized_awq4, "c": watermarked.clone()}

        async def main():
            dispatcher = MicroBatchDispatcher(engine, max_batch=8)
            futures = {}

            def arrive_while_a_runs():
                assert dispatcher.batches == 1
                for name in ("b", "c"):
                    futures[name] = dispatcher.submit(
                        VerifyJob(name, name, models[name], {"owner": key})
                    )
                assert dispatcher.depth == 2

            engine.on_first_sweep = arrive_while_a_runs
            dispatcher.start()
            await _yield_to_loop()  # consumer parks on the empty queue
            futures["a"] = dispatcher.submit(VerifyJob("a", "a", models["a"], {"owner": key}))
            # With the queue otherwise empty, A's batch runs within a few
            # loop turns: no window holds it open for followers.
            await _yield_to_loop()
            assert futures["a"].done()
            outcomes = {name: await future for name, future in futures.items()}
            await dispatcher.stop()
            return dispatcher, outcomes

        dispatcher, outcomes = asyncio.run(main())
        assert dispatcher.batches == 2
        assert dispatcher.largest_batch == 2
        assert engine.sweeps == [1, 2]
        assert outcomes["a"].batch_size == 1
        assert outcomes["b"].batch_id == outcomes["c"].batch_id != outcomes["a"].batch_id
        assert outcomes["b"].batch_size == outcomes["c"].batch_size == 2
        owned = {name: o.decisions[0].owned for name, o in outcomes.items()}
        assert owned == {"a": True, "b": False, "c": True}


class TestQueueAccounting:
    def test_queue_and_verify_seconds_fit_inside_the_wall_time(self, watermarked_and_key):
        """``queue_seconds`` is enqueue-to-outcome minus the engine call, so
        with ``verify_seconds`` it never exceeds enqueue-to-resolution."""
        watermarked, key = watermarked_and_key
        engine = WatermarkEngine(EngineConfig())
        jobs = [
            VerifyJob(f"req-{i}", "hit", watermarked, {"owner": key}) for i in range(5)
        ]

        async def main():
            dispatcher = MicroBatchDispatcher(engine, max_batch=2)
            dispatcher.start()
            resolved = {}
            futures = []
            for job in jobs:
                future = dispatcher.submit(job)
                future.add_done_callback(
                    lambda _f, rid=job.request_id: resolved.setdefault(rid, time.perf_counter())
                )
                futures.append(future)
            outcomes = await asyncio.gather(*futures)
            await dispatcher.stop()
            return outcomes, resolved

        outcomes, resolved = asyncio.run(main())
        enqueued = {job.request_id: job.enqueued_at for job in jobs}
        for outcome in outcomes:
            wall = resolved[outcome.request_id] - enqueued[outcome.request_id]
            assert 0.0 <= outcome.queue_seconds
            assert 0.0 < outcome.verify_seconds
            assert outcome.queue_seconds + outcome.verify_seconds <= wall
        # Later batches waited behind earlier ones; that wait is queue time.
        last = max(outcomes, key=lambda o: o.batch_id)
        first = min(outcomes, key=lambda o: o.batch_id)
        assert last.queue_seconds >= first.verify_seconds
