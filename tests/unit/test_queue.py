"""Unit tests for the service core: WorkerPool + asyncio JobQueue.

Small job slices keep these fast; the full daemon (socket protocol,
concurrent clients, CLI verbs) is covered by
``tests/integration/test_service.py``.
"""

import asyncio
import os
import pickle
import signal
import struct
import threading
import time
from types import SimpleNamespace

import pytest

from repro.engine.cache import ResultCache
from repro.engine.job import SimJob, execute_job
from repro.engine.queue import (
    JobFailed,
    JobQueue,
    QueueClosed,
    WorkerPool,
    _pipe,
)

TINY = dict(n_uops=800, warmup=400)


def job(workload="gzip", predictor="lvp", **kw):
    params = {**TINY, **kw}
    return SimJob.make(workload, predictor, **params)


async def _started_queue(workers=1, cache=None) -> JobQueue:
    q = JobQueue(WorkerPool(workers), cache=cache)
    await q.start()
    return q


def _wait_dead(pid: float, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


class TestWorkerPool:
    def test_clamps_to_at_least_one_worker(self):
        assert WorkerPool(0).size == 1
        assert WorkerPool(-3).size == 1

    def test_start_is_idempotent(self):
        pool = WorkerPool(2)
        try:
            pool.start()
            pids = pool.worker_pids()
            pool.start()
            assert pool.worker_pids() == pids
            assert len(pids) == 2
        finally:
            pool.stop()

    def test_reap_dead_replaces_worker_and_never_reuses_ids(self):
        pool = WorkerPool(2)
        try:
            pool.start()
            before = {w["id"] for w in pool.describe()}
            victim = pool.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                orphaned = pool.reap_dead()
                if pool.restarts:
                    break
                time.sleep(0.01)
            assert pool.restarts == 1
            assert orphaned == []  # the victim was idle: nothing to requeue
            after = {w["id"] for w in pool.describe()}
            assert len(after) == 2
            assert not (after - before) & before  # replacement id is new
            assert victim not in pool.worker_pids()
        finally:
            pool.stop()


class TestJobQueueBasics:
    def test_run_jobs_matches_execute_job_in_order(self):
        async def scenario():
            q = await _started_queue(workers=2)
            try:
                jobs = [job("gzip"), job("gcc"), job("gzip", "2dstride")]
                return await q.run_jobs(jobs), jobs
            finally:
                await q.stop()

        results, jobs = asyncio.run(scenario())
        expected = [execute_job(j) for j in jobs]
        assert [r.to_dict() for r in results] == [e.to_dict() for e in expected]

    def test_duplicate_jobs_in_one_batch_coalesce(self):
        async def scenario():
            q = await _started_queue()
            try:
                futures, summary = q.submit([job(), job(), job()])
                results = await asyncio.gather(*futures)
                return summary, results, q.stats
            finally:
                await q.stop()

        summary, results, stats = asyncio.run(scenario())
        assert summary == {"jobs": 3, "cache_hits": 0, "coalesced": 2,
                           "enqueued": 1}
        assert stats.executed == 1
        assert results[0].to_dict() == results[1].to_dict() == results[2].to_dict()

    def test_cache_answers_repeat_submissions(self):
        async def scenario():
            cache = ResultCache(None)
            q = await _started_queue(cache=cache)
            try:
                await q.run_jobs([job()])
                futures, summary = q.submit([job()])
                await asyncio.gather(*futures)
                return summary, q.stats
            finally:
                await q.stop()

        summary, stats = asyncio.run(scenario())
        assert summary["cache_hits"] == 1
        assert stats.executed == 1

    def test_cross_submission_inflight_sharing(self):
        async def scenario():
            q = await _started_queue()
            try:
                first, _ = q.submit([job("gcc", "vtage", n_uops=6000,
                                         warmup=3000)])
                # Second submission of the same spec while the first is
                # (almost surely) still simulating.
                second, summary = q.submit([job("gcc", "vtage", n_uops=6000,
                                                warmup=3000)])
                a, b = await asyncio.gather(first[0], second[0])
                return summary, a, b, q.stats
            finally:
                await q.stop()

        summary, a, b, stats = asyncio.run(scenario())
        assert summary["coalesced"] + summary["cache_hits"] == 1
        assert stats.executed == 1
        assert a.to_dict() == b.to_dict()

    def test_bad_job_fails_future_but_worker_survives(self):
        async def scenario():
            q = await _started_queue()
            try:
                futures, _ = q.submit([job(workload="no-such-workload")])
                with pytest.raises(JobFailed):
                    await futures[0]
                # The same worker still executes good jobs afterwards.
                result = (await q.run_jobs([job()]))[0]
                return result, q.stats, q.pool.restarts
            finally:
                await q.stop()

        result, stats, restarts = asyncio.run(scenario())
        assert stats.errors == 1
        assert stats.executed == 1
        assert restarts == 0
        assert result.to_dict() == execute_job(job()).to_dict()

    def test_cancelled_waiters_leave_no_stale_task(self):
        """A waiter that gives up cancels its futures: a running job is
        taken over by the next batch that asks for it, and a queued one
        is dropped instead of simulated."""
        async def scenario():
            q = await _started_queue()
            try:
                futures, _ = q.submit([job("gcc"), job("crafty")])
                for future in futures:
                    future.cancel()
                [again], summary = q.submit([job("gcc")])
                result = await again
                await q.run_jobs([job("vpr")])
                return summary, result, q.stats, q.depth
            finally:
                await q.stop()

        summary, result, stats, depth = asyncio.run(scenario())
        assert summary["coalesced"] == 1
        assert result.to_dict() == execute_job(job("gcc")).to_dict()
        assert stats.executed == 2  # gcc and vpr; crafty never ran
        assert depth == 0

    def test_stop_fails_outstanding_futures(self):
        async def scenario():
            q = await _started_queue()
            futures, _ = q.submit([job("gcc", "vtage", n_uops=8000,
                                       warmup=4000)])
            await q.stop()
            with pytest.raises(QueueClosed):
                await futures[0]

        asyncio.run(scenario())


class TestCrashRecovery:
    def test_sigkilled_worker_requeues_its_job(self):
        async def scenario():
            q = await _started_queue(workers=2)
            try:
                jobs = [job(w, "vtage", n_uops=12000, warmup=6000)
                        for w in ("gzip", "gcc", "crafty", "applu")]
                futures, _ = q.submit(jobs)
                victim = None
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    busy = [w for w in q.pool.describe()
                            if w["task"] and w["alive"]]
                    if busy:
                        victim = busy[0]["pid"]
                        break
                    await asyncio.sleep(0.01)
                assert victim is not None, "no worker ever went busy"
                os.kill(victim, signal.SIGKILL)
                results = await asyncio.gather(*futures)
                return jobs, results, q.stats, q.pool.restarts
            finally:
                await q.stop()

        jobs, results, stats, restarts = asyncio.run(scenario())
        assert restarts >= 1
        assert stats.requeued >= 1
        assert stats.executed == len(jobs)
        expected = [execute_job(j) for j in jobs]
        assert [r.to_dict() for r in results] == [e.to_dict() for e in expected]

    def test_sigkilled_busy_worker_then_next_submit_is_served(self):
        async def scenario():
            q = await _started_queue()
            try:
                slow = job("gcc", "vtage", n_uops=12000, warmup=6000)
                futures, _ = q.submit([slow])
                [worker] = q.pool.workers
                assert worker.current is not None
                os.kill(worker.pid, signal.SIGKILL)
                [killed] = await asyncio.gather(*futures)
                [after] = await q.run_jobs([job()])
                return slow, killed, after, q.stats, q.pool.restarts
            finally:
                await q.stop()

        slow, killed, after, stats, restarts = asyncio.run(scenario())
        assert restarts == 1 and stats.requeued == 1
        assert killed.to_dict() == execute_job(slow).to_dict()
        assert after.to_dict() == execute_job(job()).to_dict()

    def test_worker_killed_before_assign_gets_its_job_requeued(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            raised = []
            loop.set_exception_handler(lambda _loop, ctx: raised.append(ctx))
            q = await _started_queue()
            pick_idle = q.pool.idle_workers

            def idle_then_killed():
                # The worker dies after being picked, before its task
                # is sent.  Only the first dispatch is sabotaged.
                idle = pick_idle()
                for worker in idle:
                    worker.kill()
                q.pool.idle_workers = pick_idle
                return idle

            q.pool.idle_workers = idle_then_killed
            try:
                [result] = await q.run_jobs([job()])
                return result, q.stats, q.pool.restarts, raised
            finally:
                await q.stop()

        result, stats, restarts, raised = asyncio.run(scenario())
        assert raised == []
        assert restarts == 1 and stats.requeued == 1
        assert result.to_dict() == execute_job(job()).to_dict()


class TestTransport:
    def test_start_starts_no_thread(self):
        async def scenario():
            before = threading.active_count()
            q = await _started_queue(workers=2)
            try:
                started = threading.active_count()
                await q.run_jobs([job(), job("gcc")])
                return before, started, threading.active_count()
            finally:
                await q.stop()

        before, started, served = asyncio.run(scenario())
        assert before == started == served

    def test_reader_reassembles_split_messages_and_unwatches_at_eof(self):
        async def scenario():
            q = JobQueue(WorkerPool(1))
            q._loop = asyncio.get_running_loop()
            received = []
            q._on_message = lambda worker, message: received.append(message)
            results, writer = _pipe()
            fake = type("FakeWorker", (), {})()
            fake.results = results
            q.pool = SimpleNamespace(workers=(fake,))
            q._watch_new_workers()
            # A message framed by Connection.send is read whole.
            writer.send(("done", 1, {"a": 1}))
            q._on_readable(fake)
            # A frame split across writes waits for its tail.
            body = pickle.dumps(("error", 2, "x" * 10000))
            frame = struct.pack("!i", len(body)) + body
            os.write(writer.fileno(), frame[:7])
            q._on_readable(fake)
            partial = list(received)
            os.write(writer.fileno(), frame[7:])
            while len(received) < 2:
                q._on_readable(fake)
            writer.close()
            q._on_readable(fake)
            watched = fake in q._inboxes
            results.close()
            return partial, received, watched

        partial, received, watched = asyncio.run(scenario())
        assert partial == [("done", 1, {"a": 1})]
        assert received == [("done", 1, {"a": 1}), ("error", 2, "x" * 10000)]
        assert not watched
