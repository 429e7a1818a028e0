"""How traces reach workers: one shared trace store per worker pool.

Jobs fan out to worker processes in one place, the
:class:`~repro.engine.queue.JobQueue` — a daemon's, or the one a local
:class:`~repro.engine.executors.PoolExecutor` drives.  Its
:class:`~repro.engine.queue.WorkerPool` hands every worker one store
(:func:`~repro.workloads.store.shared_trace_store`): the configured
``$REPRO_TRACE_DIR`` one, or a private temporary one removed when the
pool stops.  The first job of a cold trace generates it in a worker; the
trace's other jobs wait for that job and then load it.
"""

import asyncio
import os
import signal
import tempfile
import time

import pytest

from repro.engine.cache import ResultCache
from repro.engine.executors import PoolExecutor, SerialExecutor
from repro.engine.job import SimJob, execute_job
from repro.engine.queue import JobFailed, JobQueue, WorkerPool, _Worker
from repro.workloads import catalog, names
from repro.workloads.store import TRACE_DIR_ENV, TraceStore

TINY = dict(n_uops=800, warmup=400)

#: Two jobs per trace, each trace's jobs adjacent in the queue, so a
#: second job of a cold trace is next in line while the first generates.
GRID = [SimJob.make(w, p, **TINY)
        for w in ("gzip", "gcc", "crafty") for p in ("none", "lvp")]
UNIQUE_TRACES = 3


@pytest.fixture(autouse=True)
def private_tmp(monkeypatch, tmp_path):
    """No configured store; private stores land under this test's tmp."""
    monkeypatch.delenv(TRACE_DIR_ENV, raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    catalog.clear_trace_cache()
    yield tmp_path
    catalog.clear_trace_cache()


def _private_stores(root) -> list[str]:
    return [name for name in os.listdir(root)
            if name.startswith("repro-traces-")]


def _serial(jobs):
    return [r.to_dict() for r in SerialExecutor().run(jobs)]


def test_trace_identity_names_generated_traces_only():
    job = SimJob.make("gzip", **TINY)
    assert job.trace_identity() == ("gzip", names.resolve_seed("gzip"))
    # Never generated: unknown names (the worker raises).
    assert SimJob.make("no-such-workload").trace_identity() is None


class TestPoolExecutor:
    def test_pool_results_equal_serial(self):
        reference = _serial(GRID)
        catalog.clear_trace_cache()
        assert [r.to_dict() for r in PoolExecutor(2).run(GRID)] == reference

    def test_private_store_filled_once_then_removed(self, private_tmp):
        executor = PoolExecutor(2)
        try:
            executor.run(GRID)
            store = executor._queue.pool.trace_store
            directory, entries = store.directory, store.stats()["entries"]
        finally:
            executor.close()
        assert directory.parent == private_tmp
        assert entries == UNIQUE_TRACES
        assert _private_stores(private_tmp) == []

    def test_later_runs_reuse_the_workers_and_the_store(self, monkeypatch,
                                                        private_tmp):
        """Batches on one executor: the first run generates each trace
        once; the next run loads every one of them."""
        executor = PoolExecutor(2)
        try:
            executor.run(GRID[::2])
            pool = executor._queue.pool
            pids, store = pool.worker_pids(), pool.trace_store
            stored = []
            real_assign = _Worker.assign

            def recording_assign(worker, task_id, job_dict, fault=None):
                job = SimJob.from_dict(job_dict)
                stored.append(store.contains(
                    job.workload, job.warmup + job.n_uops,
                    job.trace_identity()[1]))
                return real_assign(worker, task_id, job_dict, fault)

            monkeypatch.setattr(_Worker, "assign", recording_assign)
            results = executor.run(GRID[1::2])
            assert stored == [True] * UNIQUE_TRACES
            assert pool.worker_pids() == pids
            assert pool.trace_store is store
        finally:
            executor.close()
        assert [r.to_dict() for r in results] == _serial(GRID[1::2])
        assert not store.directory.exists()


def _run_queue(jobs, workers=2, inspect=None):
    """Run *jobs* through a fresh queue; *inspect(queue)* runs before stop."""
    async def scenario():
        q = JobQueue(WorkerPool(workers), cache=ResultCache(None))
        await q.start()
        try:
            results = await q.run_jobs(jobs)
            return results, (inspect(q) if inspect else None)
        finally:
            await q.stop()

    return asyncio.run(scenario())


class TestJobQueue:
    @staticmethod
    def _recorded_run(monkeypatch, jobs):
        """Run *jobs* on two workers; returns the results, the private
        store's directory and entry count and one ``(task id, trace key,
        generating task, stored)`` row per dispatch."""
        q = JobQueue(WorkerPool(2), cache=ResultCache(None))
        dispatches = []
        real_assign = _Worker.assign

        def recording_assign(worker, task_id, job_dict, fault=None):
            job = SimJob.from_dict(job_dict)
            ident = job.trace_identity()
            dispatches.append((
                task_id, ident, q._generating.get(ident),
                q.pool.trace_store.contains(
                    ident[0], job.warmup + job.n_uops, ident[1])))
            return real_assign(worker, task_id, job_dict, fault)

        monkeypatch.setattr(_Worker, "assign", recording_assign)

        async def scenario():
            await q.start()
            try:
                results = await q.run_jobs(jobs)
                store = q.pool.trace_store
                return results, store.directory, store.stats()["entries"]
            finally:
                await q.stop()

        results, directory, entries = asyncio.run(scenario())
        return results, directory, entries, dispatches

    def test_cold_grid_generates_each_trace_once(self, monkeypatch,
                                                 private_tmp):
        results, directory, entries, dispatches = self._recorded_run(
            monkeypatch, GRID)
        assert [r.to_dict() for r in results] == _serial(GRID)
        # While running: one private-store entry per unique trace.
        assert directory.parent == private_tmp
        assert entries == UNIQUE_TRACES
        assert not directory.exists()
        # A job of a trace absent from the store is only ever dispatched
        # as that trace's generator; every other job found it stored.
        for task_id, _ident, generator, stored in dispatches:
            assert generator == task_id or stored
        generators = [d for d in dispatches if d[2] == d[0]]
        assert sorted(d[1][0] for d in generators) == \
            ["crafty", "gcc", "gzip"]
        assert len(dispatches) == len(GRID)

    def test_two_lengths_of_one_trace_longer_first_generate_once(
            self, monkeypatch):
        jobs = [SimJob.make("gzip", "lvp", n_uops=1600, warmup=400),
                SimJob.make("gzip", "none", **TINY)]
        results, _, entries, dispatches = self._recorded_run(monkeypatch,
                                                             jobs)
        assert [r.to_dict() for r in results] == _serial(jobs)
        assert entries == 1
        assert [d[2] == d[0] for d in dispatches] == [True, False]
        assert dispatches[1][3]  # the shorter job found its slice stored

    def test_event_loop_never_generates_a_trace(self):
        before = catalog.generation_count()
        results, _ = _run_queue(GRID[:2], workers=1)
        assert catalog.generation_count() == before
        assert catalog.trace_cache_stats()["entries"] == 0
        assert [r.to_dict() for r in results] == _serial(GRID[:2])

    def test_stop_removes_the_private_store(self, private_tmp):
        async def scenario():
            q = JobQueue(WorkerPool(1), cache=ResultCache(None))
            await q.start()
            directory = q.pool.trace_store.directory
            await q.run_jobs(GRID[:1])
            existed = directory.is_dir()
            await q.stop()
            return directory, existed, directory.exists()

        directory, existed, exists_after_stop = asyncio.run(scenario())
        assert directory.parent == private_tmp
        assert existed
        assert not exists_after_stop
        assert _private_stores(private_tmp) == []

    def test_configured_store_is_used_and_kept(self, monkeypatch,
                                               private_tmp):
        configured = private_tmp / "traces"
        monkeypatch.setenv(TRACE_DIR_ENV, str(configured))
        _, directory = _run_queue(
            GRID, inspect=lambda q: q.pool.trace_store.directory)
        assert directory == configured
        assert TraceStore(configured).stats()["entries"] == UNIQUE_TRACES
        assert _private_stores(private_tmp) == []

    def test_job_error_releases_the_held_trace(self):
        bad = SimJob.make("gzip", "no-such-predictor", **TINY)
        good = SimJob.make("gzip", "lvp", **TINY)

        async def scenario():
            q = JobQueue(WorkerPool(2), cache=ResultCache(None))
            await q.start()
            try:
                futures, _ = q.submit([bad, good])
                outcome = await asyncio.gather(*futures,
                                               return_exceptions=True)
                return outcome, dict(q._generating)
            finally:
                await q.stop()

        (error, result), generating = asyncio.run(scenario())
        assert isinstance(error, JobFailed)
        assert result.to_dict() == execute_job(good).to_dict()
        assert generating == {}

    def test_sigkilled_worker_job_is_requeued(self):
        jobs = [SimJob.make(w, "vtage", n_uops=12000, warmup=6000)
                for w in ("gzip", "gcc", "crafty", "applu")]

        async def scenario():
            q = JobQueue(WorkerPool(2), cache=ResultCache(None))
            await q.start()
            try:
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
                return results, q.stats, dict(q._generating)
            finally:
                await q.stop()

        results, stats, generating = asyncio.run(scenario())
        assert stats.requeued >= 1
        assert generating == {}
        assert [r.to_dict() for r in results] == _serial(jobs)
