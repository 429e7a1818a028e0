"""The local pool: ``PoolExecutor`` on the service's ``JobQueue``.

A ``-j N`` run gets the daemon's recovery for free: a worker that dies
mid-grid (SIGKILL, an injected crash) has its job requeued on a
replacement, and the grid still finishes bit-identical to the serial
executor.  The pool starts on the first ``run()``, not at construction,
and stops on ``close()``, on collection or at interpreter exit, taking
its workers and its private trace store with it.
"""

import contextlib
import gc
import glob
import json
import os
import signal
import subprocess
import sys
import tempfile
import textwrap

import pytest

import repro
from repro.engine import faults
from repro.engine.executors import PoolExecutor, SerialExecutor, make_executor
from repro.engine.job import SimJob
from repro.engine.queue import (
    JOB_TIMEOUT_ENV,
    QUEUE_BOUND_ENV,
    JobFailed,
    WorkerStartError,
    _Worker,
)
from repro.workloads import catalog
from repro.workloads.store import TRACE_DIR_ENV

TINY = dict(n_uops=800, warmup=400)

GRID = [SimJob.make(w, p, **TINY)
        for w in ("gzip", "gcc", "crafty") for p in ("none", "lvp")]

#: Seconds a pool run may take before the test fails instead of hanging.
DEADLINE = 120


@pytest.fixture(autouse=True)
def clean_env(monkeypatch, tmp_path):
    """No configured store, plan or knob; private stores under tmp."""
    for name in (TRACE_DIR_ENV, faults.FAULTS_ENV, faults.FAULTS_SEED_ENV,
                 QUEUE_BOUND_ENV, JOB_TIMEOUT_ENV):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    faults.reset()
    catalog.clear_trace_cache()
    yield
    faults.reset()
    catalog.clear_trace_cache()


@contextlib.contextmanager
def deadline(seconds: int = DEADLINE):
    """Raise in the main thread if the block outlives *seconds*."""
    def expire(signum, frame):
        raise TimeoutError(f"local pool still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _serial(jobs):
    return [r.to_dict() for r in SerialExecutor().run(jobs)]


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.mark.parametrize("death", ["sigkill", "injected-crash"])
def test_worker_death_is_requeued_bit_identical(monkeypatch, death):
    if death == "sigkill":
        # The worker given the grid's third job is killed right after
        # the job reaches it.
        real_assign = _Worker.assign
        assigned = []

        def killing_assign(worker, task_id, job_dict, fault=None):
            real_assign(worker, task_id, job_dict, fault)
            assigned.append(task_id)
            if len(assigned) == 3:
                os.kill(worker.pid, signal.SIGKILL)

        monkeypatch.setattr(_Worker, "assign", killing_assign)
    else:
        monkeypatch.setenv(faults.FAULTS_ENV, "worker.execute:crash@2")
        faults.reset()
    reference = _serial(GRID)
    executor = PoolExecutor(2)
    try:
        with deadline():
            results = executor.run(GRID)
        queue = executor._queue
        assert queue.pool.restarts == 1
        assert queue.stats.executed == len(GRID)
    finally:
        executor.close()
    assert [r.to_dict() for r in results] == reference


def test_queue_bound_does_not_reject_a_local_batch(monkeypatch):
    monkeypatch.setenv(QUEUE_BOUND_ENV, "1")
    executor = PoolExecutor(2)
    try:
        with deadline():
            results = executor.run(GRID)
    finally:
        executor.close()
    assert [r.to_dict() for r in results] == _serial(GRID)


def test_failed_job_raises_job_failed_with_the_type_name():
    bad = SimJob.make("gzip", "no-such-predictor", **TINY)
    with pytest.raises(Exception) as serial:
        SerialExecutor().run([bad])
    executor = PoolExecutor(2)
    try:
        with deadline(), pytest.raises(JobFailed) as pooled:
            executor.run([bad])
    finally:
        executor.close()
    assert str(pooled.value).startswith(f"{type(serial.value).__name__}: ")


def _children() -> set[int]:
    """Pids of this process's live children, from ``/proc``."""
    pids = set()
    for listed in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(listed) as fh:
            pids.update(int(pid) for pid in fh.read().split())
    return pids


def test_construction_spawns_nothing():
    before = _children()
    executor = make_executor(2)
    assert isinstance(executor, PoolExecutor)
    assert executor._queue is None
    assert _children() == before
    executor.close()  # never started: a no-op
    assert _children() == before


def test_a_worker_that_cannot_start_fails_the_pool_at_once(monkeypatch):
    # A worker adopts the parent's sys.path; without repro on it, the
    # worker dies importing its entry, before its ``ready`` message.  The
    # pool fails with a typed error instead of restarting workers until
    # each job has used up its attempts.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    monkeypatch.setattr(sys, "path", [p for p in sys.path
                                      if os.path.abspath(p or ".") != src])
    executor = PoolExecutor(2)
    try:
        with deadline(60), pytest.raises(WorkerStartError,
                                         match="before it was ready"):
            executor.run(GRID[:2])
        assert executor._queue.pool.restarts == 0
    finally:
        executor.close()


def test_collection_stops_the_pool(tmp_path):
    executor = PoolExecutor(2)
    with deadline():
        executor.run(GRID[:2])
    pool = executor._queue.pool
    pids, directory = pool.worker_pids(), pool.trace_store.directory
    assert directory.parent == tmp_path
    del executor, pool
    gc.collect()
    assert not directory.exists()
    assert all(_gone(pid) for pid in pids)


def test_unclosed_pool_is_stopped_at_exit(tmp_path):
    script = textwrap.dedent(f"""
        import json
        import tempfile
        from repro.engine.executors import PoolExecutor
        from repro.engine.job import SimJob

        tempfile.tempdir = {str(tmp_path)!r}
        executor = PoolExecutor(2)
        executor.run([SimJob.make("gzip", "lvp", **{TINY!r})])
        print(json.dumps(executor._queue.pool.worker_pids()))
    """)
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          cwd=os.path.join(os.path.dirname(__file__),
                                           "..", ".."),
                          capture_output=True, text=True, timeout=DEADLINE)
    assert proc.returncode == 0, proc.stderr
    pids = json.loads(proc.stdout)
    assert len(pids) == 2
    assert all(_gone(pid) for pid in pids)
    assert list(tmp_path.glob("repro-traces-*")) == []


def _report_loop_errors(executor) -> list:
    """Start *executor*'s loop and pool; collect what its loop reports."""
    with deadline():
        executor.run(GRID[:1])
    reported = []
    executor._loop.set_exception_handler(
        lambda loop, context: reported.append(context["message"]))
    return reported


def test_batch_with_two_failures_leaves_no_exception_unretrieved():
    bad = [SimJob.make(w, "no-such-predictor", **TINY)
           for w in ("gzip", "gcc")]
    executor = PoolExecutor(2)
    try:
        reported = _report_loop_errors(executor)
        with deadline(), pytest.raises(JobFailed):
            executor.run([bad[0], GRID[1], bad[1]])
    finally:
        executor.close()
    gc.collect()
    assert reported == []


def test_interrupted_batch_leaves_no_exception_unretrieved():
    # A batch cut short (here by a deadline) is failed with QueueClosed
    # at close; reading every future's outcome leaves nothing for
    # asyncio to report as "exception was never retrieved".
    executor = PoolExecutor(2)
    try:
        reported = _report_loop_errors(executor)
        faults.install_plan("worker.execute:hang:60@every=1", seed=0)
        with pytest.raises(TimeoutError), deadline(1):
            executor.run(GRID[1:3])
    finally:
        faults.install_plan(None)
        executor.close()
    gc.collect()
    assert reported == []


def test_stdin_driver_runs_its_jobs():
    # Workers import the simulator, never the parent's __main__, so a
    # driver fed on stdin (which is no file to re-import) runs its pool.
    script = textwrap.dedent(f"""
        from repro.engine.executors import PoolExecutor
        from repro.engine.job import SimJob

        results = PoolExecutor(2).run(
            [SimJob.make(w, "lvp", **{TINY!r}) for w in ("gzip", "gcc")])
        print(len(results))
    """)
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-"], input=script, env=env,
                          cwd=os.path.join(os.path.dirname(__file__),
                                           "..", ".."),
                          capture_output=True, text=True, timeout=DEADLINE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2"]


@pytest.mark.parametrize("n_jobs", [1, 20])
def test_unguarded_driver_file_runs_its_jobs(tmp_path, n_jobs):
    # A driver file with no ``if __name__ == "__main__"`` guard is never
    # re-run by a worker: it runs its jobs once and exits 0.
    driver = tmp_path / "driver.py"
    driver.write_text(textwrap.dedent(f"""
        from repro.engine.executors import PoolExecutor
        from repro.engine.job import SimJob

        jobs = [SimJob.make("gzip", "lvp", seed=seed, **{TINY!r})
                for seed in range({n_jobs})]
        print(len(PoolExecutor(2).run(jobs)))
    """))
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(driver)], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=DEADLINE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(n_jobs)]
