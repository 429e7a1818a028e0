"""Pluggable job executors: serial and multiprocessing pool.

Both backends map :func:`~repro.engine.job.execute_job` over a job list and
preserve input order.  Because a job spec fully determines its simulation
(seeded traces, no wall-clock anywhere in the model) and results round-trip
losslessly through ``SimResult.to_dict``/``from_dict``, the two backends
are bit-identical — the equivalence test in
``tests/unit/test_engine.py`` pins that guarantee.

The default backend is picked from the ``REPRO_JOBS`` environment variable
(or an explicit ``--jobs`` flag further up): ``<= 1`` means serial,
anything larger a pool of that many worker processes.
"""

from __future__ import annotations

import multiprocessing
import os

from repro.engine import faults
from repro.engine.job import SimJob, execute_job
from repro.pipeline.result import SimResult
from repro.workloads.store import TRACE_DIR_ENV, shared_trace_store

#: Environment variable selecting the default parallelism.
JOBS_ENV = "REPRO_JOBS"

#: Upper clamp for the worker count: a typo'd ``REPRO_JOBS=1000000`` must
#: not fork a million processes.  Far above any sane machine, far below
#: any fork bomb.
MAX_JOBS = 512


class SerialExecutor:
    """Run jobs one after the other in the current process."""

    jobs = 1

    def run(self, jobs: list[SimJob]) -> list[SimResult]:
        return [execute_job(job) for job in jobs]

    def describe(self) -> str:
        return "serial"


def _use_trace_store(directory: str) -> None:
    """Pool initializer: point this worker's trace store at *directory*."""
    os.environ[TRACE_DIR_ENV] = directory


def _execute_to_dict(job: SimJob) -> dict:
    """Worker entry point: run one job, return its lossless dict payload.

    Chaos: the ``worker.execute`` site fires here too, but with
    ``allow_fatal=False`` — a ``multiprocessing.Pool`` cannot survive a
    dead worker (``pool.map`` would raise for the whole batch), so
    ``crash``/``hang`` directives degrade to a raised error.  The
    persistent service pool (:mod:`repro.engine.queue`) is where fatal
    worker faults are exercised for real.
    """
    rule = faults.fire("worker.execute")
    if rule is not None:
        faults.apply_worker_fault({"action": rule.action, "arg": rule.arg},
                                  allow_fatal=False)
    return execute_job(job).to_dict()


class PoolExecutor:
    """Run jobs on a ``multiprocessing`` pool of worker processes.

    Results travel back as ``to_dict()`` payloads and are rebuilt in the
    parent, so the transport is exactly the round-trip the unit tests pin
    as lossless.  ``chunksize=1`` keeps scheduling fair when job costs vary
    by orders of magnitude (oracle vs hybrid predictors).

    Workers share one trace store (:func:`shared_trace_store`), and the
    pool runs in two passes: the first job of each trace absent from the
    store, then the rest.  Each such trace is generated once, by the
    worker that runs its first job, and every later job loads it from
    the store.
    """

    def __init__(self, jobs: int):
        if jobs < 2:
            raise ValueError("PoolExecutor needs >= 2 workers; use SerialExecutor")
        self.jobs = int(jobs)

    def run(self, jobs: list[SimJob]) -> list[SimResult]:
        if not jobs:
            return []
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        workers = min(self.jobs, len(jobs))
        if workers < 2:
            return SerialExecutor().run(jobs)
        payloads: list[dict | None] = [None] * len(jobs)
        with shared_trace_store() as store, ctx.Pool(
            processes=workers, initializer=_use_trace_store,
            initargs=(str(store.directory),),
        ) as pool:
            firsts: list[int] = []
            rest: list[int] = []
            cold: set[tuple] = set()
            for index, job in enumerate(jobs):
                ident = job.trace_identity()
                if ident is None or ident in cold \
                        or store.contains(*ident):
                    rest.append(index)
                else:
                    cold.add(ident)
                    firsts.append(index)
            for batch in (firsts, rest):
                done = pool.map(_execute_to_dict, [jobs[i] for i in batch],
                                chunksize=1)
                for index, payload in zip(batch, done):
                    payloads[index] = payload
        return [SimResult.from_dict(payload) for payload in payloads]

    def describe(self) -> str:
        return f"pool({self.jobs})"


def _coerce_jobs(value) -> int | None:
    """Best-effort integer coercion; ``None`` when the value is unusable.

    Accepts ints, numeric strings and float spellings (``"4.0"``) —
    environment variables arrive as text from shells, Makefiles and CI
    matrices, and a sloppy spelling should degrade, not crash.
    """
    try:
        return int(value)
    except (TypeError, ValueError):
        pass
    try:
        return int(float(value))
    except (TypeError, ValueError, OverflowError):
        return None


def resolve_jobs(jobs: int | None = None) -> int:
    """Pick the parallelism: explicit value wins, then ``REPRO_JOBS``.

    Bad values clamp instead of crashing: non-numeric input falls
    through (explicit → environment → 1), values below 1 clamp to 1
    (serial), and anything above :data:`MAX_JOBS` clamps to
    :data:`MAX_JOBS`.
    """
    for candidate in (jobs, os.environ.get(JOBS_ENV, "").strip() or None):
        if candidate is None:
            continue
        n = _coerce_jobs(candidate)
        if n is not None:
            return min(MAX_JOBS, max(1, n))
    return 1


def make_executor(jobs: int | None = None) -> SerialExecutor | PoolExecutor:
    """Build the executor :func:`resolve_jobs` selects for *jobs*."""
    n = resolve_jobs(jobs)
    return SerialExecutor() if n <= 1 else PoolExecutor(n)
