"""Pluggable job executors: serial, and a pool of worker processes.

Both backends run :func:`~repro.engine.job.execute_job` over a job list
and preserve input order.  ``run(jobs, on_result)`` also reports each
result as it lands, as ``on_result(index, result)`` on the caller's
thread, which is how :class:`~repro.engine.api.Engine` makes every
result durable in its cache before the next one is reported.  Because
a job spec fully determines its simulation (seeded traces, no
wall-clock anywhere in the model) and results round-trip losslessly
through ``SimResult.to_dict``/``from_dict``, the two backends are
bit-identical — the equivalence test in
``tests/unit/test_engine.py`` pins that guarantee.

The default backend is picked from the ``REPRO_JOBS`` environment variable
(or an explicit ``--jobs`` flag further up): ``<= 1`` means serial,
anything larger a pool of that many worker processes.
"""

from __future__ import annotations

import asyncio
import os
import weakref
from collections.abc import Callable

from repro.engine.cache import ResultCache
from repro.engine.job import SimJob, execute_job
from repro.engine.queue import JobQueue, WorkerPool, gather_results
from repro.pipeline.result import SimResult

#: Environment variable selecting the default parallelism.
JOBS_ENV = "REPRO_JOBS"

#: ``on_result(index, result)``: called once per job as its result lands.
OnResult = Callable[[int, SimResult], None]

#: Upper clamp for the worker count: a typo'd ``REPRO_JOBS=1000000`` must
#: not spawn a million processes.  Far above any sane machine, far below
#: any fork bomb.
MAX_JOBS = 512


class SerialExecutor:
    """Run jobs one after the other in the current process."""

    def run(self, jobs: list[SimJob],
            on_result: OnResult | None = None) -> list[SimResult]:
        results = []
        for i, job in enumerate(jobs):
            results.append(execute_job(job))
            if on_result is not None:
                on_result(i, results[-1])
        return results

    def describe(self) -> str:
        return "serial"


def _shutdown(loop: asyncio.AbstractEventLoop, queue: JobQueue) -> None:
    """Stop *queue* (its workers and private trace store), close *loop*."""
    try:
        loop.run_until_complete(queue.stop())
    finally:
        loop.close()


class PoolExecutor:
    """Run jobs on the service's :class:`~repro.engine.queue.JobQueue`.

    A synchronous adapter: the executor owns a private event loop and one
    ``JobQueue(WorkerPool(jobs))``, and :meth:`run` drives the queue on
    that loop until the batch resolves.  Everything a daemon's pool does
    comes with it: a dead worker's job is requeued on a replacement (at
    most :data:`~repro.engine.queue.MAX_JOB_ATTEMPTS` dispatches),
    ``$REPRO_JOB_TIMEOUT`` kills a hung worker, the workers share one
    trace store in which each cold trace is generated once, and the
    ``worker.execute`` chaos site fires.  A job that raises fails the
    batch with :class:`~repro.engine.queue.JobFailed` once every other
    job of the batch has landed.

    ``on_result`` runs in the coroutine :meth:`run` drives, as each
    job's future resolves, so an exception it raises propagates out of
    :meth:`run`; the batch's unfinished jobs are then cancelled.

    Construction spawns nothing: the pool starts on the first
    :meth:`run` and is kept for the executor's life, so later batches
    reuse its workers and its trace store.  :meth:`close` stops it (a
    later :meth:`run` starts a new one); collection or interpreter exit
    stops it too.
    """

    def __init__(self, jobs: int):
        if jobs < 2:
            raise ValueError("PoolExecutor needs >= 2 workers; use SerialExecutor")
        self.jobs = int(jobs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: JobQueue | None = None
        self._closer: weakref.finalize | None = None

    def run(self, jobs: list[SimJob],
            on_result: OnResult | None = None) -> list[SimResult]:
        if not jobs:
            return []
        if self._queue is None:
            self._start()
        return self._loop.run_until_complete(self._run(jobs, on_result))

    async def _run(self, jobs: list[SimJob],
                   on_result: OnResult | None) -> list[SimResult]:
        futures, _ = self._queue.submit(jobs)
        slots: dict[asyncio.Future, list[int]] = {}
        for i, future in enumerate(futures):
            slots.setdefault(future, []).append(i)
        waiting = set(slots)
        try:
            while waiting:
                landed, waiting = await asyncio.wait(
                    waiting, return_when=asyncio.FIRST_COMPLETED)
                if on_result is None:
                    continue
                for future in sorted(landed, key=lambda f: slots[f][0]):
                    if future.exception() is None:
                        for i in slots[future]:
                            on_result(i, future.result())
        except BaseException:
            for future in slots:
                if not future.done():
                    future.cancel()
                elif not future.cancelled():
                    future.exception()  # retrieved, so never logged
            raise
        return await gather_results(futures)

    def _start(self) -> None:
        loop = asyncio.new_event_loop()
        # Admission control is for a daemon's clients; a local batch of
        # any size is always taken whole.
        queue = JobQueue(WorkerPool(self.jobs), cache=ResultCache(None),
                         max_depth=0)
        try:
            loop.run_until_complete(queue.start())
        except BaseException:
            _shutdown(loop, queue)
            raise
        self._loop, self._queue = loop, queue
        self._closer = weakref.finalize(self, _shutdown, loop, queue)

    def close(self) -> None:
        """Stop the workers and remove a private trace store (idempotent)."""
        if self._closer is not None:
            self._closer()
        self._loop = self._queue = self._closer = None

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
