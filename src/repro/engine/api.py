"""The experiment engine: batch execution of job grids with caching.

Every driver (``runner``, campaigns, ``reproduce``, the CLI, the
benchmark harness) funnels simulations through an :class:`Engine`, which
composes one executor with one result cache:

* duplicate jobs inside a batch run once (content-key deduplication);
* previously-seen jobs are answered from the cache (memory, then disk);
* only the remaining misses go to the executor, in submission order.

``default_engine()`` builds a process-wide engine from the environment
(``REPRO_JOBS``, ``REPRO_CACHE_DIR``); ``configure_default_engine`` lets
entry points (CLI ``--jobs``, ``reproduce --jobs``) override it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.engine.cache import ResultCache, default_cache_dir
from repro.engine.executors import (
    OnResult,
    PoolExecutor,
    SerialExecutor,
    make_executor,
)
from repro.engine.job import SimJob
from repro.pipeline.result import SimResult


class Engine:
    """One executor + one result cache; the unit every driver talks to."""

    def __init__(
        self,
        executor: SerialExecutor | PoolExecutor | None = None,
        cache: ResultCache | None = None,
    ):
        self.executor = executor if executor is not None else make_executor()
        self.cache = cache if cache is not None else ResultCache(default_cache_dir())

    def describe(self) -> str:
        where = self.cache.directory or "memory-only"
        return f"executor={self.executor.describe()} cache={where}"

    def run_jobs(self, jobs: Sequence[SimJob],
                 on_result: OnResult | None = None) -> list[SimResult]:
        """Run a batch of jobs; returns results in submission order.

        Cache hits never reach the executor, and spec-identical jobs in
        one batch are simulated exactly once.  Each result is written to
        the cache as it lands, before ``on_result(index, result)``
        reports it: a cache hit at once, a simulated job as the executor
        finishes it.  So with a disk cache every reported result is
        durable, and a rerun after a kill answers it as a hit.
        """
        results: list[SimResult | None] = [None] * len(jobs)
        slots: dict[str, list[int]] = {}
        pending_jobs: list[SimJob] = []
        for i, job in enumerate(jobs):
            cached = self.cache.get(job)
            if cached is not None:
                results[i] = cached
                if on_result is not None:
                    on_result(i, cached)
                continue
            key = job.content_key()
            if key in slots:
                slots[key].append(i)
            else:
                slots[key] = [i]
                pending_jobs.append(job)
        positions = list(slots.values())

        def land(j: int, result: SimResult) -> None:
            self.cache.put(pending_jobs[j], result)
            for i in positions[j]:
                results[i] = result
                if on_result is not None:
                    on_result(i, result)

        if pending_jobs:
            self.executor.run(pending_jobs, land)
        return results  # type: ignore[return-value]

    def run_job(self, job: SimJob) -> SimResult:
        return self.run_jobs([job])[0]


# ---------------------------------------------------------------------------
# Process-wide default engine.
# ---------------------------------------------------------------------------

_DEFAULT_ENGINE: Engine | None = None


def default_engine() -> Engine:
    """The process-wide engine, built lazily from the environment."""
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        _DEFAULT_ENGINE = Engine()
    return _DEFAULT_ENGINE


def configure_default_engine(
    jobs: int | None = None,
    cache_dir: str | None = None,
) -> Engine:
    """Rebuild the default engine with explicit knobs.

    ``jobs=None`` / ``cache_dir=None`` fall back to ``REPRO_JOBS`` /
    ``REPRO_CACHE_DIR``; an empty ``cache_dir`` string forces a
    memory-only cache regardless of the environment.  Returns the new
    engine.
    """
    global _DEFAULT_ENGINE
    if cache_dir is None:
        directory = default_cache_dir()
    else:
        directory = cache_dir or None
    _DEFAULT_ENGINE = Engine(executor=make_executor(jobs),
                             cache=ResultCache(directory))
    return _DEFAULT_ENGINE


def reset_default_engine() -> None:
    """Drop the default engine (next use rebuilds from the environment)."""
    global _DEFAULT_ENGINE
    _DEFAULT_ENGINE = None


def run_jobs(jobs: Sequence[SimJob], engine: Engine | None = None) -> list[SimResult]:
    """Run a batch on *engine* (default: the process-wide engine)."""
    return (engine or default_engine()).run_jobs(jobs)

