"""Asynchronous job queue on a persistent worker pool (the service core).

The batch engine (:mod:`repro.engine.api`) forks a fresh pool per
``run_jobs`` call; a long-lived daemon cannot afford that, so this module
provides the two pieces the service is built from:

* a :class:`WorkerPool` of **persistent** worker processes, each with a
  private task queue and exactly one in-flight job, so the parent always
  knows which job a worker holds — when a worker dies (OOM, ``SIGKILL``,
  a crashing job) its job is *requeued*, never lost, and a replacement
  worker is spawned;
* an asyncio :class:`JobQueue` that accepts :class:`~repro.engine.job.SimJob`
  batches from any number of concurrent clients and **coalesces** them:
  results already in the shared :class:`~repro.engine.cache.ResultCache`
  resolve immediately, jobs spec-identical to one already in flight
  attach to the same future (one simulation, many waiters), and only
  genuinely new work reaches the pool.  Completed jobs are written to the
  cache and, optionally, to a :class:`~repro.engine.checkpoint.CampaignJournal`
  so a restarted daemon replays instead of re-simulating.

Determinism makes all of this safe: a job spec fully determines its
result, so re-executing a requeued job — even one whose first completion
message raced the worker's death — is bit-identical, and duplicate
completions are simply ignored.

See DESIGN.md, "Service architecture" and docs/architecture.md.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import queue as stdlib_queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.engine import faults
from repro.engine.cache import ResultCache
from repro.engine.checkpoint import CampaignJournal
from repro.engine.job import SimJob, execute_job
from repro.engine.shm import (
    NEEDS_GENERATION,
    SharedTraceRegistry,
    adopt_shared_trace,
    prepare_trace,
)
from repro.pipeline.result import SimResult

#: Seconds between watchdog sweeps for dead workers.
WATCHDOG_INTERVAL = 0.1

#: Seconds the drain thread blocks on the result queue per poll.
DRAIN_POLL = 0.2

#: Environment variable bounding the queue depth (admission control);
#: unset/0 means unbounded.  A submit whose *new* jobs would push the
#: outstanding depth past the bound is rejected whole with
#: :class:`QueueOverloaded` (the protocol turns that into an
#: ``overloaded`` response) instead of growing daemon memory without
#: limit under a client stampede.
QUEUE_BOUND_ENV = "REPRO_QUEUE_BOUND"

#: Environment variable with the per-dispatch job timeout in seconds;
#: unset/0 disables it.  A worker that holds one assignment longer than
#: this is killed and replaced, and its job requeued — a wedged worker
#: (or an injected hang) costs one timeout, not the daemon.
JOB_TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"

#: Most times one job is dispatched before the queue gives up on it and
#: fails its future: survives transient worker deaths, converts a
#: permanently hanging/crashing job into a typed error instead of an
#: infinite kill-requeue loop.
MAX_JOB_ATTEMPTS = 3


class JobFailed(RuntimeError):
    """A worker reported an exception while executing a job."""


class QueueClosed(RuntimeError):
    """The queue was stopped while jobs were still outstanding."""


class QueueOverloaded(RuntimeError):
    """Admission control rejected a batch: the queue bound is reached.

    The service maps this to an explicit ``overloaded`` protocol
    response; well-behaved clients back off and retry.
    """


def _positive_env(name: str) -> float | None:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def resolve_queue_bound(explicit: int | None = None) -> int | None:
    """The queue-depth bound: explicit value, else ``$REPRO_QUEUE_BOUND``.

    ``None``/``0`` disables admission control (unbounded, the default).
    """
    if explicit is not None:
        return int(explicit) if explicit > 0 else None
    value = _positive_env(QUEUE_BOUND_ENV)
    return int(value) if value else None


def resolve_job_timeout(explicit: float | None = None) -> float | None:
    """The per-dispatch timeout: explicit value, else ``$REPRO_JOB_TIMEOUT``.

    ``None``/``0`` disables the watchdog timeout (the default).
    """
    if explicit is not None:
        return float(explicit) if explicit > 0 else None
    return _positive_env(JOB_TIMEOUT_ENV)


def _mp_context():
    """The ``spawn`` start method, unconditionally.

    The batch :class:`~repro.engine.executors.PoolExecutor` prefers
    ``fork`` (cheap, and its parent is single-threaded at fork time), but
    this pool replaces dead workers from a parent that already runs the
    drain thread and queue feeder threads — ``fork()`` from a
    multi-threaded process is deadlock-prone and deprecated on Python
    3.12+.  Workers are persistent, so the per-spawn interpreter cost is
    paid once per worker lifetime, not per batch.
    """
    return multiprocessing.get_context("spawn")


def _worker_main(worker_id: int, task_q, result_q) -> None:
    """Worker process entry: execute jobs until the ``None`` sentinel.

    Tasks may carry a shared-trace spec (:mod:`repro.engine.shm`): the
    worker adopts the parent-materialised trace into its local cache
    before executing, falling back to a local build on any failure.  Job
    exceptions are reported as ``error`` messages instead of killing the
    worker — a malformed spec must not cost a pool slot.

    Tasks may also carry a fault directive: the *parent* evaluates the
    ``worker.execute`` chaos site at dispatch time (keeping the seeded
    schedule in one process) and the worker merely acts it out — crash
    (``os._exit``), hang, slow-down or a raised error.  The surrounding
    requeue/timeout machinery is exercised exactly as a real failure
    would.
    """
    while True:
        item = task_q.get()
        if item is None:
            return
        task_id, job_dict, trace_spec, fault = item
        try:
            if fault is not None:
                faults.apply_worker_fault(fault)
            if trace_spec is not None:
                adopt_shared_trace(trace_spec)
            payload = execute_job(SimJob.from_dict(job_dict)).to_dict()
        except Exception as exc:  # noqa: BLE001 - forwarded to the parent
            result_q.put(("error", worker_id, task_id,
                          f"{type(exc).__name__}: {exc}"))
        else:
            result_q.put(("done", worker_id, task_id, payload))


class _Worker:
    """One pool slot: a process, its private task queue, its in-flight job.

    The private queue is what makes crash recovery exact: at most one
    task is ever inside a worker, and the parent recorded it in
    :attr:`current` before sending it, so a dead worker's job is known —
    no shared-queue guessing about who picked up what.
    """

    def __init__(self, ctx, worker_id: int, result_q):
        self.id = worker_id
        self.task_q = ctx.Queue()
        # (task_id, job_dict, lease_key): the lease key (or None) names the
        # shared-trace segment this assignment holds a reference on, so
        # whoever clears the assignment also releases the lease.
        self.current: tuple[int, dict, tuple | None] | None = None
        #: Monotonic timestamp of the current assignment (job-timeout
        #: enforcement); ``None`` while idle.
        self.started: float | None = None
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.task_q, result_q),
            daemon=True,
        )
        self.process.start()

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    def assign(self, task_id: int, job_dict: dict,
               trace_spec: dict | None = None,
               lease_key: tuple | None = None,
               fault: tuple | None = None) -> None:
        assert self.current is None, "worker already holds a task"
        self.current = (task_id, job_dict, lease_key)
        self.started = time.monotonic()
        self.task_q.put((task_id, job_dict, trace_spec, fault))

    def describe(self) -> dict:
        """Status row for the service ``status`` op."""
        task = None
        if self.current is not None:
            task = SimJob.from_dict(self.current[1]).label()
        return {"id": self.id, "pid": self.pid, "alive": self.alive(),
                "task": task}


class WorkerPool:
    """A fixed-size pool of persistent simulation worker processes.

    Workers survive across batches (no per-run fork cost) and are
    replaced transparently when they die; :meth:`reap_dead` returns the
    orphaned in-flight tasks so the caller can requeue them.
    """

    def __init__(self, workers: int = 1):
        self.size = max(1, int(workers))
        self._ctx = _mp_context()
        self.result_queue = self._ctx.Queue()
        self._workers: list[_Worker] = []
        self._next_id = 0
        self.restarts = 0

    def start(self) -> None:
        """Spawn the worker processes (idempotent)."""
        while len(self._workers) < self.size:
            self._workers.append(self._spawn())

    def _spawn(self) -> _Worker:
        worker = _Worker(self._ctx, self._next_id, self.result_queue)
        self._next_id += 1
        return worker

    def worker(self, worker_id: int) -> _Worker | None:
        for worker in self._workers:
            if worker.id == worker_id:
                return worker
        return None

    def idle_workers(self) -> list[_Worker]:
        return [w for w in self._workers if w.current is None and w.alive()]

    def worker_pids(self) -> list[int]:
        return [w.pid for w in self._workers if w.pid is not None]

    def reap_dead(self) -> list[tuple[int, dict, tuple | None]]:
        """Replace dead workers; return the assignments they were holding
        (``(task_id, job_dict, lease_key)`` — the caller requeues the task
        and releases the shared-trace lease).

        Worker ids are never reused, so a completion message a worker
        managed to send just before dying can still be attributed (and a
        stale one can never be mistaken for the replacement's work).
        """
        orphaned: list[tuple[int, dict, tuple | None]] = []
        for slot, worker in enumerate(self._workers):
            if worker.alive():
                continue
            if worker.current is not None:
                orphaned.append(worker.current)
                worker.current = None
            self._workers[slot] = self._spawn()
            self.restarts += 1
        return orphaned

    def stop(self, timeout: float = 2.0) -> None:
        """Shut every worker down (sentinel, then terminate stragglers)."""
        for worker in self._workers:
            try:
                worker.task_q.put(None)
            except (OSError, ValueError):  # queue already torn down
                pass
        for worker in self._workers:
            worker.process.join(timeout=timeout)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=timeout)
        self._workers.clear()

    def describe(self) -> list[dict]:
        return [worker.describe() for worker in self._workers]


@dataclass
class QueueStats:
    """Lifetime counters of one :class:`JobQueue` (the ``status`` op body)."""

    submitted: int = 0   # jobs received by submit()
    cache_hits: int = 0  # answered straight from the shared result cache
    coalesced: int = 0   # attached to a spec-identical in-flight job
    executed: int = 0    # simulations actually run by the pool
    errors: int = 0      # jobs a worker reported an exception for
    requeued: int = 0    # jobs re-dispatched after their worker died
    rejected: int = 0    # batches refused by admission control
    timeouts: int = 0    # workers killed for exceeding the job timeout
    exhausted: int = 0   # jobs failed after MAX_JOB_ATTEMPTS dispatches
    journal_failures: int = 0  # journal appends that failed (degraded mode)

    def to_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "executed": self.executed,
            "errors": self.errors,
            "requeued": self.requeued,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "exhausted": self.exhausted,
            "journal_failures": self.journal_failures,
        }


@dataclass
class _Task:
    """Parent-side record of one enqueued (not yet completed) job."""

    job: SimJob
    key: str
    future: asyncio.Future = field(repr=False)
    #: Dispatches so far: bumped per assignment; at
    #: :data:`MAX_JOB_ATTEMPTS` a requeue becomes a :class:`JobFailed`.
    attempts: int = 0


class JobQueue:
    """Asyncio front half of the service: dedupe, dispatch, recover.

    One instance serves every client connection of a daemon.  All methods
    except the drain thread's internals run on the owning event loop, so
    no locking is needed: completions from worker processes are marshalled
    onto the loop with ``call_soon_threadsafe``.
    """

    def __init__(
        self,
        pool: WorkerPool,
        cache: ResultCache | None = None,
        journal: CampaignJournal | None = None,
        max_depth: int | None = None,
        job_timeout: float | None = None,
    ):
        self.pool = pool
        self.cache = cache if cache is not None else ResultCache(None)
        self.journal = journal
        #: Admission-control bound on outstanding depth (None = unbounded).
        self.max_depth = resolve_queue_bound(max_depth)
        #: Per-dispatch wall-clock budget (None = no timeout).
        self.job_timeout = resolve_job_timeout(job_timeout)
        self.stats = QueueStats()
        # Shared-memory trace plane: the daemon materialises each unique
        # trace once and leases read-only segments to worker assignments
        # (disabled or failing, workers just build locally).  Generator
        # runs happen off the event loop: tasks whose trace needs building
        # wait in _pending while a thread prepares it (_preparing keys).
        self.traces = SharedTraceRegistry()
        self._preparing: set[tuple] = set()
        self._prepare_failed: set[tuple] = set()
        self._tasks: dict[int, _Task] = {}
        self._inflight: dict[str, int] = {}   # content key -> task id
        self._pending: deque[int] = deque()
        self._next_task = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._drain: threading.Thread | None = None
        self._watchdog: asyncio.Task | None = None
        self._stopping = False

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Start the pool, the result drain thread and the watchdog."""
        self._loop = asyncio.get_running_loop()
        self.pool.start()
        self._drain = threading.Thread(target=self._drain_loop, daemon=True,
                                       name="jobqueue-drain")
        self._drain.start()
        self._watchdog = asyncio.get_running_loop().create_task(self._watch())

    async def stop(self) -> None:
        """Stop the pool; outstanding futures fail with :class:`QueueClosed`."""
        self._stopping = True
        if self._watchdog is not None:
            self._watchdog.cancel()
            try:
                await self._watchdog
            except asyncio.CancelledError:
                pass
            self._watchdog = None
        self.pool.stop()
        self.traces.close()
        if self._drain is not None:
            self._drain.join(timeout=2 * DRAIN_POLL + 1.0)
            self._drain = None
        for task in self._tasks.values():
            if not task.future.done():
                task.future.set_exception(
                    QueueClosed("job queue stopped before the job completed")
                )
        self._tasks.clear()
        self._inflight.clear()
        self._pending.clear()

    # -- submission ------------------------------------------------------

    def submit(self, jobs: list[SimJob]) -> tuple[list[asyncio.Future], dict]:
        """Enqueue a batch; returns one future per job, in submission order.

        The summary dict says how this batch was satisfied — ``cache_hits``
        (answered immediately), ``coalesced`` (attached to in-flight work,
        possibly another client's), ``enqueued`` (new simulations) — which
        is what the round-trip tests use to prove cross-client sharing.

        Admission control: with :attr:`max_depth` set, a batch whose
        genuinely *new* jobs (cache hits and coalesced jobs are free —
        they add no work) would push the outstanding depth past the bound
        raises :class:`QueueOverloaded` **before mutating any state**, so
        a rejected batch leaves no half-enqueued residue and the client
        can retry the whole thing after backing off.
        """
        assert self._loop is not None, "start() the queue before submitting"
        # Phase 1: classify without mutating, so the batch can be rejected
        # atomically.  Cache stats are counted here (the single cache.get
        # per job); phase 2 reuses the classification.
        plan: list[tuple[str, object]] = []
        new_keys: set[str] = set()
        for job in jobs:
            cached = self.cache.get(job)
            if cached is not None:
                plan.append(("hit", cached))
                continue
            key = job.content_key()
            if key in self._inflight or key in new_keys:
                plan.append(("coalesce", key))
            else:
                new_keys.add(key)
                plan.append(("new", key))
        if self.max_depth is not None \
                and self.depth + len(new_keys) > self.max_depth:
            self.stats.rejected += 1
            raise QueueOverloaded(
                f"queue depth {self.depth} + {len(new_keys)} new jobs "
                f"exceeds the bound of {self.max_depth}; retry after "
                "backoff"
            )
        # Phase 2: commit.  Intra-batch duplicates coalesce onto the task
        # their first occurrence created (phase 1 marked them "coalesce").
        futures: list[asyncio.Future] = []
        summary = {"jobs": len(jobs), "cache_hits": 0, "coalesced": 0,
                   "enqueued": 0}
        for job, (kind, value) in zip(jobs, plan):
            self.stats.submitted += 1
            if kind == "hit":
                future = self._loop.create_future()
                future.set_result(value)
                self.stats.cache_hits += 1
                summary["cache_hits"] += 1
                futures.append(future)
                continue
            key = value
            task_id = self._inflight.get(key)
            if task_id is not None:
                self.stats.coalesced += 1
                summary["coalesced"] += 1
                futures.append(self._tasks[task_id].future)
                continue
            task_id = self._next_task
            self._next_task += 1
            task = _Task(job=job, key=key, future=self._loop.create_future())
            self._tasks[task_id] = task
            self._inflight[key] = task_id
            self._pending.append(task_id)
            summary["enqueued"] += 1
            futures.append(task.future)
        self._feed()
        return futures, summary

    async def run_jobs(self, jobs: list[SimJob]) -> list[SimResult]:
        """Submit and await one batch (results in submission order)."""
        futures, _ = self.submit(jobs)
        return list(await asyncio.gather(*futures))

    @property
    def depth(self) -> int:
        """Jobs enqueued or in flight (not yet completed)."""
        return len(self._tasks)

    def describe(self) -> dict:
        return {
            "workers": self.pool.describe(),
            "depth": self.depth,
            "pending": len(self._pending),
            "max_depth": self.max_depth,
            "job_timeout": self.job_timeout,
            "restarts": self.pool.restarts,
            "stats": self.stats.to_dict(),
            "traces": self.traces.stats(),
        }

    def health(self) -> dict:
        """Liveness and degradation snapshot (the service ``health`` op).

        ``degraded`` flags are lifetime counters of failures the daemon
        absorbed instead of dying: journal appends that failed (results
        still served from cache), cache persists that failed (results
        still in memory), shared-memory materialisations that fell back
        to local rebuilds.  ``degraded_mode`` is their disjunction — the
        "keep serving, but look at me" signal for operators.
        """
        workers = self.pool.describe()
        alive = sum(1 for w in workers if w["alive"])
        busy = sum(1 for w in workers if w["task"] is not None)
        degraded = {
            "journal_failures": self.stats.journal_failures,
            "cache_write_failures": self.cache.write_failures,
            "shm_failures": self.traces.failures,
        }
        return {
            "ok": alive > 0,
            "workers": {"total": len(workers), "alive": alive, "busy": busy},
            "depth": self.depth,
            "pending": len(self._pending),
            "max_depth": self.max_depth,
            "job_timeout": self.job_timeout,
            "restarts": self.pool.restarts,
            "rejected": self.stats.rejected,
            "timeouts": self.stats.timeouts,
            "degraded": degraded,
            "degraded_mode": any(v for v in degraded.values()),
        }

    # -- dispatch / completion ------------------------------------------

    def _feed(self) -> None:
        """Hand pending tasks to idle workers (FIFO).

        Each assignment leases the job's trace from the shared-memory
        plane; the lease is released when the assignment clears —
        completion, error or worker death.  Leases that would require a
        *generator run* are not served on the event loop: the task is
        deferred (keeping its queue position) while :func:`prepare_trace`
        builds the trace on the default thread-pool executor, and the
        completion callback seeds the cache and re-feeds.  The loop — and
        every other client's ping/submit/status — stays responsive while
        cold traces build.
        """
        idle = self.pool.idle_workers()
        deferred: list[int] = []
        while self._pending and idle:
            task_id = self._pending.popleft()
            task = self._tasks.get(task_id)
            if task is None or task.future.done():
                # Resolved while queued (stale completion after a requeue).
                continue
            job = task.job
            leased = self.traces.lease(job.workload,
                                       job.warmup + job.n_uops, job.seed,
                                       generate=False)
            if leased is NEEDS_GENERATION:
                ident = self._job_ident(job)
                if ident is not None and ident not in self._prepare_failed:
                    self._start_prepare(ident)
                    deferred.append(task_id)
                    continue
                leased = None  # preparation failed before: dispatch bare
            lease_key, spec = leased if leased is not None else (None, None)
            task.attempts += 1
            # Chaos: the parent evaluates the worker.execute site here so
            # the seeded hit counter lives in exactly one process; the
            # worker just acts the directive out (crash/hang/slow/error).
            rule = faults.fire("worker.execute")
            fault = None if rule is None else \
                {"action": rule.action, "arg": rule.arg}
            idle.pop().assign(task_id, job.to_dict(), spec, lease_key, fault)
        for task_id in reversed(deferred):
            self._pending.appendleft(task_id)

    @staticmethod
    def _job_ident(job: SimJob) -> tuple | None:
        """The trace identity a job simulates, or ``None`` if unknowable."""
        from repro.workloads.catalog import resolve_seed

        try:
            return (job.workload, job.warmup + job.n_uops,
                    resolve_seed(job.workload, job.seed))
        except KeyError:
            return None

    def _start_prepare(self, ident: tuple) -> None:
        """Build one trace identity on the thread-pool executor (once)."""
        from repro.workloads.catalog import seed_trace

        if ident in self._preparing:
            return
        self._preparing.add(ident)

        def _done(future) -> None:
            # Runs on the event loop: installing into the catalog cache
            # (and re-feeding) stays single-threaded.
            self._preparing.discard(ident)
            trace = None if future.cancelled() else future.result()
            if trace is not None:
                seed_trace(ident[0], ident[1], ident[2], trace)
            else:
                # prepare_trace swallowed the real error; the bare
                # dispatch below lets the worker raise it properly.
                self.traces.failures += 1
                self._prepare_failed.add(ident)
            if not self._stopping:
                self._feed()

        # run_in_executor returns an asyncio.Future: done callbacks are
        # already marshalled onto the loop.
        self._loop.run_in_executor(
            None, prepare_trace, ident[0], ident[1], ident[2]
        ).add_done_callback(_done)

    def _drain_loop(self) -> None:
        """Forward worker completions onto the event loop (thread body)."""
        while not self._stopping:
            try:
                message = self.pool.result_queue.get(timeout=DRAIN_POLL)
            except stdlib_queue.Empty:
                continue
            except Exception:  # noqa: BLE001 - e.g. a torn pickle left by a
                # worker killed mid-write; the watchdog requeues that
                # worker's job, so the damaged message is droppable — but
                # the drain thread itself must survive, or no completion
                # would ever reach the loop again.
                continue
            try:
                self._loop.call_soon_threadsafe(self._on_message, message)
            except RuntimeError:  # loop already closed: shutting down
                return

    def _on_message(self, message: tuple) -> None:
        # Runs on the event loop.  The cache/journal writes below are
        # synchronous (the journal fsyncs) — a deliberate tradeoff: the
        # write must be durable *before* the future resolves, and the
        # rate is bounded by the worker pool (one small write per
        # completed multi-millisecond simulation), so the loop stall is
        # noise next to simulation time.
        kind, worker_id, task_id, payload = message
        worker = self.pool.worker(worker_id)
        if worker is not None and worker.current is not None \
                and worker.current[0] == task_id:
            lease_key = worker.current[2]
            worker.current = None
            worker.started = None
            if lease_key is not None:
                self.traces.release(lease_key)
        task = self._tasks.pop(task_id, None)
        if task is None:
            # Duplicate completion: the job finished once on a worker that
            # then died and once more after the requeue.  Determinism makes
            # the copies identical; drop the straggler.
            self._feed()
            return
        self._inflight.pop(task.key, None)
        if kind == "done":
            result = SimResult.from_dict(payload)
            self.cache.put(task.job, result)
            if self.journal is not None:
                # A failed append degrades instead of killing the daemon:
                # the result is already in the cache layer and the future
                # below must resolve either way (an exception here would
                # orphan every waiter).  Journaling stops entirely after
                # the first failure — the append may have left a torn
                # half-record, and writing *after* it would fuse two
                # records into one corrupt line; leaving the tear at EOF
                # lets the next startup's loader truncate it cleanly.
                # health() surfaces the count as a degraded-mode flag.
                try:
                    self.journal.record(task.job, result)
                except OSError:
                    self.stats.journal_failures += 1
                    try:
                        self.journal.close()
                    except OSError:
                        pass
                    self.journal = None
            self.stats.executed += 1
            if not task.future.done():
                task.future.set_result(result)
        else:
            self.stats.errors += 1
            if not task.future.done():
                task.future.set_exception(JobFailed(payload))
        self._feed()

    async def _watch(self) -> None:
        """Requeue jobs orphaned by worker deaths; spawn replacements.

        A dead worker's shared-trace lease is released here — the segment
        usually stays resident (idle LRU) so the respawned assignment's
        re-lease is a pure reuse, not a rebuild.

        With :attr:`job_timeout` set, a worker holding one assignment past
        the budget is killed here (``SIGKILL``: a wedged worker won't run
        a signal handler) and reaped as dead on the same sweep, so the
        hang costs one timeout instead of wedging a pool slot forever.
        Requeues are bounded: a job on its :data:`MAX_JOB_ATTEMPTS`-th
        failed dispatch fails its future with :class:`JobFailed` instead
        of being requeued, converting a deterministic crash/hang into a
        typed error rather than an infinite kill-respawn loop.
        """
        while True:
            await asyncio.sleep(WATCHDOG_INTERVAL)
            if self.job_timeout is not None:
                now = time.monotonic()
                for worker in list(self.pool._workers):
                    if (
                        worker.current is not None
                        and worker.started is not None
                        and now - worker.started > self.job_timeout
                        and worker.alive()
                    ):
                        self.stats.timeouts += 1
                        worker.process.kill()
                        worker.process.join(timeout=1.0)
            orphaned = self.pool.reap_dead()
            for task_id, _job_dict, lease_key in orphaned:
                if lease_key is not None:
                    self.traces.release(lease_key)
                task = self._tasks.get(task_id)
                if task is None:
                    continue
                if task.attempts >= MAX_JOB_ATTEMPTS:
                    self.stats.exhausted += 1
                    self._tasks.pop(task_id, None)
                    self._inflight.pop(task.key, None)
                    if not task.future.done():
                        task.future.set_exception(JobFailed(
                            f"job {task.job.label()} lost its worker "
                            f"{task.attempts} times (crash or timeout); "
                            "giving up"
                        ))
                    continue
                self.stats.requeued += 1
                self._pending.appendleft(task_id)
            if orphaned:
                self._feed()
