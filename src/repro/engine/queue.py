"""Asynchronous job queue on a persistent worker pool.

Every run that fans jobs out to worker processes goes through this
module: a daemon or shard (:mod:`repro.engine.service`) and a local
``-j N`` run (:class:`~repro.engine.executors.PoolExecutor`, which drives
a queue on a private event loop).  It provides two pieces:

* a :class:`WorkerPool` of **persistent** worker processes, each with a
  private task pipe, a private result pipe and exactly one in-flight job,
  so the parent always knows which job a worker holds — when a worker
  dies (OOM, ``SIGKILL``, a crashing job) its job is *requeued*, never
  lost, and a replacement worker is started;
* an asyncio :class:`JobQueue` that accepts :class:`~repro.engine.job.SimJob`
  batches from any number of concurrent clients and **coalesces** them:
  results already in the shared :class:`~repro.engine.cache.ResultCache`
  resolve immediately, jobs spec-identical to one already in flight
  attach to the same future (one simulation, many waiters), and only
  genuinely new work reaches the pool.  Completed jobs are written to the
  cache before their futures resolve, so with a disk cache a restarted
  daemon answers them instead of re-simulating.

The queue starts no thread.  The event loop writes each task straight
into its worker's task pipe and watches every result pipe with
``loop.add_reader``, so a completion is handled by the loop itself, with
no thread handoff between a worker and the future it resolves.

A worker is a plain ``subprocess.Popen`` child: a fresh interpreter, with
the parent's ``sys.path`` and interpreter flags, that runs this module's
worker loop on two ``os.pipe()`` descriptors handed over with
``pass_fds`` (framed as :class:`multiprocessing.connection.Connection`
messages).  It imports the simulator, never the parent's ``__main__``, so
a driver script needs no ``__main__`` guard and may even come from stdin,
and no helper process rides along.  The parent process itself never loads
the simulator on the pool's account: a daemon stays free of numpy.  A
shard is therefore its daemon plus its workers.  POSIX only, like the
service.

Determinism makes all of this safe: a job spec fully determines its
result, so re-executing a requeued job — even one whose first completion
message raced the worker's death — is bit-identical, and duplicate
completions are simply ignored.

See DESIGN.md, "Service architecture" and docs/architecture.md.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import pickle
import struct
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection

from repro.engine import faults
from repro.engine.cache import ResultCache
from repro.engine.job import SimJob, execute_job
from repro.pipeline.result import SimResult
from repro.workloads.store import TRACE_DIR_ENV, TraceStore, shared_trace_store

#: Seconds between watchdog sweeps for dead workers.
WATCHDOG_INTERVAL = 0.1

#: Frame header of :class:`multiprocessing.connection.Connection`: the
#: payload length as a big-endian signed 32-bit integer.  (Payloads of
#: 2 GiB and more get a longer header; a result message is a few
#: hundred bytes.)
_FRAME = struct.Struct("!i")

#: Most bytes one read takes from a result pipe.
_READ_SIZE = 1 << 16

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


class WorkerStartError(RuntimeError):
    """A worker exited on its own before it was ready (it could not
    import :mod:`repro`, say): a reason no restart can fix."""


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


#: What a worker runs with ``python -c``: adopt the parent's ``sys.path``
#: (argv[1], JSON), then serve the task and result pipe descriptors
#: (argv[2], argv[3]) with :func:`_worker_main`.
_WORKER_ENTRY = (
    "import json, sys; sys.path[:] = json.loads(sys.argv[1]); "
    "from repro.engine.queue import _worker_main; "
    "_worker_main(int(sys.argv[2]), int(sys.argv[3]))"
)


def _pipe() -> tuple[Connection, Connection]:
    """A one-way pipe as ``(read end, write end)`` connections."""
    read_fd, write_fd = os.pipe()
    return (Connection(read_fd, writable=False),
            Connection(write_fd, readable=False))


async def gather_results(futures) -> list:
    """Await every future of a batch, then raise its first failure.

    A bare ``asyncio.gather`` raises at the first failure and never reads
    the futures that fail after it, which asyncio then reports as
    "exception was never retrieved".
    """
    results = await asyncio.gather(*futures, return_exceptions=True)
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def _worker_main(task_fd: int, result_fd: int) -> None:
    """Worker process entry: execute jobs until the task pipe closes.

    Every trace comes through the catalog (cache → store → generator),
    with the pool's shared store as ``$REPRO_TRACE_DIR``.  Job exceptions
    are reported as ``error`` messages instead of killing the worker — a
    malformed spec must not cost a pool slot.

    Tasks may also carry a fault directive: the *parent* evaluates the
    ``worker.execute`` chaos site at dispatch time (keeping the seeded
    schedule in one process) and the worker merely acts it out — crash
    (``os._exit``), hang, slow-down or a raised error.  The surrounding
    requeue/timeout machinery is exercised exactly as a real failure
    would.

    The first message is ``ready``, sent once the simulator is imported:
    a worker that exits before sending it failed to start, and a restart
    would fail the same way.  The parent holds the only write end of the
    task pipe, so a dead parent is EOF here and the worker exits.
    """
    tasks = Connection(task_fd, writable=False)
    results = Connection(result_fd, readable=False)
    # execute_job imports the simulator on first use; load it before
    # ready, so the first job pays simulation time only.
    import repro.experiments.runner  # noqa: F401

    results.send(("ready", None, None))
    while True:
        try:
            task_id, job_dict, fault = tasks.recv()
        except EOFError:
            return
        try:
            if fault is not None:
                faults.apply_worker_fault(fault)
            payload = execute_job(SimJob.from_dict(job_dict)).to_dict()
        except Exception as exc:  # noqa: BLE001 - forwarded to the parent
            results.send(("error", task_id, f"{type(exc).__name__}: {exc}"))
        else:
            results.send(("done", task_id, payload))


class _Worker:
    """One pool slot: a process, its private pipes, its in-flight job.

    The private pipes are what make crash recovery exact: at most one
    task is ever inside a worker, and the parent recorded it in
    :attr:`current` before sending it, so a dead worker's job is known —
    no shared-queue guessing about who picked up what — and everything
    on :attr:`results` came from this worker.
    """

    def __init__(self, worker_id: int, trace_dir: str):
        self.id = worker_id
        task_end, self.tasks = _pipe()
        self.results, result_end = _pipe()
        #: (task_id, job_dict) of the assignment in flight; ``None`` idle.
        self.current: tuple[int, dict] | None = None
        #: Monotonic timestamp of the current assignment (job-timeout
        #: enforcement); ``None`` while idle.
        self.started: float | None = None
        #: Whether the worker's ``ready`` message has been read.
        self.ready = False
        ends = (task_end.fileno(), result_end.fileno())
        try:
            self.process = subprocess.Popen(
                [sys.executable, *subprocess._args_from_interpreter_flags(),
                 "-c", _WORKER_ENTRY, json.dumps(sys.path),
                 *map(str, ends)],
                pass_fds=ends, stdin=subprocess.DEVNULL,
                env=dict(os.environ, **{TRACE_DIR_ENV: trace_dir}),
            )
        except BaseException:
            self.close()
            raise
        finally:
            # The child holds its own copies now.  Dropping the parent's
            # makes the worker's exit read as EOF on :attr:`results`.
            task_end.close()
            result_end.close()

    @property
    def pid(self) -> int:
        return self.process.pid

    def alive(self) -> bool:
        """Whether the worker runs; a dead one is reaped here."""
        return self.process.poll() is None

    def kill(self) -> None:
        """``SIGKILL`` the worker (a no-op once reaped) and reap it."""
        self.process.kill()
        with contextlib.suppress(subprocess.TimeoutExpired):
            self.process.wait(timeout=1.0)

    def assign(self, task_id: int, job_dict: dict,
               fault: dict | None = None) -> None:
        assert self.current is None, "worker already holds a task"
        self.current = (task_id, job_dict)
        self.started = time.monotonic()
        try:
            self.tasks.send((task_id, job_dict, fault))
        except (OSError, ValueError):
            # The worker died since it was picked as idle.  It keeps the
            # assignment, so reaping requeues it like any dead worker's.
            pass

    def close(self) -> None:
        """Close the parent's ends of both pipes."""
        self.tasks.close()
        self.results.close()

    def describe(self) -> dict:
        """Worker row of the service ``metrics`` op."""
        task = None
        if self.current is not None:
            task = SimJob.from_dict(self.current[1]).label()
        return {"id": self.id, "pid": self.pid, "alive": self.alive(),
                "task": task}


class WorkerPool:
    """A fixed-size pool of persistent simulation worker processes.

    Workers survive across batches (no per-batch start-up cost) and are
    replaced transparently when they die; :meth:`reap_dead` returns the
    orphaned in-flight tasks so the caller can requeue them.  Every
    worker, replacements included, shares :attr:`trace_store`
    (:func:`~repro.workloads.store.shared_trace_store`), held from
    :meth:`start` to :meth:`stop`.

    Each of :attr:`workers` exposes its ``tasks`` and ``results``
    connections; :class:`JobQueue` watches the result ends with
    ``loop.add_reader``.
    """

    def __init__(self, workers: int = 1):
        self.size = max(1, int(workers))
        self._workers: list[_Worker] = []
        self._next_id = 0
        self.restarts = 0
        self._store_scope = contextlib.ExitStack()
        self.trace_store: TraceStore | None = None

    def start(self) -> None:
        """Start the worker processes (idempotent)."""
        if self.trace_store is None:
            self.trace_store = self._store_scope.enter_context(
                shared_trace_store())
        while len(self._workers) < self.size:
            self._workers.append(self._start_worker())

    def _start_worker(self) -> _Worker:
        worker = _Worker(self._next_id, str(self.trace_store.directory))
        self._next_id += 1
        return worker

    @property
    def workers(self) -> tuple[_Worker, ...]:
        """The live pool slots (a snapshot; :meth:`reap_dead` replaces)."""
        return tuple(self._workers)

    def idle_workers(self) -> list[_Worker]:
        return [w for w in self._workers if w.current is None and w.alive()]

    def worker_pids(self) -> list[int]:
        return [w.pid for w in self._workers]

    def reap_dead(self, retire=None) -> list[tuple[int, dict]]:
        """Replace dead workers; return the assignments they were holding
        (``(task_id, job_dict)`` — the caller requeues the task).

        *retire(worker)*, when given, runs for each dead worker before
        its pipes close, while its result pipe still holds anything the
        worker sent before it died: :class:`JobQueue` reads that and
        stops watching the pipe there.  Worker ids are never reused, so a
        stale completion can never be mistaken for the replacement's.

        Raises :class:`WorkerStartError` for a worker that exited on its
        own (not killed by a signal) before it was ready.
        """
        orphaned: list[tuple[int, dict]] = []
        for slot, worker in enumerate(self._workers):
            if worker.alive():
                continue
            if retire is not None:
                retire(worker)
            code = worker.process.returncode
            if not worker.ready and code >= 0:
                raise WorkerStartError(
                    f"pool worker {worker.id} exited with code {code} "
                    "before it was ready (see its stderr above)")
            if worker.current is not None:
                orphaned.append(worker.current)
                worker.current = None
            worker.close()
            self._workers[slot] = self._start_worker()
            self.restarts += 1
        return orphaned

    def stop(self, timeout: float = 2.0) -> None:
        """Shut every worker down (task pipe closed, then stragglers
        killed) and reap it, then release the trace store (a private one
        is removed)."""
        for worker in self._workers:
            worker.tasks.close()
        for worker in self._workers:
            try:
                worker.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                worker.kill()
            worker.results.close()
        self._workers.clear()
        self._store_scope.close()
        self.trace_store = None

    def describe(self) -> list[dict]:
        return [worker.describe() for worker in self._workers]


@dataclass
class QueueStats:
    """Lifetime counters of one :class:`JobQueue` (``metrics.queue.stats``)."""

    submitted: int = 0   # jobs received by submit()
    cache_hits: int = 0  # answered straight from the shared result cache
    coalesced: int = 0   # attached to a spec-identical in-flight job
    executed: int = 0    # simulations actually run by the pool
    errors: int = 0      # jobs a worker reported an exception for
    requeued: int = 0    # jobs re-dispatched after their worker died
    rejected: int = 0    # batches refused by admission control
    timeouts: int = 0    # workers killed for exceeding the job timeout
    exhausted: int = 0   # jobs failed after MAX_JOB_ATTEMPTS dispatches

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
    """Asyncio front half of a worker pool: dedupe, dispatch, recover.

    One instance serves every client connection of a daemon, or every
    batch of a local :class:`~repro.engine.executors.PoolExecutor`.
    Everything runs on the owning event loop, so no locking is needed:
    the loop watches each worker's result pipe with ``add_reader`` (the
    replacement's too, on restart) and handles a completion in the
    reader callback.
    """

    def __init__(
        self,
        pool: WorkerPool,
        cache: ResultCache | None = None,
        max_depth: int | None = None,
        job_timeout: float | None = None,
    ):
        self.pool = pool
        self.cache = cache if cache is not None else ResultCache(None)
        #: Admission-control bound on outstanding depth (None = unbounded).
        self.max_depth = resolve_queue_bound(max_depth)
        #: Per-dispatch wall-clock budget (None = no timeout).
        self.job_timeout = resolve_job_timeout(job_timeout)
        self.stats = QueueStats()
        #: (workload, seed) -> id of the task whose worker generates its
        #: trace: the one in-flight job of a trace the store lacks or
        #: holds too short.
        self._generating: dict[tuple, int] = {}
        self._tasks: dict[int, _Task] = {}
        self._inflight: dict[str, int] = {}   # content key -> task id
        self._pending: deque[int] = deque()
        self._next_task = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Workers whose result pipe the loop watches -> the bytes read
        #: from it that do not make a whole message yet.
        self._inboxes: dict[_Worker, bytearray] = {}
        self._watchdog: asyncio.Task | None = None
        #: Why the pool cannot start workers; every later batch fails so.
        self._start_error: WorkerStartError | None = None

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Start the pool, watch its result pipes, start the watchdog."""
        self._loop = asyncio.get_running_loop()
        self.pool.start()
        self._watch_new_workers()
        self._watchdog = self._loop.create_task(self._watch())

    async def stop(self) -> None:
        """Stop the pool; outstanding futures fail with :class:`QueueClosed`."""
        if self._watchdog is not None:
            self._watchdog.cancel()
            try:
                await self._watchdog
            except asyncio.CancelledError:
                pass
            self._watchdog = None
        for worker in list(self._inboxes):
            self._unwatch(worker)
        self.pool.stop()
        self._fail_all(lambda: QueueClosed(
            "job queue stopped before the job completed"))

    def _fail_all(self, error) -> None:
        """Fail every outstanding job with a new ``error()``; forget them."""
        for task in self._tasks.values():
            if not task.future.done():
                task.future.set_exception(error())
        self._tasks.clear()
        self._inflight.clear()
        self._pending.clear()
        self._generating.clear()

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
        if self._start_error is not None:
            raise self._start_error
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
                task = self._tasks[task_id]
                if task.future.cancelled():
                    # Its waiter gave up; the job itself is still queued
                    # or running, so this batch takes it over.
                    task.future = self._loop.create_future()
                futures.append(task.future)
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
        return await gather_results(futures)

    @property
    def depth(self) -> int:
        """Jobs enqueued or in flight (not yet completed)."""
        return len(self._tasks)

    def describe(self) -> dict:
        """Workers, depth, bounds and counters: the ``metrics`` op's queue."""
        return {
            "workers": self.pool.describe(),
            "depth": self.depth,
            "pending": len(self._pending),
            "max_depth": self.max_depth,
            "job_timeout": self.job_timeout,
            "restarts": self.pool.restarts,
            "stats": self.stats.to_dict(),
        }

    # -- dispatch / completion ------------------------------------------

    def _feed(self) -> None:
        """Hand pending tasks to idle workers (FIFO).

        The first job of a trace the shared store lacks, or holds too
        short, generates it; the other jobs of its ``(workload, seed)``
        are deferred (keeping their queue position) until that job
        resolves, then load their slice from the store or, if it is still
        too short, generate in turn.  The event loop itself never builds
        a trace.
        """
        idle = self.pool.idle_workers()
        deferred: list[int] = []
        while self._pending and idle:
            task_id = self._pending.popleft()
            task = self._tasks.get(task_id)
            if task is None:
                # Resolved while queued (stale completion after a requeue).
                continue
            if task.future.cancelled():
                # Its waiter gave up before a worker took it: drop it.
                del self._tasks[task_id]
                self._inflight.pop(task.key, None)
                continue
            ident = task.job.trace_identity()
            if ident in self._generating:
                deferred.append(task_id)
                continue
            if ident is not None and not self.pool.trace_store.contains(
                    ident[0], task.job.warmup + task.job.n_uops, ident[1]):
                self._generating[ident] = task_id
            task.attempts += 1
            # Chaos: the parent evaluates the worker.execute site here so
            # the seeded hit counter lives in exactly one process; the
            # worker just acts the directive out (crash/hang/slow/error).
            rule = faults.fire("worker.execute")
            fault = None if rule is None else \
                {"action": rule.action, "arg": rule.arg}
            idle.pop().assign(task_id, task.job.to_dict(), fault)
        for task_id in reversed(deferred):
            self._pending.appendleft(task_id)

    def _release_trace(self, task_id: int, task: _Task) -> None:
        """Let a generating task's held jobs go: it completed, failed or
        lost its worker (a requeued job regenerates)."""
        ident = task.job.trace_identity()
        if self._generating.get(ident) == task_id:
            del self._generating[ident]

    def _watch_new_workers(self) -> None:
        """Watch the result pipe of every pool worker not yet watched."""
        for worker in self.pool.workers:
            if worker not in self._inboxes:
                self._inboxes[worker] = bytearray()
                self._loop.add_reader(worker.results.fileno(),
                                      self._on_readable, worker)

    def _unwatch(self, worker: _Worker) -> None:
        """Stop watching *worker*'s result pipe (before it closes: a
        closed descriptor's number is soon reused by a new pipe)."""
        if self._inboxes.pop(worker, None) is not None:
            self._loop.remove_reader(worker.results.fileno())

    def _retire(self, worker: _Worker) -> None:
        """Take what a dead worker sent before dying, then unwatch it.

        A completion found here resolves its job instead of the job being
        requeued and simulated again.  Reads happen only while the pipe
        polls readable, so this never blocks.
        """
        while worker in self._inboxes and worker.results.poll():
            self._on_readable(worker)
        self._unwatch(worker)

    def _on_readable(self, worker: _Worker) -> None:
        """Handle what *worker*'s result pipe holds (a loop callback).

        One read of a readable pipe never blocks.  A message split across
        reads waits in the worker's inbox for its tail, so a worker killed
        mid-write leaves a partial frame behind, not a stalled loop.  At
        EOF the pipe is unwatched; reaping the worker and requeueing its
        job stay with :meth:`_watch`.
        """
        try:
            chunk = os.read(worker.results.fileno(), _READ_SIZE)
        except OSError:
            chunk = b""
        if not chunk:
            self._unwatch(worker)
            return
        inbox = self._inboxes[worker]
        inbox += chunk
        while len(inbox) >= _FRAME.size:
            (size,) = _FRAME.unpack_from(inbox)
            end = _FRAME.size + size
            if len(inbox) < end:
                return
            frame = inbox[_FRAME.size:end]
            del inbox[:end]
            try:
                message = pickle.loads(frame)
            except Exception:  # noqa: BLE001 - no task to attribute it to:
                # the worker is killed, so reaping requeues its job.
                worker.kill()
                continue
            self._on_message(worker, message)

    def _on_message(self, worker: _Worker, message: tuple) -> None:
        # Runs on the event loop.  The cache write below is synchronous
        # (a disk cache fsyncs) — a deliberate tradeoff: the write must be
        # durable *before* the future resolves, and the rate is bounded by
        # the worker pool (one small write per completed multi-millisecond
        # simulation), so the loop stall is noise next to simulation time.
        kind, task_id, payload = message
        if kind == "ready":
            worker.ready = True
            return
        if worker.current is not None and worker.current[0] == task_id:
            worker.current = None
            worker.started = None
        task = self._tasks.pop(task_id, None)
        if task is None:
            # Duplicate completion: the job finished once on a worker that
            # then died and once more after the requeue.  Determinism makes
            # the copies identical; drop the straggler.
            self._feed()
            return
        self._inflight.pop(task.key, None)
        self._release_trace(task_id, task)
        if kind == "done":
            result = SimResult.from_dict(payload)
            self.cache.put(task.job, result)
            self.stats.executed += 1
            if not task.future.done():
                task.future.set_result(result)
        else:
            self.stats.errors += 1
            if not task.future.done():
                task.future.set_exception(JobFailed(payload))
        self._feed()

    async def _watch(self) -> None:
        """Requeue jobs orphaned by worker deaths; start replacements.

        With :attr:`job_timeout` set, a worker holding one assignment past
        the budget is killed here (``SIGKILL``: a wedged worker won't run
        a signal handler) and reaped as dead on the same sweep, so the
        hang costs one timeout instead of wedging a pool slot forever.
        Requeues are bounded: a job on its :data:`MAX_JOB_ATTEMPTS`-th
        failed dispatch fails its future with :class:`JobFailed` instead
        of being requeued, converting a deterministic crash/hang into a
        typed error rather than an infinite kill-restart loop.  A worker
        that could not start fails every outstanding job, and the queue,
        with :class:`WorkerStartError` instead.
        """
        while True:
            await asyncio.sleep(WATCHDOG_INTERVAL)
            if self.job_timeout is not None:
                now = time.monotonic()
                for worker in self.pool.workers:
                    if (
                        worker.current is not None
                        and worker.started is not None
                        and now - worker.started > self.job_timeout
                        and worker.alive()
                    ):
                        self.stats.timeouts += 1
                        worker.kill()
            try:
                orphaned = self.pool.reap_dead(retire=self._retire)
            except WorkerStartError as exc:
                self._start_error = exc
                self._fail_all(lambda: WorkerStartError(str(exc)))
                return
            self._watch_new_workers()
            for task_id, _job_dict in orphaned:
                task = self._tasks.get(task_id)
                if task is None:
                    continue
                self._release_trace(task_id, task)
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
