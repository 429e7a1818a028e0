"""The simulation service daemon: one cache, many clients.

``repro cluster serve`` runs a :class:`SimService`: a persistent process
that owns the result cache, listens on a TCP port, and feeds every
client's jobs through one :class:`~repro.engine.queue.JobQueue` on a
persistent :class:`~repro.engine.queue.WorkerPool`.  Because all clients
share the daemon's cache *and* its in-flight job set, overlapping
submissions from concurrent clients simulate each unique spec exactly
once — the "shared hot cache" serving story the ROADMAP asks for.

One daemon is a one-shard cluster: N daemons on N ports become shards
behind a :class:`~repro.engine.cluster.ShardRouter`
(:mod:`repro.engine.cluster`), and every client verb (``repro cluster
run``/``status``, ``repro chaos show``, ``--backend cluster`` campaigns)
talks to one daemon exactly as it talks to many.

**Auth** is always on: every request must carry the shared-secret
``"token"``; a mismatch is answered ``{"ok": false, "auth": true, ...}``
(constant-time compare), which clients raise as a non-retryable
:class:`~repro.engine.client.ServiceAuthError`.  The token comes from
``--token`` / ``$REPRO_SERVICE_TOKEN``; a daemon given neither generates
one and publishes ``{address, token}`` in the address file
(:data:`~repro.engine.client.ADDRESS_FILE`) in its working directory:
created mode 0600, so access is exactly as strict as the file; held
under a non-blocking flock, so a second such daemon in the same
directory is refused while a file left by a ``SIGKILL``-ed one is simply
taken over; and removed on a clean stop.  Clients that name no address
read it.  A daemon never opens a connection of its own: shards do not
talk to each other, and routers learn which shards are alive by probing
them (:class:`~repro.engine.cluster.ShardRouter`).

Results cross shards by one path only: the result cache.  Shards that
share ``$REPRO_CACHE_DIR`` publish every result there
(:meth:`~repro.engine.cache.ResultCache.put`: temp file, fsync, rename),
and a local miss reads through to it, so work one shard finished is
never re-simulated by another — with no protocol between shards.

Protocol: newline-delimited JSON request/response over the connection.
One request per line, one response line per request, connections may
pipeline many requests.  Requests are ``{"op": <name>, "token": ...,
...}``; responses are ``{"ok": true, ...}`` or ``{"ok": false, "error":
<message>}``.  Ops:

``ping``
    Liveness + server identity (pid, protocol version, worker count,
    serving address).
``submit``
    ``{"jobs": [<SimJob.to_dict()>, ...]}``.  The response carries the
    results, in submission order, once all jobs finish, and a
    ``summary`` of how the batch was satisfied (cache hits / coalesced /
    enqueued).  A client that hangs up and resubmits the same batch is
    answered from the same in-flight work or the cache: the content key
    is the only handle a batch needs.
``metrics``
    The daemon's one introspection op: identity, per-worker rows, queue
    pressure and lifetime counters, cache counters and degraded-mode
    flags, fault-plane state — one JSON object per shard, aggregated by
    ``repro cluster status``.  Cheap enough to poll: it touches no disk.
``chaos``
    The active fault-injection plan (:mod:`repro.engine.faults`) — site
    hit counts and fired rules.  Only served when the daemon was started
    with chaos enabled (``repro cluster serve --chaos``); refused
    otherwise.
``shutdown``
    Stop the daemon after acknowledging.

Overload: with a queue bound configured (``--queue-bound`` /
``$REPRO_QUEUE_BOUND``), a ``submit`` the queue cannot admit is answered
``{"ok": false, "overloaded": true, ...}`` — an explicit backpressure
signal the client turns into :class:`~repro.engine.client.ServiceOverloaded`
and retries with backoff, instead of the daemon either growing without
bound or silently hanging the caller.

Crash safety is the result cache's: with a disk cache (``--cache-dir``
/ ``$REPRO_CACHE_DIR``) every executed job is published (temp file,
fsync, rename) before its future resolves, so a daemon restarted on the
same directory answers everything it ever finished, and a dead shard's
completed work needs no hand-over.  Worker deaths are the queue's
business (it requeues).

See docs/architecture.md for the full data-flow picture.
"""

from __future__ import annotations

import asyncio
import fcntl
import hmac
import json
import os
import secrets
import signal
import sys
import time
from pathlib import Path

from repro.engine import faults
from repro.engine.cache import ResultCache, default_cache_dir
from repro.engine.client import (
    ADDRESS_FILE,
    TOKEN_ENV,
    ServiceError,
    canonical_address,
    parse_address,
)
from repro.engine.executors import resolve_jobs
from repro.engine.job import SimJob
from repro.engine.queue import (
    JobFailed,
    JobQueue,
    QueueOverloaded,
    WorkerPool,
    gather_results,
)

#: Where a daemon binds when no ``--listen`` is given: loopback, with a
#: kernel-picked port reported on the ready line.
DEFAULT_LISTEN = "127.0.0.1:0"

#: Wire protocol version, echoed by ``ping`` and checked by clients.
#: v2 added TCP transport, token auth and the ``metrics`` op; v3 dropped
#: the ``lookup`` and ``seed`` ops (results cross shards through a
#: shared cache directory instead); v4 dropped the service journal, and
#: with it the ``journal`` block of ``status``, the ``replay`` block of
#: ``metrics`` and the journal counter of ``health``'s ``degraded`` map;
#: v5 dropped the ``traces`` block of ``status`` and the shared-segment
#: failure counter of ``health``'s ``degraded`` map; v6 dropped the
#: shard-to-shard membership op, the ``membership`` and ``fallbacks``
#: blocks of ``metrics`` and the ``socket`` and ``peers`` fields of
#: ``ping``; v7 dropped the Unix-socket transport (every daemon is TCP
#: and requires a token), and with it the ``transport`` and ``auth``
#: fields of ``ping`` and the ``transport`` field of ``metrics.shard``;
#: v8 made ``metrics`` the one introspection op: it dropped the
#: ``status``, ``health`` and ``results`` ops, ``submit``'s ``wait`` field
#: and ticket, and the ``tickets`` and ``cache.disk_entries`` fields of
#: ``metrics``, which gained ``queue.workers``, ``queue.job_timeout`` and
#: ``cache.directory``.
PROTOCOL_VERSION = 8

#: Maximum request/response line length (a 20-job grid is ~20 KB).
MAX_LINE = 64 * 1024 * 1024

#: Most jobs one ``submit`` may carry — an admission bound on request
#: *width* to complement the queue-depth bound on request *volume*.
MAX_SUBMIT_JOBS = 4096


class SimService:
    """A running daemon: socket server + job queue + cache."""

    def __init__(
        self,
        *,
        listen: str = DEFAULT_LISTEN,
        workers: int | None = None,
        cache: ResultCache | None = None,
        max_depth: int | None = None,
        job_timeout: float | None = None,
        chaos: bool = False,
        token: str | None = None,
    ):
        #: TCP bind (host, port); port 0 lets the kernel pick.
        self.listen = parse_address(listen)
        #: Actual bound address (``tcp://host:port``) once started.
        self.listen_address: str | None = None
        #: The shared secret every request must carry: *token*, else
        #: ``$REPRO_SERVICE_TOKEN``, else generated here.
        self.token = token or os.environ.get(TOKEN_ENV, "").strip() or None
        #: The address file this daemon publishes, when it generated its
        #: own token (resolved now: a later ``chdir`` must not move it).
        self.address_file: Path | None = None
        if self.token is None:
            self.token = secrets.token_hex(16)
            self.address_file = Path(ADDRESS_FILE).resolve()
        self.workers = resolve_jobs(workers)
        self.cache = cache if cache is not None else ResultCache(default_cache_dir())
        self.max_depth = max_depth
        self.job_timeout = job_timeout
        #: Whether the ``chaos`` op is served (``--chaos``).
        self.chaos = bool(chaos)
        self.queue: JobQueue | None = None
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._stop_event: asyncio.Event | None = None
        self._address_fd: int | None = None
        self._started_at: float | None = None

    # -- lifecycle -------------------------------------------------------

    def _claim_address_file(self) -> None:
        """Create (or take over) :attr:`address_file`, locked and empty.

        The file is created mode 0600 (and re-chmodded, in case someone
        else created it), so only its owner can read the token.  The non-blocking flock refuses
        a second daemon on the same file; a file a ``SIGKILL``-ed daemon
        left behind carries no lock (the kernel dropped it with the fd)
        and is taken over.  If the path was unlinked or replaced between
        our open and our lock, we locked an orphan inode: retry.
        """
        path = self.address_file
        while True:
            fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o600)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                os.close(fd)
                raise ServiceError(
                    f"another repro daemon holds {path}; stop it first, "
                    "or start this one elsewhere or with --token") from None
            try:
                current = os.stat(path)
            except FileNotFoundError:
                current = None
            if current is not None and os.path.samestat(current,
                                                        os.fstat(fd)):
                break
            os.close(fd)
        self._address_fd = fd  # from here on, _withdraw_address owns it
        os.fchmod(fd, 0o600)
        os.ftruncate(fd, 0)

    def _withdraw_address(self) -> None:
        """Remove the address file (still locked), then release it."""
        if self._address_fd is not None:
            try:
                self.address_file.unlink()
            except OSError:
                pass
            os.close(self._address_fd)
            self._address_fd = None

    async def start(self) -> None:
        """Bind, claim the address file if any, start the queue, serve,
        then write the address file.

        The socket is bound *first* (without serving) so a kernel-picked
        port is known, and the address file is claimed before any worker
        spawns, so a refused daemon costs nothing.  It gets its content
        only once the daemon serves: a non-empty file means a live daemon.
        """
        self._stop_event = asyncio.Event()
        self._started_at = time.monotonic()
        host, port = self.listen
        try:
            self._server = await asyncio.start_server(
                self._handle, host=host, port=port, limit=MAX_LINE,
                start_serving=False,
            )
            self.listen_address = canonical_address(
                "{}:{}".format(*self._server.sockets[0].getsockname()[:2]))
            if self.address_file is not None:
                self._claim_address_file()
            self.queue = JobQueue(WorkerPool(self.workers), cache=self.cache,
                                  max_depth=self.max_depth,
                                  job_timeout=self.job_timeout)
            await self.queue.start()
            await self._server.start_serving()
            if self._address_fd is not None:
                record = {"address": self.listen_address,
                          "token": self.token}
                os.write(self._address_fd,
                         (json.dumps(record, sort_keys=True) + "\n").encode())
        except BaseException:
            if self._server is not None:
                self._server.close()
                self._server = None
            await self._teardown_queue()
            self._withdraw_address()
            raise

    async def stop(self) -> None:
        """Close the socket, stop the queue."""
        if self._server is not None:
            self._server.close()
            # Cancel open client connections before wait_closed(): from
            # Python 3.12.1 wait_closed blocks until every handler ends,
            # and an idle client holding its connection would otherwise
            # hang the shutdown forever.
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(*self._conn_tasks,
                                     return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        await self._teardown_queue()
        self._withdraw_address()

    async def _teardown_queue(self) -> None:
        if self.queue is not None:
            await self.queue.stop()
            self.queue = None

    def request_shutdown(self) -> None:
        """Ask the serve loop to exit (safe from signal handlers)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_until_shutdown(self, on_ready=None) -> None:
        """Run until :meth:`request_shutdown` (the ``shutdown`` op or a
        signal) fires, then tear everything down.

        *on_ready*, if given, is called with the service once it is
        serving (e.g. to print the daemon's ready line).
        """
        await self.start()
        if on_ready is not None:
            on_ready(self)
        try:
            await self._stop_event.wait()
        finally:
            await self.stop()

    # -- connection handling --------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # A request line past MAX_LINE: answer with a typed
                    # refusal and hang up.  The buffered tail of the
                    # oversized line cannot be resynchronised, so the
                    # connection is unusable afterwards — but the client
                    # gets a reason instead of a silent reset.
                    refusal = {"ok": False,
                               "error": f"request line exceeds {MAX_LINE} "
                                        "bytes"}
                    writer.write(
                        (json.dumps(refusal, sort_keys=True) + "\n").encode())
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request is not a JSON object")
                except ValueError as exc:
                    response = {"ok": False, "error": f"bad request: {exc}"}
                else:
                    response = await self._dispatch(request)
                data = (json.dumps(response, sort_keys=True) + "\n").encode()
                # Chaos: the service.send site models every way a response
                # can fail to arrive — dropped before any byte is written,
                # cut after a partial write, or the connection severed —
                # which is exactly what the client's timeout/retry path
                # must survive (resubmission is idempotent by content key).
                rule = faults.fire("service.send")
                if rule is not None and rule.action == "stall":
                    await asyncio.sleep(rule.arg if rule.arg else 30.0)
                elif rule is not None:
                    if rule.action == "partial" and len(data) > 1:
                        writer.write(data[: len(data) // 2])
                        await writer.drain()
                    writer.transport.abort()
                    break
                writer.write(data)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Daemon shutting down mid-connection: end the handler task
            # cleanly so loop teardown doesn't log spurious tracebacks.
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def _dispatch(self, request: dict) -> dict:
        supplied = request.get("token")
        if not isinstance(supplied, str) or \
                not hmac.compare_digest(supplied, self.token):
            # "auth": true lets the client raise the non-retryable
            # ServiceAuthError — resending a bad token cannot help.  The
            # constant-time compare keeps the shared secret from leaking
            # through response timing.
            return {"ok": False, "auth": True,
                    "error": "authentication failed: bad or missing token "
                             f"(set {TOKEN_ENV}, or run the client where "
                             f"the daemon wrote {ADDRESS_FILE})"}
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) \
            else None
        if handler is None or (isinstance(op, str) and op.startswith("_")):
            return {"ok": False, "error": f"unknown op {op!r}"}
        try:
            return await handler(request)
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return {"ok": False,
                    "error": f"{type(exc).__name__}: {exc}"}

    # -- ops -------------------------------------------------------------

    def describe_address(self) -> str:
        """The daemon's serving address (bound, once started)."""
        return self.listen_address or "tcp://{}:{}".format(*self.listen)

    async def _op_ping(self, request: dict) -> dict:
        return {
            "ok": True,
            "server": {
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
                "workers": self.workers,
                "address": self.describe_address(),
            },
        }

    async def _op_chaos(self, request: dict) -> dict:
        if not self.chaos:
            return {"ok": False,
                    "error": "chaos introspection is disabled; start the "
                             "daemon with `repro cluster serve --chaos`"}
        plan = faults.active_plan()
        return {"ok": True,
                "plan": plan.describe() if plan is not None else None}

    async def _op_metrics(self, request: dict) -> dict:
        """The per-shard ops surface: everything ``repro cluster status``
        prints.

        One JSON object: identity, per-worker rows, queue pressure
        (depth / pending / in-flight) and lifetime counters, cache
        counters and degraded-mode flags, fault-plane state.  Reads only
        in-memory counters, never the cache directory, so a poll never
        holds the event loop on the filesystem.
        """
        queue = self.queue.describe()
        workers = queue["workers"]
        cache = self.cache.stats()
        plan = faults.active_plan()
        uptime = (time.monotonic() - self._started_at
                  if self._started_at is not None else 0.0)
        return {
            "ok": True,
            "metrics": {
                "shard": {
                    "pid": os.getpid(),
                    "address": self.describe_address(),
                    "workers": self.workers,
                    "uptime_s": round(uptime, 3),
                },
                "queue": {
                    "workers": workers,
                    "depth": queue["depth"],
                    "pending": queue["pending"],
                    "in_flight": sum(1 for w in workers
                                     if w["task"] is not None),
                    "workers_alive": sum(1 for w in workers if w["alive"]),
                    "max_depth": queue["max_depth"],
                    "job_timeout": queue["job_timeout"],
                    "restarts": queue["restarts"],
                    "stats": queue["stats"],
                },
                "cache": {
                    "directory": cache["directory"],
                    "hits": cache["memory_hits"] + cache["disk_hits"],
                    "misses": cache["misses"],
                    "stores": cache["stores"],
                    "memory_entries": cache["memory_entries"],
                    "write_failures": cache["write_failures"],
                },
                "faults": {
                    "active": plan is not None,
                    "fired": (sum(plan.fired.values())
                              if plan is not None else 0),
                },
            },
        }

    async def _op_submit(self, request: dict) -> dict:
        raw_jobs = request.get("jobs")
        if not isinstance(raw_jobs, list) or not raw_jobs:
            return {"ok": False, "error": "submit needs a non-empty 'jobs' list"}
        if len(raw_jobs) > MAX_SUBMIT_JOBS:
            return {"ok": False,
                    "error": f"submit carries {len(raw_jobs)} jobs; the "
                             f"per-request bound is {MAX_SUBMIT_JOBS} — "
                             "split the batch"}
        try:
            jobs = [SimJob.from_dict(raw) for raw in raw_jobs]
        except (TypeError, ValueError) as exc:
            return {"ok": False, "error": f"bad job spec: {exc}"}
        try:
            futures, summary = self.queue.submit(jobs)
        except QueueOverloaded as exc:
            # Explicit backpressure, distinguishable from a hard error:
            # the client backs off and resubmits the identical batch
            # (idempotent — content keys dedupe server-side).
            return {"ok": False, "overloaded": True,
                    "depth": self.queue.depth,
                    "max_depth": self.queue.max_depth,
                    "error": str(exc)}
        results = await self._gather(futures)
        if isinstance(results, dict):  # error response
            return results
        return {"ok": True, "summary": summary, "results": results}

    async def _op_shutdown(self, request: dict) -> dict:
        self.request_shutdown()
        return {"ok": True, "stopping": True}

    async def _gather(self, futures: list[asyncio.Future]) -> list | dict:
        """Await a batch; job failures become one error response."""
        try:
            results = await gather_results(futures)
        except JobFailed as exc:
            return {"ok": False, "error": f"job failed: {exc}"}
        return [result.to_dict() for result in results]


def run_service(
    *,
    listen: str = DEFAULT_LISTEN,
    workers: int | None = None,
    cache: ResultCache | None = None,
    max_depth: int | None = None,
    job_timeout: float | None = None,
    chaos: bool = False,
    token: str | None = None,
    install_signal_handlers: bool = True,
    ready_message: bool = True,
) -> int:
    """Blocking entry point behind ``repro cluster serve``.

    Runs the daemon until ``SIGINT``/``SIGTERM`` or a client ``shutdown``
    op.  Returns a process exit code.  With *chaos*, any fault plan in
    ``$REPRO_FAULTS`` is surfaced via the ``chaos`` op and exported to
    spawned workers; unset plans still activate from the environment
    either way (the chaos *flag* only gates introspection, not
    injection — an un-flagged daemon under ``REPRO_FAULTS`` is exactly
    the "operator forgot" scenario the suite tests).  *listen* is the
    ``host:port`` bind (port 0 lets the kernel pick; the ready line
    reports the bound address) and *token* the shared secret (none:
    generate one and publish the address file).
    """
    if chaos:
        # Re-export whatever plan is active so workers (fresh
        # interpreters, reading it from the environment) see the same spec
        # and seed.
        faults.install_plan(faults.active_plan(), export_env=True)
    service = SimService(listen=listen, workers=workers, cache=cache,
                         max_depth=max_depth, job_timeout=job_timeout,
                         chaos=chaos, token=token)

    def _print_ready(svc: SimService) -> None:
        where = svc.cache.directory or "memory-only"
        # Machine-readable on purpose: launchers parse
        # "listen=tcp://host:port" to learn a :0 daemon's real port.
        line = (f"repro service: listen={svc.listen_address} "
                f"workers={svc.workers} cache={where}")
        if svc.address_file is not None:
            line += f" address-file={svc.address_file}"
        print(line, file=sys.stderr, flush=True)

    async def _main() -> None:
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, service.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    pass  # non-main thread or platform without support
        await service.serve_until_shutdown(
            on_ready=_print_ready if ready_message else None)

    try:
        asyncio.run(_main())
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
