"""The simulation service daemon: one cache, one journal, many clients.

``repro serve`` runs a :class:`SimService`: a persistent process that
owns the result cache and a crash-safe completion journal, listens on a
Unix-domain socket, and feeds every client's jobs through one
:class:`~repro.engine.queue.JobQueue` on a persistent
:class:`~repro.engine.queue.WorkerPool`.  Because all clients share the
daemon's cache *and* its in-flight job set, overlapping submissions from
concurrent clients simulate each unique spec exactly once — the
"shared hot cache" serving story the ROADMAP asks for.

The same daemon also serves the cluster plane (:mod:`repro.engine.cluster`):
``--listen host:port`` binds a TCP socket instead of (not in addition to)
the Unix one, speaking the identical newline-JSON protocol, so N daemons
on N ports become shards behind a :class:`~repro.engine.cluster.ShardRouter`.
TCP mode adds two things Unix mode never needed:

* **auth** — a shared-secret token (``--token`` / ``$REPRO_SERVICE_TOKEN``).
  When configured, every request must carry ``"token"``; a mismatch is
  answered ``{"ok": false, "auth": true, ...}`` (constant-time compare),
  which clients raise as a non-retryable
  :class:`~repro.engine.client.ServiceAuthError`.
* **gossip** — ``--peer`` addresses seed the membership plane: shards
  heartbeat each other (the ``gossip`` op) so routers learn joins,
  deaths and revivals from any shard.

Results cross shards by one path only: the result cache.  Shards that
share ``$REPRO_CACHE_DIR`` publish every result there
(:meth:`~repro.engine.cache.ResultCache.put`: temp file, fsync, rename),
and a local miss reads through to it, so work one shard finished is
never re-simulated by another — with no protocol between shards.

Protocol: newline-delimited JSON request/response over the socket.  One
request per line, one response line per request, connections may pipeline
many requests.  Requests are ``{"op": <name>, ...}``; responses are
``{"ok": true, ...}`` or ``{"ok": false, "error": <message>}``.  Ops:

``ping``
    Liveness + server identity (pid, protocol version, worker count).
``submit``
    ``{"jobs": [<SimJob.to_dict()>, ...], "wait": bool}``.  With
    ``wait`` (the default) the response carries the results, in
    submission order, once all jobs finish; without it, a ticket id to
    poll via ``results``.  Either way the response's ``summary`` says how
    the batch was satisfied (cache hits / coalesced / enqueued).
``results``
    ``{"ticket": <id>}`` — the batch's results if complete, else a
    progress report.
``status``
    Queue depth, per-worker state, lifetime counters, cache stats,
    journal location, open tickets.
``health``
    Cheap liveness/degradation snapshot: worker aliveness, queue depth
    vs. bound, timeout/rejection counters and the degraded-mode flags
    (journal, cache or shm failures the daemon absorbed).
``chaos``
    The active fault-injection plan (:mod:`repro.engine.faults`) — site
    hit counts and fired rules.  Only served when the daemon was started
    with chaos enabled (``repro serve --chaos``); refused otherwise.
``metrics``
    The flat ops surface the cluster plane scrapes: queue depth and
    in-flight jobs, cache hit/miss/store counters, membership and gossip
    counters, fast-path fallback counters and fault-plane state — one
    JSON object per shard, aggregated by ``repro cluster status``.
``gossip``
    ``{"view": {...}}`` — merge the caller's membership view
    (:class:`~repro.engine.cluster.MembershipView` wire form) and answer
    with the daemon's merged view plus its own ``(epoch, beat)``.  TCP
    shards also *initiate* these rounds among themselves every
    ``--heartbeat-interval`` seconds: a peer that stops answering is
    claimed down (same-version ``down`` wins), a revived peer's higher
    epoch supersedes its own corpse, and routers polling any shard see
    the converged view — the self-healing membership plane.
``shutdown``
    Stop the daemon after acknowledging.

Overload: with a queue bound configured (``--queue-bound`` /
``$REPRO_QUEUE_BOUND``), a ``submit`` the queue cannot admit is answered
``{"ok": false, "overloaded": true, ...}`` — an explicit backpressure
signal the client turns into :class:`~repro.engine.client.ServiceOverloaded`
and retries with backoff, instead of the daemon either growing without
bound or silently hanging the caller.

Crash safety is inherited from PR 3's journal machinery: every executed
job is appended (``fsync`` per record) to the service journal, and a
restarted daemon replays it into the cache, so completed work survives
daemon restarts as well as worker deaths (the queue requeues those).
A TCP shard's journal also carries a membership meta record persisting
its epoch, so a shard revived on the same journal outranks its own
death notice.  A dead shard's completed work needs no hand-over: it was
published to the shared result cache before any client saw it.
Two daemons can never share a journal or a socket: the journal file is
``flock``-ed by its writer, and the daemon holds a lockfile next to its
socket, so the stale-socket cleanup path cannot race a live daemon.

See docs/architecture.md for the full data-flow picture.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import os
import signal
import sys
import time
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.engine import faults
from repro.engine.cache import ResultCache, default_cache_dir
from repro.engine.checkpoint import CampaignJournal, JournalHeader
from repro.engine.cluster import MemberState, MembershipView, normalize_shard
from repro.engine.executors import resolve_jobs
from repro.engine.job import SimJob
from repro.engine.queue import (
    JobFailed,
    JobQueue,
    QueueOverloaded,
    WorkerPool,
)

#: Environment variable naming the default service socket path.
SOCKET_ENV = "REPRO_SERVICE_SOCKET"

#: Environment variable holding the shared-secret auth token (TCP mode).
TOKEN_ENV = "REPRO_SERVICE_TOKEN"

#: Fallback socket path when neither ``--socket`` nor the env var is set.
DEFAULT_SOCKET = "repro-service.sock"

#: Wire protocol version, echoed by ``ping`` and checked by clients.
#: v2 added TCP transport, token auth and the ``metrics`` op; v3 dropped
#: the ``lookup`` and ``seed`` ops (results cross shards through a
#: shared cache directory instead).
PROTOCOL_VERSION = 3

#: Maximum request/response line length (a 20-job grid is ~20 KB).
MAX_LINE = 64 * 1024 * 1024

#: Most jobs one ``submit`` may carry — an admission bound on request
#: *width* to complement the queue-depth bound on request *volume*.
MAX_SUBMIT_JOBS = 4096

#: Deadline for one gossip exchange with a peer.  Short on purpose: a
#: dead peer must cost the heartbeat loop seconds, not a 300-second
#: client-style timeout.
PEER_TIMEOUT = 2.0

#: Most tickets a daemon remembers; beyond this, the oldest *completed*
#: tickets are forgotten first (a never-polled ``--no-wait`` submission
#: must not grow daemon memory forever).
MAX_TICKETS = 1024

#: Header binding a service journal.  Unlike a campaign journal, the
#: service's job set is open-ended, so the binding key is a constant: any
#: service journal can resume any service (entries are still keyed by job
#: content key, so replay is exact).
SERVICE_JOURNAL_CAMPAIGN = "__service__"
SERVICE_JOURNAL_KEY = "service-v1"

#: Environment variable overriding the gossip heartbeat interval
#: (seconds; ``0`` disables the loop, the ``gossip`` op still answers).
HEARTBEAT_ENV = "REPRO_HEARTBEAT_INTERVAL"

#: Default heartbeat interval for TCP shards.  One round per second
#: keeps convergence well under any human-visible failover window while
#: costing one tiny protocol round per peer.
DEFAULT_HEARTBEAT = 1.0


def resolve_heartbeat_interval(explicit: float | None = None) -> float:
    """The gossip heartbeat interval: explicit, else env, else default.

    ``0`` (or negative) disables the proactive gossip loop — the shard
    still answers the ``gossip`` op, it just never initiates rounds.
    """
    if explicit is not None:
        return max(0.0, float(explicit))
    raw = os.environ.get(HEARTBEAT_ENV, "").strip()
    if raw:
        try:
            return max(0.0, float(raw))
        except ValueError:
            return DEFAULT_HEARTBEAT
    return DEFAULT_HEARTBEAT


def default_socket_path(explicit: str | os.PathLike | None = None) -> Path:
    """Resolve the service socket path (flag, else env, else cwd default)."""
    if explicit:
        return Path(explicit)
    raw = os.environ.get(SOCKET_ENV, "").strip()
    return Path(raw) if raw else Path(DEFAULT_SOCKET)


def resolve_service_token(explicit: str | None = None) -> str | None:
    """Resolve the shared-secret token (flag, else env, else none).

    ``None`` disables auth entirely — the Unix-socket default, where
    filesystem permissions already gate access.  TCP deployments should
    always set one.
    """
    if explicit:
        return explicit
    raw = os.environ.get(TOKEN_ENV, "").strip()
    return raw or None


def parse_address(address: str | os.PathLike) -> tuple:
    """Split a service address into ``("tcp", host, port)`` or
    ``("unix", path)``.

    TCP addresses must be explicit — ``tcp://host:port`` — because a
    bare string containing a colon is a perfectly legal Unix socket
    path; guessing would mis-route someone's ``./run:1/svc.sock``.
    """
    text = str(address)
    if text.startswith("tcp://"):
        host, sep, port = text[len("tcp://"):].rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ValueError(
                f"bad service address {text!r} (want tcp://host:port)")
        return ("tcp", host, int(port))
    return ("unix", text)


def parse_listen(listen: str) -> tuple[str, int]:
    """Parse a ``--listen`` value (``host:port``, ``tcp://`` optional).

    Port ``0`` is valid and means "kernel picks": the daemon's ready
    line and ``ping`` report the actual bound port, which is how the
    test harness runs many shards without port coordination.
    """
    text = str(listen)
    if text.startswith("tcp://"):
        text = text[len("tcp://"):]
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"bad --listen {listen!r} (want host:port)")
    return (host or "127.0.0.1", int(port))


class SimService:
    """A running daemon: socket server + job queue + cache + journal."""

    def __init__(
        self,
        socket_path: str | os.PathLike | None = None,
        *,
        workers: int | None = None,
        cache: ResultCache | None = None,
        journal_path: str | os.PathLike | None = None,
        max_depth: int | None = None,
        job_timeout: float | None = None,
        chaos: bool = False,
        listen: str | None = None,
        token: str | None = None,
        peers: list[str] | None = None,
        heartbeat_interval: float | None = None,
    ):
        self.socket_path = default_socket_path(socket_path)
        #: TCP bind (host, port) when serving a cluster shard; ``None``
        #: keeps the Unix-socket transport.  The two are exclusive — a
        #: shard *is* a plain daemon on a different transport.
        self.listen = parse_listen(listen) if listen else None
        #: Actual bound address (``tcp://host:port``) once started;
        #: meaningful with ``--listen host:0``.
        self.listen_address: str | None = None
        self.token = resolve_service_token(token)
        #: Gossip seed list: sibling shard addresses heartbeated before
        #: the membership view has learned anyone (``tcp://host:port``).
        self.peers = [str(peer) for peer in (peers or [])]
        self.workers = resolve_jobs(workers)
        self.cache = cache if cache is not None else ResultCache(default_cache_dir())
        self.journal_path = Path(journal_path) if journal_path else None
        self.journal: CampaignJournal | None = None
        self.replayed = 0
        # -- self-healing membership state --------------------------------
        #: This shard's view of the fleet (grown by gossip rounds and by
        #: views callers push through the ``gossip`` op).
        self.membership = MembershipView()
        #: Incarnation counter: persisted in the journal's membership
        #: meta record, so a restarted shard's claims supersede every
        #: claim about its previous life (including its death notice).
        self.epoch = 1
        #: Heartbeats sent this incarnation (the minor version digit).
        self.beat = 0
        self.heartbeat_interval = resolve_heartbeat_interval(
            heartbeat_interval)
        self.gossip_sent = 0
        self.gossip_merged = 0
        self.gossip_failures = 0
        self.gossip_dropped = 0  # injected gossip.heartbeat:drop hits
        self._gossip_task: asyncio.Task | None = None
        self.max_depth = max_depth
        self.job_timeout = job_timeout
        #: Whether the ``chaos`` op is served (``repro serve --chaos``).
        self.chaos = bool(chaos)
        self.queue: JobQueue | None = None
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._stop_event: asyncio.Event | None = None
        self._tickets: dict[int, dict] = {}
        self._next_ticket = 0
        self._lock_fh = None
        self._started_at: float | None = None

    # -- lifecycle -------------------------------------------------------

    @property
    def lock_path(self) -> Path:
        """The daemon lockfile guarding this socket path."""
        return self.socket_path.with_name(self.socket_path.name + ".lock")

    def _acquire_lock(self) -> None:
        """Take the per-socket daemon lock (advisory flock, non-blocking).

        This is what makes the stale-socket cleanup below race-free: two
        daemons starting simultaneously against one path both see a dead
        socket, but only the lock holder may unlink and rebind.  The lock
        lives next to the socket so it travels with a ``--socket``
        override, and it is released (not leaked) by :meth:`stop` —
        though even a ``SIGKILL``-ed daemon releases a flock with its fd.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            return
        from repro.engine.client import ServiceError

        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(self.lock_path, "a+")
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            fh.close()
            raise ServiceError(
                f"another repro service holds the lock for "
                f"{self.socket_path} (lockfile {self.lock_path}); stop it "
                "first or pick a different --socket"
            ) from None
        self._lock_fh = fh

    def _release_lock(self) -> None:
        if self._lock_fh is not None:
            try:
                self._lock_fh.close()
            except OSError:
                pass
            self._lock_fh = None
            try:
                self.lock_path.unlink()
            except OSError:
                pass

    async def start(self) -> None:
        """Open the journal, start the queue, bind the socket.

        TCP shards bind *first* (without serving) so the kernel-picked
        port is known before the journal's membership record names it,
        then open the journal, start the queue, and only then start
        serving and gossiping.
        """
        self._stop_event = asyncio.Event()
        self._started_at = time.monotonic()
        if self.listen is None:
            # The flock + stale-socket dance only exists because Unix
            # socket files outlive their listeners; a TCP bind is
            # exclusive by itself (EADDRINUSE), so shards skip it.
            self._acquire_lock()
        try:
            if self.listen is not None:
                host, port = self.listen
                self._server = await asyncio.start_server(
                    self._handle, host=host, port=port, limit=MAX_LINE,
                    start_serving=False,
                )
                bound = self._server.sockets[0].getsockname()
                self.listen_address = f"tcp://{bound[0]}:{bound[1]}"
            if self.journal_path is not None:
                self.journal = CampaignJournal(self.journal_path)
                self.journal.open(JournalHeader(
                    campaign=SERVICE_JOURNAL_CAMPAIGN,
                    key=SERVICE_JOURNAL_KEY,
                    total=0,
                ))
                # Replay completed work into the cache: a restarted daemon
                # answers everything it ever finished without re-simulating.
                for key, result in self.journal.entries.items():
                    self.cache.seed(key, result)
                    self.replayed += 1
                if self.listen is not None:
                    # Epoch = one past every incarnation this journal has
                    # seen, so this shard's claims (and its revival)
                    # supersede any claim about its previous life.
                    self.epoch = 1 + max(
                        (int(meta.get("epoch", 0))
                         for meta in self.journal.meta
                         if meta.get("kind") == "membership"),
                        default=0)
                    try:
                        self.journal.record_meta({
                            "kind": "membership",
                            "address": self.listen_address,
                            "epoch": self.epoch,
                        })
                    except OSError:
                        pass  # degraded journal; the epoch still holds
            self.queue = JobQueue(WorkerPool(self.workers), cache=self.cache,
                                  journal=self.journal,
                                  max_depth=self.max_depth,
                                  job_timeout=self.job_timeout)
            await self.queue.start()
            if self.listen is not None:
                await self._server.start_serving()
                self.membership.observe(MemberState(
                    self.listen_address, self.epoch, self.beat, "up"))
                if self.heartbeat_interval > 0:
                    self._gossip_task = asyncio.get_running_loop().create_task(
                        self._gossip_loop())
            else:
                self.socket_path.parent.mkdir(parents=True, exist_ok=True)
                if self.socket_path.exists():
                    # Refuse to hijack a live daemon; only a *stale* socket
                    # (no listener answering ping) is cleaned up and bound
                    # over.  The lockfile taken above makes this race-free.
                    from repro.engine.client import (
                        ServiceError,
                        service_running,
                    )

                    if service_running(self.socket_path):
                        raise ServiceError(
                            f"another repro service is already listening on "
                            f"{self.socket_path}; stop it first or pick a "
                            "different --socket"
                        )
                    self.socket_path.unlink()
                self._server = await asyncio.start_unix_server(
                    self._handle, path=str(self.socket_path), limit=MAX_LINE,
                )
        except BaseException:
            if self._server is not None:
                self._server.close()
                self._server = None
            await self._teardown_queue_and_journal()
            self._release_lock()
            raise

    async def stop(self) -> None:
        """Close the socket, stop the queue, close the journal."""
        if self._gossip_task is not None:
            self._gossip_task.cancel()
            try:
                # A cancel landing exactly as an inner wait_for resolves
                # can be swallowed (the task keeps looping), so bound the
                # wait: on timeout wait_for cancels the task *again*, and
                # the retry lands on an idle await.
                await asyncio.wait_for(self._gossip_task, timeout=5.0)
            except (asyncio.TimeoutError, asyncio.CancelledError,
                    Exception):  # noqa: BLE001
                pass
            self._gossip_task = None
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
        await self._teardown_queue_and_journal()
        if self.listen is None:
            try:
                self.socket_path.unlink()
            except OSError:
                pass
            self._release_lock()

    async def _teardown_queue_and_journal(self) -> None:
        if self.queue is not None:
            await self.queue.stop()
            self.queue = None
        if self.journal is not None:
            self.journal.close()
            self.journal = None

    def request_shutdown(self) -> None:
        """Ask the serve loop to exit (safe from signal handlers)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_until_shutdown(self, on_ready=None) -> None:
        """Run until :meth:`request_shutdown` (the ``shutdown`` op or a
        signal) fires, then tear everything down.

        *on_ready*, if given, is called with the service once the socket
        is bound (e.g. to print the daemon's ready line).
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
        if self.token is not None:
            supplied = request.get("token")
            if not isinstance(supplied, str) or \
                    not hmac.compare_digest(supplied, self.token):
                # "auth": true lets the client raise the non-retryable
                # ServiceAuthError — resending a bad token cannot help.
                # The constant-time compare keeps the shared secret from
                # leaking through response timing.
                return {"ok": False, "auth": True,
                        "error": "authentication failed: bad or missing "
                                 "token (set REPRO_SERVICE_TOKEN)"}
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
        """The daemon's serving address (TCP bind or Unix socket path)."""
        if self.listen_address is not None:
            return self.listen_address
        if self.listen is not None:  # parsed but not yet bound
            return f"tcp://{self.listen[0]}:{self.listen[1]}"
        return str(self.socket_path)

    async def _op_ping(self, request: dict) -> dict:
        return {
            "ok": True,
            "server": {
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
                "workers": self.workers,
                "socket": str(self.socket_path),
                "transport": "tcp" if self.listen is not None else "unix",
                "address": self.describe_address(),
                "auth": self.token is not None,
                "peers": len(self.peers),
            },
        }

    async def _op_status(self, request: dict) -> dict:
        tickets = {
            str(ticket_id): {
                "jobs": len(record["futures"]),
                "done": sum(1 for f in record["futures"] if f.done()),
            }
            for ticket_id, record in self._tickets.items()
        }
        return {
            "ok": True,
            "queue": self.queue.describe(),
            "cache": self.cache.stats(),
            "journal": {
                "path": str(self.journal_path) if self.journal_path else None,
                "entries": self.journal.done if self.journal else 0,
                "replayed": self.replayed,
            },
            "tickets": tickets,
        }

    async def _op_health(self, request: dict) -> dict:
        health = self.queue.health()
        health["pid"] = os.getpid()
        health["chaos"] = self.chaos and faults.active_plan() is not None
        return {"ok": True, "health": health}

    async def _op_chaos(self, request: dict) -> dict:
        if not self.chaos:
            return {"ok": False,
                    "error": "chaos introspection is disabled; start the "
                             "daemon with `repro serve --chaos`"}
        plan = faults.active_plan()
        return {"ok": True,
                "plan": plan.describe() if plan is not None else None}

    async def _op_metrics(self, request: dict) -> dict:
        """The per-shard ops surface the cluster plane scrapes.

        One flat JSON object: identity, queue pressure (depth / pending /
        in-flight), cache effectiveness, membership and gossip counters,
        fast-path fallback counters and fault-plane state.  Everything a
        ``repro cluster status`` row needs, cheap enough to poll.
        """
        from repro.pipeline.fastsim import fallback_stats

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
                    "transport": "tcp" if self.listen is not None
                                 else "unix",
                    "workers": self.workers,
                    "uptime_s": round(uptime, 3),
                },
                "queue": {
                    "depth": queue["depth"],
                    "pending": queue["pending"],
                    "in_flight": sum(1 for w in workers
                                     if w["task"] is not None),
                    "workers_alive": sum(1 for w in workers if w["alive"]),
                    "max_depth": queue["max_depth"],
                    "restarts": queue["restarts"],
                    "stats": queue["stats"],
                },
                "cache": {
                    "hits": cache["memory_hits"] + cache["disk_hits"],
                    "misses": cache["misses"],
                    "stores": cache["stores"],
                    "memory_entries": cache["memory_entries"],
                    "disk_entries": cache["disk_entries"],
                    "write_failures": cache["write_failures"],
                },
                "membership": {
                    "address": self.describe_address(),
                    "epoch": self.epoch,
                    "beat": self.beat,
                    "size": len(self.membership),
                    "alive": self.membership.alive(),
                    "gossip": {
                        "interval_s": self.heartbeat_interval,
                        "sent": self.gossip_sent,
                        "merged": self.gossip_merged,
                        "failures": self.gossip_failures,
                        "dropped": self.gossip_dropped,
                    },
                },
                "replay": {"startup_replayed": self.replayed},
                "fallbacks": fallback_stats(),
                "faults": {
                    "active": plan is not None,
                    "fired": (sum(plan.fired.values())
                              if plan is not None else 0),
                },
                "tickets": len(self._tickets),
            },
        }

    # -- membership gossip ------------------------------------------------

    def _note_member_down(self, address: str) -> None:
        """Claim *address* down at its current version (down wins ties).

        A member we never heard a claim about is entered at version
        ``(0, 0)`` — any genuine heartbeat (epoch ≥ 1) supersedes it.
        """
        current = self.membership.get(address)
        if current is None:
            self.membership.observe(MemberState(address, 0, 0, "down"))
        elif current.status == "up":
            self.membership.observe(MemberState(
                address, current.epoch, current.beat, "down"))

    def _self_refute(self) -> None:
        """Outrank any merged claim about *this* shard (SWIM refutation).

        A view can carry a death notice or a stale higher beat for our
        own address (e.g. written while a previous incarnation died).
        Jump our logical clock past it and re-assert ``up`` — with the
        journal-persisted epoch this is a no-op belt-and-braces; without
        a journal it is what lets a restarted shard reclaim its name.
        """
        if self.listen_address is None:
            return
        me = self.membership.get(self.listen_address)
        if me is not None and (me.status == "down" or
                               me.version > (self.epoch, self.beat)):
            self.epoch = max(self.epoch, me.epoch)
            self.beat = max(self.beat, me.beat) + 1
        self.membership.observe(MemberState(
            self.listen_address, self.epoch, self.beat, "up"))

    def _gossip_targets(self) -> list[str]:
        """Everyone worth heartbeating: configured peers ∪ known members."""
        targets = {normalize_shard(peer) for peer in self.peers}
        targets.update(self.membership.members)
        targets.discard(self.listen_address)
        return sorted(targets)

    async def _gossip_round(self) -> None:
        """One heartbeat round: advance the beat, exchange with everyone.

        Per-target, the ``gossip.heartbeat`` fault site may ``drop`` the
        heartbeat (the target simply isn't contacted — convergence slows,
        correctness cannot care) or ``delay`` it (sleep before sending).
        A target that fails the exchange is claimed down at its current
        version; the claim spreads on subsequent rounds.
        """
        self.beat += 1
        self._self_refute()
        for target in self._gossip_targets():
            rule = faults.fire("gossip.heartbeat")
            if rule is not None and rule.action == "drop":
                self.gossip_dropped += 1
                continue
            if rule is not None and rule.action == "delay":
                await asyncio.sleep(rule.arg if rule.arg
                                    else self.heartbeat_interval)
            try:
                response = await self._peer_request(
                    target, {"op": "gossip",
                             "view": self.membership.to_dict()})
            except asyncio.CancelledError:
                raise
            except Exception:  # noqa: BLE001 - claim the peer down
                self.gossip_failures += 1
                self._note_member_down(target)
                continue
            self.gossip_sent += 1
            self.gossip_merged += self.membership.merge(
                response.get("view"))
        self._self_refute()

    async def _gossip_loop(self) -> None:
        """Background heartbeat: one gossip round per interval."""
        try:
            while True:
                await asyncio.sleep(self.heartbeat_interval)
                await self._gossip_round()
        except asyncio.CancelledError:
            pass

    async def _op_gossip(self, request: dict) -> dict:
        """Merge a caller's membership view; answer with ours.

        The server half of the gossip exchange — shards call it on each
        other every heartbeat, routers call it to subscribe to the
        fleet's eventually-consistent view.
        """
        view = request.get("view")
        merged = self.membership.merge(view) if view is not None else 0
        self.gossip_merged += merged
        self._self_refute()
        return {
            "ok": True,
            "view": self.membership.to_dict(),
            "epoch": self.epoch,
            "beat": self.beat,
            "merged": merged,
        }

    async def _peer_request(self, address: str, payload: dict) -> dict:
        """One short-deadline protocol round against a sibling shard."""
        kind, *where = parse_address(address)
        if kind == "tcp":
            opening = asyncio.open_connection(where[0], where[1],
                                              limit=MAX_LINE)
        else:
            opening = asyncio.open_unix_connection(where[0], limit=MAX_LINE)
        reader, writer = await asyncio.wait_for(opening, PEER_TIMEOUT)
        try:
            if self.token is not None:
                payload = dict(payload, token=self.token)
            writer.write((json.dumps(payload) + "\n").encode())
            await asyncio.wait_for(writer.drain(), PEER_TIMEOUT)
            line = await asyncio.wait_for(reader.readline(), PEER_TIMEOUT)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                # CancelledError must propagate here: swallowing a cancel
                # that lands during wait_closed() would leave the gossip
                # loop alive after stop() asked it to die.
                pass
        if not line.endswith(b"\n"):
            raise ConnectionResetError("peer closed mid-response")
        response = json.loads(line)
        if not response.get("ok"):
            raise RuntimeError(response.get("error", "peer refused request"))
        return response

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
        ticket_id = self._remember_ticket(futures)
        if not request.get("wait", True):
            return {"ok": True, "ticket": ticket_id, "summary": summary}
        results = await self._gather(futures)
        self._tickets.pop(ticket_id, None)
        if isinstance(results, dict):  # error response
            return results
        return {"ok": True, "ticket": ticket_id, "summary": summary,
                "results": results}

    async def _op_results(self, request: dict) -> dict:
        ticket_id = request.get("ticket")
        record = self._tickets.get(ticket_id) if isinstance(ticket_id, int) \
            else None
        if record is None:
            return {"ok": False, "error": f"unknown ticket {ticket_id!r}"}
        futures = record["futures"]
        done = sum(1 for f in futures if f.done())
        if done < len(futures):
            return {"ok": True, "ticket": ticket_id, "pending": True,
                    "done": done, "total": len(futures)}
        # The ticket stays fetchable after completion (re-polls and
        # retries are cheap and idempotent); the bounded ticket table
        # evicts it once it is old enough (:meth:`_remember_ticket`).
        results = await self._gather(futures)
        if isinstance(results, dict):
            return results
        return {"ok": True, "ticket": ticket_id, "pending": False,
                "results": results}

    async def _op_shutdown(self, request: dict) -> dict:
        self.request_shutdown()
        return {"ok": True, "stopping": True}

    def _remember_ticket(self, futures: list[asyncio.Future]) -> int:
        """Record a submission's futures; evict old completed tickets.

        Eviction only considers fully-done tickets (oldest first), so an
        in-flight ``--no-wait`` submission is never forgotten while its
        jobs are still running.
        """
        ticket_id = self._next_ticket
        self._next_ticket += 1
        self._tickets[ticket_id] = {"futures": futures}
        if len(self._tickets) > MAX_TICKETS:
            for old_id in sorted(self._tickets):
                if old_id == ticket_id:
                    continue
                if all(f.done() for f in self._tickets[old_id]["futures"]):
                    del self._tickets[old_id]
                    if len(self._tickets) <= MAX_TICKETS:
                        break
        return ticket_id

    async def _gather(self, futures: list[asyncio.Future]) -> list | dict:
        """Await a batch; job failures become one error response."""
        try:
            results = await asyncio.gather(*futures)
        except JobFailed as exc:
            return {"ok": False, "error": f"job failed: {exc}"}
        return [result.to_dict() for result in results]


def run_service(
    socket_path: str | os.PathLike | None = None,
    *,
    workers: int | None = None,
    cache: ResultCache | None = None,
    journal_path: str | os.PathLike | None = None,
    max_depth: int | None = None,
    job_timeout: float | None = None,
    chaos: bool = False,
    listen: str | None = None,
    token: str | None = None,
    peers: list[str] | None = None,
    heartbeat_interval: float | None = None,
    install_signal_handlers: bool = True,
    ready_message: bool = True,
) -> int:
    """Blocking entry point behind ``repro serve`` / ``repro cluster serve``.

    Runs the daemon until ``SIGINT``/``SIGTERM`` or a client ``shutdown``
    op.  Returns a process exit code.  With *chaos*, any fault plan in
    ``$REPRO_FAULTS`` is surfaced via the ``chaos`` op and exported to
    spawned workers; unset plans still activate from the environment
    either way (the chaos *flag* only gates introspection, not
    injection — an un-flagged daemon under ``REPRO_FAULTS`` is exactly
    the "operator forgot" scenario the suite tests).  *listen* switches
    the transport to TCP (``host:port``; port 0 lets the kernel pick and
    the ready line reports the bound address), *token* arms shared-secret
    auth, *peers* seeds the gossip membership plane with sibling shards
    and *heartbeat_interval* tunes the gossip loop (0 disables it).
    """
    if chaos:
        # Re-export whatever plan is active so spawn-start workers (which
        # re-import everything) see the same spec and seed.
        faults.install_plan(faults.active_plan(), export_env=True)
    service = SimService(socket_path, workers=workers, cache=cache,
                         journal_path=journal_path, max_depth=max_depth,
                         job_timeout=job_timeout, chaos=chaos,
                         listen=listen, token=token, peers=peers,
                         heartbeat_interval=heartbeat_interval)

    def _print_ready(svc: SimService) -> None:
        where = svc.cache.directory or "memory-only"
        journal = svc.journal_path or "disabled"
        if svc.listen is not None:
            # Machine-readable on purpose: the cluster harness parses
            # "listen=tcp://host:port" to learn a :0 daemon's real port.
            bind = (f"listen={svc.listen_address} auth="
                    f"{'on' if svc.token else 'off'} peers={len(svc.peers)} "
                    f"epoch={svc.epoch}")
        else:
            bind = f"socket={svc.socket_path}"
        print(f"repro service: {bind} "
              f"workers={svc.workers} cache={where} journal={journal}"
              + (f" (replayed {svc.replayed} journaled results)"
                 if svc.replayed else ""),
              file=sys.stderr, flush=True)

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

    from repro.engine.checkpoint import JournalError
    from repro.engine.client import ServiceError

    try:
        asyncio.run(_main())
    except (ServiceError, JournalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, JournalError):
            print("hint: --journal must point at a service journal file — "
                  "not a campaign journal, and not one already in use by "
                  "another daemon", file=sys.stderr)
        return 1
    return 0
