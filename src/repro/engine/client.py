"""Client side of the simulation service protocol.

A :class:`ServiceClient` speaks the newline-JSON protocol of
:mod:`repro.engine.service` over one persistent connection:
``ping``/``status``/``submit``/``results``/``shutdown`` methods mirror
the server ops one-to-one, and :meth:`ServiceClient.run_jobs` gives the
engine-shaped "batch in, results in submission order out" call.  The
target is a Unix socket path by default; a ``tcp://host:port`` address
connects to a TCP daemon (a cluster shard) instead — the prefix is
mandatory for TCP because a bare ``host:port`` string is also a legal
socket *path*.  TCP daemons usually require the shared-secret token
(``token=`` / ``$REPRO_SERVICE_TOKEN``), which the client attaches to
every request; a rejection is the non-retryable
:class:`ServiceAuthError` (a corrected token needs a new client call,
resending the same one cannot succeed).

Two adapters make the service a drop-in **backend** for existing code:

* :class:`ServiceExecutor` quacks like the engine's executors (``run``,
  ``jobs``, ``describe``), so an :class:`~repro.engine.api.Engine` built
  on it routes every batch to the daemon;
* :func:`service_engine` builds exactly that engine (with a memory-only
  local cache), which is what ``repro campaign run --backend service``
  uses — the campaign machinery is unchanged, only the executor is
  remote (a checkpoint dir swaps in a disk cache client-side).

The client is deliberately synchronous (plain ``socket``): callers are
CLI commands, tests and campaign loops, none of which run an event loop.

Failure handling (the chaos suite's client half):

* every socket read/write carries a **deadline** — the explicit
  ``timeout`` argument, else ``$REPRO_CLIENT_TIMEOUT``, else
  :data:`DEFAULT_TIMEOUT` — so a daemon that accepts the connection and
  then dies (or stalls mid-response) costs a typed
  :class:`ServiceTimeout`, never an indefinite hang;
* failures are **typed**: :class:`ServiceUnavailable` (no daemon /
  connection lost), :class:`ServiceTimeout` (deadline exceeded),
  :class:`ServiceOverloaded` (explicit backpressure) — all under
  :class:`ServiceError`, so existing ``except ServiceError`` callers
  keep working;
* :meth:`ServiceClient.run_jobs` retries those three transparently
  under a :class:`RetryPolicy` (exponential backoff, deterministic
  jitter).  Resubmission is **idempotent by construction**: jobs are
  identified server-side by content key, so a batch resubmitted after a
  lost response coalesces onto the in-flight work or hits the cache —
  the simulation never runs twice.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import time
from dataclasses import dataclass

from repro.engine.job import SimJob
from repro.pipeline.result import SimResult

#: Environment variable overriding the default client deadline (seconds).
CLIENT_TIMEOUT_ENV = "REPRO_CLIENT_TIMEOUT"

#: Default per-read socket deadline.  Generous — a ``wait=True`` submit
#: legitimately blocks for the whole batch — but finite, so a dead
#: daemon is a typed error instead of a forever-hang.
DEFAULT_TIMEOUT = 300.0


class ServiceError(RuntimeError):
    """The daemon rejected a request or the connection failed."""


class ServiceUnavailable(ServiceError):
    """No daemon is reachable (connect refused, or connection lost)."""


class ServiceTimeout(ServiceError):
    """The daemon did not answer within the client deadline."""


class ServiceOverloaded(ServiceError):
    """The daemon's admission control rejected the batch (backpressure)."""


class ServiceAuthError(ServiceError):
    """The daemon rejected the request's auth token (not retryable)."""


def resolve_client_timeout(explicit: float | None = None) -> float | None:
    """The client deadline: explicit, else env, else the default.

    An explicit ``0`` (or a ``0`` in the env) disables the deadline
    entirely — for debuggers and humans who really do want to wait.
    """
    if explicit is not None:
        return explicit if explicit > 0 else None
    raw = os.environ.get(CLIENT_TIMEOUT_ENV, "").strip()
    if raw:
        try:
            value = float(raw)
        except ValueError:
            return DEFAULT_TIMEOUT
        return value if value > 0 else None
    return DEFAULT_TIMEOUT


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    ``delay(attempt)`` grows ``base * 2**attempt`` up to ``cap``, plus a
    jitter fraction derived by hashing ``(seed, attempt)`` — spreading
    simultaneous retriers without wall-clock or global RNG, in keeping
    with the fault plane's determinism rules.  ``attempts`` counts
    *total* tries (1 = no retries).
    """

    attempts: int = 4
    base: float = 0.05
    cap: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def delay(self, attempt: int) -> float:
        """Seconds to sleep after failed try *attempt* (0-based)."""
        raw = min(self.cap, self.base * (2 ** attempt))
        digest = hashlib.sha256(f"{self.seed}:{attempt}".encode()).digest()
        frac = int.from_bytes(digest[:8], "big") / 2**64
        return raw * (1.0 + self.jitter * frac)


class ServiceClient:
    """One connection to a running :class:`~repro.engine.service.SimService`.

    Usable as a context manager; the connection opens lazily on first
    request and pipelines any number of request/response rounds.
    """

    def __init__(self, socket_path: str | os.PathLike | None = None,
                 timeout: float | None = None,
                 retry: RetryPolicy | None = None,
                 token: str | None = None):
        # Imported here, not at module top, to keep the client importable
        # without dragging in the asyncio server machinery's dependencies.
        from repro.engine.service import (
            default_socket_path,
            parse_address,
            resolve_service_token,
        )

        if socket_path is not None and str(socket_path).startswith("tcp://"):
            self._target = parse_address(socket_path)
            #: Display/identity form of the target — a path for Unix
            #: daemons, ``tcp://host:port`` for shards.  The attribute
            #: keeps its historical name; every existing caller only
            #: ever formats it into messages.
            self.socket_path = str(socket_path)
        else:
            self.socket_path = default_socket_path(socket_path)
            self._target = ("unix", str(self.socket_path))
        self.timeout = resolve_client_timeout(timeout)
        self.token = resolve_service_token(token)
        #: Policy :meth:`run_jobs` retries transient failures under
        #: (``None`` disables retries; requests themselves never retry —
        #: only the idempotent batch call does).
        self.retry = retry if retry is not None else RetryPolicy()
        self._sock: socket.socket | None = None
        self._file = None

    # -- connection ------------------------------------------------------

    def connect(self) -> None:
        if self._sock is not None:
            return
        sock = None
        try:
            if self._target[0] == "tcp":
                sock = socket.create_connection(
                    (self._target[1], self._target[2]), timeout=self.timeout)
                sock.settimeout(self.timeout)
                # One request per line: latency beats Nagle batching.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            else:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                sock.connect(self._target[1])
        except OSError as exc:
            if sock is not None:
                sock.close()
            raise ServiceUnavailable(
                f"cannot reach the repro service at {self.socket_path} "
                f"({exc}); is `repro serve` running?"
            ) from None
        self._sock = sock
        self._file = sock.makefile("rwb")

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, payload: dict) -> dict:
        """One protocol round; raises a typed :class:`ServiceError` on
        failure.

        Distinguishes the three transient shapes :meth:`run_jobs`
        retries: a deadline expiry is :class:`ServiceTimeout`, a dead or
        severed connection is :class:`ServiceUnavailable` (this also
        covers a response cut off mid-line — a partial line with no
        newline terminator *is* a closed connection by the time
        ``readline`` returns), and an ``overloaded`` response is
        :class:`ServiceOverloaded`.  Anything else the daemon refuses
        stays a plain :class:`ServiceError` (not retryable: resubmitting
        a malformed request can never help); an ``auth`` rejection is the
        equally non-retryable :class:`ServiceAuthError`.
        """
        self.connect()
        if self.token is not None and "token" not in payload:
            payload = dict(payload, token=self.token)
        try:
            self._file.write((json.dumps(payload) + "\n").encode())
            self._file.flush()
            line = self._file.readline()
        except socket.timeout:
            self.close()
            raise ServiceTimeout(
                f"no response from the repro service at {self.socket_path} "
                f"within {self.timeout:g}s"
            ) from None
        except OSError as exc:
            self.close()
            raise ServiceUnavailable(
                f"service connection lost: {exc}") from None
        if not line or not line.endswith(b"\n"):
            # Empty read: daemon closed cleanly.  Unterminated line: the
            # connection died mid-response (e.g. a torn write) — either
            # way the response is unusable and the connection is dead.
            self.close()
            raise ServiceUnavailable(
                "service closed the connection"
                + (" mid-response" if line else ""))
        try:
            response = json.loads(line)
        except ValueError as exc:
            raise ServiceError(f"bad response from service: {exc}") from None
        if not response.get("ok"):
            if response.get("overloaded"):
                raise ServiceOverloaded(
                    response.get("error", "service overloaded"))
            if response.get("auth"):
                raise ServiceAuthError(
                    response.get("error", "service authentication failed"))
            raise ServiceError(response.get("error", "unknown service error"))
        return response

    # -- ops -------------------------------------------------------------

    def ping(self) -> dict:
        """Server identity: pid, protocol version, worker count.

        Raises :class:`ServiceError` when the daemon speaks a different
        protocol version — better one clean error here than mis-decoded
        payloads later.
        """
        from repro.engine.service import PROTOCOL_VERSION

        server = self.request({"op": "ping"})["server"]
        if server.get("protocol") != PROTOCOL_VERSION:
            raise ServiceError(
                f"service at {self.socket_path} speaks protocol "
                f"v{server.get('protocol')}, this client v{PROTOCOL_VERSION}; "
                "upgrade the older side"
            )
        return server

    def status(self) -> dict:
        """Queue / cache / ticket status snapshot."""
        return self.request({"op": "status"})

    def submit(self, jobs: list[SimJob], *, wait: bool = True) -> dict:
        """Submit a batch; the raw response (``results`` when *wait*)."""
        return self.request({
            "op": "submit",
            "jobs": [job.to_dict() for job in jobs],
            "wait": wait,
        })

    def results(self, ticket: int) -> dict:
        """Poll a ticket from a ``wait=False`` submission."""
        return self.request({"op": "results", "ticket": ticket})

    def shutdown(self) -> None:
        """Ask the daemon to exit (acknowledged before it stops)."""
        self.request({"op": "shutdown"})

    def health(self) -> dict:
        """The daemon's liveness/degradation snapshot (``health`` op)."""
        return self.request({"op": "health"})["health"]

    def chaos(self) -> dict | None:
        """The active fault plan of a ``--chaos`` daemon (``chaos`` op)."""
        return self.request({"op": "chaos"})["plan"]

    def metrics(self) -> dict:
        """The daemon's flat ops-surface snapshot (``metrics`` op)."""
        return self.request({"op": "metrics"})["metrics"]

    def run_jobs(self, jobs: list[SimJob]) -> list[SimResult]:
        """Submit, wait, and decode: the engine-shaped batch call.

        Transient failures — the daemon unreachable, the response lost
        or timed out, the queue shedding load — are retried under
        :attr:`retry` with exponential backoff.  The resubmitted batch
        is byte-identical, and the daemon identifies jobs by content
        key, so a retry after a lost response attaches to the already
        in-flight simulations (or their cached results) rather than
        re-running anything: at-least-once delivery, exactly-once
        execution.
        """
        policy = self.retry
        attempts = policy.attempts if policy is not None else 1
        for attempt in range(attempts):
            try:
                response = self.submit(jobs, wait=True)
                return [SimResult.from_dict(raw)
                        for raw in response["results"]]
            except (ServiceUnavailable, ServiceTimeout,
                    ServiceOverloaded):
                self.close()  # reconnect fresh on the next try
                if attempt + 1 >= attempts:
                    raise
                time.sleep(policy.delay(attempt))
        raise AssertionError("unreachable")  # pragma: no cover


def service_running(socket_path: str | os.PathLike | None = None,
                    token: str | None = None) -> bool:
    """True when a daemon answers ``ping`` on *socket_path*."""
    try:
        with ServiceClient(socket_path, timeout=1.0, token=token) as client:
            client.ping()
        return True
    except ServiceError:
        return False


def wait_for_service(socket_path: str | os.PathLike | None = None,
                     timeout: float = 10.0,
                     token: str | None = None) -> None:
    """Block until a daemon answers ``ping`` (for launchers and tests)."""
    deadline = time.monotonic() + timeout
    while True:
        if service_running(socket_path, token=token):
            return
        if time.monotonic() >= deadline:
            raise ServiceError(
                f"no repro service appeared at "
                f"{socket_path if socket_path else 'the default socket'} "
                f"within {timeout:.0f}s"
            )
        time.sleep(0.05)


class ServiceExecutor:
    """Executor backend that ships batches to a running daemon.

    Mirrors the :class:`~repro.engine.executors.SerialExecutor` /
    :class:`~repro.engine.executors.PoolExecutor` interface (``run``,
    ``jobs``, ``describe``) so it can sit inside an ordinary
    :class:`~repro.engine.api.Engine`.  ``jobs`` reports the *daemon's*
    worker count — campaign chunk sizing then matches the real pool.
    """

    def __init__(self, client: ServiceClient):
        self.client = client
        self.jobs = int(client.ping().get("workers", 1))

    def run(self, jobs: list[SimJob]) -> list[SimResult]:
        if not jobs:
            return []
        return self.client.run_jobs(jobs)

    def describe(self) -> str:
        return f"service({self.client.socket_path})"


def service_engine(socket_path: str | os.PathLike | None = None,
                   timeout: float | None = None,
                   token: str | None = None):
    """An :class:`~repro.engine.api.Engine` whose batches run on a daemon.

    The local cache is memory-only: persistence and cross-client sharing
    live server-side, while the local layer still short-circuits repeat
    lookups (figure rendering after a campaign) without a socket round
    trip.  A campaign checkpoint dir replaces it with a disk cache.
    """
    from repro.engine.api import Engine
    from repro.engine.cache import ResultCache

    client = ServiceClient(socket_path, timeout=timeout, token=token)
    return Engine(executor=ServiceExecutor(client), cache=ResultCache(None))
