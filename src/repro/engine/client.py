"""Client side of the simulation service protocol.

A :class:`ServiceClient` speaks the newline-JSON protocol of
:mod:`repro.engine.service` over one persistent TCP connection:
``ping``/``submit``/``metrics``/``chaos``/``shutdown`` methods mirror
the server ops one-to-one, and :meth:`ServiceClient.run_jobs` gives the
engine-shaped "batch in, results in submission order out" call.
Addresses are ``host:port`` (a ``tcp://`` prefix is optional; the
canonical form carries it).  Every daemon requires the shared-secret
token, which the client attaches to every request; a rejection is the
non-retryable :class:`ServiceAuthError` (a corrected token needs a new
client call, resending the same one cannot succeed).

One resolver, :func:`resolve_service`, tells every client where the
daemons are and which token they expect: an explicit address (a
``--shards`` flag), else ``$REPRO_CLUSTER_SHARDS``, else
the address file (:data:`ADDRESS_FILE`) a daemon that generated its own
token wrote in its working directory.  The token comes from the
explicit value, else ``$REPRO_SERVICE_TOKEN``, else that file.

The client is deliberately synchronous (plain ``socket``): callers are
CLI commands, tests and campaign loops, none of which run an event loop.
Campaigns reach daemons through
:class:`~repro.engine.cluster.ClusterExecutor`, which drives one client
per shard (a single daemon is a one-shard cluster).

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
from pathlib import Path

from repro.engine.job import SimJob
from repro.pipeline.result import SimResult

#: Environment variable overriding the default client deadline (seconds).
CLIENT_TIMEOUT_ENV = "REPRO_CLIENT_TIMEOUT"

#: Environment variable holding the shared-secret auth token.
TOKEN_ENV = "REPRO_SERVICE_TOKEN"

#: Environment variable listing daemon addresses (comma-separated).
SHARDS_ENV = "REPRO_CLUSTER_SHARDS"

#: The file a daemon that generated its own token writes in its working
#: directory: ``{"address": ..., "token": ...}``, mode 0600, held under
#: a non-blocking flock for the daemon's life and removed on a clean stop.
ADDRESS_FILE = "repro-service.addr"

#: Default per-read socket deadline.  Generous — a ``submit``
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


def parse_address(address: str) -> tuple[str, int]:
    """Split a daemon address, ``host:port`` (``tcp://`` optional), into
    ``(host, port)``.

    Port ``0`` is valid for a daemon's bind and means "kernel picks": its
    ready line and ``ping`` report the bound port.
    """
    text = str(address).strip()
    if text.startswith("tcp://"):
        text = text[len("tcp://"):]
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"bad address {address!r} (want host:port)")
    return host, int(port)


def canonical_address(address: str) -> str:
    """``tcp://host:port``: the one spelling of an address.

    The hash ring hashes address strings, so two spellings of one daemon
    must collapse.
    """
    return "tcp://{}:{}".format(*parse_address(address))


def read_address_file(path: str | os.PathLike = ADDRESS_FILE) -> dict | None:
    """The ``{"address", "token"}`` record a daemon wrote, or ``None``
    when there is no (complete) file."""
    try:
        record = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None  # missing, unreadable, or not yet written
    if not isinstance(record, dict) or \
            not {"address", "token"} <= record.keys():
        return None
    return record


def resolve_service(addresses: list[str] | None = None,
                    token: str | None = None) -> tuple[list[str], str | None]:
    """Where the daemons are and the token they expect.

    Addresses: *addresses* (a ``--shards`` flag), else
    ``$REPRO_CLUSTER_SHARDS``, else the address file in the working
    directory.  Token: *token*, else ``$REPRO_SERVICE_TOKEN``, else the
    address file.  Addresses come back canonical
    (:func:`canonical_address`); a malformed one is a
    :class:`ServiceError` naming where it came from.
    """
    source = "the address"
    if not addresses:
        source = f"${SHARDS_ENV}"
        addresses = [piece for piece in
                     os.environ.get(SHARDS_ENV, "").split(",")
                     if piece.strip()]
    token = token or os.environ.get(TOKEN_ENV, "").strip() or None
    if not addresses or token is None:
        record = read_address_file()
        if record is not None:
            if not addresses:
                source = f"./{ADDRESS_FILE}"
                addresses = [record["address"]]
            token = token or record["token"]
    try:
        return [canonical_address(a) for a in addresses], token
    except ValueError as exc:
        raise ServiceError(f"{exc} in {source}") from None


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

    def __init__(self, address: str | None = None,
                 timeout: float | None = None,
                 retry: RetryPolicy | None = None,
                 token: str | None = None):
        addresses, self.token = resolve_service(
            [address] if address else None, token)
        if len(addresses) != 1:
            raise ServiceUnavailable(
                "no single repro daemon to talk to: pass one address, set "
                f"${SHARDS_ENV} to one address, or start `repro cluster "
                f"serve` here (it writes ./{ADDRESS_FILE})")
        #: The daemon's canonical ``tcp://host:port``.
        self.address = addresses[0]
        self._target = parse_address(self.address)
        self.timeout = resolve_client_timeout(timeout)
        #: Policy :meth:`run_jobs` retries transient failures under
        #: (``None`` disables retries; requests themselves never retry —
        #: only the idempotent batch call does).
        self.retry = retry if retry is not None else RetryPolicy()
        #: How the daemon satisfied the last :meth:`run_jobs` batch.
        self.last_summary: dict | None = None
        self._sock: socket.socket | None = None
        self._file = None

    # -- connection ------------------------------------------------------

    def connect(self) -> None:
        if self._sock is not None:
            return
        try:
            sock = socket.create_connection(self._target,
                                            timeout=self.timeout)
        except OSError as exc:
            raise ServiceUnavailable(
                f"cannot reach the repro service at {self.address} "
                f"({exc}); is `repro cluster serve` running?"
            ) from None
        sock.settimeout(self.timeout)
        # One request per line: latency beats Nagle batching.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
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
                f"no response from the repro service at {self.address} "
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
                f"service at {self.address} speaks protocol "
                f"v{server.get('protocol')}, this client v{PROTOCOL_VERSION}; "
                "upgrade the older side"
            )
        return server

    def submit(self, jobs: list[SimJob]) -> dict:
        """Submit a batch and wait: the raw response (``results`` in
        submission order, and the batch's ``summary``)."""
        return self.request({
            "op": "submit",
            "jobs": [job.to_dict() for job in jobs],
        })

    def shutdown(self) -> None:
        """Ask the daemon to exit (acknowledged before it stops)."""
        self.request({"op": "shutdown"})

    def chaos(self) -> dict | None:
        """The active fault plan of a ``--chaos`` daemon (``chaos`` op)."""
        return self.request({"op": "chaos"})["plan"]

    def metrics(self) -> dict:
        """The daemon's ops-surface snapshot (``metrics`` op)."""
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
        execution.  The answered batch's ``summary`` (cache hits /
        coalesced / enqueued) is kept in :attr:`last_summary`.
        """
        policy = self.retry
        attempts = policy.attempts if policy is not None else 1
        for attempt in range(attempts):
            try:
                response = self.submit(jobs)
                self.last_summary = response["summary"]
                return [SimResult.from_dict(raw)
                        for raw in response["results"]]
            except (ServiceUnavailable, ServiceTimeout,
                    ServiceOverloaded):
                self.close()  # reconnect fresh on the next try
                if attempt + 1 >= attempts:
                    raise
                time.sleep(policy.delay(attempt))
        raise AssertionError("unreachable")  # pragma: no cover


def service_running(address: str | None = None,
                    token: str | None = None) -> bool:
    """True when a daemon answers ``ping`` at *address*."""
    try:
        with ServiceClient(address, timeout=1.0, token=token) as client:
            client.ping()
        return True
    except ServiceError:
        return False


def wait_for_service(address: str | None = None,
                     timeout: float = 10.0,
                     token: str | None = None) -> None:
    """Block until a daemon answers ``ping`` (for launchers and tests)."""
    deadline = time.monotonic() + timeout
    while True:
        if service_running(address, token=token):
            return
        if time.monotonic() >= deadline:
            raise ServiceError(
                f"no repro service appeared at "
                f"{address or 'the resolved address'} within {timeout:.0f}s"
            )
        time.sleep(0.05)
