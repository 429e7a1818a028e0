"""Test-suite hermeticity, and the one in-process daemon helper.

The drivers under test route simulations through the process-wide default
engine, which is normally built from ``REPRO_JOBS``/``REPRO_CACHE_DIR``.
A developer's persistent cache must not leak into assertions (stale
results from an older simulator would mask regressions) nor test runs
into their cache, so ``REPRO_CACHE_DIR`` is scrubbed for the whole
session.  This is session-scoped on purpose: class-scoped driver
fixtures run before any function-scoped fixture could repin the engine.

``REPRO_SERVICE_TOKEN`` is pinned for the session too: every daemon
under test (in-process or a subprocess inheriting the environment)
requires that known token, so none generates its own and writes an
address file into the working directory, and every client finds the
token in the same variable.  Tests of the generated-token path unset it.

``REPRO_JOBS`` deliberately passes through: executor backends are
bit-identical, and CI exploits that by re-running the experiment tests
under ``REPRO_JOBS=2``.
"""

import asyncio
import os
import threading
import time

import pytest

from repro.engine.api import reset_default_engine
from repro.engine.client import TOKEN_ENV, ServiceClient, ServiceError
from repro.engine.service import SimService

#: The token every daemon under test requires.
TEST_TOKEN = "test-suite-token"


@pytest.fixture(scope="session", autouse=True)
def _no_persistent_cache_during_tests():
    saved = os.environ.pop("REPRO_CACHE_DIR", None)
    reset_default_engine()
    yield
    if saved is not None:
        os.environ["REPRO_CACHE_DIR"] = saved
    reset_default_engine()


@pytest.fixture(scope="session", autouse=True)
def _known_service_token():
    saved = os.environ.get(TOKEN_ENV)
    os.environ[TOKEN_ENV] = TEST_TOKEN
    yield
    if saved is None:
        os.environ.pop(TOKEN_ENV, None)
    else:
        os.environ[TOKEN_ENV] = saved


class InProcessDaemon:
    """A :class:`~repro.engine.service.SimService` on a background thread
    with its own event loop: a real TCP socket and real worker processes,
    but in this process, so a test can install fault plans mid-flight
    and coverage sees the daemon's code.

    Keyword arguments go to :class:`SimService` (``workers`` defaults to
    1, ``listen`` to a kernel-picked loopback port).  Use as a context
    manager, or :meth:`start` / :meth:`stop` for a daemon that outlives
    a ``with`` block.
    """

    def __init__(self, **kwargs):
        kwargs.setdefault("workers", 1)
        self.service = SimService(**kwargs)
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.error = None

    def _run(self):
        try:
            asyncio.run(self.service.serve_until_shutdown())
        except BaseException as exc:  # noqa: BLE001 - surfaced by start()
            self.error = exc

    @property
    def address(self) -> str:
        """The bound ``tcp://host:port``."""
        return self.service.listen_address

    def client(self, **kwargs) -> ServiceClient:
        """A client holding this daemon's token."""
        kwargs.setdefault("token", self.service.token)
        return ServiceClient(self.address, **kwargs)

    def start(self) -> "InProcessDaemon":
        """Start serving; return once the daemon answers ``ping``."""
        self.thread.start()
        deadline = time.monotonic() + 60
        while True:
            if not self.thread.is_alive():
                raise self.error or AssertionError("daemon thread exited")
            if self.service.queue is not None and self.address is not None:
                try:
                    with self.client(timeout=1.0) as probe:
                        probe.ping()
                    return self
                except ServiceError:
                    pass
            assert time.monotonic() < deadline, "daemon did not come up"
            time.sleep(0.02)

    def stop(self) -> None:
        """Ask the daemon to shut down and wait for its thread."""
        try:
            with self.client(timeout=10.0) as client:
                client.shutdown()
        except ServiceError:
            pass
        self.thread.join(timeout=60)
        assert not self.thread.is_alive(), "daemon failed to shut down"

    def __enter__(self) -> "InProcessDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


@pytest.fixture
def daemon():
    """The :class:`InProcessDaemon` class: ``with daemon(workers=2) as d``."""
    return InProcessDaemon
