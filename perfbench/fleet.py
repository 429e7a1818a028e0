"""The two-shard fleet behind the ``cluster-mixed`` workload.

Each shard is a real ``repro cluster serve`` subprocess with one worker, a
memory-only result cache and token auth, sharing the benchmark's trace
store through the inherited ``REPRO_TRACE_DIR``.  Load comes from this
process through one :class:`~repro.engine.cluster.ShardRouter`, so the
benchmark holds one connection per shard and at most one router thread.

The fleet's peak RSS is the sum of per-process peaks (``VmHWM``) over
every shard and every process below it, read just before shutdown: the
queue workers are ``spawn`` interpreters with memory of their own, which a
reaped parent's ``ru_maxrss`` (a maximum, not a sum) would hide.
"""

from __future__ import annotations

import functools
import queue
import re
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.engine.client import ServiceClient, ServiceError
from repro.engine.cluster import ShardRouter

READY_LINE = re.compile(r"listen=(tcp://\S+)")

#: Seconds a shard gets to print its ready line, and to exit once asked.
READY_TIMEOUT = 60.0
EXIT_TIMEOUT = 20.0

#: Client deadline per request; a miss takes milliseconds.
CLIENT_TIMEOUT = 60.0


class Shard:
    """One ``repro cluster serve`` process and the thread draining its stderr."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "-j", "1", "cluster", "serve",
             "--listen", "127.0.0.1:0"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.drain = threading.Thread(target=self._drain, daemon=True)
        self.drain.start()
        self.address: str | None = None

    def _drain(self) -> None:
        # The pipe must keep draining or a chatty shard blocks on it.
        for line in self.proc.stderr:
            self.lines.put(line)
        self.lines.put(None)

    def wait_ready(self, deadline: float) -> str:
        while self.address is None:
            try:
                line = self.lines.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise ServiceError("shard printed no ready line in time") \
                    from None
            if line is None:
                raise ServiceError("shard exited before its ready line")
            match = READY_LINE.search(line)
            if match:
                self.address = match.group(1)
        return self.address

    def peak_rss_kb(self) -> int:
        """Sum of ``VmHWM`` over the shard and every process below it."""
        return sum(_vm_hwm_kb(pid) for pid in _tree(self.proc.pid))

    def stop(self, token: str) -> None:
        """Ask the shard to exit (then SIGTERM, then SIGKILL) and reap it."""
        if self.address is not None:
            try:
                with ServiceClient(self.address, timeout=10.0,
                                   token=token) as client:
                    client.shutdown()
            except ServiceError:
                pass  # already gone or wedged: the signals below decide
        for escalate in (lambda: None, self.proc.terminate, self.proc.kill):
            escalate()
            try:
                self.proc.wait(timeout=EXIT_TIMEOUT)
                break
            except subprocess.TimeoutExpired:
                pass
        self.drain.join(timeout=10.0)
        self.proc.stderr.close()


def _tree(pid: int) -> list[int]:
    """*pid* and every live process below it, from ``/proc``."""
    pids = [pid]
    for children in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            listed = children.read_text().split()
        except OSError:
            continue  # the thread ended meanwhile
        for child in listed:
            pids += _tree(int(child))
    return pids


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set of *pid* in kB; 0 once it has exited."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
    return int(match.group(1)) if match else 0


class Fleet:
    """*size* shards plus the router that loads them."""

    def __init__(self, size: int, env: dict, token: str):
        self.size = size
        self.env = env
        self.token = token
        self.shards: list[Shard] = []
        self.router: ShardRouter | None = None
        self.maxrss_kb = 0

    def start(self) -> "Fleet":
        """Spawn every shard and wait for its ready line; :meth:`close`
        stops them, and a failed start stops what it spawned."""
        try:
            for _ in range(self.size):
                self.shards.append(Shard(self.env))
            deadline = time.monotonic() + READY_TIMEOUT
            addresses = [shard.wait_ready(deadline) for shard in self.shards]
            self.router = ShardRouter(addresses, token=self.token,
                                      timeout=CLIENT_TIMEOUT)
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        """Read the fleet's peak RSS, then stop every shard."""
        self.maxrss_kb = sum(shard.peak_rss_kb() for shard in self.shards
                             if shard.proc.returncode is None)
        if self.router is not None:
            self.router.close()
        for shard in self.shards:
            if shard.proc.returncode is None:
                shard.stop(self.token)

    def send(self, jobs):
        """One closed-loop request through the router."""
        return self.router.run_jobs(list(jobs))

    def metrics(self) -> list[dict]:
        """Every shard's ``metrics`` snapshot, over the router's connections."""
        return [self.router.client(address).metrics()
                for address in self.router.ring.shards]

    @contextmanager
    def timed_routing(self, clock):
        """Time the ring's key→shard calls as the ``cluster.route`` layer."""
        ring = self.router.ring
        ring.preference = functools.partial(clock.call, "cluster.route",
                                            ring.preference)
        try:
            yield
        finally:
            del ring.preference
