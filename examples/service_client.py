#!/usr/bin/env python3
"""Scenario: one simulation daemon, two clients, one shared hot cache.

Starts a ``repro cluster serve`` daemon in a private directory, where,
given no token, it generates one and writes it with its address to
``repro-service.addr`` (mode 0600).  Then it plays two clients that read
that file and submit *overlapping* predictor grids concurrently — the
situation the service layer exists for.  The daemon deduplicates across
clients: every unique job simulates exactly once, the second client's
overlap is answered from the shared cache or attached to in-flight work,
and both clients get results bit-identical to an in-process
``run_jobs`` call (asserted at the end).

Usage::

    python examples/service_client.py [n_uops] [workers]

    # bigger slice, 4 service workers:
    python examples/service_client.py 24000 4

Expected output: client A executes its whole grid; client B — submitted
concurrently, sharing three of its four workloads — reports most of its
jobs as cache hits/coalesced rather than newly enqueued, and the
daemon's lifetime counters show fewer simulations executed than jobs
submitted.  See docs/architecture.md for the data-flow picture.
"""

import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.engine.client import (
    ADDRESS_FILE,
    TOKEN_ENV,
    ServiceClient,
    read_address_file,
    wait_for_service,
)
from repro.engine.executors import SerialExecutor
from repro.engine.job import SimJob

#: Client A sweeps these workloads; client B overlaps on all but one.
WORKLOADS_A = ("gzip", "gcc", "wupwise", "applu")
WORKLOADS_B = ("gcc", "wupwise", "applu", "crafty")
PREDICTORS = ("lvp", "2dstride")


def grid(workloads, n_uops: int) -> list[SimJob]:
    """The predictors × workloads job grid one client submits."""
    return [SimJob.make(w, p, n_uops=n_uops, warmup=n_uops // 2)
            for p in PREDICTORS for w in workloads]


def start_daemon(workers: int, directory: Path):
    """Start a daemon with a generated token in *directory*; returns
    ``(process, address, token)`` read from its address file."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p)}
    env.pop(TOKEN_ENV, None)
    # --cache-dir "" forces a memory-only cache: the executed-counts
    # asserted below must not be satisfied by a warm REPRO_CACHE_DIR.
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "-j", str(workers),
         "--cache-dir", "", "cluster", "serve"],
        env=env, cwd=directory,
    )
    deadline = time.monotonic() + 30
    while (record := read_address_file(directory / ADDRESS_FILE)) is None:
        if daemon.poll() is not None or time.monotonic() > deadline:
            daemon.kill()
            raise SystemExit("the daemon wrote no address file")
        time.sleep(0.05)
    return daemon, record["address"], record["token"]


def run_clients(address: str, token: str | None, n_uops: int, *,
                shutdown: bool) -> tuple[dict, set]:
    """Two concurrent clients with overlapping grids against the daemon
    at *address*; prints what each saw and returns the daemon's lifetime
    counters and the unique job keys.  With *shutdown*, stop the daemon
    afterwards."""
    wait_for_service(address, timeout=30, token=token)

    responses: dict[str, dict] = {}

    def client(name: str, workloads) -> None:
        with ServiceClient(address, token=token) as conn:
            responses[name] = conn.submit(grid(workloads, n_uops))

    # Two concurrent clients, overlapping grids.
    threads = [threading.Thread(target=client, args=("A", WORKLOADS_A)),
               threading.Thread(target=client, args=("B", WORKLOADS_B))]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    unique = {job.content_key() for w in (WORKLOADS_A, WORKLOADS_B)
              for job in grid(w, n_uops)}
    for name, workloads in (("A", WORKLOADS_A), ("B", WORKLOADS_B)):
        summary = responses[name]["summary"]
        print(f"client {name}: {summary['jobs']} jobs — "
              f"{summary['enqueued']} enqueued, "
              f"{summary['cache_hits']} cache hits, "
              f"{summary['coalesced']} coalesced with in-flight work")

    with ServiceClient(address, token=token) as conn:
        stats = conn.metrics()["queue"]["stats"]
        print(f"daemon: {stats['submitted']} jobs submitted, "
              f"{stats['executed']} simulations executed "
              f"({len(unique)} unique specs) in {elapsed:.2f}s")
        shared = stats["submitted"] - stats["executed"]
        print(f"cross-client sharing saved {shared} simulation(s)")

        # Bit-identity: the daemon's results equal an in-process run.
        local = {job.content_key(): result for job, result in zip(
            grid(WORKLOADS_A, n_uops),
            SerialExecutor().run(grid(WORKLOADS_A, n_uops)))}
        from repro.pipeline.result import SimResult
        remote = [SimResult.from_dict(raw)
                  for raw in responses["A"]["results"]]
        assert all(
            remote[i].to_dict() == local[job.content_key()].to_dict()
            for i, job in enumerate(grid(WORKLOADS_A, n_uops))
        ), "service results diverged from the in-process engine"
        print("service results are bit-identical to in-process run_jobs")

        if shutdown:
            conn.shutdown()
    return stats, unique


def main(n_uops: int = 4000, workers: int = 2,
         address: str | None = None) -> int:
    """Run the whole scenario; returns a process exit code.

    With *address*, use that running daemon (token from
    ``$REPRO_SERVICE_TOKEN``) instead of starting one.
    """
    own_daemon = address is None
    token = None
    if own_daemon:
        directory = Path(tempfile.mkdtemp(prefix="repro-svc-"))
        daemon, address, token = start_daemon(workers, directory)
    try:
        stats, unique = run_clients(address, token, n_uops,
                                    shutdown=own_daemon)
    except BaseException:
        if own_daemon:
            # Stop it (SIGTERM is a clean stop): a daemon left running
            # would hold the caller's stdout and stderr open.
            daemon.terminate()
            daemon.wait(timeout=15)
        raise
    if own_daemon:
        daemon.wait(timeout=15)
        # A clean stop removed the address file, so this finds it empty.
        directory.rmdir()
    assert stats["executed"] == len(unique), \
        "expected exactly one execution per unique job spec"
    return 0


if __name__ == "__main__":
    n_uops = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    raise SystemExit(main(n_uops, workers))
