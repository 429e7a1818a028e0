"""Cluster-level wall-clock benchmark: what a second shard buys.

``test_bench_cluster_json`` runs the same fixed 24-job grid as
``BENCH_grid.json`` (6 workloads × 4 predictor configs) through the
cluster plane in two fleet shapes:

* ``shards-1`` — one TCP shard, all routing trivially lands on it;
* ``shards-2`` — two TCP shards, the consistent-hash ring splits the
  grid's content keys between them.

Every mode gets **fresh daemons with memory-only result caches** (so
wall-clock measures simulation + transport, never a warm result cache)
over a **shared pre-warmed trace store** (so no mode pays one-off trace
generation — the cold/warm trace story is ``BENCH_grid.json``'s job).
Per-shard worker count is held fixed, so the 1→2 shard delta is the
honest scale-out story: more shards = more worker processes + ring
fan-out overhead.

Wall-clock lands in ``BENCH_cluster.json`` in the scratch bench
directory (``$REPRO_BENCH_DIR``, default ``bench_out/``; the committed
copy only changes through ``repro bench promote`` — see
:mod:`bench_io`).  Timing is *reported*, not gated — shared CI runners
are far too noisy for fleet-level wall-clock floors, and with fewer
cores than total workers the 2-shard row measures distribution
overhead rather than speedup (``cpu_count`` is recorded for exactly
that reason).  What *is* asserted is structural and deterministic:
every mode's results are bit-identical to a local serial run, the
2-shard ring actually spreads the grid (each shard executes ≥ 1 job),
and no key is simulated twice cluster-wide.
"""

import asyncio
import json
import os
import platform
import sys
import threading
import time

import bench_io
from repro.engine.api import Engine
from repro.engine.cache import ResultCache
from repro.engine.client import ServiceClient, ServiceError, wait_for_service
from repro.engine.cluster import ShardRouter
from repro.engine.executors import SerialExecutor
from repro.engine.job import SimJob
from repro.engine.service import SimService
from repro.workloads import catalog
from repro.workloads.store import TRACE_DIR_ENV

#: Same grid as BENCH_grid.json so the two reports are comparable.
GRID_WORKLOADS = ("gzip", "gcc", "wupwise", "crafty", "milc", "h264ref")
GRID_PREDICTORS = ("none", "lvp", "2dstride", "vtage")
GRID_MEASURE = 8000
GRID_WARMUP = 4000

#: Held fixed across fleet shapes (see the module docstring).
WORKERS_PER_SHARD = 2

SHARD_COUNTS = (1, 2)

#: One measured round per cell: the structural gates are deterministic
#: and the timing is reported rather than floored, so best-of-N buys
#: nothing a shared runner's noise would not immediately spend.
ROUNDS = 1


def grid_jobs() -> list[SimJob]:
    return [
        SimJob.make(w, p, n_uops=GRID_MEASURE, warmup=GRID_WARMUP)
        for p in GRID_PREDICTORS
        for w in GRID_WORKLOADS
    ]


#: The fleet's shared secret.  Given explicitly, so no shard generates
#: its own and writes an address file into the working directory.
TOKEN = "bench-cluster"


class _Shard:
    """One in-process TCP shard with a memory-only result cache."""

    def __init__(self):
        self.service = SimService(workers=WORKERS_PER_SHARD, token=TOKEN)
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.error = None

    def _run(self):
        try:
            asyncio.run(self.service.serve_until_shutdown())
        except BaseException as exc:  # noqa: BLE001 - surfaced by start()
            self.error = exc

    def start(self) -> str:
        self.thread.start()
        while self.service.listen_address is None:
            if self.error is not None:
                raise self.error
            time.sleep(0.02)
        wait_for_service(self.service.listen_address, timeout=60,
                         token=TOKEN)
        return self.service.listen_address

    def stop(self):
        try:
            with ServiceClient(self.service.listen_address, timeout=10.0,
                               token=TOKEN) as client:
                client.shutdown()
        except ServiceError:
            pass
        self.thread.join(timeout=60)


def run_fleet(jobs: list[SimJob], shards: int) -> tuple[float, list, list]:
    """One measured grid run on a fresh *shards*-daemon fleet; returns
    (wall seconds, result dicts, per-shard executed counts)."""
    fleet = [_Shard() for _ in range(shards)]
    try:
        addresses = [shard.start() for shard in fleet]
        with ShardRouter(addresses, token=TOKEN) as router:
            start = time.perf_counter()
            results = router.run_jobs(jobs)
            wall = time.perf_counter() - start
            executed = [row["metrics"]["queue"]["stats"]["executed"]
                        for row in router.status()["shards"]]
        return wall, [r.to_dict() for r in results], executed
    finally:
        for shard in fleet:
            shard.stop()


def emit_bench_cluster(store_dir, path=None) -> tuple[dict, dict]:
    """Measure each fleet shape on a warm trace store and write
    BENCH_cluster.json; returns ``(report, result dicts per cell)``."""
    if path is None:
        path = bench_io.bench_output_path("BENCH_cluster.json")
    jobs = grid_jobs()
    saved = os.environ.get(TRACE_DIR_ENV)
    os.environ[TRACE_DIR_ENV] = str(store_dir)
    catalog.clear_trace_cache()
    try:
        # Pre-warm the shared store (and compute the bit-identity
        # reference) with one local serial run; the measured fleets
        # then mmap-load every trace instead of generating.
        engine = Engine(executor=SerialExecutor(), cache=ResultCache(None))
        reference = [r.to_dict() for r in engine.run_jobs(jobs)]
        cells: dict[str, dict] = {}
        results: dict[str, list] = {"local-serial": reference}
        for shards in SHARD_COUNTS:
            wall = None
            for _ in range(ROUNDS):
                round_wall, dicts, executed = run_fleet(jobs, shards)
                wall = round_wall if wall is None else min(wall, round_wall)
            cell = f"shards-{shards}"
            cells[cell] = {
                "wall_s": round(wall, 3),
                "executed_per_shard": executed,
            }
            results[cell] = dicts
        one = cells["shards-1"]["wall_s"]
        for shards in SHARD_COUNTS:
            cells[f"shards-{shards}"]["speedup_vs_1_shard"] = \
                round(one / cells[f"shards-{shards}"]["wall_s"], 3)
    finally:
        if saved is None:
            os.environ.pop(TRACE_DIR_ENV, None)
        else:
            os.environ[TRACE_DIR_ENV] = saved
        catalog.clear_trace_cache()
    report = {
        "schema": 1,
        "unit": "wall_s",
        "grid": {
            "jobs": len(jobs),
            "workloads": list(GRID_WORKLOADS),
            "predictors": list(GRID_PREDICTORS),
            "n_uops": GRID_MEASURE,
            "warmup": GRID_WARMUP,
        },
        "workers_per_shard": WORKERS_PER_SHARD,
        "shard_counts": list(SHARD_COUNTS),
        "cells": cells,
        "run": bench_io.run_metadata(ROUNDS),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "machine": platform.machine(),
    }
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return report, results


def test_bench_cluster_json(tmp_path):
    """Emit BENCH_cluster.json and pin the cluster's structural facts."""
    report, results = emit_bench_cluster(tmp_path / "trace-store")
    reference = results["local-serial"]
    for cell in ("shards-1", "shards-2"):
        assert results[cell] == reference, \
            f"{cell} diverged from the local serial results"
    executed = report["cells"]["shards-2"]["executed_per_shard"]
    assert all(n > 0 for n in executed), \
        f"the ring left a shard idle: {executed}"
    # No key simulated twice cluster-wide: the executed counts sum to
    # exactly the grid's unique content keys.
    assert sum(executed) == len({j.content_key() for j in grid_jobs()})
    assert sum(report["cells"]["shards-1"]["executed_per_shard"]) == \
        len({j.content_key() for j in grid_jobs()})
