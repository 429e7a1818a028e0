"""Grid-level wall-clock benchmark: the trace store's end-to-end effect.

``test_bench_grid_json`` runs a fixed 24-job grid (6 workloads × 4
predictor configs) on the serial executor in three trace-store modes:

* ``private`` — no ``$REPRO_TRACE_DIR``: each unique trace is generated
  once per run, in process, and kept nowhere;
* ``cold``    — configured store starting empty (first-ever run on a
  machine): as ``private``, but the generated traces persist;
* ``warm``    — configured store populated (daemon restart / next
  campaign): every trace mmap-loads, zero generator runs.

There is no pool cell.  A pool fixes its trace store when it starts
and its workers keep every trace they load in memory, so a pool held
across rounds measures every round after the first as warm, whatever
the mode; a new pool per round times its workers' interpreter
start-ups instead of the store.

Wall-clock per mode is written to ``BENCH_grid.json`` in the scratch
bench directory (``$REPRO_BENCH_DIR``, default ``bench_out/``; the
committed repo-root copy only changes through ``repro bench promote`` —
see :mod:`bench_io`) together with the speedups versus the private
mode.  Timing numbers are *reported*, not gated (shared CI runners are
too noisy for grid-level wall-clock floors).  What *is* asserted is
structural and deterministic: every mode matches a fresh serial run bit
for bit, the cold run populates the store with every unique trace, the
warm run executes zero generator runs, and no private store survives a
run.
"""

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import bench_io
from repro.engine.api import Engine
from repro.engine.cache import ResultCache
from repro.engine.executors import SerialExecutor
from repro.engine.job import SimJob
from repro.workloads import catalog
from repro.workloads.store import TRACE_DIR_ENV, TraceStore

_REPO_ROOT = Path(__file__).resolve().parents[1]

#: The fixed grid: 6 workloads spanning the behavioural families × 4
#: predictor configs = 24 jobs sharing 6 unique traces.
GRID_WORKLOADS = ("gzip", "gcc", "wupwise", "crafty", "milc", "h264ref")
GRID_PREDICTORS = ("none", "lvp", "2dstride", "vtage")
GRID_MEASURE = 8000
GRID_WARMUP = 4000

#: Rounds per cell; the report keeps the fastest (same rationale as
#: BENCH_core's best-of-5: strip scheduler noise, keep the real cost).
ROUNDS = 2


def grid_jobs() -> list[SimJob]:
    return [
        SimJob.make(w, p, n_uops=GRID_MEASURE, warmup=GRID_WARMUP)
        for p in GRID_PREDICTORS
        for w in GRID_WORKLOADS
    ]


def run_grid_mode(jobs: list[SimJob],
                  trace_dir: str | None) -> tuple[float, list, int]:
    """One measured grid run; returns (wall seconds, result dicts,
    generator runs)."""
    saved = os.environ.pop(TRACE_DIR_ENV, None)
    if trace_dir is not None:
        os.environ[TRACE_DIR_ENV] = trace_dir
    catalog.clear_trace_cache()
    engine = Engine(executor=SerialExecutor(), cache=ResultCache(None))
    generations_before = catalog.generation_count()
    try:
        start = time.perf_counter()
        results = engine.run_jobs(jobs)
        wall = time.perf_counter() - start
    finally:
        os.environ.pop(TRACE_DIR_ENV, None)
        if saved is not None:
            os.environ[TRACE_DIR_ENV] = saved
        catalog.clear_trace_cache()
    return (wall, [r.to_dict() for r in results],
            catalog.generation_count() - generations_before)


def emit_bench_grid(store_root: Path,
                    path: Path | None = None) -> tuple[dict, dict]:
    """Measure every mode's cell and write BENCH_grid.json.

    Writes to the scratch bench directory by default (committed copy
    only through ``repro bench promote``).  Returns ``(report,
    result-dict-lists per cell)`` so the caller can assert cross-mode
    bit-identity.
    """
    if path is None:
        path = bench_io.bench_output_path("BENCH_grid.json")
    jobs = grid_jobs()
    unique_traces = {(j.workload, j.warmup + j.n_uops, j.seed) for j in jobs}
    cells: dict[str, dict] = {}
    results: dict[str, list] = {}
    store_dir = str(store_root)
    plan = (("private", None), ("cold", store_dir), ("warm", store_dir))
    for mode, trace_dir in plan:
        wall = None
        for _ in range(ROUNDS):
            if mode == "cold":
                # Every cold round starts from an empty store.
                TraceStore(trace_dir).clear()
            round_wall, dicts, generations = run_grid_mode(jobs, trace_dir)
            wall = round_wall if wall is None else min(wall, round_wall)
        cells[mode] = {"wall_s": round(wall, 3), "generations": generations}
        results[mode] = dicts
    for mode in ("cold", "warm"):
        cells[mode]["speedup_vs_private"] = round(
            cells["private"]["wall_s"] / cells[mode]["wall_s"], 3)
    cells["store_entries"] = TraceStore(store_dir).stats()["entries"]
    report = {
        "schema": 4,
        "unit": "wall_s",
        "grid": {
            "jobs": len(jobs),
            "workloads": list(GRID_WORKLOADS),
            "predictors": list(GRID_PREDICTORS),
            "n_uops": GRID_MEASURE,
            "warmup": GRID_WARMUP,
            "unique_traces": len(unique_traces),
        },
        "cells": cells,
        "run": bench_io.run_metadata(ROUNDS),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "machine": platform.machine(),
    }
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return report, results


def test_bench_grid_json(tmp_path, monkeypatch):
    """Emit BENCH_grid.json and pin the trace store's structural facts."""
    private_root = tmp_path / "tmp"
    private_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(private_root))
    report, results = emit_bench_grid(tmp_path / "trace-store")
    cells = report["cells"]
    catalog.clear_trace_cache()
    reference = [r.to_dict() for r in SerialExecutor().run(grid_jobs())]
    catalog.clear_trace_cache()
    for cell, dicts in results.items():
        assert dicts == reference, f"{cell} diverged from the serial results"
    # No run left a private store behind.
    assert list(private_root.glob("repro-traces-*")) == []
    # The cold run must have left one store entry per unique trace...
    assert cells["store_entries"] == report["grid"]["unique_traces"]
    # ...and a warm run never touches the generators.
    assert cells["warm"]["generations"] == 0
    assert cells["cold"]["generations"] == report["grid"]["unique_traces"]
