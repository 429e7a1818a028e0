"""Microbenchmarks: raw component throughput (useful for regressions).

``test_bench_core_json`` is the PR-2 throughput gate: it measures
single-job simulation throughput (µops/s) on fixed slices — including the
profiled ``gcc/vtage`` 48k-µop job — and the per-job fixed cost (median
ms of a fresh-model ``simulate()`` on a slice too short for the cycle
loop to matter), writes ``BENCH_core.json`` into the scratch directory
(``$REPRO_BENCH_DIR``, default ``bench_out/``; promote with ``repro
bench promote`` — see :mod:`bench_io`), and fails on a >30% throughput
regression against the floors in the committed
``benchmarks/bench_baseline.json`` or on a fixed cost above its ceiling
there.  It needs only pytest (no pytest-benchmark), so CI's perf-smoke
job can run it standalone:

    PYTHONPATH=src python -m pytest -q benchmarks/test_throughput.py -k bench_core_json
"""

import json
import platform
import statistics
import sys
import time
from pathlib import Path

import bench_io
from repro.analysis.metrics import evaluate_predictor
from repro.core.confidence import ConfidencePolicy
from repro.core.vtage import VTAGEPredictor
from repro.experiments.runner import make_predictor
from repro.pipeline.core import simulate
from repro.predictors.stride import TwoDeltaStridePredictor
from repro.workloads.catalog import build_trace

_REPO_ROOT = Path(__file__).resolve().parents[1]
BASELINE_PATH = _REPO_ROOT / "benchmarks" / "bench_baseline.json"

#: Fixed measurement slices: (workload, predictor, µops).  The first entry
#: is the job the PR-2 issue profiled (gcc/vtage over 48k µops).
BENCH_CORE_ENTRIES = (
    ("gcc", "vtage", 48_000),
    ("gcc", "none", 48_000),
    ("wupwise", "2dstride", 24_000),
    ("crafty", "vtage-2dstride", 24_000),
)

#: Fixed-cost slices: (workload, predictor, µops).  At 500 µops the cycle
#: loop is a small share of a job; model construction, state marshalling
#: and result assembly are the rest.  The predicted slices also gate the
#: predictor tables' trip across the kernel boundary.
JOB_COST_ENTRIES = (
    ("gcc", "none", 500),
    ("gcc", "2dstride", 500),
    ("gcc", "vtage", 500),
)

#: Jobs per fixed-cost slice (the gate reads their median).
JOB_COST_JOBS = 101

#: Allowed slowdown vs. the committed baseline before the gate fails.
REGRESSION_TOLERANCE = 0.30

#: Best-of rounds per slice (recorded in the report's ``run`` block).
ROUNDS = 5


def measure_uops_per_s(workload: str, predictor_name: str, n_uops: int,
                       rounds: int = ROUNDS) -> float:
    """Best-of-*rounds* single-job simulation throughput in µops/s.

    The trace is built (and its columnar view materialised) once up
    front — trace construction is cached per process in production and is
    not what this gate guards.  Each round gets a fresh predictor and a
    fresh core, exactly like one engine job.
    """
    trace = build_trace(workload, n_uops)
    best = 0.0
    for _ in range(rounds):
        predictor = make_predictor(predictor_name)
        start = time.perf_counter()
        simulate(trace, predictor, warmup=0, workload=workload)
        elapsed = time.perf_counter() - start
        best = max(best, n_uops / elapsed)
    return best


def measure_job_ms(workload: str, predictor_name: str, n_uops: int,
                   jobs: int = JOB_COST_JOBS) -> float:
    """Median wall time in ms of one fresh-model ``simulate()`` job.

    One unmeasured job first builds the trace's planes (per-trace work,
    cached in production) and loads the kernel.
    """
    trace = build_trace(workload, n_uops)
    simulate(trace, make_predictor(predictor_name), warmup=0,
             workload=workload)
    times = []
    for _ in range(jobs):
        predictor = make_predictor(predictor_name)
        start = time.perf_counter()
        simulate(trace, predictor, warmup=0, workload=workload)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def emit_bench_core(path: Path | None = None) -> dict:
    """Measure every entry and write the BENCH_core.json report.

    Writes to the scratch bench directory; the committed repo-root
    copy only changes through ``repro bench promote``.
    """
    if path is None:
        path = bench_io.bench_output_path("BENCH_core.json")
    uops_per_s = {
        f"{workload}/{predictor}": round(
            measure_uops_per_s(workload, predictor, n_uops)
        )
        for workload, predictor, n_uops in BENCH_CORE_ENTRIES
    }
    job_ms = {
        f"{workload}/{predictor}": round(
            measure_job_ms(workload, predictor, n_uops), 3
        )
        for workload, predictor, n_uops in JOB_COST_ENTRIES
    }
    report = {
        "schema": 2,
        "unit": "uops_per_s",
        "slices": {f"{w}/{p}": n for w, p, n in BENCH_CORE_ENTRIES},
        "uops_per_s": uops_per_s,
        "job_slices": {f"{w}/{p}": n for w, p, n in JOB_COST_ENTRIES},
        "job_ms": job_ms,
        "run": bench_io.run_metadata(ROUNDS),
        "python": sys.version.split()[0],
        "machine": platform.machine(),
    }
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return report


def test_bench_core_json():
    """Emit BENCH_core.json and gate on >30% regression vs the baseline
    floors, or on a per-job fixed cost above its ceiling."""
    report = emit_bench_core()
    baseline = json.loads(BASELINE_PATH.read_text())
    failures = []
    for key, floor in baseline["uops_per_s"].items():
        measured = report["uops_per_s"].get(key)
        assert measured is not None, f"benchmark entry {key} disappeared"
        if measured < (1.0 - REGRESSION_TOLERANCE) * floor:
            failures.append(f"{key}: {measured} < 70% of baseline {floor}")
    for key, ceiling in baseline["job_ms_ceiling"].items():
        measured = report["job_ms"].get(key)
        assert measured is not None, f"fixed-cost entry {key} disappeared"
        if measured > ceiling:
            failures.append(f"{key}: {measured} ms/job > ceiling {ceiling}")
    assert not failures, "throughput regression: " + "; ".join(failures)


def test_trace_generation_throughput(benchmark):
    """Kernel VM µop generation rate."""
    trace = benchmark(build_trace, "gzip", 20000, 999, False)
    assert len(trace) >= 19000


def test_vtage_lookup_train_throughput(benchmark):
    """VTAGE predict+train rate over a real trace."""
    trace = build_trace("gcc", 12000)
    predictor = VTAGEPredictor(base_entries=8192, tagged_entries=1024,
                               confidence=ConfidencePolicy())

    def run():
        return evaluate_predictor(trace, predictor, warmup=0)

    stats = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert stats.eligible > 0


def test_stride_lookup_train_throughput(benchmark):
    trace = build_trace("wupwise", 12000)
    predictor = TwoDeltaStridePredictor(entries=8192,
                                        confidence=ConfidencePolicy())

    def run():
        return evaluate_predictor(trace, predictor, warmup=0)

    stats = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert stats.eligible > 0


def test_core_model_throughput(benchmark):
    """Cycle-model µops/second (no predictor)."""
    trace = build_trace("vpr", 12000)

    def run():
        return simulate(trace, None, warmup=0, workload="vpr")

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert result.cycles > 0
