"""Shared configuration for the benchmark harness.

Every paper table and figure has a bench target here (see DESIGN.md's
experiment index).  Benchmarks run scaled-down slices so the whole harness
finishes in minutes; the full-size regeneration is
``python -m repro.experiments.reproduce`` (it prints the full report).
The Figure 3–7 targets are timing runs: the paper's claims about those
figures have one home, ``repro.experiments.claims``, which
``tests/integration/test_claims.py`` gates.

All simulation traffic goes through the experiment engine
(:mod:`repro.engine`).  The harness pins a *serial*, *memory-only* engine
and gives each benchmark test a fresh result cache: within one test,
repeated jobs (notably the shared no-VP baselines) are memoised exactly as
in production, but nothing leaks across tests — a warm cache would turn a
timing run into a dictionary lookup.
"""

import pytest

from repro.engine.api import configure_default_engine, reset_default_engine

#: Scaled-down slice used by benchmark targets.
BENCH_MEASURE = 8000
BENCH_WARMUP = 4000

#: Workload subset exercising each behavioural family: low-accuracy
#: (crafty), stride-dominated (wupwise), context-dominated (gcc),
#: memory-bound (milc) and the small-coverage/large-gain case (h264ref).
BENCH_WORKLOADS = ("crafty", "wupwise", "gcc", "milc", "h264ref")


@pytest.fixture(scope="session")
def bench_sizes():
    return {"n_uops": BENCH_MEASURE, "warmup": BENCH_WARMUP}


@pytest.fixture(autouse=True)
def bench_engine():
    """A serial, memory-only engine with a per-test cache lifetime."""
    engine = configure_default_engine(jobs=1, cache_dir="")
    yield engine
    reset_default_engine()


def run_once(benchmark, fn, *args, **kwargs):
    """Run *fn* exactly once under pytest-benchmark timing.

    Simulation benches are seconds-long; multiple rounds would make the
    harness take hours for no statistical benefit.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1, warmup_rounds=0)
