"""The compiled kernel is a drop-in replacement for the spec loop.

Two implementations of the same scheduler exist: the sequential spec loop
``CoreModel._run`` and the compiled kernel (``pipeline/ckernel.py``).
Selection is environment-driven (``REPRO_FAST_SIM``), so these tests run
the *same* configuration under both modes and require dataclass-equal
results — the tier-1 complement to the full golden grid, which CI also
replays per mode.  Fallback rules (unsupported predictor families,
pre-warmed branch state) are pinned here too: falling back must be
silent and produce the spec loop's answer, never a wrong fast one.
"""

import sys
import threading

import pytest

from repro.experiments.runner import make_predictor
from repro.pipeline import ckernel, fastsim
from repro.pipeline.config import CoreConfig, RecoveryMode
from repro.pipeline.core import CoreModel, simulate
from repro.pipeline.result import SimResult
from repro.workloads.catalog import build_trace

_N = 4000
_WARMUP = 1000

#: (workload, predictor name, recovery) triples covering every family the
#: kernel inlines — LVP, stride, 2Δ-stride, VTAGE, oracle, no-VP — and
#: both recovery mechanisms.
_CONFIGS = (
    ("gcc", "vtage", "squash"),
    ("gcc", "vtage", "reissue"),
    ("wupwise", "2dstride", "squash"),
    ("gzip", "stride", "reissue"),
    ("crafty", "lvp", "squash"),
    ("milc", "oracle", "squash"),
    ("h264ref", "none", "squash"),
)

_MODES = ("legacy", "kernel")


def _set_mode(monkeypatch, mode: str) -> None:
    if mode == "legacy":
        monkeypatch.setenv(fastsim.FAST_SIM_ENV, "0")
    else:
        monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)


def _run(workload: str, predictor_name: str, recovery: str):
    trace = build_trace(workload, _N + _WARMUP)
    predictor = make_predictor(predictor_name, recovery=recovery)
    config = CoreConfig(recovery=RecoveryMode(recovery))
    return simulate(trace, predictor, config=config, warmup=_WARMUP,
                    workload=workload)


@pytest.mark.parametrize("workload,predictor_name,recovery", _CONFIGS)
def test_modes_bit_identical(monkeypatch, workload, predictor_name, recovery):
    """legacy / kernel produce dataclass-equal results."""
    results = {}
    for mode in _MODES:
        _set_mode(monkeypatch, mode)
        results[mode] = _run(workload, predictor_name, recovery)
    assert results["kernel"] == results["legacy"]


def test_unsupported_predictor_falls_back(monkeypatch):
    """Hybrids are outside the inlined families: the kernel declines them
    and the run records that one reason."""
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    fastsim.reset_fallback_stats()
    trace = build_trace("gcc", 2000)
    model = CoreModel(predictor=make_predictor("vtage-2dstride"))
    assert ckernel.predictor_type(model.predictor) is None
    reason = f"unsupported-predictor:{type(model.predictor).__name__}"
    assert ckernel.decline_reason(model, trace) == reason
    assert model.run(trace, 0, "gcc").cycles > 0
    assert fastsim.fallback_stats() == {reason: 1}


def test_prewarmed_branch_unit_falls_back(monkeypatch):
    """The plane assumes a fresh branch unit; warmed state declines."""
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    fastsim.reset_fallback_stats()
    trace = build_trace("gcc", 2000)
    model = CoreModel(predictor=None)
    model.branch_unit.process_scalar(8, 0x400, True, 0x440)
    assert ckernel.decline_reason(model, trace) == "non-default-branch-state"
    assert model.run(trace, 0, "gcc").cycles > 0
    assert fastsim.fallback_stats() == {"non-default-branch-state": 1}


def test_kernel_mode_reports_selected_path(monkeypatch):
    monkeypatch.setenv(fastsim.FAST_SIM_ENV, "0")
    assert fastsim.kernel_mode() == "off"
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    expected = "c" if ckernel.kernel_available() else "off"
    assert fastsim.kernel_mode() == expected


def test_compiled_kernel_actually_runs(monkeypatch):
    """When a C toolchain exists, the kernel path must not silently fall
    back to the spec loop for a supported config (that would erase the
    kernel's speedup)."""
    if not ckernel.kernel_available():
        pytest.skip("no C toolchain: compiled kernel unavailable")
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    trace = build_trace("gcc", 3000)
    model = CoreModel(predictor=make_predictor("vtage"))
    assert ckernel.decline_reason(model, trace) is None
    result = ckernel.run(model, trace, 500, "gcc")
    assert isinstance(result, SimResult)
    assert result.cycles > 0
    assert model.spent


def test_kernel_scratch_is_bounded(monkeypatch):
    """The process-lifetime kernel scratch does not grow with trace length,
    and every run hands the bandwidth windows back with all stamps -1 and
    the IQ's per-cycle counts back all 0."""
    if not ckernel.kernel_available():
        pytest.skip("no C toolchain: compiled kernel unavailable")
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    fastsim.reset_fallback_stats()
    sizes = []
    for n_uops in (12_000, 200_000):
        trace = build_trace("gzip", n_uops)
        simulate(trace, make_predictor("lvp"), warmup=0, workload="gzip")
        sizes.append(ckernel.scratch_nbytes())
    assert fastsim.fallback_stats() == {}
    assert sizes[0] == sizes[1] > 0
    stamps = [array for name, (array, __) in ckernel._scratch._buffers.items()
              if name.endswith("_stamp")]
    assert stamps and all((array == -1).all() for array in stamps)
    iq_count, __ = ckernel._scratch._buffers["iq_count"]
    assert not iq_count.any()


def test_kernel_scratch_shared_by_threads(monkeypatch):
    """Threads share the kernel scratch (the call drops the GIL) and must
    still get the answers the same jobs give one at a time."""
    if not ckernel.kernel_available():
        pytest.skip("no C toolchain: compiled kernel unavailable")
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    jobs = [("gcc", "vtage"), ("gzip", "lvp"), ("wupwise", "2dstride"),
            ("crafty", "none"), ("mcf", "stride"), ("milc", "oracle")]

    def run(workload, name):
        trace = build_trace(workload, 3000)
        return simulate(trace, make_predictor(name), warmup=500,
                        workload=workload)

    expected = [run(*job) for job in jobs]
    results = {}

    def worker(k):
        job = jobs[k % len(jobs)]
        results[k] = [run(*job) for _ in range(4)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(2 * len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for k, runs in sorted(results.items()):
        assert runs == [expected[k % len(jobs)]] * 4, jobs[k % len(jobs)]
    assert len(results) == 2 * len(jobs)
