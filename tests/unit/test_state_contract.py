"""Post-run model state is the same on the compiled kernel and the spec loop.

The golden grid pins ``SimResult`` fields; these tests pin the rest of
the contract: after ``CoreModel.run`` a caller can inspect the memory
hierarchy, the store sets, the branch unit and the predictor's tables,
and what it finds must not depend on which loop ran the job.  Each
kernel-covered predictor family runs once on the default path and once
with ``REPRO_FAST_SIM=0``, under both recovery mechanisms and both
confidence schemes, and the results plus every piece of observable state
are compared.
"""

import pytest

from repro.experiments.runner import make_predictor
from repro.pipeline import ckernel, fastsim
from repro.pipeline.config import CoreConfig, RecoveryMode
from repro.pipeline.core import CoreModel
from repro.workloads.catalog import build_trace

requires_kernel = pytest.mark.skipif(
    not ckernel.kernel_available(),
    reason="no C toolchain: compiled kernel unavailable")

#: Predictor families the kernel inlines.
FAMILIES = ("none", "oracle", "lvp", "stride", "2dstride", "vtage")

_N = 2500
_WARMUP = 800


def _cache_state(cache) -> dict:
    # The C heap and ``heapq`` may lay out the same pending fills in a
    # different order; the observable state is the multiset.
    return {
        "sets": [list(ways) for ways in cache._sets],
        "fill_ready": dict(cache._fill_ready),
        "mshrs": sorted(cache._mshr_heap),
        "counters": (cache.hits, cache.misses, cache.mshr_stalls),
    }


def _predictor_state(predictor) -> dict:
    if predictor is None:
        return {}
    state = {}
    for name in ("_tags", "_values", "_last", "_stride", "_stride2",
                 "_conf", "_base_values", "_base_conf"):
        if hasattr(predictor, name):
            state[name] = list(getattr(predictor, name))
    for name in ("_spec_last", "_inflight"):
        if hasattr(predictor, name):
            state[name] = dict(getattr(predictor, name))
    for c, comp in enumerate(getattr(predictor, "components", ())):
        state[f"comp{c}"] = (list(comp.tags), list(comp.values),
                             list(comp.conf), list(comp.useful))
    if hasattr(predictor, "_lfsr"):
        state["lfsr"] = predictor._lfsr.state
    confidence = getattr(predictor, "confidence", None)
    if confidence is not None and hasattr(confidence, "lfsr"):
        state["fpc_lfsr"] = confidence.lfsr.state
    return state


def model_state(model: CoreModel) -> dict:
    """Everything a caller can observe on *model* after a run."""
    memory = model.memory
    dram = memory.dram
    pf = memory.prefetcher
    store_sets = model.store_sets
    unit = model.branch_unit
    ctx = unit.context
    return {
        "l1i": _cache_state(memory.l1i),
        "l1d": _cache_state(memory.l1d),
        "l2": _cache_state(memory.l2),
        "dram": (dict(dram._open_rows), list(dram._bank_free),
                 dram._channel_free, dram.requests, dram.row_hits),
        "prefetcher": (list(pf._pcs), list(pf._last_addr), list(pf._stride),
                       list(pf._conf), pf.issued),
        "store_sets": (dict(store_sets._ssit), dict(store_sets._lfst),
                       store_sets._next_ssid, store_sets.violations_trained),
        "branch": (unit.cond_branches, unit.direction_mispredicts,
                   unit.target_mispredicts, ctx.ghist, ctx.path,
                   ctx.ghist_length),
        "predictor": _predictor_state(model.predictor),
    }


def _run(monkeypatch, mode, trace, name, recovery="squash", fpc=True,
         runs=1, warmup=_WARMUP):
    """*runs* results of one model, then its state."""
    if mode == "spec":
        monkeypatch.setenv(fastsim.FAST_SIM_ENV, "0")
    else:
        monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    model = CoreModel(
        config=CoreConfig(recovery=RecoveryMode(recovery)),
        predictor=make_predictor(name, fpc=fpc, recovery=recovery))
    results = [model.run(trace, warmup=warmup, workload="gcc")
               for _ in range(runs)]
    return results, model_state(model)


@pytest.fixture(scope="module")
def trace():
    return build_trace("gcc", _N)


@requires_kernel
@pytest.mark.parametrize("fpc", (True, False), ids=("fpc", "3bit"))
@pytest.mark.parametrize("recovery", ("squash", "reissue"))
@pytest.mark.parametrize("name", FAMILIES)
def test_post_run_state_matches_spec_loop(monkeypatch, trace, name,
                                          recovery, fpc):
    fastsim.reset_fallback_stats()
    kernel_results, kernel_state = _run(monkeypatch, "kernel", trace, name,
                                        recovery, fpc)
    assert fastsim.fallback_stats() == {}, "the kernel must run this config"
    spec_results, spec_state = _run(monkeypatch, "spec", trace, name,
                                    recovery, fpc)
    assert kernel_results == spec_results
    for part in spec_state:
        assert kernel_state[part] == spec_state[part], part


@requires_kernel
def test_second_run_matches_spec_loop(monkeypatch):
    """A model that ran once carries its trained branch unit, caches and
    predictor into a second run, whichever loop ran the first one."""
    trace = build_trace("gcc", 6000)
    kernel_results, kernel_state = _run(monkeypatch, "kernel", trace, "lvp",
                                        runs=2, warmup=2000)
    spec_results, spec_state = _run(monkeypatch, "spec", trace, "lvp",
                                    runs=2, warmup=2000)
    assert kernel_results == spec_results
    for part in spec_state:
        assert kernel_state[part] == spec_state[part], part
