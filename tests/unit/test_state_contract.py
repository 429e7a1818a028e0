"""Post-run model state is the same on the compiled kernel and the spec loop.

The golden grid pins ``SimResult`` fields; these tests pin the rest of
the contract: after ``CoreModel.run`` a caller can inspect the memory
hierarchy, the store sets, the branch unit and the predictor's tables,
and what it finds must not depend on which loop ran the job.  Each
kernel-covered predictor family runs once on the default path and once
with ``REPRO_FAST_SIM=0``, under both recovery mechanisms and both
confidence schemes, and the results plus every piece of observable state
are compared.

The kernel families are born parked at their constructed state, and
the kernel leaves a predictor's final tables parked as arrays until
someone reads them (``ValuePredictor.park``); the tests below also read
them through the caller's own reference, after training the predictor
outside the kernel, after a failed kernel call, and with the collector
off.  The born-parked tests run on every CI leg: without the kernel the
spec loop unparks a predictor on its first read.
"""

import ctypes
import gc
import pickle
import types
import weakref

import pytest

from repro.experiments.runner import make_predictor
from repro.pipeline import ckernel, fastsim
from repro.pipeline.config import CoreConfig, RecoveryMode
from repro.pipeline.core import CoreModel
from repro.predictors.base import predictor_class
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


#: The table-backed families whose tables the kernel parks.
TABLE_FAMILIES = ("lvp", "2dstride", "vtage")

#: Kernel argument fields pointing at predictor tables (not at the FPC
#: probabilities or the per-trace VTAGE plane).
_TABLE_POINTERS = tuple(
    name for name in ckernel._PREDICTOR_POINTERS
    if name not in ("fpc_prob", "vp_idx", "vp_tag"))


def _fresh_model(monkeypatch, mode, predictor, recovery="squash"):
    if mode == "spec":
        monkeypatch.setenv(fastsim.FAST_SIM_ENV, "0")
    else:
        monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    return CoreModel(config=CoreConfig(recovery=RecoveryMode(recovery)),
                     predictor=predictor)


def _trained(name, trace):
    """A predictor trained by direct ``train()`` calls, not by a run."""
    predictor = make_predictor(name)
    for uop in list(trace)[:1500]:
        if uop.produces_value:
            predictor.train(uop.predictor_key(), uop.value, None)
    return predictor


@requires_kernel
@pytest.mark.parametrize("recovery", ("squash", "reissue"))
@pytest.mark.parametrize("name", TABLE_FAMILIES)
def test_state_read_through_callers_reference(monkeypatch, trace, name,
                                              recovery):
    """The caller's own predictor reference sees the kernel's final tables,
    and the same predictor carries them into a second model."""
    outcome = {}
    for mode in ("kernel", "spec"):
        fastsim.reset_fallback_stats()
        predictor = make_predictor(name, recovery=recovery)
        first = _fresh_model(monkeypatch, mode, predictor, recovery).run(
            trace, warmup=_WARMUP, workload="gcc")
        probes = tuple(hasattr(predictor, attr)
                       for attr in ("_stride2", "_base_conf", "components"))
        state = _predictor_state(predictor)
        second = _fresh_model(monkeypatch, mode, predictor, recovery).run(
            trace, warmup=_WARMUP, workload="gcc")
        if mode == "kernel":
            assert fastsim.fallback_stats() == {}
        outcome[mode] = (first, probes, state, second,
                         _predictor_state(predictor))
    assert outcome["kernel"] == outcome["spec"]


@requires_kernel
@pytest.mark.parametrize("name", TABLE_FAMILIES)
def test_trained_predictor_is_copied(monkeypatch, trace, name):
    """A predictor trained outside any run, or by a spec-loop run, is no
    longer parked, so its lists go through the copy path intact."""
    outcome = {}
    for mode in ("kernel", "spec"):
        fastsim.reset_fallback_stats()
        by_calls = _trained(name, trace)
        by_run = make_predictor(name)
        monkeypatch.setenv(fastsim.FAST_SIM_ENV, "0")
        CoreModel(predictor=by_run).run(trace, warmup=_WARMUP)
        results = []
        for predictor in (by_calls, by_run):
            model = _fresh_model(monkeypatch, mode, predictor)
            results.append(model.run(trace, warmup=_WARMUP, workload="gcc"))
            results.append(model_state(model))
        if mode == "kernel":
            assert fastsim.fallback_stats() == {
                "disabled-by-env": 1}, "the kernel must run the second runs"
        outcome[mode] = results
    assert outcome["kernel"] == outcome["spec"]


@requires_kernel
@pytest.mark.parametrize("trained", (False, True), ids=("fresh", "trained"))
@pytest.mark.parametrize("name", TABLE_FAMILIES)
def test_kernel_error_leaves_tables_untouched(monkeypatch, trace, name,
                                             trained):
    """A kernel that fails part-way records one ``kernel-error`` fallback,
    and the spec loop then runs on the tables as they were before the
    call, whatever the kernel wrote into its arrays."""
    make = (lambda: _trained(name, trace)) if trained else (
        lambda: make_predictor(name))
    spec_model = _fresh_model(monkeypatch, "spec", make())
    expected = spec_model.run(trace, warmup=_WARMUP, workload="gcc")
    expected_state = model_state(spec_model)

    calls = []

    def failing_run(args_ref):
        args = args_ref._obj
        calls.append(args)
        for field in _TABLE_POINTERS:
            address = getattr(args, field)
            if address != ckernel._PLACEHOLDER_ADDR:
                ctypes.memset(address, 0x5A, 8)
        return 7

    monkeypatch.setattr(ckernel, "_lib",
                        types.SimpleNamespace(repro_kernel_run=failing_run))
    fastsim.reset_fallback_stats()
    model = _fresh_model(monkeypatch, "kernel", make())
    result = model.run(trace, warmup=_WARMUP, workload="gcc")
    assert len(calls) == 1
    assert fastsim.fallback_stats() == {"kernel-error:7": 1}
    assert result == expected
    assert model_state(model) == expected_state


@requires_kernel
@pytest.mark.parametrize("name", TABLE_FAMILIES)
def test_parked_predictor_freed_without_collector(monkeypatch, trace, name):
    """Parked tables hold no reference back to their predictor, so
    reference counting alone frees it while ``gc`` is off (as it is for
    the whole of ``CoreModel.run``)."""
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    predictor = make_predictor(name)
    model = CoreModel(predictor=predictor)
    gc.disable()
    try:
        model.run(trace, warmup=_WARMUP, workload="gcc")
        assert predictor_class(predictor) is not type(predictor), (
            "the kernel run should have parked the tables")
        ref = weakref.ref(predictor)
        del model, predictor
        assert ref() is None
    finally:
        gc.enable()


@requires_kernel
@pytest.mark.parametrize("name", TABLE_FAMILIES)
def test_parked_predictor_pickles(monkeypatch, trace, name):
    outcome = {}
    for mode in ("kernel", "spec"):
        predictor = make_predictor(name)
        _fresh_model(monkeypatch, mode, predictor).run(trace, warmup=_WARMUP)
        copy = pickle.loads(pickle.dumps(predictor))
        assert type(copy) is type(predictor) is predictor_class(copy)
        outcome[mode] = _predictor_state(copy)
    assert outcome["kernel"] == outcome["spec"]


# -- born parked ------------------------------------------------------------

#: Every family whose tables a predictor is born without.
KERNEL_FAMILIES = ("lvp", "stride", "2dstride", "vtage")


def _set_slots(predictor) -> dict:
    """The attributes *predictor* holds, read without unparking it."""
    held = {}
    for cls in predictor_class(predictor).__mro__:
        for name in cls.__dict__.get("__slots__", ()):
            try:
                held[name] = cls.__dict__[name].__get__(predictor)
            except AttributeError:
                continue
    return held


def _holds_tables(predictor) -> bool:
    held = _set_slots(predictor)
    return "components" in held or any(
        isinstance(value, list) for value in held.values())


@pytest.mark.parametrize("name", KERNEL_FAMILIES)
def test_born_parked_until_read(trace, name):
    """``make_predictor`` builds no table, and a kernel run leaves the
    predictor parked; the spec loop (``REPRO_FAST_SIM=0`` or no C
    compiler) unparks it on its first read."""
    predictor = make_predictor(name)
    assert predictor_class(predictor) is not type(predictor)
    assert not _holds_tables(predictor)
    fastsim.reset_fallback_stats()
    CoreModel(predictor=predictor).run(trace, warmup=_WARMUP)
    if fastsim.fallback_stats() == {}:
        assert predictor_class(predictor) is not type(predictor)
        assert not _holds_tables(predictor)
    else:
        assert predictor_class(predictor) is type(predictor)
        assert _holds_tables(predictor)


def _train_directly(predictor, trace, count=1500) -> None:
    for uop in list(trace)[:count]:
        if uop.produces_value:
            predictor.train(uop.predictor_key(), uop.value, None)


@pytest.mark.parametrize("name", KERNEL_FAMILIES)
def test_direct_training_then_run_matches_spec_loop(monkeypatch, trace,
                                                    name):
    """``train()`` called on a born-parked predictor reaches the next run:
    the tables it wrote are marshalled, not taken for constructed ones."""
    outcome = {}
    for mode in ("kernel", "spec"):
        predictor = make_predictor(name)
        _train_directly(predictor, trace, count=300)
        model = _fresh_model(monkeypatch, mode, predictor)
        outcome[mode] = (model.run(trace, warmup=_WARMUP, workload="gcc"),
                         model_state(model))
    assert outcome["kernel"] == outcome["spec"]


@pytest.mark.parametrize("name", KERNEL_FAMILIES)
def test_two_runs_without_a_read_match_spec_loop(monkeypatch, trace, name):
    """A predictor parked by one kernel run carries its tables into the
    next, with nobody reading them in between."""
    outcome = {}
    for mode in ("kernel", "spec"):
        fastsim.reset_fallback_stats()
        predictor = make_predictor(name)
        results = [
            _fresh_model(monkeypatch, mode, predictor).run(
                trace, warmup=_WARMUP, workload="gcc")
            for _ in range(2)]
        if mode == "kernel" and ckernel.kernel_available():
            assert fastsim.fallback_stats() == {}
        outcome[mode] = (results, _predictor_state(predictor))
    assert outcome["kernel"] == outcome["spec"]


@pytest.mark.parametrize("name", KERNEL_FAMILIES)
def test_never_run_predictor_pickles(name):
    """Geometry readers leave a born-parked predictor parked, and its
    pickle is the constructed predictor."""
    predictor = make_predictor(name)
    storage, label = predictor.storage_bits(), predictor.describe()
    assert predictor_class(predictor) is not type(predictor)
    copy = pickle.loads(pickle.dumps(predictor))
    assert type(copy) is predictor_class(copy) is predictor_class(predictor)
    assert (copy.storage_bits(), copy.describe()) == (storage, label)
    assert _predictor_state(copy) == _predictor_state(make_predictor(name))
