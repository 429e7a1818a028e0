"""What a run leaves behind, on the compiled kernel and on the spec loop.

The golden grid pins ``SimResult`` fields; these tests pin the rest of
the contract.  The kernel is a pure function of a fresh model, a
predictor born parked at its constructed state and the trace: any other
predictor declines to the spec loop, and a kernel run writes back only
the predictor's scalar state (the FPC and VTAGE LFSRs, VTAGE's tag
generation) before it leaves the model and predictor spent, so reading
a component or a table, or running the model again, raises.  Under
``REPRO_FAST_SIM=0`` post-run state stays readable.

The kernel families are born parked (``ValuePredictor.park``); the tests
below also cover a failed kernel call, a predictor trained outside any
run, the collector turned off, and the kernel's process-lifetime
scratch.  The born-parked tests run on every CI leg: without the kernel
the spec loop unparks a predictor on its first read.
"""

import ctypes
import gc
import pickle
import types
import weakref

import pytest

from repro.core.vtage import VTAGEPredictor
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

#: Every family whose tables a predictor is born without.
KERNEL_FAMILIES = ("lvp", "stride", "2dstride", "vtage")

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
    state.update(_scalar_state(predictor))
    return state


def model_state(model: CoreModel) -> dict:
    """Everything a caller can observe on *model* after a spec-loop run."""
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


def _scalar_state(predictor) -> dict:
    """The predictor state a kernel run writes back, read without
    touching a table."""
    state = {}
    if predictor is None:
        return state
    if predictor_class(predictor) is VTAGEPredictor:
        state["lfsr"] = predictor._lfsr.state
        state["tags_gen"] = predictor._tags_gen
    lfsr = getattr(getattr(predictor, "confidence", None), "lfsr", None)
    if lfsr is not None:
        state["fpc_lfsr"] = lfsr.state
    return state


#: The table-backed families the kernel reads tables for.
TABLE_FAMILIES = ("lvp", "2dstride", "vtage")

#: A table attribute of each family, for reads that must raise.
_TABLE = {"lvp": "_values", "stride": "_stride", "2dstride": "_stride2",
          "vtage": "components"}

#: Kernel argument fields pointing at predictor tables (not at the FPC
#: probabilities or the per-trace VTAGE plane).
_TABLE_POINTERS = tuple(
    name for name in ckernel._PREDICTOR_POINTERS
    if name not in ("fpc_prob", "vp_idx", "vp_tag"))


@pytest.fixture(scope="module")
def trace():
    return build_trace("gcc", _N)


def _fresh_model(monkeypatch, mode, predictor, recovery="squash"):
    if mode == "spec":
        monkeypatch.setenv(fastsim.FAST_SIM_ENV, "0")
    else:
        monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    return CoreModel(config=CoreConfig(recovery=RecoveryMode(recovery)),
                     predictor=predictor)


def _trained(name, trace, count=1500):
    """A predictor trained by direct ``train()`` calls, not by a run."""
    predictor = make_predictor(name)
    for uop in list(trace)[:count]:
        if uop.produces_value:
            predictor.train(uop.predictor_key(), uop.value, None)
    return predictor


@requires_kernel
@pytest.mark.parametrize("fpc", (True, False), ids=("fpc", "3bit"))
@pytest.mark.parametrize("recovery", ("squash", "reissue"))
@pytest.mark.parametrize("name", FAMILIES)
def test_post_run_state_matches_spec_loop(monkeypatch, trace, name,
                                          recovery, fpc):
    """The state a kernel run writes back (the predictor's scalars) is
    the spec loop's, and the kernel leaves its model spent."""
    outcome = {}
    for mode in ("kernel", "spec"):
        fastsim.reset_fallback_stats()
        model = _fresh_model(monkeypatch, mode, make_predictor(
            name, fpc=fpc, recovery=recovery), recovery)
        result = model.run(trace, warmup=_WARMUP, workload="gcc")
        assert model.spent == (mode == "kernel")
        if mode == "kernel":
            assert fastsim.fallback_stats() == {}, "the kernel must run this"
        outcome[mode] = (result, _scalar_state(model.predictor))
    assert outcome["kernel"] == outcome["spec"]


@requires_kernel
@pytest.mark.parametrize("name", KERNEL_FAMILIES)
def test_spent_model_and_predictor_raise(monkeypatch, trace, name):
    """After a kernel run every component read, a second run of the
    model and a table read of the predictor raise, each naming
    ``REPRO_FAST_SIM=0``; a new model on the spent predictor raises too.
    The scalar state stays readable, and a spent predictor stays spent."""
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    predictor = make_predictor(name)
    model = CoreModel(predictor=predictor)
    model.run(trace, warmup=_WARMUP, workload="gcc")
    reads = [lambda: model.memory, lambda: model.store_sets,
             lambda: model.branch_unit, lambda: model.run(trace),
             lambda: getattr(predictor, _TABLE[name]),
             lambda: getattr(predictor, _TABLE[name]),
             lambda: CoreModel(predictor=predictor).run(trace)]
    for read in reads:
        with pytest.raises(RuntimeError, match="REPRO_FAST_SIM=0"):
            read()
    assert _scalar_state(predictor) == _scalar_state(model.predictor)
    assert predictor_class(predictor) is not type(predictor)


@requires_kernel
@pytest.mark.parametrize("trained", (False, True), ids=("fresh", "trained"))
@pytest.mark.parametrize("name", TABLE_FAMILIES)
def test_kernel_error_leaves_tables_untouched(monkeypatch, trace, name,
                                             trained):
    """A kernel that fails part-way records one ``kernel-error`` fallback,
    and the spec loop then runs on the tables as they were before the
    call, whatever the kernel wrote into its arrays.  A trained predictor
    never reaches the kernel: it declines as ``predictor-not-fresh``."""
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
    if trained:
        assert calls == []
        assert fastsim.fallback_stats() == {
            "kernel-ineligible:predictor-not-fresh": 1}
    else:
        assert len(calls) == 1
        assert fastsim.fallback_stats() == {"kernel-error:7": 1}
    assert result == expected
    assert model_state(model) == expected_state


@requires_kernel
@pytest.mark.parametrize("name", TABLE_FAMILIES)
def test_parked_predictor_freed_without_collector(monkeypatch, trace, name):
    """A predictor a kernel run left parked and spent holds no reference
    cycle, so reference counting alone frees it while ``gc`` is off (as
    it is for the whole of ``CoreModel.run``), also after a table read
    raised."""
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    predictor = make_predictor(name)
    model = CoreModel(predictor=predictor)
    gc.disable()
    try:
        model.run(trace, warmup=_WARMUP, workload="gcc")
        assert predictor_class(predictor) is not type(predictor), (
            "the kernel run should have left the predictor parked")
        try:
            getattr(predictor, _TABLE[name])
        except RuntimeError:
            pass
        ref = weakref.ref(predictor)
        del model, predictor
        assert ref() is None
    finally:
        gc.enable()


# -- born parked ------------------------------------------------------------

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
    predictor parked (and spent); the spec loop (``REPRO_FAST_SIM=0`` or
    no C compiler) unparks it on its first read."""
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


@pytest.mark.parametrize("name", KERNEL_FAMILIES)
def test_direct_training_then_run_matches_spec_loop(monkeypatch, trace,
                                                    name):
    """``train()`` called on a born-parked predictor reaches the next run:
    the predictor is no longer at its constructed state, so the kernel
    declines it and the spec loop runs on the tables it wrote."""
    outcome = {}
    for mode in ("kernel", "spec"):
        model = _fresh_model(monkeypatch, mode, _trained(name, trace, 300))
        outcome[mode] = (model.run(trace, warmup=_WARMUP, workload="gcc"),
                         model_state(model))
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


# -- kernel scratch ---------------------------------------------------------


def _throwaway_runs(trace, names=KERNEL_FAMILIES + ("none",)):
    for name in names:
        CoreModel(predictor=make_predictor(name)).run(trace, warmup=_WARMUP)


@requires_kernel
def test_scratch_is_reused_and_bounded(monkeypatch, trace):
    """Repeated runs allocate no further scratch, and the one table
    buffer is exactly the largest predictor layout run so far, whatever
    the order of geometries."""
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    fastsim.reset_fallback_stats()
    _throwaway_runs(trace)
    before = ckernel.scratch_nbytes()
    for _ in range(3):
        _throwaway_runs(trace)
    assert ckernel.scratch_nbytes() == before > 0

    def table_bytes():
        return ckernel._scratch._tables[0].nbytes

    fixed = before - table_bytes()
    for entries in (1024, 8192, 2048):
        predictor = make_predictor("vtage", entries=entries)
        CoreModel(predictor=predictor).run(trace, warmup=_WARMUP)
        largest = max(layout.nbytes for layout in ckernel._LAYOUTS.values())
        assert table_bytes() == largest
        assert ckernel.scratch_nbytes() == fixed + largest
    assert fastsim.fallback_stats() == {}
