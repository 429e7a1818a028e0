"""The precompute plane is bit-identical to the scalar front end.

The compiled kernel (``pipeline/ckernel.py``) trusts the plane
completely: redirect codes stand in for the branch unit, the
``(ghist, path)`` columns stand in for the live prediction context, and
the VTAGE plane stands in for ``_TaggedComponent.index_and_tag``.  These
tests pin each of those equivalences against the *object-level* APIs the
sequential model uses, plus the caching/persistence plumbing around them.
"""

import numpy as np
import pytest

from repro.branch.unit import BranchUnit
from repro.core.confidence import ConfidencePolicy
from repro.core.vtage import VTAGEPredictor
from repro.isa.uop import OpClass
from repro.pipeline import ckernel
from repro.pipeline.core import CoreModel, simulate
from repro.pipeline.precompute import (
    PRECOMPUTE_VERSION,
    default_branch_state,
    kernel_inputs,
    precompute_nbytes,
    replay_branch_unit,
    trace_plane,
    vtage_plane,
    vtage_signature,
)
from repro.predictors.base import PredictionContext
from repro.util.bits import MASK64
from repro.util.hashing import scramble_array
from repro.workloads import catalog
from repro.workloads.catalog import build_trace
from repro.workloads.store import TRACE_DIR_ENV, TraceStore

_CTRL = {OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RET}


@pytest.fixture(scope="module")
def trace():
    return build_trace("gcc", 6000)


def test_trace_plane_matches_branch_unit_walk(trace):
    """Redirect codes and per-µop context vs a µop-object BranchUnit walk."""
    plane = trace_plane(trace)
    unit = BranchUnit()
    ghist, path = 0, 0
    for i, uop in enumerate(trace):
        code = 0
        if uop.op_class in _CTRL:
            res = unit.process(uop)
            code = (1 if res.direction_mispredict
                    else (2 if res.target_mispredict else 0))
            if uop.op_class is OpClass.BRANCH:
                ghist = unit.context.ghist & MASK64
                path = unit.context.path & 0xFFFF
        assert plane.redirect[i] == code, f"redirect diverged at µop {i}"
        assert plane.ghist64[i] == ghist, f"ghist diverged at µop {i}"
        assert plane.path16[i] == path, f"path diverged at µop {i}"
    assert plane.cond_branches == unit.cond_branches
    assert plane.direction_mispredicts == unit.direction_mispredicts
    assert plane.target_mispredicts == unit.target_mispredicts
    assert plane.final_ghist == unit.context.ghist
    assert plane.final_path == unit.context.path
    assert plane.final_ghist_length == unit.context.ghist_length


def test_trace_plane_hash_columns(trace):
    """scr_pkey matches the scalar scramble of the predictor key."""
    plane = trace_plane(trace)
    a = trace.packed().arrays
    pkeys = (a["pcs"] << np.uint64(2)) ^ a["uop_indexes"].astype(np.uint64)
    assert np.array_equal(plane.scr_pkey, scramble_array(pkeys))


def test_vtage_plane_matches_scalar_index_and_tag(trace):
    """Vectorised per-component positions vs ``index_and_tag`` on a live
    context walked over the same trace (sampled — the scalar path memoises
    per key and would dominate the suite at every µop)."""
    predictor = VTAGEPredictor(base_entries=1024, tagged_entries=256,
                               confidence=ConfidencePolicy())
    plane = vtage_plane(trace, predictor)
    assert len(plane.idx) == len(predictor.components)
    ctx = PredictionContext()
    checked = 0
    for i, uop in enumerate(trace):
        if uop.op_class is OpClass.BRANCH:
            ctx.push_branch(uop.taken, uop.pc)
        if i % 97:
            continue
        key = ((uop.pc << 2) ^ uop.uop_index) & MASK64
        for c, comp in enumerate(predictor.components):
            idx, tag = comp.index_and_tag(key, ctx)
            assert (plane.idx[c][i], plane.tag[c][i]) == (idx, tag), \
                f"component {c} diverged at µop {i}"
        checked += 1
    assert checked > 50


def test_planes_cached_on_trace_and_counted():
    """Planes attach once per trace and the catalog LRU charges them.

    The trace is this test's own (a seed no other test asks for): the
    shared one may already carry kernel inputs from an earlier kernel run,
    which ``precompute_nbytes`` would count too."""
    trace = build_trace("gcc", 6000, seed=0x5EED_0C1A)
    plane = trace_plane(trace)
    assert trace_plane(trace) is plane
    predictor = VTAGEPredictor(base_entries=1024, tagged_entries=256,
                               confidence=ConfidencePolicy())
    vplane = vtage_plane(trace, predictor)
    assert vtage_plane(trace, predictor) is vplane
    # A same-geometry predictor shares the plane; the signature is the key.
    twin = VTAGEPredictor(base_entries=1024, tagged_entries=256,
                          confidence=ConfidencePolicy())
    assert vtage_signature(twin) == vtage_signature(predictor)
    assert vtage_plane(trace, twin) is vplane

    attached = precompute_nbytes(trace)
    assert attached == plane.nbytes + vplane.nbytes
    stats = catalog.trace_cache_stats()
    assert stats["precompute_bytes"] >= attached
    assert stats["bytes"] >= trace.nbytes + attached


def test_kernel_inputs_cached_and_counted(monkeypatch):
    """A kernel run attaches the trace's kernel inputs once; the catalog
    LRU charges their bytes, which are only the arrays that do not alias
    a packed column (the predictor keys)."""
    if not ckernel.kernel_available():
        pytest.skip("no C toolchain: compiled kernel unavailable")
    monkeypatch.delenv("REPRO_FAST_SIM", raising=False)
    trace = build_trace("gzip", 3217)
    trace_plane(trace)
    before = precompute_nbytes(trace)
    simulate(trace, None, workload="gzip")
    inputs = kernel_inputs(trace)
    assert inputs.nbytes == inputs.columns["pkeys"].nbytes == 8 * len(trace)
    assert precompute_nbytes(trace) == before + inputs.nbytes
    simulate(trace, None, workload="gzip")
    assert kernel_inputs(trace) is inputs
    assert precompute_nbytes(trace) == before + inputs.nbytes
    assert catalog.trace_cache_stats()["precompute_bytes"] >= \
        precompute_nbytes(trace)


def test_trace_plane_persists_to_store(tmp_path, monkeypatch):
    """A catalog-built trace's plane round-trips through the aux store."""
    monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
    catalog.clear_trace_cache()
    try:
        first = build_trace("gzip", 3000)
        plane = trace_plane(first)
        name, n_uops, seed = first.store_identity
        store = TraceStore(str(tmp_path))
        assert store.get_aux(name, n_uops, seed, "plane",
                             PRECOMPUTE_VERSION) is not None
        catalog.clear_trace_cache()
        reloaded = build_trace("gzip", 3000)
        assert reloaded is not first
        loaded = trace_plane(reloaded)
        assert np.array_equal(loaded.redirect, plane.redirect)
        assert np.array_equal(loaded.ghist64, plane.ghist64)
        assert np.array_equal(loaded.path16, plane.path16)
        assert np.array_equal(loaded.scr_pkey, plane.scr_pkey)
        assert loaded.final_ghist == plane.final_ghist
        assert loaded.final_ghist_length == plane.final_ghist_length
    finally:
        catalog.clear_trace_cache()


def test_default_branch_state_guard_and_writeback(trace):
    """Fast paths only run on a fresh unit, and leave the walked state."""
    model = CoreModel()
    assert default_branch_state(model)
    assert model.existing("branch_unit") is None  # checked without a build
    model.branch_unit.process_scalar(int(OpClass.BRANCH), 0x400, True, 0x500)
    assert not default_branch_state(model)

    fresh = CoreModel()
    plane = trace_plane(trace)
    replay_branch_unit(fresh.branch_unit, trace)
    unit = fresh.branch_unit
    assert unit.cond_branches == plane.cond_branches
    assert unit.direction_mispredicts == plane.direction_mispredicts
    assert unit.target_mispredicts == plane.target_mispredicts
    assert unit.context.ghist == plane.final_ghist
    assert unit.context.path == plane.final_path
    assert unit.context.ghist_length == plane.final_ghist_length
