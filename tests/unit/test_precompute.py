"""The precompute plane is bit-identical to the scalar front end.

The compiled kernel (``pipeline/ckernel.py``) trusts the plane
completely: redirect codes stand in for the branch unit, the
``(ghist, path)`` columns stand in for the live prediction context, and
the VTAGE plane stands in for ``_TaggedComponent.index_and_tag``.  These
tests pin each of those equivalences against the *object-level* APIs the
sequential model uses, plus the caching/persistence plumbing around them.

The branch walk behind the plane runs in C when the kernel loads; the
Python walk of a :class:`BranchUnit` is its specification, and the
``test_c_walk_*`` tests hold the two equal on every catalog workload,
scenario points and hand-built edge traces.
"""

import numpy as np
import pytest

from repro.branch.tage import TAGEConfig
from repro.branch.unit import BranchUnit
from repro.core.confidence import ConfidencePolicy
from repro.core.vtage import VTAGEPredictor
from repro.isa.uop import OpClass
from repro.pipeline import ckernel, precompute
from repro.pipeline.core import CoreModel, simulate
from repro.pipeline.precompute import (
    PRECOMPUTE_VERSION,
    default_branch_state,
    kernel_inputs,
    precompute_nbytes,
    trace_plane,
    vtage_plane,
    vtage_signature,
)
from repro.predictors.base import PredictionContext
from repro.util.bits import MASK64
from repro.util.hashing import scramble_array
from repro.workloads import catalog
from repro.workloads.builder import TraceBuilder, pack_rows
from repro.workloads.catalog import build_trace
from repro.workloads.names import ALL_WORKLOADS
from repro.workloads.store import TRACE_DIR_ENV, TraceStore

_CTRL = {OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RET}
_BRANCH, _JUMP, _CALL, _RET = (int(op) for op in (
    OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RET))

needs_kernel = pytest.mark.skipif(
    not ckernel.kernel_available(),
    reason="no C toolchain: compiled kernel unavailable")


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
        name, seed = first.store_identity
        store = TraceStore(str(tmp_path))
        assert store.get_aux(name, seed, "plane",
                             PRECOMPUTE_VERSION) is not None
        catalog.clear_trace_cache()
        reloaded = build_trace("gzip", 3000)
        assert reloaded is not first
        loaded = trace_plane(reloaded)
        assert np.array_equal(loaded.redirect, plane.redirect)
        assert np.array_equal(loaded.ghist64, plane.ghist64)
        assert np.array_equal(loaded.path16, plane.path16)
        assert np.array_equal(loaded.scr_pkey, plane.scr_pkey)
    finally:
        catalog.clear_trace_cache()


def test_default_branch_state_guard_and_writeback(monkeypatch, trace):
    """Fast paths only run on a branch unit the model has not built, and
    the spec loop leaves its unit walked, so a second run declines."""
    model = CoreModel()
    assert default_branch_state(model)
    assert model.existing("branch_unit") is None  # checked without a build
    model.branch_unit.process_scalar(int(OpClass.BRANCH), 0x400, True, 0x500)
    assert not default_branch_state(model)

    monkeypatch.setenv("REPRO_FAST_SIM", "0")
    fresh = CoreModel()
    fresh.run(trace)
    unit = fresh.branch_unit
    walked = BranchUnit()
    for uop in trace:
        if uop.op_class in _CTRL:
            walked.process(uop)
    assert unit.cond_branches == walked.cond_branches > 0
    assert unit.direction_mispredicts == walked.direction_mispredicts
    assert unit.target_mispredicts == walked.target_mispredicts
    assert unit.context.ghist == walked.context.ghist
    assert unit.context.path == walked.context.path
    assert unit.context.ghist_length == walked.context.ghist_length
    assert not default_branch_state(fresh)


# ---------------------------------------------------------------------------
# The C branch walk equals the Python walk it replaces
# ---------------------------------------------------------------------------

def assert_walks_equal(packed, config=None):
    c = ckernel.replay_branches(packed, BranchUnit(config))
    spec = precompute._python_walk(packed, BranchUnit(config))
    assert c is not None
    for name, got, want in zip(("redirect", "ghist64", "path16"), c, spec):
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), f"{name} diverged"
    return spec


def control_trace(rows):
    """Pack ``(op, pc, taken, target)`` control µops."""
    return pack_rows([(pc, op, (), -1, 0, 0, 8, taken, target, False)
                      for op, pc, taken, target in rows])


@needs_kernel
@pytest.mark.parametrize("name", ALL_WORKLOADS + (
    "scenario-c4-e25-l90", "scenario-c0-e100-l0", "scenario-c16-e50-l50"))
def test_c_walk_matches_python_walk(name):
    assert_walks_equal(build_trace(name, 6000).packed())


@needs_kernel
def test_c_walk_without_control_uops():
    b = TraceBuilder("straight")
    for i in range(50):
        b.alu(f"op{i % 5}", "x", ["x"] if i else [], i)
    redirect, ghist64, path16 = assert_walks_equal(b.packed())
    assert not redirect.any() and not ghist64.any() and not path16.any()


@needs_kernel
def test_c_walk_return_on_empty_ras_and_deep_call_chains():
    """Returns with nothing pushed, chains deeper than the 32-entry RAS
    (the stack wraps and the oldest returns mispredict), and a call at
    the top of the address space, whose return address passes 2**64."""
    rows = [(_RET, 0x500, True, 0), (_RET, 0x504, True, 0x1000)]
    for depth in (8, 40, 70):
        rows += [(_CALL, 0x2000 + 4 * k, True, 0x2000 + 4 * (k + 1))
                 for k in range(depth)]
        rows += [(_RET, 0x9000, True, 0x2000 + 4 * k + 4)
                 for k in reversed(range(depth))]
    top = (1 << 64) - 4
    rows += [(_CALL, top, True, 0x40), (_RET, 0x44, True, 0)]
    redirect = assert_walks_equal(control_trace(rows))[0]
    assert redirect[0] == redirect[1] == 1
    assert redirect[-1] == 1
    assert 0 < np.count_nonzero(redirect == 1) < len(rows) // 2


@needs_kernel
def test_c_walk_btb_set_conflicts():
    """Five PCs in one BTB set (2 ways) recur (a hit must become the most
    recently used way, or the next miss evicts it), cycle, change targets
    and mix jumps, calls and taken branches."""
    pcs = 0x40_0000 + 4 * np.arange(1 << 16, dtype=np.uint64)
    sets = scramble_array(pcs) & np.uint64(2047)
    crowded = int(np.bincount(sets.astype(np.int64)).argmax())
    same_set = pcs[sets == crowded][:5].tolist()
    assert len(same_set) == 5
    rows = []
    for k in range(600):
        pc = same_set[(0, 1, 0, 2, 0, 3, 1, 4)[k % 8] if k < 300
                      else (k * 3) % 5]
        op = (_JUMP, _CALL, _BRANCH)[k % 3]
        rows.append((op, pc, True, 0x8000 + 64 * ((k // 50) % 3)))
        if op == _CALL:
            rows.append((_RET, 0x7000, True, pc + 4))
    redirect = assert_walks_equal(control_trace(rows))[0]
    assert np.count_nonzero(redirect == 2) > 100


@needs_kernel
def test_c_walk_crosses_the_u_reset_period():
    """Usefulness ages every ``u_reset_period`` updates.  The default
    period is 2**18 branches, ~19 s of Python walk, so the walks take a
    TAGE configured with a short one; the C walk reads the period from
    the same configuration."""
    rng = np.random.default_rng(5)
    n = 6000
    pcs = (0x40_0000 + 4 * rng.integers(0, 300, n)).tolist()
    takens = (rng.random(n) < 0.6).tolist()
    rows = [(_BRANCH, pc, taken, pc + 128) for pc, taken in zip(pcs, takens)]
    for period in (128, 1000):
        config = TAGEConfig(u_reset_period=period)
        assert_walks_equal(control_trace(rows), config)


@needs_kernel
def test_c_walk_is_what_builds_the_plane(monkeypatch, trace):
    """With the kernel loaded the plane never takes the Python walk."""
    def refuse(*args):
        raise AssertionError("the plane took the Python walk")

    monkeypatch.setattr(precompute, "_python_walk", refuse)
    plane = precompute.build_trace_plane(trace)
    assert plane.redirect.any() and plane.ghist64.any()
