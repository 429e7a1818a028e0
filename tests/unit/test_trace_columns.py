"""Bit-identity of the numpy-backed trace columns and packed form.

PR 5 rebuilt :class:`~repro.isa.trace.TraceColumns` on top of the packed
numpy representation (:class:`~repro.isa.trace.PackedColumns`).  The
contract is that every list-facing value is *bit-identical* to the
original pure-list implementation — the scheduler loop must not be able
to tell generated and store-loaded traces apart.  This module pins that
contract three ways: against a reference reimplementation of the seed
columnizer, across the golden-grid traces, and through the pack → µops
round trip.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.isa.trace import PackedColumns, Trace, TraceColumns
from repro.isa.uop import MicroOp, OpClass
from repro.util.bits import MASK64
from repro.workloads.catalog import build_trace
from repro.workloads.names import ALL_WORKLOADS

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "golden" / "simresults.json"

_CTRL = frozenset({OpClass.BRANCH, OpClass.JUMP, OpClass.CALL, OpClass.RET})

#: Every list attribute the scheduler reads off the columns.
_LIST_FIELDS = (
    "seqs", "pcs", "pc_lines", "ops", "srcs", "dsts", "values",
    "mem_addrs", "mem_sizes", "takens", "targets", "dst_is_fp",
    "is_branch", "is_cond_branch", "produces_value", "pkeys",
)


def reference_columns(uops):
    """The seed (pre-numpy) columnizer, kept verbatim as the oracle."""
    ref = {
        "n": len(uops),
        "seqs": [u.seq for u in uops],
        "pcs": [u.pc for u in uops],
        "pc_lines": [u.pc >> 6 for u in uops],
        "ops": [int(u.op_class) for u in uops],
        "srcs": [u.srcs for u in uops],
        "dsts": [u.dst for u in uops],
        "values": [u.value for u in uops],
        "mem_addrs": [u.mem_addr for u in uops],
        "mem_sizes": [u.mem_size for u in uops],
        "takens": [u.taken for u in uops],
        "targets": [u.target for u in uops],
        "dst_is_fp": [u.dst_is_fp for u in uops],
        "is_branch": [u.op_class in _CTRL for u in uops],
        "is_cond_branch": [u.op_class is OpClass.BRANCH for u in uops],
        "produces_value": [
            u.dst is not None and u.op_class not in _CTRL for u in uops
        ],
        "pkeys": [((u.pc << 2) ^ u.uop_index) & MASK64 for u in uops],
    }
    return ref


def assert_columns_match_reference(trace: Trace) -> None:
    cols = trace.columns()
    ref = reference_columns(trace.uops)
    assert cols.n == ref["n"]
    for field in _LIST_FIELDS:
        got = getattr(cols, field)
        want = ref[field]
        assert got == want, f"column {field} diverged"
        # Values must also be *plain Python* objects (the scheduler's hot
        # loop relies on int/bool semantics, not numpy scalars).
        for value in got[:64]:
            assert not isinstance(value, np.generic), (
                f"column {field} leaked numpy scalar {type(value)}"
            )


def _golden_trace_identities():
    entries = json.loads(GOLDEN_PATH.read_text())
    return sorted({
        (e["job"]["workload"], e["job"]["warmup"] + e["job"]["n_uops"],
         e["job"]["seed"])
        for e in entries
    })


class TestColumnsBitIdentity:
    @pytest.mark.parametrize(
        "workload,total,seed", _golden_trace_identities(),
        ids=lambda v: str(v),
    )
    def test_golden_grid_traces_match_reference(self, workload, total, seed):
        assert_columns_match_reference(build_trace(workload, total, seed=seed))

    def test_scenario_trace_matches_reference(self):
        assert_columns_match_reference(build_trace("scenario-c4-e25-l90", 3000))

    def test_fp_heavy_trace_matches_reference(self):
        assert_columns_match_reference(build_trace("wupwise", 3000))


class TestPackedRoundTrip:
    def test_to_uops_is_dataclass_equal(self):
        trace = build_trace("gcc", 2500)
        rebuilt = trace.packed().to_uops()
        assert rebuilt == trace.uops

    def test_from_packed_trace_simulates_like_the_original(self):
        from repro.pipeline.core import simulate

        original = build_trace("gzip", 2500)
        clone = Trace.from_packed(
            PackedColumns.from_uops(original.uops), name=original.name
        )
        a = simulate(original, None, warmup=500, workload="gzip")
        b = simulate(clone, None, warmup=500, workload="gzip")
        assert a.to_dict() == b.to_dict()

    def test_mem_addr_none_and_zero_are_distinguished(self):
        uops = [
            MicroOp(seq=0, pc=0x400, op_class=OpClass.LOAD, srcs=(), dst=1,
                    value=7, mem_addr=0, mem_size=8),
            MicroOp(seq=1, pc=0x404, op_class=OpClass.INT_ALU, srcs=(1,),
                    dst=2, value=9),
        ]
        packed = PackedColumns.from_uops(uops)
        rebuilt = packed.to_uops()
        assert rebuilt[0].mem_addr == 0
        assert rebuilt[1].mem_addr is None
        assert rebuilt == uops

    def test_validate_rejects_wrong_dtype(self):
        packed = build_trace("gzip", 1000).packed()
        bad = PackedColumns(
            packed.n,
            {**packed.arrays, "ops": packed.arrays["ops"].astype(np.int32)},
        )
        with pytest.raises(ValueError):
            bad.validate()


class TestLazyTrace:
    def test_len_iter_and_stats_without_materialised_uops(self):
        source = build_trace("gcc", 2000)
        clone = Trace.from_packed(source.packed(), name="gcc")
        assert len(clone) == len(source)
        packed_stats = clone.stats()          # vectorised path
        loop_stats = source.stats() if source._packed is None else None
        # Force the µop loop on a fresh list-backed trace for comparison.
        plain = Trace(list(source.uops), name="gcc")
        assert packed_stats == plain.stats()
        if loop_stats is not None:
            assert packed_stats == loop_stats
        assert [u.pc for u in clone] == [u.pc for u in source]


def reference_back_to_back(uops, fetch_width):
    """The seed's per-µop loop for Section 3.2's back-to-back fraction,
    kept verbatim as the oracle for the packed-column version."""
    last_seen: dict[int, int] = {}
    eligible = 0
    back_to_back = 0
    for position, uop in enumerate(uops):
        if not uop.produces_value:
            continue
        eligible += 1
        key = uop.predictor_key()
        previous = last_seen.get(key)
        if previous is not None and (position - previous) <= fetch_width:
            back_to_back += 1
        last_seen[key] = position
    return back_to_back / eligible if eligible else 0.0


class TestBackToBackFraction:
    @pytest.mark.parametrize("workload", ALL_WORKLOADS)
    def test_packed_fraction_matches_reference(self, workload):
        trace = build_trace(workload, 4000)
        uops = trace.packed().to_uops()
        for width in (1, 4, 8):
            assert trace.back_to_back_fraction(width) == \
                reference_back_to_back(uops, width)

    def test_no_eligible_uops(self):
        trace = Trace([MicroOp(seq=0, pc=0x40, op_class=OpClass.BRANCH)])
        assert trace.back_to_back_fraction() == 0.0
