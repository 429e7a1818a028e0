"""Unit tests for the workload builder, catalog and invariant injection."""

import pytest

from repro.isa.trace import Trace
from repro.isa.uop import OpClass
from repro.workloads.builder import TraceBuilder
from repro.workloads.catalog import build_trace
from repro.workloads.invariants import inject_invariants
from repro.workloads.names import (
    ALL_WORKLOADS,
    FP_WORKLOADS,
    INT_WORKLOADS,
    WORKLOADS,
    get_spec,
)


class TestTraceBuilder:
    def test_stable_pcs_per_label(self):
        b = TraceBuilder("t")
        b.alu("op1", "x", [], 1)
        b.alu("op2", "y", [], 2)
        b.alu("op1", "x", [], 3)
        uops = b.trace.uops
        assert uops[0].pc == uops[2].pc
        assert uops[0].pc != uops[1].pc

    def test_register_dependence_tracking(self):
        b = TraceBuilder("t")
        b.imm("a", "x", 5)
        b.alu("b", "y", ["x"], 6)
        uops = b.trace.uops
        assert uops[1].srcs == (uops[0].dst,)

    def test_fp_registers_offset(self):
        b = TraceBuilder("t")
        b.fadd("f", "acc", [], 1)
        assert b.trace.uops[0].dst >= 32
        assert b.trace.uops[0].dst_is_fp

    def test_alloc_alignment_and_disjointness(self):
        b = TraceBuilder("t")
        r1 = b.alloc(100)
        r2 = b.alloc(100)
        assert r1 % 64 == 0
        assert r2 >= r1 + 100

    def test_call_ret_return_addresses(self):
        b = TraceBuilder("t")
        b.call("site", "fn")
        b.ret("fn_ret")
        call, ret = b.trace.uops
        assert ret.target == call.pc + 4

    def test_values_masked_to_64_bits(self):
        b = TraceBuilder("t")
        b.imm("big", "x", 1 << 100)
        assert b.trace.uops[0].value < (1 << 64)

    def test_store_has_no_dst(self):
        b = TraceBuilder("t")
        b.imm("v", "x", 1)
        b.store("st", 0x1000, "x")
        assert b.trace.uops[1].dst is None
        assert b.trace.uops[1].op_class is OpClass.STORE


class TestInvariantInjection:
    def test_blocks_inserted_at_rate(self):
        b = TraceBuilder("t")
        for i in range(100):
            b.alu(f"op", "x", [], i)
        out = Trace.from_packed(inject_invariants(b.packed(), every=10, count=3))
        loads = sum(1 for u in out.uops if u.is_load)
        assert loads == 30  # 10 blocks x 3 loads

    def test_seq_renumbered(self):
        b = TraceBuilder("t")
        for i in range(30):
            b.alu("op", "x", [], i)
        out = Trace.from_packed(inject_invariants(b.packed(), every=7, count=2))
        assert [u.seq for u in out.uops] == list(range(len(out)))

    def test_values_stable_across_blocks(self):
        b = TraceBuilder("t")
        for i in range(100):
            b.alu("op", "x", [], i)
        out = Trace.from_packed(
            inject_invariants(b.packed(), every=10, count=2, seed=3))
        load_values = {}
        for u in out.uops:
            if u.is_load:
                load_values.setdefault(u.pc, set()).add(u.value)
        # Every invariant load PC always returns the same value.
        assert all(len(vals) == 1 for vals in load_values.values())

    def test_zero_every_is_identity(self):
        b = TraceBuilder("t")
        b.alu("op", "x", [], 1)
        packed = b.packed()
        assert inject_invariants(packed, every=0) is packed

    def test_rejects_zero_count(self):
        b = TraceBuilder("t")
        with pytest.raises(ValueError):
            inject_invariants(b.packed(), every=5, count=0)


class TestCatalog:
    def test_table3_composition(self):
        """Table 3: 12 INT + 7 FP = 19 benchmarks."""
        assert len(WORKLOADS) == 19
        assert len(INT_WORKLOADS) == 12
        assert len(FP_WORKLOADS) == 7

    def test_spec_names_match_table3(self):
        names = {spec.spec_name for spec in WORKLOADS}
        expected = {
            "164.gzip", "168.wupwise", "173.applu", "175.vpr", "179.art",
            "186.crafty", "197.parser", "255.vortex", "401.bzip2", "403.gcc",
            "416.gamess", "429.mcf", "433.milc", "444.namd", "445.gobmk",
            "456.hmmer", "458.sjeng", "464.h264ref", "470.lbm",
        }
        assert names == expected

    def test_get_spec_unknown_raises(self):
        with pytest.raises(KeyError):
            get_spec("nonexistent")

    def test_build_trace_deterministic(self):
        a = build_trace("gzip", 2000, cache=False)
        b = build_trace("gzip", 2000, cache=False)
        assert len(a) == len(b)
        assert all(
            (x.pc, x.value, x.op_class) == (y.pc, y.value, y.op_class)
            for x, y in zip(a.uops, b.uops)
        )

    def test_build_trace_cached(self):
        a = build_trace("gzip", 2000)
        b = build_trace("gzip", 2000)
        assert a is b

    def test_build_trace_length(self):
        trace = build_trace("vpr", 3000, cache=False)
        assert len(trace) >= 3000 * 0.95

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_every_kernel_generates(self, name):
        trace = build_trace(name, 1500, cache=False)
        assert len(trace) >= 1400
        stats = trace.stats()
        assert stats.n_value_producers > 0
        assert stats.n_branches > 0

    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_kernel_register_consistency(self, name):
        """Sources must reference registers in the flat 0..63 space."""
        trace = build_trace(name, 1500, cache=False)
        for u in trace.uops:
            for src in u.srcs:
                assert 0 <= src < 64
            if u.dst is not None:
                assert 0 <= u.dst < 64
            if u.is_load or u.is_store:
                assert u.mem_addr is not None
