"""Real-trace ingestion: parsing, classification, lowering, store wiring.

The bundled fixtures under ``tests/fixtures/traces/`` are the acceptance
anchor: both must ingest to packed columns, register under a
digest-bearing workload name, round-trip through the catalog (exact,
sliced and tiled lengths), re-ingest bit-identically, and run through
``repro run``'s code path with both cycle-loop implementations
producing dataclass-equal results.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.isa.uop import OpClass
from repro.pipeline import fastsim
from repro.pipeline.config import CoreConfig, RecoveryMode
from repro.pipeline.core import simulate
from repro.workloads import catalog, ingest
from repro.workloads.store import TraceStore

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "traces"
FIXTURE_LOGS = sorted(FIXTURES.glob("*.log"))


@pytest.fixture()
def store(tmp_path, monkeypatch):
    """A fresh trace store wired up as the process default."""
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    catalog.clear_trace_cache()
    yield TraceStore(tmp_path / "traces")
    catalog.clear_trace_cache()


# ---------------------------------------------------------------------------
# Line parsing
# ---------------------------------------------------------------------------

def test_parse_cva6_line():
    insn = ingest.parse_line("80000000 00000297 auipc t0,0x0", 1)
    assert insn.addr == 0x80000000
    assert insn.code == 0x297
    assert insn.mnemonic == "auipc"
    assert insn.operands == "t0,0x0"
    assert insn.size == 4


def test_parse_objdump_line_strips_annotations():
    insn = ingest.parse_line(
        "    10074:\t00000297          \tauipc\tt0,0x0 # 10074 <_start>", 7)
    assert insn.addr == 0x10074
    assert insn.mnemonic == "auipc"
    assert insn.operands == "t0,0x0"


def test_compressed_instruction_size():
    insn = ingest.parse_line("80002000 1141 c.addi sp,-16", 1)
    assert insn.size == 2


def test_noise_lines_skipped_not_quarantined():
    text = "\n".join([
        "Disassembly of section .text:",
        "0000000080002000 <crc32>:",
        "",
        "80002000 00000297 auipc t0,0x0",
    ]) + "\n"
    insns, skipped, quarantined = ingest.parse_log(text)
    assert len(insns) == 1
    assert skipped == 2
    assert quarantined == []


def test_malformed_lines_quarantined_with_reason():
    text = (
        "80000000 00000297 auipc t0,0x0\n"
        "not an instruction at all\n"
        "80000008 zzzz nop\n"
        "80000010 00000013\n"          # hex code but no mnemonic
        "8000001 00500113 addi sp"     # truncated final line (no newline)
    )
    insns, _skipped, quarantined = ingest.parse_log(text)
    assert len(insns) == 2             # first and last still parse
    reasons = {line_no: reason for line_no, reason, _ in quarantined}
    assert 2 in reasons and 3 in reasons and 4 in reasons
    assert all(isinstance(r, str) and r for r in reasons.values())


def test_truncated_final_line_flagged():
    text = "80000000 00000297 auipc t0,0x0\n8000000"
    _insns, _skipped, quarantined = ingest.parse_log(text)
    assert len(quarantined) == 1
    assert "truncated" in quarantined[0][1]


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def _cls(line):
    return ingest.classify(ingest.parse_line(line, 1))


def test_classify_load_store():
    load = _cls("80000000 00052503 lw a0,0(a1)")
    assert load.op_class is OpClass.LOAD
    assert load.dst == 10 and load.srcs == (11,) and load.mem_size == 4
    store = _cls("80000004 00a5b023 sd a0,0(a1)")
    assert store.op_class is OpClass.STORE
    assert store.dst is None and set(store.srcs) == {10, 11}
    assert store.mem_size == 8
    fload = _cls("80000008 0005b507 fld fa0,0(a1)")
    assert fload.op_class is OpClass.LOAD and fload.dst_is_fp
    assert fload.dst == 32 + 10


def test_classify_control():
    br = _cls("80000000 00b51463 bne a0,a1,80000010")
    assert br.op_class is OpClass.BRANCH
    assert set(br.srcs) == {10, 11}
    assert br.target_hint == 0x80000010
    assert _cls("80000000 00c000ef jal ra,8000000c").op_class is OpClass.CALL
    assert _cls("80000000 00c0006f jal zero,8000000c").op_class is OpClass.JUMP
    assert _cls("80000000 00008067 ret").op_class is OpClass.RET
    assert _cls("80000000 a001 c.j 80000000").op_class is OpClass.JUMP


def test_classify_arithmetic_families():
    assert _cls("80000000 02b50533 mul a0,a0,a1").op_class is OpClass.INT_MUL
    assert _cls("80000000 02b54533 div a0,a0,a1").op_class is OpClass.INT_DIV
    assert _cls("80000000 1ab57553 fdiv.d fa0,fa0,fa1").op_class is OpClass.FP_DIV
    assert _cls("80000000 12b57553 fmul.d fa0,fa0,fa1").op_class is OpClass.FP_MUL
    fadd = _cls("80000000 02b57553 fadd.d fa0,fa0,fa1")
    assert fadd.op_class is OpClass.FP_ADD
    assert fadd.dst == 32 + 10 and fadd.dst_is_fp
    alu = _cls("80000000 00b50533 add a0,a0,a1")
    assert alu.op_class is OpClass.INT_ALU and alu.dst == 10


def test_writes_to_x0_produce_no_destination():
    assert _cls("80000000 00b00033 add zero,zero,a1").dst is None
    assert _cls("80000000 00052003 lw x0,0(a0)").dst is None


def test_nop_class_has_no_registers():
    nop = _cls("80000000 00000013 nop")
    assert nop.op_class is OpClass.NOP
    assert nop.dst is None and nop.srcs == ()


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

def test_branch_direction_from_next_address():
    text = (
        "80000000 00b51463 bne a0,a1,80000010\n"   # next != fallthrough: taken
        "80000010 00b50533 add a0,a0,a1\n"
        "80000014 00b51463 bne a0,a1,80000010\n"   # next == fallthrough: not
        "80000018 00b50533 add a0,a0,a1\n"
    )
    insns, _, _ = ingest.parse_log(text)
    trace = ingest.lower(insns, seed=1, name="t")
    first, _, second, _ = trace.uops
    assert first.taken and first.target == 0x80000010
    assert not second.taken


def test_lowering_is_deterministic_and_seed_sensitive():
    insns, _, _ = ingest.parse_log(
        "80000000 00052503 lw a0,0(a1)\n" * 8)
    a = ingest.lower(insns, seed=5, name="t").packed()
    b = ingest.lower(insns, seed=5, name="t").packed()
    c = ingest.lower(insns, seed=6, name="t").packed()
    assert np.array_equal(a.arrays["values"], b.arrays["values"])
    assert not np.array_equal(a.arrays["values"], c.arrays["values"])


def test_tile_trace_repeats_with_continuous_seqs():
    insns, _, _ = ingest.parse_log(
        "80000000 00052503 lw a0,0(a1)\n"
        "80000004 00b50533 add a0,a0,a1\n")
    base = ingest.lower(insns, seed=1, name="t")
    tiled = ingest.tile_trace(base, 5)
    assert len(tiled) == 5
    assert [u.seq for u in tiled.uops] == [0, 1, 2, 3, 4]
    assert tiled.uops[2].pc == base.uops[0].pc
    assert tiled.uops[2].value == base.uops[0].value


# ---------------------------------------------------------------------------
# Naming, registry, catalog integration
# ---------------------------------------------------------------------------

def test_ingest_names_cover_source_seed_and_version():
    name_a = ingest.ingest_name("memcpy.log", b"bytes", 1)
    assert ingest.is_ingest_name(name_a)
    assert name_a.startswith("ingest-memcpy-")
    assert ingest.ingest_name("memcpy.log", b"bytes", 2) != name_a
    assert ingest.ingest_name("memcpy.log", b"other", 1) != name_a
    assert ingest.ingest_name("other/dir/memcpy.log", b"bytes", 1) == name_a


def test_non_ingest_names_rejected():
    assert not ingest.is_ingest_name("gcc")
    assert not ingest.is_ingest_name("scenario-c4-e25-l90")
    assert not ingest.is_ingest_name("ingest-foo")          # no digest
    assert not ingest.is_ingest_name("ingest-foo-XYZ")      # bad digest


def test_ingest_registers_and_catalog_resolves(store):
    text = "80000000 00052503 lw a0,0(a1)\n" * 50
    trace, report = ingest.ingest_text(text, "fifty.log", store, seed=3)
    assert report.stored
    assert catalog.known_workload(report.name)
    assert catalog.resolve_seed(report.name) == 3
    entry = json.loads(
        (store.directory / "ingest" / f"{report.name}.json").read_text())
    assert entry["n_uops"] == 50 and entry["seed"] == 3
    rows = store.entries()
    assert [r["provenance"] for r in rows] == ["ingested"]

    exact = catalog.build_trace(report.name, 50)
    assert np.array_equal(exact.packed().arrays["values"],
                          trace.packed().arrays["values"])
    assert len(catalog.build_trace(report.name, 20)) == 20
    tiled = catalog.build_trace(report.name, 120)
    assert len(tiled) == 120
    assert tiled.uops[50].pc == trace.uops[0].pc


def test_unregistered_ingest_name_raises(store):
    fake = ingest.ingest_name("ghost.log", b"never ingested", 1)
    with pytest.raises(ingest.IngestError):
        catalog.build_trace(fake, 100)


def test_ingest_without_store_raises_on_resolve(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
    catalog.clear_trace_cache()
    fake = ingest.ingest_name("nostore.log", b"bytes", 1)
    with pytest.raises(ingest.IngestError, match="REPRO_TRACE_DIR"):
        catalog.build_trace(fake, 100)


def test_empty_log_raises(store):
    with pytest.raises(ingest.IngestError, match="no parseable"):
        ingest.ingest_text("garbage\nmore garbage\n", "bad.log", store)


def test_clear_by_provenance(store):
    text = "80000000 00052503 lw a0,0(a1)\n" * 30
    _, report = ingest.ingest_text(text, "keepme.log", store, seed=1)
    generated = catalog.build_trace("gcc", 500)
    store.put(generated, "gcc", 500, catalog.resolve_seed("gcc"))
    stats = store.stats()
    assert stats["ingested_entries"] == 1
    assert stats["generated_entries"] == 1

    assert store.clear(provenance="generated") == 1
    assert [r["name"] for r in store.entries()] == [report.name]
    assert ingest.registered_names(store) == [report.name]

    assert store.clear(provenance="ingested") == 1
    assert store.entries() == []
    assert ingest.registered_names(store) == []


# ---------------------------------------------------------------------------
# Bundled fixtures: the end-to-end acceptance tests
# ---------------------------------------------------------------------------

def test_two_fixture_logs_are_bundled():
    assert len(FIXTURE_LOGS) >= 2


@pytest.mark.parametrize("log", FIXTURE_LOGS, ids=lambda p: p.stem)
def test_fixture_reingests_bit_identical(log, store, tmp_path):
    trace_a, report_a = ingest.ingest_file(log, store)
    other = TraceStore(tmp_path / "other-store")
    trace_b, report_b = ingest.ingest_file(log, other)
    assert report_a.name == report_b.name
    for col, arr in trace_a.packed().arrays.items():
        assert np.array_equal(arr, trace_b.packed().arrays[col]), col
    loaded = store.get(report_a.name, report_a.n_uops, report_a.seed)
    for col, arr in trace_a.packed().arrays.items():
        assert np.array_equal(arr, loaded.packed().arrays[col]), col


@pytest.mark.parametrize("log", FIXTURE_LOGS, ids=lambda p: p.stem)
def test_fixture_runs_bit_identical_across_implementations(
        log, store, monkeypatch):
    _, report = ingest.ingest_file(log, store)
    results = {}
    for mode in ("legacy", "kernel"):
        monkeypatch.setenv(fastsim.FAST_SIM_ENV,
                           "0" if mode == "legacy" else "1")
        from repro.experiments.runner import make_predictor

        trace = catalog.build_trace(report.name, 3000)
        predictor = make_predictor("vtage")
        results[mode] = simulate(
            trace, predictor,
            config=CoreConfig(recovery=RecoveryMode("squash")),
            warmup=1000, workload=report.name)
    assert results["kernel"] == results["legacy"]
    assert results["legacy"].cycles > 0


def test_fixture_ingest_and_run_through_cli(store, capsys):
    """`repro ingest` + `repro run` on the resulting name (the CLI path)."""
    from repro.cli import main

    log = FIXTURE_LOGS[0]
    assert main(["ingest", str(log)]) == 0
    name = capsys.readouterr().out.split(":", 1)[0]
    assert ingest.is_ingest_name(name)
    assert main(["run", name, "--predictor", "lvp",
                 "--uops", "2000", "--warmup", "500"]) == 0
    out = capsys.readouterr().out
    assert name in out and "speedup over no-VP baseline" in out
