"""Real-trace ingestion: execution logs in, :class:`PackedColumns` out.

All workloads so far are synthetic (Table 3 kernels, scenario knob
points).  This module opens the frontier the ROADMAP calls "ingest real
program traces": it parses real execution logs — the ``address hex
mnemonic`` commit-log format the cva6 ``perf-model/cycle_count.py``
exemplar consumes, plus a tolerant objdump-style variant — classifies
every instruction into the existing µop vocabulary, and lowers the
stream straight to :class:`~repro.isa.trace.PackedColumns` through the
content-addressed trace store.  From there an ingested trace is
indistinguishable from a generated one: the catalog LRU caches it, the
shared-memory plane fans it out to workers, precompute planes persist
next to it, and both simulator implementations (the sequential spec loop
and the C kernel) consume it bit-identically.

**Line formats.**  Two layouts are auto-detected per line:

* cva6/RVFI commit-log style: ``<addr-hex> <insn-hex> <mnemonic ...>``
  (e.g. ``80000000 00000297 auipc t0,0x0``);
* objdump style: ``<addr-hex>: <insn-hex> <mnemonic ...>`` with
  optional ``<label>`` / ``# comment`` annotations, which are stripped.

Label lines (``0000000080000000 <main>:``), section headers and blank
lines are *skipped* (expected log noise); anything else that fails to
parse is *quarantined* — recorded with its line number and reason in the
:class:`IngestReport`, never silently dropped nor fatal.  A truncated
final line quarantines the same way.

**Classification.**  The mnemonic maps to an :class:`~repro.isa.uop.OpClass`
(loads/stores with access width, conditional branches, jump/call/ret
heuristics, mul/div, FP families, everything else INT ALU); source and
destination registers are extracted heuristically from the operand
string (ABI names, ``x``/``f`` numerics, ``imm(reg)`` address bases).
Branch directions and control targets are recovered from the *actual*
next-line address — the one piece of genuinely dynamic information a
commit log carries.

**Values.**  Commit logs carry no register values, so value streams are
*synthetic but seeded*: every value-producing static PC gets a
deterministic stream (constant / strided / periodic / noise, chosen and
seeded from ``(seed, pc)``) and every memory PC a deterministic address
stream.  The same ``(source bytes, seed)`` always lowers to the same
packed arrays — re-ingestion is bit-identical, which is what makes the
digest-bearing workload name a sound cache key.

**Naming & registry.**  An ingested trace is addressed as
``ingest-<slug>-<digest10>`` where the digest covers the source bytes,
the seed and :data:`INGEST_VERSION`.  Ingestion requires a trace store:
the packed columns persist under the name with ``provenance:
"ingested"``, and a registry sidecar (``<store>/ingest/<name>.json``)
records the identity so any later process —  CLI, worker, daemon — can
resolve the name without the source file.  Requests longer than the
ingested stream are *tiled* (the program loops); shorter ones slice.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.isa.trace import Trace
from repro.isa.uop import MicroOp, OpClass
from repro.util.atomicio import atomic_write_text, file_lock
from repro.util.bits import MASK64

#: Bump whenever parsing, classification or value synthesis changes the
#: lowered µop stream for the same source bytes; part of the name digest,
#: so stale store entries are orphaned rather than misread.
INGEST_VERSION = 1

#: Default value-synthesis seed when ``--seed`` is not given.
DEFAULT_INGEST_SEED = 0x1A7E57

#: Ingested workload names: ``ingest-<slug>-<digest10>``.
_NAME_RE = re.compile(r"^ingest-([a-z0-9][a-z0-9_.+-]*)-([0-9a-f]{10})$")

_REGISTRY_DIR = "ingest"

# ---------------------------------------------------------------------------
# Line parsing
# ---------------------------------------------------------------------------

#: cva6/RVFI commit-log line: ``addr hex mnemonic [operands]``.
_CVA6_RE = re.compile(
    r"^\s*(?:0x)?([0-9a-fA-F]{4,16})\s+(?:0x)?([0-9a-fA-F]{4,8})\s+(\S.*)$"
)

#: objdump disassembly line: ``addr: hex mnemonic [operands]``.
_OBJDUMP_RE = re.compile(
    r"^\s*(?:0x)?([0-9a-fA-F]{4,16}):\s+([0-9a-fA-F]{4,8})\s+(\S.*)$"
)

#: Lines that are expected log noise, skipped without quarantine.
_LABEL_RE = re.compile(r"^\s*(?:0x)?[0-9a-fA-F]{4,16}\s+<[^>]*>:\s*$")
_SECTION_RE = re.compile(r"^(Disassembly of section|\S+:\s+file format)\b")


@dataclass(frozen=True)
class ParsedInsn:
    """One successfully parsed log line (pre-classification)."""

    line_no: int
    addr: int
    code: int
    mnemonic: str        # first token, lowercased
    operands: str        # remainder, annotations stripped

    @property
    def size(self) -> int:
        """Instruction size in bytes (RISC-V compressed-encoding rule)."""
        return 4 if (self.code & 0b11) == 0b11 else 2


@dataclass
class IngestReport:
    """What one ingestion run did — parse counts, quarantine, identity."""

    source: str = ""
    source_sha256: str = ""
    name: str = ""
    seed: int = DEFAULT_INGEST_SEED
    n_uops: int = 0
    parsed: int = 0
    skipped: int = 0
    quarantined: list = field(default_factory=list)  # (line_no, reason, text)
    stored: bool = False

    def to_dict(self) -> dict:
        """JSON-able form (the registry sidecar payload)."""
        d = dataclasses.asdict(self)
        d["quarantined"] = [list(q) for q in self.quarantined]
        return d


class IngestError(ValueError):
    """Unrecoverable ingestion failure (empty log, missing store entry)."""


def _strip_annotations(operands: str) -> str:
    """Drop ``# comment`` tails and ``<symbol>`` annotations."""
    operands = operands.split("#", 1)[0]
    operands = re.sub(r"<[^>]*>", "", operands)
    return operands.strip().rstrip(",")


def parse_line(line: str, line_no: int) -> ParsedInsn | None:
    """Parse one log line, or ``None`` when it is not an instruction.

    Raises ``ValueError`` with a human reason for malformed candidates
    (the caller quarantines); returns ``None`` for expected noise (blank
    lines, section headers, ``<label>:`` lines).
    """
    stripped = line.strip()
    if not stripped:
        return None
    if _LABEL_RE.match(stripped) or _SECTION_RE.match(stripped):
        return None
    match = _OBJDUMP_RE.match(line) or _CVA6_RE.match(line)
    if match is None:
        raise ValueError("not an `address hex mnemonic` line")
    addr_hex, code_hex, rest = match.groups()
    rest = _strip_annotations(rest)
    if not rest:
        raise ValueError("missing mnemonic after address and hex code")
    parts = rest.split(None, 1)
    mnemonic = parts[0].lower().rstrip(",")
    operands = parts[1].strip() if len(parts) > 1 else ""
    if not re.fullmatch(r"[a-z][a-z0-9._]*", mnemonic):
        raise ValueError(f"implausible mnemonic {mnemonic!r}")
    return ParsedInsn(
        line_no=line_no,
        addr=int(addr_hex, 16) & MASK64,
        code=int(code_hex, 16),
        mnemonic=mnemonic,
        operands=operands,
    )


def parse_log(text: str) -> tuple[list[ParsedInsn], int, list]:
    """Parse a whole log: ``(instructions, skipped, quarantined)``.

    ``quarantined`` rows are ``(line_no, reason, excerpt)``; they are
    excluded from the stream but fully reported.  A final line without a
    newline terminator is treated as potentially truncated and
    quarantined when it fails to parse.
    """
    insns: list[ParsedInsn] = []
    skipped = 0
    quarantined: list = []
    lines = text.split("\n")
    for i, raw in enumerate(lines, start=1):
        try:
            parsed = parse_line(raw, i)
        except ValueError as exc:
            reason = str(exc)
            if i == len(lines) and not text.endswith("\n"):
                reason = f"possibly truncated final line: {reason}"
            quarantined.append((i, reason, raw.strip()[:80]))
            continue
        if parsed is None:
            if raw.strip():
                skipped += 1
            continue
        insns.append(parsed)
    return insns, skipped, quarantined


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

_ABI_INT = {
    "zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
    "t0": 5, "t1": 6, "t2": 7, "s0": 8, "fp": 8, "s1": 9,
    "a0": 10, "a1": 11, "a2": 12, "a3": 13, "a4": 14, "a5": 15,
    "a6": 16, "a7": 17,
    "s2": 18, "s3": 19, "s4": 20, "s5": 21, "s6": 22, "s7": 23,
    "s8": 24, "s9": 25, "s10": 26, "s11": 27,
    "t3": 28, "t4": 29, "t5": 30, "t6": 31,
}
_ABI_FP = {
    "ft0": 0, "ft1": 1, "ft2": 2, "ft3": 3, "ft4": 4, "ft5": 5,
    "ft6": 6, "ft7": 7, "fs0": 8, "fs1": 9,
    "fa0": 10, "fa1": 11, "fa2": 12, "fa3": 13, "fa4": 14, "fa5": 15,
    "fa6": 16, "fa7": 17,
    "fs2": 18, "fs3": 19, "fs4": 20, "fs5": 21, "fs6": 22, "fs7": 23,
    "fs8": 24, "fs9": 25, "fs10": 26, "fs11": 27,
    "ft8": 28, "ft9": 29, "ft10": 30, "ft11": 31,
}
_FP_REG_BASE = 32

_LOADS = {"lb": 1, "lh": 2, "lw": 4, "ld": 8, "lbu": 1, "lhu": 2,
          "lwu": 4, "lwsp": 4, "ldsp": 8}
_FP_LOADS = {"flw": 4, "fld": 8, "fldsp": 8, "flwsp": 4}
_STORES = {"sb": 1, "sh": 2, "sw": 4, "sd": 8, "swsp": 4, "sdsp": 8}
_FP_STORES = {"fsw": 4, "fsd": 8, "fsdsp": 8, "fswsp": 4}
_BRANCHES = {"beq", "bne", "blt", "bge", "bltu", "bgeu", "beqz", "bnez",
             "blez", "bgez", "bltz", "bgtz", "bgt", "ble", "bgtu", "bleu"}
_MULS = {"mul", "mulh", "mulhsu", "mulhu", "mulw"}
_DIVS = {"div", "divu", "rem", "remu", "divw", "divuw", "remw", "remuw"}
_FP_DIVS = {"fdiv.s", "fdiv.d", "fsqrt.s", "fsqrt.d", "fdiv", "fsqrt"}
_NOPS = {"nop", "fence", "fence.i", "sfence.vma", "wfi", "ecall", "ebreak",
         "mret", "sret", "unimp"}


def _reg_of(token: str) -> tuple[int, bool] | None:
    """(register id in the flat 0-63 space, is_fp) for a register token."""
    token = token.strip()
    if token in _ABI_INT:
        return _ABI_INT[token], False
    if token in _ABI_FP:
        return _ABI_FP[token] + _FP_REG_BASE, True
    match = re.fullmatch(r"x([0-9]|[12][0-9]|3[01])", token)
    if match:
        return int(match.group(1)), False
    match = re.fullmatch(r"f([0-9]|[12][0-9]|3[01])", token)
    if match:
        return int(match.group(1)) + _FP_REG_BASE, True
    return None


_MEM_OPERAND_RE = re.compile(r"(-?(?:0x)?[0-9a-fA-F]+)?\((\w+)\)")


def _operand_regs(operands: str) -> list[tuple[int, bool]]:
    """Register ids mentioned in an operand string, in textual order."""
    regs: list[tuple[int, bool]] = []
    for token in re.split(r"[,\s]+", operands):
        if not token:
            continue
        mem = _MEM_OPERAND_RE.fullmatch(token)
        if mem is not None:
            reg = _reg_of(mem.group(2))
            if reg is not None:
                regs.append(reg)
            continue
        reg = _reg_of(token)
        if reg is not None:
            regs.append(reg)
    return regs


def _target_of(operands: str) -> int | None:
    """The last operand parsed as a hex address, if any (branch targets)."""
    tokens = [t for t in re.split(r"[,\s]+", operands) if t]
    if not tokens:
        return None
    tail = tokens[-1]
    if re.fullmatch(r"(?:0x)?[0-9a-fA-F]{3,16}", tail) and _reg_of(tail) is None:
        return int(tail, 16) & MASK64
    return None


@dataclass(frozen=True)
class Classified:
    """The µop-vocabulary view of one parsed instruction."""

    op_class: OpClass
    dst: int | None
    srcs: tuple[int, ...]
    dst_is_fp: bool
    mem_size: int = 8
    target_hint: int | None = None   # statically parsed control target


def classify(insn: ParsedInsn) -> Classified:
    """Map one instruction into the simulator's µop vocabulary.

    Heuristic by design: the goal is a *plausible* µop stream (the right
    op class, realistic dependences) rather than a faithful decode —
    the values are synthetic anyway.  Unknown mnemonics fall into
    INT ALU with best-effort register extraction, so a new ISA extension
    degrades the model, never the ingestion.
    """
    name = insn.mnemonic
    if name.startswith("c."):
        name = name[2:]
    regs = _operand_regs(insn.operands)

    if name in _NOPS:
        return Classified(OpClass.NOP, None, (), False)

    if name in _LOADS or name in _FP_LOADS:
        fp = name in _FP_LOADS
        size = (_FP_LOADS if fp else _LOADS)[name]
        dst = regs[0][0] if regs else None
        if dst == 0:
            dst = None   # x0 writes are architectural no-ops
        srcs = tuple(r for r, _ in regs[1:])
        return Classified(OpClass.LOAD, dst, srcs, fp, mem_size=size)

    if name in _STORES or name in _FP_STORES:
        fp = name in _FP_STORES
        size = (_FP_STORES if fp else _STORES)[name]
        return Classified(OpClass.STORE, None, tuple(r for r, _ in regs),
                          False, mem_size=size)

    if name in _BRANCHES:
        return Classified(OpClass.BRANCH, None, tuple(r for r, _ in regs),
                          False, target_hint=_target_of(insn.operands))

    if name == "ret" or (name == "jr" and regs and regs[0][0] == 1):
        return Classified(OpClass.RET, None, tuple(r for r, _ in regs), False)
    if name in ("j", "tail") or (name == "jr"):
        return Classified(OpClass.JUMP, None, tuple(r for r, _ in regs),
                          False, target_hint=_target_of(insn.operands))
    if name in ("jal", "jalr", "call"):
        # rd defaults to ra when omitted (`jal offset`, `call sym`); an
        # explicit x0/zero rd makes it a plain jump.
        rd = regs[0][0] if regs else 1
        if name == "call" or not regs:
            rd = 1
        if rd == 0:
            return Classified(
                OpClass.JUMP, None, tuple(r for r, _ in regs[1:]), False,
                target_hint=_target_of(insn.operands))
        if rd == 1:
            return Classified(
                OpClass.CALL, None, tuple(r for r, _ in regs[1:]), False,
                target_hint=_target_of(insn.operands))
        # Link into an arbitrary register: model as a jump that also
        # depends on its sources (indirect dispatch).
        return Classified(OpClass.JUMP, None, tuple(r for r, _ in regs[1:]),
                          False, target_hint=_target_of(insn.operands))

    base = name.split(".", 1)[0]
    if base in _MULS:
        cls = OpClass.INT_MUL
    elif base in _DIVS:
        cls = OpClass.INT_DIV
    elif name in _FP_DIVS or base in ("fdiv", "fsqrt"):
        cls = OpClass.FP_DIV
    elif base in ("fmul", "fmadd", "fmsub", "fnmadd", "fnmsub"):
        cls = OpClass.FP_MUL
    elif name.startswith("f") and base not in ("fence",):
        cls = OpClass.FP_ADD
    else:
        cls = OpClass.INT_ALU

    dst: int | None = None
    srcs: list[int] = []
    if regs:
        dst = regs[0][0]
        srcs = [r for r, _ in regs[1:]]
    dst_is_fp = bool(regs) and regs[0][1]
    if dst == 0:
        dst = None
        dst_is_fp = False
    # FP compares/classifies/moves-to-int write integer registers: trust
    # the extracted destination register's bank over the mnemonic.
    if cls in (OpClass.FP_ADD, OpClass.FP_MUL, OpClass.FP_DIV) \
            and dst is not None and not dst_is_fp:
        pass  # e.g. feq.d a0,fa0,fa1 — FP unit, int destination
    return Classified(cls, dst, tuple(srcs), dst_is_fp)


# ---------------------------------------------------------------------------
# Seeded value / address synthesis
# ---------------------------------------------------------------------------

class _StreamSynth:
    """Deterministic per-static-PC streams for values and addresses.

    Real commit logs carry no data values, so each value-producing PC is
    assigned a stream *kind* — constant, strided, periodic or noise —
    chosen and seeded from ``(seed, pc)``.  The mix covers the whole
    predictability spectrum the paper's predictors differentiate on
    (LVP loves constants, stride loves arithmetic sequences, VTAGE loves
    short periodic patterns, nothing loves noise).
    """

    _KINDS = ("const", "stride", "period", "noise")
    _WEIGHTS = (0.30, 0.30, 0.20, 0.20)

    def __init__(self, seed: int, salt: int):
        self._seed = seed
        self._salt = salt
        self._streams: dict[int, tuple] = {}

    def _open(self, pc: int) -> tuple:
        rng = random.Random((self._seed << 2) ^ (pc * 0x9E3779B1) ^ self._salt)
        kind = rng.choices(self._KINDS, weights=self._WEIGHTS, k=1)[0]
        if kind == "const":
            return ("const", rng.getrandbits(64), None)
        if kind == "stride":
            stride = rng.choice((1, 1, 2, 4, 8, 8, 16, 64, -1, -8))
            return ("stride", rng.getrandbits(48), stride)
        if kind == "period":
            period = rng.randrange(2, 5)
            values = tuple(rng.getrandbits(64) for _ in range(period))
            return ("period", 0, values)
        return ("noise", rng.getrandbits(64), rng)

    def next(self, pc: int) -> int:
        """The next value of *pc*'s stream (advances the stream)."""
        state = self._streams.get(pc)
        if state is None:
            state = self._open(pc)
        kind, cursor, extra = state
        if kind == "const":
            value = cursor
        elif kind == "stride":
            value = cursor & MASK64
            cursor = (cursor + extra) & MASK64
        elif kind == "period":
            value = extra[cursor % len(extra)]
            cursor += 1
        else:
            value = extra.getrandbits(64)
        self._streams[pc] = (kind, cursor, extra)
        return value & MASK64


def _address_synth(seed: int) -> _StreamSynth:
    """Address streams live in a distinct salt space from value streams
    (the same PC must not correlate its loaded value with its address)."""
    return _StreamSynth(seed, salt=0x5A5A5A5A)


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

_DATA_BASE = 0x2000_0000


def lower(insns: list[ParsedInsn], seed: int, name: str) -> Trace:
    """Lower parsed instructions to a :class:`Trace` of µops.

    Control direction and targets come from the actual next-line
    address; values and memory addresses from the seeded synthesis
    streams.  Deterministic in ``(insns, seed)``.
    """
    values = _StreamSynth(seed, salt=0)
    addrs = _address_synth(seed)
    uops: list[MicroOp] = []
    n = len(insns)
    for i, insn in enumerate(insns):
        cls = classify(insn)
        next_addr = insns[i + 1].addr if i + 1 < n else None
        fallthrough = (insn.addr + insn.size) & MASK64
        taken = False
        target = 0
        op = cls.op_class
        if op is OpClass.BRANCH:
            if next_addr is not None:
                taken = next_addr != fallthrough
                target = next_addr if taken else (cls.target_hint or 0)
            else:
                target = cls.target_hint or 0
        elif op in (OpClass.JUMP, OpClass.CALL, OpClass.RET):
            taken = True
            if next_addr is not None:
                target = next_addr
            else:
                target = cls.target_hint or fallthrough
        mem_addr = None
        value = 0
        if op is OpClass.LOAD or op is OpClass.STORE:
            base = _DATA_BASE + ((insn.addr & 0xFFFF) << 6)
            mem_addr = (base + addrs.next(insn.addr)) & MASK64
            # Keep accesses naturally aligned so line/banking behaviour
            # stays realistic.
            mem_addr &= ~(cls.mem_size - 1) & MASK64
        if cls.dst is not None:
            value = values.next(insn.addr)
        uops.append(
            MicroOp(
                seq=i,
                pc=insn.addr,
                uop_index=0,
                op_class=op,
                srcs=cls.srcs,
                dst=cls.dst,
                value=value,
                mem_addr=mem_addr,
                mem_size=cls.mem_size,
                taken=taken,
                target=target,
                dst_is_fp=cls.dst_is_fp,
            )
        )
    return Trace(uops, name=name)


def tile_trace(trace: Trace, n_uops: int) -> Trace:
    """Repeat *trace* until it covers ``n_uops`` µops (the program loops).

    Sequence numbers are renumbered continuously; PCs, values, addresses
    and directions repeat verbatim — exactly what re-running the logged
    region would look like to the predictors.  Deterministic.
    """
    base = trace.uops
    if not base:
        raise IngestError(f"cannot tile empty trace {trace.name!r}")
    uops: list[MicroOp] = []
    seq = 0
    while len(uops) < n_uops:
        for u in base:
            uops.append(dataclasses.replace(u, seq=seq))
            seq += 1
            if len(uops) >= n_uops:
                break
    return Trace(uops, name=trace.name)


# ---------------------------------------------------------------------------
# Naming, registry, store integration
# ---------------------------------------------------------------------------

def is_ingest_name(name: str) -> bool:
    """True for well-formed ingested-workload names."""
    return _NAME_RE.match(name) is not None


def _slug(source: str) -> str:
    stem = Path(source).stem.lower()
    slug = re.sub(r"[^a-z0-9_.+-]+", "-", stem).strip("-.")
    return (slug or "trace")[:24]


def ingest_name(source: str, source_bytes: bytes, seed: int) -> str:
    """The canonical ``ingest-<slug>-<digest10>`` name for one ingestion.

    The digest covers the raw source bytes, the synthesis seed and
    :data:`INGEST_VERSION` — the full identity of the lowered stream —
    so one name can never denote two different packed traces.
    """
    h = hashlib.sha256()
    h.update(f"ingest:v{INGEST_VERSION}:seed{seed}:".encode())
    h.update(source_bytes)
    return f"ingest-{_slug(source)}-{h.hexdigest()[:10]}"


def _registry_path(store, name: str) -> Path:
    return Path(store.directory) / _REGISTRY_DIR / f"{name}.json"


def registry_entry(store, name: str) -> dict | None:
    """The registry sidecar for *name* under *store*, or ``None``."""
    if store is None:
        return None
    path = _registry_path(store, name)
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def registered_names(store) -> list[str]:
    """Every ingested workload registered under *store* (sorted)."""
    if store is None:
        return []
    root = Path(store.directory) / _REGISTRY_DIR
    if not root.is_dir():
        return []
    return sorted(p.stem for p in root.glob("ingest-*.json")
                  if is_ingest_name(p.stem))


def ingest_text(text: str, source: str, store, seed: int | None = None,
                ) -> tuple[Trace, IngestReport]:
    """Ingest one log's text: parse, lower, persist, register.

    Returns the lowered trace and a full report.  Raises
    :class:`IngestError` when the log contains no parseable
    instructions; a missing store still lowers (``stored`` stays False)
    so callers can inspect without persisting.
    """
    effective_seed = DEFAULT_INGEST_SEED if seed is None else seed
    raw = text.encode()
    insns, skipped, quarantined = parse_log(text)
    report = IngestReport(
        source=str(source),
        source_sha256=hashlib.sha256(raw).hexdigest(),
        seed=effective_seed,
        parsed=len(insns),
        skipped=skipped,
        quarantined=quarantined,
    )
    if not insns:
        raise IngestError(
            f"{source}: no parseable instructions "
            f"({len(quarantined)} line(s) quarantined)")
    name = ingest_name(str(source), raw, effective_seed)
    report.name = name
    report.n_uops = len(insns)
    trace = lower(insns, effective_seed, name)
    trace.store_identity = (name, len(insns), effective_seed)
    if store is not None:
        store.put(trace, name, len(insns), effective_seed,
                  provenance="ingested")
        entry = {
            "name": name,
            "n_uops": len(insns),
            "seed": effective_seed,
            "ingest_version": INGEST_VERSION,
            "source": str(source),
            "source_sha256": report.source_sha256,
            "parsed": report.parsed,
            "skipped": report.skipped,
            "quarantined": len(report.quarantined),
        }
        path = _registry_path(store, name)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Sidecars are one-file-per-name, but concurrent shards sharing a
        # trace store can ingest the same log at once: the lock makes the
        # write-then-rename a critical section, so readers racing a
        # re-ingest always see exactly one complete sidecar.
        with file_lock(path):
            atomic_write_text(path,
                              json.dumps(entry, sort_keys=True, indent=1))
        report.stored = store.contains(name, len(insns), effective_seed)
    return trace, report


def ingest_file(path: str | os.PathLike, store, seed: int | None = None,
                ) -> tuple[Trace, IngestReport]:
    """Ingest one log file (see :func:`ingest_text`)."""
    return ingest_text(Path(path).read_text(), str(path), store, seed=seed)


# -- catalog integration ----------------------------------------------------

# (store directory, name) -> (n_uops, seed); registry sidecars are
# immutable once written, so a tiny process-local memo is safe.
_IDENTITY_MEMO: dict[tuple[str, str], tuple[int, int]] = {}


def registered_identity(name: str) -> tuple[int, int]:
    """(full length, seed) of ingested workload *name*.

    Resolved through the default trace store's registry; raises
    :class:`IngestError` when no store is configured or the name is not
    registered there — an ingested workload only exists where its store
    does.
    """
    from repro.workloads.store import default_trace_store

    store = default_trace_store()
    if store is None:
        raise IngestError(
            f"workload {name!r} is an ingested trace, which needs the "
            "trace store that holds it (set REPRO_TRACE_DIR)")
    memo_key = (str(store.directory), name)
    hit = _IDENTITY_MEMO.get(memo_key)
    if hit is not None:
        return hit
    entry = registry_entry(store, name)
    if entry is None:
        raise IngestError(
            f"ingested workload {name!r} is not registered under "
            f"{store.directory} (re-run `repro ingest` against this store)")
    identity = (int(entry["n_uops"]), int(entry["seed"]))
    _IDENTITY_MEMO[memo_key] = identity
    return identity


def materialise(name: str, n_uops: int) -> Trace:
    """Load ingested workload *name* sized to *n_uops* µops.

    Loads the full stored stream, then tiles (the program loops) or
    slices to the requested length.  Raises :class:`IngestError` when
    the store entry is gone (quarantined or cleared) — ingested bytes
    cannot be regenerated from thin air.
    """
    from repro.workloads.store import default_trace_store

    full_n, seed = registered_identity(name)
    store = default_trace_store()
    base = store.get(name, full_n, seed)
    if base is None:
        raise IngestError(
            f"stored columns for ingested workload {name!r} are missing "
            f"or corrupt under {store.directory}; re-run `repro ingest`")
    if len(base) > n_uops:
        base = Trace.from_packed(base.packed().head(n_uops), name=name)
    elif len(base) < n_uops:
        base = tile_trace(base, n_uops)
    return base
