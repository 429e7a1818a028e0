"""Core configuration mirroring Table 2 of the paper.

"4GHz, 8-wide superscalar, out-of-order processor with a latency of 19
cycles.  We chose a slow front-end (15 cycles) coupled to a swift back-end
(4 cycles) to obtain a realistic misprediction penalty."
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass, field, fields

from repro.isa.uop import OpClass


class RecoveryMode(enum.Enum):
    """Value misprediction recovery mechanisms compared in the paper."""

    #: Pipeline squashing at commit time (Section 3.1.1): cheap hardware,
    #: high per-event penalty (~40-50 cycles).
    SQUASH_COMMIT = "squash"
    #: Idealistic 0-cycle selective reissue (Section 7.2.1): dependents are
    #: replayed for free when the correct value shows up.
    SELECTIVE_REISSUE = "reissue"


@dataclass(slots=True)
class FUTiming:
    """Latency/occupancy of one functional-unit pool."""

    units: int
    latency: int
    pipelined: bool = True

    @property
    def occupancy(self) -> int:
        return 1 if self.pipelined else self.latency

    def to_dict(self) -> dict:
        return {"units": self.units, "latency": self.latency,
                "pipelined": self.pipelined}

    @classmethod
    def from_dict(cls, data: dict) -> "FUTiming":
        return cls(units=data["units"], latency=data["latency"],
                   pipelined=data.get("pipelined", True))


#: The µops value prediction may cover (``CoreConfig.vp_scope``).
VP_SCOPES = ("all", "loads")


@dataclass
class CoreConfig:
    """Structural parameters of the simulated core (Table 2 defaults)."""

    # Front end.
    fetch_width: int = 8
    max_taken_per_cycle: int = 2
    frontend_depth: int = 15  # fetch -> dispatch, in cycles
    fetch_queue: int = 128  # decoupling buffer: fetch stalls when dispatch backs up
    decode_redirect_depth: int = 5  # BTB-miss redirect resolved at decode
    redirect_extra: int = 2  # squash/redirect bubble on top of refill
    # Window.
    rob_entries: int = 256
    iq_entries: int = 128
    lq_entries: int = 48
    sq_entries: int = 48
    int_prf: int = 256
    fp_prf: int = 256
    arch_regs: int = 32
    # Back end.
    issue_width: int = 8
    commit_width: int = 8
    backend_depth: int = 4  # complete -> commit, in cycles
    # Functional units (Table 2: 8 ALU(1c), 4 MulDiv(3c/25c*), 8 FP(3c),
    # 4 FPMulDiv(5c/10c*), 4 Ld/Str; * = not pipelined).
    fu: dict = field(
        default_factory=lambda: {
            OpClass.INT_ALU: FUTiming(units=8, latency=1),
            OpClass.INT_MUL: FUTiming(units=4, latency=3),
            OpClass.INT_DIV: FUTiming(units=4, latency=25, pipelined=False),
            OpClass.FP_ADD: FUTiming(units=8, latency=3),
            OpClass.FP_MUL: FUTiming(units=4, latency=5),
            OpClass.FP_DIV: FUTiming(units=4, latency=10, pipelined=False),
            OpClass.LOAD: FUTiming(units=4, latency=1),
            OpClass.STORE: FUTiming(units=4, latency=1),
            OpClass.BRANCH: FUTiming(units=8, latency=1),
            OpClass.JUMP: FUTiming(units=8, latency=1),
            OpClass.CALL: FUTiming(units=8, latency=1),
            OpClass.RET: FUTiming(units=8, latency=1),
            OpClass.NOP: FUTiming(units=8, latency=1),
        }
    )
    # Value prediction plumbing (Section 4).  The paper's simulations do
    # NOT throttle prediction writes ("We assume that the predictor can
    # deliver as many predictions as requested", Section 7.2); the finite
    # write-port configuration exists for the Section 4 cost analysis and
    # as an ablation (None = unlimited, the paper's methodology).
    vp_write_ports: int | None = None
    # Which µops are predicted: "all" register-producing µops (the paper's
    # methodology: "we do not try to estimate criticality or focus only on
    # load instructions") or "loads" only, as earlier VP work did — exposed
    # as an ablation.
    vp_scope: str = "all"
    recovery: RecoveryMode = RecoveryMode.SQUASH_COMMIT
    # How far ahead (in µops) the commit-time validator looks when deciding
    # whether a wrong used prediction was consumed before execution
    # ("squashing can be avoided if the predicted result has not been used
    # yet").  Bounded by the ROB size.
    squash_lookahead: int = 256

    def __post_init__(self) -> None:
        """Refuse a configuration no core could run (``ValueError``).

        Runs at construction, so :meth:`from_dict` — the engine's and the
        workers' way in — checks every job's configuration before a cycle
        loop sees it.  Widths, depths, window and register-file sizes and
        every functional-unit pool's units and latency must be at least
        1; the squash lookahead cannot reach past the ROB; ``vp_scope``
        is ``"all"`` or ``"loads"``.
        """
        bad = [name for name in _POSITIVE_FIELDS if getattr(self, name) < 1]
        bad += [f"fu[{op.name}].{part}" for op, timing in self.fu.items()
                for part in ("units", "latency") if getattr(timing, part) < 1]
        if bad:
            raise ValueError(f"core config needs {', '.join(bad)} >= 1")
        if not 0 <= self.squash_lookahead <= self.rob_entries:
            raise ValueError(
                f"squash_lookahead {self.squash_lookahead} must lie in "
                f"0..rob_entries ({self.rob_entries})")
        if self.vp_scope not in VP_SCOPES:
            raise ValueError(f"vp_scope must be one of {VP_SCOPES}, "
                             f"got {self.vp_scope!r}")

    # ------------------------------------------------------------------
    # Serialisation and content addressing (used by the experiment engine
    # for job specs, the on-disk result cache and the worker pipes; see
    # DESIGN.md, "Experiment engine").

    def to_dict(self) -> dict:
        """Lossless, JSON-safe view of every structural parameter."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "fu":
                out["fu"] = {op.name: timing.to_dict()
                             for op, timing in value.items()}
            elif f.name == "recovery":
                out["recovery"] = value.value
            else:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CoreConfig":
        kwargs = dict(data)
        kwargs["fu"] = {OpClass[name]: FUTiming.from_dict(timing)
                        for name, timing in data["fu"].items()}
        kwargs["recovery"] = RecoveryMode(data["recovery"])
        return cls(**kwargs)

    def canonical_json(self) -> str:
        """Deterministic JSON rendering (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def content_key(self) -> str:
        """Short stable digest of the full configuration.

        Two configs share a key iff every structural parameter matches, so
        the key is safe to use in result-cache keys (the baseline-cache
        bug this fixes: speedups under a custom config must never compare
        against a default-config baseline).
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


#: Fields of :class:`CoreConfig` that must be at least 1.
_POSITIVE_FIELDS = (
    "fetch_width", "max_taken_per_cycle", "frontend_depth", "fetch_queue",
    "decode_redirect_depth", "rob_entries", "iq_entries", "lq_entries",
    "sq_entries", "int_prf", "fp_prf", "arch_regs", "issue_width",
    "commit_width", "backend_depth",
)
