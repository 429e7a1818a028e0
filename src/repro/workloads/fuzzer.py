"""Differential scenario/config fuzzer over the two cycle loops.

The repo carries two interchangeable implementations of the same
scheduler — the sequential spec loop :meth:`CoreModel._run` and the
compiled C kernel (:mod:`repro.pipeline.ckernel`) — whose equivalence the
golden grid pins only on a fixed grid.  This module is the standing
correctness harness that keeps them honest across the *whole* workload ×
predictor × recovery × knob space:

* :func:`sample_specs` draws jobs from a seed — catalog kernels and
  random scenario knob points (``scenario-c*-e*-l*``);
* :func:`run_differential` runs one spec through both implementations,
  forcing ``REPRO_FAST_SIM`` per leg (it is read at call time, so
  in-process forcing is exact), and requires **dataclass-equal**
  :class:`SimResult`\\ s;
* interesting corners — divergence, extreme accuracy, zero coverage,
  fallback-only configs — are auto-registered under stable names in a
  JSON registry next to the trace store, each with a replayable one-line
  spec (``repro fuzz --replay "<spec>"``).

Every leg builds a *fresh* predictor and model and calls
:func:`~repro.pipeline.core.simulate` directly — deliberately below the
engine layer, whose result cache keys jobs by content (not by
implementation) and would otherwise coalesce the two legs into one
simulation.  The trace itself is shared across legs via the catalog LRU:
traces are immutable once simulated, so sharing is free and exact.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

from repro.pipeline.config import CoreConfig, RecoveryMode
from repro.pipeline.core import CoreModel, simulate
from repro.pipeline import fastsim
from repro.util.atomicio import atomic_write_text, file_lock
from repro.workloads import catalog, scenarios

#: Bump when the spec grammar or sampling distribution changes: a replay
#: line is only meaningful against the grammar that emitted it.
FUZZ_VERSION = 1

#: The two implementation legs and the env forcing that selects each.
LEGS: dict[str, dict[str, str]] = {
    "legacy": {fastsim.FAST_SIM_ENV: "0"},
    "kernel": {fastsim.FAST_SIM_ENV: "1"},
}

_RECOVERIES = ("squash", "reissue")
_ENTRY_SIZES = (512, 1024, 8192)


@dataclass(frozen=True)
class FuzzSpec:
    """One sampled job — the unit the differential check runs on.

    Round-trips exactly through :meth:`line` / :meth:`parse`: the one-line
    form is what failure reports print and ``repro fuzz --replay``
    consumes.
    """

    workload: str
    predictor: str
    recovery: str = "squash"
    fpc: bool = True
    entries: int = 8192
    n_uops: int = 2000
    warmup: int = 500

    def line(self) -> str:
        """The replayable one-line form of this spec."""
        return (
            f"workload={self.workload},predictor={self.predictor},"
            f"recovery={self.recovery},fpc={int(self.fpc)},"
            f"entries={self.entries},uops={self.n_uops},"
            f"warmup={self.warmup}"
        )

    @classmethod
    def parse(cls, line: str) -> "FuzzSpec":
        """Parse a :meth:`line` back into a spec (strict: every field)."""
        fields: dict[str, str] = {}
        for token in line.strip().split(","):
            token = token.strip()
            if not token:
                continue
            if "=" not in token:
                raise ValueError(f"malformed spec token {token!r}")
            k, v = token.split("=", 1)
            fields[k.strip()] = v.strip()
        missing = {"workload", "predictor", "recovery", "fpc", "entries",
                   "uops", "warmup"} - set(fields)
        if missing:
            raise ValueError(f"spec line missing {sorted(missing)}")
        return cls(
            workload=fields["workload"],
            predictor=fields["predictor"],
            recovery=fields["recovery"],
            fpc=fields["fpc"] not in ("0", "false", "False"),
            entries=int(fields["entries"]),
            n_uops=int(fields["uops"]),
            warmup=int(fields["warmup"]),
        )


@dataclass
class FuzzOutcome:
    """What one differential run of a spec produced."""

    spec: FuzzSpec
    results: dict = field(default_factory=dict)   # leg -> SimResult
    divergent: bool = False
    divergent_legs: list = field(default_factory=list)
    fallback: str | None = None    # fast-path fallback reason, if any
    corners: list = field(default_factory=list)   # (kind, detail)


@contextlib.contextmanager
def _forced_env(forcing: dict[str, str]):
    saved = {k: os.environ.get(k) for k in forcing}
    os.environ.update(forcing)
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def run_leg(spec: FuzzSpec, leg: str):
    """Run *spec* on one implementation leg; returns its SimResult."""
    from repro.experiments.runner import make_predictor

    trace = catalog.build_trace(spec.workload, spec.warmup + spec.n_uops)
    predictor = make_predictor(spec.predictor, fpc=spec.fpc,
                               recovery=spec.recovery, entries=spec.entries)
    config = CoreConfig(recovery=RecoveryMode(spec.recovery))
    with _forced_env(LEGS[leg]):
        return simulate(trace, predictor, config=config,
                        warmup=spec.warmup, workload=spec.workload)


def run_differential(spec: FuzzSpec) -> FuzzOutcome:
    """Run *spec* through both legs and compare dataclass-equal.

    The legacy leg is the reference; a kernel leg whose :class:`SimResult`
    differs marks the outcome divergent.  The fast path's static fallback
    reason (a predictor family the kernel does not inline, or no C
    compiler) is recorded so fallback-only corners are visible.
    """
    from repro.experiments.runner import make_predictor

    outcome = FuzzOutcome(spec=spec)
    predictor = make_predictor(spec.predictor, fpc=spec.fpc,
                               recovery=spec.recovery, entries=spec.entries)
    outcome.fallback = fastsim.fallback_reason(CoreModel(predictor=predictor))
    for leg in LEGS:
        outcome.results[leg] = run_leg(spec, leg)
    reference = outcome.results["legacy"]
    for leg, result in outcome.results.items():
        if result != reference:
            outcome.divergent = True
            outcome.divergent_legs.append(leg)
    outcome.corners = classify_corners(outcome)
    return outcome


def _diff_fields(a, b) -> list[str]:
    """Names of SimResult fields where *a* and *b* disagree."""
    return [
        f.name for f in dataclasses.fields(a)
        if getattr(a, f.name) != getattr(b, f.name)
    ]


def classify_corners(outcome: FuzzOutcome) -> list:
    """The interesting-corner labels this outcome earns.

    Divergence is the fatal one; the rest flag configs worth keeping as
    named regression workloads — the extremes of the accuracy/coverage
    spectrum and configs the fast path cannot take at all.
    """
    corners = []
    ref = outcome.results.get("legacy")
    if outcome.divergent:
        fields = sorted({
            name
            for leg in outcome.divergent_legs
            for name in _diff_fields(outcome.results[leg], ref)
        })
        corners.append(("divergence",
                        f"legs {sorted(outcome.divergent_legs)} differ on "
                        f"{fields}"))
    if ref is None:
        return corners
    if outcome.fallback is not None:
        corners.append(("fallback-only", outcome.fallback))
    if ref.vp_used >= 50 and ref.vp_wrong_used == 0:
        corners.append(("perfect-accuracy",
                        f"{ref.vp_used} used, none wrong"))
    if ref.vp_eligible >= 100 and ref.vp_predicted and ref.vp_used == 0:
        corners.append(("zero-coverage",
                        f"{ref.vp_predicted} predicted, none confident"))
    if ref.vp_eligible and ref.vp_used / ref.vp_eligible >= 0.95:
        corners.append(("saturated-coverage",
                        f"{ref.vp_used}/{ref.vp_eligible} eligible used"))
    return corners


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_specs(budget: int, seed: int,
                 workloads: tuple[str, ...] | None = None,
                 predictors: tuple[str, ...] | None = None,
                 max_uops: int = 3000) -> list[FuzzSpec]:
    """Draw *budget* specs deterministically from *seed*.

    The workload pool mixes catalog kernels and freshly sampled scenario
    knob points; the predictor pool defaults to the full registry,
    including families the fast path cannot inline — those legs simply
    all run the sequential model, which the differential still checks.
    """
    from repro.experiments.runner import PREDICTOR_NAMES

    rng = random.Random((seed << 8) ^ FUZZ_VERSION)
    predictor_pool = tuple(predictors) if predictors else PREDICTOR_NAMES
    specs = []
    for _ in range(budget):
        if workloads:
            workload = rng.choice(tuple(workloads))
        else:
            if rng.random() < 0.6:
                workload = scenarios.ScenarioParams(
                    chase=rng.randrange(0, 10),
                    entropy=rng.randrange(0, 101),
                    locality=rng.randrange(0, 101),
                ).name
            else:
                workload = rng.choice(catalog.ALL_WORKLOADS)
        n_uops = rng.randrange(600, max_uops + 1)
        specs.append(FuzzSpec(
            workload=workload,
            predictor=rng.choice(predictor_pool),
            recovery=rng.choice(_RECOVERIES),
            fpc=rng.random() < 0.8,
            entries=rng.choice(_ENTRY_SIZES),
            n_uops=n_uops,
            warmup=rng.randrange(0, n_uops // 2),
        ))
    return specs


# ---------------------------------------------------------------------------
# Corner registry
# ---------------------------------------------------------------------------

class CornerRegistry:
    """A JSON registry of named fuzzer corners.

    Lives next to the trace store by default
    (``<store>/fuzz-corners.json``) so corners accumulate across runs on
    the same plane; every entry records the corner kind, the workload
    name (directly addressable through the catalog — scenario names
    resolve anywhere a workload name is accepted) and the
    replayable spec line.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)

    @classmethod
    def default(cls) -> "CornerRegistry":
        from repro.workloads.store import default_trace_store

        store = default_trace_store()
        base = Path(store.directory) if store is not None else Path(".")
        return cls(base / "fuzz-corners.json")

    def load(self) -> dict:
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {"version": FUZZ_VERSION, "corners": {}}
        if not isinstance(data, dict) or "corners" not in data:
            return {"version": FUZZ_VERSION, "corners": {}}
        return data

    def register(self, kind: str, detail: str, spec: FuzzSpec,
                 seed: int) -> str:
        """Record one corner under a stable generated name; returns it.

        The whole load → mutate → write cycle runs under the registry's
        :func:`~repro.util.atomicio.file_lock`: concurrent fuzzers (or
        cluster shards sharing one trace store) queue on the lock
        instead of overwriting each other's corners.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with file_lock(self.path):
            data = self.load()
            corners = data["corners"]
            base = f"corner-{kind}-{spec.predictor}-{spec.recovery}"
            name = base
            serial = 1
            while name in corners and corners[name]["spec"] != spec.line():
                serial += 1
                name = f"{base}-{serial}"
            corners[name] = {
                "kind": kind,
                "detail": detail,
                "workload": spec.workload,
                "spec": spec.line(),
                "seed": seed,
            }
            atomic_write_text(self.path,
                              json.dumps(data, sort_keys=True, indent=1))
        return name


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def run_fuzz(budget: int, seed: int,
             workloads: tuple[str, ...] | None = None,
             predictors: tuple[str, ...] | None = None,
             max_uops: int = 3000,
             registry: CornerRegistry | None = None,
             emit=print) -> dict:
    """Run a bounded differential sweep; returns a summary dict.

    The summary's ``divergences`` list carries one replayable spec line
    per failure — the contract the CI smoke job and the replay tests
    lean on.  Corner registration failures never fail the sweep.
    """
    if registry is None:
        registry = CornerRegistry.default()
    specs = sample_specs(budget, seed, workloads=workloads,
                         predictors=predictors, max_uops=max_uops)
    summary = {
        "version": FUZZ_VERSION,
        "budget": budget,
        "seed": seed,
        "ran": 0,
        "divergences": [],
        "corners": [],
        "fallback_only": 0,
    }
    for i, spec in enumerate(specs):
        outcome = run_differential(spec)
        summary["ran"] += 1
        if outcome.fallback is not None:
            summary["fallback_only"] += 1
        for kind, detail in outcome.corners:
            try:
                name = registry.register(kind, detail, spec, seed)
            except OSError:
                name = f"corner-{kind}-(unregistered)"
            summary["corners"].append(
                {"name": name, "kind": kind, "detail": detail,
                 "spec": spec.line()})
            if kind == "divergence":
                summary["divergences"].append(spec.line())
                emit(f"[{i + 1}/{budget}] DIVERGENCE {detail}")
                emit(f"  replay: repro fuzz --replay \"{spec.line()}\"")
        if not outcome.corners:
            continue
    emit(
        f"fuzz: {summary['ran']}/{budget} specs, "
        f"{len(summary['divergences'])} divergence(s), "
        f"{len(summary['corners'])} corner(s) registered, "
        f"{summary['fallback_only']} fallback-only config(s)"
    )
    return summary


def replay(line: str, emit=print) -> FuzzOutcome:
    """Re-run one spec line through the differential check."""
    spec = FuzzSpec.parse(line)
    outcome = run_differential(spec)
    ref = outcome.results["legacy"]
    for leg in LEGS:
        result = outcome.results[leg]
        tag = "==" if result == ref else "!!"
        emit(f"{leg:>6} {tag} cycles={result.cycles} "
             f"vp_used={result.vp_used} vp_wrong={result.vp_wrong_used}")
    if outcome.divergent:
        for leg in outcome.divergent_legs:
            fields = _diff_fields(outcome.results[leg], ref)
            emit(f"divergent leg {leg}: fields {fields}")
    elif outcome.fallback is not None:
        emit(f"note: fast path fell back ({outcome.fallback}); "
             "all legs ran the sequential model")
    return outcome
