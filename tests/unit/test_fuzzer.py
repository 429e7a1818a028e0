"""Unit tests for the differential scenario/config fuzzer."""

import json

import pytest

from repro.pipeline import ckernel
from repro.pipeline.result import SimResult
from repro.workloads import catalog, fuzzer
from repro.workloads.fuzzer import (CornerRegistry, FuzzOutcome, FuzzSpec,
                                    classify_corners, run_differential,
                                    run_fuzz, sample_specs)

# ---------------------------------------------------------------------------
# Spec grammar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", (
    FuzzSpec(workload="gcc", predictor="vtage"),
    FuzzSpec(workload="scenario-c3-e50-l10", predictor="fcm",
             recovery="reissue", fpc=False, entries=512, n_uops=777,
             warmup=33),
))
def test_spec_line_round_trip(spec):
    assert FuzzSpec.parse(spec.line()) == spec


@pytest.mark.parametrize("line", (
    "",                                               # everything missing
    "workload=gcc",                                   # most fields missing
    "workload=gcc,predictor",                         # token without '='
    "workload=gcc,predictor=lvp,recovery=squash,"
    "fpc=1,entries=8192,uops=notanint,warmup=0",      # non-numeric
))
def test_spec_parse_rejects_malformed(line):
    with pytest.raises(ValueError):
        FuzzSpec.parse(line)


def test_spec_parse_tolerates_whitespace():
    spec = FuzzSpec(workload="gcc", predictor="lvp")
    padded = spec.line().replace(",", " , ")
    assert FuzzSpec.parse(padded) == spec


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_sample_specs_deterministic():
    a = sample_specs(20, seed=42)
    b = sample_specs(20, seed=42)
    assert a == b
    assert len(a) == 20
    assert sample_specs(20, seed=43) != a


def test_sample_specs_names_are_resolvable():
    for spec in sample_specs(40, seed=7):
        assert catalog.known_workload(spec.workload), spec.workload
        assert spec.warmup < spec.n_uops
        assert 600 <= spec.n_uops <= 3000


def test_sample_specs_honors_pools():
    specs = sample_specs(15, seed=1, workloads=("gcc", "gzip"),
                         predictors=("lvp", "vtage"))
    assert {s.workload for s in specs} <= {"gcc", "gzip"}
    assert {s.predictor for s in specs} <= {"lvp", "vtage"}


# ---------------------------------------------------------------------------
# Corner classification (synthetic outcomes — no simulation)
# ---------------------------------------------------------------------------


def _outcome(**ref_fields) -> FuzzOutcome:
    spec = FuzzSpec(workload="gcc", predictor="vtage")
    ref = SimResult(**ref_fields)
    return FuzzOutcome(spec=spec, results={"legacy": ref})


def test_classify_perfect_accuracy():
    out = _outcome(vp_eligible=300, vp_predicted=80, vp_used=60,
                   vp_wrong_used=0)
    kinds = {k for k, _ in classify_corners(out)}
    assert "perfect-accuracy" in kinds
    assert "divergence" not in kinds


def test_classify_zero_coverage():
    out = _outcome(vp_eligible=200, vp_predicted=150, vp_used=0)
    assert {k for k, _ in classify_corners(out)} == {"zero-coverage"}


def test_classify_saturated_coverage():
    out = _outcome(vp_eligible=100, vp_predicted=100, vp_used=96,
                   vp_wrong_used=1)
    assert {k for k, _ in classify_corners(out)} == {"saturated-coverage"}


def test_classify_fallback_only():
    out = _outcome(vp_eligible=10)
    out.fallback = "unsupported-predictor:FCMPredictor"
    corners = dict(classify_corners(out))
    assert corners["fallback-only"] == "unsupported-predictor:FCMPredictor"


def test_classify_divergence_names_fields():
    out = _outcome(cycles=100, vp_used=5)
    out.results["kernel"] = SimResult(cycles=101, vp_used=5)
    out.divergent = True
    out.divergent_legs = ["kernel"]
    corners = dict(classify_corners(out))
    assert "cycles" in corners["divergence"]
    assert "kernel" in corners["divergence"]


def test_classify_quiet_outcome_has_no_corners():
    out = _outcome(vp_eligible=300, vp_predicted=100, vp_used=30,
                   vp_wrong_used=4)
    assert classify_corners(out) == []


# ---------------------------------------------------------------------------
# Corner registry
# ---------------------------------------------------------------------------


def test_registry_register_and_dedup(tmp_path):
    reg = CornerRegistry(tmp_path / "corners.json")
    spec = FuzzSpec(workload="gcc", predictor="vtage")
    name = reg.register("perfect-accuracy", "60 used", spec, seed=9)
    assert name == "corner-perfect-accuracy-vtage-squash"
    # Same spec again: same name, no serial bump.
    assert reg.register("perfect-accuracy", "60 used", spec, seed=9) == name
    # Different spec, same base name: serial suffix.
    other = FuzzSpec(workload="gzip", predictor="vtage")
    second = reg.register("perfect-accuracy", "70 used", other, seed=9)
    assert second == f"{name}-2"
    data = json.loads((tmp_path / "corners.json").read_text())
    assert data["corners"][name]["workload"] == "gcc"
    assert data["corners"][second]["spec"] == other.line()
    assert FuzzSpec.parse(data["corners"][name]["spec"]) == spec


def test_registry_tolerates_corrupt_file(tmp_path):
    path = tmp_path / "corners.json"
    path.write_text("{not json")
    reg = CornerRegistry(path)
    assert reg.load()["corners"] == {}
    spec = FuzzSpec(workload="gcc", predictor="lvp")
    reg.register("zero-coverage", "none confident", spec, seed=1)
    assert spec.line() in path.read_text()


# ---------------------------------------------------------------------------
# Differential driver
# ---------------------------------------------------------------------------


def test_run_differential_equal_legs():
    spec = FuzzSpec(workload="gcc", predictor="vtage", n_uops=900,
                    warmup=200)
    outcome = run_differential(spec)
    assert set(outcome.results) == set(fuzzer.LEGS) == {"legacy", "kernel"}
    assert not outcome.divergent
    expected = None if ckernel.kernel_available() else "no-compiler"
    assert outcome.fallback == expected
    assert outcome.results["kernel"] == outcome.results["legacy"]


def test_run_differential_reports_fallback():
    spec = FuzzSpec(workload="gzip", predictor="fcm", n_uops=700,
                    warmup=100)
    outcome = run_differential(spec)
    assert not outcome.divergent
    assert outcome.fallback == "unsupported-predictor:FCMPredictor"
    assert "fallback-only" in {k for k, _ in outcome.corners}


def test_run_fuzz_reports_injected_divergence(monkeypatch, tmp_path):
    """A divergent leg must surface as a replayable spec line."""
    bad = FuzzSpec(workload="gcc", predictor="lvp", n_uops=800, warmup=100)

    def fake_differential(spec):
        out = FuzzOutcome(spec=spec, results={"legacy": SimResult(cycles=10)})
        if spec == bad:
            out.results["kernel"] = SimResult(cycles=11)
            out.divergent = True
            out.divergent_legs = ["kernel"]
        out.corners = classify_corners(out)
        return out

    monkeypatch.setattr(fuzzer, "run_differential", fake_differential)
    monkeypatch.setattr(fuzzer, "sample_specs",
                        lambda *a, **k: [FuzzSpec(workload="gcc",
                                                  predictor="vtage"),
                                         bad])
    lines = []
    summary = run_fuzz(2, seed=5, registry=CornerRegistry(tmp_path / "c.json"),
                       emit=lines.append)
    assert summary["ran"] == 2
    assert summary["divergences"] == [bad.line()]
    assert FuzzSpec.parse(summary["divergences"][0]) == bad
    assert any("DIVERGENCE" in line for line in lines)
    assert any("--replay" in line for line in lines)
    registered = json.loads((tmp_path / "c.json").read_text())["corners"]
    assert any(row["kind"] == "divergence" for row in registered.values())


def test_replay_prints_leg_comparison(capsys):
    spec = FuzzSpec(workload="gzip", predictor="lvp", n_uops=700, warmup=100)
    lines = []
    outcome = fuzzer.replay(spec.line(), emit=lines.append)
    assert not outcome.divergent
    assert sum("==" in line for line in lines) == len(fuzzer.LEGS)
