"""Parameterised scenario workloads: names, determinism, knob behaviour."""

import pytest

from repro.analysis.metrics import evaluate_predictor
from repro.core.confidence import ConfidencePolicy
from repro.engine.job import SimJob, execute_job
from repro.predictors.lvp import LastValuePredictor
from repro.workloads.catalog import build_trace
from repro.workloads.names import known_workload
from repro.workloads.scenarios import (
    ScenarioParams,
    is_scenario_name,
    parse_scenario_name,
    scenario_axis,
)

TINY = {"n_uops": 3000, "warmup": 1500}


class TestNames:
    def test_name_round_trips(self):
        params = ScenarioParams(chase=4, entropy=25, locality=90)
        assert params.name == "scenario-c4-e25-l90"
        assert parse_scenario_name(params.name) == params

    @pytest.mark.parametrize("bad", [
        "scenario-c4-e25",          # missing knob
        "scenario-c4-e25-l90-x1",   # trailing junk
        "scenario-c4-e101-l90",     # entropy out of range
        "gzip",                     # catalog name
        "scenario-c4-e25-l-90",     # malformed number
    ])
    def test_invalid_names_rejected(self, bad):
        assert parse_scenario_name(bad) is None
        assert not is_scenario_name(bad)

    def test_knob_bounds_validated(self):
        with pytest.raises(ValueError):
            ScenarioParams(chase=-1)
        with pytest.raises(ValueError):
            ScenarioParams(locality=101)

    def test_scenario_axis_builds_the_grid(self):
        names = scenario_axis(chase=(1, 8), entropy=(5,), locality=(90, 40))
        assert names == [
            "scenario-c1-e5-l90", "scenario-c1-e5-l40",
            "scenario-c8-e5-l90", "scenario-c8-e5-l40",
        ]
        assert all(known_workload(n) for n in names)

    def test_catalog_accepts_scenario_names(self):
        assert known_workload("scenario-c2-e10-l50")
        assert not known_workload("scenario-c2-e10-l999")


class TestTraces:
    def test_traces_are_deterministic(self):
        name = "scenario-c3-e30-l70"
        a = build_trace(name, 4000, cache=False)
        b = build_trace(name, 4000, cache=False)
        assert len(a) == len(b) == 4000
        assert [u.value for u in a] == [u.value for u in b]
        assert [u.pc for u in a] == [u.pc for u in b]

    def test_seed_changes_the_stream(self):
        name = "scenario-c3-e30-l70"
        a = build_trace(name, 4000, seed=1, cache=False)
        b = build_trace(name, 4000, seed=2, cache=False)
        assert [u.value for u in a] != [u.value for u in b]

    def test_simjob_runs_scenarios_end_to_end(self):
        result = execute_job(SimJob.make("scenario-c2-e10-l80", "lvp", **TINY))
        assert result.workload == "scenario-c2-e10-l80"
        assert result.cycles > 0


class TestKnobs:
    def test_locality_dials_lvp_coverage(self):
        """More value locality -> more last-value coverage."""
        coverages = {}
        for locality in (95, 10):
            trace = build_trace(ScenarioParams(2, 10, locality).name, 12_000)
            stats = evaluate_predictor(
                trace, LastValuePredictor(confidence=ConfidencePolicy()),
                warmup=4000,
            )
            coverages[locality] = stats.coverage
        assert coverages[95] > coverages[10] + 0.05

    def test_chase_depth_dials_ipc_down(self):
        """Deeper dependent-load chains -> lower baseline IPC."""
        ipcs = {
            chase: execute_job(
                SimJob.make(ScenarioParams(chase, 10, 90).name, "none", **TINY)
            ).ipc
            for chase in (1, 12)
        }
        assert ipcs[12] < ipcs[1] * 0.7

    def test_entropy_dials_branch_mispredicts_up(self):
        """More branch entropy -> higher misprediction rate, monotonically
        across the whole knob range (100 is a fair coin, not a
        deterministic inversion)."""
        mpki = {
            entropy: execute_job(
                SimJob.make(ScenarioParams(1, entropy, 90).name, "none", **TINY)
            ).branch_mpki
            for entropy in (0, 50, 100)
        }
        assert mpki[0] < 1.0
        assert mpki[50] > 10.0
        assert mpki[100] >= mpki[50]
