"""The deterministic fault plane: spec grammar, triggers, activation.

The contract under test is *determinism*: a plan is a pure function of
(spec, seed, per-site hit counters) — the same plan against the same
operation sequence fires at exactly the same points, every run, in every
process.  That is what makes a chaos failure in CI reproducible locally
with one environment variable.
"""

import errno
import json

import pytest

from repro.engine import faults
from repro.engine.faults import (
    SITES,
    FaultPlan,
    FaultRule,
    FaultSpecError,
    InjectedFault,
)


@pytest.fixture(autouse=True)
def clean_fault_state(monkeypatch):
    """No plan leaks in or out of any test."""
    monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
    monkeypatch.delenv(faults.FAULTS_SEED_ENV, raising=False)
    faults.reset()
    yield
    faults.reset()


class TestSpecGrammar:
    def test_single_rule_round_trips(self):
        plan = FaultPlan.parse("cache.write:torn@3")
        assert plan.to_spec() == "cache.write:torn@3"
        assert plan.rules[0].when == (3,)

    def test_multi_rule_spec_with_args_and_triggers(self):
        spec = ("worker.execute:slow:0.01@every=2;"
                "service.send:drop@1,4;"
                "cache.write:enospc@p=0.5")
        plan = FaultPlan.parse(spec, seed=7)
        assert len(plan.rules) == 3
        assert plan.seed == 7
        assert plan.rules[0].arg == 0.01
        assert plan.rules[0].every == 2
        assert plan.rules[1].when == (1, 4)
        assert plan.rules[2].prob == 0.5

    def test_first_n_trigger_expands_to_hit_numbers(self):
        plan = FaultPlan.parse("store.read:truncate@first=3")
        assert plan.rules[0].when == (1, 2, 3)

    def test_no_trigger_means_always(self):
        plan = FaultPlan.parse("store.read:truncate")
        assert all(plan.check("store.read") for _ in range(5))

    @pytest.mark.parametrize("bad", [
        "",                          # no rules
        "nosuchsite:crash@1",        # unknown site
        "cache.write:explode@1",     # unknown action for the site
        "cache.write:torn@zero",     # unparseable trigger
        "cache.write:torn@every=0",
        "cache.write:torn@p=1.5",
        "cache.write:torn@0",        # hit numbers are 1-based
        "cache.write",               # no action
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse(bad)

    def test_every_known_site_action_pair_parses(self):
        for site, actions in SITES.items():
            for action in actions:
                plan = FaultPlan.parse(f"{site}:{action}@1")
                assert plan.rules[0].site == site

    def test_plan_file_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 42,
            "rules": [
                {"site": "cache.write", "action": "torn", "trigger": "2"},
                {"site": "worker.execute", "action": "slow", "arg": 0.01},
            ],
        }))
        plan = FaultPlan.parse(f"@{path}")
        assert plan.seed == 42
        assert plan.rules[0].when == (2,)
        assert plan.rules[1].arg == 0.01

    def test_bad_plan_file_raises(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json")
        with pytest.raises(FaultSpecError):
            FaultPlan.from_file(path)
        with pytest.raises(FaultSpecError):
            FaultPlan.from_file(tmp_path / "missing.json")


class TestTriggers:
    def test_hit_number_trigger_counts_per_site(self):
        plan = FaultPlan.parse("cache.write:torn@2")
        assert plan.check("cache.write") is None
        assert plan.check("store.write") is None   # separate counter
        rule = plan.check("cache.write")
        assert rule is not None and rule.action == "torn"
        assert plan.check("cache.write") is None  # fires exactly once

    def test_every_n_trigger(self):
        plan = FaultPlan.parse("service.send:drop@every=3")
        fired = [plan.check("service.send") is not None for _ in range(9)]
        assert fired == [False, False, True] * 3

    def test_probabilistic_trigger_is_seed_deterministic(self):
        a = FaultPlan.parse("cache.write:error@p=0.5", seed=1)
        b = FaultPlan.parse("cache.write:error@p=0.5", seed=1)
        pattern_a = [a.check("cache.write") is not None for _ in range(64)]
        pattern_b = [b.check("cache.write") is not None for _ in range(64)]
        assert pattern_a == pattern_b
        assert any(pattern_a) and not all(pattern_a)
        c = FaultPlan.parse("cache.write:error@p=0.5", seed=2)
        pattern_c = [c.check("cache.write") is not None for _ in range(64)]
        assert pattern_c != pattern_a  # a different seed, a different run

    def test_probability_extremes(self):
        never = FaultRule(site="x", action="y", prob=1e-12)
        always = FaultRule(site="x", action="y", prob=1.0)
        assert not any(never.matches(h, seed=0) for h in range(1, 200))
        assert all(always.matches(h, seed=0) for h in range(1, 200))

    def test_counters_advance_even_without_matching_rules(self):
        plan = FaultPlan.parse("cache.write:torn@1")
        plan.check("store.read")
        plan.check("store.read")
        assert plan.counts["store.read"] == 2
        assert plan.fired.get("store.read") is None


class TestActivation:
    def test_no_plan_means_fire_returns_none(self):
        assert faults.fire("cache.write") is None

    def test_env_spec_activates_on_first_fire(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "store.read:truncate@1")
        faults.reset()
        assert faults.fire("store.read") is not None
        assert faults.fire("store.read") is None

    def test_env_seed_feeds_probabilistic_rules(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "store.read:truncate@p=0.5")
        monkeypatch.setenv(faults.FAULTS_SEED_ENV, "9")
        faults.reset()
        assert faults.active_plan().seed == 9

    def test_bad_env_spec_warns_once_and_disables(self, monkeypatch, capsys):
        monkeypatch.setenv(faults.FAULTS_ENV, "not a spec")
        faults.reset()
        assert faults.fire("cache.write") is None
        assert faults.fire("cache.write") is None
        err = capsys.readouterr().err
        assert err.count("ignoring") == 1

    def test_install_plan_and_reset(self):
        previous = faults.install_plan("cache.write:torn@1")
        assert previous is None
        assert faults.fire("cache.write") is not None
        faults.install_plan(None)
        assert faults.fire("cache.write") is None

    def test_export_env_mirrors_spec_for_spawned_workers(self, monkeypatch):
        import os

        faults.install_plan("store.read:truncate@2", seed=5, export_env=True)
        assert os.environ[faults.FAULTS_ENV] == "store.read:truncate@2"
        assert os.environ[faults.FAULTS_SEED_ENV] == "5"
        faults.install_plan(None, export_env=True)
        assert faults.FAULTS_ENV not in os.environ


class TestActionHelpers:
    def test_io_error_maps_enospc_and_eio(self):
        enospc = faults.io_error(
            FaultRule(site="s", action="enospc"), "store.write")
        torn = faults.io_error(
            FaultRule(site="s", action="torn"), "cache.write")
        assert enospc.errno == errno.ENOSPC
        assert torn.errno == errno.EIO

    def test_worker_error_directive_raises(self):
        with pytest.raises(InjectedFault):
            faults.apply_worker_fault({"action": "error", "arg": None})

    def test_slow_directive_returns(self):
        faults.apply_worker_fault({"action": "slow", "arg": 0.001})
