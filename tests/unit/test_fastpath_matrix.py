"""The fast-path dispatch matrix, pinned exhaustively.

``CoreModel.run`` picks between the compiled kernel and the spec loop at
call time; which configurations are eligible is a contract the fuzzer and
the CLI ``--profile`` output both rely on.  These tests enumerate every
experiment predictor × recovery × fpc combination and assert the
trace-free dispatch decision (:func:`fastsim.fallback_reason`), then
exercise the run itself: structured fallback counters,
``REPRO_FAST_SIM=require`` escalation, every reason the kernel's
precondition (:func:`ckernel.decline_reason`) can return, the stage-trace
hook and the disabled-by-env path.  Every route to the spec loop records
exactly one reason; on a host without a C compiler that reason is
``no-compiler``.
"""

import dataclasses

import pytest

from repro.core.confidence import ConfidencePolicy
from repro.core.vtage import VTAGEPredictor
from repro.engine.job import PREDICTOR_NAMES
from repro.experiments.runner import make_predictor
from repro.isa.trace import Trace
from repro.isa.uop import MicroOp
from repro.pipeline import ckernel, fastsim, precompute
from repro.pipeline.config import CoreConfig, RecoveryMode
from repro.pipeline.core import CoreModel, simulate
from repro.workloads.catalog import build_trace

#: Families the kernel inlines (exact type checks in
#: ``ckernel.predictor_type``) — everything else must fall back, silently
#: by default, loudly under ``REPRO_FAST_SIM=require``.
FAST = frozenset({"none", "oracle", "lvp", "stride", "2dstride", "vtage"})
FALLBACK = frozenset(PREDICTOR_NAMES) - FAST

#: What ``fallback_reason`` reports for a FAST family on this host.
ELIGIBLE = None if ckernel.kernel_available() else "no-compiler"

requires_kernel = pytest.mark.skipif(
    not ckernel.kernel_available(),
    reason="no C toolchain: compiled kernel unavailable")

_N = 600
_WARMUP = 100


def _model(name: str, recovery: str = "squash", fpc: bool = True) -> CoreModel:
    predictor = make_predictor(name, fpc=fpc, recovery=recovery)
    return CoreModel(config=CoreConfig(recovery=RecoveryMode(recovery)),
                     predictor=predictor)


@pytest.fixture(autouse=True)
def _clean_counters():
    fastsim.reset_fallback_stats()
    yield
    fastsim.reset_fallback_stats()


# -- static half: predictor family × recovery × fpc -------------------------


@pytest.mark.parametrize("fpc", (True, False), ids=("fpc", "3bit"))
@pytest.mark.parametrize("recovery", ("squash", "reissue"))
@pytest.mark.parametrize("name", PREDICTOR_NAMES)
def test_dispatch_matrix(name, recovery, fpc):
    """Eligibility depends only on the predictor family — never on the
    recovery mechanism or the confidence policy."""
    model = _model(name, recovery=recovery, fpc=fpc)
    reason = fastsim.fallback_reason(model)
    if name in FAST:
        assert reason == ELIGIBLE
    else:
        expected = f"unsupported-predictor:{type(model.predictor).__name__}"
        assert reason == expected


@pytest.mark.parametrize("name", sorted(FAST))
def test_fast_family_rejects_prewarmed_branch_unit(name):
    model = _model(name)
    model.branch_unit.cond_branches = 7
    assert fastsim.fallback_reason(model) == "non-default-branch-state"


# -- dynamic half: counters and require-mode escalation ---------------------


def test_fallback_counter_records_unsupported(monkeypatch):
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    trace = build_trace("gcc", _N)
    result = simulate(trace, make_predictor("fcm"), warmup=_WARMUP,
                      workload="gcc")
    assert result.cycles > 0
    assert fastsim.fallback_stats() == {
        "unsupported-predictor:FCMPredictor": 1}


def test_fast_run_records_no_fallback(monkeypatch):
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    trace = build_trace("gcc", _N)
    simulate(trace, make_predictor("vtage"), warmup=_WARMUP, workload="gcc")
    expected = {ELIGIBLE: 1} if ELIGIBLE else {}
    assert fastsim.fallback_stats() == expected


def test_no_compiler_takes_spec_loop(monkeypatch):
    """Without a loadable kernel an eligible config records
    ``no-compiler``: silently by default (spec-loop answer), loudly under
    ``require``."""
    monkeypatch.setattr(ckernel, "kernel_available", lambda: False)
    trace = build_trace("gcc", _N)
    monkeypatch.setenv(fastsim.FAST_SIM_ENV, "require")
    with pytest.raises(fastsim.FastPathRequired) as excinfo:
        _model("vtage").run(trace, warmup=_WARMUP, workload="gcc")
    assert excinfo.value.reason == "no-compiler"
    assert fastsim.kernel_mode() == "off"
    fastsim.reset_fallback_stats()
    monkeypatch.delenv(fastsim.FAST_SIM_ENV)
    result = _model("vtage").run(trace, warmup=_WARMUP, workload="gcc")
    assert fastsim.fallback_stats() == {"no-compiler": 1}
    monkeypatch.setenv(fastsim.FAST_SIM_ENV, "0")
    assert result == _model("vtage").run(trace, warmup=_WARMUP,
                                         workload="gcc")


class _CustomConfidence(ConfidencePolicy):
    """A confidence subclass: outside the kernel's exact-type contract."""


class _CustomSaturation(ConfidencePolicy):
    """A confidence subclass with its own saturation test: VTAGE cannot
    inline it as a threshold compare."""

    def is_confident(self, level: int) -> bool:
        return level >= self.max_level


def _touch_memory(model: CoreModel) -> None:
    model.memory.load(pc=0x400, addr=0x10040, cycle=0)  # one L1D access


def _touch_store_sets(model: CoreModel) -> None:
    model.store_sets.train_violation(0x400, 0x480)


def _custom_confidence(model: CoreModel) -> None:
    model.predictor.confidence = _CustomConfidence()


def _train_directly(model: CoreModel) -> None:
    for uop in list(build_trace("gzip", _N))[:200]:
        if uop.produces_value:
            model.predictor.train(uop.predictor_key(), uop.value, None)


def _train_by_spec_loop(model: CoreModel) -> None:
    CoreModel(predictor=model.predictor)._run(build_trace("gzip", _N), 0,
                                              None, None)


def _vtage_custom_saturation() -> VTAGEPredictor:
    return VTAGEPredictor(confidence=_CustomSaturation())


def _vtage_17_components() -> VTAGEPredictor:
    return VTAGEPredictor(history_lengths=tuple(range(2, 36, 2)))


def _gcc() -> Trace:
    """A fresh gcc trace: its plane cache starts empty."""
    return build_trace("gcc", _N, cache=False)


def _hand_trace(**last) -> Trace:
    """Eight ALU µops, the last one's fields replaced by *last*."""
    uops = [MicroOp(seq=i, pc=0x400 + 4 * i, srcs=(1,), dst=1 + i % 4,
                    value=i) for i in range(8)]
    uops[-1] = dataclasses.replace(uops[-1], **last)
    return Trace(uops, name="hand")


#: (id, predictor name or factory, pre-run tweak, trace factory, reason):
#: one eligible-looking run per reason :func:`ckernel.decline_reason` can
#: return past ``no-compiler``, each of which the kernel must decline.
_DECLINES = (
    ("memory-not-fresh", "vtage", _touch_memory, _gcc,
     "kernel-ineligible:memory-not-fresh"),
    ("store-sets-not-fresh", "lvp", _touch_store_sets, _gcc,
     "kernel-ineligible:store-sets-not-fresh"),
    ("predictor-not-fresh-trained", "2dstride", _train_directly, _gcc,
     "kernel-ineligible:predictor-not-fresh"),
    ("predictor-not-fresh-spec-run", "vtage", _train_by_spec_loop, _gcc,
     "kernel-ineligible:predictor-not-fresh"),
    ("vtage-threshold", _vtage_custom_saturation, None, _gcc,
     "kernel-ineligible:vtage-threshold"),
    ("vtage-components", _vtage_17_components, None, _gcc,
     "kernel-ineligible:vtage-components"),
    ("confidence-policy", "lvp", _custom_confidence, _gcc,
     "kernel-ineligible:confidence-policy"),
    ("confidence-policy-vtage", "vtage", _custom_confidence, _gcc,
     "kernel-ineligible:confidence-policy"),
    ("empty-trace", "lvp", None, lambda: Trace([], name="hand"),
     "kernel-ineligible:empty-trace"),
    ("address-range", "stride", None, lambda: _hand_trace(pc=1 << 62),
     "kernel-ineligible:address-range"),
    ("negative-seq", "none", None, lambda: _hand_trace(seq=-1),
     "kernel-ineligible:negative-seq"),
    ("register-range", "lvp", None, lambda: _hand_trace(dst=64),
     "kernel-ineligible:register-range"),
)


@requires_kernel
@pytest.mark.parametrize("predictor,tweak,make_trace,reason",
                         [d[1:] for d in _DECLINES],
                         ids=[d[0] for d in _DECLINES])
def test_kernel_decline_records_reason(monkeypatch, predictor, tweak,
                                       make_trace, reason):
    """The kernel's precondition names the reason, the trace-free prefix
    too unless a trace check fails.  The decline raises under ``require``
    naming it; by default it takes the spec loop on the untouched model
    and records exactly that one reason.  Either way it leaves the
    trace's plane cache empty: no trace plane, kernel inputs or VTAGE
    plane is built for a run the kernel declines."""
    trace = make_trace()

    def model():
        made = (_model(predictor) if isinstance(predictor, str)
                else CoreModel(predictor=predictor()))
        if tweak is not None:
            tweak(made)
        return made

    def run():
        return model().run(trace, warmup=_WARMUP, workload="gcc")

    def planes():
        return getattr(trace, precompute.PLANE_CACHE_ATTR, {})

    assert ckernel.decline_reason(model(), trace) == reason
    # A gcc trace passes every trace check; each hand-built one fails one.
    trace_free = reason if make_trace is _gcc else None
    assert fastsim.fallback_reason(model()) == trace_free
    if reason.endswith("register-range"):  # no loop models register 64
        for mode in ("require", "0"):
            monkeypatch.setenv(fastsim.FAST_SIM_ENV, mode)
            pytest.raises(ValueError, run).match("register 64")
        assert fastsim.fallback_stats() == {} and planes() == {}
        return
    monkeypatch.setenv(fastsim.FAST_SIM_ENV, "require")
    with pytest.raises(fastsim.FastPathRequired) as excinfo:
        run()
    assert excinfo.value.reason == reason
    assert reason in str(excinfo.value)
    assert planes() == {}
    fastsim.reset_fallback_stats()
    monkeypatch.delenv(fastsim.FAST_SIM_ENV)
    result = run()
    assert fastsim.fallback_stats() == {reason: 1}
    assert planes() == {}
    monkeypatch.setenv(fastsim.FAST_SIM_ENV, "0")
    assert result == run()


@requires_kernel
def test_stale_predictor_declines_before_any_plane_is_built(monkeypatch):
    """The state checks run before the per-trace inputs are built: a
    trained VTAGE predictor declines on a fresh trace and leaves neither
    kernel inputs nor a VTAGE plane in the trace's plane cache."""
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    trace = build_trace("gcc", _N, cache=False)
    model = _model("vtage")
    _train_directly(model)
    model.run(trace, warmup=_WARMUP, workload="gcc")
    assert fastsim.fallback_stats() == {
        "kernel-ineligible:predictor-not-fresh": 1}
    planes = getattr(trace, precompute.PLANE_CACHE_ATTR, {})
    assert precompute._KERNEL_KEY not in planes
    assert [key for key in planes if key[0] == "vtage"] == []


def test_disabled_by_env_is_counted(monkeypatch):
    monkeypatch.setenv(fastsim.FAST_SIM_ENV, "0")
    trace = build_trace("gcc", _N)
    simulate(trace, make_predictor("vtage"), warmup=_WARMUP, workload="gcc")
    assert fastsim.fallback_stats().get("disabled-by-env") == 1


def test_stage_trace_hook_is_counted(monkeypatch):
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    trace = build_trace("gcc", _N)
    hook: list = []
    _model("vtage").run(trace, warmup=_WARMUP, workload="gcc",
                        stage_trace=hook)
    assert len(hook) > 0
    assert fastsim.fallback_stats().get("stage-trace-hook") == 1


@requires_kernel
def test_require_mode_passes_supported(monkeypatch):
    monkeypatch.setenv(fastsim.FAST_SIM_ENV, "require")
    assert fastsim.fast_sim_mode() == "require"
    trace = build_trace("gcc", _N)
    result = simulate(trace, make_predictor("vtage"), warmup=_WARMUP,
                      workload="gcc")
    assert result.cycles > 0
    assert fastsim.fallback_stats() == {}


@pytest.mark.parametrize("name", sorted(FALLBACK))
def test_require_mode_raises_unsupported(monkeypatch, name):
    monkeypatch.setenv(fastsim.FAST_SIM_ENV, "require")
    trace = build_trace("gcc", _N)
    with pytest.raises(fastsim.FastPathRequired) as excinfo:
        simulate(trace, make_predictor(name), warmup=_WARMUP, workload="gcc")
    assert excinfo.value.reason.startswith("unsupported-predictor:")


def test_require_mode_raises_on_stage_trace(monkeypatch):
    monkeypatch.setenv(fastsim.FAST_SIM_ENV, "require")
    trace = build_trace("gcc", _N)
    with pytest.raises(fastsim.FastPathRequired) as excinfo:
        _model("vtage").run(trace, warmup=_WARMUP, workload="gcc",
                            stage_trace=[])
    assert excinfo.value.reason == "stage-trace-hook"


def test_require_mode_raises_on_prewarmed_branch_unit(monkeypatch):
    monkeypatch.setenv(fastsim.FAST_SIM_ENV, "require")
    trace = build_trace("gcc", _N)
    model = _model("vtage")
    model.branch_unit.cond_branches = 7
    with pytest.raises(fastsim.FastPathRequired) as excinfo:
        model.run(trace, warmup=_WARMUP, workload="gcc")
    assert excinfo.value.reason == "non-default-branch-state"


def test_reset_clears_counters(monkeypatch):
    monkeypatch.setenv(fastsim.FAST_SIM_ENV, "0")
    trace = build_trace("gcc", _N)
    simulate(trace, None, warmup=_WARMUP, workload="gcc")
    assert fastsim.fallback_stats()
    fastsim.reset_fallback_stats()
    assert fastsim.fallback_stats() == {}
