"""The kernel's bounded window structures, checked against the spec loop.

The compiled kernel keeps the train queue in a ring of ``fetch_queue +
rob_entries`` entries, the IQ in a bucket queue of per-cycle counts, and
wraps every window ring by compare-and-subtract (``_ckernel.c``'s
header).  The golden grid and the fuzzer run the default geometry, where
every ring size is the Table 2 one; here each window has a small size
that is not a power of two, so every wrap and the ring bound are
exercised at a geometry the defaults never reach.  A configuration whose
latencies overflow the IQ's window, or with a window or unit pool of no
entries, must decline with its named reason and leave the answer to the
spec loop.
"""

import pytest

from repro.experiments.runner import make_predictor
from repro.isa.uop import OpClass
from repro.pipeline import ckernel, fastsim
from repro.pipeline.config import CoreConfig, FUTiming, RecoveryMode
from repro.pipeline.core import CoreModel
from repro.workloads.catalog import build_trace

requires_kernel = pytest.mark.skipif(
    not ckernel.kernel_available(),
    reason="no C toolchain: compiled kernel unavailable")

_N = 3000
_WARMUP = 1000

#: FQ / ROB / IQ / LQ / SQ / physical registers beyond the architectural.
_ODD = dict(fetch_queue=50, rob_entries=100, iq_entries=37, lq_entries=13,
            sq_entries=11, squash_lookahead=100)
_ODD_PRF = 77


def _odd_config(recovery: str) -> CoreConfig:
    config = CoreConfig(recovery=RecoveryMode(recovery), **_ODD)
    config.int_prf = config.fp_prf = config.arch_regs + _ODD_PRF
    return config


def _run(monkeypatch, mode, workload, name, config):
    if mode == "spec":
        monkeypatch.setenv(fastsim.FAST_SIM_ENV, "0")
    else:
        monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    trace = build_trace(workload, _N + _WARMUP)
    model = CoreModel(config=config, predictor=make_predictor(
        name, recovery=config.recovery.value))
    return model.run(trace, warmup=_WARMUP, workload=workload)


@requires_kernel
@pytest.mark.parametrize("recovery", ("squash", "reissue"))
@pytest.mark.parametrize("name", ("none", "lvp", "2dstride", "vtage"))
@pytest.mark.parametrize("workload", ("gzip", "crafty", "milc"))
def test_odd_window_sizes_match_spec_loop(monkeypatch, workload, name,
                                          recovery):
    config = _odd_config(recovery)
    fastsim.reset_fallback_stats()
    kernel = _run(monkeypatch, "kernel", workload, name, config)
    assert fastsim.fallback_stats() == {}, "the kernel must run this config"
    spec = _run(monkeypatch, "spec", workload, name, config)
    assert kernel == spec


@requires_kernel
@pytest.mark.parametrize("recovery", ("squash", "reissue"))
def test_iq_window_overflow_declines(monkeypatch, recovery):
    """An ALU latency past the IQ's window puts a release more than the
    window's span past the cursor: the kernel declines and the spec loop
    answers."""
    config = _odd_config(recovery)
    config.fu[OpClass.INT_ALU] = FUTiming(units=8, latency=70_000)
    fastsim.reset_fallback_stats()
    kernel = _run(monkeypatch, "kernel", "gzip", "lvp", config)
    assert fastsim.fallback_stats() == {"kernel-error:iq-window": 1}
    spec = _run(monkeypatch, "spec", "gzip", "lvp", config)
    assert kernel == spec
    # The declined run handed the IQ counts back empty: the next run on
    # the default config takes the kernel and matches the spec loop.
    fastsim.reset_fallback_stats()
    again = _run(monkeypatch, "kernel", "gzip", "lvp", _odd_config(recovery))
    assert fastsim.fallback_stats() == {}
    assert again == _run(monkeypatch, "spec", "gzip", "lvp",
                         _odd_config(recovery))


def _empty(field):
    """A config with window *field*, or unit pool *field*, of no entries,
    and the spec loop's message refusing it."""
    config = CoreConfig()
    # Emptied after construction, which refuses either outright: the
    # cycle loops keep their own guards for a config mutated in place.
    if isinstance(field, OpClass):
        config.fu[field] = FUTiming(units=0, latency=config.fu[field].latency)
        return config, "need at least one unit"
    setattr(config, field, 0)
    return config, "window size must be positive"


@requires_kernel
@pytest.mark.parametrize(
    "field", ("fetch_queue", "rob_entries", "iq_entries", "lq_entries",
              "sq_entries") + ckernel._POOL_CLASSES,
    ids=lambda field: getattr(field, "name", field).lower())
def test_empty_window_declines(monkeypatch, field):
    """A window or unit pool of no entries would make a ring never wrap
    and the IQ's cursor never stop: the kernel declines it, and the spec
    loop refuses the config as it always did."""
    monkeypatch.delenv(fastsim.FAST_SIM_ENV, raising=False)
    config, message = _empty(field)
    fastsim.reset_fallback_stats()
    with pytest.raises(ValueError, match=message):
        CoreModel(config=config).run(build_trace("gzip", _N), warmup=_WARMUP)
    assert fastsim.fallback_stats() == {"kernel-error:bad-arg": 1}
