"""`TraceBuilder.rand_table` and the generators' collector pause.

`rand_table` replaces `[rng.getrandbits(bits) for _ in range(n)]` in the
kernels that draw big tables, so it must return that list *and* leave
the builder's `random.Random` exactly where the loop leaves it: every
later draw of the kernel depends on it.  The trace digests pin the
kernels that use it; these tests pin the draw itself, around the
boundaries of MT19937's 624-word state and of CPython's one- and
two-word `getrandbits`.
"""

import gc
import random

import pytest

from repro.util.gcpause import gc_paused
from repro.workloads.builder import TraceBuilder

SEEDS = (1, 164, 2**40 + 7)


@pytest.mark.parametrize("n", [0, 1, 623, 624, 625, 70_000])
@pytest.mark.parametrize("bits", [1, 31, 32, 33, 56, 60, 64])
def test_rand_table_is_the_getrandbits_loop(bits, n):
    for seed in SEEDS:
        builder = TraceBuilder("t", seed=seed)
        twin = random.Random(seed)
        # Start mid-state, as a kernel does after its earlier draws.
        assert builder.rng.getrandbits(7) == twin.getrandbits(7)
        table = builder.rand_table(n, bits)
        assert table == [twin.getrandbits(bits) for _ in range(n)]
        assert builder.rng.getrandbits(40) == twin.getrandbits(40)
        assert builder.rng.random() == twin.random()
        assert builder.rng.randrange(900, 1500) == twin.randrange(900, 1500)


def test_rand_table_keeps_the_gaussian_carry():
    builder = TraceBuilder("t", seed=3)
    twin = random.Random(3)
    assert builder.rng.gauss(0, 1) == twin.gauss(0, 1)  # caches a second
    assert builder.rand_table(10, 20) == [twin.getrandbits(20)
                                          for _ in range(10)]
    assert builder.rng.gauss(0, 1) == twin.gauss(0, 1)


@pytest.mark.parametrize("bits", [0, 65])
def test_rand_table_refuses_widths_outside_one_to_64(bits):
    with pytest.raises(ValueError):
        TraceBuilder("t").rand_table(4, bits)


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def test_gc_paused_restores_an_enabled_collector(restore_gc):
    gc.enable()
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_gc_paused_leaves_a_disabled_collector_disabled(restore_gc):
    gc.disable()
    with gc_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_gc_paused_restores_the_collector_when_the_body_raises(restore_gc):
    gc.enable()
    with pytest.raises(RuntimeError):
        with gc_paused():
            raise RuntimeError("boom")
    assert gc.isenabled()
