"""Generated traces and their branch planes are pinned byte for byte.

``tests/fixtures/trace_digests.json`` holds a SHA-256 digest of every
packed column and every :class:`~repro.pipeline.precompute.TracePlane`
array for all 19 catalog workloads and three scenario points at 3 000
µops.  Any change to the
trace builder, the invariant splice or the branch-plane walk (Python or
C) that moves one byte fails here, naming the trace and the column.

A trace is also a prefix: the 3k build of each of those traces, its
branch plane and its VTAGE plane equal the first 3k µops of the 9k build
in every column.

Regenerate the fixture only for a deliberate change of the generated
traces (one that also bumps ``TRACE_GENERATOR_VERSION`` or
``PRECOMPUTE_VERSION``)::

    PYTHONPATH=src python tests/unit/test_trace_digests.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.runner import make_predictor
from repro.isa.trace import COLUMN_SCHEMA
from repro.pipeline.precompute import (build_trace_plane, build_vtage_plane,
                                       vtage_signature)
from repro.workloads.catalog import build_trace
from repro.workloads.names import ALL_WORKLOADS

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "trace_digests.json"
N_UOPS = 3000
PREFIX_OF = 9000
SCENARIOS = ("scenario-c4-e25-l90", "scenario-c0-e100-l0",
             "scenario-c16-e50-l50")
NAMES = ALL_WORKLOADS + SCENARIOS
PLANE_ARRAYS = ("redirect", "ghist64", "path16", "scr_pkey")


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _trace(name: str, n_uops: int):
    """A fresh build: no LRU entry, no trace store, no persisted plane."""
    return build_trace(name, n_uops, cache=False)


def digests(name: str) -> dict:
    trace = _trace(name, N_UOPS)
    packed = trace.packed()
    plane = build_trace_plane(trace)
    record = {f"packed.{col}": _digest(packed.arrays[col])
              for col, _ in COLUMN_SCHEMA}
    record.update({f"plane.{col}": _digest(getattr(plane, col))
                   for col in PLANE_ARRAYS})
    return record


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_trace(pinned):
    assert sorted(pinned) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_trace_and_plane_match_pinned_digests(pinned, name):
    got = digests(name)
    want = pinned[name]
    assert sorted(got) == sorted(want)
    diverged = [field for field in want if got[field] != want[field]]
    assert not diverged, f"{name}: {diverged} moved"


@pytest.mark.parametrize("name", NAMES)
def test_short_build_is_a_prefix_of_a_long_one(name):
    short, long = _trace(name, N_UOPS), _trace(name, PREFIX_OF)
    a, b = short.packed().arrays, long.packed().arrays
    for col, _ in COLUMN_SCHEMA:
        if col == "src_offsets":
            head = b[col][:N_UOPS + 1]
        elif col == "src_flat":
            head = b[col][:int(b["src_offsets"][N_UOPS])]
        else:
            head = b[col][:N_UOPS]
        assert np.array_equal(a[col], head), f"{name}: packed.{col}"
    plane, whole = build_trace_plane(short), build_trace_plane(long)
    for col in PLANE_ARRAYS:
        assert np.array_equal(getattr(plane, col),
                              getattr(whole, col)[:N_UOPS]), f"{name}: {col}"
    sig = vtage_signature(make_predictor("vtage"))
    vtage = build_vtage_plane(short, sig)
    vtage_whole = build_vtage_plane(long, sig)
    for col in ("idx", "tag"):
        assert np.array_equal(getattr(vtage, col),
                              getattr(vtage_whole, col)[:, :N_UOPS]), \
            f"{name}: vtage.{col}"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({name: digests(name) for name in NAMES},
                                  indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
