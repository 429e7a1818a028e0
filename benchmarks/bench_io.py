"""Where benchmark reports land, and the provenance they carry.

Emitters never write the committed ``BENCH_*.json`` reports at all:
every run writes into the scratch directory named by ``REPRO_BENCH_DIR``
(default ``bench_out/`` at the repository root, gitignored).  The
checked-in reports at the repo root change only through the guarded
promote step — ``REPRO_BENCH_PROMOTE=1 repro bench promote`` — which
validates the report's provenance (a real repeat count, a recorded load
average, a machine that was not saturated) before copying atomically.
A casual ``pytest benchmarks/`` can therefore never silently drift a
committed number while the regression gates keep reading the committed
baseline.

Every report carries a ``run`` block (load average, repeat count,
simulation-path mode) so a promoted number can be audited later: a
measurement taken on a loaded machine, or with the fast paths disabled,
is visible as such in the report itself — and it is exactly what the
promote guard in :mod:`repro.bench` checks.
"""

import os
from pathlib import Path

from repro.pipeline.fastsim import kernel_mode

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Scratch directory for benchmark reports (created on demand).
#: Shared with :mod:`repro.bench`, which promotes out of it.
BENCH_DIR_ENV = "REPRO_BENCH_DIR"


def bench_output_path(name: str) -> Path:
    """Resolve where report *name* (e.g. ``BENCH_core.json``) is written.

    Always ``$REPRO_BENCH_DIR/name`` (scratch, gitignored) — promotion
    into the committed baseline is ``repro bench promote``'s job, never
    the emitter's.
    """
    out = Path(os.environ.get(BENCH_DIR_ENV) or REPO_ROOT / "bench_out")
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def simulation_mode() -> str:
    """Which cycle-loop path this process would take for eligible configs."""
    return "kernel-c" if kernel_mode() == "c" else "legacy"


def run_metadata(rounds: int) -> dict:
    """Provenance block embedded in every benchmark report.

    ``promoted`` is stamped ``False`` at emit time;
    :func:`repro.bench.promote` flips it when (and only when) the report
    passes the guard into the committed baseline.
    """
    try:
        load_1m = round(os.getloadavg()[0], 2)
    except (OSError, AttributeError):  # pragma: no cover - no getloadavg
        load_1m = None
    return {
        "rounds": rounds,
        "load_avg_1m": load_1m,
        "cpu_count": os.cpu_count(),
        "simulation_mode": simulation_mode(),
        "promoted": False,
    }
