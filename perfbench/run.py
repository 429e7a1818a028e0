"""Run one workload of the repository benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload warm-grid --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` makes the traced run and prints the per-layer metrics,
grouped by the layer they time (``perfbench/layers.json`` says which
end-to-end metric each should move, on which workload).  Names and units
are the ones ``BENCHMARK.json`` declares.

Human-readable lines come first; the last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is non-zero when any result differs from the serial reference,
any request fails, or any trace was generated after set-up.

Everything a run writes stays under ``.bench_build/`` in the checkout:
the trace stores (fresh per set-up, removed at exit), the compiled C
kernel (built once, before the timed set-up) and one file per run with
every sample it took.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_build" / "perfbench"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True,
                        help="warm-grid, hybrid-long or cluster-mixed")
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; derives every job's trace seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def sanitise_environment(run_dir: Path) -> None:
    """Measure the program's defaults, and keep every write in the checkout."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    os.environ.update(
        REPRO_CKERNEL_CACHE=str(WORK / "ckernel"),
        # Shared-memory trace segments would live outside the checkout.
        REPRO_SHM="0",
        TMPDIR=str(tmp),
    )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a "
              "full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}
    layers = json.loads(Path(__file__).with_name("layers.json").read_text())
    mapped = [name for layer in layers["layers"] for name in layer["metrics"]]
    if sorted(mapped) != sorted(m["name"] for m in declared["per_layer"]):
        print("perfbench: layers.json and BENCHMARK.json disagree on the "
              "per-layer metrics", file=sys.stderr)
        return 2

    # A terminated run still unwinds, so its shard processes are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    run_dir = WORK / f"run-{os.getpid()}"
    sanitise_environment(run_dir)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    try:
        import bench
        import bench_io
        from repro.pipeline import ckernel

        if args.workload not in bench.SPECS:
            print(f"perfbench: unknown workload {args.workload!r}; pick "
                  f"from {', '.join(bench.SPECS)}", file=sys.stderr)
            return 2
        ckernel.kernel_available()  # the one-off compile is not set-up time
        run = bench_io.run_metadata(1 if args.trace else bench.SETUPS)
        measure = bench.run_traced if args.trace else bench.run_e2e
        report = measure(args.workload, args.seed, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if set(report.metrics) != set(units):
        print("perfbench: measured metrics disagree with BENCHMARK.json: "
              f"{sorted(set(report.metrics) ^ set(units))}", file=sys.stderr)
        return 2

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("run: " + " ".join(f"{key}={value}" for key, value in run.items()
                             if key != "promoted"))
    for note in report.notes:
        print(note)
    groups = ([(layer["layer"], layer["metrics"]) for layer in layers["layers"]]
              if args.trace else [("end to end", list(units))])
    for title, names in groups:
        print(f"[{title}]")
        for name in names:
            print(f"  {name:<28} {report.metrics[name]:>14.6g} {units[name]}")
    samples = WORK / (f"{args.workload}-seed{args.seed}-"
                      f"trace{args.trace}.json")
    samples.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "run": run,
        "generations": report.generations, "metrics": report.metrics,
        "samples": report.samples,
    }, indent=1) + "\n")
    print(f"samples: {samples.relative_to(ROOT)}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": report.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
