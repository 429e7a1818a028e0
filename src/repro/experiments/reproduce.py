"""Full reproduction driver: regenerate every table and figure.

``python -m repro.experiments.reproduce [n_uops] [warmup] [--jobs N]`` runs
the whole evaluation and writes the paper-vs-reproduction report to stdout
(redirect it to ``EXPERIMENTS.md`` to keep a copy).

The whole evaluation is *one campaign*: the union of every figure grid
(:func:`repro.experiments.campaigns.reproduce_campaign`) executes up
front through :func:`~repro.engine.campaign.run_campaign`, and Figures
3–7 and the findings (:mod:`repro.experiments.claims`) are computed from
that one result; nothing simulates after it.

Every simulation goes through the experiment engine: ``--jobs``/``-j`` (or
``REPRO_JOBS``) fans the campaign out over a process pool, and
``--cache-dir`` (or ``REPRO_CACHE_DIR``) persists each result as it
finishes, so a killed run resumes where it stopped and a
re-run only simulates what changed.  Output is byte-identical regardless
of any of these knobs.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.analysis.cost_model import (
    PAPER_SCENARIOS,
    recovery_benefit_per_kilo_instruction,
    vp_register_file_overheads,
)
from repro.analysis.report import format_table
from repro.engine.api import configure_default_engine
from repro.engine.campaign import (
    BACKENDS,
    engine_for_backend,
    progress_printer,
    run_campaign,
)
from repro.engine.client import ServiceError
from repro.engine.job import DEFAULT_MEASURE, DEFAULT_WARMUP
from repro.experiments import claims, figures, tables
from repro.experiments.campaigns import reproduce_campaign
from repro.workloads.names import ALL_WORKLOADS


def section31_model() -> str:
    """The Section 3.1.1/3.1.2 worked example, recomputed."""
    high_coverage = [
        (s.name, f"{recovery_benefit_per_kilo_instruction(s, 0.40, 0.95):+.0f}")
        for s in PAPER_SCENARIOS
    ]
    high_accuracy = [
        (s.name, f"{recovery_benefit_per_kilo_instruction(s, 0.30, 0.9975):+.0f}")
        for s in PAPER_SCENARIOS
    ]
    lines = [
        format_table(
            ["Recovery", "cycles/Kinsn"],
            high_coverage,
            title="Sec. 3.1.1 model: coverage 40%, accuracy 95% "
                  "(paper: +64 / -86 / -286)",
        ),
        "",
        format_table(
            ["Recovery", "cycles/Kinsn"],
            high_accuracy,
            title="Sec. 3.1.2 model: coverage 30%, accuracy 99.75% "
                  "(paper: +88 / +83 / +76)",
        ),
    ]
    return "\n".join(lines)


def section4_model() -> str:
    """The Section 4 register-file overhead design points."""
    data = vp_register_file_overheads(issue_width=8)
    rows = [
        ("no VP (R=2W)", f"{data['baseline_area_units']:.0f} (12W^2)", "1.00x"),
        ("naive VP (2W write ports)", f"{data['naive_area_units']:.0f} (24W^2)",
         f"{data['naive_vp']:.2f}x"),
        ("buffered VP (W/2 extra ports)",
         f"{data['buffered_area_units']:.0f} (17.5W^2)",
         f"{data['buffered_vp']:.2f}x"),
    ]
    return format_table(
        ["Register file", "area (units)", "vs baseline"],
        rows,
        title="Sec. 4 register file area model, W = 8 "
              "(paper: naive doubles area; W/2 ports save half the overhead)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.reproduce",
        description="Regenerate every table and figure of the reproduction.",
    )
    parser.add_argument("n_uops", nargs="?", type=int, default=DEFAULT_MEASURE)
    parser.add_argument("warmup", nargs="?", type=int, default=DEFAULT_WARMUP)
    parser.add_argument(
        "-j", "--jobs", type=int, default=None,
        help="worker processes for simulation batches "
             "(default: $REPRO_JOBS or 1; output is identical either way)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="persistent result-cache directory, written as each "
             "simulation finishes, so a killed run resumes where it "
             "stopped (default: $REPRO_CACHE_DIR or memory-only)",
    )
    parser.add_argument(
        "--backend", default="local", choices=BACKENDS,
        help="where simulations execute: this process ('local') or "
             "`repro cluster serve` daemons ('cluster': "
             "$REPRO_CLUSTER_SHARDS, else ./repro-service.addr); output "
             "is byte-identical either way",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    n_uops, warmup = args.n_uops, args.warmup
    engine = configure_default_engine(jobs=args.jobs,
                                      cache_dir=args.cache_dir)
    if args.backend != "local":
        # Cluster backend: batches go to the daemons over this process's
        # result cache.
        if args.jobs is not None:
            print("note: --jobs applies to the daemons, not this client; "
                  "it is ignored with --backend cluster", file=sys.stderr)
        try:
            engine = engine_for_backend(args.backend)
        except ServiceError as exc:
            raise SystemExit(f"error: {exc}") from None
    t0 = time.time()

    # Execute the whole evaluation as one campaign; Figures 3-7 below are
    # views of its result.
    spec = reproduce_campaign(n_uops=n_uops, warmup=warmup)
    try:
        campaign = run_campaign(spec, engine=engine,
                                progress=progress_printer(spec.name))
    except ServiceError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(file=sys.stderr)
    print(f"[{spec.name}] {campaign.stats['total']} jobs: "
          f"{campaign.stats['executed']} executed, "
          f"{campaign.stats['cache_hits']} answered by the result cache",
          file=sys.stderr)

    print("# EXPERIMENTS — paper vs. reproduction")
    print()
    print(f"Slice: {warmup} warm-up + {n_uops} measured µops per benchmark "
          f"(paper: 50M + 50M on gem5; see DESIGN.md scaling notes).")
    print(f"<!-- engine: {engine.describe()} -->", file=sys.stderr)
    print()

    print("## Tables")
    print()
    for block in (tables.table1(), tables.table2(), tables.table3()):
        print("```"); print(block); print("```"); print()

    print("## Analytical models (Sections 3.1 and 4)")
    print()
    print("```"); print(section31_model()); print("```"); print()
    print("```"); print(section4_model()); print("```"); print()

    print("## Figures")
    print()
    meta = campaign.spec.meta_dict()
    fig1 = figures.figure1(meta["workloads"], n_uops=meta["n_uops"],
                           warmup=meta["warmup"])
    for fig in (fig1, figures.figure3(campaign),
                figures.figure4(campaign), figures.figure5(campaign),
                figures.figure6(campaign), figures.figure7(campaign)):
        print(f"### {fig.figure_id}: {fig.title}")
        print()
        print("```"); print(fig.text); print("```"); print()
        sys.stdout.flush()

    if tuple(meta["workloads"]) == ALL_WORKLOADS:  # what every claim reads
        print("## Paper vs. measured: findings")
        print()
        print(claims.render(claims.figure_series(campaign)))
        print()
    elapsed = time.time() - t0
    print(f"_Total reproduction wall time: {elapsed/60:.1f} minutes._")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
