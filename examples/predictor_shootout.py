#!/usr/bin/env python3
"""Scenario: which predictor family wins where (Sections 8.2.3 and 8.3).

Declares the whole comparison as one :class:`~repro.engine.campaign.CampaignSpec`
— six predictor configurations × seven behaviourally distinct workloads,
plus the no-VP baselines — executes it through
:func:`~repro.engine.run_campaign`, and prints the speedup matrix (the
compressed version of Figures 4(b) and 7(a)) straight off the campaign
result's aggregation hooks.

Because the comparison *is* a campaign, the usual campaign machinery
applies for free: ``REPRO_JOBS=4`` runs the grid on a process pool,
and ``REPRO_CACHE_DIR`` writes each result as it lands, so re-runs are
instant and a killed sweep, run again, resumes where it stopped.

Usage::

    python examples/predictor_shootout.py [n_uops]

    # e.g. a bigger slice, parallel, resumable:
    REPRO_JOBS=4 REPRO_CACHE_DIR=runs/shootout \
        python examples/predictor_shootout.py 48000

Expected output: a 7×6 table of speedups over the no-VP baseline, with
2D-Stride leading on wupwise/bzip2, the context-based predictors leading
on gcc/applu, and the VTAGE+2D-Stride hybrid at least matching the best
single scheme everywhere (Section 8.3).
"""

import sys

from repro.engine.campaign import (
    AxisBlock,
    CampaignSpec,
    progress_printer,
    run_campaign,
)
from repro.experiments.campaigns import baseline_block, render_speedup_matrix

WORKLOADS = ("wupwise", "bzip2", "gcc", "applu", "h264ref", "crafty", "namd")
SCHEMES = ("lvp", "2dstride", "fcm", "vtage", "fcm-2dstride", "vtage-2dstride")


def shootout_campaign(n_uops: int, warmup: int) -> CampaignSpec:
    """The whole shootout, declared: scheme × workload, plus baselines."""
    return CampaignSpec.union(
        "predictor-shootout",
        AxisBlock.make(
            {"predictor": list(SCHEMES), "workload": list(WORKLOADS)},
            base={"recovery": "squash", "n_uops": n_uops, "warmup": warmup},
        ),
        baseline_block(WORKLOADS, n_uops, warmup),
        meta={"workloads": WORKLOADS, "n_uops": n_uops, "warmup": warmup},
    )


def main() -> None:
    n_uops = int(sys.argv[1]) if len(sys.argv) > 1 else 24_000
    spec = shootout_campaign(n_uops, warmup=n_uops // 2)

    result = run_campaign(spec, progress=progress_printer(spec.name,
                                                          stream=sys.stdout))
    print()
    print(f"  {result.stats['total']} jobs: "
          f"{result.stats['executed']} executed, "
          f"{result.stats['cache_hits']} from the result cache")
    print()
    print(render_speedup_matrix(
        result, SCHEMES,
        "Speedup over no-VP baseline (FPC, squash at commit)"))
    print()
    print("Expected shapes: 2D-Stride leads on wupwise/bzip2; VTAGE leads on")
    print("gcc/applu; the VTAGE+2D-Stride hybrid is at least as good as the")
    print("best single scheme everywhere (Section 8.3).")


if __name__ == "__main__":
    main()
