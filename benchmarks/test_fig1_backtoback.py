"""Bench target for Figure 1 / Section 3.2: back-to-back feasibility."""

from conftest import run_once

from repro.experiments.figures import figure1
from repro.workloads.names import ALL_WORKLOADS


def test_fig1_backtoback(benchmark):
    """Measure the fraction of VP-eligible µops whose previous occurrence
    is within one fetch group, and render the critical-path comparison.

    Paper reference: "as much as 15.3% (3.4% a-mean) fetched instructions
    eligible for VP ... fetched in the previous cycle (8-wide Fetch)".
    """
    fig = run_once(benchmark, figure1, workloads=ALL_WORKLOADS, n_uops=6000)
    # Shape: back-to-back occurrences exist and vary across benchmarks.
    assert fig.series["max"] > 0.01
    assert 0.0 < fig.series["amean"] < 0.5
    # The critical-path verdicts of Fig. 1 itself.
    paths = fig.series["critical_paths"]
    assert paths["LVP"]["back_to_back_safe"]
    assert paths["VTAGE"]["back_to_back_safe"]
    assert not paths["o4-FCM"]["back_to_back_safe"]
