"""Every paper claim, evaluated on the bench-size ``reproduce`` campaign:
all 19 workloads at 8k measured + 4k warm-up µops."""

import copy

import pytest

from repro.engine.api import Engine
from repro.engine.cache import ResultCache
from repro.engine.campaign import run_campaign
from repro.engine.executors import PoolExecutor
from repro.experiments import claims
from repro.experiments.campaigns import reproduce_campaign

#: The documented deviations.  Adding one is an edit here, in review.
DEVIATIONS = (
    "applu_favours_fcm", "speedup_magnitudes", "mcf_lbm_parser_headroom_unused",
    "hmmer_gains_more_under_reissue", "fig3_oracle_peak", "fig6_coverage_losses",
    "fig7_hybrid_peak",
)


@pytest.fixture(scope="module")
def series():
    executor = PoolExecutor(2)  # results are executor-independent
    try:
        result = run_campaign(reproduce_campaign(n_uops=8000, warmup=4000),
                              engine=Engine(executor, ResultCache()))
    finally:
        executor.close()
    return claims.figure_series(result)


@pytest.mark.parametrize("claim", claims.CLAIMS, ids=lambda c: c.__name__)
def test_claim(series, claim):
    finding = claim(series)
    assert finding.verdict == "pass", finding


def test_deviations_are_the_documented_set(series):
    assert tuple(d.__name__ for d in claims.DEVIATIONS) == DEVIATIONS
    assert {d(series).verdict for d in claims.DEVIATIONS} == {"deviation"}


def test_reversed_ordering_fails(series):
    """Swap two predictors' results: the claim on their ordering fails,
    and a deviation still reads ``deviation``."""
    swapped = copy.deepcopy(series)
    fig7 = swapped[7]
    fig7["vtage"], fig7["fcm"] = fig7["fcm"], fig7["vtage"]
    fig7["vtage-2dstride"], fig7["fcm-2dstride"] = (
        fig7["fcm-2dstride"], fig7["vtage-2dstride"])
    assert claims.fig7_vtage_hybrid_beats_fcm_hybrid(swapped).verdict == "fail"
    assert claims.sec823_affinities(swapped).verdict == "fail"
    assert {d(swapped).verdict for d in claims.DEVIATIONS} == {"deviation"}
    assert "| fail |" in claims.render(swapped)
