"""Memory contract: an interval run holds arrays bounded by the byte budgets, not by B x n.

``tracemalloc`` counts numpy's array allocations as well as Python's, so a traced peak
is what the run holds at once, apart from the import footprint and the allocator.
"""

import math
import tracemalloc

import pytest

from prevest import estimators, uncertainty
from prevest.scenarios import build_scenario, estimate_panel_series
from prevest.simulate import simulate
from prevest.uncertainty import IntervalSpec


def traced_peak(panel, tests, spec) -> int:
    """The traced peak of ``estimate_panel_series`` with ``ht-e`` intervals, in bytes."""
    import scipy.sparse  # noqa: F401 -- imported first, so that the trace holds arrays only
    import scipy.special  # noqa: F401

    tracemalloc.start()
    try:
        series = estimate_panel_series(panel, tests, ("tpr", "ht-e"), spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert any(r.kind == "ht-e" and r.lo < r.hi and not math.isnan(r.lo) for r in series.records)
    return peak


@pytest.fixture(scope="module")
def simulated():
    """A min-max panel at n=4000, T=30, and its test characteristics."""
    bundle = build_scenario("min-max", population_size=4000, horizon_days=30)
    return simulate(bundle.config, seed=0).panel(), bundle.config.tests


def test_interval_series_peak_follows_the_solve_budget(simulated):
    """``ht-e`` intervals at n=4000, T=30, B=1599, where one day's B x n multiplicities
    alone would be 49 MiB.  The traced peak (21.3 MiB measured) stays under
    ``_SOLVE_BLOCK_BYTES`` plus a margin of half that budget, for what a chunk holds
    beside its totals and packed block (6.1 MiB measured): the gathered code counts and
    the solve's row-wise arrays, the 1 MiB draw buffers of ``_bootstrap_totals``, and the
    panel's tables."""
    peak = traced_peak(*simulated, IntervalSpec(bootstrap_iterations=1599))
    budget = estimators._SOLVE_BLOCK_BYTES
    assert peak <= budget + budget // 2, f"traced peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("budget", [4 << 20, 8 << 20])
def test_shrunk_budgets_shrink_the_peak(simulated, monkeypatch, budget):
    """The solve budget, with the draw budget at its default ratio of 1/16, shrunk to 4 and
    8 MiB: the peak follows them, under the budget plus half of it plus 4 MiB for the
    panel's tables (8.7 and 13.8 MiB measured, 24.3 MiB at the defaults).  One-unit
    jackknife blocks make n=4000 leave-one-out rows a day, so the jackknife's totals
    (up to 28 MiB a day in one piece) must be counted a chunk of blocks at a time too."""
    monkeypatch.setattr(estimators, "_SOLVE_BLOCK_BYTES", budget)
    monkeypatch.setattr(uncertainty, "_RESAMPLE_BLOCK_BYTES", budget // 16)
    peak = traced_peak(*simulated, IntervalSpec(bootstrap_iterations=399,
                                                jackknife_block_size=1))
    assert peak <= budget + budget // 2 + (4 << 20), f"traced peak {peak / 2**20:.1f} MiB"
