"""Memory contract: an interval run holds arrays bounded by the byte budgets, not by B x n.

``tracemalloc`` counts numpy's array allocations as well as Python's, so a traced peak
is what the run holds at once, apart from the import footprint and the allocator.
"""

import math
import tracemalloc

from prevest import estimators
from prevest.scenarios import build_scenario, estimate_panel_series
from prevest.simulate import simulate
from prevest.uncertainty import IntervalSpec


def test_interval_series_peak_follows_the_solve_budget():
    """``ht-e`` intervals at n=4000, T=30, B=1599, where one day's B x n multiplicities
    alone would be 49 MiB.  The traced peak (22.1 MiB measured) stays under
    ``_SOLVE_BLOCK_BYTES`` plus a margin of half that budget, for what a chunk holds
    beside its totals and packed block (6.1 MiB measured): the gathered code counts and
    the solve's row-wise arrays, the 1 MiB draw buffers of ``_bootstrap_totals``, and the
    panel's tables."""
    import scipy.sparse  # noqa: F401 -- imported first, so that the trace holds arrays only
    import scipy.special  # noqa: F401

    bundle = build_scenario("min-max", population_size=4000, horizon_days=30)
    panel = simulate(bundle.config, seed=0).panel()
    spec = IntervalSpec(bootstrap_iterations=1599)
    tracemalloc.start()
    try:
        series = estimate_panel_series(panel, bundle.config.tests, ("tpr", "ht-e"), spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert any(r.kind == "ht-e" and r.lo < r.hi and not math.isnan(r.lo) for r in series.records)
    budget = estimators._SOLVE_BLOCK_BYTES
    assert peak <= budget + budget // 2, f"traced peak {peak / 2**20:.1f} MiB"
