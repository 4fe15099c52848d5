"""Memory contract: an interval run holds arrays bounded by the byte budgets, not by B x n.

``tracemalloc`` counts numpy's array allocations as well as Python's, so a traced peak
is what the run holds at once, apart from the import footprint and the allocator.
"""

import math
import tracemalloc
from unittest import mock

import pytest

from prevest import estimators, scenarios, uncertainty
from prevest.scenarios import build_scenario, estimate_panel_series, run_scenario
from prevest.simulate import simulate
from prevest.uncertainty import IntervalSpec


def traced_run(run):
    """``run()``'s result and its traced peak in bytes, from a fresh resample workspace, so
    that the peak counts the workspace's buffers too."""
    import scipy.sparse  # noqa: F401 -- imported first, so that the trace holds arrays only
    import scipy.special  # noqa: F401

    with mock.patch.object(uncertainty, "_workspace", uncertainty.ResampleWorkspace()):
        tracemalloc.start()
        try:
            result = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return result, peak


def traced_peak(panel, tests, spec) -> int:
    """The traced peak of ``estimate_panel_series`` with ``ht-e`` intervals, in bytes."""
    series, peak = traced_run(lambda: estimate_panel_series(panel, tests, ("tpr", "ht-e"), spec))
    assert any(r.kind == "ht-e" and r.lo < r.hi and not math.isnan(r.lo) for r in series.records)
    return peak


@pytest.fixture(scope="module")
def simulated():
    """A min-max panel at n=4000, T=30, and its test characteristics."""
    bundle = build_scenario("min-max", population_size=4000, horizon_days=30)
    return simulate(bundle.config, seed=0).panel(), bundle.config.tests


def test_interval_series_peak_follows_the_solve_budget(simulated):
    """``ht-e`` intervals at n=4000, T=30: at B=1599, where one day's B x n multiplicities
    alone would be 49 MiB, and at B=399 with one-unit jackknife blocks, n=4000
    leave-one-out rows a day.  Each traced peak (18.3 and 18.5 MiB measured) stays under
    ``_SOLVE_BLOCK_BYTES`` plus a margin of half that budget, for what a chunk holds
    beside the rows that ``chunk_rows`` counts (their totals, packed block and gathered
    code counts): the solve's row-wise arrays, the 1 MiB draw buffers of
    ``_bootstrap_totals``, the jackknife's per-nonzero keys, and the panel's tables."""
    budget = estimators._SOLVE_BLOCK_BYTES
    for spec in (IntervalSpec(bootstrap_iterations=1599),
                 IntervalSpec(bootstrap_iterations=399, jackknife_block_size=1)):
        peak = traced_peak(*simulated, spec)
        assert peak <= budget + budget // 2, f"{spec}: traced peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("budget", [4 << 20, 8 << 20])
def test_shrunk_budgets_shrink_the_peak(simulated, monkeypatch, budget):
    """The solve budget, with the draw budget at its default ratio of 1/16, shrunk to 4 and
    8 MiB: the peak follows them, under the budget plus half of it plus 4 MiB for the
    panel's tables (6.3 and 9.9 MiB measured, 18.5 MiB at the defaults).  One-unit
    jackknife blocks make n=4000 leave-one-out rows a day, so the jackknife's totals
    (up to 28 MiB a day in one piece) must be counted a chunk of blocks at a time too."""
    monkeypatch.setattr(estimators, "_SOLVE_BLOCK_BYTES", budget)
    monkeypatch.setattr(uncertainty, "_RESAMPLE_BLOCK_BYTES", budget // 16)
    peak = traced_peak(*simulated, IntervalSpec(bootstrap_iterations=399,
                                                jackknife_block_size=1))
    assert peak <= budget + budget // 2 + (4 << 20), f"traced peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("budget", [1 << 19, scenarios._STACK_BYTES], ids=["512 KiB", "default"])
def test_stacked_scenario_peak_follows_the_stack_budget(monkeypatch, budget):
    """A min-max ``run_scenario`` at n=1000 and 30 replicates, each replicate 0.25 MiB of
    simulation arrays, simulated in stacks of ``_STACK_BYTES``: the traced peak (1.0 and
    1.4 MiB measured at 512 KiB and 1 MiB; 2.8, 5.6 and 10.4 MiB at 2, 4 and 8 MiB) stays
    under the budget plus half of it plus 0.5 MiB for one replicate's panel and tables,
    where 30 replicates in one stack would hold 7.4 MiB."""
    monkeypatch.setattr(scenarios, "_STACK_BYTES", budget)
    bundle = build_scenario("min-max", population_size=1000)
    result, peak = traced_run(lambda: run_scenario(bundle, 30, seed=0))
    assert result.replicates == 30
    assert peak <= budget + budget // 2 + (1 << 19), f"traced peak {peak / 2**20:.2f} MiB"


def test_point_path_peak_follows_the_panel():
    """A min-max panel at n=20000, T=200 (34.5 MiB of its own arrays, int16 days): its count
    pass, contribution index and point table work a block of day rows at a time, so their
    traced peak (16.0 MiB measured, 7.0 of it the index they keep) stays under 0.6 times the
    panel's arrays (20.7 MiB); one bincount of the whole key peaks at 40.8 MiB."""
    bundle = build_scenario("min-max", population_size=20000, horizon_days=200)
    panel = simulate(bundle.config, seed=0).panel()
    own = sum(getattr(panel, name).nbytes for name in (
        "tested", "positive", "removed", "cleared", "assumed_well", "last_clear", "next_test"))
    _, peak = traced_run(lambda: (panel.day_counts, panel.contribution_index,
                                  panel.point_probabilities(bundle.config.tests.specificity)))
    assert peak <= 0.6 * own, f"traced peak {peak / 2**20:.1f} MiB, panel {own / 2**20:.1f} MiB"
