"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Monte Carlo checks use fixed seeds so the suite is deterministic; tolerances
are three Monte Carlo standard errors unless a criterion states a band.
Unbiasedness checks evaluate the unrestricted estimators (the [0, 1]
restriction is a deliberate upward-biasing, error-reducing step).
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from prevest.core import TestCharacteristics, reconstruct_state
from prevest.dataio import (
    AdjustmentPolicy,
    anonymize_shuffle,
    apply_adjustments,
    matrix_from_simulation,
)
from prevest.estimators import (
    DegenerateStratumError,
    _ratio_terms,
    bias_ratio,
    estimate_schedule_matrix,
    exact_schedule_matrix,
    ht_estimated,
    testing_probability_from_matrix,
    tpr_prevalence,
)
from prevest.regimens import RegimenConfig
from prevest.scenarios import build_scenario, run_scenario
from prevest.simulate import ExternalHazard, HazardModel, ScenarioConfig, simulate
from prevest.uncertainty import IntervalSpec, clopper_pearson

from _oracles import fold_states_from_simulation, state_sets, testing_process_oracle

pytestmark = pytest.mark.slow  # the whole suite takes about a minute

BUILTIN_REGIMENS = {
    "simple-random": RegimenConfig.simple_random(1 / 6),
    "max-gap": RegimenConfig.max_gap(10),
    "once-per-period": RegimenConfig.once_per_period(7),
    "min-max": RegimenConfig.min_max(10, 5),
    "rotation": RegimenConfig.rotation_every(7),
}


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_known_weight_estimator_is_unbiased():
    """Daily-random-testing scenario: per-day mean known-weight estimate
    within 3 Monte Carlo SEs of the mean realised prevalence."""
    t0 = time.monotonic()
    result = run_scenario("simple-random", 2000, seed=42, estimators=("ht-k",))
    elapsed = time.monotonic() - t0
    bias = result.bias_unclipped("ht-k")[1:]
    se = result.mc_se_unclipped("ht-k")[1:]
    worst = float(np.max(np.abs(bias / se)))
    ok = bool(np.all(np.abs(bias) <= 3 * se)) and elapsed < 120
    report(1, ok, f"worst per-day |bias| = {worst:.2f} MC SEs over 21 days "
                  f"(2000 replicates, {elapsed:.0f} s)")


def test_criterion_02_tpr_overestimates_under_gap_regimens():
    """After day 10 the test-positive rate runs 1.2x-1.6x the true prevalence."""
    details = []
    ok = True
    for name in ("max-gap", "min-max"):
        t0 = time.monotonic()
        result = run_scenario(name, 1000, seed=8, estimators=("tpr",))
        elapsed = time.monotonic() - t0
        mean_est = np.nanmean(result.unclipped["tpr"][:, 1:], axis=0)
        mean_truth = result.mean_truth()[1:]
        ratios = mean_est[10:21] / mean_truth[10:21]
        pooled = float(np.mean(mean_est[10:21]) / np.mean(mean_truth[10:21]))
        ok = ok and bool(np.all((ratios >= 1.2) & (ratios <= 1.6))) and elapsed < 120
        details.append(f"{name}: ratio {ratios.min():.2f}..{ratios.max():.2f} "
                       f"(pooled {pooled:.2f}, {elapsed:.0f} s)")
    report(2, ok, "; ".join(details))


def test_criterion_03_rotation_bias_ratio_closed_form():
    """Rotation schedules with linearly accruing prevalence: bias 2*tau/(tau+1)."""
    def rotation_ratio(tau, t):
        strata = range(t - tau, t)
        prev = {z: float(t - z) for z in strata}
        test_share = {z: 1.0 if z == t - tau else 0.0 for z in strata}
        pop_share = {z: 1.0 / tau for z in strata}
        return bias_ratio(prev, test_share, pop_share)

    seven = rotation_ratio(7, 100)
    big = rotation_ratio(200, 400)
    ok = abs(seven - 1.75) <= 1e-12 and abs(big - 2.0) < 0.01
    report(3, ok, f"tau=7 gives {seven!r} (target 1.75 exactly); "
                  f"tau=200 gives {big:.4f} (within 0.01 of 2)")


def test_criterion_04_matrix_formula_matches_forward_simulation():
    """Identified testing probabilities equal zero-hazard forward simulation
    within 3 Monte Carlo SEs for every regimen, stratum, day, specificity."""
    t0 = time.monotonic()
    n_checks, failures, worst = 0, [], 0.0
    for name, regimen in BUILTIN_REGIMENS.items():
        for nu in (1.0, 0.992):
            for c in range(0, 12):
                prob, se, _ = testing_process_oracle(
                    regimen, c, 12, nu, n_paths=100_000, seed=(1234, c, int(nu * 1000))
                )
                for t in range(c + 1, 13):
                    matrix = exact_schedule_matrix(regimen, c, t)
                    try:
                        formula = testing_probability_from_matrix(matrix, nu)
                    except DegenerateStratumError:
                        formula = 0.0
                    diff = abs(formula - prob[t])
                    n_checks += 1
                    if se[t] == 0:
                        if diff != 0:
                            failures.append((name, nu, c, t))
                    else:
                        worst = max(worst, diff / se[t])
                        if diff > 3 * se[t]:
                            failures.append((name, nu, c, t))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 300
    report(4, ok, f"{n_checks} (regimen, specificity, stratum, day) checks at 1e5 paths, "
                  f"worst z = {worst:.2f}, {elapsed:.0f} s; failures: {failures[:5]}")


def test_criterion_05_perfect_specificity_denominator_is_one():
    """Under perfect specificity the identification ratio's denominator is 1."""
    worst = 0.0
    n_checked = 0
    for regimen in BUILTIN_REGIMENS.values():
        for t in (5, 9, 12):
            for c in range(t):
                matrix = exact_schedule_matrix(regimen, c, t)
                _, den = _ratio_terms(matrix.entries[None, :, :], 1.0, c, t)
                worst = max(worst, abs(float(den[0]) - 1.0))
                n_checked += 1
    # plug-in matrices from simulated data as well
    bundle = build_scenario("min-max")
    for r in range(3):
        sim = simulate(bundle.config, seed=(900, r))
        panel = sim.panel()
        for t in (8, 14, 21):
            for c in np.unique(panel.last_clear[t]):
                if c >= t:
                    continue
                try:
                    matrix = estimate_schedule_matrix(panel, int(c), t)
                except DegenerateStratumError:
                    continue
                _, den = _ratio_terms(matrix.entries[None, :, :], 1.0, int(c), t)
                worst = max(worst, abs(float(den[0]) - 1.0))
                n_checked += 1
    ok = worst <= 1e-12
    report(5, ok, f"max |denominator - 1| = {worst:.2e} over {n_checked} matrices")


def test_criterion_06_predictive_value_arithmetic():
    """Sensitivity 83.2% / specificity 99.2% at prevalence 5%: PPV 84.6%, NPV 99.1%."""
    tests = TestCharacteristics(0.832, 0.992)
    ppv = tests.positive_predictive_value(0.05)
    npv = tests.negative_predictive_value(0.05)
    ok = round(ppv, 3) == 0.846 and round(npv, 3) == 0.991
    report(6, ok, f"PPV = {ppv:.5f} (target 0.846), NPV = {npv:.5f} (target 0.991)")


def test_criterion_07_interval_calibration_at_reduced_scale():
    """300 replicates, 199 bootstrap iterations: per-day coverage of the
    bootstrap and Wald intervals in [0.90, 0.99]; exact binomial intervals
    at or above nominal for every n <= 50 on a 0.05-step grid."""
    t0 = time.monotonic()
    spec = IntervalSpec(bootstrap_iterations=199, jackknife_block_size=10)
    result = run_scenario("simple-random", 300, seed=2026, interval_spec=spec)
    elapsed = time.monotonic() - t0
    ranges = {}
    ok = True
    for kind in ("ht-k", "ht-e"):
        cov = result.coverage(kind)[1:]
        ranges[kind] = (float(cov.min()), float(cov.max()))
        ok = ok and bool(np.all((cov >= 0.90) & (cov <= 0.99)))

    worst_cp = 1.0
    for n in range(1, 51):
        bounds = [clopper_pearson(x, n, 0.95) for x in range(n + 1)]
        for p in np.arange(0.05, 0.951, 0.05):
            cover = sum(
                stats.binom.pmf(x, n, p)
                for x, (lo, hi) in enumerate(bounds)
                if lo <= p <= hi
            )
            worst_cp = min(worst_cp, float(cover))
    ok = ok and worst_cp >= 0.95 - 1e-9
    report(7, ok, f"per-day coverage ht-k {ranges['ht-k'][0]:.3f}..{ranges['ht-k'][1]:.3f}, "
                  f"ht-e {ranges['ht-e'][0]:.3f}..{ranges['ht-e'][1]:.3f}; "
                  f"exact-binomial min coverage {worst_cp:.4f} (n <= 50); {elapsed:.0f} s")


def test_criterion_08_violating_scenarios_directional_findings():
    """Forced-test scenarios bias the estimated-weight estimator upward;
    cluster-level scheduling leaves it unbiased (per-day, 3 MC SEs) while
    degrading the known-weight Wald coverage below 0.85."""
    details = []
    up_ok = True
    for name in ("symptomatic", "contact-tracing"):
        result = run_scenario(name, 500, seed=11, estimators=("ht-e",))
        per_rep = np.nanmean(result.unclipped["ht-e"][:, 1:] - result.truth[:, 1:], axis=1)
        mean_bias = float(per_rep.mean())
        se = float(per_rep.std(ddof=1) / math.sqrt(result.replicates))
        up_ok = up_ok and mean_bias > 3 * se
        details.append(f"{name}: bias {mean_bias:+.4f} ({mean_bias / se:.0f} SE)")

    clustered = run_scenario("clustered", 500, seed=11, estimators=("ht-e",))
    bias = clustered.bias_unclipped("ht-e")[1:]
    se = clustered.mc_se_unclipped("ht-e")[1:]
    unbiased_ok = bool(np.all(np.abs(bias) <= 3 * se))
    details.append(f"clustered ht-e worst per-day |bias| = {np.max(np.abs(bias / se)):.2f} SE")

    wald = run_scenario("clustered", 500, seed=11, estimators=("ht-k",),
                        interval_spec=IntervalSpec())
    coverage = float(np.nanmean(wald.coverage("ht-k")[1:]))
    degraded_ok = coverage < 0.85
    details.append(f"clustered ht-k Wald coverage {coverage:.3f} (< 0.85)")
    report(8, up_ok and unbiased_ok and degraded_ok, "; ".join(details))


def test_criterion_09_anonymiser_leaves_estimates_unchanged():
    """On 20 random simulated matrices the shuffled data reproduce the
    test-positive-rate and estimated-weight series exactly."""
    regimens = [
        RegimenConfig.simple_random(1 / 5),
        RegimenConfig.min_max(gap=8, min_gap=3),
        RegimenConfig.once_per_period(7),
        RegimenConfig.max_gap(6),
    ]
    rng = np.random.default_rng(77)
    n_equal = 0
    for trial in range(20):
        config = ScenarioConfig(
            population_size=int(rng.integers(25, 50)) * 4,
            horizon_days=int(rng.integers(12, 21)),
            regimen=regimens[trial % len(regimens)],
            tests=TestCharacteristics(0.832, 0.992),
            hazard=HazardModel(
                external=ExternalHazard(kind="constant", rate=float(rng.uniform(0.02, 0.08))),
                within_cluster_rate=0.2,
                initial_prevalence=float(rng.uniform(0.05, 0.15)),
            ),
            cluster_size=4,
            removal_duration_days=int(rng.integers(3, 6)),
        )
        sim = simulate(config, seed=(500, trial))
        matrix = matrix_from_simulation(sim)
        policy = AdjustmentPolicy.for_simulation(config)
        shuffled = anonymize_shuffle(matrix, seed=trial, policy=policy)

        def series(m):
            panel = apply_adjustments(m, policy).panel
            out = []
            for day in range(1, config.horizon_days + 1):
                nonrem = ~panel.removed[day]
                n_tests = int((panel.tested[day] & nonrem).sum())
                n_pos = int((panel.positive[day] & nonrem).sum())
                est, _ = ht_estimated(panel, day, config.tests, min_stratum_size=5)
                out.append((n_tests, n_pos,
                            tpr_prevalence(n_pos, n_tests, config.tests),
                            est.estimate, est.unclipped))
            return out

        n_equal += series(matrix) == series(shuffled)
    ok = n_equal == 20
    report(9, ok, f"{n_equal}/20 shuffled matrices reproduce both series exactly")


def test_criterion_10_event_history_and_set_updates_agree():
    """100 random small simulations: day-by-day set updates, the recorded
    states, and event-history reconstruction coincide exactly."""
    kinds = list(BUILTIN_REGIMENS.values()) + [
        RegimenConfig.clustered(RegimenConfig.min_max(gap=6, min_gap=2))
    ]
    rng = np.random.default_rng(31)
    n_days_checked = 0
    for trial in range(100):
        horizon = int(rng.integers(6, 16))
        undetected = int(rng.integers(2, 7)) if rng.random() < 0.4 else None
        config = ScenarioConfig(
            population_size=int(rng.integers(2, 6)) * 4,
            horizon_days=horizon,
            regimen=kinds[trial % len(kinds)],
            tests=TestCharacteristics(float(rng.uniform(0.5, 1.0)),
                                      float(rng.uniform(0.9, 1.0))),
            hazard=HazardModel(
                external=ExternalHazard(kind="constant", rate=float(rng.uniform(0.0, 0.25))),
                within_cluster_rate=float(rng.uniform(0.0, 0.3)),
                repeat_exposure_multiplier=0.5,
                initial_prevalence=float(rng.uniform(0.0, 0.4)),
            ),
            cluster_size=4,
            removal_duration_days=int(rng.integers(2, 7)),
            undetected_recovery_days=undetected,
            baseline_exposure_window=min(undetected, 4) if undetected else 1,
        )
        sim = simulate(config, seed=(600, trial))
        folded = fold_states_from_simulation(sim)
        histories = sim.histories
        for t in range(1, horizon + 1):
            recon = state_sets(reconstruct_state(histories, t))
            recorded = state_sets(sim.state(t))
            assert recon == folded[t] == recorded, (trial, t)
            n_days_checked += 1
    report(10, True, f"100 simulations, {n_days_checked} day-states identical "
                     "across set updates, recorded states, and reconstruction")
