import math
import statistics
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prevest import scenarios
from prevest.core import EventHistory, TestCharacteristics
from prevest.estimators import DayEvaluator, Panel
from prevest.regimens import ConfigError, Overlays, RegimenConfig
from prevest.scenarios import (
    SCENARIO_NAMES,
    STUDY_TESTS,
    KnownWeights,
    ScenarioBundle,
    ScenarioRunResult,
    _nan_aggregate,
    build_scenario,
    estimate_panel_series,
    renewal_fire_probabilities,
    run_scenario,
)
from prevest.simulate import replicate_bytes, seed_prefix, simulate
from prevest.uncertainty import IntervalSpec, bca_bootstrap

from _oracles import testing_process_oracle
from test_estimators import panels_and_days


class TestBundles:
    def test_all_names_build(self):
        for name in SCENARIO_NAMES:
            bundle = build_scenario(name)
            assert bundle.config.population_size == 1000
            assert bundle.config.horizon_days == 21
            assert bundle.config.cluster_size == 4

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            build_scenario("weekly")

    def test_violating_scenarios_use_min_max_base(self):
        for name in ("undetected-recoveries", "time-varying-sensitivity", "symptomatic",
                     "contact-tracing"):
            regimen = build_scenario(name).config.regimen
            assert regimen.kind == "min-max" and regimen.gap == 10 and regimen.min_gap == 5
        clustered = build_scenario("clustered").config.regimen
        assert clustered.kind == "clustered" and clustered.base.kind == "min-max"

    def test_estimation_side_settings(self):
        assert not build_scenario("contact-tracing").ht_known_available
        # derived from the regimen, so a hand-built bundle reports it too
        tracing = replace(RegimenConfig.max_gap(gap=10), overlays=Overlays(contact_tracing=True))
        config = replace(build_scenario("max-gap").config, regimen=tracing)
        assert not ScenarioBundle("hand-built", config, STUDY_TESTS).ht_known_available
        tv = build_scenario("time-varying-sensitivity")
        assert tv.assumed_tests.sensitivity == pytest.approx(0.557)
        assert tv.config.sensitivity_curve is not None
        assert build_scenario("undetected-recoveries").config.undetected_recovery_days == 6

    def test_study_hazard_values(self):
        hz = build_scenario("simple-random").config.hazard
        # parabola endpoints at the base rate, peak at the midpoint
        assert hz.external.rate_at(0) == pytest.approx(1 / 1500)
        assert hz.external.rate_at(10.5) == pytest.approx(1 / 300)
        assert hz.within_cluster_rate == pytest.approx(0.2)
        assert hz.initial_prevalence == pytest.approx(0.02)


class TestKnownWeights:
    def test_simple_random_weight_is_reciprocal_p(self):
        weights = KnownWeights(build_scenario("simple-random"))
        for c, t in ((0, 1), (0, 10), (3, 9), (7, 21)):
            assert weights(c, t) == pytest.approx(6.0)

    def test_minmax_weights_match_forward_simulation(self):
        bundle = build_scenario("min-max")
        weights = KnownWeights(bundle)
        prob, se, _ = testing_process_oracle(
            bundle.config.regimen, 0, 12, bundle.config.tests.specificity,
            n_paths=200_000, seed=3,
        )
        for t in (4, 8, 12):
            formula = 1.0 / weights(0, t)
            assert abs(formula - prob[t]) < 3 * max(se[t], 1e-6), t

    def test_renewal_probabilities_match_cluster_schedule(self):
        bundle = build_scenario("clustered")
        fire = renewal_fire_probabilities(bundle.config.regimen, 21)
        # oracle: the cluster clock is a plain min-max schedule that never
        # resets; with perfect specificity nothing is ever removed
        prob, se, _ = testing_process_oracle(
            bundle.config.regimen.base, 0, 21, 1.0, n_paths=200_000, seed=9,
        )
        for t in range(1, 22):
            assert abs(fire[t] - prob[t]) < 4 * max(se[t], 1e-6), t

    def test_out_of_range_lookup_is_a_clear_error(self):
        for name in ("min-max", "clustered"):
            weights = KnownWeights(build_scenario(name))
            for c, t in ((0, 22), (5, 5), (6, 5), (-1, 3)):
                with pytest.raises(ValueError, match=f"stratum {c} on day {t}"):
                    weights(c, t)

    @settings(max_examples=10)
    @given(tau=st.integers(2, 8), seed=st.integers(0, 2**16))
    def test_rotation_zero_probability_lookup_is_config_error(self, tau, seed):
        """Staggered first tests put some before day tau, where the stratum-0 law has none:
        the table builds, and the first lookup of such a (stratum, day) fails."""
        bundle = build_scenario("min-max", population_size=60)
        bundle = replace(bundle, name="rotation", config=replace(
            bundle.config, regimen=RegimenConfig.rotation_every(tau)))
        weights = KnownWeights(bundle)
        panel = simulate(bundle.config, seed=(seed, 0)).panel()
        with pytest.raises(ConfigError, match="zero testing probability"):
            estimate_panel_series(panel, bundle.assumed_tests, ("tpr", "ht-k"),
                                  known_weights=weights)
        with pytest.raises(ConfigError, match="zero testing probability"):
            run_scenario(bundle, 1, seed=seed, estimators=("tpr", "ht-k"))

    def test_renewal_weight_ignores_stratum(self):
        weights = KnownWeights(build_scenario("clustered"))
        assert weights(0, 9) == weights(5, 9)
        # a hand-built bundle with a clustered regimen gets renewal weights too
        regimen = RegimenConfig.clustered(RegimenConfig.max_gap(gap=10))
        config = replace(build_scenario("max-gap").config, regimen=regimen)
        weights = KnownWeights(ScenarioBundle("hand-built", config, STUDY_TESTS))
        fire = renewal_fire_probabilities(regimen, 21)
        for t in range(1, 22):
            assert {weights(c, t) for c in range(t)} == {1.0 / fire[t]}

    @pytest.mark.parametrize("removal", [1, 2, 3, 4, 5])
    def test_removal_shorter_than_min_gap_is_config_error(self, removal):
        """min-max(10, 5) after a positive test on day 8 - removal and a clearance on 8:
        the clearance row equals the simulator's law exactly when the removal lasts at
        least min_gap - 1 = 4 days, and KnownWeights rejects every shorter removal."""
        from prevest.regimens import next_test_pmf, probability_vector

        bundle = build_scenario("min-max")
        bundle = replace(bundle, config=replace(bundle.config, removal_duration_days=removal))
        regimen, c, horizon = bundle.config.regimen, 8, 14
        law, survival = np.zeros(horizon + 2), 1.0
        for day in range(c + 1, horizon + 1):
            q = probability_vector(regimen, day, np.array([c - removal]), np.array([True]),
                                   np.array([c]))[0]
            law[day], survival = survival * q, survival * (1.0 - q)
        law[horizon + 1] = survival
        consistent = np.array_equal(law, next_test_pmf(regimen, c, horizon)[0])
        assert consistent == (removal >= regimen.min_gap - 1)
        if consistent:
            KnownWeights(bundle)
        else:
            with pytest.raises(ConfigError, match="removal_duration_days.*min_gap"):
                KnownWeights(bundle)


class TestSeriesAssembly:
    def test_series_kinds_and_exclusions(self):
        bundle = build_scenario("simple-random")
        config = replace(bundle.config, population_size=200)
        sim = simulate(config, seed=(1, 0))
        panel = sim.panel()
        excluded = np.zeros(panel.horizon + 1, dtype=bool)
        excluded[3] = True
        series = estimate_panel_series(
            panel, bundle.assumed_tests, estimators=("tpr", "ht-e"),
            excluded_days=excluded, min_stratum_size=5,
        )
        days = {(r.day, r.kind) for r in series.records}
        assert len(days) == 2 * panel.horizon
        excluded_recs = [r for r in series.records if r.day == 3]
        assert all(not r.defined for r in excluded_recs)

    def test_ht_k_requires_weights(self):
        bundle = build_scenario("simple-random")
        sim = simulate(replace(bundle.config, population_size=100), seed=(2, 0))
        with pytest.raises(ValueError, match="known"):
            estimate_panel_series(sim.panel(), bundle.assumed_tests, estimators=("ht-k",))

    def test_int_seed_is_a_one_element_prefix(self):
        bundle = build_scenario("min-max", population_size=200)
        panel = simulate(bundle.config, seed=(3, 0)).panel()
        spec = IntervalSpec(bootstrap_iterations=19)
        by_int, by_tuple = (
            estimate_panel_series(panel, bundle.assumed_tests, ("tpr", "ht-k", "ht-e"), spec,
                                  KnownWeights(bundle), seed=seed)
            for seed in (7, (7,))
        )
        assert len(by_int.records) == len(by_tuple.records) == 3 * panel.horizon
        for a, b in zip(by_int.records, by_tuple.records):
            assert astuple(a) == pytest.approx(astuple(b), abs=0, nan_ok=True)
        assert any(r.kind == "ht-e" and r.lo < r.hi for r in by_int.records)

    @pytest.mark.parametrize("spec", [None, IntervalSpec(bootstrap_iterations=19)],
                             ids=["point", "intervals"])
    def test_numpy_int_seed_is_an_int_prefix(self, spec):
        """A numpy integer seed, which ``ScenarioConfig`` and ``simulate`` accept, is the
        prefix of one its int value gives, for a series and for a stack of replicates."""
        assert seed_prefix(np.int64(7)) == seed_prefix(7) == seed_prefix([7]) == (7,)
        bundle = build_scenario("min-max", population_size=200)
        panel = simulate(bundle.config, seed=(3, 0)).panel()
        by_numpy, by_int = (
            estimate_panel_series(panel, bundle.assumed_tests, ("tpr", "ht-e"), spec, seed=seed)
            for seed in (np.int64(7), 7))
        for a, b in zip(by_numpy.records, by_int.records, strict=True):
            assert astuple(a) == pytest.approx(astuple(b), abs=0, nan_ok=True)
        by_numpy, by_int = (simulate(bundle.config, seed=seed, replicates=range(2))
                            for seed in (np.int64(3), 3))
        np.testing.assert_array_equal(by_numpy.tested, by_int.tested)
        np.testing.assert_array_equal(by_numpy.positive, by_int.positive)

    def test_ht_k_builds_no_evaluator(self, monkeypatch):
        """``ht-k`` reads the panel's tables without a :class:`DayEvaluator`; its records
        are the ones a series that also runs ``ht-e`` gives."""
        bundle = build_scenario("min-max", population_size=200)
        panel = simulate(bundle.config, seed=(5, 0)).panel()
        built = []
        init = DayEvaluator.__init__

        def counted(self, *args, **kwargs):
            built.append(args[1])
            init(self, *args, **kwargs)

        monkeypatch.setattr(DayEvaluator, "__init__", counted)
        spec = IntervalSpec(bootstrap_iterations=19)

        def ht_k(kinds):
            records = estimate_panel_series(panel, bundle.assumed_tests, kinds, spec,
                                            KnownWeights(bundle)).records
            return [r for r in records if r.kind == "ht-k"]

        alone = ht_k(("tpr", "ht-k"))
        assert built == []
        beside = ht_k(("tpr", "ht-k", "ht-e"))
        assert built
        assert len(alone) == panel.horizon and any(r.defined for r in alone)
        for a, b in zip(alone, beside, strict=True):
            assert astuple(a) == pytest.approx(astuple(b), abs=0, nan_ok=True)


    def test_cached_terms_follow_their_key(self):
        """One panel estimated under minimum stratum sizes 5 then 10, and under test
        characteristics that differ in sensitivity or in specificity, gives each time the
        bytes of a freshly derived panel's series."""
        bundle = build_scenario("min-max", population_size=300)
        sim = simulate(bundle.config, seed=(4, 0))
        panel = sim.panel()
        weights = KnownWeights(bundle)

        def series_bytes(target, tests, min_size):
            records = estimate_panel_series(target, tests, ("tpr", "ht-k", "ht-e"),
                                            known_weights=weights,
                                            min_stratum_size=min_size).records
            return (np.array([(r.unclipped, r.lo, r.hi) for r in records]).tobytes(),
                    [(r.day, r.kind, r.n_tests, r.n_positive, r.n_fallback_strata)
                     for r in records])

        seen = []
        for tests in (STUDY_TESTS, TestCharacteristics(0.9, STUDY_TESTS.specificity),
                      TestCharacteristics(0.9, 0.97)):
            for min_size in (5, 10):
                got = series_bytes(panel, tests, min_size)
                assert got == series_bytes(sim.panel(), tests, min_size), (tests, min_size)
                seen.append(got)
        # every key gives its own series, so a key that dropped a part would be caught
        assert all(a != b for i, a in enumerate(seen) for b in seen[i + 1 :])


class TestRunScenario:
    def test_partitioned_replicates_reproduce_single_run(self):
        spec = IntervalSpec(bootstrap_iterations=19)
        bundle = build_scenario("simple-random", population_size=200)
        whole = run_scenario(bundle, 6, seed=5, interval_spec=spec)
        parts = [run_scenario(bundle, 2, seed=5, interval_spec=spec, first_replicate=start)
                 for start in (0, 2, 4)]
        joined = ScenarioRunResult.concat(parts)
        assert joined.replicates == whole.replicates == 6
        assert np.array_equal(joined.truth, whole.truth, equal_nan=True)
        for field in ("estimates", "unclipped", "covered"):
            got, want = getattr(joined, field), getattr(whole, field)
            assert set(got) == set(want) == {"tpr", "ht-k", "ht-e"}
            for kind in want:
                assert np.array_equal(got[kind], want[kind], equal_nan=True), (field, kind)
        assert not np.isnan(whole.covered["ht-e"][:, 1:]).all()

    def test_replicates_score_the_reported_series(self):
        """Each replicate's arrays are the records ``estimate_panel_series`` reports."""
        spec = IntervalSpec(bootstrap_iterations=19)
        bundle = build_scenario("min-max", population_size=200)
        result = run_scenario(bundle, 2, seed=4, interval_spec=spec, first_replicate=3)
        weights = KnownWeights(bundle)
        for r in range(2):
            sim = simulate(bundle.config, seed=(4, 3 + r))
            series = estimate_panel_series(sim.panel(), bundle.assumed_tests,
                                           ("tpr", "ht-k", "ht-e"), spec, weights, seed=(4, 3 + r))
            for rec in series.records:
                assert result.estimates[rec.kind][r, rec.day] == pytest.approx(
                    rec.estimate, abs=0, nan_ok=True)
                assert result.unclipped[rec.kind][r, rec.day] == pytest.approx(
                    rec.unclipped, abs=0, nan_ok=True)
                if rec.defined:
                    truth = result.truth[r, rec.day]
                    assert result.covered[rec.kind][r, rec.day] == float(rec.lo <= truth <= rec.hi)

    @pytest.mark.parametrize("name", ["contact-tracing", "clustered"])
    def test_stack_size_never_changes_a_run(self, monkeypatch, name):
        """Stacks of 1, of 3 (ragged over replicates 2..8) and of all 7 give one result."""
        bundle = build_scenario(name, population_size=120)
        stacks = []

        def counted(config, seed, replicates):
            stacks.append(len(replicates))
            return simulate(config, seed=seed, replicates=replicates)

        monkeypatch.setattr(scenarios, "simulate", counted)
        runs = []
        for size in (1, 3, 7):
            monkeypatch.setattr(scenarios, "_STACK_BYTES", size * replicate_bytes(bundle.config))
            stacks.clear()
            runs.append(run_scenario(bundle, 7, seed=6, first_replicate=2))
            assert stacks == {1: [1] * 7, 3: [3, 3, 1], 7: [7]}[size]
        first = runs[0]
        for run in runs[1:]:
            assert np.array_equal(run.truth, first.truth, equal_nan=True)
            for field in ("estimates", "unclipped", "covered"):
                for kind in first.estimators:
                    assert np.array_equal(getattr(run, field)[kind], getattr(first, field)[kind],
                                          equal_nan=True), (field, kind)

    def test_ht_k_unavailable_for_contact_tracing(self):
        with pytest.raises(ConfigError):
            run_scenario("contact-tracing", 2, estimators=("tpr", "ht-k"))
        result = run_scenario(build_scenario("contact-tracing", population_size=100), 2, seed=1)
        assert set(result.estimators) == {"tpr", "ht-e"}

    def test_intervals_and_aggregates(self):
        spec = IntervalSpec(bootstrap_iterations=49, jackknife_block_size=10)
        result = run_scenario(build_scenario("simple-random", population_size=200), 4, seed=3,
                              interval_spec=spec)
        cov = result.coverage("ht-e")[1:]
        assert np.all((cov[~np.isnan(cov)] >= 0) & (cov[~np.isnan(cov)] <= 1))
        rows = list(result.rows())
        assert {r["estimator"] for r in rows} == {"tpr", "ht-k", "ht-e"}
        assert len(rows) == 3 * 21
        assert np.isfinite(result.mc_se("tpr")[1:]).all()


    def test_mc_se_divides_by_each_days_defined_count(self):
        """Days where some replicates have no estimate: the standard error uses the
        replicates with a value, and is nan where fewer than two have one."""
        nan = math.nan
        unclipped = np.array([[nan, 0.1, 0.2, nan, -0.3],
                              [nan, 0.3, nan, nan, 1.4],
                              [nan, 0.5, 0.6, 0.4, 0.2],
                              [nan, 0.7, nan, nan, 0.9]])
        result = ScenarioRunResult(name="hand-built", truth=np.zeros((4, 5)),
                                   unclipped={"ht-e": unclipped},
                                   covered={"ht-e": np.full((4, 5), nan)})
        for got, values in ((result.mc_se_unclipped("ht-e"), unclipped),
                            (result.mc_se("ht-e"), np.clip(unclipped, 0.0, 1.0))):
            for day in range(5):
                defined = values[:, day][~np.isnan(values[:, day])].tolist()
                if len(defined) < 2:
                    assert math.isnan(got[day]), day
                else:
                    want = statistics.stdev(defined) / math.sqrt(len(defined))
                    assert got[day] == pytest.approx(want, rel=1e-12), day
        assert result.mc_se("ht-e")[4] < result.mc_se_unclipped("ht-e")[4]


@pytest.mark.slow
class TestStudyScale:
    """Aggregate behaviour of the named scenarios at reduced replicate counts."""

    def test_once_per_period_trajectory_shape(self):
        result = run_scenario("once-per-period", 300, seed=4, estimators=("tpr",))
        truth = result.truth
        assert np.nanmean(truth[:, 0]) == pytest.approx(0.02, abs=0.003)
        # the configured hazards overshoot the nominal ~5% peak slightly;
        # the measured value is pinned here and recorded with the build notes
        peak = float(np.nanmax(result.mean_truth()[1:]))
        assert 0.04 <= peak <= 0.08

    def test_simple_random_rmse_identity(self):
        result = run_scenario("simple-random", 300, seed=4, estimators=("tpr", "ht-e"))
        ratio = result.rmse("tpr")[1:] / result.rmse("ht-e")[1:]
        assert np.mean(ratio) == pytest.approx(1.0, abs=0.05)
        assert np.all((ratio > 0.9) & (ratio < 1.1))

    def test_once_per_period_tpr_bias_resets_weekly(self):
        result = run_scenario("once-per-period", 400, seed=4, estimators=("tpr",))
        diff = result.unclipped["tpr"][:, 1:] - result.truth[:, 1:]
        bias = _nan_aggregate(np.nanmean, diff, axis=0)
        se = _nan_aggregate(np.nanstd, diff, axis=0, ddof=1) / np.sqrt(400)
        for day in (1, 8, 15):  # first day of each week: unbiased
            assert abs(bias[day - 1]) <= 3 * se[day - 1], day
        for day in (6, 7, 13, 14, 20, 21):  # late in the week: biased upward
            assert bias[day - 1] > 3 * se[day - 1], day

    def test_ht_e_below_tpr_late_in_week(self):
        tpr_run = run_scenario("once-per-period", 400, seed=4, estimators=("tpr",))
        hte_run = run_scenario("once-per-period", 400, seed=4, estimators=("ht-e",))
        tpr_mean = _nan_aggregate(np.nanmean, tpr_run.unclipped["tpr"], axis=0)
        hte_mean = _nan_aggregate(np.nanmean, hte_run.unclipped["ht-e"], axis=0)
        late_days = [d for d in range(1, 22) if (d - 1) % 7 >= 4]
        frac = np.mean([tpr_mean[d] >= hte_mean[d] for d in late_days])
        assert frac >= 0.7


def _simulated_series_input():
    bundle = build_scenario("simple-random")
    sim = simulate(replace(bundle.config, population_size=200), seed=(9, 0))
    return sim.panel(), bundle.assumed_tests


def _uniform_series_input():
    """30 individuals tested negative on days 1-3: every resample is the same panel, so
    the bootstrap is degenerate at the unclipped ht-e estimate, which is below 0."""
    history = EventHistory(test_times=(1, 2, 3), test_results=(False, False, False))
    return Panel.from_histories([history] * 30, horizon=3), TestCharacteristics(0.832, 0.992)


@pytest.mark.parametrize("make_input", [_simulated_series_input, _uniform_series_input],
                         ids=["simulated", "uniform"])
def test_series_interval_ordering_enforced(make_input):
    panel, tests = make_input()
    series = estimate_panel_series(
        panel, tests,
        interval_spec=IntervalSpec(bootstrap_iterations=49), min_stratum_size=5, seed=1,
    )
    for record in series.records:
        if record.defined and not np.isnan(record.lo):
            assert 0.0 <= record.lo <= record.estimate <= record.hi <= 1.0


def test_resamples_with_nobody_nonremoved_are_dropped():
    """Two people on day 2, one removed after a positive test on day 1: a resample that
    draws only the removed one has no estimate.  It is dropped and counted, and the
    day keeps an interval."""
    panel = Panel.from_histories([EventHistory(test_times=(2,), test_results=(False,)),
                                  EventHistory(test_times=(1,), test_results=(True,))], horizon=2)
    spec = IntervalSpec(bootstrap_iterations=19)
    record = estimate_panel_series(panel, STUDY_TESTS, ("ht-e",), spec, min_stratum_size=1,
                                   seed=0).records[1]
    assert record.defined and 0.0 <= record.lo <= record.estimate <= record.hi <= 1.0, record
    evaluator = DayEvaluator(panel, 2, STUDY_TESTS, min_stratum_size=1)
    interval = bca_bootstrap(evaluator.resampler(), spec, seed=(0, 2))
    assert 0 < interval.n_undefined < spec.bootstrap_iterations
    assert not interval.degenerate and interval.lo <= interval.hi


@pytest.mark.slow
class TestOneClipStep:
    """A record's estimate is its unclipped value clipped to [0, 1], and
    ``estimate_panel_series`` alone clips and widens the interval around it."""

    @settings(max_examples=80)
    @given(case=panels_and_days(max_n=20), weight=st.floats(1.0, 8.0),
           min_size=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_every_kind_clips_once(self, case, weight, min_size, seed):
        panel, _ = case
        series = estimate_panel_series(panel, STUDY_TESTS, ("tpr", "ht-k", "ht-e"),
                                       IntervalSpec(bootstrap_iterations=19),
                                       lambda stratum, day: weight, min_size, seed=seed)
        for record in series.records:
            if not record.defined:
                continue
            assert record.estimate == min(max(record.unclipped, 0.0), 1.0)
            assert 0.0 <= record.lo <= record.estimate <= record.hi <= 1.0, record

    @settings(max_examples=60)
    @given(kinds=st.lists(st.sampled_from(["tpr", "ht-k", "ht-e"]), min_size=1, max_size=3,
                          unique=True),
           replicates=st.integers(1, 4), days=st.integers(1, 6), data=st.data())
    def test_result_fields_derive_from_its_arrays(self, kinds, replicates, days, data):
        values = st.floats(-2.0, 3.0) | st.just(math.nan)

        def array():
            cells = data.draw(st.lists(values, min_size=replicates * days,
                                       max_size=replicates * days))
            return np.array(cells).reshape(replicates, days)

        unclipped = {kind: array() for kind in kinds}
        covered = {kind: np.full((replicates, days), math.nan) for kind in kinds}
        result = ScenarioRunResult(name="min-max", truth=array(), unclipped=unclipped,
                                   covered=covered)
        assert result.replicates == replicates
        assert result.estimators == tuple(kinds)
        assert not result.with_intervals
        for kind in kinds:
            want = [[min(max(x, 0.0), 1.0) for x in row] for row in unclipped[kind].tolist()]
            np.testing.assert_array_equal(result.estimates[kind], want)
        covered[kinds[-1]][0, 0] = 1.0
        assert result.with_intervals
