import copy
import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prevest import estimators, uncertainty
from prevest.core import EventHistory, TestCharacteristics
from prevest.estimators import (
    DayEvaluator,
    DegenerateStratumError,
    EstimateSeries,
    DayEstimate,
    Panel,
    ScheduleMatrix,
    WeightTable,
    bias_ratio,
    estimate_schedule_matrix,
    exact_schedule_matrix,
    ht_estimate_w,
    ht_estimated,
    ht_known,
    known_probability_table,
    prevalence_from_w,
    testing_probability_from_matrix,
    tpr,
    tpr_prevalence,
)
from prevest.regimens import RegimenConfig
from prevest.scenarios import estimate_panel_series
from prevest.simulate import ScenarioConfig, HazardModel, ExternalHazard, simulate
from prevest.uncertainty import (
    IntervalSpec,
    _bootstrap_totals,
    _jackknife_totals,
    bca_bootstrap,
)

from test_regimens import regimens

from _oracles import (
    contribution_counts,
    count_matrix_probabilities,
    dense_contribution_scan,
    full_matrix_ratio_terms,
    hstack_features,
    index_bca_bootstrap,
    individual_major_derived,
    individual_major_tables,
    per_day_counts,
    per_day_ht_known,
    per_day_point_evaluation,
    per_offset_probability_table,
    per_stratum_ht_known,
    row_counts,
    testing_process_oracle,
)

PERFECT = TestCharacteristics()
STUDY = TestCharacteristics(0.832, 0.992)
SIMPLE = RegimenConfig.simple_random(1 / 6)


class TestTpr:
    def test_definition(self):
        assert tpr(5, 100) == pytest.approx(0.05)
        assert tpr(0, 100) == 0.0
        assert tpr(100, 100) == 1.0

    def test_untested_day_is_undefined(self):
        assert math.isnan(tpr(0, 0))

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            tpr(5, 3)

    def test_prevalence_adjustment_inverts_test_errors(self):
        # rate = eta * prev + (1 - nu) * (1 - prev) solved for prev
        assert tpr_prevalence(50, 1000, STUDY) == pytest.approx((0.05 - 0.008) / 0.824)
        # the map is unclipped: a rate below the false-positive rate maps below 0
        assert tpr_prevalence(0, 1000, STUDY) == pytest.approx(-0.008 / 0.824)

    def test_untested_day_is_the_nan_object(self):
        """Untested days return ``math.nan`` itself, so tuples holding it compare equal."""
        assert tpr_prevalence(0, 0, STUDY) is math.nan


class TestHtEstimateW:
    def test_perfect_census_counts_negatives(self):
        tested = np.ones(10, bool)
        positive = np.zeros(10, bool)
        positive[:2] = True
        assert ht_estimate_w(tested, positive, np.ones(10), PERFECT) == pytest.approx(8.0)

    def test_imperfect_census_arithmetic(self):
        tested = np.ones(1000, bool)
        positive = np.zeros(1000, bool)
        positive[:50] = True
        w_hat = ht_estimate_w(tested, positive, np.ones(1000), STUDY)
        assert w_hat == pytest.approx(950 / 0.824 - 0.168 * 1000 / 0.824)
        assert w_hat == pytest.approx(949.0291, abs=1e-3)

    def test_uninformative_test_rejected(self):
        with pytest.raises(ValueError):
            ht_estimate_w(np.ones(3, bool), np.zeros(3, bool), np.ones(3),
                          TestCharacteristics(0.5, 0.5))

    @pytest.mark.parametrize("tests", [PERFECT, STUDY], ids=["perfect", "imperfect"])
    def test_monte_carlo_unbiased_for_fixed_population(self, tests):
        # fixed membership vector, random testing draws: mean recovers W+
        rng = np.random.default_rng(17)
        n, w_plus, p = 1000, 940, 1 / 6
        well = np.zeros(n, bool)
        well[:w_plus] = True
        reps = 10_000
        est = np.empty(reps)
        for chunk in range(10):
            size = reps // 10
            d = rng.random((size, n)) < p
            pos_prob = np.where(well, 1 - tests.specificity, tests.sensitivity)
            y = d & (rng.random((size, n)) < pos_prob)
            k = (d & ~y).sum(axis=1) - (1 - tests.sensitivity) * d.sum(axis=1)
            est[chunk * size : (chunk + 1) * size] = (1 / p) * k / tests.youden
        se = est.std(ddof=1) / math.sqrt(reps)
        assert abs(est.mean() - w_plus) < 3 * se


class TestPrevalenceFromW:
    def test_direct(self):
        assert prevalence_from_w(8.0, 10) == pytest.approx(0.2)

    def test_clipping(self):
        """The map is unclipped; only the record's ``estimate`` clips."""
        raw = prevalence_from_w(1005.0, 1000)
        assert raw == pytest.approx(-0.005)
        assert DayEstimate(day=1, kind="ht-k", unclipped=raw).estimate == 0.0

    def test_continues_census_example(self):
        assert prevalence_from_w(949.0291262135922, 1000) == pytest.approx(0.05097, abs=5e-5)

    def test_empty_population_is_undefined(self):
        assert math.isnan(prevalence_from_w(1.0, 0))


class TestScheduleMatrices:
    def test_rotation_rows_are_deterministic(self):
        tau, c, t = 4, 2, 9
        m = exact_schedule_matrix(RegimenConfig.rotation_every(tau), c, t)
        for s in range(c, t + 1):
            z = min(s + tau, t + 1)
            row = np.zeros(t + 2)
            row[z] = 1.0
            assert np.array_equal(m.entries[s], row)

    def test_invariants_hold_for_all_builtins(self):
        regimens = [SIMPLE, RegimenConfig.max_gap(10), RegimenConfig.once_per_period(7),
                    RegimenConfig.min_max(10, 5), RegimenConfig.rotation_every(7)]
        for regimen in regimens:
            for t in (3, 8, 12):
                for c in range(t):
                    exact_schedule_matrix(regimen, c, t).validate()

    def test_estimated_matrix_from_panel(self):
        # three individuals, never removed; next tests after day 2 at 3, 4, none
        histories = [
            EventHistory(test_times=(2, 3), test_results=(False, False)),
            EventHistory(test_times=(2, 4), test_results=(False, False)),
            EventHistory(test_times=(2,), test_results=(False,)),
        ]
        panel = Panel.from_histories(histories, horizon=5)
        m = estimate_schedule_matrix(panel, 0, 5)
        m.validate()
        assert np.allclose(m.entries[2], [0, 0, 0, 1 / 3, 1 / 3, 0, 1 / 3])
        # day-1 row has no qualifying negative test: tail indicator
        assert np.allclose(m.entries[1], [0, 0, 0, 0, 0, 0, 1.0])

    def test_empty_stratum_raises(self):
        panel = Panel.from_histories([EventHistory()], horizon=4)
        with pytest.raises(DegenerateStratumError):
            estimate_schedule_matrix(panel, 2, 4)

    def test_validation_rejects_bad_matrices(self):
        m = exact_schedule_matrix(SIMPLE, 0, 5)
        bad = m.entries.copy()
        bad[2, 1] = 0.5  # below the diagonal
        with pytest.raises(ValueError):
            ScheduleMatrix(stratum=0, horizon=5, entries=bad).validate()


class TestTestingProbabilityFromMatrix:
    def test_memoryless_schedule_returns_p_everywhere(self):
        for t in (4, 9, 12):
            for c in range(t):
                m = exact_schedule_matrix(SIMPLE, c, t)
                for nu in (1.0, 0.992):
                    assert testing_probability_from_matrix(m, nu) == pytest.approx(1 / 6)

    def test_rotation_is_degenerate_off_cycle(self):
        m = exact_schedule_matrix(RegimenConfig.rotation_every(7), 0, 7)
        assert testing_probability_from_matrix(m, 1.0) == pytest.approx(1.0)
        m = exact_schedule_matrix(RegimenConfig.rotation_every(7), 0, 9)
        assert testing_probability_from_matrix(m, 1.0) == 0.0

    def test_zero_denominator_raises(self):
        entries = np.zeros((7, 7))  # deliberately invalid: no mass anywhere
        m = ScheduleMatrix(stratum=0, horizon=5, entries=entries)
        with pytest.raises(DegenerateStratumError):
            testing_probability_from_matrix(m, 0.9)

    def test_matches_forward_simulation_with_imperfect_specificity(self):
        nu = 0.992
        m = exact_schedule_matrix(SIMPLE, 0, 10)
        formula = testing_probability_from_matrix(m, nu)
        prob, se, _ = testing_process_oracle(SIMPLE, 0, 10, nu, n_paths=100_000, seed=42)
        assert abs(formula - prob[10]) < 3 * se[10]


@st.composite
def schedule_matrices(draw, max_horizon=9):
    """Valid schedule matrices: random next-test laws on rows c..t, zeros included."""
    t = draw(st.integers(1, max_horizon))
    c = draw(st.integers(0, t - 1))
    entries = np.zeros((t + 2, t + 2))
    entries[:, t + 1] = 1.0
    mass = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    for s in range(c, t + 1):
        row = np.array(draw(st.lists(mass, min_size=t + 1 - s, max_size=t + 1 - s)))
        if row.sum() > 0:
            entries[s] = 0.0
            entries[s, s + 1 :] = row / row.sum()
    matrix = ScheduleMatrix(stratum=c, horizon=t, entries=entries)
    matrix.validate()
    return matrix


class TestMatrixWalkMatchesFullMatrixOracle:
    """The triangular solve against powers of the whole schedule matrix."""

    @settings(max_examples=200)
    @given(matrix=schedule_matrices(), nu=st.sampled_from([1.0, 0.992, 0.9, 0.6]))
    def test_testing_probability(self, matrix, nu):
        num, den = full_matrix_ratio_terms(matrix.entries[None], nu, matrix.stratum,
                                           matrix.horizon)
        want = float(num[0] / den[0])
        assert testing_probability_from_matrix(matrix, nu) == pytest.approx(
            want, rel=1e-12, abs=1e-12)


class TestClosedFormDenominator:
    """:func:`_offset_probabilities` (den = 1 - (1 - nu) sum_{v<m} y_v) against the
    explicit ratio of :func:`_ratio_terms` (den = y_m + sum_{j<m} x_j r_j) of the matrix
    cut at each day ``c + m``: rows with no observed test are the tail indicator."""

    @settings(max_examples=200)
    @given(matrix=schedule_matrices(max_horizon=12), nu=st.sampled_from([1.0, 0.992, 0.6]))
    def test_every_offset_equals_the_explicit_ratio(self, matrix, nu):
        c, t, p = matrix.stratum, matrix.horizon, matrix.entries
        span = t - c + 1
        block = np.swapaxes(p[None, c : t + 1, c : t + 1], 1, 2)  # [b, value, row], values <= t
        got = estimators._offset_probabilities(lambda j: block[:, j, :j], 1, span, nu)
        assert got[0, 0] == 0.0
        for m in range(1, span):
            day = c + m
            cut = np.zeros((day + 2, day + 2))
            cut[:, : day + 1] = p[: day + 2, : day + 1]
            cut[:, day + 1] = p[: day + 2, day + 1 :].sum(axis=1)
            cut[day + 1] = 0.0
            cut[day + 1, day + 1] = 1.0
            num, den = estimators._ratio_terms(cut[None], nu, c, day)
            want = np.where(den > estimators._EPS, num / np.maximum(den, estimators._EPS), 0.0)
            np.testing.assert_allclose(got[:, m], want, rtol=0, atol=1e-14, err_msg=str(m))
        if nu == 1.0:  # den is exactly 1: the ratio is the numerator itself
            _, y = estimators._forward_substitute(lambda j: block[:, j, :j], 1, span, nu)
            np.testing.assert_array_equal(got, y)


BUILTIN_REGIMENS = (
    SIMPLE,
    RegimenConfig.max_gap(10),
    RegimenConfig.once_per_period(7),
    RegimenConfig.min_max(10, 5),
    RegimenConfig.rotation_every(7),
)


def test_exact_zero_and_one_probabilities_are_kept():
    """Where the power walk gives exactly 0 or 1, so does the solve; criterion 04 needs it."""
    n_exact = 0
    for regimen in BUILTIN_REGIMENS:
        for nu in (1.0, 0.992):
            for t in range(1, 13):
                for c in range(t):
                    matrix = exact_schedule_matrix(regimen, c, t)
                    num, den = full_matrix_ratio_terms(matrix.entries[None], nu, c, t)
                    want = float(num[0] / den[0])
                    if want not in (0.0, 1.0):
                        continue
                    try:
                        got = testing_probability_from_matrix(matrix, nu)
                    except DegenerateStratumError:
                        got = 0.0
                    assert got == want, (regimen.kind, nu, c, t, got)
                    n_exact += 1
    assert n_exact == 158


class TestKnownProbabilityTable:
    @settings(max_examples=40)
    @given(regimen=regimens(), horizon=st.integers(1, 16), nu=st.floats(0.9, 1.0))
    def test_matches_the_schedule_matrix_formula(self, regimen, horizon, nu):
        """Every (c, t) entry of the one-chain table against the per-(c, t) matrix formula;
        an exact zero (no test possible) stays exact, since positivity checks rely on it."""
        table = known_probability_table(regimen, horizon, nu)
        assert table.shape == (horizon + 1, horizon + 1)
        for t in range(1, horizon + 1):
            for c in range(t):
                want = testing_probability_from_matrix(exact_schedule_matrix(regimen, c, t), nu)
                if want == 0.0:
                    assert table[c, t] == 0.0, (c, t)
                else:
                    assert table[c, t] == pytest.approx(want, rel=1e-12, abs=0), (c, t)


def small_simulation(seed=21, regimen=SIMPLE, n=200, tests=STUDY):
    cfg = ScenarioConfig(
        population_size=n, horizon_days=15, regimen=regimen, tests=tests,
        hazard=HazardModel(external=ExternalHazard(kind="constant", rate=0.05),
                           initial_prevalence=0.1),
        removal_duration_days=4, seed=seed,
    )
    return simulate(cfg)


class TestHtEstimated:
    def test_census_with_perfect_tests_equals_tpr(self):
        sim = small_simulation(regimen=RegimenConfig.simple_random(1.0), tests=PERFECT)
        panel = sim.panel()
        for day in range(1, 16):
            nonrem = ~panel.removed[day]
            n_tests = int((panel.tested[day] & nonrem).sum())
            n_pos = int((panel.positive[day] & nonrem).sum())
            # every stratum weighted: the headcount fallback is a deliberate
            # departure from pure weighting, so it is disabled here
            est, table = ht_estimated(panel, day, PERFECT, min_stratum_size=1)
            assert all(e.weight == pytest.approx(1.0) for e in table.entries.values())
            assert est.estimate == pytest.approx(tpr(n_pos, n_tests)), day

    def test_zero_test_stratum_contributes_headcount(self):
        # 20 untouched individuals, 5 cleared on day 3 with no tests afterwards
        histories = [
            EventHistory(test_times=(2,), test_results=(False,)) for _ in range(10)
        ] + [
            EventHistory(test_times=(5,), test_results=(False,)) for _ in range(10)
        ] + [
            EventHistory(test_times=(1,), test_results=(True,), clearance_times=(3,))
            for _ in range(5)
        ]
        panel = Panel.from_histories(histories, horizon=6)
        est, table = ht_estimated(panel, 5, PERFECT, min_stratum_size=5)
        # stratum 0: 20 members, 10 tested negative at day 5 with weight 1/p
        assert table.entries[3].provenance == "fallback"
        assert est.n_fallback_strata == 1
        w0 = table.entries[0].weight
        w_hat = w0 * 10 + 5
        expected = (25 - w_hat) / 25
        assert est.unclipped == pytest.approx(expected)

    def test_weights_match_public_matrix_path(self):
        sim = small_simulation()
        panel = sim.panel()
        day = 12
        est, table = ht_estimated(panel, day, STUDY, min_stratum_size=5)
        for c, entry in table.entries.items():
            if entry.provenance != "estimated":
                continue
            m = estimate_schedule_matrix(panel, c, day)
            prob = testing_probability_from_matrix(m, STUDY.specificity)
            assert entry.weight == pytest.approx(1.0 / prob), c

    def test_batch_equals_materialised_resample(self):
        sim = small_simulation(seed=33)
        panel = sim.panel()
        day = 10
        rng = np.random.default_rng(7)
        idx = rng.integers(0, panel.n_individuals, panel.n_individuals)
        ev = DayEvaluator(panel, day, STUDY, min_stratum_size=5)
        counts = np.bincount(idx, minlength=panel.n_individuals)[None, :].astype(float)
        via_batch = float(ev.batch(counts @ ev.features)[0])
        resampled = Panel(
            horizon=panel.horizon,
            tested=panel.tested[:, idx],
            positive=panel.positive[:, idx],
            removed=panel.removed[:, idx],
            cleared=panel.cleared[:, idx],
            last_clear=panel.last_clear[:, idx],
            next_test=panel.next_test[:, idx],
            assumed_well=panel.assumed_well[:, idx],
        )
        direct, _ = ht_estimated(resampled, day, STUDY, min_stratum_size=5)
        assert via_batch == pytest.approx(direct.unclipped, abs=1e-12)

    def test_identity_multiplicity_equals_point(self):
        sim = small_simulation(seed=5)
        panel = sim.panel()
        ev = DayEvaluator(panel, 8, STUDY)
        point = float(ev.estimate().unclipped[0])
        n = panel.n_individuals
        rows = np.bincount(np.arange(n), minlength=n)[None, :].astype(float)
        ident = float(ev.batch(rows @ ev.features)[0])
        assert point == pytest.approx(ident, abs=1e-14)


@st.composite
def panels_and_days(draw, max_n=12, max_horizon=8):
    """A small policy-consistent panel and a day to estimate.

    Each cell is untested, negative or positive; a positive removes the
    individual for ``isolation`` days, the last of which is its clearance day,
    and no test lands inside the removal.
    """
    n = draw(st.integers(1, max_n))
    horizon = draw(st.integers(2, max_horizon))
    isolation = draw(st.integers(1, 3))
    cells = draw(st.lists(st.text(" NP", min_size=horizon, max_size=horizon),
                          min_size=n, max_size=n))
    tested, positive, removed, cleared = (np.zeros((horizon + 1, n), bool) for _ in range(4))
    for i, row in enumerate(cells):
        t = 1
        while t <= horizon:
            tested[t, i] = row[t - 1] != " "
            if row[t - 1] == "P":
                positive[t, i] = True
                end = t + isolation
                removed[t + 1 : end + 1, i] = True
                if end <= horizon:
                    cleared[end, i] = True
                t = end
            t += 1
    day = draw(st.integers(1, horizon))
    return Panel._derived(horizon, tested, positive, removed, cleared), day


@pytest.mark.slow
class TestDayEvaluatorMatchesReference:
    """The vectorised evaluator pinned to the per-(stratum, row) and matrix paths."""

    @staticmethod
    def observed_counts(ev):
        codes, _, _, starts = ev._code_space
        return dict(zip(codes.tolist(), np.diff(starts).tolist()))

    def test_contribution_counts_on_simulation(self):
        panel = small_simulation(seed=13).panel()
        for day in range(1, panel.horizon + 1):
            ev = DayEvaluator(panel, day, STUDY)
            assert self.observed_counts(ev) == contribution_counts(panel, day, ev.strata), day

    @settings(max_examples=80)
    @given(case=panels_and_days())
    def test_contribution_counts(self, case):
        panel, day = case
        ev = DayEvaluator(panel, day, STUDY)
        assert self.observed_counts(ev) == contribution_counts(panel, day, ev.strata)

    @settings(max_examples=60)
    @given(case=panels_and_days(), min_size=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_shared_index_equals_dense_scan(self, case, min_size, seed):
        panel, _ = case
        n = panel.n_individuals
        rows = np.random.default_rng(seed).poisson(1.0, (6, n)).astype(float)
        rows[0] = 1.0
        for day in range(1, panel.horizon + 1):
            ev = DayEvaluator(panel, day, STUDY, min_stratum_size=min_size)
            ref = copy.copy(ev)
            ref._code_space = dense_contribution_scan(panel, day, ev.strata)
            codes, bounds, individuals, starts = ev._code_space
            for got, want in zip((codes, bounds, starts), ref._code_space[:2] + ref._code_space[3:]):
                np.testing.assert_array_equal(got, want)
            # the dense scan lists each code's individuals ascending
            column = np.repeat(np.arange(codes.size), np.diff(starts))
            np.testing.assert_array_equal(individuals[np.lexsort((individuals, column))],
                                          ref._code_space[2])
            assert_same_evaluation(ev.estimate(), ref.estimate())
            assert_same_evaluation(ev._estimate_totals(rows @ ev.features),
                                   ref._estimate_totals(rows @ ref.features))

    @settings(max_examples=60)
    @given(case=panels_and_days(), specificity=st.sampled_from([1.0, 0.992, 0.6]),
           min_size=st.integers(1, 3))
    def test_point_table_equals_all_ones_row(self, case, specificity, min_size):
        """The point path (table lookup) is bit-equal to the multiplicity path, and the
        table to the matrix formula on every identified (stratum, day)."""
        panel, _ = case
        n = panel.n_individuals
        tests = TestCharacteristics(0.832, specificity)
        probs = panel.point_probabilities(specificity)
        for day in range(1, panel.horizon + 1):
            ev = DayEvaluator(panel, day, tests, min_stratum_size=min_size)
            point = ev.estimate()
            assert_same_evaluation(point, ev._estimate_totals(np.ones((1, n)) @ ev.features))
            np.testing.assert_array_equal(point.members[0],
                                          panel.day_counts.members[day, ev.strata])
            need = point.need[0]
            np.testing.assert_array_equal(point.probs[0][need], probs[ev.strata, day][need])
        for c in range(panel.horizon):
            for day in range(c + 1, panel.horizon + 1):
                try:
                    want = testing_probability_from_matrix(
                        estimate_schedule_matrix(panel, c, day), specificity)
                except DegenerateStratumError:
                    continue  # no stratum, or a denominator at or below _EPS
                assert probs[c, day] == pytest.approx(min(want, 1.0), rel=1e-12, abs=1e-12)

    @settings(max_examples=80)
    @given(case=panels_and_days(), specificity=st.sampled_from([1.0, 0.992, 0.9]))
    def test_weights_match_matrix_formula(self, case, specificity):
        panel, day = case
        tests = TestCharacteristics(0.832, specificity)
        _, table = ht_estimated(panel, day, tests, min_stratum_size=1)
        for c, entry in table.entries.items():
            if entry.provenance == "estimated":
                m = estimate_schedule_matrix(panel, c, day)
                prob = testing_probability_from_matrix(m, specificity)
                assert entry.weight == pytest.approx(max(1.0 / prob, 1.0), rel=1e-9), c

    @settings(max_examples=50)
    @given(case=panels_and_days(), copies=st.integers(1, 4))
    def test_all_ones_multiplicity_equals_point(self, case, copies):
        panel, day = case
        ev = DayEvaluator(panel, day, STUDY, min_stratum_size=2)
        point = ev.estimate()
        batch = ev._estimate_totals(np.ones((copies, panel.n_individuals)) @ ev.features)
        np.testing.assert_allclose(batch.unclipped, np.repeat(point.unclipped, copies),
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(batch.fallback, np.repeat(point.fallback, copies))

    @settings(max_examples=50)
    @given(case=panels_and_days(), data=st.data())
    def test_row_permutation_leaves_estimate_unchanged(self, case, data):
        panel, day = case
        order = np.array(data.draw(st.permutations(range(panel.n_individuals))))
        permuted = Panel._derived(panel.horizon, panel.tested[:, order],
                                  panel.positive[:, order], panel.removed[:, order],
                                  panel.cleared[:, order])
        est, _ = ht_estimated(panel, day, STUDY, min_stratum_size=2)
        est_perm, _ = ht_estimated(permuted, day, STUDY, min_stratum_size=2)
        assert est_perm.unclipped == pytest.approx(est.unclipped, abs=1e-12, nan_ok=True)
        assert (est_perm.n_tests, est_perm.n_positive, est_perm.n_fallback_strata) == (
            est.n_tests, est.n_positive, est.n_fallback_strata)

    @pytest.mark.parametrize("budget", [1, 50_000])
    def test_chunked_solve_equals_one_block(self, monkeypatch, budget):
        """``bca_bootstrap`` hands the resamples to ``batch`` ``chunk_rows`` at a time: one
        resample a call (a 1-byte budget) or a few give the default budget's interval."""
        panel = small_simulation(seed=17).panel()
        spec = IntervalSpec(bootstrap_iterations=60, jackknife_block_size=7)

        def intervals():
            evaluators = [DayEvaluator(panel, day, STUDY, min_stratum_size=2)
                          for day in range(1, panel.horizon + 1)]
            return evaluators, [bca_bootstrap(ev.resampler(), spec, seed=(4, ev.day))
                                for ev in evaluators]

        _, whole = intervals()
        monkeypatch.setattr(estimators, "_SOLVE_BLOCK_BYTES", budget)
        evaluators, chunked = intervals()
        assert evaluators[-1].chunk_rows < spec.bootstrap_iterations  # several calls on day 15
        for got, want in zip(chunked, whole):
            assert_same_interval(got, want)


class TestFeaturesMatchHstackRoute:
    """``DayEvaluator.features``, one CSC constructor over the class order and the code
    arrays, pinned to the class matrix and code matrix joined by ``sparse.hstack``."""

    @settings(max_examples=80)
    @given(case=panels_and_days())
    def test_random_panels(self, case):
        panel, day = case
        ev = DayEvaluator(panel, day, STUDY)
        got, want = ev.features, hstack_features(ev)
        assert got.format == "csc"
        assert got.shape == want.shape and got.dtype == want.dtype
        assert (got != want).nnz == 0


class TestPackedSolveMatchesDenseBlock:
    """``DayEvaluator._stratum_probs`` (one push-form solve of every stratum) pinned to
    :func:`_offset_probabilities` over each stratum's dense block scattered from the same
    counts, and to ``_ratio_terms`` of the whole schedule matrices.  The push adds each
    y_v's terms in ascending row order, the dense solve by einsum, so the two agree to
    rounding (2.2e-16 the largest gap seen), not bit for bit."""

    @staticmethod
    def dense_probs(ev, counts, nu):
        """Per (row, stratum slot) testing probability through the dense transposed block."""
        codes, bounds, _, _ = ev._code_space
        t, width = ev.day, ev.day + 2
        probs = np.zeros((counts.shape[0], len(ev.strata)))
        for j, c in enumerate(ev.strata.tolist()):
            span = t - c + 1
            block = np.zeros((counts.shape[0], span + 1, span))
            for k in range(bounds[j], bounds[j + 1]):
                row, value = divmod(int(codes[k]) - j * width * width, width)
                block[:, value - c, row] = counts[:, k]
            block /= np.maximum(block.sum(axis=1), 1.0)[:, None, :]
            probs[:, j] = estimators._offset_probabilities(
                lambda v: block[:, v, :v], counts.shape[0], span, nu)[:, -1]
        return np.minimum(probs, 1.0)

    @staticmethod
    def random_counts(ev, rows, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 4, (rows, ev._code_space[0].size)).astype(float)
        counts[:, rng.random(counts.shape[1]) < 0.3] = 0.0  # rows the resample leaves unobserved
        return counts

    @settings(max_examples=80)
    @given(case=panels_and_days(max_n=20), nu=st.sampled_from([1.0, 0.992, 0.7, 0.35]),
           rows=st.integers(1, 6), seed=st.integers(0, 2**16))
    def test_random_counts(self, case, nu, rows, seed):
        panel, day = case
        ev = DayEvaluator(panel, day, TestCharacteristics(0.9, nu))
        counts = self.random_counts(ev, rows, seed)
        need = np.ones((rows, len(ev.strata)), dtype=bool)
        need[np.random.default_rng(seed + 1).random(need.shape) < 0.2] = False
        want = np.where(need, self.dense_probs(ev, counts, nu), 0.0)
        np.testing.assert_allclose(ev._stratum_probs(counts.copy(), need), want,
                                   rtol=0, atol=1e-12)

    @settings(max_examples=80)
    @given(case=panels_and_days(max_n=20, max_horizon=10),
           nu=st.sampled_from([1.0, 0.992, 0.9]), rows=st.integers(1, 4),
           seed=st.integers(0, 2**16))
    def test_matches_ratio_terms_of_the_count_matrices(self, case, nu, rows, seed):
        """Every (row, stratum) of random counts against ``_ratio_terms`` of the schedule
        matrices those counts make, a solve that shares no code with the push."""
        panel, day = case
        ev = DayEvaluator(panel, day, TestCharacteristics(0.9, nu))
        counts = self.random_counts(ev, rows, seed)
        need = np.ones((rows, len(ev.strata)), dtype=bool)
        np.testing.assert_allclose(ev._stratum_probs(counts.copy(), need),
                                   count_matrix_probabilities(ev, counts, nu),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("nu", [1.0, 0.992, 0.9])
    def test_long_horizon_panel(self, nu):
        """Day 120 of a simulated n=2000 min-max panel, many strata in one push, both
        routes on resampled counts."""
        panel = long_minmax_panel()
        ev = DayEvaluator(panel, panel.horizon, TestCharacteristics(0.832, nu))
        assert len(ev.strata) >= 20
        rng = np.random.default_rng(11)
        totals = rng.poisson(1.0, (4, panel.n_individuals)).astype(float) @ ev.features
        counts = totals[:, 1 + 4 * len(ev.strata):]
        need = np.ones((4, len(ev.strata)), dtype=bool)
        np.testing.assert_allclose(ev._stratum_probs(counts.copy(), need),
                                   self.dense_probs(ev, counts, nu), rtol=0, atol=1e-12)

    @settings(max_examples=80)
    @given(case=panels_and_days(),
           budget=st.one_of(st.just(estimators._SOLVE_BLOCK_BYTES), st.integers(1, 1 << 14)))
    def test_chunk_rows_fit_the_solve(self, case, budget):
        """Why one push solves a whole ``batch`` call: ``chunk_rows`` rows of its totals,
        normalised code counts with their normalisation temporary (2 floats a code), and y
        with its running sums (2 floats a packed position, one per row of each stratum's
        matrix), fit the budget unless ``chunk_rows`` is 1, and one row more would not."""
        panel, day = case
        ev = DayEvaluator(panel, day, STUDY)
        with mock.patch.object(estimators, "_SOLVE_BLOCK_BYTES", budget):
            rows = ev.chunk_rows
        positions = int(ev._solve.starts[-1])
        assert positions == sum(day - c + 1 for c in ev.strata.tolist())
        row_bytes = 8 * (ev.features.shape[1] + 2 * ev._code_space[0].size + 2 * positions)
        assert rows == 1 or rows * row_bytes <= budget
        assert (rows + 1) * row_bytes > budget

    def test_span_two_stratum(self):
        # day 3 of this panel has a stratum cleared on day 2: a 2 x 2 block Q
        tested = np.zeros((5, 12), bool)
        tested[1] = tested[3, :6] = tested[4, 6:] = True
        positive = np.zeros_like(tested)
        positive[1, :4] = True
        removed = np.zeros_like(tested)
        removed[2, :4] = True
        cleared = np.zeros_like(tested)
        cleared[2, :4] = True
        panel = Panel._derived(4, tested, positive, removed, cleared)
        ev = DayEvaluator(panel, 3, STUDY)
        assert 2 in ev.strata.tolist()
        counts = np.random.default_rng(1).integers(0, 3, (5, ev._code_space[0].size)).astype(float)
        need = np.ones((5, len(ev.strata)), dtype=bool)
        np.testing.assert_allclose(ev._stratum_probs(counts.copy(), need),
                                   self.dense_probs(ev, counts, STUDY.specificity),
                                   rtol=0, atol=1e-12)


def assert_same_evaluation(got, want):
    """Every ``Evaluation`` field bit-equal, NaN matching NaN."""
    for name in ("unclipped", "fallback", "members", "need", "probs"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def assert_same_interval(got, want):
    """Every ``BcaInterval`` field equal, NaN matching NaN."""
    for name in ("lo", "hi", "point", "degenerate", "bias_correction", "acceleration",
                 "quantile_levels", "n_undefined"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


class TestCountSpaceBootstrapMatchesIndexRoute:
    """``bca_bootstrap`` on multiplicity rows pinned to the index-set route."""

    @settings(max_examples=60)
    @given(case=panels_and_days(max_n=25), data=st.data())
    def test_random_panels(self, case, data):
        panel, day = case
        n = panel.n_individuals
        spec = IntervalSpec(bootstrap_iterations=data.draw(st.integers(2, 40)),
                            jackknife_block_size=data.draw(st.integers(1, n + 1)))
        seed = data.draw(st.integers(0, 2**16))
        ev = DayEvaluator(panel, day, STUDY, min_stratum_size=data.draw(st.integers(1, 3)))
        assert_same_interval(bca_bootstrap(ev.resampler(), spec, seed),
                             index_bca_bootstrap(ev, n, spec, seed, clip=None))

    @pytest.mark.parametrize("spec", [
        IntervalSpec(bootstrap_iterations=99, jackknife_block_size=7),  # 200 = 28 x 7 + 4
        IntervalSpec(bootstrap_iterations=99, jackknife_block_size=23),  # 200 = 8 x 23 + 16
    ])
    def test_simulated_panel_with_short_block(self, spec):
        panel = small_simulation(seed=17).panel()
        ev = DayEvaluator(panel, 9, STUDY, min_stratum_size=5)
        point = float(ev.resampler().batch(np.ones((1, panel.n_individuals)) @ ev.features)[0])
        got = bca_bootstrap(ev.resampler(), spec, seed=(3, 9), point=point)
        want = index_bca_bootstrap(ev, panel.n_individuals, spec, seed=(3, 9), point=point,
                                   clip=None)
        assert not got.degenerate and got.acceleration != 0.0
        assert_same_interval(got, want)


class TestResampleTotalsMatchDenseRoute:
    """The chunked bootstrap totals and the keyed jackknife totals pinned to the dense
    float64 multiplicity rows they replace: a ``bincount`` per row of the draw, and ones
    with zeros on each left-out block, each times the features."""

    FEATURES = ("float32 sparse", "float64 sparse", "float64 dense", "normal dense")

    @staticmethod
    def features(panel, day, kind):
        """The features of one kind: a ``DayEvaluator``'s own float32 0/1 matrix, the same
        0/1 columns in float64 (sparse or an ndarray), or normal columns (an ndarray)."""
        if kind == "normal dense":
            m = 1 + day % 4
            return np.random.default_rng(day).normal(0.0, 3.0, (panel.n_individuals, m))
        features = DayEvaluator(panel, day, STUDY).features
        assert features.dtype == np.float32
        if kind == "float64 sparse":
            return features.astype(np.float64)
        return features.toarray().astype(np.float64) if kind == "float64 dense" else features

    @staticmethod
    def check(got, rows, features, exact):
        """``got`` against the float64 product of the dense rows: bit-equal for 0/1
        features, whose totals are integers exact in any order, else to 1e-12 a unit."""
        want = rows @ features.astype(np.float64)
        assert got.dtype == np.float64 and got.shape == want.shape
        if exact:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, rows.shape[1]))

    @staticmethod
    def dense_rows(n, draws, blocks):
        """The bootstrap's multiplicity rows and the jackknife's keep rows."""
        counts = np.array([np.bincount(row, minlength=n) for row in draws], dtype=float)
        keep = np.ones((len(blocks), n))
        for row, block in enumerate(blocks):
            keep[row, block] = 0.0
        return counts, keep

    @settings(max_examples=150)
    @given(case=panels_and_days(max_n=30), data=st.data())
    def test_random_panels_and_dense_features(self, case, data):
        panel, day = case
        kind = data.draw(st.sampled_from(self.FEATURES), label="features")
        features = self.features(panel, day, kind)
        n = features.shape[0]
        b_iter = data.draw(st.integers(1, 40), label="resamples")
        # 1 byte gives one row a chunk; the top of the range one chunk for every row
        budget = data.draw(st.one_of(st.just(1), st.integers(1, 8 * n * (b_iter + 1))),
                           label="byte budget")
        size = data.draw(st.integers(1, n + 1), label="block size")
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        draws = rng.integers(0, n, size=(b_iter, n))
        order = rng.permutation(n)
        blocks = [order[i : i + size] for i in range(0, n, size)]
        step = data.draw(st.integers(1, len(blocks) + 1), label="blocks a chunk")

        with mock.patch.object(uncertainty, "_RESAMPLE_BLOCK_BYTES", budget):
            boot = _bootstrap_totals(features, np.random.default_rng(seed), b_iter)
        column_totals = np.asarray(features.sum(axis=0), dtype=float).ravel()
        counts, keep = self.dense_rows(n, draws, blocks)
        self.check(boot, counts, features, kind != "normal dense")
        # a sparse input of any format is read through its CSC arrays
        copies = [features] if "dense" in kind else [features, features.tocsr(), features.tocoo()]
        for form in copies:
            jack = _jackknife_totals(form, order, size, column_totals, step)
            self.check(np.concatenate(list(jack)), keep, features, kind != "normal dense")

    @pytest.mark.parametrize("kind", FEATURES[:3])
    def test_simulated_panel_at_every_budget_and_step(self, kind):
        """n=200: every byte budget from one row a chunk to all rows in one, and every
        jackknife chunk from one block to all of them, give the float64 route's totals."""
        panel = small_simulation(seed=17).panel()
        features = self.features(panel, 9, kind)
        n, b_iter, size = panel.n_individuals, 99, 7
        rng = np.random.default_rng(5)
        draws = rng.integers(0, n, size=(b_iter, n))
        order = rng.permutation(n)
        counts, keep = self.dense_rows(n, draws, [order[i : i + size] for i in range(0, n, size)])
        for budget in (1, 8 * n * 10, uncertainty._RESAMPLE_BLOCK_BYTES, 8 * n * b_iter):
            with mock.patch.object(uncertainty, "_RESAMPLE_BLOCK_BYTES", budget):
                boot = _bootstrap_totals(features, np.random.default_rng(5), b_iter)
            self.check(boot, counts, features, True)
        column_totals = np.asarray(features.sum(axis=0), dtype=float).ravel()
        for step in (1, 5, len(keep) - 1, len(keep)):
            jack = _jackknife_totals(features, order, size, column_totals, step)
            self.check(np.concatenate(list(jack)), keep, features, True)

    @pytest.mark.parametrize("n_units, dtype", [
        (1, np.float32), (1 << 24, np.float32), ((1 << 24) + 1, np.float64)])
    def test_float32_features_while_every_total_is_exact(self, n_units, dtype):
        """A resample of n draws has integer counts and totals of at most n, and float32
        holds every integer only up to 2^24: 2^24 + 1 rounds to 2^24."""
        assert estimators._count_dtype(n_units) is dtype
        assert (int(np.float32(n_units)) == n_units) == (dtype is np.float32)
        panel = small_simulation(seed=17).panel()
        assert DayEvaluator(panel, 9, STUDY).features.dtype == estimators._count_dtype(
            panel.n_individuals)

    @given(n=st.integers(1, 10**9))
    def test_default_partition_has_at_most_200_blocks(self, n):
        """max(10, ceil(n / 200)): the smallest size of at least 10 that leaves at most 200
        blocks, so size 10 (the earlier fixed default) for every n <= 2000."""
        size = IntervalSpec().block_size(n)
        assert -(-n // size) <= 200
        assert size == 10 or -(-n // (size - 1)) > 200
        assert (size == 10) == (n <= 2000)
        assert IntervalSpec(jackknife_block_size=7).block_size(n) == 7


def adjusted_panel(seed, n, min_max, delay, isolation, exemption, perfect=False):
    """A simulated panel passed through a policy that can delay removals and mark
    members assumed well after a clearance."""
    from prevest.dataio import AdjustmentPolicy, apply_adjustments, matrix_from_simulation

    tests = PERFECT if perfect else STUDY
    regimen = RegimenConfig.min_max(6, 3) if min_max else RegimenConfig.simple_random(0.4)
    sim = small_simulation(seed=seed, regimen=regimen, n=n, tests=tests)
    policy = AdjustmentPolicy(
        result_delay_days=delay, isolation_days=isolation,
        post_isolation_exemption_days=exemption, keep_first_test_per_week=False,
        min_daily_tests=0, assumed_sensitivity=tests.sensitivity,
        assumed_specificity=tests.specificity)
    return apply_adjustments(matrix_from_simulation(sim), policy).panel


class TestDayCounts:
    """``Panel.day_counts`` (one pass per panel) against masks over each day's column."""

    @staticmethod
    def check(panel):
        """Compare every day's row with the oracle; return which hard cases occurred."""
        counts = panel.day_counts
        seen = {"assumed": False, "removed": False, "memberless": False}
        for day in range(panel.horizon + 1):
            want = per_day_counts(panel, day)
            for name in ("members", "tested", "negative"):
                got = getattr(counts, name)[day]
                assert got.dtype == want[name].dtype, name
                np.testing.assert_array_equal(got, want[name], err_msg=f"{name}, day {day}")
            for name in ("nonremoved", "assumed", "n_tests", "n_positive"):
                assert int(getattr(counts, name)[day]) == want[name], (name, day)
            if day >= 1:
                seen["assumed"] |= want["assumed"] > 0
                seen["removed"] |= want["nonremoved"] < panel.n_individuals
                seen["memberless"] |= not want["members"].any()
        return seen

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 60), min_max=st.booleans(),
           delay=st.integers(0, 2), isolation=st.integers(1, 4), exemption=st.integers(0, 8))
    def test_matches_per_day_masks(self, seed, n, min_max, delay, isolation, exemption):
        self.check(adjusted_panel(seed, n, min_max, delay, isolation, exemption))

    def test_hard_cases_occur(self):
        """Fixed panels on which assumed-well and removed members and a day with no
        member all occur, so the comparison covers each of them."""
        seen = {}
        for seed, n in ((3, 2), (5, 40), (11, 1), (7, 25)):
            for key, value in self.check(adjusted_panel(seed, n, True, 2, 3, 6)).items():
                seen[key] = seen.get(key, False) or value
        assert seen == {"assumed": True, "removed": True, "memberless": True}

    def test_evaluator_reads_the_table(self):
        """The point path of a day reads its row: the strata present, their members
        and the record's test counts."""
        panel = adjusted_panel(5, 40, True, 2, 3, 6)
        for day in range(1, panel.horizon + 1):
            want = per_day_counts(panel, day)
            ev = DayEvaluator(panel, day, STUDY)
            np.testing.assert_array_equal(ev.strata, np.flatnonzero(want["members"]))
            np.testing.assert_array_equal(ev.estimate().members[0], want["members"][ev.strata])
            record = ev.day_estimate()
            assert (record.n_tests, record.n_positive) == (want["n_tests"], want["n_positive"])


class TestHtKnown:
    def test_zero_test_stratum_contributes_zero(self):
        histories = [
            EventHistory(test_times=(5,), test_results=(False,)) for _ in range(10)
        ] + [
            EventHistory(test_times=(1,), test_results=(True,), clearance_times=(3,))
            for _ in range(5)
        ]
        panel = Panel.from_histories(histories, horizon=6)
        est, variance = ht_known(panel, 5, PERFECT, lambda c, t: 2.0)
        # w_hat = 2 * 10 tested negatives + 0 from the untested stratum
        assert est.unclipped == pytest.approx((15 - 20) / 15)
        assert est.estimate == 0.0
        assert variance == pytest.approx(10 * (1 - 0.5) / 0.25)

    @pytest.mark.parametrize("bad", [0.5, math.inf, math.nan], ids=["half", "inf", "nan"])
    def test_rejects_weight_below_one_or_not_finite(self, bad):
        """One bad stratum among good ones raises, naming that stratum and its weight."""
        panel = small_simulation(seed=8).panel()
        strata = DayEvaluator(panel, 6, STUDY).strata
        assert strata.size >= 2
        target = int(strata[-1])
        calls = []

        def weight_for(c, t):
            calls.append(c)
            return bad if c == target else 6.0

        with pytest.raises(ValueError) as info:
            ht_known(panel, 6, STUDY, weight_for)
        assert str(info.value) == (
            f"weight for stratum {target} must be finite and >= 1, got {float(bad)}")
        assert calls == strata.tolist()
        est, _ = ht_known(panel, 6, STUDY, lambda c, t: 6.0)
        assert est.kind == "ht-k" and not math.isnan(est.unclipped)

    def test_rejects_days_off_the_panel_and_uninformative_tests(self):
        """Day 0, day T + 1 and uninformative tests raise the errors the evaluator's
        construction raised, before any weight is asked for."""
        panel = small_simulation(seed=8).panel()

        def weight_for(c, t):
            raise AssertionError("no weight is needed")

        for day in (0, panel.horizon + 1):
            with pytest.raises(ValueError, match=rf"^day {day} outside 1\.\.{panel.horizon}$"):
                ht_known(panel, day, STUDY, weight_for)
        uninformative = TestCharacteristics(0.5, 0.5)
        with pytest.raises(ValueError) as info:
            ht_known(panel, 6, uninformative, weight_for)
        with pytest.raises(ValueError) as want:
            uninformative.require_informative()
        assert str(info.value) == str(want.value)

    @pytest.mark.parametrize("tests", [PERFECT, STUDY], ids=["perfect", "imperfect"])
    def test_matches_per_stratum_formula(self, tests):
        panel = small_simulation(seed=13, tests=tests).panel()

        def weight_for(c, t):
            return 1.0 + (7 * c + t) % 5 + 0.25 * c

        for day in range(1, panel.horizon + 1):
            est, variance = ht_known(panel, day, tests, weight_for)
            w_hat, want_var = per_stratum_ht_known(panel, day, tests, weight_for)
            nonremoved = int((~panel.removed[day]).sum())
            assert est.unclipped == pytest.approx((nonremoved - w_hat) / nonremoved,
                                                  rel=1e-12, abs=1e-12), day
            assert variance == pytest.approx(want_var, rel=1e-12), day

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 80), perfect=st.booleans(),
           min_max=st.booleans(), exemption=st.integers(0, 8), weight_seed=st.integers(0, 2**16))
    def test_matches_per_stratum_oracle_on_random_panels(self, seed, n, perfect, min_max,
                                                         exemption, weight_seed):
        """Random simulated panels, passed through a policy whose exemption windows mark
        members assumed well, and random weights >= 1 (some exactly 1)."""
        tests = PERFECT if perfect else STUDY
        panel = adjusted_panel(seed, n, min_max, 0, 4, exemption, perfect)
        rng = np.random.default_rng(weight_seed)
        weights = np.where(rng.random((16, 16)) < 0.2, 1.0, rng.uniform(1.0, 30.0, (16, 16)))

        def weight_for(c, t):
            return float(weights[c, t])

        for day in range(1, panel.horizon + 1):
            w_hat, want_var = per_stratum_ht_known(panel, day, tests, weight_for)
            nonremoved = int((~panel.removed[day]).sum())
            est, variance = ht_known(panel, day, tests, weight_for)
            if nonremoved == 0:
                assert math.isnan(est.unclipped), day
            else:
                assert est.unclipped == pytest.approx(
                    (nonremoved - w_hat) / nonremoved, rel=1e-12, abs=1e-12), day
            assert variance == pytest.approx(want_var, rel=1e-12, abs=1e-12), day


def assert_same_bits(got, want, name=""):
    """Same dtype, shape and bytes: exact equality, NaN matching NaN and -0.0 not 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape), name
    assert got.tobytes() == want.tobytes(), (name, got, want)


class TestPanelTermsMatchPerDayRoute:
    """Each day's ``ht-e`` point estimate and ``ht-k`` sums gather the day's row of the
    panel's term tables; pinned bit for bit to the per-day routes in ``tests/_oracles.py``."""

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 80), perfect=st.booleans(),
           min_max=st.booleans(), delay=st.integers(0, 2), exemption=st.integers(0, 8),
           min_size=st.sampled_from([0, 1, 5, 10]), weight_seed=st.integers(0, 2**16))
    def test_random_adjusted_panels(self, seed, n, perfect, min_max, delay, exemption,
                                    min_size, weight_seed):
        tests = PERFECT if perfect else STUDY
        panel = adjusted_panel(seed, n, min_max, delay, 4, exemption, perfect)
        rng = np.random.default_rng(weight_seed)
        weights = np.where(rng.random((16, 16)) < 0.2, 1.0, rng.uniform(1.0, 30.0, (16, 16)))

        def weight_for(c, t):
            return float(weights[c, t])

        for day in range(1, panel.horizon + 1):
            ev = DayEvaluator(panel, day, tests, min_stratum_size=min_size)
            got, want = ev.estimate(), per_day_point_evaluation(ev)
            for name in ("unclipped", "fallback", "members", "need", "probs"):
                assert_same_bits(getattr(got, name), getattr(want, name), (name, day))
            assert_same_bits(ev._last_fallback, want.fallback, day)
            est, variance = ht_known(panel, day, tests, weight_for)
            assert_same_bits((est.unclipped, variance),
                             per_day_ht_known(panel, day, tests, weight_for), day)
            ht_e = ev.day_estimate()
            assert (est.n_tests, est.n_positive) == (ht_e.n_tests, ht_e.n_positive), day


def exact_cast(values, dtype, name=""):
    """``values`` cast to ``dtype``, after checking that the cast keeps every value."""
    values = np.asarray(values)
    cast = values.astype(dtype)
    np.testing.assert_array_equal(cast, values, err_msg=f"{name} does not fit {dtype}")
    return cast


class TestDayMajorLayout:
    """The panel's day-major ``(horizon + 1) x n`` arrays give the tables the individual-major
    arrays gave, bit for bit: the derived arrays are the oracle's transposed, and the
    contribution index keeps its tie order.  The oracle's values are compared after an
    exact cast to the documented dtypes: days in :func:`estimators._day_dtype`, the index's
    keys and individuals in int32."""

    @staticmethod
    def check(panel):
        tested, positive, removed, cleared, assumed_well = (
            getattr(panel, name).T for name in ("tested", "positive", "removed", "cleared",
                                                "assumed_well"))
        day = estimators._day_dtype(panel.horizon)
        assert (panel.last_clear.dtype, panel.next_test.dtype) == (day, day)
        last_clear, next_test = individual_major_derived(panel.horizon, tested, cleared)
        assert_same_bits(panel.last_clear, exact_cast(last_clear.T, day), "last_clear")
        assert_same_bits(panel.next_test, exact_cast(next_test.T, day), "next_test")
        index, counts = individual_major_tables(panel.horizon, tested, positive, removed,
                                                cleared, assumed_well)
        documented = {"key": np.int32, "offset": day, "next_test": day, "individual": np.int32}
        for f in dataclasses.fields(index):
            got = getattr(panel.contribution_index, f.name)
            assert got.dtype == documented[f.name], f.name
            assert_same_bits(got, exact_cast(getattr(index, f.name), documented[f.name], f.name),
                             f.name)
        for f in dataclasses.fields(counts):
            assert_same_bits(getattr(panel.day_counts, f.name), getattr(counts, f.name), f.name)

    @settings(max_examples=100)
    @given(case=panels_and_days(max_n=20, max_horizon=10))
    def test_random_panels(self, case):
        self.check(case[0])

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 60), min_max=st.booleans(),
           delay=st.integers(0, 2), exemption=st.integers(0, 8))
    def test_adjusted_panels(self, seed, n, min_max, delay, exemption):
        """Panels with members assumed well and delayed removals."""
        self.check(adjusted_panel(seed, n, min_max, delay, 3, exemption))

    def test_replicate_panel_shares_the_simulation_arrays(self):
        """A replicate split from a stack is a column view of it, and its panel keeps the
        simulation's event arrays without a copy."""
        cfg = ScenarioConfig(population_size=30, horizon_days=8, regimen=SIMPLE, tests=STUDY,
                             seed=4)
        for sim in simulate(cfg, replicates=range(3)).split():
            panel = sim.panel()
            for name in ("tested", "positive", "removed", "cleared"):
                assert np.shares_memory(getattr(panel, name), getattr(sim, name)), name
                assert getattr(panel, name).shape == (cfg.horizon_days + 1, 30), name


def long_adjusted_data(seed, n, horizon, exemption):
    """A simulated min-max panel of ``horizon`` days, passed through a policy that delays
    removals by a day and marks members assumed well after a clearance: a horizon past 127
    gives strata, keys and next tests past int8."""
    from prevest.dataio import AdjustmentPolicy, apply_adjustments, matrix_from_simulation

    cfg = ScenarioConfig(
        population_size=n, horizon_days=horizon, regimen=RegimenConfig.min_max(6, 3),
        tests=STUDY, hazard=HazardModel(external=ExternalHazard(kind="constant", rate=0.02),
                                        initial_prevalence=0.1),
        removal_duration_days=4, seed=seed)
    policy = AdjustmentPolicy(
        result_delay_days=1, isolation_days=4, post_isolation_exemption_days=exemption,
        keep_first_test_per_week=False, min_daily_tests=0,
        assumed_sensitivity=STUDY.sensitivity, assumed_specificity=STUDY.specificity)
    return apply_adjustments(matrix_from_simulation(simulate(cfg)), policy)


class TestDayDtype:
    """A panel holds its days in :func:`estimators._day_dtype` of its horizon, and the dtype
    moves no count, index value, probability or estimate: the same panel built with int32
    days gives the same values everywhere."""

    def test_int16_up_to_32765_days(self):
        assert np.iinfo(np.int16).max == 32765 + 2
        for horizon, dtype in ((1, np.int16), (125, np.int16), (126, np.int16),
                               (32765, np.int16), (32766, np.int32), (10**6, np.int32)):
            assert estimators._day_dtype(horizon) is dtype, horizon

    @settings(max_examples=12)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 40),
           horizon=st.one_of(st.integers(2, 12), st.integers(126, 200)),
           exemption=st.integers(0, 8))
    def test_outputs_do_not_depend_on_it(self, seed, n, horizon, exemption):
        data = long_adjusted_data(seed, n, horizon, exemption)
        panel = data.panel
        with mock.patch.object(estimators, "_day_dtype", lambda horizon: np.int32):
            wide = Panel._derived(horizon, data.tested, data.positive, data.removed,
                                  data.cleared, data.assumed_well)
        assert wide.last_clear.dtype == np.int32
        for name in ("last_clear", "next_test"):
            np.testing.assert_array_equal(getattr(panel, name), getattr(wide, name), name)
        for f in dataclasses.fields(panel.day_counts):
            assert_same_bits(getattr(panel.day_counts, f.name), getattr(wide.day_counts, f.name),
                             f.name)
        for f in dataclasses.fields(panel.contribution_index):
            np.testing.assert_array_equal(getattr(panel.contribution_index, f.name),
                                          getattr(wide.contribution_index, f.name), f.name)
        assert_same_bits(panel.point_probabilities(STUDY.specificity),
                         wide.point_probabilities(STUDY.specificity), "point table")
        # intervals on a few days, the last among them, read the per-day codes and features
        excluded = np.ones(horizon + 1, dtype=bool)
        excluded[[horizon // 2, horizon - 1, horizon]] = False
        for spec, skip in ((None, data.excluded_days), (IntervalSpec(bootstrap_iterations=19),
                                                        excluded)):
            series = [repr(list(estimate_panel_series(p, STUDY, ("tpr", "ht-e"), spec,
                                                      excluded_days=skip, seed=seed).rows()))
                      for p in (panel, wide)]
            assert series[0] == series[1], spec


class TestProbabilityTableMatchesPerOffsetLoop:
    """``_probability_table`` (dense rows) and ``Panel.point_probabilities`` (the push solve
    of the observed codes) form every day's ratio by the closed-form denominator; pinned to
    the loop that formed each offset's denominator from the explicit tail masses, on
    observed and on regimen rows.  The closed form subtracts from 1, so where den is small
    it keeps fewer digits than the oracle's sum of positive terms; on these panels, the
    small ones and a 120-day one, the two agree to 1e-14 absolute."""

    @settings(max_examples=40)
    @given(case=panels_and_days(), nu=st.sampled_from([1.0, 0.992, 0.6]),
           budget=st.sampled_from([estimators._TABLE_BLOCK_BYTES, 64, 2048]))
    def test_observed_rows(self, case, nu, budget):
        panel, _ = case
        index, horizon = panel.contribution_index, panel.horizon
        strata = np.unique(index.key // (horizon + 1))

        def rows_of(chunk, span):
            return row_counts(index, chunk, span, horizon)

        with mock.patch.object(estimators, "_TABLE_BLOCK_BYTES", budget):
            got = estimators._probability_table(strata, horizon, nu, rows_of)
            want = per_offset_probability_table(strata, horizon, nu, rows_of)
        assert_same_table(got, want)
        assert_same_table(panel.point_probabilities(nu), per_offset_probability_table(
            strata, horizon, nu, rows_of))

    @pytest.mark.parametrize("nu", [1.0, 0.992, 0.9])
    def test_long_horizon_panel(self, nu):
        """A simulated min-max panel at n=2000, T=120, where the longest chains of tests
        shrink den the most (the largest move at nu = 0.9 was 1.0e-15)."""
        panel = long_minmax_panel()
        index, horizon = panel.contribution_index, panel.horizon
        want = per_offset_probability_table(
            np.unique(index.key // (horizon + 1)), horizon, nu,
            lambda chunk, span: row_counts(index, chunk, span, horizon))
        assert_same_table(panel.point_probabilities(nu), want)

    @settings(max_examples=40)
    @given(regimen=regimens(), horizon=st.integers(1, 16), nu=st.floats(0.9, 1.0))
    def test_regimen_rows(self, regimen, horizon, nu):
        got = known_probability_table(regimen, horizon, nu)
        with mock.patch.object(estimators, "_probability_table", per_offset_probability_table):
            want = known_probability_table(regimen, horizon, nu)
        assert_same_table(got, want)


@functools.lru_cache(maxsize=1)
def long_minmax_panel():
    from prevest.scenarios import build_scenario

    return simulate(build_scenario("min-max", population_size=2000, horizon_days=120).config,
                    seed=0).panel()


def assert_same_table(got, want):
    """Probability tables equal to rounding: zero exactly where the oracle's is zero."""
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(got == 0.0, want == 0.0)


class TestBiasRatio:
    def test_equal_shares_unbiased(self):
        prev = {1: 0.1, 2: 0.4, 3: 0.2}
        share = {1: 0.2, 2: 0.5, 3: 0.3}
        assert bias_ratio(prev, share, dict(share)) == pytest.approx(1.0)

    def test_rotation_closed_form(self):
        # linear stratum prevalence, tests concentrated at the oldest stratum
        def ratio(tau, t=100):
            strata = list(range(t - tau, t))
            prev = {z: float(t - z) for z in strata}
            test_share = {z: 1.0 if z == t - tau else 0.0 for z in strata}
            pop_share = {z: 1.0 / tau for z in strata}
            return bias_ratio(prev, test_share, pop_share)

        assert ratio(7) == pytest.approx(2 * 7 / 8, abs=1e-12)
        assert abs(ratio(200, t=300) - 2.0) < 0.01

    def test_support_and_share_validation(self):
        with pytest.raises(ValueError):
            bias_ratio({1: 0.1}, {2: 1.0}, {1: 1.0})
        with pytest.raises(ValueError):
            bias_ratio({1: 0.1}, {1: 0.5}, {1: 1.0})

    def test_zero_denominator_marker(self):
        out = bias_ratio({1: 0.0}, {1: 1.0}, {1: 1.0})
        assert math.isnan(out)


class TestSeriesSerialisation:
    """All three output tables go through ``dataio.write_table``."""

    def test_csv_and_jsonl_round_trip(self, tmp_path):
        import json

        from prevest.dataio import write_table
        from prevest.scenarios import ScenarioRunResult

        series = EstimateSeries([
            DayEstimate(day=1, kind="tpr", unclipped=0.05, lo=0.01, hi=0.09,
                        n_tests=100, n_positive=5),
            DayEstimate(day=2, kind="ht-e", unclipped=math.nan),
        ])
        nan = math.nan
        aggregate = ScenarioRunResult(
            name="min-max",
            truth=np.array([[nan, 0.1], [nan, 0.3]]),
            unclipped={"tpr": np.array([[nan, 0.05], [nan, 0.05]])},
            covered={"tpr": np.full((2, 2), nan)},
        )
        summary = {"day": 1, "mean_well": 193.0, "mean_infectious": 7.0, "mean_removed": 0.0,
                   "mean_tests": 21.0, "mean_positives": 0.0,
                   "mean_prevalence_nonremoved": 0.035}

        csv_path = tmp_path / "series.csv"
        write_table(csv_path, series.rows(), "csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "day,kind,estimate,lo,hi,n_tests,n_pos,n_fallback_strata"
        assert lines[1].startswith("1,tpr,0.05,0.01,0.09,100,5,0")
        assert lines[2].startswith("2,ht-e,nan")
        jsonl_path = tmp_path / "series.jsonl"
        write_table(jsonl_path, series.rows(), "jsonl")
        rows = [json.loads(l) for l in jsonl_path.read_text().splitlines()]
        assert rows[0]["estimate"] == 0.05
        assert rows[1]["estimate"] is None

        write_table(csv_path, aggregate.rows(), "csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "scenario,estimator,day,mean_estimate,mean_truth,bias,rmse,ci_coverage"
        assert lines[1].startswith("min-max,tpr,1,0.05,0.2,-0.15,") and lines[1].endswith(",nan")
        write_table(jsonl_path, aggregate.rows(), "jsonl")
        (row,) = [json.loads(l) for l in jsonl_path.read_text().splitlines()]
        assert row["mean_estimate"] == 0.05 and row["ci_coverage"] is None

        write_table(csv_path, [summary], "csv")
        assert csv_path.read_text().splitlines() == [
            "day,mean_well,mean_infectious,mean_removed,mean_tests,mean_positives,"
            "mean_prevalence_nonremoved",
            "1,193,7,0,21,0,0.035",
        ]
        write_table(jsonl_path, [summary], "jsonl")
        assert json.loads(jsonl_path.read_text()) == summary

    @pytest.mark.parametrize("weight", [0.5, math.nan, math.inf, -math.inf])
    def test_weight_table_rejects_sub_unit_weights(self, weight):
        table = WeightTable(day=1)
        with pytest.raises(ValueError):
            table.add(0, weight, "estimated")


def test_clipping_never_moves_away_from_truth():
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = float(rng.normal(0.3, 0.6))
        truth = float(rng.uniform(0, 1))
        clipped = min(max(x, 0.0), 1.0)
        assert abs(clipped - truth) <= abs(x - truth) + 1e-15
