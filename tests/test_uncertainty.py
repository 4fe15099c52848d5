import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse, stats
from scipy.special import betaincinv, ndtr, ndtri

from prevest.core import ConfigError, TestCharacteristics
from prevest.estimators import DayEvaluator
from prevest.scenarios import build_scenario
from prevest.simulate import simulate
from prevest.uncertainty import (
    IntervalSpec,
    _bootstrap_totals,
    bca_bootstrap,
    clopper_pearson,
    wald_ht_variance,
    wald_prevalence_interval,
)


class TestIntervalSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalSpec(level=1.0)
        with pytest.raises(ValueError):
            IntervalSpec(bootstrap_iterations=0)
        with pytest.raises(ValueError):
            IntervalSpec(jackknife_block_size=0)

    @pytest.mark.parametrize("field,value", [
        ("level", "0.9"), ("bootstrap_iterations", 99.0), ("jackknife_block_size", True),
    ])
    def test_mistyped_field_is_named(self, field, value):
        with pytest.raises(ConfigError, match=field):
            IntervalSpec(**{field: value})


class TestClopperPearson:
    def test_zero_successes_lower_bound(self):
        lo, hi = clopper_pearson(0, 37)
        assert lo == 0.0 and 0 < hi < 1

    def test_all_successes_upper_bound(self):
        lo, hi = clopper_pearson(37, 37)
        assert hi == 1.0 and 0 < lo < 1

    def test_closed_form_at_zero(self):
        _, hi = clopper_pearson(0, 100, 0.95)
        assert hi == pytest.approx(1 - 0.025 ** (1 / 100), abs=1e-10)
        assert hi == pytest.approx(0.0362, abs=5e-5)

    def test_contains_point_estimate(self):
        for x, n in ((3, 17), (9, 11), (1, 400)):
            lo, hi = clopper_pearson(x, n)
            assert lo <= x / n <= hi

    def test_exhaustive_coverage_small_n(self):
        # spot grid here; the full n <= 50 sweep runs in the acceptance suite
        for n in (5, 13, 28):
            for p in np.arange(0.05, 1.0, 0.10):
                cover = 0.0
                for x in range(n + 1):
                    lo, hi = clopper_pearson(x, n)
                    if lo <= p <= hi:
                        cover += stats.binom.pmf(x, n, p)
                assert cover >= 0.95 - 1e-12, (n, p)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            clopper_pearson(1, 0)
        with pytest.raises(ValueError):
            clopper_pearson(5, 3)


class TestSpecialFunctionsMatchScipyStats:
    """The ``scipy.special`` calls equal the ``scipy.stats`` quantiles they replace, bit for bit."""

    PROBS = np.array([0.0, 1e-300, 1e-12, 0.0025, 0.025, 0.3, 0.5, 0.975, 1 - 1e-12, 1.0])
    RNG = np.random.default_rng(20)

    def test_normal_quantile(self):
        q = np.concatenate([self.PROBS, self.RNG.random(5000)])
        np.testing.assert_array_equal(ndtri(q), stats.norm.ppf(q))

    def test_normal_cdf(self):
        z = np.concatenate([[-np.inf, -40.0, -1.96, -1e-9, 0.0, 1e-9, 1.96, 40.0, np.inf],
                            self.RNG.normal(0.0, 3.0, 5000)])
        np.testing.assert_array_equal(ndtr(z), stats.norm.cdf(z))

    def test_beta_quantile(self):
        # Clopper-Pearson tails are alpha / 2 >= 2**-54 away from 0 and 1; far below
        # that (q = 1e-300, a = 2, b = 400) betaincinv returns nan where beta.ppf does not.
        probs = np.where(self.PROBS == 1e-300, 2.0**-54, self.PROBS)
        a, b, q = np.meshgrid([1, 2, 37, 1000], [1, 3, 400], probs)
        np.testing.assert_array_equal(betaincinv(a, b, q), stats.beta.ppf(q, a, b))
        a, b = self.RNG.integers(1, 2000, size=(2, 1000))
        q = self.RNG.random(1000)
        np.testing.assert_array_equal(betaincinv(a, b, q), stats.beta.ppf(q, a, b))

    def test_clopper_pearson_endpoints(self):
        for level in (0.5, 0.95, 1 - 2.0**-53):
            alpha = 1.0 - level
            for n in (1, 2, 17, 400):
                for x in range(0, n + 1, max(1, n // 9)):
                    lo = 0.0 if x == 0 else stats.beta.ppf(alpha / 2, x, n - x + 1)
                    hi = 1.0 if x == n else stats.beta.ppf(1 - alpha / 2, x + 1, n - x)
                    assert clopper_pearson(x, n, level) == (lo, hi), (x, n, level)


class TestWaldVariance:
    def test_census_has_zero_variance(self):
        var = wald_ht_variance(np.ones(40), np.zeros(40), TestCharacteristics())
        assert var == 0.0

    def test_single_negative_individual_contribution(self):
        # eta = nu = 1, testing probability 1/2: (1 - 0)^2 * (1 - .5) / .25 = 2
        var = wald_ht_variance(np.array([2.0]), np.array([0.0]), TestCharacteristics())
        assert var == pytest.approx(2.0)

    def test_positive_contribution_shrinks_with_eta(self):
        tests = TestCharacteristics(0.832, 0.992)
        var_pos = wald_ht_variance(np.array([2.0]), np.array([1.0]), tests)
        var_neg = wald_ht_variance(np.array([2.0]), np.array([0.0]), tests)
        assert var_pos == pytest.approx((0.832 - 1) ** 2 * 2 / 0.824**2)
        assert var_neg > var_pos

    def test_rejects_sub_unit_weights(self):
        with pytest.raises(ValueError):
            wald_ht_variance(np.array([0.5]), np.array([0.0]), TestCharacteristics())

    def test_prevalence_interval_is_the_raw_affine_map(self):
        # estimate 0.1 among 100 non-removed: well count 90 with variance 25
        lo, hi = wald_prevalence_interval(0.1, 25.0, 100, level=0.95)
        z = stats.norm.ppf(0.975)
        assert hi == pytest.approx((100 - 90 + z * 5) / 100)
        assert lo == pytest.approx((100 - 90 - z * 5) / 100)
        lo, hi = wald_prevalence_interval(0.001, 900.0, 100)
        assert lo == pytest.approx((100 - 99.9 - z * 30) / 100) and lo < 0.0
        assert math.isnan(wald_prevalence_interval(math.nan, 1.0, 0)[0])

    @pytest.mark.parametrize("w_hat", [110.0, -20.0])
    def test_interval_outside_unit_range_is_not_inverted(self, w_hat):
        # a well count past either end of 0..100 puts the whole interval outside [0, 1]
        estimate = (100 - w_hat) / 100
        lo, hi = wald_prevalence_interval(estimate, 4.0, 100)
        half = stats.norm.ppf(0.975) * 2.0
        assert lo <= hi
        assert (lo, hi) == pytest.approx((estimate - half / 100, estimate + half / 100))

    @settings(max_examples=200)
    @given(estimate=st.floats(-100.0, 100.0), variance=st.floats(0.0, 1e6),
           nonremoved=st.integers(1, 10_000), level=st.floats(0.01, 0.99))
    def test_lo_never_exceeds_hi(self, estimate, variance, nonremoved, level):
        lo, hi = wald_prevalence_interval(estimate, variance, nonremoved, level)
        assert lo <= hi


class MeanEstimator:
    """Plain resampling statistic over a fixed data vector: a resample's totals are
    its sum of the values and its number of units."""

    chunk_rows = 64  # a bootstrap of more rows streams through several batch calls

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.features = np.column_stack([self.values, np.ones(self.values.size)])

    def batch(self, totals):
        return totals[:, 0] / totals[:, 1]


class ConstantEstimator:
    """The same value for every row of totals.

    A count-space mean of constant data is not exactly constant: ``counts @
    values`` rounds differently from row to row.
    """

    chunk_rows = 64

    def __init__(self, value, n_units):
        self.value = value
        self.features = np.ones((n_units, 1))

    def batch(self, totals):
        return np.full(totals.shape[0], self.value)


class TestBcaBootstrap:
    @pytest.mark.parametrize("b_iter,n_units", [(1, 1), (7, 13), (399, 50), (40, 1000)])
    def test_unit_major_counts_equal_row_major_route(self, b_iter, n_units):
        # over identity features a resample's totals are its multiplicity row
        draws = np.random.default_rng(b_iter).integers(0, n_units, size=(b_iter, n_units))
        counts = _bootstrap_totals(sparse.identity(n_units, format="csc"),
                                   np.random.default_rng(b_iter), b_iter)
        want = np.array([np.bincount(row, minlength=n_units) for row in draws], dtype=float)
        assert counts.shape == want.shape and counts.dtype == want.dtype
        np.testing.assert_array_equal(counts, want)

    @pytest.mark.parametrize("n_units", [1, 2, 1001, 2000])
    @pytest.mark.parametrize("step", [1, 65, 399])  # one row; 6 x 65 and a tail of 9; all
    def test_chunked_draw_equals_one_call(self, n_units, step):
        # bca_bootstrap draws its resamples a chunk at a time: the installed numpy must give
        # the stream of one (399, n) call, or every seeded interval would move
        def stream():
            return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
                entropy=(0, 7), spawn_key=(0,))))

        want = stream().integers(0, n_units, size=(399, n_units))
        chunks, totals = stream(), stream()
        got = [chunks.integers(0, n_units, size=(min(step, 399 - first), n_units))
               for first in range(0, 399, step)]
        np.testing.assert_array_equal(np.concatenate(got), want)
        identity = sparse.identity(n_units, format="csc")
        got = [_bootstrap_totals(identity, totals, min(step, 399 - first))
               for first in range(0, 399, step)]
        want = np.array([np.bincount(row, minlength=n_units) for row in want], dtype=float)
        np.testing.assert_array_equal(np.concatenate(got), want)

    def test_constant_estimator_degenerates_to_point(self):
        spec = IntervalSpec(bootstrap_iterations=99)
        out = bca_bootstrap(ConstantEstimator(0.4, 30), spec, seed=1)
        assert out.degenerate
        assert out.lo == out.hi == pytest.approx(0.4)

    def test_degenerate_interval_keeps_the_raw_value(self):
        spec = IntervalSpec(bootstrap_iterations=99)
        out = bca_bootstrap(ConstantEstimator(-0.01, 30), spec, seed=1)
        assert out.degenerate
        assert out.lo == out.hi == -0.01

    def test_no_defined_resample_gives_a_degenerate_nan_interval(self):
        spec = IntervalSpec(bootstrap_iterations=99)
        out = bca_bootstrap(ConstantEstimator(math.nan, 30), spec, seed=1, point=0.2)
        assert out.degenerate and math.isnan(out.lo) and math.isnan(out.hi)
        assert out.n_undefined == 99

    def test_distribution_below_zero_is_not_inverted(self):
        # every resample mean lies in [-1, -0.5]: the raw interval does too
        values = np.random.default_rng(2).uniform(-1.0, -0.5, size=40)
        out = bca_bootstrap(MeanEstimator(values), IntervalSpec(bootstrap_iterations=99), seed=2)
        assert not out.degenerate
        assert -1.0 <= out.lo <= out.point <= out.hi <= -0.5

    @settings(max_examples=40)
    @given(data=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=30),
           b_iter=st.integers(2, 60), seed=st.integers(0, 2**16))
    def test_lo_never_exceeds_hi(self, data, b_iter, seed):
        values = np.array(data)
        out = bca_bootstrap(MeanEstimator(values),
                            IntervalSpec(bootstrap_iterations=b_iter, jackknife_block_size=3),
                            seed=seed)
        assert out.lo <= out.hi

    def test_rounding_noise_on_constant_data_is_degenerate(self):
        # counts @ values rounds per row, so the thetas spread by ~1e-16
        spec = IntervalSpec(bootstrap_iterations=99)
        out = bca_bootstrap(MeanEstimator(np.full(30, 0.4)), spec, seed=1)
        assert out.degenerate
        assert out.bias_correction == 0.0 and out.acceleration == 0.0
        assert out.lo == out.hi == pytest.approx(0.4)

    def test_reduces_to_percentile_without_correction(self):
        # recompute the bootstrap distribution independently and check that
        # the reported quantile levels map through numpy's linear quantiles
        values = np.concatenate([np.arange(50) % 7, [100.0]]) / 10
        est = MeanEstimator(values)
        spec = IntervalSpec(bootstrap_iterations=199, jackknife_block_size=5)
        out = bca_bootstrap(est, spec, seed=9)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=9, spawn_key=(0,))))
        idx = rng.integers(0, values.size, size=(199, values.size))
        counts = np.array([np.bincount(row, minlength=values.size) for row in idx], dtype=float)
        thetas = est.batch(counts @ est.features)
        lo, hi = np.quantile(thetas, out.quantile_levels)
        assert out.lo == pytest.approx(float(lo))
        assert out.hi == pytest.approx(float(hi))
        # with the corrections zeroed the levels collapse to alpha/2, 1 - alpha/2
        if out.bias_correction == 0.0 and out.acceleration == 0.0:
            assert out.quantile_levels == pytest.approx((0.025, 0.975))

    def test_seeded_reproducibility(self):
        values = np.random.default_rng(3).random(60)
        est = MeanEstimator(values)
        spec = IntervalSpec(bootstrap_iterations=149, jackknife_block_size=10)
        a = bca_bootstrap(est, spec, seed=5)
        b = bca_bootstrap(est, spec, seed=5)
        assert (a.lo, a.hi) == (b.lo, b.hi)
        c = bca_bootstrap(est, spec, seed=6)
        assert (a.lo, a.hi) != (c.lo, c.hi)

    def test_interval_brackets_point_and_clips(self):
        values = np.random.default_rng(8).random(80)
        est = MeanEstimator(values)
        out = bca_bootstrap(est, IntervalSpec(bootstrap_iterations=199), seed=2)
        assert 0.0 <= out.lo <= out.point <= out.hi <= 1.0

    def test_remainder_block(self):
        values = np.random.default_rng(1).random(47)  # 47 = 4 blocks of 10 + short block
        est = MeanEstimator(values)
        out = bca_bootstrap(est, IntervalSpec(bootstrap_iterations=99,
                                              jackknife_block_size=10), seed=4)
        assert out.lo <= out.hi
        assert out.acceleration != 0.0

    def test_coverage_on_normal_mean(self):
        # 300 draws of n=40 normal samples: BCa should cover the true mean ~95%
        rng = np.random.default_rng(12)
        spec = IntervalSpec(bootstrap_iterations=199, jackknife_block_size=5)
        hits = 0
        trials = 300
        for k in range(trials):
            sample = rng.normal(0.5, 0.15, size=40)
            out = bca_bootstrap(MeanEstimator(sample), spec, seed=k)
            hits += out.lo <= 0.5 <= out.hi
        assert 0.90 <= hits / trials <= 0.99

    def test_memory_stays_bounded_at_large_n(self):
        # a keep matrix of the jackknife rows alone would be n x n/10 floats: 305 MiB
        n = 20_000
        est = MeanEstimator(np.random.default_rng(6).random(n))
        spec = IntervalSpec(bootstrap_iterations=19, jackknife_block_size=10)
        tracemalloc.start()
        try:
            out = bca_bootstrap(est, spec, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not out.degenerate and out.acceleration != 0.0
        assert peak < 32 * 2**20, peak / 2**20

    def test_evaluator_resamples_stream_under_one_budget(self):
        # n=4000, T=60, day 60: 4309 total columns, so the 400 jackknife rows alone are
        # 13 MiB of totals; dense, they and the whole draw peaked at 36 MiB above the
        # evaluator's own arrays, and streamed under the solve budget they peak at 23 MiB
        bundle = build_scenario("min-max", population_size=4000, horizon_days=60)
        panel = simulate(bundle.config, seed=0).panel()
        ev = DayEvaluator(panel, 60, bundle.config.tests)
        ev.features  # built once per evaluator, like the panel's own index
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = bca_bootstrap(ev.resampler(), IntervalSpec(bootstrap_iterations=99), seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert not out.degenerate and out.lo < out.hi
        assert peak < 28 * 2**20, peak / 2**20
