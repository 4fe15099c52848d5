import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prevest.estimators import exact_schedule_matrix
from prevest.regimens import (
    ConfigError,
    Overlays,
    RegimenConfig,
    SchedulingContext,
    next_test_pmf,
    probability_vector,
    test_probability,
)

SIMPLE = RegimenConfig.simple_random(1 / 6)
MAXGAP = RegimenConfig.max_gap(gap=10)
MINMAX = RegimenConfig.min_max(gap=10, min_gap=5)
WEEKLY = RegimenConfig.once_per_period(period=7)
ROT7 = RegimenConfig.rotation_every(7)
ALL = [SIMPLE, MAXGAP, WEEKLY, MINMAX, ROT7]
EXTRA = [
    pytest.param(RegimenConfig.clustered(MINMAX), id="clustered"),
    pytest.param(RegimenConfig.max_gap(gap=6, first_test_window=3), id="first-test-window"),
    pytest.param(RegimenConfig.once_per_period(period=3), id="short-period"),
    pytest.param(RegimenConfig.simple_random(0.9), id="simple-random-0.9"),
]


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            RegimenConfig(kind="weekly")

    def test_bad_parameters(self):
        with pytest.raises(ConfigError):
            RegimenConfig.simple_random(1.5)
        with pytest.raises(ConfigError):
            RegimenConfig.min_max(gap=5, min_gap=5)
        with pytest.raises(ConfigError):
            RegimenConfig.once_per_period(0)
        with pytest.raises(ConfigError):
            Overlays(symptomatic_probability=-0.1)

    def test_clustered_needs_base_and_cannot_nest(self):
        with pytest.raises(ConfigError):
            RegimenConfig(kind="clustered")
        with pytest.raises(ConfigError):
            RegimenConfig.clustered(RegimenConfig.clustered(SIMPLE))


class TestProbabilities:
    def test_simple_random_is_flat(self):
        for ctx in (
            SchedulingContext(day=1),
            SchedulingContext(day=9, last_test_day=4, last_clearance_day=6),
        ):
            assert test_probability(SIMPLE, ctx) == pytest.approx(1 / 6)

    def test_max_gap_forced_at_cap(self):
        ctx = SchedulingContext(day=12, last_test_day=2)
        assert test_probability(MAXGAP, ctx) == 1.0

    def test_max_gap_quadratic(self):
        ctx = SchedulingContext(day=7, last_test_day=2)
        assert test_probability(MAXGAP, ctx) == pytest.approx(0.25)

    def test_max_gap_clock_restarts_at_clearance(self):
        ctx = SchedulingContext(day=7, last_test_day=1, last_clearance_day=5)
        assert test_probability(MAXGAP, ctx) == pytest.approx((2 / 10) ** 2)

    def test_min_gap_blocks_recent_tests(self):
        assert test_probability(MINMAX, SchedulingContext(day=6, last_test_day=2)) == 0.0
        assert test_probability(MINMAX, SchedulingContext(day=7, last_test_day=2)) == pytest.approx(0.25)

    def test_first_window_is_sequentially_uniform(self):
        # hazard 1/(w - t + 1) makes the first test uniform on days 1..w
        surv, marginal = 1.0, []
        for day in range(1, 11):
            p = test_probability(MAXGAP, SchedulingContext(day=day))
            marginal.append(surv * p)
            surv *= 1 - p
        assert np.allclose(marginal, 1 / 10)
        assert surv == pytest.approx(0.0)

    def test_once_per_period_remaining_days(self):
        ctx = SchedulingContext(day=5, last_test_day=None)  # 3 days left incl. today
        assert test_probability(WEEKLY, ctx) == pytest.approx(1 / 3)
        done = SchedulingContext(day=5, last_test_day=3)
        assert test_probability(WEEKLY, done) == 0.0

    def test_once_per_period_reentry_within_period(self):
        ctx = SchedulingContext(day=12, last_test_day=2, last_clearance_day=9)
        assert test_probability(WEEKLY, ctx) == pytest.approx(1 / 3)

    def test_once_per_period_marginal_uniform(self):
        # enumerate the within-week decision chain: each day carries 1/7
        surv = 1.0
        for day in range(1, 8):
            ctx = SchedulingContext(day=day)
            p = test_probability(WEEKLY, ctx)
            assert surv * p == pytest.approx(1 / 7)
            surv *= 1 - p

    def test_rotation_fires_on_schedule(self):
        assert test_probability(ROT7, SchedulingContext(day=9, last_test_day=2)) == 1.0
        assert test_probability(ROT7, SchedulingContext(day=8, last_test_day=2)) == 0.0
        staggered = SchedulingContext(day=3, first_test_day=3)
        assert test_probability(ROT7, staggered) == 1.0
        assert test_probability(ROT7, SchedulingContext(day=7)) == 1.0  # default start

    def test_removed_units_rejected(self):
        with pytest.raises(ValueError):
            test_probability(SIMPLE, SchedulingContext(day=3, in_nonremoved=False))


class TestVectorisedAgreement:
    def test_matches_scalar_on_random_states(self):
        rng = np.random.default_rng(5)
        for config in ALL:
            for day in (1, 4, 7, 11, 15):
                n = 64
                last_test = rng.integers(0, day, n)
                has_tested = (rng.random(n) < 0.7) & (last_test > 0)
                last_test = np.where(has_tested, last_test, 0)
                clear_days = rng.integers(1, max(day, 2), n)
                last_clear = np.where((rng.random(n) < 0.3) & (day > 1), clear_days, 0)
                first_due = rng.integers(1, (config.rotation or 7) + 1, n)
                vec = probability_vector(config, day, last_test, has_tested, last_clear, first_due)
                for i in range(n):
                    ctx = SchedulingContext(
                        day=day,
                        last_test_day=int(last_test[i]) if has_tested[i] and last_test[i] > 0 else None,
                        last_clearance_day=int(last_clear[i]) if last_clear[i] > 0 else None,
                        first_test_day=int(first_due[i]),
                    )
                    assert vec[i] == pytest.approx(test_probability(config, ctx)), (
                        config.kind, day, i)


def chain_pmf(config, event_day, event, horizon):
    """Next-test pmf derived by chaining per-day hazards (independent route)."""
    row = np.zeros(horizon + 2)
    surv = 1.0
    last_clear = event_day if (event == "clearance" and event_day > 0) else None
    last_test = event_day if event == "test" else None
    for day in range(event_day + 1, horizon + 1):
        ctx = SchedulingContext(day=day, last_test_day=last_test, last_clearance_day=last_clear)
        p = test_probability(config, ctx)
        row[day] = surv * p
        surv *= 1 - p
    row[horizon + 1] = surv
    return row


class TestNextTestPmf:
    @pytest.mark.parametrize("config", [pytest.param(c, id=c.kind) for c in ALL] + EXTRA)
    def test_matches_hazard_chain(self, config):
        for horizon in (6, 11, 14):
            after_test = next_test_pmf(config, 0, horizon)  # row k: negative test on day k
            for event_day in range(0, horizon):
                pmf = next_test_pmf(config, event_day, horizon)[0]
                assert pmf == pytest.approx(chain_pmf(config, event_day, "clearance", horizon),
                                            abs=1e-12), (config.kind, event_day, "clearance")
                if event_day >= 1:
                    pmf = after_test[event_day]
                    assert pmf == pytest.approx(chain_pmf(config, event_day, "test", horizon),
                                                abs=1e-12), (config.kind, event_day, "test")

    def test_simple_random_geometric(self):
        t, p = 10, 1 / 6
        row = next_test_pmf(SIMPLE, 0, t)[3]
        expected = [p * (1 - p) ** (z - 4) for z in range(4, t + 1)]
        assert row[4 : t + 1] == pytest.approx(expected)
        assert row[t + 1] == pytest.approx((1 - p) ** (t - 3))

    def test_rows_are_distributions(self):
        for config in ALL:
            for event_day, row in ((0, next_test_pmf(config, 0, 12)[0]),
                                   (3, next_test_pmf(config, 3, 12)[0]),
                                   (3, next_test_pmf(config, 0, 12)[3])):
                assert row.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.all(row[: event_day + 1] == 0.0)


def regimens():
    """Random regimen configs of every built-in kind, clustered ones included."""
    simple = st.builds(RegimenConfig.simple_random, st.floats(0.0, 1.0))
    max_gap = st.builds(RegimenConfig.max_gap, st.integers(1, 12),
                        st.none() | st.integers(1, 12))
    min_max = st.integers(2, 12).flatmap(lambda gap: st.builds(
        RegimenConfig.min_max, st.just(gap), st.integers(1, gap - 1),
        st.none() | st.integers(1, 12)))
    weekly = st.builds(RegimenConfig.once_per_period, st.integers(1, 10))
    rotation = st.builds(RegimenConfig.rotation_every, st.integers(1, 10))
    base = simple | max_gap | min_max | weekly | rotation
    return base | base.map(RegimenConfig.clustered)


class TestExactScheduleMatrixProperties:
    @settings(max_examples=60)
    @given(config=regimens(), t=st.integers(1, 25))
    def test_rows_follow_the_hazard_chain(self, config, t):
        for stratum in range(t):
            matrix = exact_schedule_matrix(config, stratum, t)
            matrix.validate()
            p = matrix.entries
            assert p[stratum] == pytest.approx(chain_pmf(config, stratum, "clearance", t),
                                               abs=1e-12)
            for s in range(stratum + 1, t + 1):
                assert p[s] == pytest.approx(chain_pmf(config, s, "test", t), abs=1e-12)
            for s in range(stratum, t + 1):
                assert np.all(p[s, : s + 1] == 0.0), (stratum, s)
