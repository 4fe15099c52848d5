from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from prevest.core import TestCharacteristics
from prevest.regimens import Overlays, RegimenConfig
from prevest.simulate import (
    ExternalHazard,
    HazardModel,
    ScenarioConfig,
    SensitivityCurve,
    apply_contact_tracing,
    initialize_population,
    simulate,
    _draw_initial,
    _purpose_streams,
)

from _oracles import fold_states_from_simulation, state_sets


def config_for(regimen, n=40, horizon=12, cluster=4, prevalence=0.2, external=0.05,
               cluster_rate=0.0, tests=TestCharacteristics(), seed=0, **kw):
    return ScenarioConfig(
        population_size=n,
        horizon_days=horizon,
        regimen=regimen,
        tests=tests,
        hazard=HazardModel(
            external=ExternalHazard(kind="constant", rate=external),
            within_cluster_rate=cluster_rate,
            initial_prevalence=prevalence,
        ),
        cluster_size=cluster,
        seed=seed,
        **kw,
    )


class TestInitialisation:
    def test_zero_prevalence_all_well(self):
        hist = initialize_population(config_for(RegimenConfig.simple_random(0.2), prevalence=0.0))
        assert all(h.exposure_times == () for h in hist)

    def test_full_prevalence_all_infectious(self):
        hist = initialize_population(config_for(RegimenConfig.simple_random(0.2), prevalence=1.0))
        assert all(h.exposure_times == (-1,) for h in hist)

    def test_binomial_mean_baseline_count(self):
        cfg = ScenarioConfig(
            population_size=1000, horizon_days=1,
            regimen=RegimenConfig.simple_random(0.1),
            hazard=HazardModel(initial_prevalence=0.02),
        )
        counts = []
        for k in range(1000):
            infected, _ = _draw_initial(cfg, _purpose_streams((99, k))["init"])
            counts.append(infected.sum())
        assert np.mean(counts) == pytest.approx(20.0, abs=1.5)

    def test_backdated_window(self):
        cfg = config_for(RegimenConfig.simple_random(0.2), prevalence=1.0,
                         baseline_exposure_window=6)
        hist = initialize_population(cfg, seed=4)
        days = {h.exposure_times[0] for h in hist}
        assert days <= set(range(-6, 0)) and len(days) > 1


class TestDynamics:
    def test_zero_hazard_perfect_specificity_drains_monotonically(self):
        cfg = config_for(RegimenConfig.simple_random(0.4), n=60, horizon=15,
                         prevalence=0.3, external=0.0,
                         tests=TestCharacteristics(0.7, 1.0), seed=2)
        sim = simulate(cfg)
        counts = sim.infectious.sum(axis=1)
        assert np.all(np.diff(counts) <= 0)
        assert not sim.newly_exposed.any()
        # only ever-infectious individuals pass through removal
        removed_ever = sim.removed.any(axis=0)
        assert not np.any(removed_ever & ~sim.infectious[0])

    def test_daily_census_with_perfect_tests_clears_next_day(self):
        cfg = config_for(RegimenConfig.simple_random(1.0), n=48, horizon=10,
                         prevalence=0.1, external=0.15, seed=3)
        sim = simulate(cfg)
        for t in range(1, 10):
            # everyone infectious on day t was exposed the day before
            assert np.array_equal(sim.infectious[t], sim.newly_exposed[t - 1]) or t == 1
            # prevalence equals the prior day's incidence
            assert sim.infectious[t + 1].sum() == sim.newly_exposed[t].sum()

    def test_conservation_every_day(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            cfg = config_for(
                RegimenConfig.min_max(gap=6, min_gap=2), n=24, horizon=14,
                prevalence=0.3, external=0.2, cluster_rate=0.2,
                tests=TestCharacteristics(0.8, 0.95), seed=int(rng.integers(1 << 30)),
            )
            sim = simulate(cfg)
            total = sim.well.astype(int) + sim.infectious.astype(int) + sim.removed.astype(int)
            assert np.all(total == 1)
            for t in range(sim.horizon):
                # removal entries are exactly the previous day's positives
                entered = sim.removed[t + 1] & ~sim.removed[t]
                assert np.array_equal(entered, sim.positive[t])
                sim.transition(t).check_consistency(sim.state(t))

    def test_reproducibility_bit_for_bit(self):
        cfg = config_for(RegimenConfig.once_per_period(7), n=64, horizon=14,
                         prevalence=0.2, external=0.1, tests=TestCharacteristics(0.8, 0.99))
        a, b = simulate(cfg, seed=11), simulate(cfg, seed=11)
        for name in ("well", "infectious", "removed", "tested", "positive"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        c = simulate(cfg, seed=12)
        assert any(
            not np.array_equal(getattr(a, name), getattr(c, name))
            for name in ("tested", "positive")
        )

    def test_no_infectious_to_well_shortcut_without_recovery(self):
        cfg = config_for(RegimenConfig.simple_random(0.3), n=60, horizon=15,
                         prevalence=0.2, external=0.1, tests=TestCharacteristics(0.9, 0.99),
                         seed=5)
        sim = simulate(cfg)
        for t in range(sim.horizon):
            assert not np.any(sim.infectious[t] & sim.well[t + 1])

    def test_set_fold_oracle_matches_states(self):
        cfg = config_for(RegimenConfig.max_gap(gap=5), n=32, horizon=12, prevalence=0.25,
                         external=0.15, cluster_rate=0.3, tests=TestCharacteristics(0.8, 0.95),
                         seed=9, undetected_recovery_days=4, baseline_exposure_window=4)
        sim = simulate(cfg)
        folded = fold_states_from_simulation(sim)
        for t in range(sim.horizon + 1):
            assert state_sets(sim.state(t)) == folded[t], f"day {t}"

    def test_histories_reconstruct_panel_removed(self):
        cfg = config_for(RegimenConfig.simple_random(0.3), n=40, horizon=12, prevalence=0.2,
                         external=0.1, tests=TestCharacteristics(0.85, 0.97), seed=7)
        sim = simulate(cfg)
        panel = sim.panel()
        from prevest.core import reconstruct_state

        for t in range(1, sim.horizon + 1):
            state = reconstruct_state(sim.histories, t)
            assert np.array_equal(state.removed, panel.removed[t])
            assert np.array_equal(state.removed, sim.removed[t])


class TestUndetectedRecovery:
    def test_recovery_exactly_after_window(self):
        cfg = config_for(RegimenConfig.simple_random(0.05), n=80, horizon=14, prevalence=0.0,
                         external=0.2, tests=TestCharacteristics(0.5, 1.0), seed=3,
                         undetected_recovery_days=4)
        sim = simulate(cfg)
        assert sim.undetected_recovered.any()
        for i in range(cfg.population_size):
            h = sim.histories[i]
            positives = {z for z, y in zip(h.test_times, h.test_results) if y}
            for x, v in zip(h.exposure_times, h.infectious_end_times):
                if v in positives:
                    assert v - x <= 4
                else:
                    assert v - x == 4


class TestOverlays:
    def test_contact_tracing_rule(self):
        clusters = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        positive = np.array([True, False, False, False, False, False, False, False])
        nonrem = np.array([False, True, True, False, True, True, True, True])
        forced = apply_contact_tracing(positive, clusters, nonrem)
        assert list(forced) == [False, True, True, False, False, False, False, False]

    def test_no_positives_no_tracing(self):
        clusters = np.array([0, 0, 1, 1])
        forced = apply_contact_tracing(np.zeros(4, bool), clusters, np.ones(4, bool))
        assert not forced.any()

    def test_tracing_in_simulation_tests_clustermates(self):
        regimen = RegimenConfig(kind="simple-random", p=0.15,
                                overlays=Overlays(contact_tracing=True))
        cfg = config_for(regimen, n=40, horizon=12, prevalence=0.2, external=0.1,
                         tests=TestCharacteristics(0.9, 1.0), seed=6)
        sim = simulate(cfg)
        ids = cfg.cluster_ids()
        hits = 0
        for t in range(1, sim.horizon):
            flagged = np.bincount(ids, weights=sim.positive[t], minlength=cfg.n_clusters) > 0
            due = flagged[ids] & (sim.well[t + 1] | sim.infectious[t + 1])
            assert np.all(sim.tested[t + 1][due])
            hits += int(due.sum())
        assert hits > 0

    def test_symptomatic_forces_first_day_test(self):
        regimen = RegimenConfig(kind="simple-random", p=0.0,
                                overlays=Overlays(symptomatic_probability=1.0))
        cfg = config_for(regimen, n=60, horizon=10, prevalence=0.0, external=0.2, seed=8)
        sim = simulate(cfg)
        assert sim.newly_exposed.any()
        for t in range(1, sim.horizon):
            assert np.array_equal(sim.tested[t + 1], sim.newly_exposed[t])


class TestSensitivityCurve:
    def test_parabola_values(self):
        curve = SensitivityCurve(peak=0.832, window=10)
        assert curve.value(np.array([5]))[0] == pytest.approx(0.832)
        assert curve.value(np.array([1]))[0] == pytest.approx(0.832 * 0.36)
        assert curve.value(np.array([10]))[0] == pytest.approx(0.0832)
        assert curve.value(np.array([12]))[0] == pytest.approx(0.0832)

    def test_mean_over_window_matches_assumed_value(self):
        curve = SensitivityCurve(peak=0.832, window=10)
        mean = curve.value(np.arange(1, 11)).mean()
        assert mean == pytest.approx(0.557, abs=5e-4)


class TestScheduleInvariants:
    def test_max_gap_never_exceeded(self):
        cfg = config_for(RegimenConfig.max_gap(gap=6), n=60, horizon=20, prevalence=0.1,
                         external=0.05, tests=TestCharacteristics(0.9, 0.99), seed=10)
        sim = simulate(cfg)
        for i, h in enumerate(sim.histories):
            events = sorted([(z, "z") for z in h.test_times] + [(c, "c") for c in h.clearance_times])
            anchor = 0
            for day, kind in events:
                if kind == "z":
                    assert day - anchor <= 6, (i, day, anchor)
                anchor = day

    def test_min_max_spacing(self):
        cfg = config_for(RegimenConfig.min_max(gap=8, min_gap=3), n=60, horizon=20,
                         prevalence=0.1, external=0.05, tests=TestCharacteristics(0.9, 0.99),
                         seed=11)
        sim = simulate(cfg)
        for h in sim.histories:
            gaps = np.diff(h.test_times)
            assert np.all(gaps >= 3)

    def test_once_per_period_exactly_one_test(self):
        cfg = config_for(RegimenConfig.once_per_period(7), n=210, horizon=21, prevalence=0.0,
                         external=0.0, cluster=1, seed=12)
        sim = simulate(cfg)
        tests = sim.tested[1:].T  # [n, 21]
        per_week = tests.reshape(210, 3, 7).sum(axis=2)
        assert np.all(per_week == 1)
        # uniform test-day distribution within the period
        day_counts = tests.reshape(210, 3, 7).sum(axis=(0, 1))
        chi2 = ((day_counts - day_counts.mean()) ** 2 / day_counts.mean()).sum()
        assert chi2 < stats.chi2.ppf(0.999, df=6)

    def test_simple_random_miti_contingency(self):
        # testing and infectiousness independent among the non-removed
        table = np.zeros((2, 2))
        for r in range(60):
            cfg = config_for(RegimenConfig.simple_random(1 / 6), n=100, horizon=8,
                             prevalence=0.15, external=0.1, seed=(13, r))
            sim = simulate(cfg)
            t = 6
            nonrem = sim.well[t] | sim.infectious[t]
            for d in (0, 1):
                for inf in (0, 1):
                    table[d, inf] += np.sum(
                        nonrem & (sim.tested[t] == bool(d)) & (sim.infectious[t] == bool(inf))
                    )
        _, p_value, _, _ = stats.chi2_contingency(table)
        assert p_value > 0.01

    def test_clustered_regimen_tests_whole_clusters(self):
        cfg = config_for(RegimenConfig.clustered(RegimenConfig.min_max(gap=6, min_gap=2)),
                         n=48, horizon=15, prevalence=0.1, external=0.1,
                         tests=TestCharacteristics(0.9, 0.99), seed=14)
        sim = simulate(cfg)
        ids = cfg.cluster_ids()
        saw_fire = False
        for t in range(1, 16):
            nonrem = sim.well[t] | sim.infectious[t]
            for g in range(cfg.n_clusters):
                members = ids == g
                tested = sim.tested[t] & members
                eligible = nonrem & members
                if tested.any():
                    saw_fire = True
                    assert np.array_equal(tested, eligible & members)
        assert saw_fire


STACK_REGIMENS = (
    RegimenConfig.simple_random(0.3),
    RegimenConfig.rotation_every(3),
    RegimenConfig.once_per_period(4),
    RegimenConfig.max_gap(gap=5),
    RegimenConfig.min_max(gap=6, min_gap=2),
    RegimenConfig.clustered(RegimenConfig.min_max(gap=6, min_gap=2)),
    RegimenConfig.clustered(RegimenConfig.rotation_every(3)),
)
STACK_OVERLAYS = (Overlays(), Overlays(symptomatic_probability=0.5),
                  Overlays(contact_tracing=True))


@st.composite
def stacked_runs(draw):
    """A small config, a seed prefix and a ragged replicate range."""
    regimen = replace(draw(st.sampled_from(STACK_REGIMENS)),
                      overlays=draw(st.sampled_from(STACK_OVERLAYS)))
    cluster = draw(st.integers(1, 4))
    config = config_for(
        regimen,
        n=cluster * draw(st.integers(1, 6)),
        horizon=draw(st.integers(1, 10)),
        cluster=cluster,
        prevalence=draw(st.sampled_from((0.0, 0.2, 0.5))),
        external=draw(st.sampled_from((0.0, 0.1, 0.3))),
        cluster_rate=draw(st.sampled_from((0.0, 0.5, 1.0))),
        tests=TestCharacteristics(0.8, 0.9),
        undetected_recovery_days=draw(st.sampled_from((None, 2, 4))),
        sensitivity_curve=draw(st.sampled_from((None, SensitivityCurve(peak=0.9, window=4)))),
        baseline_exposure_window=draw(st.integers(1, 4)),
    )
    prefix = tuple(draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=2)))
    first = draw(st.integers(0, 50))
    return config, prefix, range(first, first + draw(st.integers(1, 5)))


class TestStackedReplicates:
    @settings(max_examples=120)
    @given(case=stacked_runs())
    def test_stack_equals_one_at_a_time(self, case):
        config, prefix, replicates = case
        stack = simulate(config, seed=prefix, replicates=replicates)
        assert stack.population_size == len(replicates) * config.population_size
        parts = stack.split()
        assert len(parts) == len(replicates)
        for part, r in zip(parts, replicates):
            alone = simulate(config, seed=(*prefix, r))
            assert part.seed == alone.seed == (*prefix, r)
            assert part.population_size == config.population_size
            for f in fields(alone):
                got, want = getattr(part, f.name), getattr(alone, f.name)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype and np.array_equal(got, want), (r, f.name)

    def test_int_prefix_and_config_seed(self):
        cfg = config_for(RegimenConfig.simple_random(0.3), seed=(4, 1))
        by_int = simulate(cfg, seed=9, replicates=range(2)).split()
        by_default = simulate(cfg, replicates=range(3, 4)).split()
        assert [p.seed for p in by_int] == [(9, 0), (9, 1)]
        assert by_default[0].seed == (4, 1, 3)
        assert np.array_equal(by_default[0].tested, simulate(cfg, seed=(4, 1, 3)).tested)

    def test_one_replicate_splits_to_itself(self):
        sim = simulate(config_for(RegimenConfig.simple_random(0.3)))
        parts = sim.split()
        assert len(parts) == 1 and parts[0] is sim
