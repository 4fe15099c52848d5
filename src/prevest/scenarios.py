"""Named simulation scenarios and the replication harness.

Nine built-in scenarios share one population model (1000 individuals in
clusters of 4 over a 21-day window, 2% baseline prevalence, a parabolic
external exposure hazard plus a per-infectious-clustermate hazard of 1/5,
halved external hazard after a first exposure, 5 isolation days, test
sensitivity 83.2% and specificity 99.2%) and differ in the testing regimen
or in which estimator assumption they deliberately break:

=====================  ======================================================
simple-random           test each day with probability 1/6
max-gap                 quadratic hazard, forced test 10 days after the last
once-per-period         one uniform test per 7-day period
min-max                 max-gap with a 5-day minimum spacing
undetected-recoveries   min-max; infectious recover undetected 6 days after
                        exposure
time-varying-sensitivity min-max; sensitivity follows a parabola in days
                        since exposure (estimation assumes its 55.7% mean)
symptomatic             min-max; 1/4 of new infections force a test on their
                        first infectious day
contact-tracing         min-max; clustermates of a positive are tested the
                        next day (known-weight estimator unavailable)
clustered               min-max schedule applied to whole clusters
=====================  ======================================================
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .core import TestCharacteristics
from .estimators import (
    MIN_STRATUM_SIZE,
    DayEvaluator,
    EstimateSeries,
    Panel,
    ht_known,
    known_probability_table,
    prevalence_from_rate,
    tpr_prevalence,
)
# perfbench/tracing.py patches exact_schedule_matrix and next_test_pmf in this module; the
# matrix formula stays importable beside them as the oracle of the known weights.
from .estimators import exact_schedule_matrix, testing_probability_from_matrix  # noqa: F401
from .regimens import ConfigError, Overlays, RegimenConfig, next_test_pmf  # noqa: F401
from .simulate import (
    ExternalHazard,
    HazardModel,
    ScenarioConfig,
    SensitivityCurve,
    SimulationResult,
    replicate_bytes,
    seed_prefix,
    simulate,
)
from .uncertainty import (
    IntervalSpec,
    bca_bootstrap,
    clopper_pearson,
    wald_prevalence_interval,
)

def _nan_aggregate(func, *args, **kwargs):
    # day 0 is all-nan by construction; silence the empty-slice warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return func(*args, **kwargs)


def _mc_se(values: np.ndarray) -> np.ndarray:
    """Per-day Monte Carlo standard error of the mean over the replicates with a defined
    value: their sample standard deviation over the root of their count, nan below two."""
    defined = np.count_nonzero(~np.isnan(values), axis=0)
    spread = _nan_aggregate(np.nanstd, values, axis=0, ddof=1)
    return np.where(defined >= 2, spread / np.sqrt(np.maximum(defined, 1)), np.nan)


SCENARIO_NAMES = (
    "simple-random",
    "max-gap",
    "once-per-period",
    "min-max",
    "undetected-recoveries",
    "time-varying-sensitivity",
    "symptomatic",
    "contact-tracing",
    "clustered",
)

STUDY_TESTS = TestCharacteristics(sensitivity=0.832, specificity=0.992)
# Mean of the time-varying sensitivity parabola over the 10 days post exposure.
ASSUMED_SENSITIVITY_TIME_VARYING = 0.557


def study_hazard(horizon: int = 21) -> HazardModel:
    return HazardModel(
        external=ExternalHazard(kind="bump", shape_horizon=horizon, peak=1 / 10, base=1 / 50,
                                scale=1 / 30),
        within_cluster_rate=1 / 5,
        repeat_exposure_multiplier=1 / 2,
        initial_prevalence=0.02,
    )


@dataclass(frozen=True)
class ScenarioBundle:
    """A simulation config paired with its estimation-side settings."""

    name: str
    config: ScenarioConfig
    assumed_tests: TestCharacteristics

    @property
    def ht_known_available(self) -> bool:
        """Contact tracing makes a test depend on others' states: no known weight."""
        return not self.config.regimen.overlays.contact_tracing


def build_scenario(
    name: str, population_size: int = 1000, horizon_days: int = 21
) -> ScenarioBundle:
    if name not in SCENARIO_NAMES:
        raise ConfigError(f"unknown scenario {name!r}; expected one of {SCENARIO_NAMES}")
    min_max = RegimenConfig.min_max(gap=10, min_gap=5)
    base = dict(
        population_size=population_size,
        horizon_days=horizon_days,
        cluster_size=4,
        tests=STUDY_TESTS,
        hazard=study_hazard(horizon_days),
        removal_duration_days=5,
    )
    assumed = STUDY_TESTS
    if name == "simple-random":
        config = ScenarioConfig(regimen=RegimenConfig.simple_random(1 / 6), **base)
    elif name == "max-gap":
        config = ScenarioConfig(regimen=RegimenConfig.max_gap(gap=10), **base)
    elif name == "once-per-period":
        config = ScenarioConfig(regimen=RegimenConfig.once_per_period(period=7), **base)
    elif name == "min-max":
        config = ScenarioConfig(regimen=min_max, **base)
    elif name == "undetected-recoveries":
        config = ScenarioConfig(
            regimen=min_max, undetected_recovery_days=6, baseline_exposure_window=6, **base
        )
    elif name == "time-varying-sensitivity":
        config = ScenarioConfig(
            regimen=min_max,
            sensitivity_curve=SensitivityCurve(peak=STUDY_TESTS.sensitivity, window=10),
            baseline_exposure_window=6,
            **base,
        )
        assumed = TestCharacteristics(ASSUMED_SENSITIVITY_TIME_VARYING, STUDY_TESTS.specificity)
    elif name == "symptomatic":
        regimen = replace(min_max, overlays=Overlays(symptomatic_probability=1 / 4))
        config = ScenarioConfig(regimen=regimen, **base)
    elif name == "contact-tracing":
        regimen = replace(min_max, overlays=Overlays(contact_tracing=True))
        config = ScenarioConfig(regimen=regimen, **base)
    else:  # clustered
        config = ScenarioConfig(regimen=RegimenConfig.clustered(min_max), **base)
    return ScenarioBundle(name=name, config=config, assumed_tests=assumed)


# ---------------------------------------------------------------------------
# Known testing-probability weights


def renewal_fire_probabilities(regimen: RegimenConfig, horizon: int) -> np.ndarray:
    """P[schedule fires on day d] for a renewal schedule that never resets.

    Used for cluster-level schedules: the cluster keeps testing on its own
    clock, so an individual's clearance does not move their next test.  That is
    the chain from day 0 with every test negative, row 0 of the known table
    under perfect specificity.
    """
    return known_probability_table(regimen, horizon, 1.0)[0]


class KnownWeights:
    """Reciprocal testing probabilities implied by a regimen, read from one table per
    run: :func:`known_probability_table` chains each stratum once over the horizon, and
    a cluster-level schedule ignores clearances, so its renewal fire probability serves
    every stratum."""

    def __init__(self, bundle: ScenarioBundle):
        regimen = bundle.config.regimen
        self.horizon = horizon = bundle.config.horizon_days
        if regimen.kind == "clustered":
            fire = renewal_fire_probabilities(regimen, horizon)
            self._probs = np.broadcast_to(fire, (horizon + 1, horizon + 1))
            return
        removal = bundle.config.removal_duration_days
        if removal + 1 < regimen.min_gap:
            # the first test day after a clearance lies removal + 1 days past the
            # positive test, and next_test_pmf's clearance row assumes min_gap days have passed
            raise ConfigError(
                f"removal_duration_days ({removal}) is below min_gap - 1 "
                f"({regimen.min_gap - 1}): the known weights would not follow the simulated "
                "schedule after a clearance"
            )
        self._probs = known_probability_table(regimen, horizon, bundle.assumed_tests.specificity)

    def __call__(self, stratum: int, day: int) -> float:
        if not 0 <= stratum < day <= self.horizon:
            raise ValueError(f"no known weight for stratum {stratum} on day {day}: "
                             f"need 0 <= stratum < day <= {self.horizon}")
        prob = float(self._probs[stratum, day])
        if prob <= 0.0:
            raise ConfigError(f"regimen gives zero testing probability for stratum {stratum} "
                              f"on day {day}")
        return 1.0 / prob


# ---------------------------------------------------------------------------
# Series assembly shared by the scenario harness and the data pipeline


def estimate_panel_series(
    panel: Panel,
    tests: TestCharacteristics,
    estimators: Sequence[str] = ("tpr", "ht-e"),
    interval_spec: Optional[IntervalSpec] = None,
    known_weights: Optional[Callable[[int, int], float]] = None,
    min_stratum_size: int = MIN_STRATUM_SIZE,
    excluded_days: Optional[np.ndarray] = None,
    seed: int | tuple[int, ...] = 0,
) -> EstimateSeries:
    """Per-day estimates (and optional intervals) for every requested estimator.

    Excluded days yield undefined-marker records so that the day indexing
    stays dense.  ``known_weights`` must be supplied for the ``ht-k``
    estimator.  ``seed`` is a prefix: day ``t``'s bootstrap is seeded with
    ``(*seed, t)``, so an int ``s`` gives ``(s, t)``.  Every interval, a
    degenerate bootstrap's too, is clipped to [0, 1] and widened to contain
    its estimate: the one step that clips an interval endpoint.
    """
    if "ht-k" in estimators and known_weights is None:
        raise ValueError("ht-k requires known testing-probability weights")
    prefix = seed_prefix(seed)
    series = EstimateSeries()
    counts = panel.day_counts
    for day in range(1, panel.horizon + 1):
        if counts.n_tests[day] == 0 or (excluded_days is not None and excluded_days[day]):
            for kind in estimators:
                series.append(panel.day_record(day, kind))
            continue
        for kind in estimators:
            if kind == "tpr":
                n_tests, n_pos = int(counts.n_tests[day]), int(counts.n_positive[day])
                record = panel.day_record(day, "tpr", tpr_prevalence(n_pos, n_tests, tests))
                if interval_spec is not None:
                    lo, hi = clopper_pearson(n_pos, n_tests, interval_spec.level)
                    record.lo = prevalence_from_rate(lo, tests)
                    record.hi = prevalence_from_rate(hi, tests)
            elif kind == "ht-k":
                record, variance = ht_known(panel, day, tests, known_weights)
                if interval_spec is not None:
                    record.lo, record.hi = wald_prevalence_interval(
                        record.unclipped, variance, int(counts.nonremoved[day]),
                        interval_spec.level)
            elif kind == "ht-e":
                evaluator = DayEvaluator(panel, day, tests, min_stratum_size)
                record = evaluator.day_estimate()
                if interval_spec is not None:
                    interval = bca_bootstrap(evaluator.resampler(), interval_spec,
                                             seed=(*prefix, day), point=record.unclipped)
                    record.lo, record.hi = interval.lo, interval.hi
            else:
                raise ValueError(f"unknown estimator kind {kind!r}")
            if interval_spec is not None and not math.isnan(record.lo):
                record.lo = min(max(record.lo, 0.0), record.estimate)
                record.hi = max(min(record.hi, 1.0), record.estimate)
            series.append(record)
    return series


# ---------------------------------------------------------------------------
# Replicated scenario runs

# Simulation memory of one stack of replicates: four at n=1000, T=21.
_STACK_BYTES = 1 << 20


def simulated_replicates(
    config: ScenarioConfig, seed: tuple[int, ...], replicates: range
) -> Iterator[tuple[int, SimulationResult]]:
    """``(r, simulate(config, seed=(*seed, r)))`` for each replicate ``r``, in order.

    The replicates run in stacks of as many as fit ``_STACK_BYTES``.  No name
    here holds a stack past its last replicate, so the caller's loop variable is
    the only thing that can keep it alive while the next one is simulated.
    """
    step = max(1, _STACK_BYTES // replicate_bytes(config))
    for start in range(replicates.start, replicates.stop, step):
        block = range(start, min(start + step, replicates.stop))
        yield from zip(block, simulate(config, seed=seed, replicates=block).split())


@dataclass
class ScenarioRunResult:
    """Per-replicate, per-day estimates and realised truths for one scenario."""

    name: str
    truth: np.ndarray                      # [replicates, horizon + 1]
    unclipped: dict[str, np.ndarray]       # kind -> same shape, no [0, 1] restriction
    covered: dict[str, np.ndarray]         # kind -> 0/1, nan where no interval; same shape

    @classmethod
    def concat(cls, parts: Sequence["ScenarioRunResult"]) -> "ScenarioRunResult":
        """One result from runs over consecutive replicate ranges, in replicate order."""

        def stack(field: str) -> dict[str, np.ndarray]:
            return {k: np.vstack([getattr(p, field)[k] for p in parts])
                    for k in parts[0].estimators}

        return replace(parts[0], truth=np.vstack([p.truth for p in parts]),
                       unclipped=stack("unclipped"), covered=stack("covered"))

    @property
    def replicates(self) -> int:
        return self.truth.shape[0]

    @property
    def horizon(self) -> int:
        return self.truth.shape[1] - 1

    @property
    def estimators(self) -> tuple[str, ...]:
        return tuple(self.unclipped)

    @property
    def estimates(self) -> dict[str, np.ndarray]:
        """``unclipped`` clipped to [0, 1] elementwise, as ``clip_unit`` clips a record."""
        return {k: np.clip(v, 0.0, 1.0) for k, v in self.unclipped.items()}

    @property
    def with_intervals(self) -> bool:
        return any(not np.isnan(c).all() for c in self.covered.values())

    def mean_truth(self) -> np.ndarray:
        return _nan_aggregate(np.nanmean, self.truth, axis=0)

    def mean_estimate(self, kind: str) -> np.ndarray:
        return _nan_aggregate(np.nanmean, self.estimates[kind], axis=0)

    def bias(self, kind: str) -> np.ndarray:
        return _nan_aggregate(np.nanmean, self.estimates[kind] - self.truth, axis=0)

    def bias_unclipped(self, kind: str) -> np.ndarray:
        """Bias of the unrestricted estimator (the clipped one is biased up by design)."""
        return _nan_aggregate(np.nanmean, self.unclipped[kind] - self.truth, axis=0)

    def mc_se_unclipped(self, kind: str) -> np.ndarray:
        return _mc_se(self.unclipped[kind])

    def rmse(self, kind: str) -> np.ndarray:
        return np.sqrt(_nan_aggregate(np.nanmean, (self.estimates[kind] - self.truth) ** 2, axis=0))

    def coverage(self, kind: str) -> np.ndarray:
        return _nan_aggregate(np.nanmean, self.covered[kind], axis=0)

    def mc_se(self, kind: str) -> np.ndarray:
        """Monte Carlo standard error of the mean estimate, per day."""
        return _mc_se(self.estimates[kind])

    def rows(self):
        """Tidy aggregate rows (scenario, estimator, day, ...)."""
        mean_truth = self.mean_truth()
        for kind in self.estimators:
            mean_est = self.mean_estimate(kind)
            bias = self.bias(kind)
            rmse = self.rmse(kind)
            cover = self.coverage(kind)
            for day in range(1, self.horizon + 1):
                yield {
                    "scenario": self.name,
                    "estimator": kind,
                    "day": day,
                    "mean_estimate": float(mean_est[day]),
                    "mean_truth": float(mean_truth[day]),
                    "bias": float(bias[day]),
                    "rmse": float(rmse[day]),
                    "ci_coverage": float(cover[day]),
                }


def run_scenario(
    bundle: ScenarioBundle | str,
    replicates: int,
    seed: int = 0,
    estimators: Optional[Sequence[str]] = None,
    interval_spec: Optional[IntervalSpec] = None,
    min_stratum_size: int = MIN_STRATUM_SIZE,
    first_replicate: int = 0,
) -> ScenarioRunResult:
    """Replicate a scenario and collect per-day estimates against realised truths.

    Coverage is evaluated per replicate against that replicate's realised
    prevalence among the non-removed population.  Replicate RNG streams are
    keyed by absolute replicate index, so partitioned runs (``first_replicate``
    offsets) reproduce a single sequential run exactly.
    """
    if isinstance(bundle, str):
        bundle = build_scenario(bundle)
    if replicates < 1:
        raise ConfigError("need at least one replicate")
    if estimators is None:
        estimators = ("tpr", "ht-k", "ht-e") if bundle.ht_known_available else ("tpr", "ht-e")
    estimators = tuple(estimators)
    if "ht-k" in estimators and not bundle.ht_known_available:
        raise ConfigError(f"known-weight estimator is not available for {bundle.name!r}")
    config = bundle.config
    horizon = config.horizon_days
    weights = KnownWeights(bundle) if "ht-k" in estimators else None

    truth = np.full((replicates, horizon + 1), np.nan)
    unclipped = {k: np.full((replicates, horizon + 1), np.nan) for k in estimators}
    covered = {k: np.full((replicates, horizon + 1), np.nan) for k in estimators}

    span = range(first_replicate, first_replicate + replicates)
    for abs_r, sim in simulated_replicates(config, (seed,), span):
        r = abs_r - first_replicate
        truth[r] = sim.true_prevalence()
        series = estimate_panel_series(
            sim.panel(), bundle.assumed_tests, estimators, interval_spec, weights,
            min_stratum_size, seed=(seed, abs_r),
        )
        for record in series.records:
            if not record.defined:
                continue
            day, kind = record.day, record.kind
            unclipped[kind][r, day] = record.unclipped
            if interval_spec is not None:
                covered[kind][r, day] = float(record.lo <= truth[r, day] <= record.hi)
        del sim  # a view: it would pin its whole stack while the next one is simulated
    return ScenarioRunResult(name=bundle.name, truth=truth, unclipped=unclipped, covered=covered)
