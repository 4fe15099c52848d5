"""Forward simulation of the joint disease/testing process.

Day 0 is the baseline state; on each day ``t >= 1`` the non-removed
population is tested per the regimen (plus overlay-forced tests), positives
move to the removed compartment the next day, well individuals may acquire
infecting exposure from outside or from infectious clustermates, and removed
individuals are cleared back to well after a fixed isolation period.

Randomness discipline: each replicate owns one seed; purpose-specific
substreams (initialisation, test selection, test results, external exposure,
cluster exposure, overlays) each draw a fixed-size vector every day, one
slot per individual, so changing the regimen never perturbs the exposure
draws of a paired replicate.  Several replicates can run as one stack: one
population of blocks, block ``k`` filled from replicate ``k``'s own streams
and its clusters numbered apart from every other block's.  Each step is
elementwise or an integer-valued per-cluster sum, so a replicate's output is
bit-identical whatever stack it runs in.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (
    CompartmentState,
    DailyTransition,
    EventHistory,
    TestCharacteristics,
    check_field_types,
)
from .regimens import ConfigError, RegimenConfig, probability_vector

NO_EXPOSURE = np.iinfo(np.int32).min  # "never exposed" marker in internal arrays


@dataclass(frozen=True)
class ExternalHazard:
    """Daily probability of infecting exposure from outside the cluster.

    ``bump`` is a parabolic arc in tau (days since day 0 or the last
    clearance): ``scale * (tau * (shape_horizon - tau) / (shape_horizon / 2)^2
    * (peak - base) + base)``, floored at zero.
    """

    kind: str = "zero"
    rate: float = 0.0
    shape_horizon: int = 21
    peak: float = 0.1
    base: float = 0.02
    scale: float = 1.0 / 30.0

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in ("zero", "constant", "bump"):
            raise ConfigError(f"unknown external hazard kind {self.kind!r}")
        if self.kind == "constant" and not (0.0 <= self.rate <= 1.0):
            raise ConfigError(f"constant hazard must be in [0, 1], got {self.rate}")
        if self.kind == "bump":
            if self.shape_horizon < 1:
                raise ConfigError(
                    f"bump hazard needs shape_horizon >= 1, got {self.shape_horizon}")
            for name in ("peak", "base", "scale"):
                value = getattr(self, name)
                if not value >= 0.0:  # nan too
                    raise ConfigError(f"bump hazard {name} must be >= 0, got {value}")

    def rate_at(self, tau: int) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return self.rate
        h = self.shape_horizon
        arc = tau * (h - tau) / (h / 2.0) ** 2
        return max(self.scale * (arc * (self.peak - self.base) + self.base), 0.0)

    def table(self, max_tau: int) -> np.ndarray:
        return np.array([self.rate_at(tau) for tau in range(max_tau + 1)])


@dataclass(frozen=True)
class HazardModel:
    external: ExternalHazard = field(default_factory=ExternalHazard)
    within_cluster_rate: float = 0.0
    repeat_exposure_multiplier: float = 1.0
    initial_prevalence: float = 0.0

    def __post_init__(self):
        check_field_types(self)
        if not self.within_cluster_rate >= 0:  # nan too
            raise ConfigError("within-cluster rate must be >= 0")
        if not self.repeat_exposure_multiplier >= 0:
            raise ConfigError("repeat-exposure multiplier must be >= 0")
        if not (0.0 <= self.initial_prevalence <= 1.0):
            raise ConfigError("initial prevalence must be in [0, 1]")


@dataclass(frozen=True)
class SensitivityCurve:
    """Sensitivity of a test taken ``d`` days after exposure.

    ``peak * max(d * (window - d) / (window / 2)^2, 1 / window)``: a parabola
    peaking mid-infection with a small floor.  Applies to true positives
    only; specificity is unaffected.
    """

    peak: float = 0.832
    window: int = 10

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 < self.peak <= 1.0:
            raise ConfigError(f"sensitivity peak must be in (0, 1], got {self.peak}")
        if self.window < 1:
            raise ConfigError(f"sensitivity window must be >= 1 day, got {self.window}")

    def value(self, days_since_exposure: np.ndarray) -> np.ndarray:
        d = np.asarray(days_since_exposure, dtype=float)
        w = float(self.window)
        arc = d * (w - d) / (w / 2.0) ** 2
        return self.peak * np.maximum(arc, 1.0 / w)


@dataclass(frozen=True)
class ScenarioConfig:
    population_size: int
    horizon_days: int
    regimen: RegimenConfig
    tests: TestCharacteristics = field(default_factory=TestCharacteristics)
    hazard: HazardModel = field(default_factory=HazardModel)
    cluster_size: int = 1
    removal_duration_days: int = 5
    undetected_recovery_days: Optional[int] = None
    sensitivity_curve: Optional[SensitivityCurve] = None
    baseline_exposure_window: int = 1
    seed: int | tuple[int, ...] = 0  # SeedSequence entropy

    def __post_init__(self):
        check_field_types(self)
        if self.population_size < 1:
            raise ConfigError("population size must be >= 1")
        if self.horizon_days < 1:
            raise ConfigError("horizon must be >= 1 day")
        if self.cluster_size < 1:
            raise ConfigError("cluster size must be >= 1")
        if self.population_size % self.cluster_size != 0:
            raise ConfigError(
                f"population size {self.population_size} is not divisible by "
                f"cluster size {self.cluster_size}"
            )
        if self.removal_duration_days < 1:
            raise ConfigError("removal duration must be >= 1 day")
        if self.undetected_recovery_days is not None and self.undetected_recovery_days < 1:
            raise ConfigError("undetected recovery must take >= 1 day")
        if self.baseline_exposure_window < 1:
            raise ConfigError("baseline exposure window must be >= 1 day")
        # a re-exposure draws against the external hazard times the multiplier
        worst = float(self.hazard.external.table(self.horizon_days).max()) * max(
            1.0, self.hazard.repeat_exposure_multiplier)
        if not worst <= 1.0:
            raise ConfigError(
                f"external hazard reaches {worst:.4g} per day over the horizon (after the "
                "repeat-exposure multiplier); a daily probability cannot exceed 1")
        if isinstance(self.seed, list):  # a JSON array
            object.__setattr__(self, "seed", tuple(self.seed))
        parts = self.seed if isinstance(self.seed, tuple) else (self.seed,)
        if not parts or not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                                and v >= 0 for v in parts):
            raise ConfigError(
                f"seed must be a non-negative integer or a list of them, got {self.seed!r}")

    @property
    def n_clusters(self) -> int:
        return self.population_size // self.cluster_size

    def cluster_ids(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_clusters), self.cluster_size)


def seed_prefix(seed) -> tuple:
    """``seed`` as a tuple prefix: an int or numpy integer is one part, a sequence its parts."""
    return (int(seed),) if isinstance(seed, (int, np.integer)) else tuple(seed)


def _purpose_streams(seed_entropy) -> dict[str, np.random.Generator]:
    root = np.random.SeedSequence(seed_entropy)
    names = ("init", "testing", "results", "exposure_ext", "exposure_cluster", "overlay")
    return {name: np.random.Generator(np.random.PCG64(child))
            for name, child in zip(names, root.spawn(len(names)))}


def _draw_initial(config: ScenarioConfig, rng: np.random.Generator):
    """Baseline infectious mask and their (possibly back-dated) exposure days."""
    n = config.population_size
    infected = rng.random(n) < config.hazard.initial_prevalence
    exposure = np.full(n, NO_EXPOSURE, dtype=np.int64)
    w = config.baseline_exposure_window
    exposure[infected] = -rng.integers(1, w + 1, size=int(infected.sum()))
    return infected, exposure


def initialize_population(config: ScenarioConfig, seed=None) -> list[EventHistory]:
    """Day-0 event histories: baseline infectious carry one open exposure episode."""
    rng = _purpose_streams(config.seed if seed is None else seed)["init"]
    infected, exposure = _draw_initial(config, rng)
    out = []
    for i in range(config.population_size):
        if infected[i]:
            out.append(EventHistory(exposure_times=(int(exposure[i]),)))
        else:
            out.append(EventHistory())
    return out


def apply_contact_tracing(
    positive_today: np.ndarray, cluster_ids: np.ndarray, nonremoved_next: np.ndarray
) -> np.ndarray:
    """Forced-test mask for the day after a positive: all non-removed clustermates."""
    n_clusters = int(cluster_ids.max()) + 1 if cluster_ids.size else 0
    flagged = np.bincount(cluster_ids, weights=positive_today, minlength=n_clusters) > 0
    return flagged[cluster_ids] & nonremoved_next


@dataclass
class SimulationResult:
    """Dense day-by-individual record of one simulated trajectory, or of a stack of them.

    A stack (``replicates`` set) holds replicate ``replicates[k]`` in columns
    ``k * n`` to ``(k + 1) * n``, and its ``seed`` is the prefix of theirs.
    """

    config: ScenarioConfig
    seed: object
    well: np.ndarray
    infectious: np.ndarray
    removed: np.ndarray
    tested: np.ndarray
    positive: np.ndarray
    newly_exposed: np.ndarray
    undetected_recovered: np.ndarray
    cleared: np.ndarray
    baseline_exposure: np.ndarray
    replicates: Optional[range] = None

    @property
    def horizon(self) -> int:
        return self.config.horizon_days

    @property
    def population_size(self) -> int:
        return self.well.shape[1]

    def split(self) -> list["SimulationResult"]:
        """Each replicate's own result, as column views of the stack."""
        if self.replicates is None:
            return [self]
        n = self.config.population_size
        arrays = [f.name for f in fields(self) if isinstance(getattr(self, f.name), np.ndarray)]
        return [
            replace(self, seed=(*self.seed, r), replicates=None,
                    **{name: getattr(self, name)[..., k * n:(k + 1) * n] for name in arrays})
            for k, r in enumerate(self.replicates)
        ]

    def state(self, t: int) -> CompartmentState:
        return CompartmentState(
            day=t, well=self.well[t], infectious=self.infectious[t], removed=self.removed[t]
        )

    def transition(self, t: int) -> DailyTransition:
        return DailyTransition(
            day=t,
            tested=self.tested[t],
            positive=self.positive[t],
            newly_exposed=self.newly_exposed[t],
            undetected_recovered=self.undetected_recovered[t],
            cleared=self.cleared[t],
        )

    @cached_property
    def histories(self) -> list[EventHistory]:
        n, horizon = self.population_size, self.horizon
        out = []
        exited = self.undetected_recovered | (self.infectious & self.positive)
        for i in range(n):
            test_days = np.flatnonzero(self.tested[:, i])
            exposures = list(np.flatnonzero(self.newly_exposed[:, i]))
            if self.baseline_exposure[i] != NO_EXPOSURE:
                exposures.insert(0, int(self.baseline_exposure[i]))
            out.append(
                EventHistory(
                    clearance_times=tuple(np.flatnonzero(self.cleared[:, i])),
                    exposure_times=tuple(exposures),
                    infectious_end_times=tuple(np.flatnonzero(exited[:, i])),
                    test_times=tuple(test_days),
                    test_results=tuple(self.positive[test_days, i]),
                )
            )
        return out

    def true_prevalence(self) -> np.ndarray:
        """Prevalence among the non-removed population, per day (nan when empty)."""
        inf = self.infectious.sum(axis=1).astype(float)
        nonrem = (self.well | self.infectious).sum(axis=1).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(nonrem > 0, inf / np.maximum(nonrem, 1), np.nan)

    def panel(self):
        from .estimators import Panel

        return Panel.from_simulation(self)


def replicate_bytes(config: ScenarioConfig) -> int:
    """Bytes one replicate holds while it is simulated: per individual, the
    boolean histories (``T + 2`` days of the three compartments, ``T + 1`` of
    the five transitions) and ten 8-byte vectors of schedule state and draws."""
    return (8 * config.horizon_days + 11 + 10 * 8) * config.population_size


def _stream_filler(stack: list[dict[str, np.random.Generator]], purpose: str, units: int):
    """A day's ``purpose`` draws for a stack: block ``k`` of one reused buffer, ``units``
    long, from replicate ``k``'s stream."""
    buffer = np.empty(len(stack) * units)
    blocks = [(streams[purpose].random, buffer[k * units:(k + 1) * units])
              for k, streams in enumerate(stack)]

    def draw() -> np.ndarray:
        for random, out in blocks:
            random(out=out)
        return buffer

    return draw


def simulate(config: ScenarioConfig, seed=None, replicates: Optional[range] = None
             ) -> SimulationResult:
    """Run one replicate, or a stack of them; deterministic given (config, seed).

    With ``replicates``, ``seed`` (default ``config.seed``) is a prefix and
    replicate ``r`` runs from seed ``(*seed, r)``; ``split()`` of the result
    gives each one, identical to ``simulate(config, seed=(*seed, r))``.
    """
    seed = config.seed if seed is None else seed
    if replicates is None:
        seeds = [seed]
    else:
        seed = seed_prefix(seed)
        seeds = [(*seed, r) for r in replicates]
    stack = [_purpose_streams(s) for s in seeds]
    n = config.population_size * len(stack)
    horizon = config.horizon_days
    regimen = config.regimen
    clustered = regimen.kind == "clustered"
    # block k's clusters are numbered from k * n_clusters, so none spans two replicates
    n_clusters = config.n_clusters * len(stack)
    cluster_ids = np.repeat(np.arange(n_clusters), config.cluster_size)

    well = np.zeros((horizon + 2, n), dtype=bool)
    infectious = np.zeros((horizon + 2, n), dtype=bool)
    removed = np.zeros((horizon + 2, n), dtype=bool)
    tested = np.zeros((horizon + 1, n), dtype=bool)
    positive = np.zeros((horizon + 1, n), dtype=bool)
    newly_exposed = np.zeros((horizon + 1, n), dtype=bool)
    undet_rec = np.zeros((horizon + 1, n), dtype=bool)
    cleared = np.zeros((horizon + 1, n), dtype=bool)

    initial = [_draw_initial(config, streams["init"]) for streams in stack]
    infected0 = np.concatenate([infected for infected, _ in initial])
    exposure_day = np.concatenate([exposure for _, exposure in initial])
    baseline_exposure = exposure_day.copy()
    infectious[0] = infected0
    well[0] = ~infected0
    n_exposures = infected0.astype(np.int64)

    # Schedule state; rotation staggers first tests uniformly over one cycle.
    last_test = np.zeros(n, dtype=np.int64)
    has_tested = np.zeros(n, dtype=bool)
    last_clear = np.zeros(n, dtype=np.int64)
    pending_clear = np.full(n, -1, dtype=np.int64)
    base_kind = regimen.base.kind if clustered else regimen.kind
    units = config.n_clusters if clustered else config.population_size  # per replicate
    if base_kind == "rotation":
        tau = (regimen.base if clustered else regimen).rotation
        first_due = np.concatenate([streams["init"].integers(1, tau + 1, size=units)
                                    for streams in stack])
    else:
        first_due = None
    clu_last_test = np.zeros(n_clusters, dtype=np.int64)
    clu_has_tested = np.zeros(n_clusters, dtype=bool)

    draw_testing = _stream_filler(stack, "testing", units)
    draw_results = _stream_filler(stack, "results", config.population_size)
    draw_ext = _stream_filler(stack, "exposure_ext", config.population_size)
    draw_clu = _stream_filler(stack, "exposure_cluster", config.population_size)
    hazard_table = config.hazard.external.table(horizon)
    eta = config.tests.sensitivity
    nu = config.tests.specificity
    overlays = regimen.overlays
    # the symptomatic overlay is the only reader of the overlay stream
    draw_overlay = (_stream_filler(stack, "overlay", config.population_size)
                    if overlays.symptomatic_probability > 0 else None)
    sympt_pending = np.zeros(n, dtype=bool)
    trace_pending = np.zeros(n, dtype=bool)

    # Back-dated baseline episodes may recover before any transition runs.
    rec_days = config.undetected_recovery_days
    if rec_days is not None:
        day0_rec = infectious[0] & (exposure_day + rec_days <= 0)
        undet_rec[0] = day0_rec
        well[1] = well[0] | day0_rec
        infectious[1] = infectious[0] & ~day0_rec
    else:
        well[1] = well[0]
        infectious[1] = infectious[0]
    removed[1] = removed[0]

    for t in range(1, horizon + 1):
        w_t, i_t, r_t = well[t], infectious[t], removed[t]
        nonrem = w_t | i_t

        # 1. test selection
        u_test = draw_testing()
        if clustered:
            p_clu = probability_vector(
                regimen, t, clu_last_test, clu_has_tested, np.zeros(n_clusters, dtype=np.int64),
                first_due,
            )
            fired = u_test < p_clu
            chosen = fired[cluster_ids]
        else:
            p_ind = probability_vector(regimen, t, last_test, has_tested, last_clear, first_due)
            chosen = u_test < p_ind
        forced = (sympt_pending | trace_pending) & nonrem
        tested[t] = nonrem & (chosen | forced)
        sympt_pending[:] = False
        trace_pending[:] = False

        # 2. test results
        u_res = draw_results()
        if config.sensitivity_curve is not None:
            eta_vec = config.sensitivity_curve.value(t - exposure_day)
        else:
            eta_vec = eta
        p_pos = np.where(i_t, eta_vec, 1.0 - nu)
        positive[t] = tested[t] & (u_res < p_pos)
        pending_clear[positive[t]] = t + config.removal_duration_days

        # 3. exposures (positives are isolated that evening and skip exposure).
        # The cluster channel only drives first-ever exposures; re-exposures
        # come from outside at the reduced rate.
        u_ext = draw_ext()
        u_clu = draw_clu()
        p_ext = hazard_table[t - last_clear] * np.where(
            n_exposures >= 1, config.hazard.repeat_exposure_multiplier, 1.0
        )
        inf_per_cluster = np.bincount(cluster_ids, weights=i_t, minlength=n_clusters)
        p_clu_exp = np.minimum(config.hazard.within_cluster_rate * inf_per_cluster[cluster_ids], 1.0)
        cluster_hit = (n_exposures == 0) & (u_clu < p_clu_exp)
        exposed = (w_t & ~positive[t]) & ((u_ext < p_ext) | cluster_hit)
        newly_exposed[t] = exposed
        exposure_day[exposed] = t
        n_exposures[exposed] += 1
        if draw_overlay is not None:
            sympt_pending = exposed & (draw_overlay() < overlays.symptomatic_probability)

        # 4. undetected recoveries
        if rec_days is not None:
            undet_rec[t] = i_t & (t - exposure_day >= rec_days) & ~positive[t]

        # 5. clearances
        clr = r_t & (pending_clear == t)
        cleared[t] = clr
        last_clear[clr] = t

        # 6. compartment update
        well[t + 1] = (w_t | undet_rec[t] | clr) & ~(exposed | positive[t])
        infectious[t + 1] = (i_t | exposed) & ~(undet_rec[t] | positive[t])
        removed[t + 1] = (r_t | positive[t]) & ~clr

        # 7. schedule-state updates and next-day overlays
        last_test[tested[t]] = t
        has_tested |= tested[t]
        if clustered:
            clu_fired = fired
            clu_last_test[clu_fired] = t
            clu_has_tested |= clu_fired
        if overlays.contact_tracing:
            trace_pending = apply_contact_tracing(
                positive[t], cluster_ids, well[t + 1] | infectious[t + 1]
            )

    return SimulationResult(
        config=config,
        seed=seed,
        well=well[: horizon + 1],
        infectious=infectious[: horizon + 1],
        removed=removed[: horizon + 1],
        tested=tested,
        positive=positive,
        newly_exposed=newly_exposed,
        undetected_recovered=undet_rec,
        cleared=cleared,
        baseline_exposure=baseline_exposure,
        replicates=replicates,
    )
