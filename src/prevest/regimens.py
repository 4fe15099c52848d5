"""Testing-policy engine.

A :class:`RegimenConfig` declares *when* non-removed individuals get tested;
the engine turns an individual's observable schedule state into a per-day
testing probability.  It is purely declarative: randomness is injected by
the caller.  The simulator draws tests from :func:`probability_vector`, and
:func:`next_test_pmf` chains the same daily probabilities into the
next-test-time laws that make up schedule matrices, so both follow one law.

Built-in kinds
--------------
simple-random    test each day with fixed probability ``p``
max-gap          quadratic testing hazard ``((t - z) / gap)^2`` in the days
                 ``t - z`` since the last test or clearance ``z``, forced at
                 the cap; the very first test is uniform on
                 ``1..first_test_window``
once-per-period  exactly one test, uniformly placed, per calendar period
                 (re-entrants are tested uniformly in the rest of the period)
min-max          max-gap with tests forbidden less than ``min_gap`` days
                 after the previous test
rotation         deterministic test every ``rotation`` days
clustered        apply a base regimen to whole clusters instead of
                 individuals
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import ConfigError, check_field_types

KINDS = ("simple-random", "max-gap", "once-per-period", "min-max", "rotation", "clustered")


@dataclass(frozen=True)
class Overlays:
    """Extra forced tests layered on a base regimen by the simulator."""

    symptomatic_probability: float = 0.0  # chance of a forced test on the first infectious day
    contact_tracing: bool = False         # clustermates of a positive are tested the next day

    def __post_init__(self):
        check_field_types(self)
        if not (0.0 <= self.symptomatic_probability <= 1.0):
            raise ConfigError(
                f"symptomatic probability must be in [0, 1], got {self.symptomatic_probability}"
            )


@dataclass(frozen=True)
class RegimenConfig:
    kind: str
    p: Optional[float] = None
    gap: Optional[int] = None
    min_gap: int = 0
    first_test_window: Optional[int] = None
    period: Optional[int] = None
    rotation: Optional[int] = None
    base: Optional["RegimenConfig"] = None
    overlays: Overlays = field(default_factory=Overlays)

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in KINDS:
            raise ConfigError(f"unknown regimen kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "simple-random":
            if self.p is None or not (0.0 <= self.p <= 1.0):
                raise ConfigError(f"simple-random needs p in [0, 1], got {self.p}")
        elif self.kind in ("max-gap", "min-max"):
            if self.gap is None or self.gap < 1:
                raise ConfigError(f"{self.kind} needs gap >= 1, got {self.gap}")
            if self.min_gap < 0 or (self.kind == "min-max" and self.min_gap < 1):
                raise ConfigError(f"min-max needs min_gap >= 1, got {self.min_gap}")
            if self.min_gap >= self.gap:
                raise ConfigError(f"min_gap ({self.min_gap}) must be below gap ({self.gap})")
            w = self.first_test_window
            if w is not None and w < 1:
                raise ConfigError(f"first_test_window must be >= 1, got {w}")
        elif self.kind == "once-per-period":
            if self.period is None or self.period < 1:
                raise ConfigError(f"once-per-period needs period >= 1, got {self.period}")
        elif self.kind == "rotation":
            if self.rotation is None or self.rotation < 1:
                raise ConfigError(f"rotation needs rotation >= 1, got {self.rotation}")
        elif self.kind == "clustered":
            if self.base is None:
                raise ConfigError("clustered regimen needs a base regimen")
            if self.base.kind == "clustered":
                raise ConfigError("clustered regimens cannot nest")

    @property
    def window(self) -> int:
        """Uniform first-test window for gap-based regimens (defaults to the gap)."""
        if self.first_test_window is not None:
            return self.first_test_window
        return self.gap if self.gap is not None else 1

    # -- constructors ---------------------------------------------------

    @staticmethod
    def simple_random(p: float, overlays: Overlays = Overlays()) -> "RegimenConfig":
        return RegimenConfig(kind="simple-random", p=p, overlays=overlays)

    @staticmethod
    def max_gap(
        gap: int, first_test_window: int | None = None, overlays: Overlays = Overlays()
    ) -> "RegimenConfig":
        return RegimenConfig(
            kind="max-gap", gap=gap, first_test_window=first_test_window, overlays=overlays
        )

    @staticmethod
    def min_max(
        gap: int,
        min_gap: int,
        first_test_window: int | None = None,
        overlays: Overlays = Overlays(),
    ) -> "RegimenConfig":
        return RegimenConfig(
            kind="min-max",
            gap=gap,
            min_gap=min_gap,
            first_test_window=first_test_window,
            overlays=overlays,
        )

    @staticmethod
    def once_per_period(period: int, overlays: Overlays = Overlays()) -> "RegimenConfig":
        return RegimenConfig(kind="once-per-period", period=period, overlays=overlays)

    @staticmethod
    def rotation_every(tau: int, overlays: Overlays = Overlays()) -> "RegimenConfig":
        return RegimenConfig(kind="rotation", rotation=tau, overlays=overlays)

    @staticmethod
    def clustered(base: "RegimenConfig") -> "RegimenConfig":
        return RegimenConfig(kind="clustered", base=base, overlays=base.overlays)


@dataclass(frozen=True)
class SchedulingContext:
    """Observable schedule state of one unit (individual or cluster) on one day.

    ``last_test_day`` / ``last_clearance_day`` are ``None`` when no real
    event has occurred (the implicit baseline events).  ``first_test_day``
    carries a pre-assigned initial test day where a regimen staggers starts
    (rotation); it is ignored once a real event exists.
    """

    day: int
    last_test_day: Optional[int] = None
    last_clearance_day: Optional[int] = None
    in_nonremoved: bool = True
    first_test_day: Optional[int] = None

    def __post_init__(self):
        if self.last_test_day is not None and not self.last_test_day < self.day:
            raise ValueError(f"last test day {self.last_test_day} not before day {self.day}")
        if self.last_clearance_day is not None and not self.last_clearance_day < self.day:
            raise ValueError(
                f"last clearance day {self.last_clearance_day} not before day {self.day}"
            )


def period_start(day: int, period: int) -> int:
    return ((day - 1) // period) * period + 1


def period_end(day: int, period: int) -> int:
    return period_start(day, period) + period - 1


def test_probability(config: RegimenConfig, ctx: SchedulingContext) -> float:
    """Probability the unit described by ``ctx`` is tested today under the base regimen.

    Overlays (symptomatic testing, contact tracing) are applied by the
    simulator on top of this, not here.
    """
    if not ctx.in_nonremoved:
        raise ValueError("test_probability is only defined for non-removed units")
    day = ctx.day
    z_test = ctx.last_test_day
    z_clear = ctx.last_clearance_day

    if config.kind == "clustered":
        return test_probability(config.base, ctx)

    if config.kind == "simple-random":
        return float(config.p)

    if config.kind == "rotation":
        tau = config.rotation
        if z_test is None and z_clear is None:
            due = ctx.first_test_day if ctx.first_test_day is not None else tau
        else:
            due = max(z_test if z_test is not None else 0, z_clear if z_clear is not None else 0) + tau
        return 1.0 if day == due else 0.0

    if config.kind == "once-per-period":
        start = period_start(day, config.period)
        eligible = (
            z_test is None
            or z_test < start
            or (z_clear is not None and z_clear > z_test)
        )
        if not eligible:
            return 0.0
        remaining = period_end(day, config.period) - day + 1
        return 1.0 / remaining

    # max-gap / min-max
    if z_test is None and z_clear is None:
        # Sequential form of a uniform first test on days 1..window.
        w = config.window
        return 1.0 if day > w else 1.0 / (w - day + 1)
    if config.min_gap and z_test is not None and day - z_test < config.min_gap:
        return 0.0
    z = max(z_test if z_test is not None else 0, z_clear if z_clear is not None else 0)
    ratio = (day - z) / config.gap
    return min(ratio * ratio, 1.0)


test_probability.__test__ = False  # keep pytest from collecting the op by its name


def probability_vector(
    config: RegimenConfig,
    day: int,
    last_test: np.ndarray,
    has_tested: np.ndarray,
    last_clear: np.ndarray,
    first_due: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorised ``test_probability`` over units; semantics match the scalar form.

    ``last_test`` / ``last_clear`` hold 0 where no real event exists
    (``has_tested`` disambiguates the test clock).
    """
    n = last_test.shape[0]
    if config.kind == "clustered":
        return probability_vector(config.base, day, last_test, has_tested, last_clear, first_due)

    if config.kind == "simple-random":
        return np.full(n, float(config.p))

    if config.kind == "rotation":
        tau = config.rotation
        has_event = has_tested | (last_clear > 0)
        due = np.where(
            has_event,
            np.maximum(last_test, last_clear) + tau,
            first_due if first_due is not None else tau,
        )
        return (due == day).astype(float)

    if config.kind == "once-per-period":
        start = period_start(day, config.period)
        eligible = ~has_tested | (last_test < start) | (last_clear > last_test)
        remaining = period_end(day, config.period) - day + 1
        return np.where(eligible, 1.0 / remaining, 0.0)

    # max-gap / min-max
    never = ~has_tested & (last_clear == 0)
    w = config.window
    p_first = 1.0 if day > w else 1.0 / (w - day + 1)
    z = np.maximum(last_test, last_clear)
    ratio = (day - z) / config.gap
    probs = np.where(never, p_first, np.minimum(ratio * ratio, 1.0))
    if config.min_gap:
        probs = np.where(has_tested & (day - last_test < config.min_gap), 0.0, probs)
    return probs


def next_test_pmf(config: RegimenConfig, stratum: int, horizon: int) -> np.ndarray:
    """Rows ``stratum .. horizon`` of a stratum's schedule matrix, under zero hazard.

    Row 0 is the law of ``min(next test day, horizon + 1)`` after a clearance
    on ``stratum`` (``stratum == 0`` is the start of surveillance); row ``k``
    is that law after a negative test on ``stratum + k``.  Columns index days
    ``0 .. horizon + 1``; the final one collects "no test by ``horizon``".
    Every row chains the daily probabilities of :func:`probability_vector`,
    the law the simulator draws tests from, with one call per day over all
    rows.

    For min-max regimens, the clearance row assumes the re-entrant's previous
    test is at least ``min_gap`` days old on the day after the clearance (true
    whenever the removal lasts at least ``min_gap - 1`` days;
    ``scenarios.KnownWeights`` rejects a config where it does not).
    """
    if not 0 <= stratum <= horizon:
        raise ValueError(f"stratum {stratum} outside 0..{horizon}")
    event = np.arange(stratum, horizon + 1)
    has_tested = event > stratum
    last_test = np.where(has_tested, event, 0)
    last_clear = np.full(event.size, stratum)
    rows = np.zeros((event.size, horizon + 2))
    surv = np.ones(event.size)
    for day in range(stratum + 1, horizon + 1):
        k = day - stratum  # rows 0..k-1 follow an event before ``day``
        q = probability_vector(config, day, last_test[:k], has_tested[:k], last_clear[:k])
        rows[:k, day] = surv[:k] * q
        surv[:k] *= 1.0 - q
    rows[:, horizon + 1] = surv
    return rows
