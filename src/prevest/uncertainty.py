"""Confidence-interval machinery for the three estimators.

Clopper-Pearson exact binomial intervals back the test-positive rate, Wald
intervals from the weighted-count variance back the known-weight estimator,
and a bias-corrected accelerated (BCa) bootstrap over individuals backs the
estimated-weight estimator.  Bootstrap quantiles use linear interpolation
(numpy's default), since BCa endpoints are sensitive to the convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import betaincinv, ndtr, ndtri

from .core import TestCharacteristics, check_field_types

@dataclass(frozen=True)
class IntervalSpec:
    level: float = 0.95
    bootstrap_iterations: int = 399
    jackknife_block_size: int = 10
    jackknife_block_count: Optional[int] = None  # overrides the size when set

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"confidence level must be in (0, 1), got {self.level}")
        if self.bootstrap_iterations < 1:
            raise ValueError("need at least one bootstrap iteration")
        if self.jackknife_block_size < 1:
            raise ValueError("jackknife block size must be >= 1")
        if self.jackknife_block_count is not None and self.jackknife_block_count < 2:
            raise ValueError("jackknife block count must be >= 2")


def clopper_pearson(positives: int, tested: int, level: float = 0.95) -> tuple[float, float]:
    """Exact binomial interval via beta-quantile inversion (no population correction)."""
    if tested < 1:
        raise ValueError(f"need at least one test, got {tested}")
    if not 0 <= positives <= tested:
        raise ValueError(f"positives {positives} outside 0..{tested}")
    alpha = 1.0 - level
    lo = 0.0 if positives == 0 else float(betaincinv(positives, tested - positives + 1, alpha / 2))
    hi = 1.0 if positives == tested else float(
        betaincinv(positives + 1, tested - positives, 1 - alpha / 2))
    return lo, hi


def wald_ht_variance(
    weights: np.ndarray, positives: np.ndarray, tests: TestCharacteristics
) -> float:
    """Variance of the weighted well count from the tested individuals only.

    ``weights`` are the reciprocal testing probabilities of the tested
    individuals and ``positives`` their result indicators; each tested
    individual contributes (eta - Y)^2 (1 - pi) / pi^2, scaled by the squared
    reciprocal of (eta + nu - 1).
    """
    tests.require_informative()
    w = np.asarray(weights, dtype=float)
    y = np.asarray(positives, dtype=float)
    if np.any(w < 1.0) or not np.all(np.isfinite(w)):
        raise ValueError("reciprocal probabilities must be finite and >= 1")
    pi = 1.0 / w
    eta = tests.sensitivity
    contrib = (eta - y) ** 2 * (1.0 - pi) / pi**2
    return float(contrib.sum() / tests.youden**2)


def wald_prevalence_interval(
    w_hat: float,
    variance: float,
    n_population: int,
    removed: int,
    level: float = 0.95,
) -> tuple[float, float]:
    """Normal interval on the well count, mapped affinely to prevalence and clipped."""
    nonremoved = n_population - removed
    if nonremoved <= 0:
        return math.nan, math.nan
    z = float(ndtri(0.5 + level / 2.0))
    half = z * math.sqrt(max(variance, 0.0))
    # prevalence = (nonremoved - w) / nonremoved is decreasing in w
    lo = (nonremoved - (w_hat + half)) / nonremoved
    hi = (nonremoved - (w_hat - half)) / nonremoved
    return max(lo, 0.0), min(hi, 1.0)


@dataclass
class BcaInterval:
    lo: float
    hi: float
    point: float
    degenerate: bool = False
    bias_correction: float = 0.0   # z0
    acceleration: float = 0.0      # a
    quantile_levels: tuple[float, float] = (math.nan, math.nan)


def _jackknife_blocks(n: int, spec: IntervalSpec, order: np.ndarray) -> list[np.ndarray]:
    if spec.jackknife_block_count is not None:
        return [b for b in np.array_split(order, spec.jackknife_block_count) if b.size]
    size = spec.jackknife_block_size
    return [order[i : i + size] for i in range(0, n, size)]


def _resample_counts(rng: np.random.Generator, b_iter: int, n_units: int) -> np.ndarray:
    """Multiplicity matrix of ``b_iter`` resamples, each a row of one seeded index draw.

    The counts are laid out unit-major (``n_units x b_iter``) and returned as
    the ``b_iter x n_units`` transposed view, so the estimator's products over
    units read them contiguously.
    """
    draws = rng.integers(0, n_units, size=(b_iter, n_units))
    draws *= b_iter
    draws += np.arange(b_iter)[:, None]  # row b counts unit i into i * b_iter + b
    flat = np.bincount(draws.ravel(), minlength=n_units * b_iter)
    del draws
    return flat.reshape(n_units, b_iter).astype(float).T


def bca_bootstrap(
    estimator,
    n_units: int,
    spec: IntervalSpec,
    seed: int,
    point: Optional[float] = None,
    clip: Optional[tuple[float, float]] = (0.0, 1.0),
) -> BcaInterval:
    """BCa interval for a statistic of resampled units (whole individual histories).

    ``estimator.batch`` maps a rows x units multiplicity matrix (how many
    times each unit enters each resample) to one statistic per row; the
    all-ones row is the original sample.  The bias-correction constant
    comes from the fraction of the bootstrap distribution below the point
    estimate, the acceleration from a block jackknife (blocks over a seeded
    shuffle of the units, remainder in a final short block), whose rows are
    ones with zeros on the left-out block.  Reproducible bit-for-bit for a
    given seed: the b-th resample counts row b of a single seeded draw.
    A bootstrap distribution whose spread is within 1e-12 of its largest
    magnitude (or of 1) is degenerate and collapses to its first value.
    """
    batch = estimator.batch
    if point is None:
        point = float(batch(np.ones((1, n_units)))[0])
    b_iter = spec.bootstrap_iterations
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    thetas = batch(_resample_counts(rng, b_iter, n_units))

    if np.ptp(thetas) <= 1e-12 * max(1.0, float(np.max(np.abs(thetas)))):
        value = float(thetas[0])
        return BcaInterval(lo=value, hi=value, point=point, degenerate=True)

    frac = float(np.mean(thetas < point))
    frac = min(max(frac, 0.5 / b_iter), 1.0 - 0.5 / b_iter)
    z0 = float(ndtri(frac))

    jack_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    )
    order = jack_rng.permutation(n_units)
    blocks = _jackknife_blocks(n_units, spec, order)
    keep = np.ones((n_units, len(blocks)))  # unit-major, like the resample counts
    for column, block in enumerate(blocks):
        keep[block, column] = 0.0
    jack = batch(keep.T)
    centered = jack.mean() - jack
    denom = (centered**2).sum() ** 1.5
    accel = float((centered**3).sum() / (6.0 * denom)) if denom > 0 else 0.0

    alpha = 1.0 - spec.level
    shifted = z0 + ndtri(np.array([alpha / 2, 1 - alpha / 2]))
    scale = 1.0 - accel * shifted
    with np.errstate(divide="ignore", invalid="ignore"):  # the scale <= 0 side is discarded
        adjusted = np.where(scale > 0, z0 + shifted / scale, np.copysign(np.inf, shifted))
    levels = tuple(float(a) for a in ndtr(adjusted))
    lo, hi = np.quantile(thetas, levels)
    if clip is not None:
        lo, hi = max(lo, clip[0]), min(hi, clip[1])
    return BcaInterval(
        lo=float(lo), hi=float(hi), point=point,
        bias_correction=z0, acceleration=accel, quantile_levels=levels,
    )
