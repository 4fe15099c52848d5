"""Confidence-interval machinery for the three estimators.

Clopper-Pearson exact binomial intervals back the test-positive rate, Wald
intervals from the weighted-count variance back the known-weight estimator,
and a bias-corrected accelerated (BCa) bootstrap over individuals backs the
estimated-weight estimator.  Bootstrap quantiles use linear interpolation
(numpy's default), since BCa endpoints are sensitive to the convention.
Every interval here is on the unrestricted prevalence scale, where the
weighted estimators are unbiased; ``scenarios.estimate_panel_series`` is the
one step that clips an endpoint to [0, 1].  The bootstrap and its jackknife
stream their resamples through the estimator a chunk of rows at a time; the
jackknife's totals are one sparse product of a block indicator and the features.

Importing the module loads no scipy: each interval imports the
``scipy.special`` functions it evaluates, and the jackknife ``scipy.sparse``,
on first use, so a run that computes no interval never loads either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .core import TestCharacteristics, check_field_types

# Byte budget of one unit-major float block of bootstrap counts in _bootstrap_totals;
# a block this size stays in L2 while the product over units reads it.
_RESAMPLE_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class IntervalSpec:
    level: float = 0.95
    bootstrap_iterations: int = 399
    jackknife_block_size: int = 10

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"confidence level must be in (0, 1), got {self.level}")
        if self.bootstrap_iterations < 1:
            raise ValueError("need at least one bootstrap iteration")
        if self.jackknife_block_size < 1:
            raise ValueError("jackknife block size must be >= 1")


def clopper_pearson(positives: int, tested: int, level: float = 0.95) -> tuple[float, float]:
    """Exact binomial interval via beta-quantile inversion (no population correction)."""
    if tested < 1:
        raise ValueError(f"need at least one test, got {tested}")
    if not 0 <= positives <= tested:
        raise ValueError(f"positives {positives} outside 0..{tested}")
    from scipy.special import betaincinv

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
    """Normal interval on the well count, mapped affinely to prevalence (unclipped)."""
    from scipy.special import ndtri

    nonremoved = n_population - removed
    if nonremoved <= 0:
        return math.nan, math.nan
    z = float(ndtri(0.5 + level / 2.0))
    half = z * math.sqrt(max(variance, 0.0))
    # prevalence = (nonremoved - w) / nonremoved is decreasing in w
    return (nonremoved - (w_hat + half)) / nonremoved, (nonremoved - (w_hat - half)) / nonremoved


@dataclass
class BcaInterval:
    lo: float
    hi: float
    point: float
    degenerate: bool = False
    bias_correction: float = 0.0   # z0
    acceleration: float = 0.0      # a
    quantile_levels: tuple[float, float] = (math.nan, math.nan)
    n_undefined: int = 0           # bootstrap and jackknife statistics that were nan


def _bootstrap_totals(features, rng: np.random.Generator, rows: int) -> np.ndarray:
    """``counts @ features`` for the next ``rows`` resamples of ``rng``, each a row of
    ``rng.integers(0, n, ...)`` draws.

    The rows are drawn and counted in chunks under ``_RESAMPLE_BLOCK_BYTES``: a
    row-major ``bincount`` of the chunk's draws (row ``b`` counts unit ``i`` into
    ``b * n + i``) is copied transposed into a unit-major float block, which the
    product over units reads contiguously.  ``Generator.integers`` draws the same
    stream in one call or in chunks of rows (pinned by a test), so no split moves a total.
    """
    n_units = features.shape[0]
    by_column = features.T
    totals = np.empty((rows, features.shape[1]))
    step = max(1, _RESAMPLE_BLOCK_BYTES // (8 * n_units))
    for first in range(0, rows, step):
        chunk = rng.integers(0, n_units, size=(min(step, rows - first), n_units))
        size = chunk.shape[0]
        chunk += (np.arange(size) * n_units)[:, None]
        flat = np.bincount(chunk.ravel(), minlength=size * n_units)
        block = np.empty((n_units, size))
        block[...] = flat.reshape(size, n_units).T
        totals[first : first + size] = (by_column @ block).T
    return totals


def _jackknife_totals(features, order: np.ndarray, size: int, column_totals: np.ndarray,
                      step: int) -> Iterator[np.ndarray]:
    """Leave-block-out totals ``column_totals - J @ features``, ``step`` blocks at a time.

    ``J`` is the blocks x units 0/1 indicator whose row ``k`` marks the units
    ``order[k * size : (k + 1) * size]``, the last block short: in CSR form its indices
    are ``order`` and its row pointer steps by ``size``.
    """
    from scipy import sparse

    n = order.size
    indicator = sparse.csr_matrix((np.ones(n), order, np.append(np.arange(0, n, size), n)),
                                  shape=(-(-n // size), n))
    by_unit = sparse.csr_matrix(features)
    for first in range(0, indicator.shape[0], step):
        totals = (indicator[first : first + step] @ by_unit).toarray()
        yield np.subtract(column_totals, totals, out=totals)


def bca_bootstrap(
    estimator,
    spec: IntervalSpec,
    seed: int,
    point: Optional[float] = None,
) -> BcaInterval:
    """BCa interval for a statistic of resampled units (whole individual histories).

    ``estimator.features`` is a units x m matrix (an ndarray or a scipy
    sparse matrix), and the statistic depends on a multiplicity row (how
    many times each unit enters a resample) only through the row's totals
    ``row @ features``; ``estimator.batch`` maps a rows x m matrix of totals
    to one statistic per row, ``estimator.chunk_rows`` at a time: each chunk is
    drawn and totalled just before its call.  The column sums of ``features``
    are the original sample.  The bias-correction constant comes from the
    fraction of the bootstrap distribution below the point estimate, the
    acceleration from a block jackknife (blocks over a seeded shuffle of the
    units, remainder in a final short block), whose totals are the column
    sums minus :func:`_jackknife_totals`' block-indicator product.  Reproducible
    bit-for-bit for a given seed: the b-th resample counts row b of a single
    seeded draw, and the shuffle comes from a second spawned stream.  With 0/1
    features every total is an integer, so the totals are exact whatever
    the summation order.  A nan statistic is dropped from every step and
    counted in ``n_undefined``.  A bootstrap distribution with no finite
    value (the interval is nan), or whose spread is within 1e-12 of its
    largest magnitude (or of 1), is degenerate and collapses to its first
    value.  The endpoints are quantiles of the unrestricted bootstrap
    distribution, never clipped.
    """
    from scipy.special import ndtr, ndtri

    features, batch = estimator.features, estimator.batch
    n_units = features.shape[0]
    column_totals = np.asarray(features.sum(axis=0), dtype=float).ravel()
    if point is None:
        point = float(batch(column_totals[None, :])[0])
    b_iter, step = spec.bootstrap_iterations, estimator.chunk_rows
    rng, jack_rng = (np.random.Generator(np.random.PCG64(stream))
                     for stream in np.random.SeedSequence(entropy=seed).spawn(2))
    thetas = np.concatenate([batch(_bootstrap_totals(features, rng, min(step, b_iter - first)))
                             for first in range(0, b_iter, step)])
    thetas = thetas[~np.isnan(thetas)]
    n_undefined = b_iter - thetas.size
    if thetas.size == 0 or np.ptp(thetas) <= 1e-12 * max(1.0, float(np.max(np.abs(thetas)))):
        value = float(thetas[0]) if thetas.size else math.nan
        return BcaInterval(lo=value, hi=value, point=point, degenerate=True,
                           n_undefined=n_undefined)

    frac = float(np.mean(thetas < point))
    frac = min(max(frac, 0.5 / thetas.size), 1.0 - 0.5 / thetas.size)
    z0 = float(ndtri(frac))

    jack = np.concatenate([batch(totals) for totals in _jackknife_totals(
        features, jack_rng.permutation(n_units), spec.jackknife_block_size, column_totals, step)])
    n_undefined += int(np.isnan(jack).sum())
    jack = jack[~np.isnan(jack)]
    centered = (jack.mean() if jack.size else 0.0) - jack
    denom = (centered**2).sum() ** 1.5
    accel = float((centered**3).sum() / (6.0 * denom)) if denom > 0 else 0.0

    alpha = 1.0 - spec.level
    shifted = z0 + ndtri(np.array([alpha / 2, 1 - alpha / 2]))
    scale = 1.0 - accel * shifted
    with np.errstate(divide="ignore", invalid="ignore"):  # the scale <= 0 side is discarded
        adjusted = np.where(scale > 0, z0 + shifted / scale, np.copysign(np.inf, shifted))
    levels = tuple(float(a) for a in ndtr(adjusted))
    lo, hi = np.quantile(thetas, levels)
    return BcaInterval(
        lo=float(lo), hi=float(hi), point=point,
        bias_correction=z0, acceleration=accel, quantile_levels=levels,
        n_undefined=n_undefined,
    )
