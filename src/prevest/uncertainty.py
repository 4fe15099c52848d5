"""Confidence-interval machinery for the three estimators.

Clopper-Pearson exact binomial intervals back the test-positive rate, Wald
intervals from the weighted-count variance back the known-weight estimator,
and a bias-corrected accelerated (BCa) bootstrap over individuals backs the
estimated-weight estimator.  Bootstrap quantiles use linear interpolation
(numpy's default), since BCa endpoints are sensitive to the convention.
Every interval here is on the unrestricted prevalence scale, where the
weighted estimators are unbiased; ``scenarios.estimate_panel_series`` is the
one step that clips an endpoint to [0, 1].  The bootstrap and its jackknife
stream their resamples through the estimator a chunk of rows at a time, and
each chunk's totals take one counting pass: ``np.add.at`` of the draws into a
units x rows count block, then one product with the features, for the
bootstrap; a ``bincount`` of (block, column) keys over the features' nonzeros
for the jackknife.

Importing the module loads no scipy: each interval imports the
``scipy.special`` functions it evaluates on first use, so a run that computes
no interval never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .core import TestCharacteristics, check_field_types

# Byte budget of one chunk of int64 draws in _bootstrap_totals; its unit-major count
# block is no larger, and stays in L2 while the product over units reads it.
_RESAMPLE_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class IntervalSpec:
    """BCa settings.  ``jackknife_block_size=None`` sizes the jackknife blocks by the
    sample (:meth:`block_size`); an int fixes them."""

    level: float = 0.95
    bootstrap_iterations: int = 399
    jackknife_block_size: Optional[int] = None

    def __post_init__(self):
        check_field_types(self)
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"confidence level must be in (0, 1), got {self.level}")
        if self.bootstrap_iterations < 1:
            raise ValueError("need at least one bootstrap iteration")
        if self.jackknife_block_size is not None and self.jackknife_block_size < 1:
            raise ValueError("jackknife block size must be >= 1")

    def block_size(self, n_units: int) -> int:
        """The jackknife block size over ``n_units`` units: the fixed size, or by default
        max(10, ceil(n / 200)), at most 200 blocks and size 10 for every n <= 2000."""
        if self.jackknife_block_size is not None:
            return self.jackknife_block_size
        return max(10, -(-n_units // 200))


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


def wald_prevalence_interval(estimate: float, variance: float, nonremoved: int,
                             level: float = 0.95) -> tuple[float, float]:
    """Normal interval on the well count, mapped affinely to prevalence (unclipped):
    ``estimate -+ z sqrt(variance) / nonremoved``, where ``estimate`` is the unclipped
    prevalence and ``variance`` that of the well count among the ``nonremoved``."""
    from scipy.special import ndtri

    if nonremoved <= 0:
        return math.nan, math.nan
    z = float(ndtri(0.5 + level / 2.0))
    half = z * math.sqrt(max(variance, 0.0)) / nonremoved
    return estimate - half, estimate + half


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

    The rows are drawn and counted in chunks under ``_RESAMPLE_BLOCK_BYTES``.  A chunk's
    draws are keyed unit-major in place (unit ``i`` of row ``b`` counts into
    ``i * rows + b``), so one ``np.add.at`` of ones counts them straight into the units x
    rows block, in the features' dtype, that the product over units reads contiguously:
    no transposed copy and no int64 count array.  For 0/1 float32 features every count
    and total is an integer at most n <= 2^24, so exact.
    ``Generator.integers`` draws the same stream in one call or in chunks of rows
    (pinned by a test), so no split moves a total.
    """
    n_units = features.shape[0]
    by_column = features.T
    totals = np.empty((rows, features.shape[1]))
    one = features.dtype.type(1)  # a Python 1 would send add.at down its slow casting loop
    step = max(1, _RESAMPLE_BLOCK_BYTES // (8 * n_units))
    for first in range(0, rows, step):
        size = min(step, rows - first)
        keys = rng.integers(0, n_units, size=(size, n_units))
        keys *= size
        keys += np.arange(size)[:, None]
        block = np.zeros((n_units, size), dtype=features.dtype)
        np.add.at(block.reshape(-1), keys.reshape(-1), one)
        totals[first : first + size] = (by_column @ block).T
    return totals


def _jackknife_totals(features, order: np.ndarray, size: int, column_totals: np.ndarray,
                      step: int) -> Iterator[np.ndarray]:
    """Leave-block-out totals, ``step`` blocks at a time: ``column_totals`` minus each
    block's totals, where block ``k`` holds the units ``order[k * size : (k + 1) * size]``
    (the last block short).

    Each nonzero of ``features`` is keyed by its unit's block and its column, so a chunk's
    block totals are one ``bincount`` of the keys that fall in it.  An ndarray's nonzeros
    come from ``np.nonzero``; a scipy sparse matrix is read through its CSC arrays (no
    copy for the evaluator's CSC features), each column index repeated over its stored
    entries.  Each chunk scans the keys once and holds ``step`` x m totals, so a day whose
    blocks fit one chunk costs O(nnz + blocks x m).
    """
    n, m = features.shape
    block = np.empty(n, dtype=np.intp)
    block[order] = np.arange(n) // size
    if isinstance(features, np.ndarray):
        units, columns = np.nonzero(features)
        values = features[units, columns]
    else:
        by_column = features.tocsc()
        units, values = by_column.indices, by_column.data
        columns = np.repeat(np.arange(m), np.diff(by_column.indptr))
    keys = block[units] * m + columns
    n_blocks = -(-n // size)
    for first in range(0, n_blocks, step):
        lo, hi = first * m, min(first + step, n_blocks) * m
        inside = (keys >= lo) & (keys < hi)
        totals = np.bincount(keys[inside] - lo, values[inside], minlength=hi - lo)
        # float even for a chunk of units without nonzeros, where bincount returns ints
        totals = totals.astype(float, copy=False).reshape(-1, m)
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
    acceleration from a block jackknife (blocks of ``spec.block_size(n)`` over a
    seeded shuffle of the units, remainder in a final short block; at most 200
    blocks by default), whose totals are the column sums minus each block's
    (:func:`_jackknife_totals`).  Reproducible bit-for-bit for a given seed: the
    b-th resample counts row b of a single seeded draw, and the shuffle comes
    from a second spawned stream.  With 0/1 features every total is an integer,
    so the totals are exact whatever the summation order, in float32 too up to
    2^24 units.  A nan statistic is dropped from every step and
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
        features, jack_rng.permutation(n_units), spec.block_size(n_units), column_totals, step)])
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
