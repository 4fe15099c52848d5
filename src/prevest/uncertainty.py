"""Confidence-interval machinery for the three estimators.

Clopper-Pearson exact binomial intervals back the test-positive rate, Wald
intervals from the weighted-count variance back the known-weight estimator,
and a bias-corrected accelerated (BCa) bootstrap over individuals backs the
estimated-weight estimator.  Bootstrap quantiles use linear interpolation
(numpy's default), since BCa endpoints are sensitive to the convention.
Every interval here is on the unrestricted prevalence scale, where the
weighted estimators are unbiased; ``scenarios.estimate_panel_series`` is the
one step that clips an endpoint to [0, 1].  The bootstrap and its jackknife
stream their resamples through the estimator a chunk of rows at a time.

Importing the module loads no scipy: each interval imports the
``scipy.special`` functions it evaluates, and the jackknife imports
``scipy.sparse``, on first use, so a run that computes no interval never
loads either.
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


def _jackknife_blocks(n: int, spec: IntervalSpec, order: np.ndarray) -> list[np.ndarray]:
    if spec.jackknife_block_count is not None:
        return [b for b in np.array_split(order, spec.jackknife_block_count) if b.size]
    size = spec.jackknife_block_size
    return [order[i : i + size] for i in range(0, n, size)]


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


def _jackknife_totals(features, blocks: list[np.ndarray], column_totals: np.ndarray,
                      step: int) -> Iterator[np.ndarray]:
    """Leave-block-out totals, ``step`` blocks at a time: the column totals minus each
    block's own totals.

    The nonzero entries of ``features`` are sorted stably by their unit's block once
    (the blocks partition the units); a chunk's totals are then one ``bincount`` over
    its run of entries, keyed by (block, column).
    """
    from scipy import sparse

    m = features.shape[1]
    # the smallest type that holds a block number: numpy's stable sort of 8/16-bit keys is linear
    block_of = np.empty(features.shape[0], dtype=np.min_scalar_type(len(blocks)))
    block_of[np.concatenate(blocks)] = np.repeat(np.arange(len(blocks)),
                                                 [block.size for block in blocks])
    cells = sparse.coo_matrix(features)
    key = block_of[cells.row]
    order = np.argsort(key, kind="stable")
    key, column, data = key[order], cells.col[order], cells.data[order]
    del cells, order
    for first in range(0, len(blocks), step):
        rows = min(step, len(blocks) - first)
        lo, hi = np.searchsorted(key, [first, first + rows])
        totals = np.bincount((key[lo:hi].astype(np.intp) - first) * m + column[lo:hi],
                             weights=data[lo:hi], minlength=rows * m)
        totals = totals.astype(float, copy=False).reshape(rows, m)  # int64 when the run is empty
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
    sums minus the left-out block's.  Reproducible bit-for-bit for a given
    seed: the b-th resample counts row b of a single seeded draw.  With 0/1
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
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
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

    jack_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    )
    order = jack_rng.permutation(n_units)
    blocks = _jackknife_blocks(n_units, spec, order)
    jack = np.concatenate([batch(totals)
                           for totals in _jackknife_totals(features, blocks, column_totals, step)])
    jack = jack[~np.isnan(jack)]
    n_undefined += len(blocks) - jack.size
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
