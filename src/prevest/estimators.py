"""Prevalence estimators for longitudinal testing data.

Three estimators of prevalence in the non-removed population are provided: the
test-positive rate (TPR), adjusted for test characteristics, and inverse-probability-
of-testing weighted estimates of the well count with *known* (``ht_known``) or
*nonparametrically estimated* (``ht_estimated``) testing probabilities.

The weighted estimators work stratum by stratum, where a stratum ``c``
collects the non-removed individuals whose last clearance was on day ``c``.
The probability ``pi_c`` that a currently-well member is tested on day ``t``
is identified from the stratum's stochastic upper-triangular schedule matrix
(:class:`ScheduleMatrix`).  Both estimators share one per-stratum day sum: the
well count is the members assumed well plus

    sum_c (neg_c - (1 - eta) tested_c) / ((eta + nu - 1) pi_c)

with ``neg_c`` tested negatives and ``tested_c`` tested members.  ``ht_estimated``
counts small or untested strata whole instead, the low-incidence behaviour that
keeps noisy reciprocal weights from exploding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import EventHistory, TestCharacteristics
from .regimens import RegimenConfig, next_test_pmf

if TYPE_CHECKING:
    from scipy import sparse

_EPS = 1e-12
# Strata with fewer members are counted whole by ht-e (the headcount fallback).
MIN_STRATUM_SIZE = 10
# Byte budget of the resample rows in one DayEvaluator.batch call: their totals plus the
# widest stratum's packed solve block (chunk_rows).
_SOLVE_BLOCK_BYTES = 16 << 20
# Byte budget of one (strata x (span + 1) x span) array in _probability_table; a table
# is built once per panel or run, so a small budget costs little time and keeps peak RSS down.
_TABLE_BLOCK_BYTES = 1 << 20


def _count_dtype(n_units: int) -> type:
    """The dtype of 0/1 resampling features over ``n_units`` units: float32 when it is exact
    for them, since a resample of n draws has integer counts and totals of at most n, and
    float32 holds every integer up to 2^24; float64 beyond."""
    return np.float32 if n_units <= 1 << 24 else np.float64


class DegenerateStratumError(ValueError):
    """The schedule matrix cannot identify a positive testing probability."""


# ---------------------------------------------------------------------------
# Panel: dense observable arrays


@dataclass
class Panel:
    """Day-by-individual view of the observable testing record.

    All estimator inputs are derived from observables only: test days,
    results, and clearance days.  Every array is day-major, shaped
    ``(horizon + 1, n)``, so a day's pass reads one contiguous row:
    ``last_clear[t, i]`` is individual ``i``'s last clearance day strictly
    before ``t`` (0 when none), ``next_test[s, i]`` the first test day strictly
    after ``s`` (``horizon + 2`` when none).  ``assumed_well`` marks days on
    which an individual is counted as well by fiat (post-isolation testing
    exemptions) instead of being weighted.
    """

    horizon: int
    tested: np.ndarray
    positive: np.ndarray
    removed: np.ndarray
    cleared: np.ndarray
    last_clear: np.ndarray
    next_test: np.ndarray
    assumed_well: np.ndarray
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_individuals(self) -> int:
        return self.tested.shape[1]

    def stratum_after(self, s: int) -> np.ndarray:
        """Last clearance day <= s, i.e. the stratum in force on day s + 1."""
        return np.where(self.cleared[s], s, self.last_clear[s])

    def day_strata(self, day: int) -> np.ndarray:
        """The strata in force on ``day``: ascending last-clearance days with a member
        who is non-removed and not assumed well on it (a headcount is never negative)."""
        if not 1 <= day <= self.horizon:
            raise ValueError(f"day {day} outside 1..{self.horizon}")
        return self.day_counts.members[day, :day].nonzero()[0]

    def day_record(self, day: int, kind: str, unclipped: float = math.nan,
                   n_fallback_strata: int = 0) -> "DayEstimate":
        """The ``kind`` record of ``day`` with its test counts among the non-removed."""
        counts = self.day_counts
        return DayEstimate(day, kind, unclipped=unclipped, n_fallback_strata=n_fallback_strata,
                           n_tests=int(counts.n_tests[day]), n_positive=int(counts.n_positive[day]))

    @cached_property
    def contribution_index(self) -> "ContributionIndex":
        """Every next-test cell of the panel, built on first use in one pass over
        the (horizon + 1) x n arrays and shared by all days."""
        days = np.arange(self.horizon + 1, dtype=self.last_clear.dtype)[:, None]
        after = np.where(self.cleared, days, self.last_clear)
        keep = (after == days) | (self.tested & ~self.positive)
        s, individual = np.nonzero(keep)  # individuals ascend within each day s
        c = after[s, individual].astype(np.int64)
        next_test = self.next_test[s, individual].astype(np.int64)
        key = c * (self.horizon + 1) + s
        # the smallest type that holds every cell key: numpy's stable sort of 16-bit keys is linear
        dtype = np.min_scalar_type((self.horizon + 1) ** 2 * (self.horizon + 3))
        order = np.argsort((key * (self.horizon + 3) + next_test).astype(dtype), kind="stable")
        return ContributionIndex(key=key[order], offset=(s - c)[order],
                                 next_test=next_test[order], individual=individual[order])

    @cached_property
    def day_counts(self) -> "DayCounts":
        """Per-(day, stratum) headcounts, built on first use in one ``bincount`` over the
        (horizon + 1) x n cells keyed by (day t, ``last_clear[t, i]``, cell kind)."""
        size = self.horizon + 1
        # int32 holds every key: a horizon past it would need a bincount of over 16 GiB
        key = np.arange(size, dtype=np.int32)[:, None] * size + self.last_clear
        key *= 8
        flags = self.assumed_well.view(np.uint8) * np.uint8(4)
        flags += self.tested.view(np.uint8) * np.uint8(2)
        flags += self.positive.view(np.uint8)
        key += flags
        key[self.removed] = size * size * 8  # one bin past the table for every removed cell
        cells = np.bincount(key.ravel(), minlength=size * size * 8 + 1)[:-1]
        # cells[t, c, assumed well, 2 tested + positive], over the non-removed
        cells = cells.reshape(size, size, 2, 4)
        per_day = cells.sum(axis=1)
        return DayCounts(*(table.astype(float) for table in _class_counts(cells[:, :, 0])),
                         nonremoved=per_day.sum(axis=(1, 2)), assumed=per_day[:, 1].sum(axis=1),
                         n_tests=per_day[:, :, 2:].sum(axis=(1, 2)),
                         n_positive=per_day[:, :, 1::2].sum(axis=(1, 2)))

    def _table(self, key, build):
        """The table cached under ``key``, built by ``build()`` on first use."""
        if key not in self._tables:
            self._tables[key] = build()
        return self._tables[key]

    def point_probabilities(self, specificity: float) -> np.ndarray:
        """``probs[c, t]``: the estimated testing probability of stratum ``c`` on day
        ``t``, for the panel as observed; built on first use per specificity."""
        index, horizon = self.contribution_index, self.horizon
        return self._table(("probs", specificity), lambda: _probability_table(
            np.unique(index.key // (horizon + 1)), horizon, specificity,
            lambda chunk, span: index.row_counts(chunk, span, horizon)))

    def known_terms(self, tests: TestCharacteristics) -> np.ndarray:
        """``[t, c]`` planes of ``ht-k``'s per-stratum numerator ``neg_c - (1 - eta)
        tested_c`` and variance factor ``eta^2 neg_c + (1 - eta)^2 pos_c``."""
        counts, eta = self.day_counts, tests.sensitivity
        return self._table(("known", tests), lambda: np.stack([
            _numerator(counts.tested, counts.negative, tests),
            eta**2 * counts.negative + (1.0 - eta) ** 2 * (counts.tested - counts.negative)]))

    def estimated_terms(self, tests: TestCharacteristics,
                        min_stratum_size: int) -> tuple[np.ndarray, np.ndarray]:
        """``[t, c]`` planes of the members and ``ht-e``'s probs and terms, and of its need
        and fallback flags (:func:`_stratum_terms`), so a day's point estimate sums its row."""
        counts = self.day_counts

        def build():
            # first, so that no term array is alive while the solve sets the peak memory
            table = self.point_probabilities(tests.specificity).T
            need, probs, term, fallback = _stratum_terms(
                counts.members, counts.tested, _numerator(counts.tested, counts.negative, tests),
                lambda need: np.where(need, table, 0.0), min_stratum_size, tests)
            return np.stack([counts.members, probs, term]), np.stack([need, fallback])

        return self._table(("estimated", tests, min_stratum_size), build)

    @staticmethod
    def _derived(horizon: int, tested, positive, removed, cleared, assumed_well=None) -> "Panel":
        """The panel of day-major ``(horizon + 1) x n`` event arrays, which it keeps
        without copying, with ``last_clear`` and ``next_test`` derived row by row."""
        n = tested.shape[1]
        last_clear = np.zeros((horizon + 1, n), dtype=np.int32)
        for t in range(1, horizon + 1):
            last_clear[t] = np.where(cleared[t - 1], t - 1, last_clear[t - 1])
        next_test = np.full((horizon + 1, n), horizon + 2, dtype=np.int32)
        for s in range(horizon - 1, -1, -1):
            next_test[s] = np.where(tested[s + 1], s + 1, next_test[s + 1])
        if assumed_well is None:
            assumed_well = np.zeros_like(tested)
        return Panel(
            horizon=horizon,
            tested=tested,
            positive=positive,
            removed=removed,
            cleared=cleared,
            last_clear=last_clear,
            next_test=next_test,
            assumed_well=assumed_well,
        )

    @staticmethod
    def from_simulation(sim) -> "Panel":
        return Panel._derived(sim.horizon, sim.tested, sim.positive, sim.removed, sim.cleared)

    @staticmethod
    def from_histories(histories: Sequence[EventHistory], horizon: int) -> "Panel":
        n = len(histories)
        tested, positive, removed, cleared = (
            np.zeros((horizon + 1, n), dtype=bool) for _ in range(4))
        for i, h in enumerate(histories):
            h.validate()
            for z, y in zip(h.test_times, h.test_results):
                if z <= horizon:
                    tested[z, i] = True
                    positive[z, i] = y
            for c in h.clearance_times:
                if c <= horizon:
                    cleared[c, i] = True
            # removal spans: day after a positive test through the next clearance
            for z, y in zip(h.test_times, h.test_results):
                if not y or z >= horizon:
                    continue
                later = [c for c in h.clearance_times if c > z]
                end = min(later[0], horizon) if later else horizon
                removed[z + 1 : end + 1, i] = True
        return Panel._derived(horizon, tested, positive, removed, cleared)


@dataclass
class DayCounts:
    """Headcounts of a panel: ``[t, c]`` over the non-removed members of stratum ``c`` on
    day ``t`` who are not assumed well (``members``, and how many were ``tested`` and
    tested ``negative``), and per day ``t`` over the non-removed.  Row ``t`` counts the
    cells ``[t, i]`` of the panel's day-major arrays, with ``c = last_clear[t, i]``."""

    members: np.ndarray      # float, (horizon + 1) x (horizon + 1)
    tested: np.ndarray
    negative: np.ndarray
    nonremoved: np.ndarray   # int64, horizon + 1
    assumed: np.ndarray      # non-removed and assumed well
    n_tests: np.ndarray
    n_positive: np.ndarray


@dataclass
class ContributionIndex:
    """The next-test cells of a panel, sorted by (stratum, row day, next test).

    A cell is an entry ``[s, i]`` of the panel's day-major arrays, a row day ``s``
    on which individual ``i`` enters row ``s`` of the schedule matrix of stratum
    ``c = stratum_after(s)[i]``: the clearance itself (``s == c``) or a negative
    test on ``s``.  ``key`` is ``c * (horizon + 1) + s``, so the cells a day ``t``
    uses from stratum ``c`` are the contiguous run of keys ``c * (horizon + 1) + [c, t]``.
    """

    key: np.ndarray          # int64, non-decreasing
    offset: np.ndarray       # s - c, the row within the stratum's matrix
    next_test: np.ndarray    # first test day after s (horizon + 2 when none)
    individual: np.ndarray   # ascending within equal (key, next_test)

    def row_counts(self, chunk: np.ndarray, span: int, horizon: int) -> np.ndarray:
        """Cell counts ``[stratum, value, row]`` of the ascending strata ``chunk``: value
        ``next_test - c``, or ``span`` after the horizon (rows for :func:`_probability_table`)."""
        size = horizon + 1
        lo, hi = np.searchsorted(self.key, [chunk[0] * size, (chunk[-1] + 1) * size])
        c = self.key[lo:hi] // size
        value = np.where(self.next_test[lo:hi] > horizon, span, self.next_test[lo:hi] - c)
        flat = (np.searchsorted(chunk, c) * (span + 1) + value) * span + self.offset[lo:hi]
        counts = np.bincount(flat, minlength=chunk.size * (span + 1) * span).astype(float)
        return counts.reshape(chunk.size, span + 1, span)


# ---------------------------------------------------------------------------
# Schedule matrices


@dataclass
class ScheduleMatrix:
    """Next-test-time transition matrix for one stratum up to a horizon.

    Entry ``[s, z]`` (0-based) is the probability that the next test after
    day ``s`` lands on day ``z``, with column ``horizon + 1`` collecting
    "after the horizon".  Rows below the stratum's clearance day, and the
    final row, are the indicator of "after the horizon", which makes the
    matrix stochastic and upper triangular with a unit bottom-right corner.
    """

    stratum: int
    horizon: int
    entries: np.ndarray

    def validate(self) -> None:
        c, t, p = self.stratum, self.horizon, self.entries
        if not 0 <= c < t:
            raise ValueError(f"stratum day {c} must lie in [0, horizon) = [0, {t})")
        if p.shape != (t + 2, t + 2):
            raise ValueError(f"expected shape {(t + 2, t + 2)}, got {p.shape}")
        sums = p.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-12):
            raise ValueError(f"rows must sum to 1; worst deviation {np.abs(sums - 1).max():.3e}")
        if np.any(p < 0):
            raise ValueError("entries must be non-negative")
        lower = np.tril(p)  # includes the diagonal
        lower[t + 1, t + 1] = 0.0
        if np.any(lower != 0.0):
            raise ValueError("matrix must be upper triangular with a zero diagonal")
        if p[t + 1, t + 1] != 1.0:
            raise ValueError("bottom-right corner must be 1")
        if np.any(p[:c] != _indicator_base(t)[:c]):
            raise ValueError(f"rows before the stratum day {c} must be the tail indicator")


def _indicator_base(t: int) -> np.ndarray:
    base = np.zeros((t + 2, t + 2))
    base[:, t + 1] = 1.0
    return base


def exact_schedule_matrix(regimen: RegimenConfig, stratum: int, t: int) -> ScheduleMatrix:
    """Analytic schedule matrix implied by a regimen's next-test-time law."""
    if not 0 <= stratum < t:
        raise ValueError(f"need 0 <= stratum < t, got stratum={stratum}, t={t}")
    entries = _indicator_base(t)
    entries[stratum : t + 1] = next_test_pmf(regimen, stratum, t)
    matrix = ScheduleMatrix(stratum=stratum, horizon=t, entries=entries)
    matrix.validate()
    return matrix


def estimate_schedule_matrix(panel: Panel, stratum: int, t: int) -> ScheduleMatrix:
    """Plug-in schedule matrix from observed next-test times.

    Row ``c`` is the empirical distribution of the first test after the
    clearance among individuals whose clearance history matches the stratum;
    row ``s > c`` conditions additionally on a negative test at ``s``.  Rows
    with no qualifying individual fall back to the tail indicator.
    """
    c = stratum
    if not 0 <= c < t:
        raise ValueError(f"need 0 <= stratum < t, got stratum={c}, t={t}")
    if np.count_nonzero(panel.stratum_after(c) == c) == 0:
        raise DegenerateStratumError(f"no individuals with last clearance {c} by day {c + 1}")
    entries = _indicator_base(t)
    for s in range(c, t + 1):
        if s == c:
            sel = panel.stratum_after(c) == c
        else:
            sel = panel.tested[s] & ~panel.positive[s] & (panel.stratum_after(s) == c)
        if not np.any(sel):
            continue
        values = np.minimum(panel.next_test[s, sel], t + 1)
        counts = np.bincount(values, minlength=t + 2).astype(float)
        entries[s] = counts / counts.sum()
    matrix = ScheduleMatrix(stratum=c, horizon=t, entries=entries)
    matrix.validate()
    return matrix


def _forward_substitute(column, rows: int, span: int, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """x = e_0 (I - nu Q)^-1 and y = x / nu (y_0 = 0) for ``rows`` matrices Q of size
    ``span``, given the ``rows x j`` slab ``column(j)`` of entries Q[i, j], i < j."""
    x = np.zeros((rows, span))
    y = np.zeros_like(x)
    x[:, 0] = 1.0
    for j in range(1, span):
        y[:, j] = np.einsum("bi,bi->b", x[:, :j], column(j))
        x[:, j] = nu * y[:, j]
    return x, y


def _offset_probabilities(column, rows: int, span: int, nu: float) -> np.ndarray:
    """Testing probability ``[b, m]`` of day ``c + m``, ``m < span``, for ``rows`` strata.

    ``column(j)`` is the ``rows x j`` slab of entries Q[i, j], i < j, of each stratum's
    normalised schedule rows ``c..c + span - 1``.  Every row sums to 1 (an unobserved one
    lies past the horizon), so :func:`_ratio_terms`' ratio is y_m over den = 1 - (1 - nu)
    sum_{v<m} y_v, one cumulative sum for every day: exactly 1 at nu = 1, and a difference
    that loses digits as it shrinks (low nu, long chains of tests).  A running product of
    the surviving mass keeps some: rows that sum to 1 only to rounding still err by about
    (1 - nu) / den times that rounding, and only the explicit tail form avoids it.
    """
    _, y = _forward_substitute(column, rows, span, nu)
    below = np.zeros_like(y)
    np.cumsum(y[:, :-1], axis=1, out=below[:, 1:])
    den = 1.0 - (1.0 - nu) * below
    return np.where(den > _EPS, y / np.maximum(den, _EPS), 0.0)


def _probability_table(strata: np.ndarray, horizon: int, nu: float, rows_of) -> np.ndarray:
    """Testing probability ``probs[c, t]`` of each stratum ``c`` in ``strata`` on every day.

    ``rows_of(chunk, span)`` weighs rows ``c..horizon`` of the strata ``chunk`` on
    the values ``0..span`` (day ``c + value``, ``span`` past the horizon), shaped
    ``[stratum, value, row]``.  Day ``t = c + m`` reads a prefix of these rows, so one
    :func:`_offset_probabilities` of the normalised block serves every day, and the
    ratios of a chunk are scattered at once.  Chunks are padded to their widest span
    under ``_TABLE_BLOCK_BYTES``, past each stratum's own rows, which the solve never reads.
    """
    size = horizon + 1
    probs = np.zeros((size, size))
    strata = strata[strata < horizon]
    first = 0
    while first < strata.size:
        span = horizon - int(strata[first]) + 1  # strata ascend, so the first is widest
        step = max(1, _TABLE_BLOCK_BYTES // (8 * (span + 1) * span))
        chunk = strata[first : first + step]
        first += chunk.size
        block = rows_of(chunk, span)
        sums = block.sum(axis=1)[:, None, :]
        block /= np.where(sums > 0, sums, 1.0)
        ratio = _offset_probabilities(lambda j: block[:, j, :j], chunk.size, span, nu)
        b, m = np.nonzero(chunk[:, None] + np.arange(span) <= horizon)
        probs[chunk[b], chunk[b] + m] = ratio[b, m]
    return np.minimum(probs, 1.0)


def known_probability_table(regimen: RegimenConfig, horizon: int, nu: float) -> np.ndarray:
    """:func:`_probability_table` of the rows ``next_test_pmf(regimen, c, horizon)``: entry
    ``[c, t]`` is, to rounding, ``testing_probability_from_matrix(exact_schedule_matrix(
    regimen, c, t), nu)``, with one chain per stratum instead of one per (c, t)."""

    def rows_of(chunk: np.ndarray, span: int) -> np.ndarray:
        block = np.zeros((chunk.size, span + 1, span))
        for b, c in enumerate(chunk.tolist()):  # rows over days c..horizon + 1
            own = horizon - c + 1
            block[b, np.r_[:own, span], :own] = next_test_pmf(regimen, c, horizon)[:, c:].T
        return block

    return _probability_table(np.arange(horizon), horizon, nu, rows_of)


def _ratio_terms(mats: np.ndarray, nu: float, c: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator of the testing-probability ratio of whole ``(t + 2) x
    (t + 2)`` schedule matrices P_b, in the explicit form :func:`_offset_probabilities`
    shortens.

    Rows ``c..t`` of P_b, read through the dense transposed block ``block[b, j, i] =
    P[c + i, c + j]``, give the strictly upper-triangular Q and the tail column
    r = P[c..t, t + 1].  Q is nilpotent, so the series sum_k nu^(k-1) (P^k)[c, t] is
    finite: x = e_c (I - nu Q)^-1 by forward substitution, x_j = nu y_j with
    y_j = sum_{i<j} x_i Q[i, j].  Numerator = y_t; the denominator
    sum_k nu^(k-1) (P^k - P^(k-1))[c, t..t+1] = y_t + sum_{j<t} x_j r_j.
    """
    block = np.swapaxes(mats[:, c : t + 1, c : t + 2], 1, 2)
    span = t - c + 1
    x, y = _forward_substitute(lambda j: block[:, j, :j], len(mats), span, nu)
    num = y[:, span - 1]
    return num, num + np.einsum("bi,bi->b", x[:, :-1], block[:, span, :-1])


def testing_probability_from_matrix(matrix: ScheduleMatrix, specificity: float) -> float:
    """P[tested on day t | well on day t, last clearance = stratum] from the matrix.

    Under perfect specificity the denominator is exactly 1 (asserted to
    1e-12); a non-positive denominator means the stratum cannot be weighted
    and raises :class:`DegenerateStratumError`.  A zero numerator (a
    deterministic schedule with no test due at ``t``) returns 0.0; callers
    treat that as a positivity failure.
    """
    c, horizon = matrix.stratum, matrix.horizon
    num, den = _ratio_terms(matrix.entries[None, :, :], specificity, c, horizon)
    num_v, den_v = float(num[0]), float(den[0])
    if specificity == 1.0 and abs(den_v - 1.0) > 1e-12:
        raise AssertionError(f"perfect-specificity denominator is {den_v!r}, expected 1")
    if den_v <= _EPS:
        raise DegenerateStratumError(
            f"stratum {c}, day {horizon}: testing-probability denominator {den_v:.3e} <= 0"
        )
    return num_v / den_v


testing_probability_from_matrix.__test__ = False  # op name collides with pytest's prefix


# ---------------------------------------------------------------------------
# Point estimators


def tpr(positives: int, tested: int) -> float:
    """Raw test-positive rate; nan marks an undefined (untested) day."""
    if positives < 0 or tested < 0 or positives > tested:
        raise ValueError(f"bad counts: positives={positives}, tested={tested}")
    if tested == 0:
        return math.nan
    return positives / tested


def clip_unit(value: float) -> float:
    """The [0, 1] clip of a point estimate, applied after estimation; nan stays nan."""
    return min(max(value, 0.0), 1.0)


def tpr_prevalence(positives: int, tested: int, tests: TestCharacteristics) -> float:
    """TPR mapped to the (unclipped) prevalence scale for an imperfect test.

    Inverts rate = eta * prev + (1 - nu) * (1 - prev); reduces to the raw
    rate under a perfect test.  An untested day returns ``math.nan`` itself.
    """
    rate = tpr(positives, tested)
    if math.isnan(rate):
        return math.nan
    return prevalence_from_rate(rate, tests)


def prevalence_from_rate(rate: float, tests: TestCharacteristics) -> float:
    """Positive rate mapped to unclipped prevalence for an imperfect test."""
    tests.require_informative()
    return (rate - (1.0 - tests.specificity)) / tests.youden


def ht_estimate_w(
    tested: np.ndarray,
    positive: np.ndarray,
    weights: np.ndarray,
    tests: TestCharacteristics,
) -> float:
    """Weighted well-count core over one or more non-fallback strata.

    ``weights`` holds the reciprocal testing probabilities of the same
    individuals; entries for untested individuals are ignored.  Fallback
    strata and by-fiat well counts are added by the callers.
    """
    tests.require_informative()
    tested = np.asarray(tested, dtype=bool)
    positive = np.asarray(positive, dtype=bool)
    w = np.asarray(weights, dtype=float)
    wd = np.where(tested, w, 0.0)
    y = tests.youden
    neg_sum = float(wd[~positive].sum())
    all_sum = float(wd.sum())
    return neg_sum / y - (1.0 - tests.sensitivity) * all_sum / y


def prevalence_from_w(w_hat: float, nonremoved: int) -> float:
    """Map an estimated well count to unclipped prevalence among the ``nonremoved``;
    an empty non-removed population yields nan."""
    if nonremoved <= 0:
        return math.nan
    return (nonremoved - w_hat) / nonremoved


def _class_counts(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(members, tested, negative)`` of ``[..., stratum, kind]`` headcounts of the members
    not assumed well, by kind ``2 tested + positive``."""
    return cells.sum(axis=-1), cells[..., 2:].sum(axis=-1), cells[..., 2]


def _numerator(tested_c, neg_c, tests: TestCharacteristics):
    """``neg_c - (1 - eta) tested_c``: a stratum's weighted well count times youden pi_c."""
    return neg_c - (1.0 - tests.sensitivity) * tested_c


def _stratum_terms(n_c, tested_c, numerator, probs_of, min_stratum_size: int,
                   tests: TestCharacteristics):
    """``(need, probs, term, fallback)`` per stratum, elementwise: a stratum large enough and
    tested needs its testing probability ``probs_of(need)``; an active one (needed, probability
    above zero) adds :func:`ht_estimate_w` of its members, ``numerator / (youden pi_c)``, to
    the well count, and any other counts its ``n_c`` members whole (a fallback if any)."""
    need = (n_c >= min_stratum_size) & (tested_c > 0)
    probs = probs_of(need)
    active = need & (probs > _EPS)
    term = np.where(active, numerator / (tests.youden * np.where(active, probs, 1.0)), n_c)
    return need, probs, term, ~active & (n_c > 0)


def _evaluation(nonrem_n, assumed, n_c, need, probs, term, fallback) -> "Evaluation":
    """The :class:`Evaluation` of ``[rows, S]`` stratum terms: each row's well count is
    its members assumed well plus its terms' sum."""
    w_hat = assumed + term.sum(axis=-1)
    unclipped = np.where(nonrem_n > 0, (nonrem_n - w_hat) / np.maximum(nonrem_n, 1.0), np.nan)
    return Evaluation(unclipped=unclipped, fallback=fallback.sum(axis=-1), members=n_c,
                      need=need, probs=probs)


def bias_ratio(
    stratum_prevalences: Mapping[int, float],
    test_share: Mapping[int, float],
    population_share: Mapping[int, float],
) -> float:
    """Ratio of test-weighted to population-weighted average stratum prevalence.

    The strata are last-test days; the ratio is the multiplicative bias of
    the test-positive rate as a prevalence estimator when testing and
    infectiousness are dependent through the schedule.
    """
    keys = set(stratum_prevalences)
    if set(test_share) != keys or set(population_share) != keys:
        raise ValueError("stratum maps must share the same support")
    for name, share in (("test", test_share), ("population", population_share)):
        total = math.fsum(share.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{name} shares sum to {total!r}, not 1")
    num = math.fsum(stratum_prevalences[z] * test_share[z] for z in keys)
    den = math.fsum(stratum_prevalences[z] * population_share[z] for z in keys)
    if den == 0.0:
        return math.nan
    return num / den


# ---------------------------------------------------------------------------
# Day-level estimates


@dataclass
class DayEstimate:
    day: int
    kind: str
    lo: float = math.nan
    hi: float = math.nan
    unclipped: float = math.nan
    n_tests: int = 0
    n_positive: int = 0
    n_fallback_strata: int = 0

    @property
    def estimate(self) -> float:
        return clip_unit(self.unclipped)

    @property
    def defined(self) -> bool:
        return not math.isnan(self.unclipped)


@dataclass
class StratumWeight:
    stratum: int
    weight: Optional[float]
    provenance: str  # "estimated" | "fallback"


@dataclass
class WeightTable:
    """Per-stratum reciprocal testing probabilities for one day."""

    day: int
    entries: dict[int, StratumWeight] = field(default_factory=dict)

    def add(self, stratum: int, weight: Optional[float], provenance: str) -> None:
        if weight is not None and (not math.isfinite(weight) or weight < 1.0):
            raise ValueError(f"weight for stratum {stratum} must be finite and >= 1, got {weight}")
        self.entries[stratum] = StratumWeight(stratum, weight, provenance)


@dataclass
class Evaluation:
    """What :class:`DayEvaluator` computed: per row (the panel as observed, or one
    resample's totals) the unclipped prevalence and the number of fallback strata
    (counted whole), and per (row, stratum slot) the members, whether the stratum is
    weighted by its testing probability (``need``: large enough and tested) and that
    probability (0 where not needed)."""

    unclipped: np.ndarray   # rows
    fallback: np.ndarray    # rows, int
    members: np.ndarray     # rows x strata
    need: np.ndarray        # rows x strata, bool
    probs: np.ndarray       # rows x strata


class EstimateSeries:
    """Per-day estimate records with a fixed serialisation column order."""

    COLUMNS = ("day", "kind", "estimate", "lo", "hi", "n_tests", "n_pos", "n_fallback_strata")

    def __init__(self, records: Iterable[DayEstimate] = ()):
        self.records: list[DayEstimate] = list(records)

    def append(self, record: DayEstimate) -> None:
        self.records.append(record)

    def rows(self):
        """One row per record, keyed by :attr:`COLUMNS`."""
        for r in self.records:
            yield dict(zip(self.COLUMNS, (r.day, r.kind, r.estimate, r.lo, r.hi, r.n_tests,
                                          r.n_positive, r.n_fallback_strata)))


# ---------------------------------------------------------------------------
# Stratified estimators over a panel


class DayEvaluator:
    """Re-evaluates the estimated-weight estimator for one (panel, day).

    Construction only reads the strata in force on the day
    (:meth:`Panel.day_strata`).  The point estimate gathers the day's row of
    :meth:`Panel.estimated_terms`, built from the panel's :attr:`Panel.day_counts`
    and :meth:`Panel.point_probabilities`, and sums it: one count pass and one solve
    per stratum per panel serve every day, and no point estimate reads an
    individual.  Resamples (bootstrap draws, jackknife blocks) enter only
    through :meth:`batch`, as their totals over the day's :attr:`features`
    (one headcount class per non-removed individual, and the next-test
    contributions of :attr:`_code_space`, plain CSC arrays sliced from
    :attr:`Panel.contribution_index`), which are built on first use by one CSC
    constructor, importing ``scipy.sparse`` only then; a resample's estimate
    reduces to batched triangular solves, :attr:`chunk_rows` rows at a time.
    :meth:`estimate` returns an :class:`Evaluation` and keeps no per-call state
    beyond ``_last_fallback``, the copy ``perfbench/tracing.py`` reads.
    """

    def __init__(self, panel: Panel, day: int, tests: TestCharacteristics,
                 min_stratum_size: int = MIN_STRATUM_SIZE):
        self.strata = panel.day_strata(day)
        tests.require_informative()
        self.panel = panel
        self.day = day
        self.tests = tests
        self.min_stratum_size = min_stratum_size

    @cached_property
    def features(self) -> sparse.csc_matrix:
        """The individuals x (1 + 4S + codes) 0/1 columns whose multiplicity-weighted totals
        are all a resample's estimate reads: the headcount classes, then the next-test
        contribution columns of :attr:`_code_space`.  Each non-removed individual has one
        class: column 0 if assumed well, else ``1 + 4 slot + kind`` by its stratum slot and
        kind ``2 tested + positive``, the cells :attr:`Panel.day_counts` bins.  Built by one
        CSC constructor: the class columns hold the non-removed individuals stably sorted
        by class (their starts the cumulative class counts), and the code columns follow
        as :attr:`_code_space` gives them.  Stored as float32 up to 2^24 individuals
        (:func:`_count_dtype`), where every resample total is still exact, so the
        bootstrap's product reads half the bytes."""
        from scipy import sparse

        panel, t = self.panel, self.day
        n_classes = 1 + 4 * len(self.strata)
        nonremoved = np.flatnonzero(~panel.removed[t])
        slot = np.searchsorted(self.strata, panel.last_clear[t, nonremoved])
        kind = 2 * panel.tested[t, nonremoved] + panel.positive[t, nonremoved]
        column = np.where(panel.assumed_well[t, nonremoved], 0, 1 + 4 * slot + kind)
        codes, _, individuals, starts = self._code_space
        indptr = np.concatenate(([0], np.cumsum(np.bincount(column, minlength=n_classes)),
                                 nonremoved.size + starts[1:]))
        indices = np.concatenate((nonremoved[np.argsort(column, kind="stable")], individuals))
        return sparse.csc_matrix(
            (np.ones(indices.size, dtype=_count_dtype(panel.n_individuals)), indices, indptr),
            shape=(panel.n_individuals, n_classes + codes.size))

    @cached_property
    def _code_space(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(codes, bounds, individuals, starts)``: the next-test contributions of the day.

        They are the index cells with row day s <= t of the strata in force at
        t.  Codes are (stratum slot, row offset, value), value = min(next_test,
        t + 1); the index order makes them sorted, so compaction keeps the
        first code of each run, and the runs are the columns of the
        individuals x codes 0/1 matrix, given as CSC arrays: code ``k`` holds
        ``individuals[starts[k] : starts[k + 1]]``.
        """
        panel, t = self.panel, self.day
        s_count = len(self.strata)
        width = t + 2
        index = panel.contribution_index
        first_key = self.strata.astype(np.int64) * (panel.horizon + 1)
        lo = np.searchsorted(index.key, first_key)
        sizes = np.searchsorted(index.key, first_key + t, side="right") - lo
        sel = np.repeat(lo - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        slot = np.repeat(np.arange(s_count), sizes)
        codes = (slot * width + index.offset[sel]) * width + np.minimum(index.next_test[sel], t + 1)
        runs = np.flatnonzero(np.diff(codes, prepend=-1))
        codes = codes[runs]
        # stratum j owns the contiguous slice bounds[j]:bounds[j + 1] of the codes
        bounds = np.searchsorted(codes, np.arange(s_count + 1) * width * width)
        return codes, bounds, index.individual[sel], np.append(runs, sel.size)

    @cached_property
    def _packed_layout(self) -> list[tuple[int, int, np.ndarray, np.ndarray, np.ndarray,
                                           np.ndarray]]:
        """Per stratum slot, its codes ``lo:hi``, the first code of each observed row and
        the row's code count, and the codes whose next test falls on or before the day with
        their packed positions: the packed block holds Q^T's row ``v`` (Q[0..v-1, v]) at
        ``v(v-1)/2``."""
        width = self.day + 2
        codes, bounds = self._code_space[:2]
        layout = []
        for j, c in enumerate(self.strata.tolist()):
            lo, hi = int(bounds[j]), int(bounds[j + 1])
            row, column = np.divmod(codes[lo:hi] - j * width * width - c, width)  # value - c
            starts = np.flatnonzero(np.diff(row, prepend=-1))
            inner = np.flatnonzero(column <= self.day - c)
            layout.append((lo, hi, starts, np.diff(starts, append=hi - lo), inner,
                           (column * (column - 1) // 2 + row)[inner]))
        return layout

    @property
    def chunk_rows(self) -> int:
        """Resample rows that fit ``_SOLVE_BLOCK_BYTES`` with all that :meth:`batch` holds for
        them: their totals, the widest stratum's solve (span (span + 1) / 2 floats a row, its
        packed block and a span-wide row) and the stratum with the most codes' gathered code
        counts and their normalisation temporary (2 floats a code)."""
        span = self.day - int(self.strata[0]) + 1 if len(self.strata) else 0
        codes = int(np.diff(self._code_space[1]).max(initial=0))
        row_floats = self.features.shape[1] + span * (span + 1) // 2 + 2 * codes
        return max(1, _SOLVE_BLOCK_BYTES // (8 * row_floats))

    def _stratum_probs(self, counts: np.ndarray, need: np.ndarray) -> np.ndarray:
        """Testing probabilities per (resample row, stratum) from per-code counts.

        ``need[b, j]`` marks the pairs whose probability is actually used
        (large-enough resampled stratum with at least one test); everything
        else falls back to a headcount.  The needed rows of each stratum go
        through in one block: the observed codes are normalised in place by
        their row sums, and those on or before the day are scattered by
        :attr:`_packed_layout` into the packed Q^T whose slabs
        :func:`_offset_probabilities` reads (bit-equal to a dense block's); its
        last column is the day.  A call of at most :attr:`chunk_rows` rows keeps
        every block under ``_SOLVE_BLOCK_BYTES``.
        """
        t = self.day
        nu = self.tests.specificity
        probs = np.zeros((counts.shape[0], len(self.strata)))
        for j, (lo, hi, starts, sizes, inner, pos) in enumerate(self._packed_layout):
            rows = np.flatnonzero(need[:, j])
            if rows.size == 0:
                continue
            span = t - int(self.strata[j]) + 1  # row offsets 0..t-c are matrix rows c..t
            part = counts[rows, lo:hi]
            part /= np.repeat(np.maximum(np.add.reduceat(part, starts, axis=1), 1.0), sizes, axis=1)
            block = np.zeros((rows.size, span * (span - 1) // 2))
            block[:, pos] = part[:, inner]
            probs[rows, j] = _offset_probabilities(
                lambda v: block[:, v * (v - 1) // 2 : v * (v + 1) // 2], rows.size, span, nu)[:, -1]
        return np.minimum(probs, 1.0)

    def estimate(self) -> Evaluation:
        """The estimator's one-row :class:`Evaluation` of the panel as observed: the
        day's row of the panel's term tables, summed, without building the per-day
        resampling state."""
        counts, day = self.panel.day_counts, slice(self.day, self.day + 1)
        (members, probs, term), (need, fallback) = (
            table[:, day, self.strata]
            for table in self.panel.estimated_terms(self.tests, self.min_stratum_size))
        record = _evaluation(counts.nonremoved[day].astype(float),
                             counts.assumed[day].astype(float),
                             members, need, probs, term, fallback)
        self._last_fallback = record.fallback  # read only by perfbench/tracing.py
        return record

    def _estimate_totals(self, totals: np.ndarray) -> Evaluation:
        """The :class:`Evaluation` of each row of a rows x features matrix of totals.

        The class totals reduce as :attr:`Panel.day_counts`' do (:func:`_class_counts`), and
        the non-removed count is their sum.  Every total is an integer, so rows from any
        product order give the same estimates; the code columns are read as a view.
        """
        s_count = len(self.strata)
        classes, codes = totals[:, : 1 + 4 * s_count], totals[:, 1 + 4 * s_count :]
        n_c, tested_c, neg_c = _class_counts(classes[:, 1:].reshape(len(totals), s_count, 4))
        return _evaluation(classes.sum(axis=1), totals[:, 0], n_c, *_stratum_terms(
            n_c, tested_c, _numerator(tested_c, neg_c, self.tests),
            lambda need: self._stratum_probs(codes, need), self.min_stratum_size, self.tests))

    def day_estimate(self) -> DayEstimate:
        """The ``ht-e`` record of the panel as observed (no resampling)."""
        record = self.estimate()
        return self.panel.day_record(self.day, "ht-e", float(record.unclipped[0]),
                                     int(record.fallback[0]))

    # -- resampling (bootstrap over individuals)

    def batch(self, totals: np.ndarray) -> np.ndarray:
        """Unclipped estimates for each row of a rows x features matrix of totals."""
        return self._estimate_totals(totals).unclipped

    def resampler(self) -> "DayEvaluator":
        """The evaluator itself, for interval construction: :meth:`batch` re-estimates on
        the unclipped scale, since clipping piles mass at the boundary and corrupts the
        bias-correction constant; interval endpoints are clipped afterwards."""
        return self


def ht_estimated(panel: Panel, day: int, tests: TestCharacteristics,
                 min_stratum_size: int = MIN_STRATUM_SIZE) -> tuple[DayEstimate, WeightTable]:
    """Estimated-weight prevalence estimate for one day, with its weight table."""
    ev = DayEvaluator(panel, day, tests, min_stratum_size)
    record = ev.estimate()
    table = WeightTable(day=day)
    for c, members, need, prob in zip(ev.strata.tolist(), record.members[0], record.need[0],
                                      record.probs[0]):
        if need and prob <= _EPS:
            # a tested individual's own path always carries mass
            raise AssertionError(f"stratum {c}: tested members but zero estimated probability")
        if need:
            table.add(c, max(1.0 / prob, 1.0), "estimated")
        elif members > 0:
            table.add(c, None, "fallback")
    est = panel.day_record(day, "ht-e", float(record.unclipped[0]), int(record.fallback[0]))
    return est, table


def ht_known(panel: Panel, day: int, tests: TestCharacteristics,
             weight_for: Callable[[int, int], float]) -> tuple[DayEstimate, float]:
    """Known-weight prevalence estimate and the variance of its well count.

    ``weight_for(c, t)`` supplies the reciprocal testing probability for
    stratum ``c`` on day ``t``, finite and >= 1 (else ``ValueError``), and is
    called once per stratum in force (:meth:`Panel.day_strata`).  Every stratum
    is weighted (no fallback): strata with no tests contribute zero to the well
    count, which is what keeps the estimator unbiased and occasionally
    high-variance.  The Wald variance is the per-stratum sum of ``(1 - pi_c) /
    pi_c^2 (eta^2 neg_c + (1 - eta)^2 pos_c) / youden^2``; both sums read the
    day's row of :meth:`Panel.known_terms`.
    """
    strata = panel.day_strata(day)
    tests.require_informative()
    weights = [float(weight_for(c, day)) for c in strata.tolist()]
    bad = next((j for j, w in enumerate(weights) if not 1.0 <= w < math.inf), None)
    if bad is not None:
        raise ValueError(f"weight for stratum {strata[bad]} must be finite and >= 1, "
                         f"got {weights[bad]}")
    pi = 1.0 / np.array(weights)
    numerator, factor = panel.known_terms(tests)[:, day, strata]
    counts = panel.day_counts
    w_hat = int(counts.assumed[day]) + float((numerator / (tests.youden * pi)).sum())
    variance = float(((1.0 - pi) / pi**2 * factor).sum() / tests.youden**2)
    unclipped = prevalence_from_w(w_hat, int(counts.nonremoved[day]))
    return panel.day_record(day, "ht-k", unclipped), variance
