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
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .core import EventHistory, TestCharacteristics
from .regimens import RegimenConfig, next_test_pmf

if TYPE_CHECKING:
    from scipy import sparse

    from .uncertainty import ResampleWorkspace

_EPS = 1e-12
# Strata with fewer members are counted whole by ht-e (the headcount fallback).
MIN_STRATUM_SIZE = 10
# Byte budget of the resample rows in one DayEvaluator.batch call: their totals, normalised
# code counts and push solve (chunk_rows).
_SOLVE_BLOCK_BYTES = 16 << 20
# Byte budget of one (strata x (span + 1) x span) block of regimen rows in _probability_table,
# and of one block of day rows of a panel's count and index passes (_day_blocks); each runs
# once per table or panel, so a small budget costs little time and peak RSS.
_TABLE_BLOCK_BYTES = 1 << 20


def _day_dtype(horizon: int) -> type:
    """The dtype of a panel's day values ``0..horizon + 2``: the smallest signed type that
    holds them, int16 at the least, so int16 up to 32,765 days and int32 beyond."""
    return np.int16 if horizon + 2 <= np.iinfo(np.int16).max else np.int32


def _day_blocks(horizon: int, n: int) -> Iterator[slice]:
    """Consecutive slices of the days ``0..horizon``, each as many day rows (one at the
    least) as a rows x ``n`` intp array that fits ``_TABLE_BLOCK_BYTES`` holds."""
    step = max(1, _TABLE_BLOCK_BYTES // (np.dtype(np.intp).itemsize * max(n, 1)))
    for first in range(0, horizon + 1, step):
        yield slice(first, min(first + step, horizon + 1))


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

    The event arrays are bool.  ``last_clear`` and ``next_test`` hold days in the
    smallest signed type that holds ``horizon + 2`` (:func:`_day_dtype`): int16 up to
    32,765 days, int32 beyond.  Arithmetic on them that can pass ``horizon + 2``
    (products, keys) widens first, since numpy 1.25 and numpy 2 promote a small
    integer array with a Python or numpy scalar differently.
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
        """Every next-test cell of the panel, built on first use and shared by all days.

        Each block of day rows (:func:`_day_blocks`) adds its cells' sort keys (stratum, row
        day, next test) and int32 individuals; one stable sort orders them all, so the
        individuals ascend within equal keys, and the keys give the index's fields."""
        horizon, size = self.horizon, self.horizon + 1
        # the smallest type that holds every sort key: numpy's stable sort of 16-bit keys is linear
        sort_dtype = np.min_scalar_type(size**2 * (horizon + 3))
        sort_keys, individuals = [], []
        for rows in _day_blocks(horizon, self.n_individuals):
            days = np.arange(rows.start, rows.stop, dtype=self.last_clear.dtype)[:, None]
            after = np.where(self.cleared[rows], days, self.last_clear[rows])
            keep = (after == days) | (self.tested[rows] & ~self.positive[rows])
            s, individual = np.nonzero(keep)  # individuals ascend within each day s
            key = after[s, individual].astype(np.int64) * size + (s + rows.start)
            key = key * (horizon + 3) + self.next_test[rows][s, individual]
            sort_keys.append(key.astype(sort_dtype))
            individuals.append(individual.astype(np.int32))
        sort_key, individual = np.concatenate(sort_keys), np.concatenate(individuals)
        del sort_keys, individuals
        order = np.argsort(sort_key, kind="stable")
        individual, sort_key = individual[order], sort_key[order]
        del order
        key, next_test = np.divmod(sort_key, horizon + 3)
        del sort_key
        # int32 holds every key below 46,340 days, where the day-count table alone is 128 GiB
        key, next_test = key.astype(np.int32), next_test.astype(self.next_test.dtype)
        return ContributionIndex(key=key, offset=(key % size - key // size).astype(next_test.dtype),
                                 next_test=next_test, individual=individual)

    @cached_property
    def day_counts(self) -> "DayCounts":
        """Per-(day, stratum) headcounts, built on first use by one ``bincount`` per block
        of day rows (:func:`_day_blocks`), its cells keyed by (day t, ``last_clear[t, i]``,
        cell kind), into one table."""
        size = self.horizon + 1
        cells = np.empty((size, size * 8), dtype=np.intp)
        for rows in _day_blocks(self.horizon, self.n_individuals):
            count = rows.stop - rows.start
            key = np.arange(count, dtype=np.intp)[:, None] * size + self.last_clear[rows]
            key *= 8
            flags = self.assumed_well[rows].view(np.uint8) * np.uint8(4)
            flags += self.tested[rows].view(np.uint8) * np.uint8(2)
            flags += self.positive[rows].view(np.uint8)
            key += flags
            key[self.removed[rows]] = count * size * 8  # one bin past the block's rows
            cells[rows] = np.bincount(key.ravel(), minlength=count * size * 8 + 1)[:-1].reshape(
                count, size * 8)
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
        ``t``, for the panel as observed; built on first use per specificity.

        One :class:`_PushSolve` over the full-horizon codes of every stratum, counted by
        their runs: day t's codes of stratum c differ only past t, so entry ``[c, t]`` is
        bit-equal to what :meth:`DayEvaluator.batch` gives a resample of multiplicity 1."""

        def build():
            index, horizon = self.contribution_index, self.horizon
            # the strata with a cell, less a clearance on the last day, which weighs no day
            strata = np.flatnonzero(np.diff(np.searchsorted(
                index.key, np.arange(horizon + 1, dtype=index.key.dtype) * (horizon + 1))))
            codes, _, _, starts = index.codes(strata, horizon, horizon)
            ratios = _PushSolve.of(codes, strata, horizon).ratios(
                np.diff(starts)[:, None].astype(float), specificity)[:, 0]
            # the packed positions in order: row offsets ascending, then the strata with one
            offset, slot = np.nonzero(np.arange(horizon + 1)[:, None] < horizon + 1 - strata)
            probs = np.zeros((horizon + 1, horizon + 1))
            probs[strata[slot], strata[slot] + offset] = ratios
            return np.minimum(probs, 1.0)

        return self._table(("probs", specificity), build)

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
        n, dtype = tested.shape[1], _day_dtype(horizon)
        last_clear = np.zeros((horizon + 1, n), dtype=dtype)
        for t in range(1, horizon + 1):
            last_clear[t] = np.where(cleared[t - 1], t - 1, last_clear[t - 1])
        next_test = np.full((horizon + 1, n), horizon + 2, dtype=dtype)
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

    A cell is an entry ``[s, i]`` of the panel's day-major arrays, a row day ``s`` on which
    individual ``i`` enters row ``s`` of the schedule matrix of stratum ``c =
    stratum_after(s)[i]``: the clearance itself (``s == c``) or a negative test on ``s``.
    ``key`` is ``c * (horizon + 1) + s``, so the cells day ``t`` uses from stratum ``c`` are
    the run of keys ``c * (horizon + 1) + [c, t]``, and :meth:`codes` reads the runs both of
    one day's strata and, at ``t = horizon``, of the point table's full-horizon rows.
    Offsets and next tests are in the panel's day dtype (:func:`_day_dtype`)."""

    key: np.ndarray          # int32, non-decreasing
    offset: np.ndarray       # s - c, the row within the stratum's matrix
    next_test: np.ndarray    # first test day after s (horizon + 2 when none)
    individual: np.ndarray   # int32, ascending within equal (key, next_test)

    def codes(self, strata: np.ndarray, t: int,
              horizon: int) -> tuple[np.ndarray, np.ndarray, slice | np.ndarray, np.ndarray]:
        """``(codes, bounds, cells, starts)``: the cells of the ascending ``strata`` with
        row day s <= t, as codes (stratum slot, row offset, min(next_test, t + 1)).  The
        index order sorts them, so compaction keeps the first code of each run, and the runs
        are the columns of the individuals x codes 0/1 matrix as CSC arrays: code ``k``
        holds the index positions ``cells[starts[k] : starts[k + 1]]``, whose individuals
        are ``individual[cells]``.  ``cells`` is a slice of the index when the strata's runs
        join, as every stratum's do at ``t = horizon``, so that nothing is gathered."""
        width = t + 2
        first_key = strata.astype(self.key.dtype) * (horizon + 1)
        lo = np.searchsorted(self.key, first_key)
        hi = np.searchsorted(self.key, first_key + t, side="right")
        if lo.size and np.array_equal(lo[1:], hi[:-1]):
            cells = slice(lo[0], hi[-1])
        else:
            sizes = hi - lo
            cells = np.repeat(lo - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        key, offset = self.key[cells], self.offset[cells]
        value = np.minimum(self.next_test[cells], t + 1)
        # a code starts where (stratum, row day) or the value changes
        new = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])
        new[1:] |= value[1:] != value[:-1]
        runs = np.flatnonzero(new)
        slot = np.searchsorted(strata, key[runs] // (horizon + 1))
        codes = (slot * width + offset[runs]) * width + value[runs]
        # stratum j owns the contiguous slice bounds[j]:bounds[j + 1] of the codes
        bounds = np.searchsorted(codes, np.arange(strata.size + 1) * width * width)
        return codes, bounds, cells, np.append(runs, key.size)


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
    """Testing probability ``[b, m]`` of day ``c + m``, ``m < span``, for ``rows`` strata,
    given the ``rows x j`` slab ``column(j)`` of each one's normalised rows Q[i, j], i < j.
    Every row sums to 1 (an unobserved one lies past the horizon), so :func:`_ratio_terms`'
    ratio is y_m over den = 1 - (1 - nu) sum_{v<m} y_v: exactly 1 at nu = 1, and a
    difference that loses digits as it shrinks (low nu, long chains of tests)."""
    _, y = _forward_substitute(column, rows, span, nu)
    below = np.zeros_like(y)
    np.cumsum(y[:, :-1], axis=1, out=below[:, 1:])
    den = 1.0 - (1.0 - nu) * below
    return np.where(den > _EPS, y / np.maximum(den, _EPS), 0.0)


@dataclass(frozen=True)
class _PushSolve:
    """One push-form forward substitution over the observed codes of many strata at once.

    Slot j holds the rows of one stratum, offsets ``0..span - 1``; the strata ascend, so
    the slots with a row r are a prefix and y is packed offset-major, (r, j) at ``starts[r]
    + j``.  :meth:`ratios` pushes row by row: once y_r is complete, x_r = nu y_r (x_0 = 1)
    times each of row r's inner codes (value offset v < span) is added into y_v of its slot,
    one fancy add since the targets are distinct, and :func:`_offset_probabilities`' den
    sums y in v order.  An addition depends only on rows up to r, so the solve of rows
    ``c..t`` is bit-equal to a prefix of the solve of rows ``c..T`` from the same counts.
    """

    starts: np.ndarray      # packed position of (r, slot 0); starts[-1] sums the spans
    last: np.ndarray        # the packed position of each slot's last row
    row_starts: np.ndarray  # the first code of each (slot, row) run
    take: np.ndarray        # the inner codes, by ascending row offset
    group: np.ndarray       # the (slot, row) run of each
    source: np.ndarray      # its packed position (r, slot), x_r's entry
    target: np.ndarray      # its packed position (v, slot)
    bounds: np.ndarray      # take[bounds[r] : bounds[r + 1]] have row offset r

    @staticmethod
    def of(codes: np.ndarray, strata: np.ndarray, t: int) -> "_PushSolve":
        """The solve of :meth:`ContributionIndex.codes` of ``strata`` on day ``t``: slot j
        holds rows ``c..t`` of stratum c, span t - c + 1."""
        run, value = np.divmod(codes, t + 2)  # run: (slot, row offset), sorted
        new_row = np.diff(run, prepend=-1) != 0
        inner = np.flatnonzero(value <= t)
        take = inner[np.argsort(run[inner] % (t + 2), kind="stable")]
        slot, row = np.divmod(run[take], t + 2)
        spans = t + 1 - strata
        starts = np.append(0, np.cumsum(np.count_nonzero(  # row 0 exists even with no slot
            spans[:, None] > np.arange(spans.max(initial=1)), axis=0)))
        return _PushSolve(starts, starts[spans - 1] + np.arange(spans.size),
                          np.flatnonzero(new_row), take, (np.cumsum(new_row) - 1)[take],
                          starts[row] + slot, starts[value[take] - strata[slot]] + slot,
                          np.searchsorted(row, np.arange(starts.size)))

    def ratios(self, counts: np.ndarray, nu: float, positions=slice(None),
               workspace: Optional[ResampleWorkspace] = None) -> np.ndarray:
        """``[position, b]``: the ratio y / den at the packed ``positions`` on column ``b``
        of the codes x rows ``counts``, each code normalised by its row's sum (1 if none).

        The gathered codes and their row sums are written into the arena of ``workspace``
        when one is given, and allocated when not; the ratios are the same bits either
        way.  The gather clips rather than raises, since numpy buffers a raising gather's
        whole output, and :meth:`of` keeps every index in range."""
        q = norm = None
        if workspace is not None:
            arena = workspace.arena((self.take.size + self.row_starts.size, counts.shape[1]),
                                    np.float64)
            q, norm = arena[: self.take.size], arena[self.take.size :]
        q = np.take(counts, self.take, axis=0, out=q, mode="clip")
        norm = np.add.reduceat(counts, self.row_starts, axis=0, out=norm)
        q /= np.maximum(norm, 1.0, out=norm)[self.group]
        starts, bounds = self.starts.tolist(), self.bounds.tolist()
        source, target = self.source, self.target
        y = np.zeros((starts[-1], counts.shape[1]))
        below = np.zeros_like(y)  # sum_{v<r} y_v of each position
        y[target[: bounds[1]]] = q[: bounds[1]]  # row 0: y_0 = 0, x_0 = 1 and below = 0
        for r in range(1, len(starts) - 1):
            lo, hi, prev = starts[r], starts[r + 1], starts[r - 1]
            np.add(below[prev : prev + hi - lo], y[prev : prev + hi - lo], out=below[lo:hi])
            first, last = bounds[r], bounds[r + 1]
            y[target[first:last]] += nu * y[source[first:last]] * q[first:last]
        den = 1.0 - (1.0 - nu) * below[positions]
        return np.where(den > _EPS, y[positions] / np.maximum(den, _EPS), 0.0)


def _probability_table(strata: np.ndarray, horizon: int, nu: float, rows_of) -> np.ndarray:
    """Testing probability ``probs[c, t]`` of each stratum ``c`` in ``strata`` on every day.

    ``rows_of(chunk, span)`` weighs rows ``c..horizon`` of the strata ``chunk`` on the values
    ``0..span`` (day ``c + value``, ``span`` past the horizon) as a dense ``[stratum, value,
    row]`` block; day ``c + m`` reads a prefix, so one :func:`_offset_probabilities` serves
    every day.  Chunks under ``_TABLE_BLOCK_BYTES`` are padded to their widest span."""
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

    Construction only reads the strata in force on the day (:meth:`Panel.day_strata`).
    The point estimate sums the day's row of :meth:`Panel.estimated_terms`: one count pass
    and one push solve per panel serve every day, and no point estimate reads an
    individual.  Resamples (bootstrap draws, jackknife blocks) enter only through
    :meth:`batch`, as their totals over the day's :attr:`features` (built on first use,
    importing ``scipy.sparse`` only then); each call runs one :class:`_PushSolve` of the
    day's codes over all its rows and strata, :attr:`chunk_rows` rows at a time.  A
    ``workspace`` (:class:`~prevest.uncertainty.ResampleWorkspace`) lends that solve its
    gathered code counts from the arena the bootstrap's count block also uses, so a series
    that shares one across its days maps them once; without one, each call allocates
    them.  :meth:`estimate` returns an :class:`Evaluation`; ``_last_fallback``, the copy
    ``perfbench/tracing.py`` reads, is the only state a call leaves behind.
    """

    def __init__(self, panel: Panel, day: int, tests: TestCharacteristics,
                 min_stratum_size: int = MIN_STRATUM_SIZE,
                 workspace: Optional[ResampleWorkspace] = None):
        self.strata = panel.day_strata(day)
        tests.require_informative()
        self.panel = panel
        self.day = day
        self.tests = tests
        self.min_stratum_size = min_stratum_size
        self.workspace = workspace

    @cached_property
    def features(self) -> sparse.csc_matrix:
        """The individuals x (1 + 4S + codes) 0/1 columns whose multiplicity-weighted totals
        are all a resample's estimate reads, built by one CSC constructor: each non-removed
        individual's headcount class (column 0 if assumed well, else ``1 + 4 slot + kind``,
        kind ``2 tested + positive``, the cells :attr:`Panel.day_counts` bins), stably
        sorted by class, then the code columns of :attr:`_code_space`.  Stored as float32
        up to 2^24 individuals (:func:`_count_dtype`), where every total is still exact."""
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
        """:meth:`ContributionIndex.codes` of the day's strata, with the individuals of
        their cells in place of the index positions."""
        index = self.panel.contribution_index
        codes, bounds, cells, starts = index.codes(self.strata, self.day, self.panel.horizon)
        return codes, bounds, index.individual[cells], starts

    @cached_property
    def _solve(self) -> _PushSolve:
        return _PushSolve.of(self._code_space[0], self.strata, self.day)

    @property
    def chunk_rows(self) -> int:
        """Resample rows that fit ``_SOLVE_BLOCK_BYTES`` with all that :meth:`batch` holds for
        them: their totals, normalised code counts with their normalisation temporary (2
        floats a code), and the solve's y and running sums (2 floats a position)."""
        row_floats = (self.features.shape[1] + 2 * self._code_space[0].size
                      + 2 * int(self._solve.starts[-1]))
        return max(1, _SOLVE_BLOCK_BYTES // (8 * row_floats))

    def _stratum_probs(self, counts: np.ndarray, need: np.ndarray) -> np.ndarray:
        """Testing probability per (resample row, stratum) from per-code counts: one :attr:`_solve`
        of the call, read at each stratum's last row (the day) where ``need[b, j]``."""
        ratios = self._solve.ratios(counts.T, self.tests.specificity, self._solve.last,
                                    self.workspace).T
        return np.where(need, np.minimum(ratios, 1.0), 0.0)

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
