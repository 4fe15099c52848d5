"""Independent reference implementations used as test oracles.

These deliberately avoid the package's vectorised code paths: the
compartment fold works on Python sets, day by day, straight from the
per-day event sets.
"""

from __future__ import annotations

import numpy as np


def events_from_histories(histories, horizon):
    """Per-day event sets (tested, positive, exposed, undetected, cleared)."""
    days = {
        t: {"D": set(), "Y": set(), "Q": set(), "U": set(), "S": set()}
        for t in range(horizon + 1)
    }
    day0_infectious = set()
    for i, h in enumerate(histories):
        positive_days = {z for z, y in zip(h.test_times, h.test_results) if y}
        for z in h.test_times:
            if z <= horizon:
                days[z]["D"].add(i)
                if z in positive_days:
                    days[z]["Y"].add(i)
        for x in h.exposure_times:
            if x < 0:
                day0_infectious.add(i)
            elif 0 < x <= horizon:
                days[x]["Q"].add(i)
        # a recovery on day 0 is possible for back-dated pre-baseline exposures
        for v in h.infectious_end_times:
            if 0 <= v <= horizon and v not in positive_days:
                days[v]["U"].add(i)
        for c in h.clearance_times:
            if c <= horizon:
                days[c]["S"].add(i)
    return day0_infectious, days


def fold_compartments(n, day0_infectious, days, horizon):
    """Iterate the daily set updates; returns per-day (well, infectious, removed) sets.

    well(t+1)      = (well | undetected | cleared) - (exposed | positive)
    infectious(t+1) = (infectious | exposed) - (undetected | positive)
    removed(t+1)   = (removed | positive) - cleared
    """
    well = set(range(n)) - set(day0_infectious)
    infectious = set(day0_infectious)
    removed = set()
    states = {0: (frozenset(well), frozenset(infectious), frozenset(removed))}
    for t in range(0, horizon):
        ev = days[t]
        y, q, u, s = ev["Y"], ev["Q"], ev["U"], ev["S"]
        well, infectious, removed = (
            (well | u | s) - (q | y),
            (infectious | q) - (u | y),
            (removed | y) - s,
        )
        states[t + 1] = (frozenset(well), frozenset(infectious), frozenset(removed))
    return states


def fold_states_from_simulation(sim):
    """Set-fold oracle applied to a simulation's recorded transitions."""
    n = sim.population_size
    horizon = sim.horizon
    days = {}
    for t in range(horizon + 1):
        days[t] = {
            "D": set(np.flatnonzero(sim.tested[t])),
            "Y": set(np.flatnonzero(sim.positive[t])),
            "Q": set(np.flatnonzero(sim.newly_exposed[t])),
            "U": set(np.flatnonzero(sim.undetected_recovered[t])),
            "S": set(np.flatnonzero(sim.cleared[t])),
        }
    day0 = set(np.flatnonzero(sim.infectious[0]))
    return fold_compartments(n, day0, days, horizon)


def state_sets(state):
    return (
        frozenset(np.flatnonzero(state.well)),
        frozenset(np.flatnonzero(state.infectious)),
        frozenset(np.flatnonzero(state.removed)),
    )


def testing_process_oracle(regimen, stratum, t_max, specificity, n_paths, seed,
                           removal_duration=5):
    """Zero-exposure-hazard forward simulation of one stratum's testing process.

    Simulates ``n_paths`` individuals cleared on day ``stratum`` (day-0 start
    when the stratum is 0) through day ``t_max`` under the regimen's daily
    hazards.  A false positive (probability 1 - specificity per test)
    removes the path from the stratum.  Returns, per day, the fraction of
    still-present paths tested that day, its binomial standard error, and
    the count of paths the fraction is based on.
    """
    from prevest.regimens import probability_vector

    rng = np.random.default_rng(seed)
    c = stratum
    if c > 0:
        last_test = np.full(n_paths, c - removal_duration, dtype=np.int64)
        has_tested = np.ones(n_paths, dtype=bool)  # the detection test before isolation
        last_clear = np.full(n_paths, c, dtype=np.int64)
    else:
        last_test = np.zeros(n_paths, dtype=np.int64)
        has_tested = np.zeros(n_paths, dtype=bool)
        last_clear = np.zeros(n_paths, dtype=np.int64)
    alive = np.ones(n_paths, dtype=bool)
    prob = np.full(t_max + 1, np.nan)
    se = np.full(t_max + 1, np.nan)
    n_alive = np.zeros(t_max + 1, dtype=np.int64)
    for t in range(c + 1, t_max + 1):
        p = probability_vector(regimen, t, last_test, has_tested, last_clear)
        tested_now = alive & (rng.random(n_paths) < p)
        n_alive[t] = int(alive.sum())
        if n_alive[t]:
            phat = tested_now.sum() / n_alive[t]
            prob[t] = phat
            se[t] = np.sqrt(max(phat * (1 - phat), 0.0) / n_alive[t])
        false_pos = tested_now & (rng.random(n_paths) < 1.0 - specificity)
        alive &= ~false_pos
        last_test[tested_now] = t
        has_tested |= tested_now
    return prob, se, n_alive


testing_process_oracle.__test__ = False  # helper, not a test


def contribution_counts(panel, day, strata):
    """Next-test contribution counts of ``DayEvaluator``, one mask per (stratum, row).

    Returns ``{code: count}`` with ``code = (slot * width + (s - c)) * width +
    value``, ``width = day + 2``, for stratum ``c`` at ``slot`` in ``strata``,
    matrix row ``s`` and next-test value ``min(next_test, day + 1)``.  Row
    ``c`` selects the stratum's members just after the clearance; row
    ``s > c`` those testing negative on ``s`` while in the stratum.
    """
    t = day
    width = t + 2
    counts = {}
    for j, c in enumerate(strata):
        for s in range(c, t + 1):
            if s == c:
                sel = panel.stratum_after(c) == c
            else:
                sel = panel.tested[s] & ~panel.positive[s] & (panel.stratum_after(s) == c)
            values = np.minimum(panel.next_test[s, sel], t + 1)
            for value, count in zip(*np.unique(values, return_counts=True)):
                counts[int((j * width + (s - c)) * width + value)] = int(count)
    return counts


def index_bca_bootstrap(ev, n_units, spec, seed, point=None, clip=(0.0, 1.0)):
    """BCa bootstrap over index sets, the route the count-space version replaced.

    Resamples and jackknife keep-sets are index rows (``setdiff1d`` of the
    shuffled order minus each block); equal-length rows are stacked, turned
    into multiplicities by a per-row ``bincount`` and re-estimated with
    ``ev.batch`` of their totals on the unclipped scale.  Resamples with a nan estimate
    (nobody non-removed) are dropped from every step and counted.
    """
    import math

    from scipy import stats

    from prevest.uncertainty import BcaInterval

    def evaluate(index_rows):
        out = np.empty(len(index_rows))
        by_len = {}
        for pos, idx in enumerate(index_rows):
            by_len.setdefault(idx.size, []).append(pos)
        for positions in by_len.values():
            counts = np.array([np.bincount(index_rows[p], minlength=n_units)
                               for p in positions], dtype=float)
            out[positions] = ev.batch(counts @ ev.features)
        return out

    if point is None:
        point = float(evaluate([np.arange(n_units)])[0])
    b_iter = spec.bootstrap_iterations
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    thetas = evaluate(list(rng.integers(0, n_units, size=(b_iter, n_units))))
    defined = [theta for theta in thetas.tolist() if not math.isnan(theta)]
    undefined = b_iter - len(defined)
    if not defined:
        return BcaInterval(lo=math.nan, hi=math.nan, point=point, degenerate=True,
                           n_undefined=undefined)
    thetas = np.array(defined)
    if np.ptp(thetas) <= 1e-12 * max(1.0, float(np.max(np.abs(thetas)))):
        value = float(thetas[0])
        return BcaInterval(lo=value, hi=value, point=point, degenerate=True,
                           n_undefined=undefined)
    frac = float(np.mean(thetas < point))
    frac = min(max(frac, 0.5 / len(defined)), 1.0 - 0.5 / len(defined))
    z0 = float(stats.norm.ppf(frac))
    jack_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(1,))))
    order = jack_rng.permutation(n_units)
    size = spec.block_size(n_units)
    blocks = [order[i : i + size] for i in range(0, n_units, size)]
    jack = evaluate([np.setdiff1d(order, block, assume_unique=True) for block in blocks])
    undefined += int(np.isnan(jack).sum())
    jack = jack[~np.isnan(jack)]
    centered = (jack.mean() if jack.size else 0.0) - jack
    denom = (centered**2).sum() ** 1.5
    accel = float((centered**3).sum() / (6.0 * denom)) if denom > 0 else 0.0
    alpha = 1.0 - spec.level
    out = []
    for z_tail in (stats.norm.ppf(alpha / 2), stats.norm.ppf(1 - alpha / 2)):
        shifted = z0 + float(z_tail)
        scale = 1.0 - accel * shifted
        adjusted = z0 + shifted / scale if scale > 0 else (math.inf if shifted > 0 else -math.inf)
        out.append(float(stats.norm.cdf(adjusted)))
    levels = tuple(float(a) for a in np.clip(out, 0.0, 1.0))
    lo, hi = np.quantile(thetas, levels)
    if clip is not None:
        lo, hi = max(lo, clip[0]), min(hi, clip[1])
    return BcaInterval(lo=float(lo), hi=float(hi), point=point,
                       bias_correction=z0, acceleration=accel, quantile_levels=levels,
                       n_undefined=undefined)


def full_matrix_ratio_terms(mats, nu, c, t):
    """Testing-probability ratio terms by powers of the whole schedule matrix.

    For each matrix P: numerator = sum_{k=1}^{t-c} nu^(k-1) (P^k)[c, t];
    denominator = sum_k nu^(k-1) ((P^k - P^(k-1))[c, t] + (P^k - P^(k-1))[c, t+1]),
    with row ``c`` of each power taken as a vector times all of P.
    """
    b, size, _ = mats.shape
    v = np.zeros((b, size))
    v[:, c] = 1.0
    prev_tail = v[:, t] + v[:, t + 1]
    num = np.zeros(b)
    den = np.zeros(b)
    coef = 1.0
    for _ in range(t - c):
        v = np.matmul(v[:, None, :], mats)[:, 0, :]
        tail = v[:, t] + v[:, t + 1]
        num += coef * v[:, t]
        den += coef * (tail - prev_tail)
        prev_tail = tail
        coef *= nu
    return num, den


def per_stratum_ht_known(panel, day, tests, weight_for):
    """Known-weight well count and its variance, accumulated stratum by stratum.

    Each stratum ``c`` adds ``w_c (neg_c - (1 - eta) tested_c) / youden`` to
    the by-fiat well count, and ``((eta - 1)^2 pos_c + eta^2 neg_c)
    (1 - pi_c) / pi_c^2 / youden^2`` to the variance.
    """
    t = day
    nonrem = ~panel.removed[t]
    assumed = panel.assumed_well[t] & nonrem
    member = nonrem & ~assumed
    strat = panel.last_clear[t]
    eta, youden = tests.sensitivity, tests.youden
    w_hat = float(assumed.sum())
    variance = 0.0
    for c in np.unique(strat[member]):
        in_c = member & (strat == c)
        weight = float(weight_for(int(c), t))
        tested_c = int((in_c & panel.tested[t]).sum())
        pos_c = int((in_c & panel.tested[t] & panel.positive[t]).sum())
        neg_c = tested_c - pos_c
        w_hat += weight * (neg_c - (1.0 - eta) * tested_c) / youden
        pi = 1.0 / weight
        variance += ((eta - 1.0) ** 2 * pos_c + eta**2 * neg_c) * (1.0 - pi) / pi**2 / youden**2
    return w_hat, variance


def dense_contribution_scan(panel, day, strata):
    """``DayEvaluator._code_space``, ``(codes, individuals, starts)``, from a dense
    scan of the panel.

    Scans every (row day s <= day, individual) cell of the (day + 1) x n
    arrays for the clearance or negative-test cells of the strata in
    ``strata``, and compacts the codes with ``np.unique``; code ``k``'s
    individuals, ascending, are ``individuals[starts[k] : starts[k + 1]]``.
    """
    t = day
    width = t + 2
    slot_of = np.full(t + 1, -1)
    slot_of[strata] = np.arange(len(strata))
    days = np.arange(t + 1, dtype=panel.last_clear.dtype)[:, None]
    after = np.where(panel.cleared[: t + 1], days, panel.last_clear[: t + 1])
    negative = panel.tested[: t + 1] & ~panel.positive[: t + 1]
    keep = ((after == days) | negative) & (slot_of >= 0)[after]
    cell_s, cell_i = np.nonzero(keep)
    c = after[cell_s, cell_i]
    values = np.minimum(panel.next_test[cell_s, cell_i], t + 1)
    codes, code_col = np.unique((slot_of[c] * width + (cell_s - c)) * width + values,
                                return_inverse=True)
    order = np.lexsort((cell_i, code_col))
    starts = np.searchsorted(code_col[order], np.arange(codes.size + 1))
    return codes, cell_i[order], starts


def hstack_features(ev):
    """``DayEvaluator.features`` as first written: a class matrix from (unit, class) pairs,
    a code matrix from :attr:`DayEvaluator._code_space`, joined by ``sparse.hstack`` and
    cast to the count dtype."""
    from scipy import sparse

    from prevest.estimators import _count_dtype

    panel, t = ev.panel, ev.day
    nonremoved = np.flatnonzero(~panel.removed[t])
    slot = np.searchsorted(ev.strata, panel.last_clear[t, nonremoved])
    kind = 2 * panel.tested[t, nonremoved] + panel.positive[t, nonremoved]
    column = np.where(panel.assumed_well[t, nonremoved], 0, 1 + 4 * slot + kind)
    classes = sparse.csc_matrix((np.ones(nonremoved.size), (nonremoved, column)),
                                shape=(panel.n_individuals, 1 + 4 * len(ev.strata)))
    codes, individuals, starts = ev._code_space
    contrib = sparse.csc_matrix((np.ones(individuals.size), individuals, starts),
                                shape=(panel.n_individuals, codes.size))
    return sparse.hstack([classes, contrib], format="csc",
                         dtype=_count_dtype(panel.n_individuals))


def dict_anonymize_shuffle(
    matrix: TestingMatrix, seed: int, policy: AdjustmentPolicy | None = None
) -> TestingMatrix:
    """``dataio.anonymize_shuffle`` as first written: dict grouping, suffix copies.

    Each day groups the non-removed rows in a dict keyed by their schedule
    state (last test day, last result, last clearance day, stratum of a
    negative last test, pending removal start) and copies every group's
    remaining columns ``cells[members, j:]`` through its permutation, which
    is O(n T^2).
    """
    from prevest.dataio import POSITIVE, AdjustmentPolicy, TestingMatrix

    policy = policy or AdjustmentPolicy()
    rng = np.random.default_rng(seed)
    cells = matrix.cells.copy()
    n, horizon = cells.shape

    last_test = np.zeros(n, dtype=np.int64)
    last_result = np.zeros(n, dtype=np.int64)
    last_clear = np.zeros(n, dtype=np.int64)
    neg_stratum = np.zeros(n, dtype=np.int64)
    rem_start = np.zeros(n, dtype=np.int64)
    rem_end = np.zeros(n, dtype=np.int64)

    for day in range(1, horizon + 1):
        j = day - 1
        cleared_now = (rem_end > 0) & (rem_end == day - 1)
        last_clear[cleared_now] = rem_end[cleared_now]
        nonremoved = (day < rem_start) | (day > rem_end)
        keys: dict[tuple[int, ...], list[int]] = {}
        pending = np.where(rem_end >= day, rem_start, 0)
        for i in np.flatnonzero(nonremoved):
            key = (last_test[i], last_result[i], last_clear[i], neg_stratum[i], pending[i])
            keys.setdefault(key, []).append(i)
        for members in keys.values():
            if len(members) < 2:
                continue
            members = np.array(members)
            perm = rng.permutation(members.size)
            cells[members, j:] = cells[members[perm], j:]
        # apply day events from the (possibly swapped) suffixes
        idx = np.flatnonzero(cells[:, j] >= 0)
        last_test[idx] = day
        last_result[idx] = (cells[idx, j] == POSITIVE).astype(np.int64)
        neg_stratum[idx] = np.where(last_result[idx] == 0, last_clear[idx], 0)
        pos = idx[cells[idx, j] == POSITIVE]
        starts = pos[rem_end[pos] < day]  # pendency/removal blocks a nested episode
        rem_start[starts] = day + policy.result_delay_days + 1
        rem_end[starts] = day + policy.result_delay_days + policy.isolation_days

    order = rng.permutation(n)
    return TestingMatrix(dates=list(matrix.dates), cells=cells[order], row_labels=None)


def per_cell_parse_testing_matrix(path):
    """``dataio.parse_testing_matrix`` as first written: one cell at a time.

    Each row is split on commas, every field stripped and looked up in a
    symbol dict after ``str.upper``; the first bad field raises.
    """
    import datetime as dt

    from prevest.dataio import ABSENT, NEGATIVE, POSITIVE, ParseError, TestingMatrix

    symbols = {"": ABSENT, "N": NEGATIVE, "P": POSITIVE}
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [(k, ln) for k, ln in enumerate(fh.read().splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ParseError("empty testing-matrix file")
    header_line = lines[0][0]
    header = [h.strip() for h in lines[0][1].split(",")]
    has_ids = False
    try:
        dt.date.fromisoformat(header[0])
    except ValueError:
        has_ids = True
    date_cells = header[1:] if has_ids else header
    if not date_cells:
        raise ParseError("header contains no date columns", line=header_line)
    dates = []
    for j, cell in enumerate(date_cells):
        try:
            dates.append(dt.date.fromisoformat(cell))
        except ValueError:
            raise ParseError(f"bad date {cell!r} in header", line=header_line,
                             column=j + 1 + has_ids)
    for j, (a, b) in enumerate(zip(dates, dates[1:])):
        if (b - a).days != 1:
            raise ParseError(f"dates must be consecutive calendar days: {a} then {b}",
                             line=header_line, column=j + 2 + has_ids)
    n_cols = len(header)
    labels = []
    seen = set()
    rows = []
    for i, line in lines[1:]:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != n_cols:
            raise ParseError(f"row has {len(parts)} fields, header has {n_cols}", line=i)
        if has_ids:
            if parts[0] in seen:
                raise ParseError(f"duplicate row id {parts[0]!r}", line=i, column=1)
            seen.add(parts[0])
            labels.append(parts[0])
            parts = parts[1:]
        row = np.empty(len(parts), dtype=np.int8)
        for j, cell in enumerate(parts):
            value = symbols.get(cell.upper())
            if value is None:
                raise ParseError(f"unknown cell symbol {cell!r}", line=i, column=j + 1 + has_ids)
            row[j] = value
        rows.append(row)
    if not rows:
        raise ParseError("testing-matrix file has a header but no rows")
    return TestingMatrix(dates=dates, cells=np.vstack(rows),
                         row_labels=labels if has_ids else None)


def per_cell_write_testing_matrix(matrix, path):
    """``dataio.write_testing_matrix`` as first written: one symbol lookup per cell."""
    symbols = {-1: "", 0: "N", 1: "P"}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = [d.isoformat() for d in matrix.dates]
        if matrix.row_labels is not None:
            header = ["id"] + header
        fh.write(",".join(header) + "\n")
        for i in range(matrix.n_individuals):
            cells = [symbols[int(v)] for v in matrix.cells[i]]
            if matrix.row_labels is not None:
                cells = [matrix.row_labels[i]] + cells
            fh.write(",".join(cells) + "\n")


def row_loop_apply_adjustments(matrix, policy):
    """``dataio.apply_adjustments`` as first written: one individual at a time.

    Walks each row's tests in day order: a repeat test in a Monday-to-Sunday
    week (under the weekly rule) or a test inside a removal window is
    dropped; a kept positive outside a pending or active episode writes its
    whole removal window, clearance and exemption window at once.  Marks
    are never cleared, so an exemption window persists into a later
    episode's removal window.
    """
    from prevest.dataio import POSITIVE, AdjustedData

    n, horizon = matrix.n_individuals, matrix.n_days
    tested = np.zeros((horizon + 1, n), dtype=bool)
    positive = np.zeros((horizon + 1, n), dtype=bool)
    removed = np.zeros((horizon + 1, n), dtype=bool)
    cleared = np.zeros((horizon + 1, n), dtype=bool)
    assumed = np.zeros((horizon + 1, n), dtype=bool)
    week_of_day = [d.isocalendar()[:2] for d in matrix.dates]

    dropped_weekly = 0
    dropped_isolation = 0
    for i in range(n):
        cols = np.flatnonzero(matrix.cells[i] >= 0)
        rem_start, rem_end = 0, 0
        last_week = None
        for j in cols:
            day = j + 1
            if policy.keep_first_test_per_week:
                week = week_of_day[j]
                if week == last_week:
                    dropped_weekly += 1
                    continue
                last_week = week
            if rem_start <= day <= rem_end:
                dropped_isolation += 1
                continue
            tested[day, i] = True
            result = matrix.cells[i, j] == POSITIVE
            positive[day, i] = result
            if result and rem_end < day:
                rem_start = day + policy.result_delay_days + 1
                rem_end = day + policy.result_delay_days + policy.isolation_days
                exempt_until = day + policy.post_isolation_exemption_days
                if rem_start <= horizon:
                    removed[rem_start : min(rem_end, horizon) + 1, i] = True
                if rem_end <= horizon:
                    cleared[rem_end, i] = True
                if exempt_until > rem_end and rem_end + 1 <= horizon:
                    assumed[rem_end + 1 : min(exempt_until, horizon) + 1, i] = True
    tests_per_day = tested.sum(axis=1)
    excluded = tests_per_day < policy.min_daily_tests
    excluded[0] = True
    return AdjustedData(tested=tested, positive=positive, removed=removed, cleared=cleared,
                        assumed_well=assumed, dates=list(matrix.dates), excluded_days=excluded,
                        n_dropped_weekly=dropped_weekly, n_dropped_isolation=dropped_isolation)


def per_day_counts(panel, day):
    """Row ``day`` of ``Panel.day_counts`` from masks over the day's column.

    Counts as a per-day evaluator did before the panel kept the table: the
    non-removed, those assumed well, and the remaining members, bincounted by
    their last clearance into members, tested members and tested negatives;
    tests and positives are counted among all the non-removed.
    """
    t = day
    size = panel.horizon + 1
    nonremoved = ~panel.removed[t]
    assumed = panel.assumed_well[t] & nonremoved
    member = np.flatnonzero(nonremoved & ~assumed)
    strat = panel.last_clear[t, member]
    tested = panel.tested[t, member]
    negative = tested & ~panel.positive[t, member]
    members, tested_c, negative_c = (np.bincount(strat[mask], minlength=size).astype(float)
                                     for mask in (slice(None), tested, negative))
    return {
        "members": members,
        "tested": tested_c,
        "negative": negative_c,
        "nonremoved": int(np.count_nonzero(nonremoved)),
        "assumed": int(np.count_nonzero(assumed)),
        "n_tests": int(np.count_nonzero(panel.tested[t] & nonremoved)),
        "n_positive": int(np.count_nonzero(panel.positive[t] & nonremoved)),
    }


def per_day_point_evaluation(ev):
    """``DayEvaluator.estimate()`` computed from the day's own headcounts.

    The route before the panel kept per-(day, stratum) term tables: the day's
    members, tested members and negatives are read from ``Panel.day_counts``,
    each needed stratum's probability from ``Panel.point_probabilities``, and the
    well count is summed over the day's strata with the elementwise formula.
    """
    from prevest.estimators import _EPS, Evaluation

    panel, t, tests = ev.panel, ev.day, ev.tests
    counts = panel.day_counts
    n_c, tested_c, neg_c = (table[t, ev.strata][None, :]
                            for table in (counts.members, counts.tested, counts.negative))
    nonrem_n = np.array([counts.nonremoved[t]], dtype=float)
    assumed = np.array([counts.assumed[t]], dtype=float)
    need = (n_c >= ev.min_stratum_size) & (tested_c > 0)
    probs = np.where(need, panel.point_probabilities(tests.specificity)[ev.strata, t], 0.0)
    active = need & (probs > _EPS)
    weighted = (neg_c - (1.0 - tests.sensitivity) * tested_c) / (
        tests.youden * np.where(active, probs, 1.0))
    w_hat = assumed + np.where(active, weighted, n_c).sum(axis=-1)
    unclipped = np.where(nonrem_n > 0, (nonrem_n - w_hat) / np.maximum(nonrem_n, 1.0), np.nan)
    return Evaluation(unclipped=unclipped, fallback=(~active & (n_c > 0)).sum(axis=1),
                      members=n_c, need=need, probs=probs)


def per_day_ht_known(panel, day, tests, weight_for):
    """``ht_known``'s ``(unclipped, variance)`` from the day's own headcounts, the route
    before the panel kept the numerator and variance-factor tables."""
    from prevest.estimators import DayEvaluator, prevalence_from_w

    strata = DayEvaluator(panel, day, tests).strata
    counts = panel.day_counts
    n_c, tested_c, neg_c = (table[day, strata]
                            for table in (counts.members, counts.tested, counts.negative))
    pi = 1.0 / np.array([float(weight_for(c, day)) for c in strata.tolist()])
    eta = tests.sensitivity
    weighted = (neg_c - (1.0 - eta) * tested_c) / (
        tests.youden * np.where(np.ones(pi.shape, dtype=bool), pi, 1.0))
    w_hat = int(counts.assumed[day]) + float(
        np.where(np.ones(pi.shape, dtype=bool), weighted, n_c).sum(axis=-1))
    variance = float(((1.0 - pi) / pi**2 * (eta**2 * neg_c + (1.0 - eta) ** 2 * (tested_c - neg_c))
                      ).sum() / tests.youden**2)
    return prevalence_from_w(w_hat, int(counts.nonremoved[day])), variance


def per_offset_probability_table(strata, horizon, nu, rows_of):
    """``estimators._probability_table`` with each offset ``m``'s ratios formed and
    scattered inside the loop, the form before one scatter per chunk."""
    from prevest.estimators import _EPS, _TABLE_BLOCK_BYTES, _forward_substitute

    size = horizon + 1
    probs = np.zeros((size, size))
    strata = strata[strata < horizon]
    first = 0
    while first < strata.size:
        span = horizon - int(strata[first]) + 1
        step = max(1, _TABLE_BLOCK_BYTES // (8 * (span + 1) * span))
        chunk = strata[first : first + step]
        first += chunk.size
        block = rows_of(chunk, span)
        sums = block.sum(axis=1)[:, None, :]
        norm = np.where(sums > 0, sums, 1.0)
        after = np.cumsum(block[:, ::-1], axis=1)[:, ::-1] / norm
        after = np.where(sums == 0, 1.0, after)
        block /= norm
        x, y = _forward_substitute(lambda j: block[:, j, :j], chunk.size, span, nu)
        for m in range(1, span):
            rows = np.searchsorted(chunk, horizon - m, side="right")
            num = y[:rows, m]
            den = num + np.einsum("bi,bi->b", x[:rows, :m], after[:rows, m + 1, :m])
            probs[chunk[:rows], chunk[:rows] + m] = np.where(
                den > _EPS, num / np.maximum(den, _EPS), 0.0)
    return np.minimum(probs, 1.0)


def row_counts(index, chunk, span, horizon):
    """Cell counts ``[stratum, value, row]`` of the ascending strata ``chunk`` in a panel's
    contribution index: value ``next_test - c``, or ``span`` after the horizon, the dense
    full-horizon rows ``estimators._probability_table`` reads (the point table's input
    before the push solve read the index's codes)."""
    size = horizon + 1
    lo, hi = np.searchsorted(index.key, [chunk[0] * size, (chunk[-1] + 1) * size])
    c = index.key[lo:hi] // size
    value = np.where(index.next_test[lo:hi] > horizon, span, index.next_test[lo:hi] - c)
    flat = (np.searchsorted(chunk, c) * (span + 1) + value) * span + index.offset[lo:hi]
    counts = np.bincount(flat, minlength=chunk.size * (span + 1) * span).astype(float)
    return counts.reshape(chunk.size, span + 1, span)


def count_matrix_probabilities(ev, counts, nu):
    """Per (row, stratum slot) testing probability of a ``DayEvaluator``'s day from the
    code counts ``counts`` (rows x codes), through whole schedule matrices: row ``c + r``
    of stratum ``c``'s ``(t + 2) x (t + 2)`` matrix is its codes' counts over their sum,
    or the tail indicator when it has none, and ``_ratio_terms`` gives num and den."""
    from prevest.estimators import _EPS, _ratio_terms

    codes = ev._code_space[0]
    t, width = ev.day, ev.day + 2
    # stratum j owns the contiguous slice bounds[j]:bounds[j + 1] of the codes
    bounds = np.searchsorted(codes, np.arange(len(ev.strata) + 1) * width * width)
    rows = counts.shape[0]
    probs = np.zeros((rows, len(ev.strata)))
    for j, c in enumerate(ev.strata.tolist()):
        mats = np.zeros((rows, t + 2, t + 2))
        for k in range(bounds[j], bounds[j + 1]):
            row, value = divmod(int(codes[k]) - j * width * width, width)
            mats[:, c + row, value] = counts[:, k]
        sums = mats.sum(axis=2)
        mats[:, :, t + 1] += sums == 0
        mats /= np.maximum(sums, 1.0)[:, :, None]
        num, den = _ratio_terms(mats, nu, c, t)
        probs[:, j] = np.where(den > _EPS, num / np.maximum(den, _EPS), 0.0)
    return np.minimum(probs, 1.0)


def individual_major_derived(horizon, tested, cleared):
    """``Panel._derived``'s ``(last_clear, next_test)`` as first written, over
    individual-major ``n x (horizon + 1)`` event arrays: one strided column a day."""
    n = tested.shape[0]
    last_clear = np.zeros((n, horizon + 1), dtype=np.int32)
    running = np.zeros(n, dtype=np.int32)
    for t in range(horizon + 1):
        last_clear[:, t] = running
        running = np.where(cleared[:, t], t, running)
    next_test = np.full((n, horizon + 1), horizon + 2, dtype=np.int32)
    for s in range(horizon - 1, -1, -1):
        next_test[:, s] = np.where(tested[:, s + 1], s + 1, next_test[:, s + 1])
    return last_clear, next_test


def individual_major_tables(horizon, tested, positive, removed, cleared, assumed_well):
    """``Panel.contribution_index`` and ``Panel.day_counts`` as first written, over
    individual-major event arrays: ``np.nonzero`` yields the cells individual by
    individual, and the stable sort breaks ties in that order."""
    from prevest.estimators import ContributionIndex, DayCounts

    last_clear, next_test_of = individual_major_derived(horizon, tested, cleared)
    days = np.arange(horizon + 1, dtype=last_clear.dtype)
    after = np.where(cleared, days, last_clear)
    keep = (after == days) | (tested & ~positive)
    individual, s = np.nonzero(keep)
    c = after[individual, s].astype(np.int64)
    next_test = next_test_of[individual, s].astype(np.int64)
    key = c * (horizon + 1) + s
    dtype = np.min_scalar_type((horizon + 1) ** 2 * (horizon + 3))
    order = np.argsort((key * (horizon + 3) + next_test).astype(dtype), kind="stable")
    index = ContributionIndex(key=key[order], offset=(s - c)[order],
                              next_test=next_test[order], individual=individual[order])

    size = horizon + 1
    key = np.arange(size) * size + last_clear
    key *= 8
    for weight, flag in ((4, assumed_well), (2, tested), (1, positive)):
        np.add(key, weight, out=key, where=flag)
    key[removed] = size * size * 8
    cells = np.bincount(key.ravel(), minlength=size * size * 8 + 1)[:-1]
    cells = cells.reshape(size, size, 2, 4)
    members, per_day = cells[:, :, 0], cells.sum(axis=1)
    counts = DayCounts(members=members.sum(axis=2).astype(float),
                       tested=members[:, :, 2:].sum(axis=2).astype(float),
                       negative=members[:, :, 2].astype(float),
                       nonremoved=per_day.sum(axis=(1, 2)), assumed=per_day[:, 1].sum(axis=1),
                       n_tests=per_day[:, :, 2:].sum(axis=(1, 2)),
                       n_positive=per_day[:, :, 1::2].sum(axis=(1, 2)))
    return index, counts
