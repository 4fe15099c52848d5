import copy
import dataclasses
import datetime as dt
import json
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prevest.core import EventHistory, TestCharacteristics
from prevest.dataio import (
    ABSENT,
    NEGATIVE,
    POSITIVE,
    AdjustmentPolicy,
    ParseError,
    TestingMatrix,
    _from_dict,
    _group_shuffles,
    _stable_order,
    anonymize_shuffle,
    apply_adjustments,
    load_adjustment_policy,
    load_scenario_config,
    matrix_from_simulation,
    parse_testing_matrix,
    scenario_config_from_dict,
    write_testing_matrix,
)
from prevest.estimators import Panel, clip_unit, ht_estimated, tpr_prevalence
from prevest.scenarios import SCENARIO_NAMES, build_scenario, estimate_panel_series
from prevest.regimens import ConfigError, RegimenConfig
from prevest.simulate import ExternalHazard, HazardModel, ScenarioConfig, simulate

from _oracles import (
    dict_anonymize_shuffle,
    per_cell_parse_testing_matrix,
    per_cell_write_testing_matrix,
    row_loop_apply_adjustments,
)

MONDAY = dt.date(2020, 8, 31)


def write(tmp_path, text, name="m.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def small_sim(seed=0, n=200, horizon=15):
    cfg = ScenarioConfig(
        population_size=n, horizon_days=horizon,
        regimen=RegimenConfig.min_max(gap=6, min_gap=2),
        tests=TestCharacteristics(0.832, 0.992),
        hazard=HazardModel(external=ExternalHazard(kind="constant", rate=0.05),
                           initial_prevalence=0.1),
        removal_duration_days=4, seed=seed,
    )
    return simulate(cfg)


class TestParsing:
    def test_two_by_three(self, tmp_path):
        path = write(tmp_path, "2020-08-31,2020-09-01,2020-09-02\nN,,P\n,N,\n")
        m = parse_testing_matrix(path)
        assert m.n_individuals == 2 and m.n_days == 3
        assert m.n_tests() == 3
        assert m.cells[0, 2] == POSITIVE and m.cells[1, 1] == NEGATIVE
        assert m.cells[0, 1] == ABSENT

    def test_id_column(self, tmp_path):
        path = write(tmp_path, "id,2020-08-31,2020-09-01\nr1,N,\nr2,,P\n")
        m = parse_testing_matrix(path)
        assert m.row_labels == ["r1", "r2"]
        assert m.n_days == 2

    def test_malformed_first_date_is_no_id_column(self, tmp_path):
        # it once parsed as one day, 2020-09-01, with the first column as ids N, '', P
        path = write(tmp_path, "2020-8-31,2020-09-01\nN,P\n,N\nP,\n")
        with pytest.raises(ParseError, match=r"'2020-8-31' in header \(line 1, column 1\)"):
            parse_testing_matrix(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="empty"):
            parse_testing_matrix(write(tmp_path, ""))

    def test_ragged_row_reports_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 3"):
            parse_testing_matrix(write(tmp_path, "2020-08-31,2020-09-01\nN,\nN\n"))

    def test_unknown_symbol_reports_position(self, tmp_path):
        with pytest.raises(ParseError, match="line 2, column 2"):
            parse_testing_matrix(write(tmp_path, "2020-08-31,2020-09-01\nN,X\n"))

    def test_gapped_dates_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="consecutive"):
            parse_testing_matrix(write(tmp_path, "2020-08-31,2020-09-02\nN,\n"))

    @pytest.mark.parametrize("text", [
        "2020-08-31,2020-09-01,2020-09-02\nN,,P\n,N,\n",
        "id,2020-08-31,2020-09-01,2020-09-02\nr1,N,,P\nr2,,N,\n",
    ], ids=["plain", "ids"])
    def test_byte_order_mark_is_ignored(self, tmp_path, text):
        plain = parse_testing_matrix(write(tmp_path, text, "plain.csv"))
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        marked = parse_testing_matrix(bom)
        assert marked.dates == plain.dates and marked.n_days == 3
        assert marked.row_labels == plain.row_labels
        assert np.array_equal(marked.cells, plain.cells)

    def test_duplicate_row_id_reports_second_line(self, tmp_path):
        text = "id,2020-08-31,2020-09-01\na,N,\nb,,N\n\na,,P\n"
        with pytest.raises(ParseError, match=r"duplicate row id 'a' \(line 5, column 1\)"):
            parse_testing_matrix(write(tmp_path, text))

    def test_blank_lines_keep_file_line_numbers(self, tmp_path):
        with pytest.raises(ParseError, match="line 4, column 2"):
            parse_testing_matrix(write(tmp_path, "2020-08-31,2020-09-01\nN,\n\nN,X\n"))

    def test_cell_spellings(self, tmp_path):
        text = "id,2020-08-31,2020-09-01,2020-09-02\n r1 , n ,\xa0P\t, \n\u3000r2,,p,N\n"
        m = parse_testing_matrix(write(tmp_path, text))
        assert m.row_labels == ["r1", "r2"]
        assert m.cells.tolist() == [[NEGATIVE, POSITIVE, ABSENT], [ABSENT, POSITIVE, NEGATIVE]]

    @pytest.mark.parametrize("cell", ["NN", "N P", "\xd1", "x"])
    def test_first_bad_field_in_file_order(self, tmp_path, cell):
        text = f"2020-08-31,2020-09-01\nN,\n,{cell}\nX,\n"
        with pytest.raises(ParseError, match=rf"unknown cell symbol '{cell}' \(line 3, column 2\)"):
            parse_testing_matrix(write(tmp_path, text))

    def test_bad_cell_before_ragged_row_wins(self, tmp_path):
        with pytest.raises(ParseError, match="'X' \\(line 2, column 1\\)"):
            parse_testing_matrix(write(tmp_path, "2020-08-31,2020-09-01\nX,\nN\n"))

    def test_round_trip_file(self, tmp_path):
        sim = small_sim()
        matrix = matrix_from_simulation(sim, start_date=MONDAY)
        path = tmp_path / "sim.csv"
        write_testing_matrix(matrix, path)
        back = parse_testing_matrix(path)
        assert back.dates == matrix.dates
        assert np.array_equal(back.cells, matrix.cells)


class TestMatrixValidation:
    """A ``TestingMatrix`` holds only what the writer can write and the parser reads back."""

    DATES = [MONDAY, MONDAY + dt.timedelta(days=1)]

    @pytest.mark.parametrize("cells,labels,message", [
        ([[0, 2], [1, -1]], None, "cells must be"),
        ([[0, -1], [1, -1]], ["x"], "1 row labels for 2 rows"),
        ([[0, -1], [1, -1]], ["a", "a"], "duplicate row label 'a'"),
        ([[0, -1], [1, -1]], ["a,b", "c"], "comma or a line break"),
        ([[0, -1], [1, -1]], ["a", "b\nc"], "comma or a line break"),
        ([[0, -1], [1, -1]], ["a", " c "], "surrounding whitespace"),
    ], ids=["cell-value", "label-count", "duplicate-label", "comma-label", "line-break-label",
            "padded-label"])
    def test_rejected(self, cells, labels, message):
        with pytest.raises(ValueError, match=message):
            TestingMatrix(self.DATES, np.array(cells), labels)

    def test_one_day_untested_row_without_labels_is_not_written(self, tmp_path):
        matrix = TestingMatrix([MONDAY], np.array([[NEGATIVE], [ABSENT]]))
        with pytest.raises(ValueError, match="blank"):
            write_testing_matrix(matrix, tmp_path / "m.csv")
        labelled = dataclasses.replace(matrix, row_labels=["a", "b"])
        write_testing_matrix(labelled, tmp_path / "m.csv")
        assert parse_testing_matrix(tmp_path / "m.csv").row_labels == ["a", "b"]


# Whitespace that ``str.strip`` removes but that does not end a line.
SPACES = " \t\x1f\xa0\u3000"
BAD_CELLS = ["X", "NN", "N P", "\xd1", "\ufeffN", "0", "-"]


@st.composite
def matrix_files(draw):
    """Bytes of a testing-matrix file.

    Cells and ids are padded with whitespace, ``N``/``P`` come in either case,
    blank lines are scattered, lines end in LF or CRLF and a BOM may lead.
    Up to three faults are planted: a ragged row, a bad cell symbol (or a
    bad character in an id, which is no fault) and a repeated id.
    """
    n = draw(st.integers(1, 6))
    horizon = draw(st.integers(1, 6))
    has_ids = draw(st.booleans())
    start = MONDAY + dt.timedelta(days=draw(st.integers(0, 6)))
    pad = st.text(SPACES, max_size=2)

    def padded(text):
        return draw(pad) + text + draw(pad)

    header = [(start + dt.timedelta(days=j)).isoformat() for j in range(horizon)]
    rows = []
    for i in range(n):
        cells = [padded(draw(st.sampled_from(["", "N", "n", "P", "p"]))) for _ in range(horizon)]
        rows.append([padded(f"r{i}")] + cells if has_ids else cells)
    for fault in draw(st.lists(st.sampled_from(["ragged", "symbol", "duplicate"]), max_size=3)):
        i = draw(st.integers(0, n - 1))
        row = rows[i]
        if fault == "ragged":
            if len(row) > 1 and draw(st.booleans()):
                row.pop()
            else:
                row.append(padded(""))
        elif fault == "symbol":
            row[draw(st.integers(0, len(row) - 1))] = padded(draw(st.sampled_from(BAD_CELLS)))
        elif has_ids and i > 0:
            row[0] = padded(rows[draw(st.integers(0, i - 1))][0].strip(SPACES))
    lines = [",".join((["id"] if has_ids else []) + header)] + [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(pad))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode("utf-8")


def parse_outcome(parse, path):
    try:
        m = parse(path)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column
    return "ok", m.dates, m.cells.dtype, m.cells.shape, m.cells.tobytes(), m.row_labels


@st.composite
def random_matrices(draw, max_n, max_days, labelled=False):
    """Random cells from a random start weekday, and row labels when ``labelled`` draws them."""
    n = draw(st.integers(1, max_n))
    horizon = draw(st.integers(1, max_days))
    start = MONDAY + dt.timedelta(days=draw(st.integers(0, 6)))
    cells = draw(st.lists(st.lists(st.sampled_from([ABSENT, NEGATIVE, POSITIVE]),
                                   min_size=horizon, max_size=horizon), min_size=n, max_size=n))
    labels = None
    if labelled and draw(st.booleans()):
        labels = draw(st.lists(st.text("ab_1\xd1 ", max_size=4).map(str.strip),
                               min_size=n, max_size=n, unique=True))
    dates = [start + dt.timedelta(days=j) for j in range(horizon)]
    return TestingMatrix(dates, np.array(cells, dtype=np.int8), labels)


@pytest.mark.slow
class TestMatrixFileProperties:
    """The whole-array parser and writer pinned to the per-cell originals."""

    @settings(max_examples=300)
    @given(data=matrix_files())
    def test_parser_equals_per_cell_oracle(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("parse") / "m.csv"
        path.write_bytes(data)
        assert (parse_outcome(parse_testing_matrix, path)
                == parse_outcome(per_cell_parse_testing_matrix, path))

    @settings(max_examples=150)
    @given(matrix=random_matrices(max_n=6, max_days=6, labelled=True))
    def test_writer_equals_per_cell_oracle_and_round_trips(self, tmp_path_factory, matrix):
        tmp = tmp_path_factory.mktemp("write")
        got, want = tmp / "got.csv", tmp / "want.csv"
        per_cell_write_testing_matrix(matrix, want)
        untested = matrix.n_tests() < matrix.n_individuals
        if matrix.row_labels is None and matrix.n_days == 1 and untested:
            with pytest.raises(ValueError):  # an untested row would be a blank line
                write_testing_matrix(matrix, got)
            return
        write_testing_matrix(matrix, got)
        assert got.read_bytes() == want.read_bytes()
        back = parse_testing_matrix(got)
        assert back.dates == matrix.dates and back.row_labels == matrix.row_labels
        assert back.cells.tobytes() == matrix.cells.tobytes()


class TestAdjustments:
    def test_result_delay_and_isolation_window(self):
        cells = np.full((1, 20), ABSENT, dtype=np.int8)
        cells[0, 2] = POSITIVE  # study day 3
        m = TestingMatrix([MONDAY + dt.timedelta(days=j) for j in range(20)], cells)
        adj = apply_adjustments(m, AdjustmentPolicy(result_delay_days=2, isolation_days=10,
                                                    post_isolation_exemption_days=90,
                                                    keep_first_test_per_week=False,
                                                    min_daily_tests=0))
        removed = adj.panel.removed[:, 0]
        assert not removed[5] and removed[6] and removed[15]  # days 6..15 removed
        assert not removed[16]
        assert adj.panel.cleared[15, 0]
        assert adj.panel.assumed_well[16, 0] and adj.panel.assumed_well[20, 0]

    def test_weekly_filter_keeps_first_test(self):
        cells = np.full((1, 14), ABSENT, dtype=np.int8)
        cells[0, 1] = NEGATIVE  # Tuesday
        cells[0, 3] = NEGATIVE  # Thursday, same week: dropped
        cells[0, 7] = NEGATIVE  # next Monday: kept
        m = TestingMatrix([MONDAY + dt.timedelta(days=j) for j in range(14)], cells)
        adj = apply_adjustments(m, AdjustmentPolicy(min_daily_tests=0))
        assert adj.n_dropped_weekly == 1
        assert list(np.flatnonzero(adj.panel.tested[:, 0])) == [2, 8]

    def test_min_daily_tests_exclusion(self):
        cells = np.full((99, 2), NEGATIVE, dtype=np.int8)
        m = TestingMatrix([MONDAY, MONDAY + dt.timedelta(days=1)], cells)
        adj = apply_adjustments(m, AdjustmentPolicy(keep_first_test_per_week=False))
        assert bool(adj.excluded_days[1]) and bool(adj.excluded_days[2])
        bigger = TestingMatrix([MONDAY], np.full((100, 1), NEGATIVE, dtype=np.int8))
        adj2 = apply_adjustments(bigger, AdjustmentPolicy(keep_first_test_per_week=False))
        assert not adj2.excluded_days[1]

    def test_idempotent(self):
        sim = small_sim(seed=5)
        matrix = matrix_from_simulation(sim, start_date=MONDAY)
        policy = AdjustmentPolicy(result_delay_days=1, isolation_days=7,
                                  post_isolation_exemption_days=20, min_daily_tests=3)
        once = apply_adjustments(matrix, policy)
        twice = apply_adjustments(once.to_matrix(), policy)
        for name in ("tested", "positive", "removed", "cleared", "assumed_well"):
            assert np.array_equal(getattr(once.panel, name), getattr(twice.panel, name)), name
        assert np.array_equal(once.excluded_days, twice.excluded_days)

    def test_round_trip_matches_direct_panel(self):
        sim = small_sim(seed=9)
        matrix = matrix_from_simulation(sim, start_date=MONDAY)
        policy = AdjustmentPolicy.for_simulation(sim.config)
        adj = apply_adjustments(matrix, policy)
        direct = sim.panel()
        for name in ("tested", "positive", "removed", "cleared", "last_clear"):
            assert np.array_equal(getattr(adj.panel, name), getattr(direct, name)), name
        for day in (4, 9, 15):
            a, _ = ht_estimated(adj.panel, day, sim.config.tests)
            b, _ = ht_estimated(direct, day, sim.config.tests)
            assert a.estimate == b.estimate

    def test_event_arrays_are_day_major(self):
        """Each event array holds one C-contiguous row per day, and the panel takes them
        without a copy."""
        sim = small_sim(seed=9)
        matrix = matrix_from_simulation(sim, start_date=MONDAY)
        adj = apply_adjustments(matrix, AdjustmentPolicy(min_daily_tests=0))
        for name in ("tested", "positive", "removed", "cleared", "assumed_well"):
            array = getattr(adj, name)
            assert array.shape == (matrix.n_days + 1, matrix.n_individuals), name
            assert array.flags.c_contiguous, name
            assert getattr(adj.panel, name) is array, name
        assert adj.to_matrix().cells.flags.c_contiguous


def series_fingerprint(panel, tests, days):
    out = []
    for day in days:
        nonrem = ~panel.removed[day]
        n_tests = int((panel.tested[day] & nonrem).sum())
        n_pos = int((panel.positive[day] & nonrem).sum())
        est, _ = ht_estimated(panel, day, tests, min_stratum_size=5)
        out.append((n_tests, n_pos, clip_unit(tpr_prevalence(n_pos, n_tests, tests)), est.estimate))
    return out


class TestAnonymizer:
    def test_single_individual_unchanged(self):
        cells = np.array([[NEGATIVE, ABSENT, POSITIVE]], dtype=np.int8)
        m = TestingMatrix([MONDAY + dt.timedelta(days=j) for j in range(3)], cells)
        out = anonymize_shuffle(m, seed=3, policy=AdjustmentPolicy())
        assert np.array_equal(out.cells, m.cells)

    def test_daily_counts_preserved(self):
        sim = small_sim(seed=2)
        m = matrix_from_simulation(sim, start_date=MONDAY)
        out = anonymize_shuffle(m, seed=1, policy=AdjustmentPolicy.for_simulation(sim.config))
        assert np.array_equal((out.cells >= 0).sum(axis=0), (m.cells >= 0).sum(axis=0))
        assert np.array_equal((out.cells == POSITIVE).sum(axis=0),
                              (m.cells == POSITIVE).sum(axis=0))

    def test_estimators_invariant_under_shuffle(self):
        sim = small_sim(seed=4)
        m = matrix_from_simulation(sim, start_date=MONDAY)
        policy = AdjustmentPolicy.for_simulation(sim.config)
        out = anonymize_shuffle(m, seed=8, policy=policy)
        assert not np.array_equal(out.cells, m.cells)  # it actually shuffled
        days = range(1, sim.horizon + 1)
        before = series_fingerprint(apply_adjustments(m, policy).panel, sim.config.tests, days)
        after = series_fingerprint(apply_adjustments(out, policy).panel, sim.config.tests, days)
        assert before == after

    def test_seeded_shuffle_reproducible(self):
        sim = small_sim(seed=6)
        m = matrix_from_simulation(sim, start_date=MONDAY)
        a = anonymize_shuffle(m, seed=5, policy=AdjustmentPolicy())
        b = anonymize_shuffle(m, seed=5, policy=AdjustmentPolicy())
        assert np.array_equal(a.cells, b.cells)
        assert a.row_labels is None

    def test_one_draw_call_per_day(self, monkeypatch):
        """A day's groups are drawn by one call, not one ``shuffle`` call per group."""
        calls = []

        class CountingRandomState(np.random.RandomState):
            def randint(self, *args, **kwargs):
                calls.append(args)
                return super().randint(*args, **kwargs)

        monkeypatch.setattr(np.random, "RandomState", CountingRandomState)
        sim = small_sim(seed=4)
        m = matrix_from_simulation(sim, start_date=MONDAY)
        out = anonymize_shuffle(m, seed=8, policy=AdjustmentPolicy.for_simulation(sim.config))
        assert not np.array_equal(out.cells, m.cells)
        assert 0 < len(calls) <= m.n_days


@st.composite
def policy_matrices(draw, max_n=30, max_days=28, **fixed):
    """A random policy and a matrix it drops no test from.

    Rows are drawn as strings over " NP"; a test inside a removal window (or,
    under the weekly rule, a second test in a Monday-to-Sunday week) is
    blanked, mirroring ``apply_adjustments``.  ``fixed`` policy fields replace
    the drawn ones.
    """
    policy = AdjustmentPolicy(**{
        "result_delay_days": draw(st.integers(0, 2)),
        "isolation_days": draw(st.integers(1, 4)),
        "post_isolation_exemption_days": draw(st.integers(0, 8)),
        "keep_first_test_per_week": draw(st.booleans()),
        "min_daily_tests": 0,
        **fixed,
    })
    n = draw(st.integers(1, max_n))
    horizon = draw(st.integers(1, max_days))
    start = MONDAY + dt.timedelta(days=draw(st.integers(0, 6)))
    dates = [start + dt.timedelta(days=j) for j in range(horizon)]
    rows = draw(st.lists(st.text(" NNP", min_size=horizon, max_size=horizon),
                         min_size=n, max_size=n))
    cells = np.full((n, horizon), ABSENT, dtype=np.int8)
    for i, row in enumerate(rows):
        rem_start = rem_end = 0
        last_week = None
        for j, symbol in enumerate(row):
            day = j + 1
            week = dates[j].isocalendar()[:2]
            if symbol == " " or rem_start <= day <= rem_end or (
                    policy.keep_first_test_per_week and week == last_week):
                continue
            last_week = week
            cells[i, j] = POSITIVE if symbol == "P" else NEGATIVE
            if symbol == "P" and rem_end < day:
                rem_start = day + policy.result_delay_days + 1
                rem_end = day + policy.result_delay_days + policy.isolation_days
    return TestingMatrix(dates, cells), policy


class TestAdjustmentProperties:
    @settings(max_examples=60)
    @given(case=policy_matrices(result_delay_days=0, post_isolation_exemption_days=0,
                                keep_first_test_per_week=False))
    def test_panel_equals_event_history_reconstruction(self, case):
        """Without delay, weekly rule or exemption, each row is an event history: its
        tests, and a clearance ``isolation_days`` after each positive."""
        matrix, policy = case
        horizon = matrix.n_days
        histories = []
        for row in matrix.cells:
            days = np.flatnonzero(row >= 0) + 1
            results = row[days - 1] == POSITIVE
            clearances = [day + policy.isolation_days for day in days[results]]
            histories.append(EventHistory(test_times=tuple(days), test_results=tuple(results),
                                          clearance_times=tuple(clearances)))
        want = Panel.from_histories(histories, horizon)
        got = apply_adjustments(matrix, policy).panel
        for name in ("tested", "positive", "removed", "cleared", "last_clear", "next_test",
                     "assumed_well"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


@st.composite
def raw_matrices(draw, every_rule=False, max_n=20, max_days=28):
    """A random policy and a matrix of random cells, the tests it drops left in.

    Repeat tests within a week and tests inside a removal window stay in the
    matrix.  With ``every_rule`` the policy has a result delay, an exemption
    and the weekly rule.
    """
    low = int(every_rule)
    policy = AdjustmentPolicy(
        result_delay_days=draw(st.integers(low, 3)),
        isolation_days=draw(st.integers(1, 5)),
        post_isolation_exemption_days=draw(st.integers(low, 20)),
        keep_first_test_per_week=every_rule or draw(st.booleans()),
        min_daily_tests=draw(st.integers(0, 3)),
    )
    return draw(random_matrices(max_n, max_days)), policy


def assert_same_adjustment(got, want):
    for f in dataclasses.fields(Panel):
        if f.init:
            np.testing.assert_array_equal(getattr(got.panel, f.name), getattr(want.panel, f.name),
                                          err_msg=f.name)
    assert (got.n_dropped_weekly, got.n_dropped_isolation) == (
        want.n_dropped_weekly, want.n_dropped_isolation)
    np.testing.assert_array_equal(got.excluded_days, want.excluded_days)
    np.testing.assert_array_equal(got.tests_per_day, want.tests_per_day)
    assert got.tests_per_day.dtype == want.tests_per_day.dtype


@pytest.mark.slow
class TestAdjustmentOracle:
    """The day-loop ``apply_adjustments`` pinned to the row-loop original."""

    @settings(max_examples=60)
    @given(case=policy_matrices())
    def test_policy_consistent_matrices(self, case):
        matrix, policy = case
        assert_same_adjustment(apply_adjustments(matrix, policy),
                               row_loop_apply_adjustments(matrix, policy))

    @settings(max_examples=150)
    @given(case=raw_matrices(every_rule=True))
    def test_unfiltered_matrices_every_rule_on(self, case):
        matrix, policy = case
        assert_same_adjustment(apply_adjustments(matrix, policy),
                               row_loop_apply_adjustments(matrix, policy))


class TestAnonymizerProperties:
    """The linear-time anonymizer pinned to the dict-grouping original."""

    @settings(max_examples=80)
    @given(case=policy_matrices(), seed=st.integers(0, 2**16))
    def test_equals_dict_grouping_oracle(self, case, seed):
        matrix, policy = case
        got = anonymize_shuffle(matrix, seed, policy)
        want = dict_anonymize_shuffle(matrix, seed, policy)
        assert got.cells.dtype == want.cells.dtype
        assert got.cells.tobytes() == want.cells.tobytes()

    @staticmethod
    def series(matrix, policy, min_size):
        panel = apply_adjustments(matrix, policy).panel
        records = estimate_panel_series(panel, policy.tests, ("tpr", "ht-e"),
                                        min_stratum_size=min_size).records
        return np.array([(r.estimate, r.unclipped, r.n_tests, r.n_positive,
                          r.n_fallback_strata) for r in records])

    @settings(max_examples=40)
    @given(case=policy_matrices(), seed=st.integers(0, 2**16), min_size=st.integers(1, 3))
    def test_series_invariant(self, case, seed, min_size):
        matrix, policy = case
        np.testing.assert_array_equal(
            self.series(anonymize_shuffle(matrix, seed, policy), policy, min_size),
            self.series(matrix, policy, min_size))

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_equals_dict_grouping_oracle_at_scale(self, seed):
        """A simulated min-max matrix: day 1 is one group of every row, and about
        two thirds of the later groups that shuffle have 2-4 members."""
        bundle = build_scenario("min-max", population_size=1000, horizon_days=60)
        policy = AdjustmentPolicy()
        matrix = apply_adjustments(
            matrix_from_simulation(simulate(bundle.config, seed=seed)), policy).to_matrix()
        got = anonymize_shuffle(matrix, seed, policy)
        assert not np.array_equal(got.cells, matrix.cells)
        assert got.cells.tobytes() == dict_anonymize_shuffle(matrix, seed, policy).cells.tobytes()

    @pytest.mark.parametrize("rows,delay,isolation", [
        # row 0 tests negative while its positive result is pending
        (["PNN ", "NNNN", "NNNN", "NNNN"], 2, 1),
        # row 1's negative on day 11 sits in stratum 9, row 0's in stratum 0;
        # both are cleared on day 13
        (["NNNNNNNNNPN  NNN", "NNNNNPN  PN   NN"] + ["N" * 16] * 4, 1, 2),
    ], ids=["pending-result", "negative-before-clearance"])
    def test_tests_during_result_delay_stay_in_their_group(self, rows, delay, isolation):
        symbols = {" ": ABSENT, "N": NEGATIVE, "P": POSITIVE}
        cells = np.array([[symbols[c] for c in row] for row in rows], dtype=np.int8)
        matrix = TestingMatrix([MONDAY + dt.timedelta(days=j) for j in range(len(rows[0]))],
                               cells)
        policy = AdjustmentPolicy(result_delay_days=delay, isolation_days=isolation,
                                  post_isolation_exemption_days=0,
                                  keep_first_test_per_week=False, min_daily_tests=0)
        want = self.series(matrix, policy, 1)
        for seed in range(4):
            got = self.series(anonymize_shuffle(matrix, seed, policy), policy, 1)
            np.testing.assert_array_equal(got, want, err_msg=f"seed {seed}")


class TestGroupShuffles:
    """The anonymizer's one draw call per day pinned to the per-group
    ``Generator.shuffle`` calls it replaces: the same shuffled buffer, and the
    generator left where those calls leave it."""

    @settings(max_examples=200)
    @given(lengths=st.lists(st.integers(2, 6) | st.integers(2, 400), min_size=1, max_size=40),
           seed=st.integers(0, 2**32 - 1))
    @example(lengths=[2000], seed=0)  # a first day: one group of every row
    @example(lengths=[2] * 1000, seed=1)
    @example(lengths=[2, 3, 2, 1500, 4, 2, 3], seed=2)
    def test_equals_per_group_shuffle_calls(self, lengths, seed):
        lengths = np.array(lengths)
        rng = np.random.default_rng(seed)
        reference = copy.deepcopy(rng)
        values = np.arange(lengths.sum(), dtype=np.int64) * 3 + 1
        want = values.copy()
        ends = np.cumsum(lengths)
        for first, last in zip(ends - lengths, ends):
            reference.shuffle(want[first:last])
        got = _group_shuffles(np.random.RandomState(rng.bit_generator), values, lengths)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(values, np.arange(lengths.sum()) * 3 + 1)  # a copy
        assert rng.integers(0, 2**62) == reference.integers(0, 2**62)


@st.composite
def radix_keys(draw):
    """Non-negative int64 keys whose largest value needs 1 to 4 16-bit digits.

    Keys come from a small pool, so ties are common; each digit is drawn
    from its extremes or at random, so keys also tie in single digits.
    """
    passes = draw(st.integers(1, 4))
    digit = st.sampled_from([0, 1, 0xFFFF]) | st.integers(0, 0xFFFF)
    top = st.integers(1, 0x7FFF if passes == 4 else 0xFFFF)  # int64 keeps 63 bits
    digits = st.tuples(*[digit] * (passes - 1), top)  # least significant first
    pool = draw(st.lists(digits.map(lambda ds: sum(d << (16 * k) for k, d in enumerate(ds))),
                         min_size=1, max_size=5))
    return np.array(draw(st.lists(st.sampled_from(pool), max_size=50)), dtype=np.int64)


class TestStableOrder:
    """The anonymizer's 16-bit radix order pinned to numpy's stable argsort."""

    @settings(max_examples=300)
    @given(key=radix_keys())
    @example(key=np.array([], dtype=np.int64))
    @example(key=np.array([2**40], dtype=np.int64))
    @example(key=np.full(7, 2**16 + 3, dtype=np.int64))
    @example(key=np.array([2**62 + 1, 5, 2**62, 2**48, 5, 2**32], dtype=np.int64))
    def test_equals_stable_argsort(self, key):
        before = key.copy()
        got = _stable_order(key)
        want = np.argsort(key, kind="stable")
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(key, before)  # the caller's key is left alone


class TestConfigFiles:
    def test_scenario_round_trip(self, tmp_path):
        obj = {
            "population_size": 120,
            "horizon_days": 10,
            "cluster_size": 4,
            "seed": 7,
            "tests": {"sensitivity": 0.832, "specificity": 0.992},
            "hazard": {
                "initial_prevalence": 0.02,
                "within_cluster_rate": 0.2,
                "repeat_exposure_multiplier": 0.5,
                "external": {"kind": "bump", "shape_horizon": 21, "peak": 0.1,
                             "base": 0.02, "scale": 0.0333},
            },
            "regimen": {"kind": "min-max", "gap": 10, "min_gap": 5,
                        "overlays": {"contact_tracing": True}},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj))
        cfg = load_scenario_config(path)
        assert cfg.population_size == 120
        assert cfg.regimen.min_gap == 5 and cfg.regimen.overlays.contact_tracing
        assert cfg.hazard.external.kind == "bump"

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="weekly_quota"):
            scenario_config_from_dict({
                "population_size": 10, "horizon_days": 5, "weekly_quota": 3,
                "regimen": {"kind": "simple-random", "p": 0.2},
            })

    def test_missing_regimen(self):
        with pytest.raises(ConfigError, match="regimen"):
            scenario_config_from_dict({"population_size": 10, "horizon_days": 5})

    def test_invalid_json_reports_line(self, tmp_path):
        path = write(tmp_path, '{"population_size": 10,\n  "bad"\n}', name="broken.json")
        with pytest.raises(ConfigError, match=r"line \d"):
            load_scenario_config(path)

    def test_policy_loader(self, tmp_path):
        p = tmp_path / "policy.json"
        p.write_text(json.dumps({"result_delay_days": 1, "isolation_days": 5}))
        policy = load_adjustment_policy(p)
        assert policy.isolation_days == 5 and policy.assumed_specificity == 1.0


@dataclasses.dataclass(frozen=True)
class _ToyInner:
    rate: float = 0.5


@dataclasses.dataclass(frozen=True)
class _ToyOuter:
    size: int
    inner: Optional[_ToyInner] = None
    fixed: _ToyInner = dataclasses.field(default_factory=_ToyInner)


class TestConfigSchema:
    """The config dataclasses are the loader's only schema."""

    @staticmethod
    def json_round_trip(obj):
        return json.loads(json.dumps(dataclasses.asdict(obj)))

    @pytest.mark.parametrize("name", SCENARIO_NAMES)
    def test_built_in_scenario_round_trips(self, name):
        config = build_scenario(name).config
        assert scenario_config_from_dict(self.json_round_trip(config)) == config

    def test_round_trips_cover_every_nested_config(self):
        configs = [build_scenario(name).config for name in SCENARIO_NAMES]
        assert any(c.regimen.base is not None for c in configs)
        assert any(c.regimen.overlays.contact_tracing for c in configs)
        assert any(c.regimen.overlays.symptomatic_probability > 0 for c in configs)
        assert any(c.sensitivity_curve is not None for c in configs)
        assert any(c.undetected_recovery_days is not None for c in configs)

    def test_policy_round_trip(self, tmp_path):
        policy = AdjustmentPolicy.for_simulation(build_scenario("min-max").config)
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(dataclasses.asdict(policy)))
        assert load_adjustment_policy(path) == policy

    @pytest.mark.parametrize("key", ["population_size", "horizon_days", "regimen"])
    def test_missing_required_key_is_named(self, key):
        obj = {"population_size": 10, "horizon_days": 5,
               "regimen": {"kind": "simple-random", "p": 0.2}}
        del obj[key]
        with pytest.raises(ConfigError, match=f"^scenario: missing required key '{key}'$"):
            scenario_config_from_dict(obj)

    def test_bad_policy_value_names_the_policy(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"isolation_days": 0}))
        with pytest.raises(ConfigError, match="^policy: isolation must last"):
            load_adjustment_policy(path)

    def test_new_dataclass_loads_without_loader_edits(self):
        assert _from_dict(_ToyOuter, {"size": 3, "inner": {"rate": 0.25}}, "toy") == \
            _ToyOuter(3, _ToyInner(0.25))
        assert _from_dict(_ToyOuter, {"size": 3, "inner": None}, "toy") == _ToyOuter(3)
        with pytest.raises(ConfigError, match=r"^inner: unknown key\(s\) \['x'\]"):
            _from_dict(_ToyOuter, {"size": 3, "inner": {"x": 1}}, "toy")
        with pytest.raises(ConfigError, match="^fixed: expected an object, got NoneType"):
            _from_dict(_ToyOuter, {"size": 3, "fixed": None}, "toy")
        with pytest.raises(ConfigError, match="^toy: missing required key 'size'"):
            _from_dict(_ToyOuter, {}, "toy")
