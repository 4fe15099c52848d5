"""Testing-matrix files, anonymisation, and the real-data adjustment pipeline.

The interchange format is a delimited text matrix: one row per individual,
one column per calendar day, cells ``P`` (positive), ``N`` (negative) or
empty (no test).  The header row holds ISO dates, optionally preceded by an
``id`` column of opaque row labels.  Columns must be consecutive calendar
days; internally column ``j`` maps to study day ``j + 1`` (day 0 is the
pre-surveillance baseline).

Scenario, regimen and adjustment-policy configs are JSON objects;
see the README for the schema and defaults.

Output tables (estimate series, scenario aggregates, simulation summaries)
all go through :func:`write_table`.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .core import TestCharacteristics, check_field_types, field_kinds
from .estimators import Panel
from .regimens import ConfigError
from .simulate import ScenarioConfig, SimulationResult

ABSENT, NEGATIVE, POSITIVE = -1, 0, 1

# Byte classes of a cell block: whitespace, the field separator, the two
# result symbols (either case) and anything else.
_BLANK, _COMMA, _NEG, _POS, _OTHER = range(5)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[[c for c in range(128) if chr(c).isspace()]] = _BLANK
_BYTE_CLASS[ord(",")] = _COMMA
_BYTE_CLASS[[ord("N"), ord("n")]] = _NEG
_BYTE_CLASS[[ord("P"), ord("p")]] = _POS
_CLASS_CELL = np.array([ABSENT, ABSENT, NEGATIVE, POSITIVE, ABSENT], dtype=np.int8)
# Indexed by cell value: an absent cell (-1) takes the last entry, a NUL the writer drops.
_SYMBOL_BYTES = np.frombuffer(b"NP\0", dtype=np.uint8)


class ParseError(ValueError):
    """Malformed testing-matrix input, with 1-based file coordinates."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)
        self.line = line
        self.column = column


@dataclass
class TestingMatrix:
    dates: list[dt.date]
    cells: np.ndarray  # int8 [individuals, days]
    row_labels: Optional[list[str]] = None

    __test__ = False  # "Testing" prefix is domain vocabulary, not a pytest suite

    def __post_init__(self):
        cells = np.asarray(self.cells)
        if cells.ndim != 2 or cells.shape[1] != len(self.dates):
            raise ValueError("cell matrix shape does not match the date header")
        if cells.size and (cells.dtype.kind not in "biu" or cells.min() < ABSENT
                           or cells.max() > POSITIVE):
            raise ValueError("cells must be -1 (no test), 0 (negative) or 1 (positive)")
        self.cells = cells.astype(np.int8, copy=False)
        for a, b in zip(self.dates, self.dates[1:]):
            if (b - a).days != 1:
                raise ValueError(f"day columns must be consecutive: {a} -> {b}")
        if self.row_labels is not None:
            _check_row_labels(self.row_labels, cells.shape[0])

    @property
    def n_individuals(self) -> int:
        return self.cells.shape[0]

    @property
    def n_days(self) -> int:
        return self.cells.shape[1]

    def n_tests(self) -> int:
        return int((self.cells >= 0).sum())


def _check_row_labels(labels, n_rows: int) -> None:
    """Labels the writer can write and the parser reads back unchanged."""
    if len(labels) != n_rows:
        raise ValueError(f"{len(labels)} row labels for {n_rows} rows")
    seen: set[str] = set()
    for label in labels:
        if not isinstance(label, str):
            raise ValueError(f"row label {label!r} is not a string")
        if label in seen:
            raise ValueError(f"duplicate row label {label!r}")
        seen.add(label)
        if "," in label or "".join(label.splitlines()) != label:
            raise ValueError(f"row label {label!r} contains a comma or a line break")
        if label != label.strip():
            raise ValueError(f"row label {label!r} has surrounding whitespace")


def parse_testing_matrix(path) -> TestingMatrix:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8-sig")  # a leading BOM is not part of the header
    except UnicodeDecodeError as exc:
        before = exc.object[: exc.start].decode("utf-8")  # after any BOM, like exc.start
        raise ParseError(f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 text",
                         line=len((before + "x").splitlines())) from None
    # blank lines are skipped; errors keep reporting the file's own line numbers
    lines = [(k, ln) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    del raw, text
    if not lines:
        raise ParseError("empty testing-matrix file")
    header_line = lines[0][0]
    header = [h.strip() for h in lines[0][1].split(",")]
    has_ids = header[0] == "id"  # the writer's id header; any other first cell is a date
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
            raise ParseError(
                f"dates must be consecutive calendar days: {a} then {b}",
                line=header_line,
                column=j + 2 + has_ids,
            )
    n_cols = len(header)
    labels: list[str] = []
    seen: set[str] = set()
    line_of_row: list[int] = []
    cell_text: list[str] = []  # each row's cell fields, without the id
    row_error = None  # a ragged row or repeated id ends the rows; earlier bad cells still win
    for i, line in lines[1:]:
        n_fields = line.count(",") + 1
        if n_fields != n_cols:
            row_error = ParseError(f"row has {n_fields} fields, header has {n_cols}", line=i)
            break
        if has_ids:
            label, rest = line.split(",", 1)
            label = label.strip()
            if label in seen:
                row_error = ParseError(f"duplicate row id {label!r}", line=i, column=1)
                break
            seen.add(label)
            labels.append(label)
        line_of_row.append(i)
        cell_text.append(rest if has_ids else line)
    cells, bad = _parse_cells(cell_text, len(dates))
    if bad is not None:
        row, j = divmod(bad, len(dates))
        cell = cell_text[row].split(",")[j].strip()
        raise ParseError(f"unknown cell symbol {cell!r}", line=line_of_row[row],
                         column=j + 1 + has_ids)
    if row_error is not None:
        raise row_error
    if not cell_text:
        raise ParseError("testing-matrix file has a header but no rows")
    return TestingMatrix(dates=dates, cells=cells, row_labels=labels if has_ids else None)


def _parse_cells(rows: list[str], n_days: int) -> tuple[np.ndarray, int | None]:
    """The cells of ``rows`` (``n_days`` comma-separated fields each) in one pass.

    Returns the int8 matrix and the flat index of the first field, in file
    order, that is not a cell symbol (None when every field is one).  A field
    is valid when, ``str.strip`` whitespace aside, it holds nothing or one
    of ``N n P p``.
    """
    text = ",".join([""] + rows + [""])  # a comma opens the first field and closes every field
    if not text.isascii():  # one byte per character: a blank for whitespace, '?' otherwise
        points = np.unique(np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32))
        text = text.translate({int(p): " " if chr(p).isspace() else "?"
                               for p in points[points > 127]})
    kind = _BYTE_CLASS[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]
    del text
    kind = kind[kind != _BLANK]  # commas and symbols
    comma = kind == _COMMA
    bad = kind == _OTHER
    bad[1:] |= ~(comma[1:] | comma[:-1])  # a second character in one field
    first_bad = int(np.count_nonzero(comma[: bad.argmax()])) - 1 if bad.any() else None
    # a field's value is its last character: a symbol, or the comma before an empty field
    cells = _CLASS_CELL[kind[:-1][comma[1:]]]
    return cells.reshape(len(rows), n_days), first_bad


def write_testing_matrix(matrix: TestingMatrix, path) -> None:
    n, n_days = matrix.cells.shape
    if matrix.row_labels is None and n_days == 1 and (matrix.cells == ABSENT).any():
        raise ValueError("a one-day matrix without row labels cannot hold an untested row: "
                         "its line would be blank, and blank lines are skipped")
    # Row bytes: symbol, comma, symbol, ..., symbol, newline.
    rows = np.empty((n, max(2 * n_days, 1)), dtype=np.uint8)
    rows[:, 1::2] = ord(",")
    rows[:, 0 : 2 * n_days : 2] = _SYMBOL_BYTES[matrix.cells]
    rows[:, -1] = ord("\n")
    body = rows[rows != 0]  # without the NULs of absent cells
    header = [d.isoformat() for d in matrix.dates]
    if matrix.row_labels is not None:
        header = ["id"] + header
        sep = "," if n_days else ""
        lines = body.tobytes().decode("ascii").splitlines()
        body = "".join(f"{label}{sep}{line}\n"
                       for label, line in zip(matrix.row_labels, lines)).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        fh.write(body)


def write_table(path, rows: Iterable[dict], fmt: str) -> None:
    """Write table rows as CSV (header from the first row's keys) or JSONL.

    CSV floats are written as ``.10g``; a nan cell is undefined and written
    as ``nan`` in CSV and ``null`` in JSONL.
    """
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown table format {fmt!r}")
    rows = list(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if fmt == "jsonl":
            for row in rows:
                fh.write(json.dumps({k: None if _is_nan(v) else v for k, v in row.items()}) + "\n")
        elif rows:
            fh.write(",".join(rows[0]) + "\n")
            for row in rows:
                fh.write(",".join(_csv_cell(row[k]) for k in rows[0]) + "\n")


def _is_nan(value) -> bool:
    return isinstance(value, float) and math.isnan(value)


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return "nan" if math.isnan(value) else format(value, ".10g")
    return str(value)


def matrix_from_simulation(
    sim: SimulationResult, start_date: dt.date = dt.date(2020, 8, 31)
) -> TestingMatrix:
    """Export simulated tests: column ``j`` is study day ``j + 1``."""
    horizon = sim.horizon
    cells = np.full((sim.population_size, horizon), ABSENT, dtype=np.int8)
    tested = sim.tested[1:].T  # [n, horizon]
    cells[tested] = np.where(sim.positive[1:].T[tested], POSITIVE, NEGATIVE)
    dates = [start_date + dt.timedelta(days=j) for j in range(horizon)]
    return TestingMatrix(dates=dates, cells=cells)


# ---------------------------------------------------------------------------
# Adjustment pipeline


@dataclass(frozen=True)
class AdjustmentPolicy:
    """Bookkeeping rules that turn a raw testing matrix into event histories.

    Results arrive ``result_delay_days`` after the swab; an individual who
    tests positive counts as infectious (non-removed) through the result
    day, is removed for the following ``isolation_days``, and is then
    assumed well while exempt from testing until ``post_isolation_exemption_days``
    after the positive test.  ``keep_first_test_per_week`` drops all but the
    first test per individual per Monday-to-Sunday week; days with fewer
    than ``min_daily_tests`` retained tests are excluded from estimation.
    """

    result_delay_days: int = 2
    isolation_days: int = 10
    post_isolation_exemption_days: int = 90
    keep_first_test_per_week: bool = True
    min_daily_tests: int = 100
    assumed_sensitivity: float = 0.832
    assumed_specificity: float = 1.0

    def __post_init__(self):
        check_field_types(self)
        for name in ("result_delay_days", "isolation_days", "post_isolation_exemption_days",
                     "min_daily_tests"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} cannot be negative")
        if self.isolation_days < 1:
            raise ConfigError("isolation must last at least one day")
        try:
            self.tests.require_informative()
        except ValueError as exc:
            raise ConfigError(f"assumed_sensitivity/assumed_specificity: {exc}") from exc

    @property
    def tests(self) -> TestCharacteristics:
        return TestCharacteristics(self.assumed_sensitivity, self.assumed_specificity)

    @staticmethod
    def for_simulation(config: ScenarioConfig) -> "AdjustmentPolicy":
        """Policy matching the simulator's bookkeeping (no delay, no exemption)."""
        return AdjustmentPolicy(
            result_delay_days=0,
            isolation_days=config.removal_duration_days,
            post_isolation_exemption_days=0,
            keep_first_test_per_week=False,
            min_daily_tests=0,
            assumed_sensitivity=config.tests.sensitivity,
            assumed_specificity=config.tests.specificity,
        )


@dataclass
class AdjustedData:
    """Panel-ready view of an adjusted testing matrix.

    The event arrays are bool [individuals, day 0..horizon].  The :attr:`panel`
    is derived from them on first use: :meth:`to_matrix` needs only the tests.
    """

    tested: np.ndarray
    positive: np.ndarray
    removed: np.ndarray
    cleared: np.ndarray
    assumed_well: np.ndarray
    dates: list[dt.date]
    excluded_days: np.ndarray      # bool per study day 0..horizon
    n_dropped_weekly: int          # tests dropped by the first-test-per-week rule
    n_dropped_isolation: int       # tests dropped inside a removal window

    @property
    def horizon(self) -> int:
        return self.tested.shape[1] - 1

    @property
    def tests_per_day(self) -> np.ndarray:
        """Retained tests per study day 0..horizon."""
        return self.tested.sum(axis=0)

    @cached_property
    def panel(self) -> Panel:
        return Panel._derived(self.horizon, self.tested, self.positive, self.removed,
                              self.cleared, self.assumed_well)

    def to_matrix(self, row_labels=None) -> TestingMatrix:
        tested, positive = self.tested[:, 1:], self.positive[:, 1:]
        cells = np.full(tested.shape, ABSENT, dtype=np.int8)
        cells[tested] = np.where(positive[tested], POSITIVE, NEGATIVE)
        return TestingMatrix(dates=list(self.dates), cells=cells, row_labels=row_labels)


def apply_adjustments(matrix: TestingMatrix, policy: AdjustmentPolicy) -> AdjustedData:
    """Derive per-individual event histories and per-day exclusion flags.

    One pass over the days on n-vectors.  Per individual it tracks the week
    of the last test the weekly rule let through, the active removal episode
    (``rem_start``..``rem_end``, its result pending before ``rem_start``) and
    the exemption ends of that episode and the one before it: an exemption
    runs on into the next episode's removal window.
    """
    n, horizon = matrix.n_individuals, matrix.n_days
    delay, isolation = policy.result_delay_days, policy.isolation_days
    tested, positive, removed, cleared, assumed = (
        np.zeros((n, horizon + 1), dtype=bool) for _ in range(5))
    first = matrix.dates[0].toordinal() if horizon else 1
    week = (first - 1 + np.arange(horizon)) // 7  # Monday-to-Sunday weeks: ordinal 1 is a Monday

    last_week = np.full(n, -1, dtype=np.int64)
    rem_start = np.zeros(n, dtype=np.int64)
    rem_end = np.zeros(n, dtype=np.int64)
    exempt_end = np.zeros(n, dtype=np.int64)       # assumed well on rem_end < day <= exempt_end
    earlier_exempt_end = np.zeros(n, dtype=np.int64)  # the previous episode's exemption
    dropped_weekly = 0
    dropped_isolation = 0
    for day in range(1, horizon + 1):
        removed[:, day] = in_removal = (rem_start <= day) & (day <= rem_end)
        cleared[:, day] = rem_end == day
        assumed[:, day] = (day <= earlier_exempt_end) | ((rem_end < day) & (day <= exempt_end))
        column = matrix.cells[:, day - 1]
        test = column >= 0
        if policy.keep_first_test_per_week:
            repeat = test & (last_week == week[day - 1])
            dropped_weekly += int(np.count_nonzero(repeat))
            test &= ~repeat
            last_week[test] = week[day - 1]
        dropped_isolation += int(np.count_nonzero(test & in_removal))
        # a removed individual cannot be in the tested set
        kept = tested[:, day] = test & ~in_removal
        result = positive[:, day] = kept & (column == POSITIVE)
        start = result & (rem_end < day)  # pendency blocks a nested episode
        earlier_exempt_end[start] = exempt_end[start]
        rem_start[start] = day + delay + 1
        rem_end[start] = day + delay + isolation
        exempt_end[start] = day + policy.post_isolation_exemption_days
    excluded = tested.sum(axis=0) < policy.min_daily_tests
    excluded[0] = True  # day 0 is the baseline, never estimated
    return AdjustedData(
        tested=tested,
        positive=positive,
        removed=removed,
        cleared=cleared,
        assumed_well=assumed,
        dates=list(matrix.dates),
        excluded_days=excluded,
        n_dropped_weekly=dropped_weekly,
        n_dropped_isolation=dropped_isolation,
    )


# ---------------------------------------------------------------------------
# Anonymising shuffle


def anonymize_shuffle(matrix: TestingMatrix, seed: int, policy: AdjustmentPolicy) -> TestingMatrix:
    """Permute test-sequence suffixes within schedule strata, then shuffle rows.

    Iterating forward through the days, non-removed individuals are grouped
    by (last test day, last test result, last clearance day) and their
    remaining test columns are exchanged as whole vectors within the group.
    Grouping also by the last result refines the stated test/clearance
    strata just enough to make every day-level estimator value provably
    invariant under the shuffle; a trailing row permutation then detaches
    rows from their input order.  The removal bookkeeping follows
    ``policy`` (isolation windows, result delay), so the estimates are kept
    only under the policy that kept the input's tests.

    The suffixes are never copied: ``src[i]`` is the input row whose suffix
    row ``i`` currently holds, so a day's exchange permutes ``src`` and
    column ``j`` is final once day ``j + 1`` has been shuffled.  Groups ``rng.shuffle``
    their local ``0..size-1`` in place (``rng.permutation``'s draws) in order of first
    appearance (members ascending), so the output depends only on the seed.
    """
    rng = np.random.default_rng(seed)
    shuffle = rng.shuffle
    cells = matrix.cells
    out = np.empty_like(cells)
    n, horizon = cells.shape

    src = np.arange(n)
    last_test = np.zeros(n, dtype=np.int64)
    last_result = np.zeros(n, dtype=np.int64)
    last_clear = np.zeros(n, dtype=np.int64)
    neg_stratum = np.zeros(n, dtype=np.int64)  # stratum of a negative last test
    rem_start = np.zeros(n, dtype=np.int64)
    rem_end = np.zeros(n, dtype=np.int64)

    for day in range(1, horizon + 1):
        j = day - 1
        cleared_now = (rem_end > 0) & (rem_end == day - 1)
        last_clear[cleared_now] = rem_end[cleared_now]
        rows = np.flatnonzero((day < rem_start) | (day > rem_end))
        pending = np.where(rem_end[rows] >= day, rem_start[rows], 0)  # result not yet back
        key = (last_test[rows] * 2 + last_result[rows]) * (horizon + 1) + last_clear[rows]
        key = (key * (horizon + 1) + neg_stratum[rows]) * (
            horizon + policy.result_delay_days + 2) + pending
        order = _stable_order(key)
        members = rows[order]  # grouped by key, ascending within a group
        offsets = np.flatnonzero(np.diff(key[order], prepend=-1))
        sizes = np.diff(offsets, append=members.size)
        big = np.flatnonzero(sizes >= 2)
        big = big[np.argsort(order[offsets[big]])]  # groups in order of first appearance
        lengths = sizes[big]
        if lengths.size:
            ends = np.cumsum(lengths)
            local = np.arange(ends[-1]) - np.repeat(ends - lengths, lengths)  # 0..size-1 per group
            base = np.repeat(offsets[big], lengths)  # each member's group offset in members
            at = base + local
            for first, last in zip((ends - lengths).tolist(), ends.tolist()):
                shuffle(local[first:last])
            src[members[at]] = src[members[base + local]]
        column = out[:, j] = cells[src, j]
        # apply day events from the (possibly swapped) suffixes
        idx = np.flatnonzero(column >= 0)
        last_test[idx] = day
        last_result[idx] = (column[idx] == POSITIVE).astype(np.int64)
        neg_stratum[idx] = np.where(last_result[idx] == 0, last_clear[idx], 0)
        pos = idx[column[idx] == POSITIVE]
        starts = pos[rem_end[pos] < day]  # pendency/removal blocks a nested episode
        rem_start[starts] = day + policy.result_delay_days + 1
        rem_end[starts] = day + policy.result_delay_days + policy.isolation_days

    order = rng.permutation(n)
    return TestingMatrix(dates=list(matrix.dates), cells=out[order], row_labels=None)


def _stable_order(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of a non-negative int64 ``key``, by stable
    sorts (numpy radix-sorts 16 bits) of its 16-bit digits, least significant first."""
    order = np.argsort(key.astype(np.uint16), kind="stable")
    shift, top = 16, int(key.max(initial=0))
    while top >> shift:
        order = order[np.argsort((key[order] >> shift).astype(np.uint16), kind="stable")]
        shift += 16
    return order


# ---------------------------------------------------------------------------
# JSON configuration files


def _require_keys(obj: dict, allowed: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}; allowed: {sorted(allowed)}")


def _from_dict(cls, obj, where: str, prefix: str = ""):
    """Dataclass ``cls`` built from the JSON object ``obj``; its fields are the schema.  A
    field typed as a dataclass is built from its own object (``null`` only where the field is
    ``Optional``), named ``prefix`` + key; any bad value is a ConfigError naming ``where``."""
    _require_keys(obj, {f.name for f in fields(cls)}, where)
    kwargs = dict(obj)
    for f in fields(cls):
        tp, optional = field_kinds(cls)[f.name]
        if f.name not in obj:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{where}: missing required key '{f.name}'")
        elif is_dataclass(tp) and not (optional and obj[f.name] is None):
            kwargs[f.name] = _from_dict(tp, obj[f.name], prefix + f.name, f"{prefix}{f.name}.")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def scenario_config_from_dict(obj: dict) -> ScenarioConfig:
    return _from_dict(ScenarioConfig, obj, "scenario")


def load_scenario_config(path) -> ScenarioConfig:
    return scenario_config_from_dict(_load_json(path))


def load_adjustment_policy(path) -> AdjustmentPolicy:
    return _from_dict(AdjustmentPolicy, _load_json(path), "policy")


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return obj
