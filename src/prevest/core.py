"""Domain types for the joint disease/testing process.

The population moves through three compartments: well, infectious, and
removed (isolated after a positive test).  Two equivalent views of a
trajectory are supported: day-indexed membership vectors
(:class:`CompartmentState` / :class:`DailyTransition`) and per-individual
event times (:class:`EventHistory`).  ``reconstruct_state`` maps the second
view onto the first.

Event-list conventions: every individual implicitly carries a baseline
clearance, test, and infectious-end event "at day 0" and a first exposure
"at minus infinity".  These are *not* stored as integers; the accessors
return the distinguished sentinels :data:`BASELINE`, :data:`NEVER`, and
:data:`ONGOING`, which order correctly against real days but refuse
arithmetic.
"""

from __future__ import annotations

import math
import numbers
import types
from bisect import bisect_left
from dataclasses import dataclass, fields
from functools import cache
from typing import Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np


class ConfigError(ValueError):
    """A regimen/scenario/policy configuration is invalid."""


_FIELD_KINDS = {int: numbers.Integral, bool: bool, float: numbers.Real}


@cache
def field_kinds(cls) -> dict[str, tuple[object, bool]]:
    """Each field of dataclass ``cls`` mapped to (resolved type, optional).

    Only ``Optional[X]`` is unwrapped, to (X, True); any other union stays whole."""
    out = {}
    for name, tp in get_type_hints(cls).items():
        args = get_args(tp)
        optional = get_origin(tp) in (Union, types.UnionType) and args[1:] == (type(None),)
        out[name] = (args[0], True) if optional else (tp, False)
    return out


def check_field_types(obj) -> None:
    """Raise :class:`ConfigError` naming the first dataclass field typed int, bool or
    float (or ``Optional`` of one, which admits None) that holds another type."""
    kinds = field_kinds(type(obj))
    for f in fields(obj):
        tp, optional = kinds[f.name]
        kind = _FIELD_KINDS.get(tp)
        value = getattr(obj, f.name)
        if kind is None or (value is None and optional):
            continue
        # bool is an int subclass: only a bool field may hold one
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")


class HistoryError(ValueError):
    """An event history violates its ordering/alignment invariants."""


class _Sentinel:
    """Ordered day-like marker. Comparisons work against ints; arithmetic fails."""

    __slots__ = ("_name", "_order")

    def __init__(self, name: str, order: float):
        self._name = name
        self._order = order

    def __repr__(self) -> str:
        return f"<{self._name}>"

    def _other_order(self, other) -> float:
        if isinstance(other, _Sentinel):
            return other._order
        if isinstance(other, (int, np.integer)):
            return float(other)
        return NotImplemented  # type: ignore[return-value]

    def __lt__(self, other):
        o = self._other_order(other)
        return NotImplemented if o is NotImplemented else self._order < o

    def __le__(self, other):
        o = self._other_order(other)
        return NotImplemented if o is NotImplemented else self._order <= o

    def __gt__(self, other):
        o = self._other_order(other)
        return NotImplemented if o is NotImplemented else self._order > o

    def __ge__(self, other):
        o = self._other_order(other)
        return NotImplemented if o is NotImplemented else self._order >= o

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash((self._name, self._order))


#: Implicit day-0 event (first clearance, first test, first infectious end).
BASELINE = _Sentinel("baseline-day-0", 0.0)
#: Implicit first exposure at minus infinity (never actually exposed yet).
NEVER = _Sentinel("never", -math.inf)
#: Infectious episode that has not ended within the observed window.
ONGOING = _Sentinel("ongoing", math.inf)

Day = Union[int, _Sentinel]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=bool)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TestCharacteristics:
    """Per-test sensitivity and specificity of the assay.

    A tested infectious individual returns positive with probability
    ``sensitivity``; a tested well individual returns negative with
    probability ``specificity``.  Draws are independent across tests.
    """

    sensitivity: float = 1.0
    specificity: float = 1.0

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest suite

    def __post_init__(self):
        check_field_types(self)
        if not (0.0 < self.sensitivity <= 1.0):
            raise ValueError(f"sensitivity must be in (0, 1], got {self.sensitivity}")
        if not (0.0 < self.specificity <= 1.0):
            raise ValueError(f"specificity must be in (0, 1], got {self.specificity}")

    @property
    def youden(self) -> float:
        """sensitivity + specificity - 1; the inverse scale of count adjustments."""
        return self.sensitivity + self.specificity - 1.0

    def require_informative(self) -> None:
        """Raise unless sensitivity + specificity > 1 (needed wherever we divide by it)."""
        if self.youden <= 0.0:
            raise ValueError(
                "test characteristics are uninformative: "
                f"sensitivity ({self.sensitivity}) + specificity ({self.specificity}) <= 1"
            )

    def positive_predictive_value(self, prevalence: float) -> float:
        num = self.sensitivity * prevalence
        den = num + (1.0 - self.specificity) * (1.0 - prevalence)
        return num / den

    def negative_predictive_value(self, prevalence: float) -> float:
        num = self.specificity * (1.0 - prevalence)
        den = num + (1.0 - self.sensitivity) * prevalence
        return num / den


@dataclass(frozen=True)
class CompartmentState:
    """Membership vectors at the start of a day; a partition of the population."""

    day: int
    well: np.ndarray
    infectious: np.ndarray
    removed: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "well", _freeze(self.well))
        object.__setattr__(self, "infectious", _freeze(self.infectious))
        object.__setattr__(self, "removed", _freeze(self.removed))

    @property
    def population_size(self) -> int:
        return self.well.shape[0]

    def check_partition(self) -> None:
        n = self.population_size
        if self.infectious.shape[0] != n or self.removed.shape[0] != n:
            raise ValueError("compartment vectors have mismatched lengths")
        total = (
            self.well.astype(int) + self.infectious.astype(int) + self.removed.astype(int)
        )
        if not np.all(total == 1):
            bad = int(np.flatnonzero(total != 1)[0])
            raise ValueError(f"individual {bad} is not in exactly one compartment on day {self.day}")

    @property
    def nonremoved(self) -> np.ndarray:
        return self.well | self.infectious


@dataclass(frozen=True)
class DailyTransition:
    """Events occurring during one day: tests, exposures, recoveries, clearances."""

    day: int
    tested: np.ndarray
    positive: np.ndarray
    newly_exposed: np.ndarray
    undetected_recovered: np.ndarray
    cleared: np.ndarray

    def __post_init__(self):
        for name in ("tested", "positive", "newly_exposed", "undetected_recovered", "cleared"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    def check_consistency(self, state: CompartmentState) -> None:
        """Subset relations against the same-day compartment state."""
        if state.day != self.day:
            raise ValueError(f"state is for day {state.day}, transition for day {self.day}")
        checks = [
            (self.positive, self.tested, "positive within tested"),
            (self.tested, state.nonremoved, "tested within non-removed"),
            (self.newly_exposed, state.well, "exposures within well"),
            (self.undetected_recovered, state.infectious, "recoveries within infectious"),
            (self.cleared, state.removed, "clearances within removed"),
        ]
        for inner, outer, what in checks:
            if np.any(inner & ~outer):
                bad = int(np.flatnonzero(inner & ~outer)[0])
                raise ValueError(f"day {self.day}: {what} violated for individual {bad}")


@dataclass(frozen=True)
class EventHistory:
    """Per-individual event times.

    Only real (observed) events are stored; the day-0 and minus-infinity
    conventions live in the accessors.  ``infectious_end_times`` is aligned
    with ``exposure_times`` and may be one element shorter when the final
    infectious episode is still open at the end of the window.
    """

    clearance_times: tuple[int, ...] = ()
    exposure_times: tuple[int, ...] = ()
    infectious_end_times: tuple[int, ...] = ()
    test_times: tuple[int, ...] = ()
    test_results: tuple[bool, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "clearance_times", tuple(int(v) for v in self.clearance_times))
        object.__setattr__(self, "exposure_times", tuple(int(v) for v in self.exposure_times))
        object.__setattr__(
            self, "infectious_end_times", tuple(int(v) for v in self.infectious_end_times)
        )
        object.__setattr__(self, "test_times", tuple(int(v) for v in self.test_times))
        object.__setattr__(self, "test_results", tuple(bool(v) for v in self.test_results))

    def validate(self) -> None:
        for name in ("clearance_times", "exposure_times", "infectious_end_times", "test_times"):
            seq = getattr(self, name)
            if any(b <= a for a, b in zip(seq, seq[1:])):
                raise HistoryError(f"{name} is not strictly increasing: {seq}")
        if len(self.test_results) != len(self.test_times):
            raise HistoryError(
                f"{len(self.test_results)} results for {len(self.test_times)} tests"
            )
        if any(t < 1 for t in self.test_times):
            raise HistoryError("real test times must be >= 1 (day 0 is the implicit baseline)")
        if any(c < 1 for c in self.clearance_times):
            raise HistoryError("real clearance times must be >= 1")
        n_end = len(self.infectious_end_times)
        n_exp = len(self.exposure_times)
        if n_end not in (n_exp, n_exp - 1):
            raise HistoryError(
                f"{n_end} infectious-end times cannot align with {n_exp} exposures"
            )
        for x, v in zip(self.exposure_times, self.infectious_end_times):
            if v < x + 1:
                raise HistoryError(f"infectious episode starting at {x} cannot end at {v}")

    # -- sentinel-honouring accessors (1-based indices; index 1 is the implicit event)

    def test_time(self, k: int) -> Day:
        return BASELINE if k == 1 else self.test_times[k - 2]

    def test_result(self, k: int) -> bool:
        return False if k == 1 else self.test_results[k - 2]

    def clearance_time(self, l: int) -> Day:
        return BASELINE if l == 1 else self.clearance_times[l - 2]

    def exposure_time(self, m: int) -> Day:
        return NEVER if m == 1 else self.exposure_times[m - 2]

    def infectious_end_time(self, m: int) -> Day:
        if m == 1:
            return BASELINE
        i = m - 2
        return self.infectious_end_times[i] if i < len(self.infectious_end_times) else ONGOING


def last_event_indices(history: EventHistory, t: int) -> tuple[int, int, int]:
    """Indices of the most recent test, clearance, and exposure strictly before day ``t``.

    Returns 1-based indices (K, L, M) counting the implicit day-0 / never
    events as index 1, so all three are always defined for ``t >= 1``.
    """
    if t < 1:
        raise ValueError(f"day must be >= 1, got {t}")
    k = 1 + bisect_left(history.test_times, t)
    l = 1 + bisect_left(history.clearance_times, t)
    m = 1 + bisect_left(history.exposure_times, t)
    return k, l, m


def _classify(history: EventHistory, t: int) -> tuple[bool, bool, bool]:
    k, l, m = last_event_indices(history, t)
    removed = history.test_result(k) and history.clearance_time(l) < history.test_time(k)
    if removed:
        return False, False, True
    well = history.infectious_end_time(m) < t
    return well, not well, False


def reconstruct_state(histories: Sequence[EventHistory], t: int) -> CompartmentState:
    """Compartment state on day ``t`` from event histories alone.

    An individual is removed iff their last test before ``t`` was positive
    and happened after their last clearance; otherwise they are well iff
    their latest infectious episode ended before ``t``, and infectious
    otherwise.
    """
    n = len(histories)
    well = np.zeros(n, dtype=bool)
    infectious = np.zeros(n, dtype=bool)
    removed = np.zeros(n, dtype=bool)
    for i, h in enumerate(histories):
        try:
            h.validate()
            w, inf_, r = _classify(h, t)
        except HistoryError as exc:
            raise HistoryError(f"individual {i}: {exc}") from exc
        well[i], infectious[i], removed[i] = w, inf_, r
    state = CompartmentState(day=t, well=well, infectious=infectious, removed=removed)
    state.check_partition()
    return state
