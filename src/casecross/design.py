"""Matched case/referent sets under time-stratified bidirectional sampling.

Referent (control) days share the calendar month, year, and day-of-week of
the case day, which yields 3 or 4 referents per case. Each event becomes one
matched set with windowed exposures attached; sets touching a missing
exposure are dropped (and counted), never patched. A trim at a pooled
quantile then removes extreme pollution days and returns its threshold.

Events arrive as three columns, ``(subject_id, zone_id, case_day)``, and
matched sets travel as one columnar table, ``MatchedRows``, which trimming,
knots, the design matrix, contrast levels, grids and the writer all take.
The table also reads as a sequence of checked ``MatchedSet`` objects of
``DayRecord``s, built only when an element is first read; no library
function reads it so. Exposure windows, given as numbers of days, come from
the zone tables (``DailyTable``, NaN for gaps), each windowed once by
shifted adds summed left to right: bit for bit the per-day
``sum(window) / len(window)`` of every row, where differences of
cumulative sums would differ in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date, timedelta
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, EmptyAnalysisError
from .exposure import DailyTable, trailing_mean
from .quantiles import type1_quantile

__all__ = [
    "DayRecord",
    "MatchedSet",
    "MatchedRows",
    "DroppedEvent",
    "REASON_OUTSIDE_SEASON",
    "REASON_DUPLICATE_SUBJECT",
    "REASON_UNKNOWN_ZONE",
    "REASON_MISSING_EXPOSURE",
    "REASON_CASE_TRIMMED",
    "REASON_NO_CONTROLS",
    "select_referents",
    "build_matched_sets",
    "apply_trimming",
]

REASON_OUTSIDE_SEASON = "outside_season"
REASON_DUPLICATE_SUBJECT = "duplicate_subject"
REASON_UNKNOWN_ZONE = "unknown_zone"
REASON_MISSING_EXPOSURE = "missing_exposure"
REASON_CASE_TRIMMED = "case_trimmed"
REASON_NO_CONTROLS = "no_controls"

# case day + 7k for these k covers every same-weekday day of any month
_WEEKS = 7 * np.arange(-4, 5)


@dataclass(frozen=True)
class DayRecord:
    """One day within a matched set, with its linked exposures."""

    date: Date
    is_case: bool
    temperature: float
    pm25_window: float


@dataclass(frozen=True)
class DroppedEvent:
    subject_id: str
    reason: str


@dataclass
class MatchedSet:
    """One case day plus its same-month same-weekday referent days."""

    subject_id: str
    rows: list[DayRecord]

    def __post_init__(self):
        cases = [r for r in self.rows if r.is_case]
        if len(cases) != 1:
            raise ConfigurationError(
                f"set {self.subject_id}: expected exactly one case row, got {len(cases)}"
            )
        dates = [r.date for r in self.rows]
        if len(set(dates)) != len(dates):
            raise ConfigurationError(f"set {self.subject_id}: duplicate dates")
        allowed = {cases[0].date, *select_referents(cases[0].date)}
        for d in dates:
            if d not in allowed:
                raise ConfigurationError(
                    f"set {self.subject_id}: {d} not in the case month on the case weekday"
                )
        n_controls = len(self.rows) - 1
        if not 1 <= n_controls <= 4:
            raise ConfigurationError(
                f"set {self.subject_id}: {n_controls} control rows (must be 1..4)"
            )


@dataclass(frozen=True, eq=False)
class MatchedRows:
    """Matched sets as columns: the rows of a set are contiguous, sets in order.

    Row columns are ``set_index`` (int), ``day`` (``datetime64[D]``),
    ``is_case`` (bool, one per set), ``temperature`` and ``pm25_window``;
    ``subject_id`` has one entry per set, and ``len()`` counts sets.

    The table is also a sequence of sets: indexing (negative indices and
    slices too) and iteration give checked ``MatchedSet`` objects. The first
    element read builds them all, once, and raises ``ConfigurationError`` if
    a set breaks a ``MatchedSet`` rule; the columns never build them.
    """

    subject_id: np.ndarray
    set_index: np.ndarray
    day: np.ndarray
    is_case: np.ndarray
    temperature: np.ndarray
    pm25_window: np.ndarray

    def __len__(self) -> int:
        return len(self.subject_id)

    def __getitem__(self, i):
        return self._sets[i]

    def __iter__(self):
        return iter(self._sets)

    @cached_property
    def _sets(self) -> list[MatchedSet]:
        columns = (self.day, self.is_case, self.temperature, self.pm25_window)
        records = list(map(DayRecord, *(c.tolist() for c in columns)))
        ends = np.cumsum(np.bincount(self.set_index, minlength=len(self))).tolist()
        return [MatchedSet(sid, records[b:e]) for sid, b, e in zip(self.subject_id.tolist(), [0, *ends], ends)]

    def select(self, rows: np.ndarray, sets: np.ndarray) -> "MatchedRows":
        """The sets under mask ``sets``, renumbered, with their rows under mask ``rows``."""
        renumber = np.cumsum(sets) - 1
        columns = (self.day, self.is_case, self.temperature, self.pm25_window)
        return MatchedRows(
            self.subject_id[sets], renumber[self.set_index[rows]], *(c[rows] for c in columns)
        )


def select_referents(case_date: Date) -> list[Date]:
    """All other dates in the case month sharing the case day-of-week.

    A weekday occurs 4 or 5 times in any Gregorian month, so the result has
    3 or 4 dates and never includes ``case_date`` itself.
    """
    days = (case_date + timedelta(days=int(k)) for k in _WEEKS if k)
    return [d for d in days if d.month == case_date.month]


def _stratum_days(anchor: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each day ``anchor + 7k`` in its anchor's month, ascending per anchor, as
    (anchor index, ``_WEEKS`` index, day): the referent rule of the design."""
    days = anchor[:, np.newaxis] + _WEEKS
    which, week = np.nonzero(days.astype("datetime64[M]") == anchor[:, np.newaxis].astype("datetime64[M]"))
    return which, week, days[which, week]


def build_matched_sets(
    events: tuple[np.ndarray, np.ndarray, np.ndarray],
    temperature_series: DailyTable,
    pm25_series: DailyTable,
    temperature_window_days: int,
    pm25_window_days: int,
    season_months: tuple[int, int] = (6, 9),
) -> tuple[MatchedRows, list[DroppedEvent]]:
    """Join events to windowed exposures, one matched set per retained event.

    ``events`` holds the columns ``(subject_id, zone_id, case_day)``:
    object, object and ``datetime64[D]`` arrays, as ``io.read_events``
    returns them. Every input event is accounted for: it either yields a set or appears, in event order, in the
    returned drop list with the first reason that applies of duplicate
    subject, outside season, unknown zone (not a row of both zone tables)
    and missing exposure. Only a subject's first event (earliest case date,
    then first listed) is kept. Sets keep event order and their days are
    ascending. Each exposure is the mean over its window of days ending on
    the day: 1 day is the same-day value, 3 that day and the two before.
    """
    lo, hi = season_months
    if not (1 <= lo <= hi <= 12):
        raise ConfigurationError(f"invalid season months {season_months}")
    if temperature_window_days < 1 or pm25_window_days < 1:
        raise ConfigurationError(
            f"window days must be >= 1, got {temperature_window_days} and {pm25_window_days}"
        )

    subject, zones, case_day = events
    n = len(subject)
    t_row, a_row = temperature_series.row(zones), pm25_series.row(zones)
    month_of_year = case_day.astype("datetime64[M]").astype(int) % 12 + 1

    _, subj = np.unique(subject, return_inverse=True)
    order = np.lexsort((np.arange(n), case_day, subj))
    first = np.zeros(n, dtype=bool)
    first[order[np.diff(subj[order], prepend=-1) != 0]] = True

    reason = np.select(  # the first reason that applies
        [~first, (month_of_year < lo) | (month_of_year > hi), (t_row < 0) | (a_row < 0)],
        [REASON_DUPLICATE_SUBJECT, REASON_OUTSIDE_SEASON, REASON_UNKNOWN_ZONE],
        "",
    ).astype(object)

    cand = np.flatnonzero(reason == "")
    set_of_row, week, row_day = _stratum_days(case_day[cand])
    t = _windowed(temperature_series, temperature_window_days, t_row[cand][set_of_row], row_day)
    a = _windowed(pm25_series, pm25_window_days, a_row[cand][set_of_row], row_day)
    missing = np.bincount(set_of_row, weights=np.isnan(t) | np.isnan(a), minlength=cand.size) > 0
    reason[cand[missing]] = REASON_MISSING_EXPOSURE
    dropped = [DroppedEvent(subject[i], reason[i]) for i in np.flatnonzero(reason != "")]
    rows = MatchedRows(subject[cand], set_of_row, row_day, _WEEKS[week] == 0, t, a)
    return rows.select(~missing[set_of_row], ~missing), dropped


def _windowed(table: DailyTable, window_days: int, row: np.ndarray, day: np.ndarray) -> np.ndarray:
    """Windowed exposure on each (table row, day), NaN where the window has a
    gap or starts before the table."""
    col = (day - table.origin).astype(int)
    inside = (col >= 0) & (col < table.values.shape[1])
    out = np.full(day.size, np.nan)
    out[inside] = trailing_mean(table.values, window_days)[row[inside], col[inside]]
    return out


def apply_trimming(rows: MatchedRows, quantile: float) -> tuple[MatchedRows, float, list[DroppedEvent]]:
    """Remove day rows whose pm25 window exceeds the pooled quantile threshold.

    The threshold is the type-1 ``quantile``, in (0, 1], of ``pm25_window``
    pooled over all case AND control rows before any exclusion. Rows are
    trimmed individually; a set whose case row is trimmed dies, as does a
    set left without controls. Returns the kept rows, the threshold and the
    discarded sets as drops, in set order.
    """
    if not 0.0 < quantile <= 1.0:
        raise ConfigurationError(f"trim quantile must be in (0, 1], got {quantile}")
    if not len(rows):
        raise EmptyAnalysisError("no matched sets to trim")
    threshold = type1_quantile(rows.pm25_window, quantile)

    kept = rows.pm25_window <= threshold
    case_kept = np.bincount(rows.set_index, weights=kept & rows.is_case, minlength=len(rows)) > 0
    survives = case_kept & (np.bincount(rows.set_index, weights=kept, minlength=len(rows)) >= 2)
    why = np.where(case_kept, REASON_NO_CONTROLS, REASON_CASE_TRIMMED).astype(object)
    dropped = [DroppedEvent(rows.subject_id[i], why[i]) for i in np.flatnonzero(~survives)]
    if not survives.any():
        raise EmptyAnalysisError(
            f"trimming at quantile {quantile} (threshold {threshold}) discarded every set"
        )
    return rows.select(kept & survives[rows.set_index], survives), threshold, dropped

