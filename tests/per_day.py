"""Per-day references for the table code: each zone's exposure as one
``{date: value}`` mapping, windows summed one day at a time with ``sum()``;
per-set objects of a matched-row table, built row by row, and the table of
a hand-built list of them; events as one record per row, and their columns;
grid cells, zones and membership as the columns the readers return; and the
likelihood of ``(case_row, control_rows)`` pairs."""

import struct
from datetime import date, timedelta
from typing import NamedTuple

import numpy as np

from casecross.clr import ConditionalLikelihood
from casecross.design import DayRecord, MatchedRows, MatchedSet
from casecross.exposure import DailyTable


class Gap(Exception):
    """A window day with no value."""

    def __init__(self, day: date):
        super().__init__(f"no value on {day}")
        self.day = day


def by_day(table: DailyTable) -> dict[str, dict[date, float]]:
    """The present values of each row of ``table``, by id and then by day."""
    days = (table.origin + np.arange(table.values.shape[1])).tolist()
    return {
        i: {d: v for d, v in zip(days, row.tolist()) if not np.isnan(v)}
        for i, row in zip(table.ids.tolist(), table.values)
    }


def table_of(series: dict[str, dict[date, float]]) -> DailyTable:
    """The table of per-id ``{date: value}`` mappings, ids in the given order,
    over the days from the first to the last date of any id."""
    days = sorted({d for values in series.values() for d in values})
    first = days[0] if days else date(1970, 1, 1)
    width = (days[-1] - first).days + 1 if days else 0
    values = np.full((len(series), width), np.nan)
    for k, per_day in enumerate(series.values()):
        for d, v in per_day.items():
            values[k, (d - first).days] = v
    return DailyTable(np.array(list(series), dtype=object), np.datetime64(first, "D"), values)


def windowed_exposure(values: dict[date, float], day: date, window_days: int) -> float:
    """Mean of ``values`` over the ``window_days`` days ending on ``day``,
    summed oldest first; raises ``Gap`` naming the first day without a value."""
    window = []
    for back in range(window_days - 1, -1, -1):
        d = day - timedelta(days=back)
        if d not in values:
            raise Gap(d)
        window.append(values[d])
    return sum(window) / len(window)


def set_objects(rows) -> list[MatchedSet]:
    """The sets of a ``MatchedRows`` as checked ``MatchedSet`` objects of
    ``DayRecord``s, one per row, built from the columns' Python values."""
    columns = (rows.day, rows.is_case, rows.temperature, rows.pm25_window)
    records = list(map(DayRecord, *(c.tolist() for c in columns)))
    ends = np.cumsum(np.bincount(rows.set_index, minlength=len(rows))).tolist()
    return [MatchedSet(sid, records[b:e]) for sid, b, e in zip(rows.subject_id.tolist(), [0, *ends], ends)]


def same_sets(a, b) -> bool:
    """Whether two sequences of ``MatchedSet`` agree set by set and field by
    field, with the same Python types, floats compared by their bits."""

    def fields(s):
        return s.subject_id, [
            (r.date, type(r.date), r.is_case, type(r.is_case),
             struct.pack("<dd", r.temperature, r.pm25_window), type(r.temperature), type(r.pm25_window))
            for r in s.rows
        ]

    return all(type(s) is MatchedSet for s in (*a, *b)) and list(map(fields, a)) == list(map(fields, b))


def rows_of(sets) -> MatchedRows:
    """The table of a sequence of ``MatchedSet``, sets and rows in order."""
    sets = list(sets)
    rows = [r for s in sets for r in s.rows]
    return MatchedRows(
        subject_id=np.array([s.subject_id for s in sets], dtype=object),
        set_index=np.repeat(np.arange(len(sets)), [len(s.rows) for s in sets]),
        day=np.array([r.date for r in rows], dtype="datetime64[D]"),
        is_case=np.array([r.is_case for r in rows], dtype=bool),
        temperature=np.array([r.temperature for r in rows], dtype=float),
        pm25_window=np.array([r.pm25_window for r in rows], dtype=float),
    )


def pairs_likelihood(pairs, labels=None, blocks=None) -> ConditionalLikelihood:
    """The likelihood of ``(case_row, control_rows)`` pairs, one set each,
    with ``case_row`` of shape (dim,) and ``control_rows`` of shape (m-1,
    dim): rows stacked set by set, case row first."""
    sets = [np.vstack([case, np.atleast_2d(ctrl)]) for case, ctrl in pairs]
    sizes = [len(rows) for rows in sets]
    set_index = np.repeat(np.arange(len(sets)), sizes)
    is_case = np.zeros(set_index.size, dtype=bool)
    is_case[np.cumsum(sizes, dtype=int) - sizes] = True
    values = np.concatenate(sets) if sets else np.zeros((0, 0))
    return ConditionalLikelihood(values, set_index, is_case, labels, blocks)


class Event(NamedTuple):
    """One event row, as ``events.csv`` holds it."""

    subject_id: str
    zone_id: str
    case_date: date


def event_columns(events) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(subject_id, zone_id, case_day)`` columns of ``Event`` rows, as
    ``io.read_events`` returns them."""
    subject, zone, day = zip(*events) if events else ((), (), ())
    return np.array(subject, dtype=object), np.array(zone, dtype=object), np.array(day, dtype="datetime64[D]")


def events_of(columns) -> list[Event]:
    """The ``Event`` rows of event columns, with Python ``str`` and ``date``."""
    return [Event(*row) for row in zip(*(c.tolist() for c in columns))]


def places(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(ids, lat, lon)`` columns of ``(id, lat, lon)`` rows, as
    ``io.read_grid_cells`` and ``io.read_zones`` return them."""
    ids, lat, lon = zip(*rows) if rows else ((), (), ())
    return np.array(ids, dtype=object), np.array(lat, dtype=float), np.array(lon, dtype=float)


def membership(members: dict) -> tuple[np.ndarray, np.ndarray]:
    """The ``(zone_id, cell_id)`` columns of ``{zone_id: [cell_id, ...]}``,
    a pair per listed cell, as ``io.read_membership`` returns them."""
    pairs = [(zone, cell) for zone, cells in members.items() for cell in cells]
    zone, cell = zip(*pairs) if pairs else ((), ())
    return np.array(zone, dtype=object), np.array(cell, dtype=object)
