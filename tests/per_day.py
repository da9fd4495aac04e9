"""Per-day references for the table code: each zone's exposure as one
``{date: value}`` mapping, windows summed one day at a time with ``sum()``."""

from datetime import date, timedelta

import numpy as np

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
