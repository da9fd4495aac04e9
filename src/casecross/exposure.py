"""Zone-level daily exposure series from gridded fields, plus lagged windows.

Fields and series take one form, ``DailyTable``: row ids (cells or zones), a
first day, and a dense (ids x days) float array with NaN for every missing
value. Two linkage rules are supported, matching how the two exposures are
used:

* nearest-centroid: each zone takes the full daily row of the single grid
  cell whose centroid is closest (great-circle distance) to the zone centroid;
* zonal mean: each zone averages, per day, the cells whose centroids fall
  inside it (membership is a precomputed input, not polygon geometry).

Cells and zones are ``(ids, lat, lon)`` columns (object ids, float64
degrees) and membership is ``(zone_id, cell_id)`` columns, as ``io`` reads them.

Missing daily values are never imputed: a (zone, day) with no data stays
NaN, and so does every window that touches it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "TEMPERATURE",
    "PM25",
    "DailyTable",
    "haversine_km",
    "nearest_cells",
    "link_temperature",
    "link_pm25",
    "trailing_mean",
]

log = logging.getLogger(__name__)

TEMPERATURE = "temperature_max"
PM25 = "pm25"

EARTH_RADIUS_KM = 6371.0088
# most (zone, cell) distances taken at once, 8 MiB of float64 for each of
# haversine_km's temporaries. A module constant, not a setting.
LINK_SLOTS = 1 << 20


@dataclass(frozen=True, eq=False)
class DailyTable:
    """Daily values of one exposure: row ``k`` is id ``ids[k]``, column ``j``
    the day ``origin + j``, and NaN marks a missing value."""

    ids: np.ndarray
    origin: np.datetime64
    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] != len(self.ids):
            raise ConfigurationError(f"{len(self.ids)} ids for a table of shape {self.values.shape}")
        if len(set(self.ids.tolist())) != len(self.ids):
            raise ConfigurationError("duplicate id in a daily table")

    def row(self, ids) -> np.ndarray:
        """The row of each of ``ids``, -1 for an id not in the table."""
        index = {i: k for k, i in enumerate(self.ids.tolist())}
        return np.array([index.get(i, -1) for i in ids], dtype=int)


def haversine_km(lat1, lon1, lat2, lon2):
    """Great-circle distance in km between points given in degrees."""
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(x, dtype=float)) for x in (lat1, lon1, lat2, lon2))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    return EARTH_RADIUS_KM * 2.0 * np.arcsin(np.sqrt(a))


def nearest_cells(cells, zones) -> np.ndarray:
    """The id of each zone's nearest cell by centroid distance, in zone order.

    Distance ties break to the lexicographically smallest cell_id, so the
    assignment does not depend on input ordering.
    """
    order = np.argsort(cells[0], kind="stable")
    ids, lat, lon = (np.asarray(c)[order] for c in cells)
    if not ids.size:
        raise ConfigurationError("cannot assign zones to an empty grid")
    if (ids[1:] == ids[:-1]).any():
        raise ConfigurationError("duplicate cell_id in grid")
    nearest = np.empty(len(zones[0]), dtype=np.intp)
    step = max(1, LINK_SLOTS // ids.size)
    for lo in range(0, nearest.size, step):
        d = haversine_km(zones[1][lo : lo + step, np.newaxis], zones[2][lo : lo + step, np.newaxis], lat, lon)
        # first minimum in cell_id order = lexicographic tie-break
        nearest[lo : lo + step] = d.argmin(axis=1)
    return ids[nearest]


def _gather(table: DailyTable, rows: np.ndarray) -> np.ndarray:
    """``table.values[rows]``, with an all-NaN row for each row -1."""
    out = np.full((rows.size, table.values.shape[1]), np.nan)
    out[rows >= 0] = table.values[rows[rows >= 0]]
    return out


def _checked(table: DailyTable, kind: str) -> DailyTable:
    """``table``, once no value is infinite and, for pm25, none is negative."""
    for bad, what in ((np.isinf(table.values), f"non-finite {kind} value"),
                      ((table.values < 0) & (kind == PM25), "negative pm25 value {}")):
        if bad.any():
            row, col = np.unravel_index(bad.argmax(), bad.shape)
            what = what.format(float(table.values[row, col]))
            raise ConfigurationError(f"zone {table.ids[row]}: {what} on {table.origin + col}")
    return table


def link_temperature(cells, zones, daily_field: DailyTable) -> DailyTable:
    """Nearest-centroid linkage: each zone copies its assigned cell's row.

    Every zone gets a row, in ``zones`` order; a cell without data gives an
    all-NaN row.
    """
    rows = daily_field.row(nearest_cells(cells, zones).tolist())
    ids = np.array(zones[0], dtype=object)
    return _checked(DailyTable(ids, daily_field.origin, _gather(daily_field, rows)), TEMPERATURE)


def link_pm25(zones, membership, daily_field: DailyTable) -> DailyTable:
    """Zonal-mean linkage over each zone's member cells.

    Per (zone, day) the value is the arithmetic mean over member cells with
    data on that day, summed from 0 in cell_id order, so it equals
    ``sum(present) / len(present)`` bit for bit; with no member present it
    is NaN. Zones with no member cells are excluded with a warning, and a
    repeated membership pair counts once.
    """
    zone_ids = np.array(zones[0], dtype=object)
    index = {z: k for k, z in enumerate(zone_ids.tolist())}
    cell_ids, cell = np.unique(np.asarray(membership[1], dtype=object), return_inverse=True)
    # each pair of a zone in ``zones`` once, by zone and then in cell_id order
    # (a sort, not np.unique, whose hash path imports numpy.ma)
    pair = np.sort(np.array([index.get(z, -1) for z in membership[0]], dtype=int) * cell_ids.size + cell)
    zone, cell = np.divmod(pair[(np.diff(pair, prepend=-1) > 0) & (pair >= 0)], max(cell_ids.size, 1))
    size = np.bincount(zone, minlength=zone_ids.size)
    for zone_id in zone_ids[size == 0].tolist():
        log.warning("zone %s has no member cells; excluded from pm25 linkage", zone_id)
    # row of each zone's k-th member in column k, -1 past its last member
    at = np.full((zone_ids.size, size.max(initial=0)), -1)
    at[zone, np.arange(zone.size) - (np.cumsum(size) - size)[zone]] = daily_field.row(cell_ids.tolist())[cell]
    at = at[size > 0]
    total = np.zeros((len(at), daily_field.values.shape[1]))
    count = np.zeros(total.shape, dtype=np.int32)
    for k in range(at.shape[1]):
        values = _gather(daily_field, at[:, k])
        present = ~np.isnan(values)
        values[~present] = 0.0
        total += values     # total is never -0.0, so adding 0.0 leaves it as it is
        count += present
    np.divide(total, count, out=total, where=count > 0)
    total[count == 0] = np.nan
    return _checked(DailyTable(zone_ids[size > 0], daily_field.origin, total), PM25)


def trailing_mean(values, window_days: int) -> np.ndarray:
    """Mean of the ``window_days`` values ending at each position of each row
    (the last axis), NaN for the first ``window_days - 1`` and for windows
    touching a NaN. Shifted adds sum left to right, oldest first, so each
    entry equals ``sum(window) / window_days`` bit for bit."""
    values = np.asarray(values, dtype=float)
    out = np.full(values.shape, np.nan)
    n = values.shape[-1] - window_days + 1
    if n > 0:
        acc = out[..., window_days - 1 :]
        np.add(values[..., :n], 0.0, out=acc)      # as sum() starts from 0: -0.0 turns 0.0
        for k in range(1, window_days):
            acc += values[..., k : k + n]
        acc /= window_days
    return out
