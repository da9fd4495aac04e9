"""Zone-level daily exposure series from gridded fields, plus lagged windows.

Fields and series take one form, ``DailyTable``: row ids (cells or zones), a
first day, and a dense (ids x days) float array with NaN for every missing
value. Two linkage rules are supported, matching how the two exposures are
used:

* nearest-centroid: each zone takes the full daily row of the single grid
  cell whose centroid is closest (great-circle distance) to the zone centroid;
* zonal mean: each zone averages, per day, the cells whose centroids fall
  inside it (membership is a precomputed input, not polygon geometry).

Missing daily values are never imputed: a (zone, day) with no data stays
NaN, and so does every window that touches it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "TEMPERATURE",
    "PM25",
    "GridCell",
    "Zone",
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


@dataclass(frozen=True)
class GridCell:
    """One cell of a gridded exposure product, identified by its centroid."""

    cell_id: str
    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ConfigurationError(f"cell {self.cell_id}: latitude {self.lat} out of range")
        if not -180.0 <= self.lon <= 180.0:
            raise ConfigurationError(f"cell {self.cell_id}: longitude {self.lon} out of range")


@dataclass(frozen=True)
class Zone:
    """An aggregation zone (ZIP-code role) with a representative centroid.

    ``member_cells`` lists the grid cells whose centroids fall inside the
    zone; it may be empty, in which case the zone cannot receive zonal-mean
    exposures and is excluded with a warning.
    """

    zone_id: str
    lat: float
    lon: float
    member_cells: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ConfigurationError(f"zone {self.zone_id}: latitude {self.lat} out of range")
        if not -180.0 <= self.lon <= 180.0:
            raise ConfigurationError(f"zone {self.zone_id}: longitude {self.lon} out of range")


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


def nearest_cells(cells: list[GridCell], zones: list[Zone]) -> dict[str, str]:
    """Assign each zone the id of its nearest cell by centroid distance.

    Distance ties break to the lexicographically smallest cell_id, so the
    assignment does not depend on input ordering.
    """
    if not cells:
        raise ConfigurationError("cannot assign zones to an empty grid")
    ordered = sorted(cells, key=lambda c: c.cell_id)
    ids = [c.cell_id for c in ordered]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("duplicate cell_id in grid")
    cell_lat = np.array([c.lat for c in ordered])
    cell_lon = np.array([c.lon for c in ordered])
    out: dict[str, str] = {}
    for zone in zones:
        d = haversine_km(zone.lat, zone.lon, cell_lat, cell_lon)
        # first minimum in cell_id order = lexicographic tie-break
        out[zone.zone_id] = ids[int(np.argmin(d))]
    return out


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


def link_temperature(cells: list[GridCell], zones: list[Zone], daily_field: DailyTable) -> DailyTable:
    """Nearest-centroid linkage: each zone copies its assigned cell's row.

    Every zone gets a row, in ``zones`` order; a cell without data gives an
    all-NaN row.
    """
    assignment = nearest_cells(cells, zones)
    rows = daily_field.row([assignment[z.zone_id] for z in zones])
    ids = np.array([z.zone_id for z in zones], dtype=object)
    return _checked(DailyTable(ids, daily_field.origin, _gather(daily_field, rows)), TEMPERATURE)


def link_pm25(cells: list[GridCell], zones: list[Zone], daily_field: DailyTable) -> DailyTable:
    """Zonal-mean linkage over each zone's member cells.

    Per (zone, day) the value is the arithmetic mean over member cells with
    data on that day, summed from 0 in cell_id order, so it equals
    ``sum(present) / len(present)`` bit for bit; with no member present it
    is NaN. Zones with no member cells are excluded with a warning.
    """
    if not cells:
        raise ConfigurationError("cannot aggregate over an empty grid")
    for zone in (z for z in zones if not z.member_cells):
        log.warning("zone %s has no member cells; excluded from pm25 linkage", zone.zone_id)
    zones = [z for z in zones if z.member_cells]
    members = [sorted(z.member_cells) for z in zones]
    width = max(map(len, members), default=0)
    # row of each zone's k-th member in column k, -1 past its last member
    at = daily_field.row([c for m in members for c in m + [None] * (width - len(m))]).reshape(len(zones), width)
    total = np.zeros((len(zones), daily_field.values.shape[1]))
    count = np.zeros(total.shape, dtype=np.int32)
    for k in range(width):
        values = _gather(daily_field, at[:, k])
        present = ~np.isnan(values)
        values[~present] = 0.0
        total += values     # total is never -0.0, so adding 0.0 leaves it as it is
        count += present
    np.divide(total, count, out=total, where=count > 0)
    total[count == 0] = np.nan
    ids = np.array([z.zone_id for z in zones], dtype=object)
    return _checked(DailyTable(ids, daily_field.origin, total), PM25)


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
