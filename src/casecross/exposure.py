"""Zone-level daily exposure series from gridded fields, plus lagged windows.

Two linkage rules are supported, matching how the two exposures are used:

* nearest-centroid: each zone takes the full daily series of the single grid
  cell whose centroid is closest (great-circle distance) to the zone centroid;
* zonal mean: each zone averages, per day, the cells whose centroids fall
  inside it (membership is a precomputed input, not polygon geometry).

Missing daily values are never imputed: a (zone, date) with no data is simply
absent from the series, and windowed lookups raise ``MissingDataError``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from datetime import date as Date, timedelta
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, MissingDataError

__all__ = [
    "TEMPERATURE",
    "PM25",
    "EXPOSURE_KINDS",
    "GridCell",
    "Zone",
    "ExposureSeries",
    "WindowSpec",
    "haversine_km",
    "nearest_cells",
    "link_temperature",
    "link_pm25",
    "windowed_exposure",
    "trailing_mean",
]

log = logging.getLogger(__name__)

TEMPERATURE = "temperature_max"
PM25 = "pm25"
EXPOSURE_KINDS = (TEMPERATURE, PM25)

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


@dataclass
class ExposureSeries:
    """Daily values of one exposure kind for one zone.

    ``values`` maps calendar date to value; absent dates are missing data.
    """

    zone_id: str
    exposure_kind: str
    values: dict[Date, float]

    def __post_init__(self):
        if self.exposure_kind not in EXPOSURE_KINDS:
            raise ConfigurationError(f"unknown exposure kind {self.exposure_kind!r}")
        for d, v in self.values.items():
            if not np.isfinite(v):
                raise ConfigurationError(
                    f"zone {self.zone_id}: non-finite {self.exposure_kind} value on {d}"
                )
            if self.exposure_kind == PM25 and v < 0:
                raise ConfigurationError(
                    f"zone {self.zone_id}: negative pm25 value {v} on {d}"
                )

    def get(self, day: Date) -> float | None:
        return self.values.get(day)


@dataclass(frozen=True)
class WindowSpec:
    """Lagged exposure window ending on the index day.

    ``window_days=1`` is the same-day value; ``window_days=3`` covers the
    index day plus the two preceding days.
    """

    exposure_kind: str
    window_days: int = 1

    def __post_init__(self):
        if self.window_days < 1:
            raise ConfigurationError(f"window_days must be >= 1, got {self.window_days}")


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


def _field_by_cell(daily_field: Mapping[tuple[str, Date], float]) -> dict[str, dict[Date, float]]:
    by_cell: dict[str, dict[Date, float]] = {}
    for (cell_id, day), value in daily_field.items():
        per = by_cell.setdefault(cell_id, {})
        if day in per:
            raise ConfigurationError(f"duplicate field value for cell {cell_id} on {day}")
        per[day] = value
    return by_cell


def link_temperature(
    cells: list[GridCell],
    zones: list[Zone],
    daily_field: Mapping[tuple[str, Date], float],
) -> list[ExposureSeries]:
    """Nearest-centroid linkage: each zone copies its assigned cell's series."""
    assignment = nearest_cells(cells, zones)
    by_cell = _field_by_cell(daily_field)
    out = []
    for zone in zones:
        cell_id = assignment[zone.zone_id]
        values = dict(sorted(by_cell.get(cell_id, {}).items()))
        out.append(ExposureSeries(zone.zone_id, TEMPERATURE, values))
    return out


def link_pm25(
    cells: list[GridCell],
    zones: list[Zone],
    daily_field: Mapping[tuple[str, Date], float],
) -> list[ExposureSeries]:
    """Zonal-mean linkage over each zone's member cells.

    Per (zone, date) the value is the arithmetic mean over member cells with
    data on that date (summed in cell_id order for reproducibility). Zones
    with no member cells are excluded with a warning; dates on which every
    member cell is missing are left out of the series.
    """
    if not cells:
        raise ConfigurationError("cannot aggregate over an empty grid")
    by_cell = _field_by_cell(daily_field)
    out = []
    for zone in zones:
        if not zone.member_cells:
            log.warning("zone %s has no member cells; excluded from pm25 linkage", zone.zone_id)
            continue
        members = sorted(zone.member_cells)
        dates: set[Date] = set()
        for m in members:
            dates.update(by_cell.get(m, {}))
        values: dict[Date, float] = {}
        for day in sorted(dates):
            present = [by_cell[m][day] for m in members if day in by_cell.get(m, {})]
            if present:
                values[day] = sum(present) / len(present)
        out.append(ExposureSeries(zone.zone_id, PM25, values))
    return out


def windowed_exposure(series: ExposureSeries, day: Date, spec: WindowSpec) -> float:
    """Mean of the series over the window ending on ``day``, summed oldest first.

    Raises ``MissingDataError`` naming the first gap date if any date in the
    window is absent.
    """
    if spec.exposure_kind != series.exposure_kind:
        raise ConfigurationError(
            f"window spec is for {spec.exposure_kind}, series holds {series.exposure_kind}"
        )
    vals = []
    for back in range(spec.window_days - 1, -1, -1):
        d = day - timedelta(days=back)
        v = series.values.get(d)
        if v is None:
            raise MissingDataError(
                f"zone {series.zone_id}: {series.exposure_kind} missing on {d} "
                f"(needed for the {spec.window_days}-day window ending {day})",
                zone_id=series.zone_id,
                gap_date=d,
            )
        vals.append(v)
    return sum(vals) / len(vals)


def trailing_mean(values, window_days: int) -> np.ndarray:
    """Mean of the ``window_days`` values ending at each position, NaN for the
    first ``window_days - 1`` and for windows touching a NaN. Shifted adds sum
    left to right, so each entry equals ``windowed_exposure`` bit for bit."""
    values = np.asarray(values, dtype=float)
    out = np.full(values.size, np.nan)
    n = values.size - window_days + 1
    if n > 0:
        acc = values[:n] + 0.0      # as sum() starts from 0: -0.0 turns 0.0
        for k in range(1, window_days):
            acc += values[k : k + n]
        out[window_days - 1 :] = acc / window_days
    return out
