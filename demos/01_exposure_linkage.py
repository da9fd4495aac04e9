#!/usr/bin/env python3
# ============================================================
# DEMO 1 - Linking gridded daily fields to zones
#
#   * nearest-centroid assignment (temperature role)
#   * zonal mean over member cells (pm25 role)
#   * lagged window aggregation with explicit missing-data errors
# ============================================================

from datetime import date, timedelta

import numpy as np

from casecross import (
    GridCell,
    MissingDataError,
    WindowSpec,
    Zone,
    link_pm25,
    link_temperature,
    windowed_exposure,
)
from casecross.exposure import PM25, TEMPERATURE

rng = np.random.default_rng(20120601)

print("=" * 60)
print("1. A toy grid: 3 x 3 cells, two zones")
print("=" * 60)

cells = [
    GridCell(f"c{i}{j}", 40.0 + 0.1 * i, -74.0 + 0.1 * j)
    for i in range(3)
    for j in range(3)
]
zones = [
    Zone("downtown", 40.02, -73.97, member_cells=frozenset({"c00", "c01", "c10"})),
    Zone("uptown", 40.21, -73.82, member_cells=frozenset({"c21", "c22"})),
]

days = [date(2012, 6, d) for d in range(1, 11)]
temp_field = {(c.cell_id, d): 24.0 + 4 * np.sin(d.day / 3) + 0.5 * c.lat for c in cells for d in days}
pm_field = {(c.cell_id, d): float(rng.uniform(4, 14)) for c in cells for d in days}

temp_series = link_temperature(cells, zones, temp_field)
print("\nnearest-cell temperature series (first 3 days):")
for s in temp_series:
    head = {d.isoformat(): round(v, 2) for d, v in list(sorted(s.values.items()))[:3]}
    print(f"  {s.zone_id:10s} {head}")

pm_series = link_pm25(cells, zones, pm_field)
print("\nzonal-mean pm25 series (first 3 days):")
for s in pm_series:
    head = {d.isoformat(): round(v, 2) for d, v in list(sorted(s.values.items()))[:3]}
    print(f"  {s.zone_id:10s} {head}")

print()
print("=" * 60)
print("2. Windowed exposures")
print("=" * 60)

spec3 = WindowSpec(PM25, window_days=3)
target = date(2012, 6, 5)
val = windowed_exposure(pm_series[0], target, spec3)
manual = np.mean([pm_series[0].values[target - timedelta(days=k)] for k in (2, 1, 0)])
print(f"\n3-day mean pm25 on {target} for downtown: {val:.3f} (manual recompute {manual:.3f})")

print("\nmissing data is an error, never an imputation:")
gappy = dict(pm_series[0].values)
del gappy[date(2012, 6, 4)]
from casecross import ExposureSeries

broken = ExposureSeries("downtown", PM25, gappy)
try:
    windowed_exposure(broken, target, spec3)
except MissingDataError as err:
    print(f"  MissingDataError: {err}")
