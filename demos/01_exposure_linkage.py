#!/usr/bin/env python3
# ============================================================
# DEMO 1 - Linking gridded daily fields to zones
#
#   * cells and zones are (ids, lat, lon) columns, membership
#     is (zone_id, cell_id) columns, as the readers return them
#   * a field and a zone series take one form: DailyTable, a
#     dense (ids x days) array from a first day, NaN = missing
#   * nearest-centroid assignment (temperature role)
#   * zonal mean over member cells (pm25 role)
#   * lagged windows: a missing day drops the matched set
#   * events enter as three columns: subject, zone, case day
# ============================================================

from datetime import date

import numpy as np

from casecross import DailyTable, build_matched_sets
from casecross import link_pm25, link_temperature
from casecross.exposure import trailing_mean

rng = np.random.default_rng(20120601)

print("=" * 60)
print("1. A toy grid: 3 x 3 cells, two zones")
print("=" * 60)

# columns as io.read_grid_cells, io.read_zones and io.read_membership return them
i, j = np.divmod(np.arange(9), 3)
cell_ids = np.array([f"c{a}{b}" for a, b in zip(i, j)], dtype=object)
cells = (cell_ids, 40.0 + 0.1 * i, -74.0 + 0.1 * j)
zones = (np.array(["downtown", "uptown"], dtype=object), np.array([40.02, 40.21]), np.array([-73.97, -73.82]))
membership = (
    np.array(["downtown", "downtown", "downtown", "uptown", "uptown"], dtype=object),
    np.array(["c00", "c01", "c10", "c21", "c22"], dtype=object),
)

# a field as read from cell_id,date,value rows: one row per cell (in
# cell_id order), one column per day from June 1, 2012
origin = np.datetime64("2012-06-01")
day = np.arange(30)
lat = cells[1]
temp_field = DailyTable(cell_ids, origin, 24.0 + 4 * np.sin((day + 1) / 3) + 5.0 * (lat[:, None] - 40.0))
pm_field = DailyTable(cell_ids, origin, rng.uniform(4, 14, size=(cell_ids.size, day.size)))
print(f"\nfield: {temp_field.values.shape[0]} cells x {temp_field.values.shape[1]} days from {origin}")


def show(table):
    for zone_id, row in zip(table.ids, table.values):
        print(f"  {zone_id:10s} {np.round(row[:3], 2).tolist()}")


temp_series = link_temperature(cells, zones, temp_field)
print("\nnearest-cell temperature series (first 3 days):")
show(temp_series)

pm_series = link_pm25(zones, membership, pm_field)
print("\nzonal-mean pm25 series (first 3 days):")
show(pm_series)

print()
print("=" * 60)
print("2. Windowed exposures")
print("=" * 60)

# every row's 3-day windows at once, summed oldest day first
windows = trailing_mean(pm_series.values, 3)
target = date(2012, 6, 5)
col = (np.datetime64(target) - origin).astype(int)
manual = sum(pm_series.values[0, col - 2 : col + 1].tolist()) / 3
print(f"\n3-day mean pm25 on {target} for downtown: {windows[0, col]:.3f} (manual recompute {manual:.3f})")

print("\nmissing data is NaN, never imputed: the set is dropped")
gappy = pm_series.values.copy()
gappy[0, (np.datetime64("2012-06-18") - origin).astype(int)] = np.nan
broken = DailyTable(pm_series.ids, origin, gappy)
# events as io.read_events returns them: (subject_id, zone_id, case_day) columns
events = (
    np.array(["s1", "s2"], dtype=object),
    np.array(["downtown", "uptown"], dtype=object),
    np.array(["2012-06-19", "2012-06-19"], dtype="datetime64[D]"),
)
for name, pm in (("complete", pm_series), ("June 18 missing downtown", broken)):
    sets, drops = build_matched_sets(events, temp_series, pm, 1, 3)  # 1-day temperature, 3-day pm25
    print(f"  {name:25s} sets kept: {sets.subject_id.tolist()}  dropped: {[(d.subject_id, d.reason) for d in drops]}")
