#!/usr/bin/env python3
# ============================================================
# DEMO 1 - Linking gridded daily fields to zones
#
#   * a field and a zone series take one form: DailyTable, a
#     dense (ids x days) array from a first day, NaN = missing
#   * nearest-centroid assignment (temperature role)
#   * zonal mean over member cells (pm25 role)
#   * lagged windows: a missing day drops the matched set
#   * events enter as three columns: subject, zone, case day
# ============================================================

from datetime import date

import numpy as np

from casecross import DailyTable, GridCell, Zone, build_matched_sets
from casecross import link_pm25, link_temperature
from casecross.exposure import trailing_mean

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

# a field as read from cell_id,date,value rows: one row per cell (in
# cell_id order), one column per day from June 1, 2012
cell_ids = np.array([c.cell_id for c in cells], dtype=object)
origin = np.datetime64("2012-06-01")
day = np.arange(30)
lat = np.array([c.lat for c in cells])
temp_field = DailyTable(cell_ids, origin, 24.0 + 4 * np.sin((day + 1) / 3) + 5.0 * (lat[:, None] - 40.0))
pm_field = DailyTable(cell_ids, origin, rng.uniform(4, 14, size=(len(cells), day.size)))
print(f"\nfield: {temp_field.values.shape[0]} cells x {temp_field.values.shape[1]} days from {origin}")


def show(table):
    for zone_id, row in zip(table.ids, table.values):
        print(f"  {zone_id:10s} {np.round(row[:3], 2).tolist()}")


temp_series = link_temperature(cells, zones, temp_field)
print("\nnearest-cell temperature series (first 3 days):")
show(temp_series)

pm_series = link_pm25(cells, zones, pm_field)
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
