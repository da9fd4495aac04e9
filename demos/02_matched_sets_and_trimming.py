#!/usr/bin/env python3
# ============================================================
# DEMO 2 - Time-stratified referent selection and trimming
#
#   * referent days: same month, same weekday, case excluded
#   * matched-set construction from the event columns and the
#     two zone tables (one dense zones x days array per
#     exposure) into one columnar table (one array per day-row
#     field)
#   * pooled-quantile trimming of extreme pm25 windows
# ============================================================

from datetime import date

from casecross import apply_trimming, build_matched_sets, select_referents
from casecross import generate, linear_truth

print("=" * 60)
print("1. Referent selection")
print("=" * 60)

for case_day in (date(2010, 7, 15), date(2009, 2, 1), date(2016, 8, 31)):
    refs = select_referents(case_day)
    print(f"\ncase {case_day} ({case_day.strftime('%A')}):")
    print("  referents:", ", ".join(str(r) for r in refs))

print()
print("=" * 60)
print("2. Matched sets from a synthetic cohort")
print("=" * 60)

truth = linear_truth(0.06, 0.02, 0.002, n_zones=12, seed=7)
data = generate(truth, 400)
temp = data.temperature_series
print(f"\nzone tables: {temp.values.shape[0]} zones x {temp.values.shape[1]} days from {temp.origin}")
sets, drops = build_matched_sets(
    data.events,
    data.temperature_series,
    data.pm25_series,
    temperature_window_days=1,
    pm25_window_days=3,
)
n_events = len(data.events[0])  # events are (subject_id, zone_id, case_day) columns
print(f"\nevents in: {n_events}  sets out: {len(sets)}  dropped: {len(drops)}")
print(f"day rows: {sets.day.size} (set_index, day, is_case, temperature, pm25_window)")
first = sets.set_index == 0
print(f"\nset 0, subject {sets.subject_id[0]}:")
print(f"  {'date':12s} {'case':5s} {'temp':>7s} {'pm25(3d)':>9s}")
for day, is_case, t, a in zip(
    sets.day[first], sets.is_case[first], sets.temperature[first], sets.pm25_window[first]
):
    print(f"  {day!s:12s} {str(is_case):5s} {t:7.2f} {a:9.2f}")

print()
print("=" * 60)
print("3. Trimming at the pooled 95th percentile")
print("=" * 60)

kept, threshold, trim_drops = apply_trimming(sets, 0.95)
print(f"\npooled rows: {sets.pm25_window.size}")
print(f"computed threshold (pm25 ug/m3): {threshold:.3f}")
print(f"sets kept: {len(kept)}   sets discarded in trimming: {len(trim_drops)}")
print(f"day rows: {sets.day.size} -> {kept.day.size}")
reasons = {}
for d in trim_drops:
    reasons[d.reason] = reasons.get(d.reason, 0) + 1
print("discard reasons:", reasons or "none")
