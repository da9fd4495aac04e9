import math
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from casecross.design import (
    REASON_CASE_TRIMMED,
    REASON_DUPLICATE_SUBJECT,
    REASON_MISSING_EXPOSURE,
    REASON_NO_CONTROLS,
    REASON_OUTSIDE_SEASON,
    REASON_UNKNOWN_ZONE,
    DayRecord,
    MatchedRows,
    MatchedSet,
    apply_trimming,
    build_matched_sets,
    select_referents,
)
from casecross import io
from casecross.effects import case_day_levels
from casecross.errors import ConfigurationError, EmptyAnalysisError
from casecross.exposure import (
    DailyTable,
    link_pm25,
    link_temperature,
)
from casecross.simulate import TruthSpec, generate
from casecross.splines import design_matrix, fit_model_basis

sys.path.insert(0, str(Path(__file__).resolve().parent))

from per_day import (  # noqa: E402
    Event, Gap, by_day, event_columns, events_of, rows_of, same_sets, set_objects, table_of, windowed_exposure,
)


def _series(start, values):
    return {start + timedelta(days=k): float(v) for k, v in enumerate(values)}


def _covered_series(start=date(2012, 5, 25), n=130, t0=25.0, a0=8.0):
    temps = [t0 + 0.05 * k + 3.0 * math.sin(k / 5.0) for k in range(n)]
    pms = [a0 + 2.0 * math.sin(k / 7.0 + 1.0) + 2.5 for k in range(n)]
    return _series(start, temps), _series(start, pms)


def _build(events, temp, pm, temp_w, pm_w, season=(6, 9)):
    """``build_matched_sets`` of ``Event`` rows on the tables of per-zone
    ``{date: value}`` series."""
    return build_matched_sets(event_columns(events), table_of(temp), table_of(pm), temp_w, pm_w, season_months=season)


TEMP_W = 1
PM_W = 3


class TestSelectReferents:
    def test_july_2010_thursday(self):
        # July 1, 2010 was a Thursday; Thursdays fall on 1, 8, 15, 22, 29
        got = select_referents(date(2010, 7, 15))
        assert got == [date(2010, 7, 1), date(2010, 7, 8), date(2010, 7, 22), date(2010, 7, 29)]

    def test_february_2009_sunday(self):
        got = select_referents(date(2009, 2, 1))
        assert got == [date(2009, 2, 8), date(2009, 2, 15), date(2009, 2, 22)]

    def test_self_exclusion_everywhere(self):
        rng = np.random.default_rng(2)
        base = date(2008, 1, 1)
        for k in rng.integers(0, 3000, size=200):
            d = base + timedelta(days=int(k))
            refs = select_referents(d)
            assert d not in refs
            assert 3 <= len(refs) <= 4
            assert all(r.month == d.month and r.year == d.year for r in refs)
            assert all(r.weekday() == d.weekday() for r in refs)

    def test_partition_symmetry(self):
        # any two same-weekday dates in one month select each other
        for year, month in ((2010, 7), (2009, 2), (2016, 2), (2012, 9)):
            import calendar

            n = calendar.monthrange(year, month)[1]
            days = [date(year, month, k) for k in range(1, n + 1)]
            for d1 in days:
                for d2 in days:
                    if d1 == d2:
                        continue
                    in12 = d2 in select_referents(d1)
                    in21 = d1 in select_referents(d2)
                    assert in12 == in21
                    assert in12 == (d1.weekday() == d2.weekday())


class TestBuildMatchedSets:
    def test_single_event_direct_construction(self):
        temp, pm = _covered_series()
        events = [Event("s1", "z1", date(2012, 7, 18))]
        sets, drops = _build(events, {"z1": temp}, {"z1": pm}, TEMP_W, PM_W)
        assert len(drops) == 0
        assert sets.subject_id.tolist() == ["s1"]
        assert sets.is_case.sum() == 1
        assert sets.day.size in (4, 5)
        (case,) = sets.day[sets.is_case].tolist()
        assert case == date(2012, 7, 18)
        assert sets.temperature[sets.is_case][0] == temp[case]
        expected_pm = (
            pm[case]
            + pm[case - timedelta(days=1)]
            + pm[case - timedelta(days=2)]
        ) / 3
        assert sets.pm25_window[sets.is_case][0] == expected_pm

    def test_window_gap_drops_event(self):
        temp, pm = _covered_series()
        del pm[date(2012, 7, 17)]
        events = [Event("s1", "z1", date(2012, 7, 18))]
        sets, drops = _build(events, {"z1": temp}, {"z1": pm}, TEMP_W, PM_W)
        assert len(sets) == 0
        assert drops.tolist() == [("s1", REASON_MISSING_EXPOSURE)]

    def test_unknown_zone_drops_event(self):
        temp, pm = _covered_series()
        events = [Event("s1", "nowhere", date(2012, 7, 18))]
        sets, drops = _build(events, {"z1": temp}, {"z1": pm}, TEMP_W, PM_W)
        assert len(sets) == 0 and drops[0].reason == REASON_UNKNOWN_ZONE

    def test_outside_season_dropped(self):
        temp, pm = _covered_series()
        events = [Event("s1", "z1", date(2012, 3, 7))]
        sets, drops = _build(events, {"z1": temp}, {"z1": pm}, TEMP_W, PM_W)
        assert len(sets) == 0 and drops[0].reason == REASON_OUTSIDE_SEASON

    def test_duplicate_subject_keeps_first_event(self):
        temp, pm = _covered_series()
        events = [
            Event("s1", "z1", date(2012, 8, 14)),
            Event("s1", "z1", date(2012, 7, 18)),
            Event("s1", "z1", date(2012, 9, 5)),
        ]
        sets, drops = _build(events, {"z1": temp}, {"z1": pm}, TEMP_W, PM_W)
        assert len(sets) == 1
        assert sets.day[sets.is_case].tolist() == [date(2012, 7, 18)]
        assert sorted(d.reason for d in drops) == [REASON_DUPLICATE_SUBJECT] * 2

    def test_rejoin_oracle_50_events(self):
        # independent join: look exposures up straight from the dicts
        rng = np.random.default_rng(5)
        zones = [f"z{k}" for k in range(5)]
        temp = {}
        pm = {}
        for z in zones:
            t, p = _covered_series(t0=20.0 + rng.uniform(0, 10), a0=6.0 + rng.uniform(0, 4))
            temp[z], pm[z] = t, p
        events = []
        for k in range(50):
            month = int(rng.integers(6, 10))
            day = int(rng.integers(1, 29))
            events.append(Event(f"s{k:02d}", zones[k % 5], date(2012, month, day)))
        sets, drops = _build(events, temp, pm, TEMP_W, PM_W)
        assert len(sets) + len(drops) == 50
        by_subject = {sid: k for k, sid in enumerate(sets.subject_id)}
        for ev in events:
            if ev.subject_id not in by_subject:
                continue
            rows = sets.set_index == by_subject[ev.subject_id]
            days = sorted(select_referents(ev.case_date) + [ev.case_date])
            assert sets.day[rows].tolist() == days
            for d, t, a in zip(days, sets.temperature[rows], sets.pm25_window[rows]):
                assert t == temp[ev.zone_id][d]
                # windows aggregate chronologically (oldest day first)
                wanted = (
                    pm[ev.zone_id][d - timedelta(days=2)]
                    + pm[ev.zone_id][d - timedelta(days=1)]
                    + pm[ev.zone_id][d]
                ) / 3
                assert a == wanted

    def test_no_silent_loss(self):
        temp, pm = _covered_series()
        events = [
            Event("a", "z1", date(2012, 7, 18)),
            Event("b", "gone", date(2012, 7, 18)),
            Event("c", "z1", date(2012, 1, 1)),
        ]
        sets, drops = _build(events, {"z1": temp}, {"z1": pm}, TEMP_W, PM_W)
        assert len(sets) + len(drops) == len(events)


def _set_with_pm(subject, pm_values, case_pos=0):
    # same-weekday July 2012 dates: 2, 9, 16, 23, 30 are all Mondays
    days = [date(2012, 7, d) for d in (2, 9, 16, 23, 30)][: len(pm_values)]
    rows = [
        DayRecord(days[k], k == case_pos, 25.0 + k, float(pm_values[k]))
        for k in range(len(pm_values))
    ]
    return MatchedSet(subject, rows)


class TestMatchedSetInvariants:
    def test_exactly_one_case(self):
        days = [date(2012, 7, d) for d in (2, 9)]
        rows = [DayRecord(d, True, 20.0, 5.0) for d in days]
        with pytest.raises(ConfigurationError):
            MatchedSet("s", rows)

    def test_same_month_weekday_required(self):
        rows = [
            DayRecord(date(2012, 7, 2), True, 20.0, 5.0),
            DayRecord(date(2012, 8, 6), False, 20.0, 5.0),
        ]
        with pytest.raises(ConfigurationError):
            MatchedSet("s", rows)
        rows = [
            DayRecord(date(2012, 7, 2), True, 20.0, 5.0),
            DayRecord(date(2012, 7, 3), False, 20.0, 5.0),
        ]
        with pytest.raises(ConfigurationError):
            MatchedSet("s", rows)

    def test_control_count_bounds(self):
        with pytest.raises(ConfigurationError):
            _set_with_pm("s", [5.0])  # zero controls


class TestTrimming:
    def test_quantile_one_changes_nothing(self):
        sets = [_set_with_pm(f"s{k}", [5 + k, 6, 7, 8]) for k in range(4)]
        kept, threshold, drops = apply_trimming(rows_of(sets), 1.0)
        assert kept.subject_id.tolist() == [s.subject_id for s in sets]
        assert np.bincount(kept.set_index).tolist() == [len(s.rows) for s in sets]
        assert len(drops) == 0
        assert threshold == max(r.pm25_window for s in sets for r in s.rows)

    def test_pooled_1_to_100_at_95(self):
        # 25 sets x 4 rows pooled to exactly 1..100
        values = np.arange(1, 101, dtype=float).reshape(25, 4)
        sets = [_set_with_pm(f"s{k:02d}", values[k]) for k in range(25)]
        kept, threshold, drops = apply_trimming(rows_of(sets), 0.95)
        assert threshold == 95.0
        surviving = kept.pm25_window.tolist()
        assert max(surviving) <= 95.0
        dropped_rows = 100 - len(surviving) - sum(
            len(s.rows) for s in sets if s.subject_id in {d.subject_id for d in drops}
        )
        # rows above 95 are exactly 96..100; the set holding 97..100 dies with
        # its case row, the set holding 93..96 just loses one row
        assert {d.reason for d in drops} <= {REASON_CASE_TRIMMED, REASON_NO_CONTROLS}
        assert all(v <= 95.0 for v in surviving)
        assert dropped_rows == 1  # the single row 96 trimmed from a surviving set

    def test_case_trimmed_discards_whole_set(self):
        # pooled 1,2,3,4,5,6,7,99; q=0.8 -> ceil(6.4)=7th value -> threshold 7
        sets = [
            _set_with_pm("high_case", [99.0, 1.0, 2.0, 3.0], case_pos=0),
            _set_with_pm("ok", [4.0, 5.0, 6.0, 7.0], case_pos=0),
        ]
        kept, threshold, drops = apply_trimming(rows_of(sets), 0.8)
        assert threshold == 7.0
        assert kept.subject_id.tolist() == ["ok"]
        assert drops[0].subject_id == "high_case"
        assert drops[0].reason == REASON_CASE_TRIMMED

    def test_only_control_trimmed_discards_set(self):
        # pooled 1,99,2,3,4,5; q=0.8 -> ceil(4.8)=5th value -> threshold 5
        sets = [
            _set_with_pm("fragile", [1.0, 99.0], case_pos=0),
            _set_with_pm("ok", [2.0, 3.0, 4.0, 5.0], case_pos=0),
        ]
        kept, threshold, drops = apply_trimming(rows_of(sets), 0.8)
        assert threshold == 5.0
        assert kept.subject_id.tolist() == ["ok"]
        assert drops[0].reason == REASON_NO_CONTROLS

    def test_threshold_invariant_to_order(self):
        rng = np.random.default_rng(8)
        sets = [_set_with_pm(f"s{k:02d}", rng.uniform(0, 30, size=4)) for k in range(30)]
        _, t1, _ = apply_trimming(rows_of(sets), 0.9)
        shuffled = list(sets)
        rng.shuffle(shuffled)
        _, t2, _ = apply_trimming(rows_of(shuffled), 0.9)
        assert t1 == t2

    def test_removal_bound(self):
        # rows exceeding the fitted threshold number at most ceil((1-q)*N)+1
        rng = np.random.default_rng(9)
        for _ in range(20):
            sets = [_set_with_pm(f"s{k:02d}", rng.uniform(0, 50, size=5)) for k in range(20)]
            pooled = [r.pm25_window for s in sets for r in s.rows]
            q = float(rng.uniform(0.5, 1.0))
            _, threshold, _ = apply_trimming(rows_of(sets), q)
            above = sum(v > threshold for v in pooled)
            assert above <= np.ceil((1 - q) * len(pooled)) + 1

    def test_all_sets_discarded_raises(self):
        sets = [_set_with_pm("s", [1.0, 99.0], case_pos=1)]
        with pytest.raises(EmptyAnalysisError):
            apply_trimming(rows_of(sets), 0.5)

    def test_invalid_quantile(self):
        rows = rows_of([_set_with_pm("s", [1.0, 2.0])])
        with pytest.raises(ConfigurationError):
            apply_trimming(rows, 0.0)
        with pytest.raises(ConfigurationError):
            apply_trimming(rows, 1.5)


def _thr(sets, q):
    from casecross.quantiles import type1_quantile

    return type1_quantile([r.pm25_window for s in sets for r in s.rows], q)


def _reference_join(events, temp, pm, temp_w, pm_w, season=(6, 9)):
    """The join event by event and day by day, through ``select_referents``
    and the per-day ``windowed_exposure`` on each zone's ``{date: value}``
    series: columns as lists, and the drop log."""
    first = {}
    for ev in events:
        prev = first.get(ev.subject_id)
        if prev is None or ev.case_date < prev.case_date:
            first[ev.subject_id] = ev
    cols = {k: [] for k in ("subject_id", "set_index", "day", "is_case", "temperature", "pm25_window")}
    drops = []
    for ev in events:
        if first[ev.subject_id] is not ev:
            drops.append((ev.subject_id, REASON_DUPLICATE_SUBJECT))
            continue
        if not season[0] <= ev.case_date.month <= season[1]:
            drops.append((ev.subject_id, REASON_OUTSIDE_SEASON))
            continue
        if ev.zone_id not in temp or ev.zone_id not in pm:
            drops.append((ev.subject_id, REASON_UNKNOWN_ZONE))
            continue
        days = sorted(select_referents(ev.case_date) + [ev.case_date])
        try:
            values = [
                (
                    windowed_exposure(temp[ev.zone_id], d, temp_w),
                    windowed_exposure(pm[ev.zone_id], d, pm_w),
                )
                for d in days
            ]
        except Gap:
            drops.append((ev.subject_id, REASON_MISSING_EXPOSURE))
            continue
        for d, (t, a) in zip(days, values):
            cols["set_index"].append(len(cols["subject_id"]))
            cols["day"].append(d)
            cols["is_case"].append(d == ev.case_date)
            cols["temperature"].append(t)
            cols["pm25_window"].append(a)
        cols["subject_id"].append(ev.subject_id)
    return cols, drops


def _assert_exact(events, temp, pm, temp_w, pm_w, season=(6, 9)):
    rows, drops = _build(events, temp, pm, temp_w, pm_w, season)
    cols, ref_drops = _reference_join(events, temp, pm, temp_w, pm_w, season)
    assert rows.subject_id.tolist() == cols["subject_id"]
    assert rows.set_index.tolist() == cols["set_index"]
    assert rows.day.dtype == np.dtype("datetime64[D]")
    assert rows.day.tolist() == cols["day"]
    assert rows.is_case.tolist() == cols["is_case"]
    for name in ("temperature", "pm25_window"):
        # bit for bit, signed zeros included
        assert getattr(rows, name).tobytes() == np.array(cols[name], dtype=float).tobytes(), name
    assert drops.tolist() == ref_drops
    return rows, drops


class TestMatchedRowsExactness:
    """``build_matched_sets`` against a per-day reference built in the test."""

    @pytest.mark.parametrize("temp_days, pm_days", [(1, 1), (1, 3), (3, 1), (3, 3)])
    def test_shipped_data(self, temp_days, pm_days):
        data = Path(__file__).resolve().parent.parent / "data" / "synth"
        cells = io.read_grid_cells(data / "grid.csv")
        zones = io.read_zones(data / "zones.csv")
        temp = by_day(link_temperature(cells, zones, io.read_daily_field(data / "temperature_field.csv")))
        pm = by_day(link_pm25(zones, io.read_membership(data / "membership.csv"),
                              io.read_daily_field(data / "pm25_field.csv")))
        events = events_of(io.read_events(data / "events.csv"))
        rows, drops = _assert_exact(events, temp, pm, temp_days, pm_days)
        assert len(rows) + len(drops) == len(events)

    @pytest.mark.parametrize("window", [1, 3, 7])
    def test_generated_data_with_every_drop_reason(self, window):
        data = generate(TruthSpec(n_zones=6, seed=11), 300)
        rng = np.random.default_rng(window)
        temp = by_day(data.temperature_series)
        pm = by_day(data.pm25_series)
        # gaps: drop scattered days from two zones' series, one of each kind
        for series, zone_id in ((temp, "z001"), (pm, "z004")):
            for day in rng.choice(sorted(series[zone_id]), size=6, replace=False):
                del series[zone_id][day]
        # a series that starts on July 1: windows of early July reach before it
        temp["z003"] = {d: v for d, v in temp["z003"].items() if d >= date(2012, 7, 1)}
        del pm["z005"]                    # known to temperature only
        pm["z000"] = {}                   # no pm25 data at all
        events = events_of(data.events)[:200]
        events += [
            Event("u1", "nowhere", date(2012, 7, 18)),
            Event("u2", "z005", date(2012, 7, 18)),
            Event("o1", "z002", date(2012, 5, 30)),
            Event("o2", "z002", date(2012, 10, 3)),
            Event("early", "z003", date(2012, 7, 2)),   # z003's second temperature day
            Event(events[3].subject_id, "z002", date(2012, 9, 4)),  # later duplicate
            Event(events[5].subject_id, "z001", date(2012, 6, 2)),  # earlier duplicate
            Event("d1", "z002", date(2012, 5, 2)),      # first event out of season
            Event("d1", "z002", date(2012, 8, 2)),
            Event("d2", "z003", date(2012, 8, 9)),      # same-day duplicate: first kept
            Event("d2", "z002", date(2012, 8, 9)),
        ]
        order = rng.permutation(len(events))
        events = [events[k] for k in order]
        rows, drops = _assert_exact(events, temp, pm, window, window)
        reasons = {d.reason for d in drops}
        assert reasons == {
            REASON_DUPLICATE_SUBJECT, REASON_OUTSIDE_SEASON, REASON_UNKNOWN_ZONE, REASON_MISSING_EXPOSURE,
        }
        assert len(rows) + len(drops) == len(events)

    def test_linked_tables_with_unlinked_zones(self):
        # z001 has no member cells: no pm25 row, so its events are unknown;
        # c002, z002's nearest cell, has no temperature: an all-NaN row
        data = generate(TruthSpec(n_zones=4, seed=5), 200)
        zone_of, cell_of = data.membership
        membership = (zone_of[zone_of != "z001"], cell_of[zone_of != "z001"])
        cell_ids = data.cells[0]
        temp = data.temperature_series
        temp_field = DailyTable(cell_ids[[0, 1, 3]], temp.origin, temp.values[[0, 1, 3]])
        pm_field = DailyTable(cell_ids, temp.origin, data.pm25_series.values)
        temp = by_day(link_temperature(data.cells, data.zones, temp_field))
        pm = by_day(link_pm25(data.zones, membership, pm_field))
        assert list(temp) == ["z000", "z001", "z002", "z003"] and temp["z002"] == {}
        assert list(pm) == ["z000", "z002", "z003"]
        events = events_of(data.events)
        rows, drops = _assert_exact(events, temp, pm, TEMP_W, PM_W)
        zone_of = {ev.subject_id: ev.zone_id for ev in events}
        want = {"z001": REASON_UNKNOWN_ZONE, "z002": REASON_MISSING_EXPOSURE}
        assert [d.reason for d in drops] == [want[zone_of[d.subject_id]] for d in drops]
        assert len(drops) == sum(zone_of[s] in want for s in zone_of) > 0

    def test_tables_with_other_origins_and_row_orders(self):
        # the pm25 table starts July 1 and lists its zones in reverse
        data = generate(TruthSpec(n_zones=5, seed=6), 300)
        temp, pm = by_day(data.temperature_series), by_day(data.pm25_series)
        pm = {z: {d: v for d, v in pm[z].items() if d >= date(2012, 7, 1)} for z in reversed(list(pm))}
        for window in (1, 3):
            rows, drops = _assert_exact(events_of(data.events), temp, pm, window, window)
            assert {d.reason for d in drops} == {REASON_MISSING_EXPOSURE} and len(rows) > 0

    def test_no_events(self):
        temp, pm = _covered_series()
        rows, drops = _assert_exact([], {"z1": temp}, {"z1": pm}, TEMP_W, PM_W)
        assert len(rows) == 0 and len(drops) == 0

    def test_hand_built_sets_match_the_build(self):
        temp, pm = _covered_series()
        events = [Event(f"s{k}", "z1", date(2012, 7, 2 + k)) for k in range(20)]
        rows, _ = _build(events, {"z1": temp}, {"z1": pm}, TEMP_W, PM_W)
        sets = [
            MatchedSet(ev.subject_id, [
                DayRecord(d, d == ev.case_date, windowed_exposure(temp, d, 1), windowed_exposure(pm, d, 3))
                for d in sorted(select_referents(ev.case_date) + [ev.case_date])
            ])
            for ev in events
        ]
        table = rows_of(sets)
        for name in ("subject_id", "set_index", "day", "is_case", "temperature", "pm25_window"):
            assert np.array_equal(getattr(table, name), getattr(rows, name)), name


class TestMatchedRowsSequence:
    """A ``MatchedRows`` read as a sequence of checked ``MatchedSet`` objects."""

    def test_indexing_and_iteration_match_the_list(self):
        rows = generate(TruthSpec(n_zones=4, seed=8), 40).sets
        sets = list(rows)
        assert len(sets) == len(rows) == 40
        assert same_sets(sets, set_objects(rows))
        for i in range(-len(rows), len(rows)):
            assert rows[i] is sets[i]
            assert rows[np.int64(i)] is sets[i]
        for part in (slice(None), slice(None, -1), slice(3, 17), slice(-5, None), slice(None, None, -3), slice(7, 2)):
            assert rows[part] == sets[part]
            assert all(a is b for a, b in zip(rows[part], sets[part]))
        assert all(a is b for a, b in zip(rows, sets))
        assert all(a is b for a, b in zip(reversed(rows), reversed(sets)))

    def test_out_of_range_index_raises_index_error(self):
        rows = generate(TruthSpec(n_zones=4, seed=8), 10).sets
        for i in (10, -11, 1000):
            with pytest.raises(IndexError):
                rows[i]
        empty = generate(TruthSpec(n_zones=4, seed=8), 0).sets
        assert list(empty) == [] and empty[:] == []
        with pytest.raises(IndexError):
            empty[0]

    def test_built_and_trimmed_tables_match_the_row_by_row_objects(self):
        data = generate(TruthSpec(n_zones=5, seed=12), 300)
        events = events_of(data.events)
        events[4:6] = [Event("gone", "nowhere", date(2012, 7, 18)), Event("late", "z001", date(2012, 10, 3))]
        built, drops = build_matched_sets(
            event_columns(events), data.temperature_series, data.pm25_series,
            data.temperature_window_days, data.pm25_window_days,
        )
        assert len(drops) == 2
        assert same_sets(list(built), set_objects(built))
        kept, threshold, trim_drops = apply_trimming(built, 0.8)
        assert len(trim_drops) and len(kept) == len(built) - len(trim_drops)
        assert same_sets(list(kept), set_objects(kept))
        # the renumbered view: each surviving set, its rows under the threshold
        dropped_ids = {d.subject_id for d in trim_drops}
        want = [
            MatchedSet(s.subject_id, [r for r in s.rows if r.pm25_window <= threshold])
            for s in built if s.subject_id not in dropped_ids
        ]
        assert same_sets(list(kept), want)

    def test_broken_set_raises_on_first_read_not_on_construction(self):
        days = np.array(["2012-07-04", "2012-07-11", "2012-07-18"], dtype="datetime64[D]")
        rows = MatchedRows(
            subject_id=np.array(["a"], dtype=object),
            set_index=np.zeros(3, dtype=int),
            day=days,
            is_case=np.array([True, True, False]),  # two cases in one set
            temperature=np.array([30.0, 31.0, 29.0]),
            pm25_window=np.array([8.0, 9.0, 7.0]),
        )
        assert len(rows) == 1 and rows.is_case.sum() == 2
        with pytest.raises(ConfigurationError, match="exactly one case row"):
            rows[0]
        with pytest.raises(ConfigurationError, match="exactly one case row"):
            list(rows)

    def test_per_set_reads_of_generated_sets(self):
        # per-set reads as a replication check makes them: a slice, each
        # set's rows, each row's fields
        data = generate(TruthSpec(n_zones=5, seed=13), 120)
        sets = data.sets
        t = np.array([r.temperature for s in sets for r in s.rows])
        a = np.array([r.pm25_window for s in sets for r in s.rows])
        is_case = np.array([r.is_case for s in sets for r in s.rows])
        starts = np.cumsum([0] + [len(s.rows) for s in sets[:-1]])
        assert t.tobytes() == data.rows.temperature.tobytes()
        assert a.tobytes() == data.rows.pm25_window.tobytes()
        assert np.array_equal(is_case, data.rows.is_case)
        assert np.array_equal(starts, np.flatnonzero(np.diff(data.rows.set_index, prepend=-1)))

    def test_library_entry_points_build_no_set_objects(self, monkeypatch, tmp_path):
        built = []
        check = MatchedSet.__post_init__

        def counted(self):
            built.append(self.subject_id)
            check(self)

        monkeypatch.setattr(MatchedSet, "__post_init__", counted)
        data = generate(TruthSpec(n_zones=5, seed=14), 200)
        model = fit_model_basis(data.sets, "spline_linear", 1, 1)
        design_matrix(data.sets, model)
        kept, _, _ = apply_trimming(data.sets, 0.9)
        design_matrix(kept, fit_model_basis(kept, "spline_tensor", 3, 3))
        case_day_levels(data.sets)
        io.write_matched_sets(tmp_path / "matched_sets.csv", data.sets)
        assert built == []
        data.sets[0]  # the counter sees the objects once they are read
        assert built == data.rows.subject_id.tolist()
