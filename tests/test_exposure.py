import math
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casecross.design import build_matched_sets
from casecross.errors import ConfigurationError
from casecross.exposure import (
    PM25,
    TEMPERATURE,
    DailyTable,
    GridCell,
    Zone,
    link_pm25,
    link_temperature,
    trailing_mean,
    nearest_cells,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))

from per_day import Event, Gap, by_day, event_columns, table_of, windowed_exposure  # noqa: E402

D = date(2012, 6, 15)


def _field(cells, dates, values_fn):
    return {(c, d): values_fn(c, d) for c in cells for d in dates}


def _table(field):
    """The cell table of a ``{(cell, date): value}`` field, cells in cell_id order."""
    per_cell = {}
    for (cell, day), value in sorted(field.items()):
        per_cell.setdefault(cell, {})[day] = value
    return table_of(per_cell)


def oracle_haversine(lat1, lon1, lat2, lon2):
    # independent implementation via the spherical law of haversines,
    # written with math.* rather than numpy
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    a = math.sin((p2 - p1) / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin((l2 - l1) / 2) ** 2
    return 6371.0088 * 2 * math.asin(math.sqrt(a))


class TestNearestAssignment:
    def test_strictly_closer_cell_wins(self):
        cells = [GridCell("a", 40.0, -74.01), GridCell("b", 41.0, -74.0)]
        zones = [Zone("z", 40.0, -74.0)]
        assert nearest_cells(cells, zones) == {"z": "a"}

    def test_coincident_centroid_copies_series_verbatim(self):
        cells = [GridCell("a", 40.0, -74.0), GridCell("b", 45.0, -80.0)]
        zones = [Zone("z", 40.0, -74.0)]
        dates = [D + timedelta(days=k) for k in range(5)]
        field = _field(["a", "b"], dates, lambda c, d: 20.0 + d.day + (100 if c == "b" else 0))
        series = link_temperature(cells, zones, _table(field))
        assert by_day(series) == {"z": {d: 20.0 + d.day for d in dates}}

    def test_tie_breaks_to_smallest_cell_id(self):
        # two cells at identical coordinates: identical distances bit for bit
        cells = [GridCell("b", 40.0, -74.0), GridCell("a", 40.0, -74.0)]
        zones = [Zone("z", 40.5, -74.2)]
        assert nearest_cells(cells, zones) == {"z": "a"}

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(7)
        cells = [
            GridCell(f"c{k:03d}", float(rng.uniform(30, 45)), float(rng.uniform(-110, -80)))
            for k in range(500)
        ]
        zones = [
            Zone(f"z{k:03d}", float(rng.uniform(30, 45)), float(rng.uniform(-110, -80)))
            for k in range(100)
        ]
        got = nearest_cells(cells, zones)
        for z in zones:
            best = min(cells, key=lambda c: (oracle_haversine(z.lat, z.lon, c.lat, c.lon), c.cell_id))
            assert got[z.zone_id] == best.cell_id

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        cells = [
            GridCell(f"c{k}", float(rng.uniform(30, 45)), float(rng.uniform(-110, -80)))
            for k in range(40)
        ]
        zones = [
            Zone(f"z{k}", float(rng.uniform(30, 45)), float(rng.uniform(-110, -80)))
            for k in range(15)
        ]
        base = nearest_cells(cells, zones)
        shuffled = list(cells)
        rng.shuffle(shuffled)
        assert nearest_cells(shuffled, zones) == base

    def test_empty_grid_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            link_temperature([], [Zone("z", 0.0, 0.0)], _table({}))

    def test_missing_date_left_out_of_series(self):
        cells = [GridCell("a", 40.0, -74.0)]
        zones = [Zone("z", 40.0, -74.0)]
        field = {("a", D): 21.0, ("b", D + timedelta(days=1)): 5.0}
        series = link_temperature(cells, zones, _table(field))
        assert by_day(series) == {"z": {D: 21.0}}
        assert np.isnan(series.values[0, 1])

    def test_cell_without_data_gives_an_all_nan_row(self):
        cells = [GridCell("a", 40.0, -74.0), GridCell("b", 45.0, -80.0)]
        zones = [Zone("z", 40.0, -74.0), Zone("y", 45.0, -80.0)]
        series = link_temperature(cells, zones, _table({("b", D): 21.0}))
        assert series.ids.tolist() == ["z", "y"]
        assert by_day(series) == {"z": {}, "y": {D: 21.0}}


class TestZonalMean:
    def test_two_point_mean(self):
        cells = [GridCell("a", 40.0, -74.0), GridCell("b", 40.1, -74.0)]
        zones = [Zone("z", 40.0, -74.0, frozenset({"a", "b"}))]
        field = {("a", D): 4.0, ("b", D): 6.0}
        series = link_pm25(cells, zones, _table(field))
        assert by_day(series) == {"z": {D: 5.0}}

    def test_single_member_identity(self):
        cells = [GridCell("a", 40.0, -74.0)]
        zones = [Zone("z", 40.0, -74.0, frozenset({"a"}))]
        field = {("a", D): 7.25}
        series = link_pm25(cells, zones, _table(field))
        assert by_day(series) == {"z": {D: 7.25}}

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(3)
        cell_ids = [f"c{k:02d}" for k in range(25)]
        cells = [GridCell(c, float(rng.uniform(30, 45)), float(rng.uniform(-110, -80))) for c in cell_ids]
        dates = [D + timedelta(days=k) for k in range(30)]
        field = {}
        for c in cell_ids:
            for d in dates:
                if rng.uniform() < 0.9:
                    field[(c, d)] = float(rng.uniform(0, 30))
        zones = []
        for k in range(20):
            members = frozenset(rng.choice(cell_ids, size=rng.integers(1, 6), replace=False).tolist())
            zones.append(Zone(f"z{k:02d}", float(rng.uniform(30, 45)), float(rng.uniform(-110, -80)), members))
        out = by_day(link_pm25(cells, zones, _table(field)))
        for z in zones:
            for d in dates:
                present = [field[(m, d)] for m in sorted(z.member_cells) if (m, d) in field]
                if present:
                    assert out[z.zone_id][d] == sum(present) / len(present)
                else:
                    assert d not in out[z.zone_id]

    def test_member_order_invariance(self):
        cells = [GridCell(f"c{k}", 40.0 + k, -74.0) for k in range(4)]
        field = {(f"c{k}", D): float(k) * 1.7 + 0.3 for k in range(4)}
        za = Zone("z", 40.0, -74.0, frozenset(["c0", "c1", "c2", "c3"]))
        zb = Zone("z", 40.0, -74.0, frozenset(["c3", "c2", "c1", "c0"]))
        sa = link_pm25(cells, [za], _table(field))
        sb = link_pm25(cells, [zb], _table(field))
        assert sa.values.tobytes() == sb.values.tobytes()

    def test_zone_without_members_excluded_with_warning(self, caplog):
        cells = [GridCell("a", 40.0, -74.0)]
        zones = [Zone("empty", 41.0, -74.0), Zone("ok", 40.0, -74.0, frozenset({"a"}))]
        field = {("a", D): 3.0}
        with caplog.at_level("WARNING"):
            out = link_pm25(cells, zones, _table(field))
        assert out.ids.tolist() == ["ok"]
        assert any("empty" in rec.message for rec in caplog.records)

    def test_all_members_missing_on_a_date(self):
        cells = [GridCell("a", 40.0, -74.0)]
        zones = [Zone("z", 40.0, -74.0, frozenset({"a"}))]
        field = {("a", D): 3.0, ("b", D + timedelta(days=1)): 4.0}
        series = link_pm25(cells, zones, _table(field))
        assert by_day(series) == {"z": {D: 3.0}}

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_per_day_sum_bit_for_bit(self, data):
        # gaps, signed zeros, zones without members or with members that
        # have no data, member sets and cell lists in any order
        cell_ids = data.draw(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8, unique=True))
        # thirds round, so sums of them depend on the order of adding
        thirds = st.integers(1, 10**9).map(lambda k: k / 3.0)
        value = st.one_of(st.just(-0.0), st.just(0.0), st.floats(0.0, 1e6), thirds)
        keys = [(c, D + timedelta(days=k)) for c in cell_ids for k in range(10)]
        grid = data.draw(st.lists(st.none() | value | value, min_size=len(keys), max_size=len(keys)))
        field = {key: v for key, v in zip(keys, grid) if v is not None}
        members = st.lists(st.sampled_from(cell_ids + ["x"]), max_size=6)
        zones = [
            Zone(f"z{k}", 40.0, -74.0, frozenset(m))
            for k, m in enumerate(data.draw(st.lists(members, min_size=1, max_size=6)))
        ]
        cells = [GridCell(c, 40.0, -74.0) for c in data.draw(st.permutations(cell_ids))]
        got = link_pm25(cells, zones, _table(field))
        kept = [z for z in zones if z.member_cells]
        assert got.ids.tolist() == [z.zone_id for z in kept]
        days = (got.origin + np.arange(got.values.shape[1])).tolist()
        for z, row in zip(kept, got.values):
            for d, v in zip(days, row):
                present = [field[(m, d)] for m in sorted(z.member_cells) if (m, d) in field]
                want = sum(present) / len(present) if present else np.nan
                # bit for bit, signed zeros included
                assert np.array(v).tobytes() == np.array(want).tobytes(), (z, d)


class TestWindowedExposure:
    def _series(self, values):
        start = D - timedelta(days=len(values) - 1)
        return {start + timedelta(days=k): v for k, v in enumerate(values)}

    def test_three_day_mean(self):
        series = self._series([10.0, 12.0, 14.0])
        assert windowed_exposure(series, D, 3) == 12.0
        assert trailing_mean([10.0, 12.0, 14.0], 3)[-1] == 12.0

    def test_same_day_identity(self):
        series = self._series([10.0, 12.0, 14.0])
        for back, want in ((2, 10.0), (1, 12.0), (0, 14.0)):
            assert windowed_exposure(series, D - timedelta(days=back), 1) == want
        assert trailing_mean([10.0, 12.0, 14.0], 1).tolist() == [10.0, 12.0, 14.0]

    def test_matches_naive_rolling_recomputation(self):
        rng = np.random.default_rng(19)
        vals = [float(v) for v in rng.uniform(0, 40, size=60)]
        got = trailing_mean(vals, 3)
        assert np.isnan(got[:2]).all()
        for k in range(2, 60):
            window = vals[k - 2 : k + 1]
            assert got[k] == sum(window) / 3

    def test_gap_raises_and_names_the_date(self):
        # the reference names the gap; the table's windows over it are NaN
        series = {D: 5.0, D - timedelta(days=2): 4.0}
        with pytest.raises(Gap) as err:
            windowed_exposure(series, D, 3)
        assert err.value.day == D - timedelta(days=1)
        got = trailing_mean([1.0, 4.0, np.nan, 5.0, 6.0, 7.0, 8.0], 3)
        assert np.isnan(got).tolist() == [True, True, True, True, True, False, False]

    def test_constant_series_any_window(self):
        series = self._series([3.5] * 30)
        for window in (1, 2, 3, 7):
            assert windowed_exposure(series, D, window) == 3.5
            assert trailing_mean([3.5] * 30, window)[-1] == 3.5

    @pytest.mark.parametrize("window", range(1, 9))
    def test_trailing_mean_matches_per_day_windows(self, window):
        rng = np.random.default_rng(window)
        vals = rng.uniform(0, 40, size=(3, 80)) * rng.uniform(0.1, 10, size=(3, 80))
        vals[0, [0, 17, 40]] = -0.0
        vals[1, [9, 55]] = np.nan
        vals[2, :5] = -0.0
        days = [D - timedelta(days=79 - j) for j in range(80)]
        got = trailing_mean(vals, window)
        assert got.shape == vals.shape
        for row, out in zip(vals, got):
            series = {d: v for d, v in zip(days, row.tolist()) if not np.isnan(v)}
            # each row of a 2-D array windows as that row alone
            assert trailing_mean(row, window).tobytes() == out.tobytes()
            for k, day in enumerate(days):
                try:
                    want = windowed_exposure(series, day, window)
                except Gap:
                    want = np.nan
                # bit for bit, signed zeros included
                assert np.array(out[k]).tobytes() == np.array(want).tobytes(), k

    def test_window_days_validation(self):
        temp = table_of({"z": self._series([1.0, 2.0, 3.0])})
        events = event_columns([Event("s", "z", D)])
        for days in ((1, 0), (0, 1)):
            with pytest.raises(ConfigurationError, match="window days must be >= 1"):
                build_matched_sets(events, temp, temp, *days)


class TestValidation:
    def _link(self, kind, values):
        """The one-zone table linked from a one-cell field of ``values``."""
        field = table_of({"a": values})
        link = link_pm25 if kind == PM25 else link_temperature
        return link([GridCell("a", 40.0, -74.0)], [Zone("z", 40.0, -74.0, frozenset({"a"}))], field)

    def test_negative_pm25_rejected(self):
        with pytest.raises(ConfigurationError):
            self._link(PM25, {D: -1.0})

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigurationError):
            self._link(TEMPERATURE, {D: float("inf")})

    @pytest.mark.parametrize(
        "kind, values, message",
        [
            # a NaN is a missing value, not an error
            (PM25, {3: 4.0, 2: -2.5, 1: float("nan")}, "negative pm25 value -2.5 on 2012-06-17"),
            # a non-finite value is named before any negative one
            (PM25, {3: float("inf"), 2: -2.5}, "non-finite pm25 value on 2012-06-18"),
            # -inf is both: the non-finite message wins
            (PM25, {1: 4.0, 2: float("-inf")}, "non-finite pm25 value on 2012-06-17"),
            # a negative temperature is valid
            (TEMPERATURE, {1: -3.0, 2: float("nan"), 3: np.inf}, "non-finite temperature_max value on 2012-06-18"),
        ],
    )
    def test_first_offending_value_named(self, kind, values, message):
        with pytest.raises(ConfigurationError) as info:
            self._link(kind, {D + timedelta(days=k): v for k, v in values.items()})
        assert str(info.value) == f"zone z: {message}"

    def test_table_shape_and_ids_checked(self):
        with pytest.raises(ConfigurationError):
            DailyTable(np.array(["a"], dtype=object), np.datetime64(D), np.zeros((2, 3)))
        with pytest.raises(ConfigurationError):
            DailyTable(np.array(["a", "a"], dtype=object), np.datetime64(D), np.zeros((2, 3)))

    def test_coordinate_ranges(self):
        with pytest.raises(ConfigurationError):
            GridCell("a", 91.0, 0.0)
        with pytest.raises(ConfigurationError):
            Zone("z", 0.0, 181.0)
