import math
from datetime import date, timedelta

import numpy as np
import pytest

from casecross.errors import ConfigurationError, MissingDataError
from casecross.exposure import (
    PM25,
    TEMPERATURE,
    ExposureSeries,
    GridCell,
    WindowSpec,
    Zone,
    link_pm25,
    link_temperature,
    trailing_mean,
    nearest_cells,
    windowed_exposure,
)

D = date(2012, 6, 15)


def _field(cells, dates, values_fn):
    return {(c, d): values_fn(c, d) for c in cells for d in dates}


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
        (series,) = link_temperature(cells, zones, field)
        assert series.values == {d: 20.0 + d.day for d in dates}

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
            link_temperature([], [Zone("z", 0.0, 0.0)], {})

    def test_missing_date_left_out_of_series(self):
        cells = [GridCell("a", 40.0, -74.0)]
        zones = [Zone("z", 40.0, -74.0)]
        field = {("a", D): 21.0}
        (series,) = link_temperature(cells, zones, field)
        assert series.get(D) == 21.0
        assert series.get(D + timedelta(days=1)) is None


class TestZonalMean:
    def test_two_point_mean(self):
        cells = [GridCell("a", 40.0, -74.0), GridCell("b", 40.1, -74.0)]
        zones = [Zone("z", 40.0, -74.0, frozenset({"a", "b"}))]
        field = {("a", D): 4.0, ("b", D): 6.0}
        (series,) = link_pm25(cells, zones, field)
        assert series.values[D] == 5.0

    def test_single_member_identity(self):
        cells = [GridCell("a", 40.0, -74.0)]
        zones = [Zone("z", 40.0, -74.0, frozenset({"a"}))]
        field = {("a", D): 7.25}
        (series,) = link_pm25(cells, zones, field)
        assert series.values[D] == 7.25

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
        out = {s.zone_id: s for s in link_pm25(cells, zones, field)}
        for z in zones:
            for d in dates:
                present = [field[(m, d)] for m in sorted(z.member_cells) if (m, d) in field]
                if present:
                    assert out[z.zone_id].values[d] == sum(present) / len(present)
                else:
                    assert d not in out[z.zone_id].values

    def test_member_order_invariance(self):
        cells = [GridCell(f"c{k}", 40.0 + k, -74.0) for k in range(4)]
        field = {(f"c{k}", D): float(k) * 1.7 + 0.3 for k in range(4)}
        za = Zone("z", 40.0, -74.0, frozenset(["c0", "c1", "c2", "c3"]))
        zb = Zone("z", 40.0, -74.0, frozenset(["c3", "c2", "c1", "c0"]))
        (sa,) = link_pm25(cells, [za], field)
        (sb,) = link_pm25(cells, [zb], field)
        assert sa.values == sb.values

    def test_zone_without_members_excluded_with_warning(self, caplog):
        cells = [GridCell("a", 40.0, -74.0)]
        zones = [Zone("empty", 41.0, -74.0), Zone("ok", 40.0, -74.0, frozenset({"a"}))]
        field = {("a", D): 3.0}
        with caplog.at_level("WARNING"):
            out = link_pm25(cells, zones, field)
        assert [s.zone_id for s in out] == ["ok"]
        assert any("empty" in rec.message for rec in caplog.records)

    def test_all_members_missing_on_a_date(self):
        cells = [GridCell("a", 40.0, -74.0)]
        zones = [Zone("z", 40.0, -74.0, frozenset({"a"}))]
        field = {("a", D): 3.0}
        (series,) = link_pm25(cells, zones, field)
        assert (D + timedelta(days=1)) not in series.values


class TestWindowedExposure:
    def _series(self, values):
        start = D - timedelta(days=len(values) - 1)
        return ExposureSeries(
            "z", PM25, {start + timedelta(days=k): v for k, v in enumerate(values)}
        )

    def test_three_day_mean(self):
        series = self._series([10.0, 12.0, 14.0])
        spec = WindowSpec(PM25, 3)
        assert windowed_exposure(series, D, spec) == 12.0

    def test_same_day_identity(self):
        series = self._series([10.0, 12.0, 14.0])
        spec = WindowSpec(PM25, 1)
        for back, want in ((2, 10.0), (1, 12.0), (0, 14.0)):
            assert windowed_exposure(series, D - timedelta(days=back), spec) == want

    def test_matches_naive_rolling_recomputation(self):
        rng = np.random.default_rng(19)
        vals = [float(v) for v in rng.uniform(0, 40, size=60)]
        series = self._series(vals)
        days = sorted(series.values)
        spec = WindowSpec(PM25, 3)
        for k in range(2, 60):
            window = vals[k - 2 : k + 1]
            assert windowed_exposure(series, days[k], spec) == sum(window) / 3

    def test_gap_raises_and_names_the_date(self):
        series = ExposureSeries("z", PM25, {D: 5.0, D - timedelta(days=2): 4.0})
        with pytest.raises(MissingDataError) as err:
            windowed_exposure(series, D, WindowSpec(PM25, 3))
        assert err.value.gap_date == D - timedelta(days=1)
        assert err.value.zone_id == "z"

    def test_constant_series_any_window(self):
        series = self._series([3.5] * 30)
        days = sorted(series.values)
        for window in (1, 2, 3, 7):
            spec = WindowSpec(PM25, window)
            assert windowed_exposure(series, days[-1], spec) == 3.5

    @pytest.mark.parametrize("window", range(1, 9))
    def test_trailing_mean_matches_per_day_windows(self, window):
        rng = np.random.default_rng(window)
        vals = rng.uniform(0, 40, size=80) * rng.uniform(0.1, 10, size=80)
        vals[[0, 17, 40]] = -0.0
        vals[[9, 55]] = np.nan
        days = [D - timedelta(days=79 - j) for j in range(80)]
        series = ExposureSeries(
            "z", PM25, {d: v for d, v in zip(days, vals.tolist()) if not np.isnan(v)}
        )
        got = trailing_mean(vals, window)
        for k, day in enumerate(days):
            try:
                want = windowed_exposure(series, day, WindowSpec(PM25, window))
            except MissingDataError:
                want = np.nan
            # bit for bit, signed zeros included
            assert np.array(got[k]).tobytes() == np.array(want).tobytes(), k

    def test_kind_mismatch(self):
        series = self._series([1.0, 2.0, 3.0])
        with pytest.raises(ConfigurationError):
            windowed_exposure(series, D, WindowSpec(TEMPERATURE, 1))


class TestValidation:
    def test_negative_pm25_rejected(self):
        with pytest.raises(ConfigurationError):
            ExposureSeries("z", PM25, {D: -1.0})

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigurationError):
            ExposureSeries("z", TEMPERATURE, {D: float("nan")})

    def test_coordinate_ranges(self):
        with pytest.raises(ConfigurationError):
            GridCell("a", 91.0, 0.0)
        with pytest.raises(ConfigurationError):
            Zone("z", 0.0, 181.0)

    def test_window_spec_validation(self):
        with pytest.raises(ConfigurationError):
            WindowSpec(PM25, 0)
