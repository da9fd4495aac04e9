import csv
import json
import math
import struct
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casecross import io
from casecross.cli import EXIT_INPUT_ERROR, EXIT_OK, main
from casecross.config import AnalysisConfig, load_config, validate_config
from casecross.design import DroppedEvent, MatchedRows
from casecross.errors import ConfigurationError
from casecross.exposure import PM25, TEMPERATURE, DailyTable

sys.path.insert(0, str(Path(__file__).resolve().parent))

from per_day import by_day, table_of  # noqa: E402


class TestCsvRoundTrips:
    def test_grid_and_zones(self, tmp_path):
        io.write_rows(tmp_path / "grid.csv", ["cell_id", "lat", "lon"],
                      [("c1", 40.123456789012345, -74.0), ("c2", 41.0, -75.5)])
        cells = io.read_grid_cells(tmp_path / "grid.csv")
        assert cells[0].cell_id == "c1"
        assert cells[0].lat == 40.123456789012345  # repr round-trip is exact

    def test_field_round_trip(self, tmp_path):
        rows = [("c1", "2012-06-01", 0.1 + 0.2), ("c1", "2012-06-02", 7.0)]
        io.write_rows(tmp_path / "f.csv", ["cell_id", "date", "value"], rows)
        field = io.read_daily_field(tmp_path / "f.csv")
        assert field.ids.tolist() == ["c1"]
        assert field.origin == np.datetime64("2012-06-01")
        assert field.values.tolist() == [[0.1 + 0.2, 7.0]]

    @pytest.mark.parametrize("line, typo", [(5, "2212-06-02"), (2, "1012-06-01")])
    def test_field_date_span_bounded(self, tmp_path, monkeypatch, line, typo):
        # two cells: the limit is lowered, so no large table is allocated
        rows = [("c1", "2012-06-01", 1.0), ("c2", "2012-06-01", 2.0),
                ("c1", "2012-06-02", 3.0), ("c2", "2012-06-02", 4.0)]
        io.write_rows(tmp_path / "f.csv", ["cell_id", "date", "value"], rows)
        monkeypatch.setattr(io, "FIELD_SLOTS", 1000)
        assert io.read_daily_field(tmp_path / "f.csv").values.shape == (2, 2)
        rows[line - 2] = (rows[line - 2][0], typo, 1.0)     # a mistyped year
        io.write_rows(tmp_path / "f.csv", ["cell_id", "date", "value"], rows)
        with pytest.raises(ConfigurationError, match=f"f.csv:{line}: date {typo} stretches"):
            io.read_daily_field(tmp_path / "f.csv")

    def test_duplicate_field_value_rejected(self, tmp_path):
        rows = [("c1", "2012-06-01", 1.0), ("c1", "2012-06-01", 2.0)]
        io.write_rows(tmp_path / "f.csv", ["cell_id", "date", "value"], rows)
        with pytest.raises(ConfigurationError):
            io.read_daily_field(tmp_path / "f.csv")

    def test_header_mismatch_rejected(self, tmp_path):
        io.write_rows(tmp_path / "bad.csv", ["a", "b"], [(1, 2)])
        with pytest.raises(ConfigurationError):
            io.read_events(tmp_path / "bad.csv")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            io.read_events(tmp_path / "none.csv")

    def test_events_columns_match_a_per_row_parse(self):
        path = Path(__file__).resolve().parent.parent / "data" / "synth" / "events.csv"
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        subject, zone, day = io.read_events(path)
        assert (subject.dtype, zone.dtype, day.dtype) == (np.dtype(object), np.dtype(object), np.dtype("datetime64[D]"))
        assert subject.tolist() == [r[0] for r in rows]
        assert zone.tolist() == [r[1] for r in rows]
        assert day.tolist() == [date.fromisoformat(r[2]) for r in rows]

    def test_series_output_schema(self, tmp_path):
        temp = table_of({"z1": {date(2012, 6, 2): 30.0}, "z2": {date(2012, 6, 3): 31.5}})
        pm = table_of({"z1": {date(2012, 6, 1): 5.5, date(2012, 6, 3): 6.25}})
        io.write_series(tmp_path / "s.csv", {TEMPERATURE: temp, PM25: pm})
        assert (tmp_path / "s.csv").read_text().splitlines() == [
            "zone_id,date,exposure_kind,value",
            "z1,2012-06-02,temperature_max,30.0",
            "z2,2012-06-03,temperature_max,31.5",
            "z1,2012-06-01,pm25,5.5",
            "z1,2012-06-03,pm25,6.25",
        ]

    def test_drop_log_schema(self, tmp_path):
        io.write_drop_log(tmp_path / "d.csv", [DroppedEvent("s1", "missing_exposure")])
        assert (tmp_path / "d.csv").read_text() == "subject_id,reason\ns1,missing_exposure\n"


_FLOATS = (
    st.floats(allow_subnormal=True)
    | st.sampled_from([-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
                       1e16, -1e16, 1e-5, 1e22, 123456789012345680.0])
)


class TestNumericWriter:
    """Rows of floats are joined without ``csv.writer``; the file must hold
    the bytes ``csv.writer`` writes for them."""

    @settings(max_examples=200, deadline=None)
    @given(header=st.lists(st.text(alphabet='ab,"\n 1:', min_size=1, max_size=4), min_size=1, max_size=4),
           rows=st.lists(st.lists(_FLOATS, min_size=6, max_size=6), max_size=12))
    def test_bytes_equal_csv_writer(self, tmp_path_factory, header, rows):
        folder = tmp_path_factory.mktemp("numeric")
        draws = np.array(rows, dtype=float).reshape(-1, 6)[:, :len(header)]
        io.write_rows(folder / "csv.csv", header, draws.tolist())
        io.write_draws(folder / "joined.csv", header, draws)
        assert (folder / "joined.csv").read_bytes() == (folder / "csv.csv").read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(rows=st.lists(
        st.tuples(
            st.lists(st.sampled_from([0.0, -0.0, 1.5, math.nan, math.inf, -math.inf]) | st.floats(),
                     min_size=2, max_size=2),
            st.integers(1, 4),
        ),
        max_size=8,
    ))
    def test_draws_reuse_repeated_rows_bytes_unchanged(self, tmp_path_factory, rows):
        # runs of repeated rows, as rejected proposals leave them, beside
        # rows that differ only in the sign of a zero or a NaN's payload
        folder = tmp_path_factory.mktemp("draws")
        draws = np.array([row for row, times in rows for _ in range(times)], dtype=float).reshape(-1, 2)
        io.write_draws(folder / "draws.csv", ["a", "b"], draws)
        io.write_rows(folder / "want.csv", ["a", "b"], draws.tolist())
        assert (folder / "draws.csv").read_bytes() == (folder / "want.csv").read_bytes()

    def test_draws_and_tables_match_csv_writer(self, tmp_path):
        draws = np.array([[0.1 + 0.2, -0.0, 5e-324], [1e16, np.inf, -np.inf], [np.nan, 3.0, -1.5e-300]])
        io.write_draws(tmp_path / "draws.csv", ["a", "b,c", 'd"'], draws)
        io.write_rows(tmp_path / "want.csv", ["a", "b,c", 'd"'], draws.tolist())
        assert (tmp_path / "draws.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        table = [{"t": t, "a": -0.0, "or": 1.0, "lo95": 5e-324, "hi95": np.inf} for t in (0.1, 1e16)]
        io.write_effect_table(tmp_path / "table.csv", table)
        io.write_rows(tmp_path / "want.csv", ["t", "a", "or", "lo95", "hi95"], [list(r.values()) for r in table])
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# IDs that csv.writer quotes, or leaves as they are; floats whose text a
# writer that formats each distinct value once could confuse
_IDS = st.text(alphabet=st.sampled_from('ab1,"\r\n \x00é'), max_size=5)
_FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e22, 0.1]
)


def _csv_bytes(path, header, rows) -> bytes:
    """The bytes ``csv.writer`` writes for ``header`` and ``rows``."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


def _matched_rows(ids, sizes, days, temperature, pm25) -> MatchedRows:
    n = sum(sizes)
    return MatchedRows(
        subject_id=np.array(ids, dtype=object),
        set_index=np.repeat(np.arange(len(sizes)), sizes),
        day=np.array(days[:n], dtype="datetime64[D]"),
        is_case=np.arange(n) % 3 == 0,
        temperature=np.array(temperature[:n], dtype=float),
        pm25_window=np.array(pm25[:n], dtype=float),
    )


def _matched_reference(m: MatchedRows):
    """Rows of ``matched_sets.csv`` as ``csv.writer`` wrote them, field by field."""
    return zip(m.subject_id[m.set_index].tolist(), np.datetime_as_string(m.day).tolist(),
               m.is_case.astype(int).tolist(), m.temperature.tolist(), m.pm25_window.tolist())


def _table_reference(table: DailyTable, *kind):
    """Rows ``id, date[, kind], value`` of the present values, cell by cell."""
    days = np.datetime_as_string(table.origin + np.arange(table.values.shape[1])).tolist()
    for name, row in zip(table.ids.tolist(), table.values.tolist()):
        for day, value in zip(days, row):
            if not math.isnan(value):
                yield (name, day, *kind, value)


@st.composite
def _tables(draw):
    """A table of distinct IDs over 0-6 days, with NaN gaps."""
    ids = draw(st.lists(_IDS, max_size=5, unique=True))
    width = draw(st.integers(0, 6))
    cells = st.one_of(_FLOATS.filter(lambda v: not math.isnan(v)), st.just(math.nan))
    values = draw(st.lists(st.lists(cells, min_size=width, max_size=width), min_size=len(ids), max_size=len(ids)))
    origin = np.datetime64(draw(st.dates()), "D")
    return DailyTable(np.array(ids, dtype=object), origin, np.array(values, dtype=float).reshape(len(ids), width))


class TestTextWriters:
    """Matched sets, series and fields are formatted without ``csv.writer``
    (each distinct value once, each ID once); the files must hold the bytes
    ``csv.writer`` writes for their rows."""

    @settings(max_examples=150, deadline=None)
    @given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6), data=st.data())
    def test_matched_sets_bytes(self, tmp_path_factory, sizes, data):
        n = sum(sizes)
        ids = data.draw(st.lists(_IDS, min_size=len(sizes), max_size=len(sizes)))
        days = data.draw(st.lists(st.dates(), min_size=n, max_size=n))
        floats = st.lists(_FLOATS, min_size=n, max_size=n)
        m = _matched_rows(ids, sizes, days, data.draw(floats), data.draw(floats))
        folder = tmp_path_factory.mktemp("matched")
        io.write_matched_sets(folder / "m.csv", m)
        header = ["subject_id", "date", "is_case", "temperature", "pm25_window"]
        assert (folder / "m.csv").read_bytes() == _csv_bytes(folder / "want.csv", header, _matched_reference(m))

    def test_matched_sets_bytes_across_chunks(self, tmp_path):
        """More than two chunks of 8,192 rows, values and IDs repeating
        across each chunk edge."""
        rng = np.random.default_rng(5)
        sizes = [4] * 4100
        n = sum(sizes)
        pool = np.array([-0.0, 0.0, 5e-324, 1e16, 0.1 + 0.2, -2.5, 31.75])
        ids = [("a,b" if k % 3 == 0 else f"s{k % 7}") for k in range(len(sizes))]
        days = (np.datetime64("2012-06-01") + rng.integers(0, 5, n)).tolist()
        temperature = pool[rng.integers(0, pool.size, n)]
        temperature[[8192, 16384]] = temperature[[8191, 16383]]
        m = _matched_rows(ids, sizes, days, temperature, pool[np.arange(n) % pool.size])
        io.write_matched_sets(tmp_path / "m.csv", m)
        header = ["subject_id", "date", "is_case", "temperature", "pm25_window"]
        assert (tmp_path / "m.csv").read_bytes() == _csv_bytes(tmp_path / "want.csv", header, _matched_reference(m))

    @settings(max_examples=150, deadline=None)
    @given(table=_tables())
    def test_field_bytes(self, tmp_path_factory, table):
        folder = tmp_path_factory.mktemp("field")
        io.write_field(folder / "f.csv", table)
        want = _csv_bytes(folder / "want.csv", ["cell_id", "date", "value"], _table_reference(table))
        assert (folder / "f.csv").read_bytes() == want

    @settings(max_examples=100, deadline=None)
    @given(temp=_tables(), pm=_tables())
    def test_series_bytes(self, tmp_path_factory, temp, pm):
        folder = tmp_path_factory.mktemp("series")
        io.write_series(folder / "s.csv", {TEMPERATURE: temp, PM25: pm})
        rows = [*_table_reference(temp, TEMPERATURE), *_table_reference(pm, PM25)]
        want = _csv_bytes(folder / "want.csv", ["zone_id", "date", "exposure_kind", "value"], rows)
        assert (folder / "s.csv").read_bytes() == want

    def test_series_bytes_across_chunks(self, tmp_path):
        """A table of more than 8,192 present values, so that its rows are
        written in several pieces, with gaps and repeated values."""
        rng = np.random.default_rng(6)
        values = np.array([-0.0, 0.0, 1e16, np.nan, 0.1])[rng.integers(0, 5, (90, 200))]
        table = DailyTable(np.array([f'z"{k}' if k % 4 else f"z{k}" for k in range(90)], dtype=object),
                           np.datetime64("2011-12-30"), values)
        io.write_series(tmp_path / "s.csv", {TEMPERATURE: table})
        want = _csv_bytes(tmp_path / "want.csv", ["zone_id", "date", "exposure_kind", "value"],
                          _table_reference(table, TEMPERATURE))
        assert (tmp_path / "s.csv").read_bytes() == want


def _dataset(tmp_path):
    """A small synthetic dataset and a config over it."""
    data = tmp_path / "data"
    assert main(["-q", "synth", "--out", str(data), "--seed", "3", "--events", "40", "--zones", "3"]) == EXIT_OK
    payload = {k: str(data / f"{k}.csv") for k in (
        "events", "grid", "zones", "membership", "temperature_field", "pm25_field")}
    payload.update(seed=1, output_dir=str(tmp_path / "out"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    return data, cfg


def _edit(path, edit):
    """Rewrite the csv file at ``path`` with its rows passed through ``edit``."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(edit(rows))


class TestReaderChecks:
    """Input files the table form cannot hold exit 2, naming ``path:line``,
    from ``link`` and from ``validate`` alike."""

    def _exits_2_naming(self, capsys, cfg, command, where, what):
        assert main(["-q", command, "--config", str(cfg)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        message = captured.err if command == "link" else captured.out
        assert f"{where}:" in message and what in message, message

    @pytest.mark.parametrize("command", ["link", "validate"])
    @pytest.mark.parametrize("file, line, bad", [
        ("temperature_field.csv", 3, "nan"),
        ("pm25_field.csv", 5, "inf"),
        ("temperature_field.csv", 7, "-Infinity"),
    ])
    def test_non_finite_field_value(self, tmp_path, capsys, command, file, line, bad):
        # a NaN in the file would otherwise read as a missing value
        data, cfg = _dataset(tmp_path)

        def edit(rows):
            rows[line - 1][2] = bad
            return rows

        _edit(data / file, edit)
        self._exits_2_naming(capsys, cfg, command, f"{data / file}:{line}", "non-finite")

    @pytest.mark.parametrize("command", ["link", "validate"])
    def test_duplicate_cell_and_date(self, tmp_path, capsys, command):
        # the same day spelled another way is the same key
        data, cfg = _dataset(tmp_path)
        _edit(data / "pm25_field.csv", lambda rows: rows + [[rows[4][0], rows[4][1].replace("-", ""), "1.0"]])
        n = len((data / "pm25_field.csv").read_text().splitlines())
        self._exits_2_naming(capsys, cfg, command, f"{data / 'pm25_field.csv'}:{n}", "duplicate")

    @pytest.mark.parametrize("command", ["link", "validate"])
    @pytest.mark.parametrize("file, key", [("zones.csv", "zone_id"), ("grid.csv", "cell_id")])
    def test_duplicate_id(self, tmp_path, capsys, command, file, key):
        data, cfg = _dataset(tmp_path)
        _edit(data / file, lambda rows: rows[:3] + [rows[1]] + rows[3:])
        self._exits_2_naming(capsys, cfg, command, f"{data / file}:4", f"duplicate {key}")

    @pytest.mark.parametrize("command", ["link", "validate"])
    @pytest.mark.parametrize("file", ["grid.csv", "zones.csv"])
    @pytest.mark.parametrize("column, value", [(1, "95.0"), (2, "-181.0")])
    def test_coordinate_out_of_range(self, tmp_path, capsys, command, file, column, value):
        data, cfg = _dataset(tmp_path)

        def edit(rows):
            rows[2][column] = value
            return rows

        _edit(data / file, edit)
        what = ("latitude", "longitude")[column - 1]
        self._exits_2_naming(capsys, cfg, command, f"{data / file}:3", f"{what} {value} out of range")

    def test_validate_parses_every_value(self, tmp_path, capsys):
        data, cfg = _dataset(tmp_path)

        def edit(rows):
            rows[2][2] = "abc"
            return rows

        _edit(data / "temperature_field.csv", edit)
        self._exits_2_naming(capsys, cfg, "validate", f"{data / 'temperature_field.csv'}:3", "abc")

    def test_negative_pm25_named_on_the_zone_mean(self, tmp_path, capsys):
        data, cfg = _dataset(tmp_path)

        def edit(rows):
            rows[1][2] = "-1.5"
            return rows

        _edit(data / "pm25_field.csv", edit)
        assert main(["-q", "link", "--config", str(cfg)]) == EXIT_INPUT_ERROR
        assert "negative pm25 value -1.5" in capsys.readouterr().err


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestFieldExactness:
    @settings(max_examples=60, deadline=None)
    @given(series=st.dictionaries(
        st.text(alphabet="abc1, \"'", min_size=1, max_size=4),
        st.dictionaries(
            st.integers(0, 40).map(lambda k: date.fromordinal(date(2012, 6, 1).toordinal() + k)),
            st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0),
            max_size=8,
        ),
        max_size=5,
    ))
    def test_written_field_reads_back_bit_for_bit(self, tmp_path_factory, series):
        path = tmp_path_factory.mktemp("field") / "f.csv"
        io.write_field(path, table_of(series))
        got = by_day(io.read_daily_field(path))
        want = {c: v for c, v in sorted(series.items()) if v}
        assert list(got) == list(want)
        for cell, values in want.items():
            assert {d: _bits(v) for d, v in got[cell].items()} == {d: _bits(v) for d, v in values.items()}

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.tuples(
        st.sampled_from(["2012-06-01", "20120601", "2012-W23-5", "2012-06", "2012-13-01", "2012-6-1",
                         "2012-06-01T00", " 2012-06-01", "+2012-06-01", "0001-01-01", "9999-12-31"])
        | st.text(alphabet="0123456789-W", max_size=10),
        st.sampled_from(["1.5", "-0.0", "1e5", " 2 ", "1_0", "1.0.0", "abc", "", "0x10", "nan", "inf",
                         "-Infinity", "1e400"])
        | st.floats(allow_nan=False).map(repr) | st.text(alphabet="0123456789.e-_ ", max_size=6),
    ), min_size=1, max_size=4))
    def test_reader_accepts_exactly_what_the_row_parsers_accept(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("field") / "f.csv"
        io.write_rows(path, ["cell_id", "date", "value"], [(f"c{k}", d, v) for k, (d, v) in enumerate(rows)])
        parsed, failed = [], None
        for k, (d, v) in enumerate(rows):
            try:
                parsed.append((date.fromisoformat(d), float(v)))
            except ValueError:
                failed = k + 2
                break
        if failed is None:
            bad = [k + 2 for k, (_, v) in enumerate(parsed) if not math.isfinite(v)]
            failed = bad[0] if bad else None
        if failed is not None:
            with pytest.raises(ConfigurationError, match=f":{failed}: "):
                io.read_daily_field(path)
            return
        table = io.read_daily_field(path)
        assert table.origin == np.datetime64(min(d for d, _ in parsed), "D")
        got = by_day(table)
        assert {c: {d: _bits(v) for d, v in per.items()} for c, per in got.items()} == {
            f"c{k}": {d: _bits(v)} for k, (d, v) in enumerate(parsed)
        }


class TestConfig:
    def _write(self, tmp_path, payload, name="cfg.json"):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return p

    def test_defaults_and_types(self, tmp_path):
        p = self._write(tmp_path, {"seed": 3})
        cfg, verbatim = load_config(p)
        assert cfg.trim_quantile == 0.95
        assert cfg.model_kind == "spline_linear"
        assert cfg.season_months == (6, 9)
        assert verbatim == {"seed": 3}

    def test_unknown_keys_rejected(self, tmp_path):
        p = self._write(tmp_path, {"sede": 3})
        with pytest.raises(ConfigurationError):
            load_config(p)

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        (tmp_path / "events.csv").write_text("subject_id,zone_id,case_date\n")
        p = self._write(tmp_path, {"events": "events.csv"})
        cfg, _ = load_config(p)
        assert cfg.events == str((tmp_path / "events.csv").resolve())

    def test_trim_quantile_zero_fails_validation(self):
        cfg = AnalysisConfig(trim_quantile=0.0)
        problems = validate_config(cfg, check_files=False)
        assert any("trim_quantile" in p for p in problems)

    def test_window_and_model_validation(self):
        cfg = AnalysisConfig(temperature_window_days=0, model_kind="nope")
        problems = validate_config(cfg, check_files=False)
        assert any("windows" in p for p in problems)
        assert any("model_kind" in p for p in problems)

    def test_seed_required_when_requested(self):
        cfg = AnalysisConfig()
        assert any("seed" in p for p in validate_config(cfg, need_seed=True, check_files=False))
        cfg = AnalysisConfig(seed=1)
        assert not any("seed" in p for p in validate_config(cfg, need_seed=True, check_files=False))

    def test_missing_files_reported(self, tmp_path):
        cfg = AnalysisConfig(
            events=str(tmp_path / "nope.csv"), grid=str(tmp_path / "nope.csv"),
            zones=str(tmp_path / "nope.csv"), membership=str(tmp_path / "nope.csv"),
            temperature_field=str(tmp_path / "nope.csv"), pm25_field=str(tmp_path / "nope.csv"),
            seed=1,
        )
        problems = validate_config(cfg)
        assert len([p for p in problems if "not found" in p]) == 6

    def test_manifest_reload(self, tmp_path):
        cfg = AnalysisConfig(seed=11, trim_quantile=0.99)
        manifest = {"config": {"seed": 11}, "resolved_config": cfg.to_dict()}
        p = self._write(tmp_path, manifest, "manifest.json")
        loaded, verbatim = load_config(p)
        assert loaded.trim_quantile == 0.99
        assert loaded.seed == 11
        assert verbatim == {"seed": 11}

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_config(p)
