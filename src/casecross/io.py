"""CSV and JSON readers/writers for every file format the pipeline touches.

Floats are written as their ``repr`` (shortest round-trip form), booleans
are passed as 0/1 and lines end in ``\\n``, so identical analyses produce
byte-identical artifacts. Every file holds the bytes ``csv.writer`` writes
for its rows. The drop log, coefficients and contrasts go through it; the
large files (matched sets, zone series, fields, draws and effect tables)
are written by ``_write_lines`` from columns, each the text of each of its
distinct values, formatted once, and each row's index into that text. The
values of a field, zone table or draws file are formatted about 8,192 at a
time, since their text, mostly distinct, would outgrow the table. Floats
and dates are told apart by bit pattern, so 0.0 and -0.0 keep their own
text; a float's text is the one ``csv.writer`` writes for it, and holds no
delimiter, quote or line break. An ID that holds one is formatted by
``csv.writer`` itself, so its quoting stays the writer's own.

Every reader parses its file with ``_columns``, 8,192 rows at a time: each
column's texts go to that column's parser, each distinct date string
through ``date.fromisoformat`` once and each value through ``float()``, so
a file is accepted exactly when a per-row parse accepts it. Readers decode
every file as UTF-8 and name the file and line of a byte that is not UTF-8,
of a row csv cannot parse (the line it starts on), of a row whose field
count is not the header's, of a value they cannot parse, of a coordinate
out of range or NaN, of a repeated id, key or membership pair, and of a
non-finite field value. Events, grid cells, zones and membership are read
into columns, as ``exposure`` takes them, and a daily field into a
``DailyTable``: its table, cells by days from its first date to its last,
must fit in ``FIELD_SLOTS``, and a field that would not is rejected, naming
the line of its outlying first or last date.
"""

from __future__ import annotations

import csv
import json
import re
from contextlib import contextmanager
from datetime import date as Date
from io import StringIO
from itertools import count, islice
from pathlib import Path

import numpy as np

from .design import MatchedRows
from .errors import ConfigurationError
from .exposure import DailyTable

__all__ = [
    "open_input",
    "read_grid_cells",
    "read_zones",
    "read_membership",
    "read_daily_field",
    "read_events",
    "write_series",
    "write_field",
    "write_matched_sets",
    "write_drop_log",
    "write_coefficients",
    "write_draws",
    "write_contrasts",
    "write_effect_table",
    "write_rows",
    "write_json",
]

_EPOCH = Date(1970, 1, 1).toordinal()
# most (cell, day) slots of a field's table, 128 MiB of float64: nine seasons
# over 800 cells take 2.6 million, and one mistyped year at 800 cells
# hundreds of millions. A module constant, not a setting.
FIELD_SLOTS = 1 << 24
_NEEDS_WRITER = re.compile('[,"\r\n]').search    # text csv.writer may quote


@contextmanager
def open_input(path):
    """``path`` open for reading as UTF-8 text. A path that cannot be opened,
    such as a directory, raises ``ConfigurationError`` naming it, and a byte
    that is not UTF-8 one naming its line: the ``\\n`` bytes before it in the
    raw file, plus one."""
    path = Path(path)
    try:
        handle = path.open(newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"{path}: cannot open: {exc.strerror}") from None
    try:
        with handle:
            yield handle
    except UnicodeDecodeError:
        raw = path.read_bytes()    # the decoder's own offset counts from its last block
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = raw.count(b"\n", 0, exc.start) + 1
            raise ConfigurationError(f"{path}:{line}: byte {raw[exc.start]:#04x} is not UTF-8 text") from None
        raise


def _chunks(path, expected: list[str]):
    """The rows after the header, checked against ``expected``, 8,192 at a time."""
    with open_input(path) as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header != expected:
                raise ConfigurationError(f"{path}: expected header {expected}, got {header}")
            while chunk := list(islice(reader, 8192)):
                yield chunk
        except csv.Error as exc:    # such as a quoted field past csv's size limit
            raise ConfigurationError(f"{path}:{_line(path)}: {exc}") from None


def _line(path, index: int | None = None) -> int:
    """The file line on which data row ``index`` ends or, with no ``index``,
    the line on which the first row csv cannot parse starts: the one after
    the last row it parsed."""
    with open_input(path) as handle:
        reader = csv.reader(handle)
        end = 0
        try:
            for _ in islice(reader, None if index is None else index + 2):    # the header, then rows 0 to index
                end = reader.line_num
        except csv.Error:
            return end + 1
        return end


def _ids(texts) -> np.ndarray:
    return np.array(texts, dtype=object)


def _floats(texts) -> np.ndarray:
    return np.fromiter(map(float, texts), float, len(texts))


def _lookup(table: dict, add):
    """A parser of texts into int32s through ``table``. The texts of a chunk
    not in it yet go to ``add``, with ``len(table)``, which returns their
    ``(text, number)`` pairs: each distinct text is parsed once."""

    def parse(texts) -> np.ndarray:
        table.update(add(set(texts).difference(table), len(table)))
        return np.fromiter(map(table.__getitem__, texts), np.int32, len(texts))

    return parse


def _days(texts, _):
    """Each ISO date and its number of days since 1970-01-01."""
    return ((d, Date.fromisoformat(d).toordinal() - _EPOCH) for d in texts)


def _columns(path, header: list[str], parsers) -> list[np.ndarray]:
    """The columns of the rows after ``header``: each the arrays its parser
    makes of the texts of one chunk, joined. The first row whose field count
    is not the header's, or that holds a value its parser rejects (fields
    checked in order), raises naming its line."""
    parts = [[parse(())] for parse in parsers]     # an empty column of each parser's type
    done = 0
    for chunk in _chunks(path, header):
        try:    # strict: a row of another field count raises
            for part, parse, texts in zip(parts, parsers, zip(*chunk, strict=True), strict=True):
                part.append(parse(texts))
        except ValueError:
            for k, row in enumerate(chunk):     # name the first bad row, as a per-row parse would
                try:
                    if len(row) != len(header):
                        raise ValueError(f"{len(row)} fields, expected {len(header)}")
                    for parse, text in zip(parsers, row):
                        parse((text,))
                except ValueError as exc:
                    raise ConfigurationError(f"{path}:{_line(path, done + k)}: {exc}") from None
            raise
        done += len(chunk)
    return [np.concatenate(part) for part in parts]


def _unique(path, keys, what: str) -> None:
    """Raise naming the line of the first of ``keys`` (one per data row) seen before."""
    seen = set()
    for index, key in enumerate(keys):
        if key in seen:
            raise ConfigurationError(f"{path}:{_line(path, index)}: duplicate {what} {key}")
        seen.add(key)


@contextmanager
def _csv_file(path, header: list[str]):
    """``path`` open for writing as UTF-8, as the readers decode it, with
    ``header`` written, and its ``csv.writer``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        yield handle, writer


def write_rows(path, header: list[str], rows) -> None:
    """The header and ``rows`` through ``csv.writer``."""
    with _csv_file(path, header) as (_, writer):
        writer.writerows(rows)


def _quoted(names) -> np.ndarray:
    """Each name as ``csv.writer`` writes it as a field of a row, as an
    object array: as is, unless it holds a delimiter, quote or line break,
    when the writer itself formats it."""
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    out = []
    for name in map(str, names):
        if _NEEDS_WRITER(name):
            buffer.seek(0)
            buffer.truncate()
            writer.writerow([name])
            name = buffer.getvalue()[:-1]
        out.append(name)
    return np.array(out, dtype=object)


def _text(values: np.ndarray, fmt) -> tuple[np.ndarray, np.ndarray]:
    """``fmt`` of each distinct value of a float64 or datetime64 array,
    formatted once, as an object array of text, and each value's index into
    it. Values are told apart by their bit patterns, so 0.0 and -0.0 keep
    their own text."""
    distinct, index = np.unique(np.ascontiguousarray(values).view(np.int64), return_inverse=True)
    return np.array(fmt(distinct.view(values.dtype)), dtype=object), index


def _reprs(values: np.ndarray) -> list[str]:
    return list(map(repr, values.tolist()))


def _write_lines(handle, blocks) -> None:
    """A line per row of each block of ``(texts, index)`` columns: the texts
    its indices pick, joined by commas, gathered 8,192 rows at a time."""
    for columns in blocks:
        for lo in range(0, len(columns[0][1]), 8192):
            fields = [texts[index[lo : lo + 8192]].tolist() for texts, index in columns]
            handle.write("\n".join(map(",".join, zip(*fields))) + "\n")


def _places(path, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(ids, lat, lon)`` columns of ``{kind}_id,lat,lon`` rows, in file
    order, naming the line of the first coordinate out of range."""
    ids, lat, lon = _columns(path, [f"{kind}_id", "lat", "lon"], (_ids, _floats, _floats))
    bad_lat = ~((lat >= -90.0) & (lat <= 90.0))     # not (lat < -90) | (lat > 90): NaN is out of range
    bad = bad_lat | ~((lon >= -180.0) & (lon <= 180.0))
    if bad.any():
        row = int(bad.argmax())
        what, value = ("latitude", lat[row]) if bad_lat[row] else ("longitude", lon[row])
        raise ConfigurationError(f"{path}:{_line(path, row)}: {kind} {ids[row]}: {what} {float(value)} out of range")
    _unique(path, ids.tolist(), f"{kind}_id")
    return ids, lat, lon


def read_grid_cells(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _places(path, "cell")


def read_zones(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _places(path, "zone")


def read_membership(path) -> tuple[np.ndarray, np.ndarray]:
    """The ``(zone_id, cell_id)`` columns, naming the line of a repeated pair."""
    zone, cell = _columns(path, ["zone_id", "cell_id"], (_ids, _ids))
    _unique(path, zip(zone.tolist(), cell.tolist()), "(zone_id, cell_id)")
    return zone, cell


def read_daily_field(path) -> DailyTable:
    """The field as a table of its cells, NaN where a (cell, date) has no row."""
    index = {}      # a number for each cell_id, as first seen
    numbered = _lookup(index, lambda new, start: zip(new, count(start)))
    cell, day, value = _columns(path, ["cell_id", "date", "value"], (numbered, _lookup({}, _days), _floats))
    if not np.isfinite(value).all():
        row = int(np.argmin(np.isfinite(value)))
        raise ConfigurationError(f"{path}:{_line(path, row)}: non-finite value {float(value[row])}")
    named = np.array(list(index), dtype=object)
    ids, cell = named[np.argsort(named)], np.argsort(np.argsort(named))[cell]
    first = int(day.min()) if day.size else 0
    span = int(day.max()) - first + 1 if day.size else 0
    if ids.size * span > FIELD_SLOTS:
        # name the end of the span farther from the median day
        mid = np.median(day)
        row = int(np.argmax(day) if day.max() - mid > mid - day.min() else np.argmin(day))
        raise ConfigurationError(
            f"{path}:{_line(path, row)}: date {np.datetime64(int(day[row]), 'D')} "
            f"stretches the field to {ids.size} cells x {span} days, over {FIELD_SLOTS} values"
        )
    values = np.full((ids.size, span), np.nan)
    values[cell, day - first] = value
    if np.count_nonzero(~np.isnan(values)) < value.size:   # a (cell, day) given twice
        dates = np.datetime_as_string(day.astype("datetime64[D]")).tolist()
        _unique(path, zip(ids[cell].tolist(), dates), "(cell_id, date)")
    return DailyTable(ids, np.datetime64(first, "D"), values)


def read_events(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The events as columns ``(subject_id, zone_id, case_day)``: object,
    object and ``datetime64[D]`` arrays, in file order."""
    subject, zone, day = _columns(path, ["subject_id", "zone_id", "case_date"], (_ids, _ids, _lookup({}, _days)))
    return subject, zone, day.astype("datetime64[D]")


def _present(table: DailyTable, *kind: str):
    """``(texts, index)`` columns of rows ``id,date[,kind],value`` of the
    present values of ``table``, row by row with days ascending, for about
    8,192 rows at a time."""
    ids = _quoted(table.ids.tolist())
    days = np.datetime_as_string(table.origin + np.arange(table.values.shape[1])).tolist()
    dates = np.array([",".join((d, *kind)) for d in days], dtype=object)
    step = max(1, 8192 // max(1, dates.size))
    for lo in range(0, ids.size, step):
        block = table.values[lo : lo + step]
        row, col = np.nonzero(~np.isnan(block))
        yield (ids[lo : lo + step], row), (dates, col), _text(block[row, col], _reprs)


def write_series(path, series: dict[str, DailyTable]) -> None:
    """The present values of each exposure kind's zone table, kinds in order."""
    with _csv_file(path, ["zone_id", "date", "exposure_kind", "value"]) as (handle, _):
        for kind, table in series.items():
            _write_lines(handle, _present(table, kind))


def write_field(path, table: DailyTable) -> None:
    """A cell table in the layout ``read_daily_field`` reads."""
    with _csv_file(path, ["cell_id", "date", "value"]) as (handle, _):
        _write_lines(handle, _present(table))


def write_matched_sets(path, m: MatchedRows) -> None:
    with _csv_file(path, ["subject_id", "date", "is_case", "temperature", "pm25_window"]) as (handle, _):
        _write_lines(handle, [(
            (_quoted(m.subject_id.tolist()), m.set_index),
            _text(m.day, np.datetime_as_string),
            (np.array(["0", "1"], dtype=object), m.is_case.view(np.uint8)),
            _text(m.temperature, _reprs),
            _text(m.pm25_window, _reprs),
        )])


def write_drop_log(path, drops: np.ndarray) -> None:
    write_rows(path, ["subject_id", "reason"], drops.tolist())


def write_coefficients(path, labels, estimates, sds) -> None:
    rows = [(lab, float(est), float(sd)) for lab, est, sd in zip(labels, estimates, sds)]
    write_rows(path, ["label", "estimate", "sd"], rows)


def write_draws(path, labels, draws) -> None:
    """Rows of floats, one draw each, as ``csv.writer`` writes them,
    formatted about 8,192 values at a time."""
    draws = np.asarray(draws, dtype=float)
    step = max(1, 8192 // max(1, draws.shape[1]))
    with _csv_file(path, list(labels)) as (handle, _):
        blocks = (draws[lo : lo + step].T for lo in range(0, len(draws), step))
        _write_lines(handle, ([_text(column, _reprs) for column in block] for block in blocks))


def write_contrasts(path, estimates) -> None:
    rows = [
        (e.name, e.point, e.interval[0], e.interval[1], int(e.extrapolated))
        for e in estimates
    ]
    write_rows(path, ["name", "point", "lo95", "hi95", "extrapolated"], rows)


def write_effect_table(path, table: np.ndarray) -> None:
    """An OR table: a record array of float fields ``t, a, or, lo95, hi95``."""
    header = ["t", "a", "or", "lo95", "hi95"]
    write_draws(path, header, np.column_stack([table[k] for k in header]))


def write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
