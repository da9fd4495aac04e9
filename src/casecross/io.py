"""CSV and JSON readers/writers for every file format the pipeline touches.

Floats are written as their ``repr`` (shortest round-trip form), booleans
are passed as 0/1 and lines end in ``\\n``, so identical analyses produce
byte-identical artifacts. Every file holds the bytes ``csv.writer`` writes
for its rows, but the large ones are formatted without it, a line of text
per row. Files of numbers only (``write_draws``, ``write_effect_table``)
join each row's fields' ``str``: that is the text ``csv.writer`` writes for
an int or a float (``repr`` for a Python float), and no such text holds a
delimiter, quote or line break; ``write_draws`` formats a run of repeated
rows once. Matched sets, zone series and fields format each ID once, each
date once and, for matched sets, each distinct float once (told apart by bit
pattern, so 0.0 and -0.0 keep their own text); an ID that holds a delimiter,
quote or line break is formatted by ``csv.writer`` itself, so its quoting
stays the writer's own. The drop log, coefficients and contrasts go through
``csv.writer``. Readers decode every file as UTF-8 and name the file and line
of a byte that is not UTF-8, of a row csv cannot parse, of a value they cannot
parse, of a coordinate out of range or NaN, of a repeated id, key or
membership pair, and of a non-finite field value.

A daily field is read, chunk by chunk, into a ``DailyTable``; events, grid
cells, zones and membership into columns, as ``exposure`` takes them. Each
distinct date string goes through ``date.fromisoformat`` once and each value
through ``float()``, so a file is accepted exactly when a per-row parse
accepts it, and its table, cells by days from its first date to its last,
fits in ``FIELD_SLOTS``; a field that would not is rejected, naming the line
of its outlying first or last date.
"""

from __future__ import annotations

import csv
import json
import re
from contextlib import contextmanager
from datetime import date as Date
from io import StringIO
from itertools import islice
from pathlib import Path

import numpy as np

from .design import DroppedEvent, MatchedRows
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
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"input file not found: {path}")
    with open_input(path) as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header != expected:
                raise ConfigurationError(f"{path}: expected header {expected}, got {header}")
            while chunk := list(islice(reader, 8192)):
                yield chunk
        except csv.Error as exc:    # such as a quoted field past csv's size limit
            raise ConfigurationError(f"{path}:{reader.line_num}: {exc}") from None


def _line(path, index: int) -> int:
    """The file line on which data row ``index`` ends."""
    with open_input(path) as handle:
        reader = csv.reader(handle)
        try:
            next(islice(reader, index + 1, None))     # the header, then rows 0 to index
        except csv.Error as exc:
            raise ConfigurationError(f"{path}:{reader.line_num}: {exc}") from None
        return reader.line_num


def _read(path, expected: list[str], parse) -> list:
    """``parse`` of each row after the header, naming the line of a bad value."""
    parsed = []
    for chunk in _chunks(path, expected):
        for row in chunk:
            try:
                parsed.append(parse(row))
            except (ValueError, IndexError) as exc:
                raise ConfigurationError(f"{path}:{_line(path, len(parsed))}: {exc}") from None
    return parsed


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


def _quoted(names) -> list[str]:
    """Each name as ``csv.writer`` writes it as a field of a row: as is,
    unless it holds a delimiter, quote or line break, when the writer itself
    formats it."""
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
    return out


def _text(values: np.ndarray, fmt) -> np.ndarray:
    """``fmt`` of the distinct values of a float64 or datetime64 array, each
    formatted once, spread back over ``values`` as an object array of text.
    Values are told apart by their bit patterns, so 0.0 and -0.0 keep their
    own text."""
    bits = np.ascontiguousarray(values).view(np.int64)
    order = np.argsort(bits)
    ranked = bits[order]
    new = np.ones(bits.size, dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    out = np.empty(bits.size, dtype=object)
    out[order] = np.array(fmt(ranked[new].view(values.dtype)), dtype=object)[np.cumsum(new) - 1]
    return out


def _reprs(values: np.ndarray) -> list[str]:
    return list(map(repr, values.tolist()))


def _places(path, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(ids, lat, lon)`` columns of ``{kind}_id,lat,lon`` rows, in file
    order, naming the line of the first coordinate out of range."""
    rows = _read(path, [f"{kind}_id", "lat", "lon"], lambda r: (r[0], float(r[1]), float(r[2])))
    ids = np.array([r[0] for r in rows], dtype=object)
    lat, lon = np.array([r[1:] for r in rows], dtype=float).reshape(-1, 2).T
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
    pairs = _read(path, ["zone_id", "cell_id"], lambda r: (r[0], r[1]))
    _unique(path, pairs, "(zone_id, cell_id)")
    zone, cell = np.array(pairs, dtype=object).reshape(-1, 2).T
    return zone, cell


def read_daily_field(path) -> DailyTable:
    """The field as a table of its cells, NaN where a (cell, date) has no row."""
    header = ["cell_id", "date", "value"]
    index, ordinal = {}, {}     # a number for each cell_id, the day of each date
    cell, day, value = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int32)], [np.zeros(0)]
    try:
        for chunk in _chunks(path, header):
            cells, dates, values, *_ = zip(*chunk)
            index.update((c, k) for k, c in enumerate(set(cells).difference(index), start=len(index)))
            ordinal.update((d, Date.fromisoformat(d).toordinal()) for d in set(dates).difference(ordinal))
            cell.append(np.array(list(map(index.__getitem__, cells)), dtype=np.int32))
            day.append(np.array(list(map(ordinal.__getitem__, dates)), dtype=np.int32))
            value.append(np.array(list(map(float, values))))
    except ValueError:
        # name the first row that fails, as a per-row parse would
        _read(path, header, lambda r: (r[0], Date.fromisoformat(r[1]), float(r[2])))
        raise
    cell, day, value = (np.concatenate(c) for c in (cell, day, value))
    if not np.isfinite(value).all():
        row = int(np.argmin(np.isfinite(value)))
        raise ConfigurationError(f"{path}:{_line(path, row)}: non-finite value {float(value[row])}")
    named = np.array(list(index), dtype=object)
    ids, cell = named[np.argsort(named)], np.argsort(np.argsort(named))[cell]
    first = int(day.min()) if day.size else _EPOCH
    span = int(day.max()) - first + 1 if day.size else 0
    if ids.size * span > FIELD_SLOTS:
        # name the end of the span farther from the median day
        mid = np.median(day)
        row = int(np.argmax(day) if day.max() - mid > mid - day.min() else np.argmin(day))
        raise ConfigurationError(
            f"{path}:{_line(path, row)}: date {Date.fromordinal(int(day[row])).isoformat()} "
            f"stretches the field to {ids.size} cells x {span} days, over {FIELD_SLOTS} values"
        )
    values = np.full((ids.size, span), np.nan)
    values[cell, day - first] = value
    if np.count_nonzero(~np.isnan(values)) < value.size:   # a (cell, day) given twice
        dates = (Date.fromordinal(d).isoformat() for d in day.tolist())
        _unique(path, zip(ids[cell].tolist(), dates), "(cell_id, date)")
    return DailyTable(ids, np.datetime64(first - _EPOCH, "D"), values)


def read_events(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The events as columns ``(subject_id, zone_id, case_day)``: object,
    object and ``datetime64[D]`` arrays, in file order."""
    header = ["subject_id", "zone_id", "case_date"]
    ordinal = {}    # the day of each date
    subject, zone, day = [], [], []
    try:
        for chunk in _chunks(path, header):
            subjects, zones, dates, *_ = zip(*chunk)
            ordinal.update((d, Date.fromisoformat(d).toordinal()) for d in set(dates).difference(ordinal))
            subject += subjects
            zone += zones
            day += map(ordinal.__getitem__, dates)
    except ValueError:
        # name the first row that fails, as a per-row parse would
        _read(path, header, lambda r: (r[0], r[1], Date.fromisoformat(r[2])))
        raise
    days = (np.array(day, dtype=np.int64) - _EPOCH).astype("datetime64[D]")
    return np.array(subject, dtype=object), np.array(zone, dtype=object), days


def _present(table: DailyTable, *kind: str):
    """Text of rows ``id,date[,kind],value`` of the present values of
    ``table``, row by row with days ascending, about 8,192 rows at a time."""
    days = np.datetime_as_string(table.origin + np.arange(table.values.shape[1])).tolist()
    dates = np.array([",".join((d, *kind)) for d in days], dtype=object)
    ids = np.array(_quoted(table.ids.tolist()), dtype=object)
    step = max(1, 8192 // max(1, dates.size))
    for lo in range(0, ids.size, step):
        block = table.values[lo : lo + step]
        row, col = np.nonzero(~np.isnan(block))
        yield "".join([
            f"{i},{d},{v!r}\n"
            for i, d, v in zip(ids[lo + row].tolist(), dates[col].tolist(), block[row, col].tolist())
        ])


def write_series(path, series: dict[str, DailyTable]) -> None:
    """The present values of each exposure kind's zone table, kinds in order."""
    with _csv_file(path, ["zone_id", "date", "exposure_kind", "value"]) as (handle, _):
        for kind, table in series.items():
            handle.writelines(_present(table, kind))


def write_field(path, table: DailyTable) -> None:
    """A cell table in the layout ``read_daily_field`` reads."""
    with _csv_file(path, ["cell_id", "date", "value"]) as (handle, _):
        handle.writelines(_present(table))


def write_matched_sets(path, m: MatchedRows) -> None:
    columns = (
        np.array(_quoted(m.subject_id.tolist()), dtype=object)[m.set_index],
        _text(m.day, np.datetime_as_string),
        m.is_case.astype(int),
        _text(m.temperature, _reprs),
        _text(m.pm25_window, _reprs),
    )
    with _csv_file(path, ["subject_id", "date", "is_case", "temperature", "pm25_window"]) as (handle, _):
        # 8,192 rows at a time: one Python object per row and column would outgrow the arrays
        for lo in range(0, m.day.size, 8192):
            rows = zip(*(c[lo : lo + 8192].tolist() for c in columns))
            handle.write("".join([f"{i},{d},{case},{t},{a}\n" for i, d, case, t, a in rows]))


def write_drop_log(path, drops: list[DroppedEvent]) -> None:
    write_rows(path, ["subject_id", "reason"], [(d.subject_id, d.reason) for d in drops])


def write_coefficients(path, labels, estimates, sds) -> None:
    rows = [(lab, float(est), float(sd)) for lab, est, sd in zip(labels, estimates, sds)]
    write_rows(path, ["label", "estimate", "sd"], rows)


def write_draws(path, labels, draws) -> None:
    """Rows of floats, one draw each, as ``csv.writer`` writes them: each
    row joined from its fields' ``str``. A rejected proposal repeats the row
    before it, so a row whose bits repeat the row before reuses its text,
    and each run of repeats is formatted once."""
    draws = np.ascontiguousarray(draws, dtype=float)
    bits = draws.view(np.int64)
    repeat = np.zeros(len(draws), dtype=bool)
    repeat[1:] = (bits[1:] == bits[:-1]).all(axis=1)
    with _csv_file(path, list(labels)) as (handle, _):
        line = ""
        for row, same in zip(draws, repeat.tolist()):
            if not same:
                line = ",".join(map(str, row.tolist())) + "\n"
            handle.write(line)


def write_contrasts(path, estimates) -> None:
    rows = [
        (e.name, e.point, e.interval[0], e.interval[1], int(e.extrapolated))
        for e in estimates
    ]
    write_rows(path, ["name", "point", "lo95", "hi95", "extrapolated"], rows)


def write_effect_table(path, table: list[dict]) -> None:
    header = ["t", "a", "or", "lo95", "hi95"]
    write_draws(path, header, np.array([[r[k] for k in header] for r in table], dtype=float).reshape(-1, len(header)))


def write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
