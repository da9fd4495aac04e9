"""CSV and JSON readers/writers for every file format the pipeline touches.

``csv.writer`` writes floats with ``repr`` (shortest round-trip form),
booleans are passed as 0/1 and lines end in ``\\n``, so identical analyses
produce byte-identical artifacts. Readers name the file and line of a value
they cannot parse.
"""

from __future__ import annotations

import csv
import json
from datetime import date as Date
from pathlib import Path

import numpy as np

from .design import DroppedEvent, Event, MatchedRows
from .errors import ConfigurationError
from .exposure import ExposureSeries, GridCell, Zone

__all__ = [
    "read_grid_cells",
    "read_zones",
    "read_membership",
    "read_daily_field",
    "read_events",
    "write_series",
    "write_matched_sets",
    "write_drop_log",
    "write_coefficients",
    "write_draws",
    "write_contrasts",
    "write_effect_table",
    "write_rows",
    "write_json",
]


def _read(path, expected: list[str], parse) -> list:
    """``parse`` of each row after the header, naming the line of a bad value."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"input file not found: {path}")
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != expected:
            raise ConfigurationError(f"{path}: expected header {expected}, got {header}")
        try:
            return [parse(r) for r in reader]
        except (ValueError, IndexError) as exc:
            raise ConfigurationError(f"{path}:{reader.line_num}: {exc}") from None


def write_rows(path, header: list[str], rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_grid_cells(path) -> list[GridCell]:
    return _read(path, ["cell_id", "lat", "lon"], lambda r: GridCell(r[0], float(r[1]), float(r[2])))


def read_zones(path, membership: dict[str, set[str]] | None = None) -> list[Zone]:
    membership = membership or {}
    return _read(
        path, ["zone_id", "lat", "lon"],
        lambda r: Zone(r[0], float(r[1]), float(r[2]), frozenset(membership.get(r[0], set()))),
    )


def read_membership(path) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for zone_id, cell_id in _read(path, ["zone_id", "cell_id"], lambda r: (r[0], r[1])):
        out.setdefault(zone_id, set()).add(cell_id)
    return out


def read_daily_field(path) -> dict[tuple[str, Date], float]:
    out: dict[tuple[str, Date], float] = {}
    header = ["cell_id", "date", "value"]
    for key, value in _read(path, header, lambda r: ((r[0], Date.fromisoformat(r[1])), float(r[2]))):
        if key in out:
            raise ConfigurationError(f"{path}: duplicate value for {key}")
        out[key] = value
    return out


def read_events(path) -> list[Event]:
    return _read(
        path, ["subject_id", "zone_id", "case_date"],
        lambda r: Event(r[0], r[1], Date.fromisoformat(r[2])),
    )


def write_series(path, series: list[ExposureSeries]) -> None:
    rows = []
    for s in series:
        for day in sorted(s.values):
            rows.append((s.zone_id, day.isoformat(), s.exposure_kind, s.values[day]))
    write_rows(path, ["zone_id", "date", "exposure_kind", "value"], rows)


def write_matched_sets(path, sets) -> None:
    m = MatchedRows.from_sets(sets)
    columns = (m.subject_id[m.set_index], np.datetime_as_string(m.day), m.is_case.astype(int))
    columns += (m.temperature, m.pm25_window)
    header = ["subject_id", "date", "is_case", "temperature", "pm25_window"]
    write_rows(path, header, zip(*(c.tolist() for c in columns)))


def write_drop_log(path, drops: list[DroppedEvent]) -> None:
    write_rows(path, ["subject_id", "reason"], [(d.subject_id, d.reason) for d in drops])


def write_coefficients(path, labels, estimates, sds) -> None:
    rows = [(lab, float(est), float(sd)) for lab, est, sd in zip(labels, estimates, sds)]
    write_rows(path, ["label", "estimate", "sd"], rows)


def write_draws(path, labels, draws) -> None:
    write_rows(path, list(labels), (row.tolist() for row in np.asarray(draws, dtype=float)))


def write_contrasts(path, estimates) -> None:
    rows = [
        (e.name, e.point, e.interval[0], e.interval[1], int(e.extrapolated))
        for e in estimates
    ]
    write_rows(path, ["name", "point", "lo95", "hi95", "extrapolated"], rows)


def write_effect_table(path, table: list[dict]) -> None:
    rows = [(r["t"], r["a"], r["or"], r["lo95"], r["hi95"]) for r in table]
    write_rows(path, ["t", "a", "or", "lo95", "hi95"], rows)


def write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
