"""The artifact checker accepts a real run and rejects tampered copies of it.

    PYTHONPATH=src python3 -m pytest bench/test_check.py
"""

import csv
import json
import shutil
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
from casecross.cli import main as cli_main  # noqa: E402

CONFIG = {
    "chains": 2, "warmup": 300, "draws": 300, "seed": 11,
    "curve_points": 10, "surface_points": 10,
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    data = root / "data"
    assert cli_main(["-q", "synth", "--out", str(data), "--seed", "5", "--events", "600", "--zones", "12"]) == 0
    cfg = dict(CONFIG, **{k: str(data / f"{k}.csv") for k in (
        "events", "grid", "zones", "membership", "temperature_field", "pm25_field")})
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli_main(["-q", "run-all", "--config", str(cfg_path), "--out", str(root / "out")]) in (0, 4)
    return root


@pytest.fixture
def copy(run_dir, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(run_dir / "out", out)
    return out, run_dir / "data" / "events.csv"


def _rewrite(path: Path, edit) -> None:
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    rows = edit(rows)
    with path.open("w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def test_untouched_run_passes(copy):
    out, events = copy
    assert check.check_run(out, events, check.SYNTH_SLOPES) == []


def test_shifted_coefficient_is_rejected(copy):
    out, events = copy

    def shift(rows):
        rows[1][1] = repr(float(rows[1][1]) + 0.5 * float(rows[1][2]))
        return rows

    _rewrite(out / "coefficients_mle.csv", shift)
    problems = check.check_run(out, events)
    assert any("score does not vanish" in p for p in problems), problems


def test_referent_on_another_weekday_is_rejected(copy):
    out, events = copy

    def move(rows):
        for row in rows[1:]:
            day = date.fromisoformat(row[1])
            if row[2] == "0" and (day + timedelta(days=1)).month == day.month:
                row[1] = (day + timedelta(days=1)).isoformat()
                return rows
        raise AssertionError("no referent to move")

    _rewrite(out / "matched_sets.csv", move)
    problems = check.check_run(out, events)
    assert any("not in month and weekday" in p for p in problems), problems


def test_missing_drop_log_row_is_rejected(copy):
    out, events = copy
    _rewrite(out / "drop_log.csv", lambda rows: rows[:-1])
    problems = check.check_run(out, events)
    assert any("not accounted for" in p for p in problems), problems
