#!/usr/bin/env python3
# ============================================================
# DEMO 6 - The whole pipeline from one config file
#
#   * generate a dataset in the pipeline input formats
#   * run link -> match -> trim -> basis -> fit -> effects
#   * rerun from the manifest and confirm byte-identical output
# ============================================================

import json
import tempfile
from pathlib import Path

from casecross.cli import main

workdir = Path(tempfile.mkdtemp(prefix="casecross_demo_"))
data_dir = workdir / "data"
print("=" * 60)
print(f"working directory: {workdir}")
print("=" * 60)

print("\n[1/4] synthesizing a dataset ...")
main(["-q", "synth", "--out", str(data_dir), "--seed", "314159", "--events", "800", "--zones", "20"])
for p in sorted(data_dir.iterdir()):
    print(f"  {p.name:24s} {p.stat().st_size:8d} bytes")

print("\n[2/4] writing a config ...")
config = {
    "events": "data/events.csv",
    "grid": "data/grid.csv",
    "zones": "data/zones.csv",
    "membership": "data/membership.csv",
    "temperature_field": "data/temperature_field.csv",
    "pm25_field": "data/pm25_field.csv",
    "trim_quantile": 0.95,
    "model_kind": "spline_linear",
    "chains": 4,
    "warmup": 800,
    "draws": 800,
    "seed": 60201,
    "output_dir": str(workdir / "run"),
    "curve_points": 25,
    "surface_points": 20,
}
cfg_path = workdir / "analysis.json"
cfg_path.write_text(json.dumps(config, indent=2))
print(f"  {cfg_path}")

print("\n[3/4] run-all ...")
code = main(["run-all", "--config", str(cfg_path)])
print(f"  exit code: {code}")
run_dir = workdir / "run"
for p in sorted(run_dir.iterdir()):
    # sizes of the csv artifacts only, which the rerun checks byte for byte:
    # diagnostics.txt holds wall times and manifest.json the working directory
    size = f" {p.stat().st_size:8d} bytes" if p.suffix == ".csv" else ""
    print(f"  {p.name:24s}{size}".rstrip())

print("\ncontrast table:")
print((run_dir / "contrasts.csv").read_text())

print("[4/4] rerunning from the manifest ...")
rerun_dir = workdir / "rerun"
main(["-q", "run-all", "--config", str(run_dir / "manifest.json"), "--out", str(rerun_dir)])
same = all(
    (run_dir / p.name).read_bytes() == p.read_bytes()
    for p in rerun_dir.glob("*.csv")
)
print(f"  all csv artifacts byte-identical: {same}")
