"""Command-line interface.

Subcommands: link, match, fit, effects, run-all, synth, validate. A config
file drives everything; ``--out`` and ``--seed`` override its keys. Exit
codes distinguish input errors (2), an empty analysis (3), a sampler
non-convergence warning (4), and separation (5).
"""

from __future__ import annotations

import argparse
import logging
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io
from .config import AnalysisConfig, load_config, validate_config
from .errors import (
    CaseCrossError,
    ConfigurationError,
    EmptyAnalysisError,
    SeparationError,
)
from .pipeline import run
from .simulate import generate, linear_truth

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_EMPTY_ANALYSIS = 3
EXIT_NONCONVERGENCE = 4
EXIT_SEPARATION = 5

log = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casecross",
        description="Case-crossover analysis of temperature and pm25 exposures",
    )
    parser.add_argument("-q", "--quiet", action="store_true", help="suppress progress logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_opts(p, need_seed=False):
        p.add_argument("--config", required=True, help="path to a JSON config (or run manifest)")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--seed", type=int, help="override the sampler seed" + (" (required unless in config)" if need_seed else ""))

    for name, help_text in (
        ("link", "link gridded fields to zones and write exposure series"),
        ("match", "build matched sets, apply trimming, write the audit and drop log"),
        ("fit", "run the pipeline through model fitting"),
        ("effects", "run the pipeline through contrast/curve/surface tables"),
        ("run-all", "run every stage and write the manifest"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_config_opts(p, need_seed=name in ("fit", "effects", "run-all"))

    p = sub.add_parser("validate", help="dry-run schema and file checks")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("synth", help="generate a synthetic dataset in the pipeline input formats")
    p.add_argument("--out", required=True, help="directory for the generated CSV files")
    p.add_argument("--seed", type=int, help="generator seed (required)")
    p.add_argument("--events", type=int, default=1200)
    p.add_argument("--zones", type=int, default=40)
    p.add_argument("--slope-t", type=float, default=0.06, dest="slope_t")
    p.add_argument("--slope-a", type=float, default=0.02, dest="slope_a")
    p.add_argument("--gamma", type=float, default=0.003)
    p.add_argument("--years", default="2012", help="season years, YYYY or YYYY-YYYY (default 2012)")
    return parser


def _apply_overrides(cfg: AnalysisConfig, args) -> AnalysisConfig:
    updates = {}
    if args.out:
        updates["output_dir"] = args.out
    if args.seed is not None:
        updates["seed"] = args.seed
    return replace(cfg, **updates) if updates else cfg


def _cmd_pipeline(args, upto: str) -> int:
    cfg, verbatim = load_config(args.config)
    cfg = _apply_overrides(cfg, args)
    artifacts = run(cfg, verbatim, upto=upto)
    if not artifacts.converged:
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg, _ = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    problems = validate_config(cfg, need_seed=True)
    if not problems:    # every input parses as the pipeline reads it
        for read, path in ((io.read_events, cfg.events), (io.read_grid_cells, cfg.grid),
                           (io.read_zones, cfg.zones), (io.read_membership, cfg.membership),
                           (io.read_daily_field, cfg.temperature_field), (io.read_daily_field, cfg.pm25_field)):
            try:
                read(path)
            except ConfigurationError as exc:
                problems.append(str(exc))
    if problems:
        for p in problems:
            print(f"problem: {p}")
        print(f"invalid: {len(problems)} problem(s)")
        return EXIT_INPUT_ERROR
    print("ok: configuration and input files look valid")
    return EXIT_OK


def _cmd_synth(args) -> int:
    if args.seed is None:
        raise ConfigurationError("synth requires --seed")
    for flag, value, low in (("--seed", args.seed, 0), ("--events", args.events, 0), ("--zones", args.zones, 1)):
        if value < low:
            raise ConfigurationError(f"{flag} must be at least {low}, got {value}")
    slopes = {"--slope-t": args.slope_t, "--slope-a": args.slope_a, "--gamma": args.gamma}
    for flag, value in slopes.items():
        if not math.isfinite(value):
            raise ConfigurationError(f"{flag} must be finite, got {value}")
    truth = linear_truth(*slopes.values(), n_zones=args.zones, years=_years(args.years), seed=args.seed)
    try:
        data = generate(truth, args.events)
    except ValueError as exc:  # finite slopes whose log-odds overflow
        raise ConfigurationError(f"{', '.join(slopes)}: {exc}") from None
    out = Path(args.out)
    io.write_rows(out / "grid.csv", ["cell_id", "lat", "lon"],
                  [(c.cell_id, c.lat, c.lon) for c in data.cells])
    io.write_rows(out / "zones.csv", ["zone_id", "lat", "lon"],
                  [(z.zone_id, z.lat, z.lon) for z in data.zones])
    io.write_rows(out / "membership.csv", ["zone_id", "cell_id"], data.membership)
    # each zone's series is its one cell's field, written in zone_id order
    cell_of = dict(data.membership)
    for name, table in (("temperature_field", data.temperature_series), ("pm25_field", data.pm25_series)):
        order = np.argsort(table.ids)
        cells = np.array([cell_of[z] for z in table.ids[order]], dtype=object)
        io.write_field(out / f"{name}.csv", replace(table, ids=cells, values=table.values[order]))
    subject, zone, day = data.events
    io.write_rows(
        out / "events.csv", ["subject_id", "zone_id", "case_date"],
        zip(subject.tolist(), zone.tolist(), np.datetime_as_string(day).tolist()),
    )
    log.info("wrote synthetic dataset (%d events, %d zones) to %s", args.events, args.zones, out)
    return EXIT_OK


def _years(text: str) -> tuple[int, ...]:
    """The years of a ``YYYY`` or ``YYYY-YYYY`` range, both ends included."""
    m = re.fullmatch(r"([1-9]\d{3})(?:-([1-9]\d{3}))?", text)
    if m is None:
        raise ConfigurationError(f"--years must be YYYY or YYYY-YYYY, got {text!r}")
    first, last = int(m[1]), int(m[2] or m[1])
    if last < first:
        raise ConfigurationError(f"--years {text} runs backwards")
    return tuple(range(first, last + 1))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "synth":
            return _cmd_synth(args)
        upto = {"link": "link", "match": "match", "fit": "fit",
                "effects": "effects", "run-all": "effects"}[args.command]
        return _cmd_pipeline(args, upto)
    except ConfigurationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except EmptyAnalysisError as exc:
        print(f"empty analysis: {exc}", file=sys.stderr)
        return EXIT_EMPTY_ANALYSIS
    except SeparationError as exc:
        print(f"separation: {exc}", file=sys.stderr)
        return EXIT_SEPARATION
    except CaseCrossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
