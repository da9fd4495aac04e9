"""casecross benchmark: three workloads, end-to-end metrics, artifact checks.

    python3 bench/run.py --workload shipped4|synth30k|replicate \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nothing needs installing. A workload repeats whole
rounds of its analyses until ``--seconds`` have passed and it has made its
minimum number of rounds, prints a report, and then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` runs one traced round and reports its
per-layer metrics. See ``bench/README.md``.
"""

from __future__ import annotations

import os

# one BLAS thread here and in every child, set before numpy loads: the
# analyses run one at a time, so the benchmark uses at most 2 cores
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import check  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

SHIPPED = ("main", "temp3day", "trim99", "tensor")
SYNTH_SEED = 7                     # synth30k data, fixed: see README
SYNTH_ARGS = ("--events", "30000", "--zones", "200")
REPLICATIONS_PER_ROUND = 10
REPLICATE_SLOPES = (0.06, 0.02, 0.0015)
REPLICATE_LEVELS = (28.0, 35.0, 9.0, 14.0)     # t0, t1, a0, a1
SETUP_REPEATS = {"shipped4": 9, "synth30k": 5, "replicate": 15}
# a run makes at least this many rounds, and more while --seconds last; if
# time alone set the count, a slow first round would end a run early and
# pull its median toward slow rounds
MIN_ROUNDS = {"shipped4": 2, "synth30k": 1, "replicate": 4}
INPUT_KEYS = ("events", "grid", "zones", "membership", "temperature_field", "pm25_field")


class Tally:
    """Operations attempted and failed, and every failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.exit_failures: list[str] = []

    def record(self, label: str, exit_code: int, problems: list[str]) -> None:
        self.attempted += 1
        if exit_code != 0:
            self.exit_failures.append(f"{label}: exit {exit_code}")
        self.problems += [f"{label}: {p}" for p in problems]
        self.failed += bool(exit_code != 0 or problems)


def spawn(argv: list[str], log: Path) -> tuple[float, int, float]:
    """Run a Python child to completion: (wall s, exit code, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with log.open("ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def casecross_argv(args: list[str], span_file: Path | None = None, probe: bool = False) -> list[str]:
    """A ``casecross`` command line, traced when ``span_file`` is given."""
    if span_file is None:
        return ["-m", "casecross", "-q", *args]
    return [str(BENCH / "spans.py"), str(span_file), *(["--probe"] if probe else []), "--", "-q", *args]


def run_checked(argv: list[str], log: Path) -> None:
    _, code, _ = spawn(argv, log)
    if code != 0:
        raise RuntimeError(f"set-up step {argv} exited {code}; see {log}")


def fresh_workdir(name: str) -> Path:
    """An empty work directory, its old contents' deletion flushed to disk.

    Freeing blocks, by deleting or truncating files, can stall later file
    operations until the journal commits (file systems mounted with
    ``discard`` do so visibly), so nothing is deleted or overwritten while a
    timer runs and every timed step starts after ``os.sync``.
    """
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.sync()
    return workdir


def timed_setup(step, repeats: int) -> float:
    """Median wall time of ``step(k)`` for k = 0 .. repeats-1."""
    times = []
    for k in range(repeats):
        os.sync()
        start = time.perf_counter()
        step(k)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def summarize(setup_s: float, rounds: list[dict]) -> dict:
    return {
        "setup_s": setup_s,
        "analysis_s": statistics.median(r["analysis_s"] for r in rounds),
        "min_ess_per_s": statistics.median(r["min_ess_per_s"] for r in rounds),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }


def layer_report(span_docs: list[dict], overhead_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced round, and the names found absent."""
    metrics = spans.layer_metrics([d["spans"] for d in span_docs])
    probe = next((d["probe"] for d in span_docs if d.get("probe")), {})
    metrics.update({f"clr.{k}": v for k, v in probe.items()})
    metrics["trace.overhead_s"] = overhead_s
    absent = sorted({a for d in span_docs for a in d.get("absent", [])})
    for k in ("clr.ll_eval_us", "clr.grad_hess_us", "clr.ll_bytes"):
        if k not in metrics:
            absent.append(k)
            metrics[k] = 0.0
    return metrics, absent


# ------------------------------------------------------------ CLI workloads

@dataclass
class Analysis:
    """One ``run-all`` of one config, and what its output is checked against."""

    name: str
    config: Path
    events: Path
    truth: tuple[float, float, float] | None
    known_failure: str | None = None


def run_round(analyses: list[Analysis], outdir: Path, tally: Tally, span_docs: list | None) -> dict:
    """One ``run-all`` per analysis, one at a time, into fresh directories
    under ``outdir``; checks run untimed.

    With ``span_docs`` the analyses run traced and their spans are
    appended to it; the first one also runs the kernel probe.
    """
    outdir.mkdir(parents=True)
    walls = []
    ess = rss = 0.0
    for k, an in enumerate(analyses):
        traced = span_docs is not None
        out = outdir / an.name
        span_file = outdir / f"spans_{an.name}.json" if traced else None
        argv = casecross_argv(["run-all", "--config", str(an.config), "--out", str(out)], span_file, k == 0)
        os.sync()
        elapsed, code, peak = spawn(argv, outdir.parent / "stderr.log")
        rss = max(rss, peak)
        try:
            problems = check.check_run(out, an.events, an.truth)
            ess += check.min_ess(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"artifacts could not be checked: {exc!r}"]
        tally.record(an.name, code, problems)
        if traced:
            doc = json.loads(span_file.read_text())
            elapsed -= doc["probe_s"]
            span_docs.append(doc)
        walls.append(elapsed)
    wall = sum(walls)
    return {"analysis_s": wall, "first_s": walls[0], "min_ess_per_s": ess / wall, "peak_rss_mb": rss}


def shipped4_setup(workdir: Path, span_docs: list | None) -> tuple[float | None, list[Analysis]]:
    """Set-up time (untraced runs only) and the four shipped analyses."""
    configs = [ROOT / "configs" / f"{n}.json" for n in SHIPPED]

    def validate(k):
        for c in configs:
            run_checked(casecross_argv(["validate", "--config", str(c)]), workdir / "stderr.log")

    setup_s = timed_setup(validate, SETUP_REPEATS["shipped4"]) if span_docs is None else None
    events = ROOT / "data" / "synth" / "events.csv"
    # temp3day averages temperature over 3 days while the data were made
    # from same-day temperature, so its ORs have no generating value
    analyses = [
        Analysis(n, c, events, None if n == "temp3day" else check.SYNTH_SLOPES)
        for n, c in zip(SHIPPED, configs)
    ]
    return setup_s, analyses


def synth30k_setup(workdir: Path, span_docs: list | None) -> tuple[float | None, list[Analysis]]:
    """Set-up time (untraced runs only) and the two analyses of the 30k data.

    A traced run makes the data once, traced, instead of timing set-up.
    """
    def synth(k, span_file=None):
        args = ["synth", "--out", str(workdir / f"data{k}"), "--seed", str(SYNTH_SEED), *SYNTH_ARGS]
        run_checked(casecross_argv(args, span_file), workdir / "stderr.log")

    setup_s = None
    if span_docs is None:
        repeats = SETUP_REPEATS["synth30k"]
        setup_s = timed_setup(synth, repeats)
    else:
        repeats = 1
        synth(0, workdir / "spans_synth.json")
        span_docs.append(json.loads((workdir / "spans_synth.json").read_text()))
    data = workdir / f"data{repeats - 1}"
    analyses = []
    for name in ("main", "tensor"):
        cfg = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        cfg.update({k: str(data / f"{k}.csv") for k in INPUT_KEYS})
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2))
        known = "sampler non-convergence, exit 4" if name == "tensor" else None
        analyses.append(Analysis(name, path, data / "events.csv", check.SYNTH_SLOPES, known))
    return setup_s, analyses


def cli_workload(name: str, args, tally: Tally) -> tuple[dict, list[str], dict]:
    workdir = fresh_workdir(name)
    span_docs: list | None = [] if args.trace else None
    setup = shipped4_setup if name == "shipped4" else synth30k_setup
    setup_s, analyses = setup(workdir, span_docs)
    extra = {"known failures": [f"{name}/{a.name}: {a.known_failure}" for a in analyses if a.known_failure]}

    if args.trace:
        # untraced reference for the overhead: the first analysis only,
        # checked but not counted, so that the counted round stays whole
        reference = Tally()
        plain = run_round(analyses[:1], workdir / "plain", reference, None)
        traced = run_round(analyses, workdir / "traced", tally, span_docs)
        tally.problems += reference.problems
        metrics, absent = layer_report(span_docs, traced["first_s"] - plain["first_s"])
        return metrics, absent, extra

    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS[name] or time.perf_counter() - start < args.seconds:
        rounds.append(run_round(analyses, workdir / f"round{len(rounds)}", tally, None))
    extra["rounds"] = len(rounds)
    return summarize(setup_s, rounds), [], extra


# ------------------------------------------------------ in-process workload

def replicate_workload(args, tally: Tally) -> tuple[dict, list[str], dict]:
    workdir = fresh_workdir("replicate")
    setup_s = timed_setup(
        lambda k: run_checked(["-c", "import casecross"], workdir / "stderr.log"),
        SETUP_REPEATS["replicate"],
    )
    sys.path.insert(0, str(ROOT / "src"))
    from casecross import clr, effects, simulate, splines

    levels = effects.ContrastLevels(*REPLICATE_LEVELS)
    coverage: list[bool] = []
    last: dict = {}

    def one_round(k: int, counts: Tally, coverage: list[bool]) -> dict:
        wall = ess = 0.0
        for i in range(REPLICATIONS_PER_ROUND):
            r = 1000 * args.seed + k * REPLICATIONS_PER_ROUND + i
            start = time.perf_counter()
            truth = simulate.linear_truth(*REPLICATE_SLOPES, n_zones=25, seed=50_000 + r)
            data = simulate.generate(truth, 800)
            model = splines.fit_model_basis(data.sets, "spline_linear", 1, 1)
            lik = clr.ConditionalLikelihood.from_design_matrix(splines.design_matrix(data.sets, model))
            fit = clr.fit_bayes(
                lik,
                clr.PriorSpec.for_model("linear_interaction"),
                clr.SamplerConfig(chains=2, warmup=400, draws=800, seed=90_000 + r),
            )
            est = effects.or_contrast(fit, model, "10", levels)
            wall += time.perf_counter() - start
            ess += float(fit.diagnostics.ess.min())
            covered, problems = replication_checks(data.sets, fit.draws, est)
            coverage.append(covered)
            counts.record(f"replication {r}", 0, problems)
            last["likelihood"] = lik
        return {"analysis_s": wall, "min_ess_per_s": ess / wall}

    extra: dict = {}
    absent: list[str] = []
    if args.trace:
        reference = Tally()     # the same replications untraced, not counted
        plain = one_round(0, reference, [])
        tracer = spans.Tracer()
        missing = spans.install(tracer)
        traced = one_round(0, tally, coverage)
        tally.problems += reference.problems
        doc = {"spans": list(tracer.spans), "absent": missing}    # before the probe's own calls
        lik = last["likelihood"]
        doc["probe"] = spans.probe(lik, clr.fit_mle(lik).point)
        metrics, absent = layer_report([doc], traced["analysis_s"] - plain["analysis_s"])
    else:
        rounds = []
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS["replicate"] or time.perf_counter() - start < args.seconds:
            rounds.append(one_round(len(rounds), tally, coverage))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = summarize(setup_s, [dict(r, peak_rss_mb=peak) for r in rounds])
        extra["rounds"] = len(rounds)

    lo, hi = check.coverage_band(len(coverage))
    share = sum(coverage) / len(coverage)
    extra["coverage"] = f"{share:.3f} of {len(coverage)} OR10 intervals hold the truth (band {lo:.3f}-{hi:.3f})"
    if not lo <= share <= hi:
        tally.problems.append(f"coverage {share:.3f} outside the binomial band {lo:.3f}-{hi:.3f}")
    return metrics, absent, extra


def replication_checks(sets, draws: np.ndarray, est) -> tuple[bool, list[str]]:
    """Whether the OR10 interval holds the truth, and the replication's checks."""
    t0, t1, a0, _ = REPLICATE_LEVELS
    bt, _, g = REPLICATE_SLOPES
    covered = est.interval[0] <= math.exp(bt * (t1 - t0) + g * a0 * (t1 - t0)) <= est.interval[1]

    t = np.array([r.temperature for s in sets for r in s.rows])
    a = np.array([r.pm25_window for s in sets for r in s.rows])
    is_case = np.array([r.is_case for s in sets for r in s.rows])
    starts = np.cumsum([0] + [len(s.rows) for s in sets[:-1]])
    x = np.column_stack([t, a, t * a])
    problems = check.posterior_near_mle(x, is_case, starts, draws.mean(axis=0), draws.std(axis=0, ddof=1))
    point = float(np.exp(draws @ np.array([t1 - t0, 0.0, (t1 - t0) * a0])).mean())
    if abs(point - est.point) > check.POINT_RTOL * point:
        problems.append(f"OR10 point {est.point!r} != posterior mean from the draws {point!r}")
    return covered, problems


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("shipped4", "synth30k", "replicate"))
    parser.add_argument("--seed", type=int, default=SYNTH_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be at least 0")

    needed = [ROOT / "src" / "casecross" / "__init__.py", ROOT / "configs", ROOT / "data" / "synth"]
    missing = [p.relative_to(ROOT).as_posix() for p in needed if not p.exists()]
    if missing:
        print(f"bench: not a casecross checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    tally = Tally()
    if args.workload == "replicate":
        values, absent, extra = replicate_workload(args, tally)
    else:
        values, absent, extra = cli_workload(args.workload, args, tally)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, value in extra.items():
        print(f"  {key}: {value}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}" + (" (computed)" if name in spans.COMPUTED else ""))
    print(f"  attempted {tally.attempted}, failed {tally.failed}")
    for line in tally.exit_failures + tally.problems:
        print(f"  FAILED {line}")
    if absent:
        print(f"  absent, reported as 0: {', '.join(absent)}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
