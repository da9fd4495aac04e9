"""Independent checks of casecross run artifacts.

Nothing here imports casecross. The natural cubic basis is written again
from the formula in the ``splines`` module docstring,

    N_1(x) = x,  N_{j+1}(x) = d_j(x) - d_{df-1}(x),
    d_j(x) = [(x - k_j)_+^3 - (x - b1)_+^3] / (b1 - k_j),

with the knots that ``manifest.json`` records, and every check reads only
the CSV and JSON files a ``run-all`` leaves behind plus the input events.
Each check returns a list of problems; an empty list means the artifacts
passed.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from datetime import date
from pathlib import Path

import numpy as np

# generating log-odds of ``casecross synth`` with its default flags
SYNTH_SLOPES = (0.06, 0.02, 0.003)

SCORE_TOL = 1e-6          # Newton decrement sqrt(g' I^-1 g) at the MLE
POINT_RTOL = 1e-9         # relative, against the largest OR involved
TRUTH_SDS = 4.0           # generating OR within this many posterior sd
MAX_REFERENTS = 4


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with Path(path).open(newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def natural_cubic(x: np.ndarray, interior: list[float], boundary: list[float]) -> np.ndarray:
    """Natural cubic basis, shape ``x.shape + (df,)``, df = len(interior) + 1."""
    x = np.asarray(x, dtype=float)
    knots = [boundary[0], *interior, boundary[1]]
    df = len(interior) + 1
    upper = knots[-1]

    def d(k):
        return (np.clip(x - k, 0.0, None) ** 3 - np.clip(x - upper, 0.0, None) ** 3) / (upper - k)

    cols = [x] + [d(knots[j]) - d(knots[df - 1]) for j in range(df - 1)]
    return np.stack(cols, axis=-1)


def design_rows(basis: dict, t, a) -> np.ndarray:
    """Design rows for (t, a) under the basis block of a run manifest."""
    t, a = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(a, dtype=float))
    bt = natural_cubic(t, basis["temperature"]["interior_knots"], basis["temperature"]["boundary_knots"])
    ba = natural_cubic(a, basis["pm25"]["interior_knots"], basis["pm25"]["boundary_knots"])
    if basis["interaction"] == "linear_interaction":
        inter = (t * a)[..., None]
    elif basis["interaction"] == "tensor_product":
        outer = bt[..., :, None] * ba[..., None, :]
        inter = outer.reshape(outer.shape[:-2] + (-1,))
    else:
        raise ValueError(f"unknown interaction {basis['interaction']!r}")
    return np.concatenate([bt, ba, inter], axis=-1)


def score_and_information(x: np.ndarray, is_case: np.ndarray, starts: np.ndarray, beta: np.ndarray):
    """Conditional-logit score and observed information.

    Rows of set s are ``x[starts[s]:starts[s+1]]``; each set holds exactly
    one case row.
    """
    eta = x @ beta
    sizes = np.diff(np.append(starts, x.shape[0]))
    set_of_row = np.repeat(np.arange(starts.size), sizes)
    w = np.exp(eta - np.maximum.reduceat(eta, starts)[set_of_row])
    p = w / np.add.reduceat(w, starts)[set_of_row]
    xbar = np.add.reduceat(p[:, None] * x, starts, axis=0)
    score = x[is_case].sum(axis=0) - xbar.sum(axis=0)
    info = (p[:, None] * x).T @ x - xbar.T @ xbar
    return score, info


def newton_decrement(score: np.ndarray, info: np.ndarray) -> float:
    return float(math.sqrt(max(float(score @ np.linalg.solve(info, score)), 0.0)))


def clogit_mle(x: np.ndarray, is_case: np.ndarray, starts: np.ndarray, iterations: int = 50) -> np.ndarray:
    """Maximum of the conditional likelihood by plain Newton steps."""
    beta = np.zeros(x.shape[1])
    for _ in range(iterations):
        score, info = score_and_information(x, is_case, starts, beta)
        step = np.linalg.solve(info, score)
        beta = beta + step
        if float(score @ step) < 1e-20:
            break
    return beta


def read_matched_sets(path: Path):
    """Matched rows grouped by set, in file order."""
    _, rows = _read_csv(path)
    subjects = [r[0] for r in rows]
    days = [date.fromisoformat(r[1]) for r in rows]
    is_case = np.array([r[2] == "1" for r in rows])
    t = np.array([float(r[3]) for r in rows])
    a = np.array([float(r[4]) for r in rows])
    starts = np.array([i for i in range(len(rows)) if i == 0 or subjects[i] != subjects[i - 1]], dtype=int)
    return subjects, days, is_case, t, a, starts


def read_events(path: Path) -> dict[str, list[date]]:
    _, rows = _read_csv(path)
    out: dict[str, list[date]] = {}
    for r in rows:
        out.setdefault(r[0], []).append(date.fromisoformat(r[2]))
    return out


def read_coefficients(path: Path) -> np.ndarray:
    _, rows = _read_csv(path)
    return np.array([float(r[1]) for r in rows])


def read_draws(path: Path) -> np.ndarray:
    _, rows = _read_csv(path)
    return np.array([[float(v) for v in r] for r in rows])


def check_sets(subjects, days, is_case, starts, events: dict[str, list[date]]) -> list[str]:
    """One case and 1-4 referents per set, all in the case month and on the
    case weekday, the case day being the subject's event date."""
    problems = []
    bounds = list(starts) + [len(days)]
    for lo, hi in zip(bounds, bounds[1:]):
        sid = subjects[lo]
        cases = [days[i] for i in range(lo, hi) if is_case[i]]
        if len(cases) != 1:
            problems.append(f"set {sid}: {len(cases)} case rows")
            continue
        case = cases[0]
        if not 1 <= hi - lo - 1 <= MAX_REFERENTS:
            problems.append(f"set {sid}: {hi - lo - 1} referents")
        if len(set(days[lo:hi])) != hi - lo:
            problems.append(f"set {sid}: repeated day")
        for d in days[lo:hi]:
            if (d.year, d.month) != (case.year, case.month) or d.weekday() != case.weekday():
                problems.append(f"set {sid}: referent {d} not in month and weekday of {case}")
        if case not in events.get(sid, []):
            problems.append(f"set {sid}: case day {case} is not an event date of the subject")
    return problems


def check_accounting(kept_subjects: list[str], drop_log: Path, events: dict[str, list[date]]) -> list[str]:
    """Every event is a kept set or a drop-log row, and nothing else is."""
    _, drops = _read_csv(drop_log)
    accounted = Counter(kept_subjects) + Counter(r[0] for r in drops)
    wanted = Counter({sid: len(ds) for sid, ds in events.items()})
    if accounted == wanted:
        return []
    missing = sorted((wanted - accounted).elements())
    extra = sorted((accounted - wanted).elements())
    return [f"events not accounted for: {missing[:5]} ({len(missing)}); unknown rows: {extra[:5]} ({len(extra)})"]


def _contrast_row(basis, hi, lo):
    return design_rows(basis, *hi) - design_rows(basis, *lo)


def _scenarios(levels):
    t0, t1, a0, a1 = levels["t0"], levels["t1"], levels["a0"], levels["a1"]
    return {
        "OR10": ((t1, a0), (t0, a0)),
        "OR01": ((t0, a1), (t0, a0)),
        "OR11": ((t1, a1), (t0, a0)),
    }


def true_log_or(hi, lo, slopes=SYNTH_SLOPES) -> float:
    bt, ba, g = slopes
    return bt * (hi[0] - lo[0]) + ba * (hi[1] - lo[1]) + g * (hi[0] * hi[1] - lo[0] * lo[1])


def check_run(out_dir, events_csv, truth_slopes=None) -> list[str]:
    """All artifact checks of one ``run-all`` output directory.

    ``truth_slopes`` (temperature, pm25, product) are the generating
    log-odds slopes; when given, each generating OR must lie within
    ``TRUTH_SDS`` posterior sd of the posterior mean OR.
    """
    out = Path(out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    basis = manifest["basis"]
    events = read_events(Path(events_csv))
    subjects, days, is_case, t, a, starts = read_matched_sets(out / "matched_sets.csv")
    kept = [subjects[i] for i in starts]

    problems = check_sets(subjects, days, is_case, starts, events)
    problems += check_accounting(kept, out / "drop_log.csv", events)

    threshold = manifest["trim_threshold"]
    if a.size and float(a.max()) > threshold:
        problems.append(f"kept pm25 window {float(a.max())!r} exceeds trim threshold {threshold!r}")

    x = design_rows(basis, t, a)
    mle = read_coefficients(out / "coefficients_mle.csv")
    if mle.size != x.shape[1]:
        problems.append(f"coefficients_mle.csv has {mle.size} rows, basis has {x.shape[1]} columns")
        return problems
    score, info = score_and_information(x, is_case, starts, mle)
    decrement = newton_decrement(score, info)
    if not decrement <= SCORE_TOL:
        problems.append(f"score does not vanish at the MLE: Newton decrement {decrement:.3g}")

    _, rows = _read_csv(out / "contrasts.csv")
    points = {r[0]: float(r[1]) for r in rows}
    if {"OR10", "OR01", "OR11", "RERI"} - set(points):
        problems.append(f"contrasts.csv lacks a row: has {sorted(points)}")
        return problems
    reri = points["OR11"] - points["OR10"] - points["OR01"] + 1.0
    scale = max(abs(points["OR11"]), abs(points["OR10"]), abs(points["OR01"]), 1.0)
    if abs(points["RERI"] - reri) > POINT_RTOL * scale:
        problems.append(f"RERI {points['RERI']!r} != OR11 - OR10 - OR01 + 1 = {reri!r}")

    levels = manifest["contrast_levels"]
    draws = read_draws(out / "draws.csv")
    for name, (hi, lo) in _scenarios(levels).items():
        per_draw = np.exp(draws @ _contrast_row(basis, hi, lo))
        mean = float(per_draw.mean())
        if abs(mean - points[name]) > POINT_RTOL * max(1.0, abs(mean)):
            problems.append(f"{name} point {points[name]!r} != posterior mean from draws.csv {mean!r}")
        if truth_slopes is not None:
            sd = float(per_draw.std(ddof=1))
            want = math.exp(true_log_or(hi, lo, truth_slopes))
            if abs(want - mean) > TRUTH_SDS * sd:
                problems.append(
                    f"generating {name} {want:.4f} is {abs(want - mean) / sd:.2f} posterior sd "
                    f"from the posterior mean {mean:.4f}"
                )

    _, surface = _read_csv(out / "surface.csv")
    ref = [r for r in surface if float(r[0]) == levels["t0"] and float(r[1]) == levels["a0"]]
    if len(ref) != 1:
        problems.append(f"surface.csv has {len(ref)} rows at the reference pair")
    elif any(float(v) != 1.0 for v in ref[0][2:]):
        problems.append(f"surface row at the reference pair is {ref[0][2:]}, not exactly 1")
    return problems


def min_ess(out_dir) -> float:
    """Smallest per-coefficient ESS in a run's ``diagnostics.txt``."""
    text = (Path(out_dir) / "diagnostics.txt").read_text()
    table = text.split("label rhat ess mcse\n", 1)[1]
    return min(float(line.split()[2]) for line in table.splitlines() if line.strip())


def posterior_near_mle(x, is_case, starts, posterior_mean, posterior_sd, max_sds=0.5) -> list[str]:
    """Posterior mean within ``max_sds`` posterior sd of an MLE computed here."""
    mle = clogit_mle(x, is_case, starts)
    gap = np.abs(posterior_mean - mle) / posterior_sd
    if np.all(gap <= max_sds):
        return []
    return [f"posterior mean is {float(gap.max()):.3f} posterior sd from the MLE (limit {max_sds})"]


def coverage_band(n: int, nominal: float = 0.95, sds: float = 6.0) -> tuple[float, float]:
    """Binomial band for the share of n intervals that cover the truth.

    Six binomial sd: a run checks it on every seed, so it must not fail by
    chance (the sampler's intervals cover about 0.94, so 4 sd at n = 50
    would fail about one run in 300), yet it catches intervals that cover
    0.75 or less.
    """
    half = sds * math.sqrt(nominal * (1.0 - nominal) / n)
    return max(0.0, nominal - half), min(1.0, nominal + half)
