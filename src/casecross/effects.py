"""Odds-ratio contrasts, additive interaction (RERI), curves, and surfaces.

All contrasts are differences of linear predictors between two exposure
scenarios for the same subject, exponentiated. For posterior fits every
functional is computed per draw and then summarized (posterior mean,
equal-tailed 95% interval from order statistics); in particular the RERI is
OR11 - OR10 - OR01 + 1 evaluated draw by draw, never assembled from already
summarized odds ratios. For MLE fits the point estimate is the plug-in and
intervals are delta-method Wald intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clr import FitResult
from .design import MatchedRows
from .errors import EmptyAnalysisError, UnsupportedModelError
from .quantiles import type1_index, type1_quantile
from .splines import LINEAR_INTERACTION, ModelBasis

__all__ = [
    "ContrastLevels",
    "EffectEstimate",
    "case_day_levels",
    "or_contrast",
    "reri",
    "reri_from_or_draws",
    "mult_interaction",
    "response_curve",
    "risk_surface",
]

Z975 = 1.959963984540054  # standard normal 97.5% point


@dataclass(frozen=True)
class ContrastLevels:
    """The two-by-two exposure scenarios being contrasted."""

    t0: float
    t1: float
    a0: float
    a1: float
    provenance: str = "user"


@dataclass
class EffectEstimate:
    name: str
    point: float
    interval: tuple[float, float]
    per_draw: np.ndarray | None = None
    extrapolated: bool = False


def case_day_levels(sets, quantiles=(0.5, 0.95)) -> ContrastLevels:
    """Contrast levels from the case-day exposure distributions of ``sets``.

    Quantiles are computed over case rows only, with the package-wide
    order-statistic rule.
    """
    rows = MatchedRows.from_sets(sets)
    if not len(rows):
        raise EmptyAnalysisError("no matched sets to take case-day levels from")
    lo_q, hi_q = quantiles
    temps = rows.temperature[rows.is_case]
    pms = rows.pm25_window[rows.is_case]
    return ContrastLevels(
        t0=type1_quantile(temps, lo_q),
        t1=type1_quantile(temps, hi_q),
        a0=type1_quantile(pms, lo_q),
        a1=type1_quantile(pms, hi_q),
        provenance="case_day_median_p95" if quantiles == (0.5, 0.95) else "user",
    )


_SCENARIOS = {
    "10": lambda lv: ((lv.t1, lv.a0), (lv.t0, lv.a0)),
    "01": lambda lv: ((lv.t0, lv.a1), (lv.t0, lv.a0)),
    "11": lambda lv: ((lv.t1, lv.a1), (lv.t0, lv.a0)),
}


def _extrapolates(model: ModelBasis, which: str, levels: ContrastLevels) -> bool:
    t_lo, t_hi = model.temperature.boundary_knots
    a_lo, a_hi = model.pm25.boundary_knots
    ts = {"10": (levels.t0, levels.t1), "01": (levels.t0,), "11": (levels.t0, levels.t1)}[which]
    avs = {"10": (levels.a0,), "01": (levels.a0, levels.a1), "11": (levels.a0, levels.a1)}[which]
    return any(not t_lo <= t <= t_hi for t in ts) or any(not a_lo <= a <= a_hi for a in avs)


def _contrast_row(model: ModelBasis, hi: tuple[float, float], lo: tuple[float, float]) -> np.ndarray:
    return model.rows(hi[0], hi[1]) - model.rows(lo[0], lo[1])


def _or_draws(fit: FitResult, model: ModelBasis, which: str, levels: ContrastLevels) -> np.ndarray:
    hi, lo = _SCENARIOS[which](levels)
    row = _contrast_row(model, hi, lo)
    return np.exp(fit.draws @ row)


# Columns of the per-draw OR array that a table holds at once.
CHUNK = 128


def _posterior_summary(per_draw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column means and type-1 2.5 % and 97.5 % order statistics of a
    (draws, k) block of per-draw values, which it partitions in place."""
    s = per_draw.shape[0]
    k = type1_index(s, 0.025), type1_index(s, 0.975)
    mean = per_draw.mean(axis=0)
    per_draw.partition(k, axis=0)
    lo, hi = per_draw[list(k)]  # a copy: the block is freed on return
    return mean, lo, hi


def _summarize(name: str, per_draw: np.ndarray, extrapolated: bool) -> EffectEstimate:
    (point,), (lo,), (hi,) = _posterior_summary(per_draw[:, np.newaxis].copy())
    return EffectEstimate(
        name=name,
        point=float(point),
        interval=(float(lo), float(hi)),
        per_draw=per_draw,
        extrapolated=extrapolated,
    )


def _wald(name: str, log_point: float, log_se: float, extrapolated: bool) -> EffectEstimate:
    return EffectEstimate(
        name=name,
        point=float(np.exp(log_point)),
        interval=(float(np.exp(log_point - Z975 * log_se)), float(np.exp(log_point + Z975 * log_se))),
        extrapolated=extrapolated,
    )


def or_contrast(
    fit: FitResult,
    model: ModelBasis,
    which: str,
    levels: ContrastLevels,
) -> EffectEstimate:
    """One of the three odds-ratio contrasts: "10" raises temperature at the
    baseline pollution level, "01" raises pollution at the baseline
    temperature, "11" raises both."""
    if which not in _SCENARIOS:
        raise ValueError(f"contrast must be one of 10, 01, 11; got {which!r}")
    name = f"OR{which}"
    flag = _extrapolates(model, which, levels)
    if fit.mode == "bayes":
        return _summarize(name, _or_draws(fit, model, which, levels), flag)
    hi, lo = _SCENARIOS[which](levels)
    row = _contrast_row(model, hi, lo)
    log_or = float(row @ fit.point)
    se = float(np.sqrt(row @ fit.covariance @ row)) if fit.covariance is not None else np.nan
    return _wald(name, log_or, se, flag)


def reri_from_or_draws(or10: np.ndarray, or01: np.ndarray, or11: np.ndarray) -> np.ndarray:
    """Per-draw relative excess risk due to interaction."""
    return or11 - or10 - or01 + 1.0


def reri(fit: FitResult, model: ModelBasis, levels: ContrastLevels) -> EffectEstimate:
    """Additive-scale interaction: OR11 - OR10 - OR01 + 1, per draw."""
    flag = _extrapolates(model, "11", levels)
    if fit.mode == "bayes":
        per_draw = reri_from_or_draws(
            _or_draws(fit, model, "10", levels),
            _or_draws(fit, model, "01", levels),
            _or_draws(fit, model, "11", levels),
        )
        return _summarize("RERI", per_draw, flag)
    # delta method around the MLE: d RERI / d beta = sum_k sign_k OR_k c_k
    rows = {w: _contrast_row(model, *_SCENARIOS[w](levels)) for w in ("10", "01", "11")}
    ors = {w: float(np.exp(rows[w] @ fit.point)) for w in rows}
    point = ors["11"] - ors["10"] - ors["01"] + 1.0
    grad = ors["11"] * rows["11"] - ors["10"] * rows["10"] - ors["01"] * rows["01"]
    se = float(np.sqrt(grad @ fit.covariance @ grad)) if fit.covariance is not None else np.nan
    return EffectEstimate(
        name="RERI",
        point=point,
        interval=(point - Z975 * se, point + Z975 * se),
        extrapolated=flag,
    )


def mult_interaction(fit: FitResult) -> EffectEstimate:
    """Multiplicative interaction: exp of the single product-term coefficient."""
    sl = fit.block_slice("interaction")
    if sl.stop - sl.start != 1:
        raise UnsupportedModelError(
            "multiplicative interaction summary requires a single product term, "
            f"got an interaction block of width {sl.stop - sl.start}"
        )
    if fit.mode == "bayes":
        return _summarize("mult_interaction", np.exp(fit.draws[:, sl.start]), False)
    gamma = float(fit.point[sl.start])
    se = float(np.sqrt(fit.covariance[sl.start, sl.start])) if fit.covariance is not None else np.nan
    return _wald("mult_interaction", gamma, se, False)


def _or_table(fit: FitResult, model: ModelBasis, pairs_hi: np.ndarray, ref: tuple[float, float]):
    """OR of each (t, a) scenario versus the reference pair, summarized.

    ``pairs_hi`` has shape (n, 2). Returns one plot-ready row per scenario,
    which carries the full (t, a) pair.
    """
    rows = model.rows(pairs_hi[:, 0], pairs_hi[:, 1]) - model.rows(ref[0], ref[1])
    if fit.mode == "bayes":
        # The (draws, n) OR array is summarized CHUNK columns at a time. numpy
        # sums a (draws, 1) block pairwise but wider ones row by row, so a last
        # chunk of one column joins the one before it: each column's mean then
        # does not depend on where the chunks fall.
        n = rows.shape[0]
        edges = [*range(0, max(n - 1, 1), CHUNK), n]
        chunks = [_posterior_summary(np.exp(fit.draws @ rows[b:e].T)) for b, e in zip(edges, edges[1:])]
        summary = [np.concatenate(c) for c in zip(*chunks)]
    else:
        log_or = rows @ fit.point
        if fit.covariance is not None:
            se = np.sqrt(np.einsum("nd,de,ne->n", rows, fit.covariance, rows))
        else:
            se = np.full(rows.shape[0], np.nan)
        summary = (np.exp(log_or), np.exp(log_or - Z975 * se), np.exp(log_or + Z975 * se))
    return [
        {"t": t, "a": a, "or": point, "lo95": lo, "hi95": hi}
        for (t, a), point, lo, hi in zip(pairs_hi.tolist(), *(x.tolist() for x in summary))
    ]


def response_curve(
    fit: FitResult,
    model: ModelBasis,
    vary: str,
    fixed_level: float,
    grid,
    reference: float,
) -> list[dict]:
    """Exposure-response table: OR at each grid value of one exposure versus
    its reference level, the other exposure held at ``fixed_level``."""
    grid = np.asarray(grid, dtype=float)
    if vary == "temperature_max":
        pairs = np.column_stack([grid, np.full(grid.size, fixed_level)])
        ref = (reference, fixed_level)
    elif vary == "pm25":
        pairs = np.column_stack([np.full(grid.size, fixed_level), grid])
        ref = (fixed_level, reference)
    else:
        raise ValueError(f"unknown exposure kind {vary!r}")
    return _or_table(fit, model, pairs, ref)


def risk_surface(
    fit: FitResult,
    model: ModelBasis,
    t_grid,
    a_grid,
    reference: tuple[float, float],
) -> list[dict]:
    """Joint-exposure table: OR of every (t, a) grid pair versus the
    reference pair. The reference pair itself, if on the grid, is exactly 1."""
    t_grid = np.asarray(t_grid, dtype=float)
    a_grid = np.asarray(a_grid, dtype=float)
    tt, aa = np.meshgrid(t_grid, a_grid, indexing="ij")
    pairs = np.column_stack([tt.ravel(), aa.ravel()])
    return _or_table(fit, model, pairs, reference)
