"""Odds-ratio contrasts, additive interaction (RERI), curves, and surfaces.

All contrasts are differences of linear predictors between two exposure
scenarios for the same subject, exponentiated. Every functional is computed
per posterior draw and then summarized (posterior mean, equal-tailed 95%
interval from order statistics); in particular the RERI is
OR11 - OR10 - OR01 + 1 evaluated draw by draw, never assembled from already
summarized odds ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clr import FitResult
from .design import MatchedRows
from .errors import EmptyAnalysisError, UnsupportedModelError
from .parallel import ordered_map
from .quantiles import type1_index, type1_quantiles
from .splines import ModelBasis

__all__ = [
    "ContrastLevels",
    "EffectEstimate",
    "case_day_levels",
    "or_contrast",
    "reri",
    "mult_interaction",
    "response_curve",
    "risk_surface",
]

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
    per_draw: np.ndarray
    extrapolated: bool = False


def case_day_levels(rows: MatchedRows, quantiles=(0.5, 0.95)) -> ContrastLevels:
    """Contrast levels from the case-day exposure distributions of ``rows``.

    Quantiles are computed over case rows only, with the package-wide
    order-statistic rule.
    """
    if not len(rows):
        raise EmptyAnalysisError("no matched sets to take case-day levels from")
    t0, t1 = type1_quantiles(rows.temperature[rows.is_case], quantiles)
    a0, a1 = type1_quantiles(rows.pm25_window[rows.is_case], quantiles)
    return ContrastLevels(
        t0=t0, t1=t1, a0=a0, a1=a1,
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
    return any(not (t_lo <= t <= t_hi and a_lo <= a <= a_hi) for t, a in _SCENARIOS[which](levels))


def _draws(fit: FitResult) -> np.ndarray:
    """The fit's (draws, dim) posterior draws, which every effect summarizes."""
    if fit.draws is None:
        raise UnsupportedModelError(
            "effects summarize posterior draws, and this fit has none: fit it with fit_bayes"
        )
    return fit.draws


def _or_draws(fit: FitResult, model: ModelBasis, which: str, levels: ContrastLevels) -> np.ndarray:
    hi, lo = _SCENARIOS[which](levels)
    return np.exp(_draws(fit) @ (model.rows(*hi) - model.rows(*lo)))


# Columns of the per-draw OR array that one table job holds at once. A
# (draws, CHUNK) block and its transposed copy take 3 MB at 6,000 draws, near
# one core's 2 MB L2 cache; 64 columns made a 51 x 51 surface 1.3-1.5x slower.
CHUNK = 32


def _posterior_summary(per_draw: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column means and type-1 2.5 % and 97.5 % order statistics of a
    (draws, k) block of per-draw values, which it leaves as it is.

    The order statistics are selected on a C-contiguous (k, draws) copy, one
    kth per partition: numpy selects two kth at once, or along the strided
    draws axis, with a generic introselect many times slower. The 97.5 %
    point is selected among the values above the 2.5 % point. An order
    statistic is an element of the sample, so its bits do not depend on how
    it is selected.
    """
    s = per_draw.shape[0]
    k_lo, k_hi = type1_index(s, 0.025), type1_index(s, 0.975)
    mean = per_draw.mean(axis=0)
    rows = per_draw.T.copy()
    rows.partition(k_lo, axis=1)
    if k_hi > k_lo:
        rows[:, k_lo + 1 :].partition(k_hi - k_lo - 1, axis=1)
    lo, hi = rows[:, (k_lo, k_hi)].T  # a copy: the rows are freed on return
    return mean, lo, hi


def _summarize(name: str, per_draw: np.ndarray, extrapolated: bool) -> EffectEstimate:
    (point,), (lo,), (hi,) = _posterior_summary(per_draw[:, np.newaxis])
    return EffectEstimate(
        name=name,
        point=float(point),
        interval=(float(lo), float(hi)),
        per_draw=per_draw,
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
    return _summarize(f"OR{which}", _or_draws(fit, model, which, levels), _extrapolates(model, which, levels))


def reri(fit: FitResult, model: ModelBasis, levels: ContrastLevels) -> EffectEstimate:
    """Additive-scale interaction: OR11 - OR10 - OR01 + 1, per draw."""
    or10, or01, or11 = (_or_draws(fit, model, w, levels) for w in ("10", "01", "11"))
    return _summarize("RERI", or11 - or10 - or01 + 1.0, _extrapolates(model, "11", levels))


def mult_interaction(fit: FitResult) -> EffectEstimate:
    """Multiplicative interaction: exp of the single product-term coefficient."""
    sl = fit.block_slice("interaction")
    if sl.stop - sl.start != 1:
        raise UnsupportedModelError(
            "multiplicative interaction summary requires a single product term, "
            f"got an interaction block of width {sl.stop - sl.start}"
        )
    return _summarize("mult_interaction", np.exp(_draws(fit)[:, sl.start]), False)


def _or_table(fit: FitResult, model: ModelBasis, pairs_hi: np.ndarray, ref: tuple[float, float]):
    """OR of each (t, a) scenario versus the reference pair, summarized.

    ``pairs_hi`` has shape (n, 2). Returns a record array of one plot-ready
    row per scenario, with float fields ``t``, ``a``, ``or``, ``lo95`` and
    ``hi95``.
    """
    draws = _draws(fit)
    rows = model.rows(pairs_hi[:, 0], pairs_hi[:, 1]) - model.rows(ref[0], ref[1])
    # The (draws, n) OR array is summarized CHUNK columns at a time, the
    # chunks on a thread pool. numpy sums a (draws, 1) block pairwise but
    # wider ones row by row, so a last chunk of one column joins the one
    # before it: each column's mean then does not depend on where the chunks
    # fall.
    n = rows.shape[0]
    edges = [*range(0, max(n - 1, 1), CHUNK), n]

    def chunk(columns):
        log_or = draws @ rows[columns].T
        return _posterior_summary(np.exp(log_or, out=log_or))

    chunks = ordered_map(chunk, map(slice, edges, edges[1:]))
    summary = [np.concatenate(c) for c in zip(*chunks)]
    return np.rec.fromarrays([*pairs_hi.T, *summary], names=("t", "a", "or", "lo95", "hi95"))


def response_curve(
    fit: FitResult,
    model: ModelBasis,
    vary: str,
    fixed_level: float,
    grid,
    reference: float,
) -> np.recarray:
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
) -> np.recarray:
    """Joint-exposure table: OR of every (t, a) grid pair versus the
    reference pair. The reference pair itself, if on the grid, is exactly 1."""
    t_grid = np.asarray(t_grid, dtype=float)
    a_grid = np.asarray(a_grid, dtype=float)
    tt, aa = np.meshgrid(t_grid, a_grid, indexing="ij")
    pairs = np.column_stack([tt.ravel(), aa.ravel()])
    return _or_table(fit, model, pairs, reference)
