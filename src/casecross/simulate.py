"""Synthetic matched-set data with known ground-truth log-odds surfaces.

Exposure series follow per-zone AR(1) processes with cross-correlated
innovations and a seasonal mean ramp. Each synthetic subject is assigned a
(zone, year, month, weekday) stratum and its case day is drawn within the
stratum with probability proportional to exp(f + g + h) evaluated on the
windowed covariates - exactly the conditional model, so the stratified
regression estimand equals the generating truth by construction.

The module also houses the deliberately naive brute-force oracle used to
check the stabilized likelihood.
"""

from __future__ import annotations

import calendar
from dataclasses import dataclass, field
from datetime import date as Date, timedelta
from typing import Callable

import numpy as np

from .design import DayRecord, Event, MatchedSet
from .exposure import PM25, TEMPERATURE, ExposureSeries, GridCell, WindowSpec, Zone, trailing_mean

__all__ = [
    "TruthSpec",
    "SyntheticData",
    "linear_truth",
    "generate",
    "brute_force_set_probability",
]


def _zero(t, a=None):
    return 0.0 * np.asarray(t, dtype=float)


@dataclass(frozen=True)
class TruthSpec:
    """Generating process: truth functions plus exposure dynamics.

    ``f`` and ``g`` take one exposure value, ``h`` takes (t, a); all must be
    vectorized over numpy arrays and finite on the generated ranges.
    """

    f: Callable = _zero
    g: Callable = _zero
    h: Callable = _zero
    n_zones: int = 40
    years: tuple[int, ...] = (2012,)
    season_months: tuple[int, int] = (6, 9)
    temperature_window_days: int = 1
    pm25_window_days: int = 3
    t_mean: float = 29.0
    t_season_amp: float = 3.0
    t_ar: float = 0.7
    t_noise_sd: float = 2.5
    a_mean: float = 9.0
    a_ar: float = 0.6
    a_noise_sd: float = 1.8
    cross_corr: float = 0.4
    seed: int = 0

    def __post_init__(self):
        if not -1.0 < self.cross_corr < 1.0:
            raise ValueError(f"cross correlation must be in (-1, 1), got {self.cross_corr}")
        if not (1 <= self.season_months[0] <= self.season_months[1] <= 12):
            raise ValueError(f"invalid season months {self.season_months}")


@dataclass
class SyntheticData:
    events: list[Event]
    temperature_series: dict[str, ExposureSeries]
    pm25_series: dict[str, ExposureSeries]
    sets: list[MatchedSet]
    cells: list[GridCell]
    zones: list[Zone]
    membership: list[tuple[str, str]] = field(default_factory=list)
    temperature_window: WindowSpec = WindowSpec(TEMPERATURE, 1)
    pm25_window: WindowSpec = WindowSpec(PM25, 3)


def linear_truth(slope_t: float, slope_a: float, gamma: float, **kwargs) -> TruthSpec:
    """Truth with linear main effects and a product interaction."""
    return TruthSpec(
        f=lambda t: slope_t * np.asarray(t, dtype=float),
        g=lambda a: slope_a * np.asarray(a, dtype=float),
        h=lambda t, a: gamma * np.asarray(t, dtype=float) * np.asarray(a, dtype=float),
        **kwargs,
    )


def _season_dates(year: int, months: tuple[int, int], lookback: int) -> list[Date]:
    start = Date(year, months[0], 1) - timedelta(days=lookback)
    end = Date(year, months[1], calendar.monthrange(year, months[1])[1])
    return [start + timedelta(days=k) for k in range((end - start).days + 1)]


def _simulate_series(truth: TruthSpec, rng: np.random.Generator, dates: list[Date]):
    """One zone's daily temperature and pm25 values over ``dates``."""
    n = len(dates)
    doy = np.array([d.timetuple().tm_yday for d in dates], dtype=float)
    # gentle mid-summer hump
    t_mu = truth.t_mean + truth.t_season_amp * np.sin((doy - 150.0) / 130.0 * np.pi)
    eps = rng.standard_normal((n, 2))
    e_t = eps[:, 0]
    e_a = truth.cross_corr * eps[:, 0] + np.sqrt(1.0 - truth.cross_corr**2) * eps[:, 1]
    x_t = np.empty(n)
    x_a = np.empty(n)
    x_t[0] = e_t[0] * truth.t_noise_sd / np.sqrt(1.0 - truth.t_ar**2)
    x_a[0] = e_a[0] * truth.a_noise_sd / np.sqrt(1.0 - truth.a_ar**2)
    for k in range(1, n):
        x_t[k] = truth.t_ar * x_t[k - 1] + truth.t_noise_sd * e_t[k]
        x_a[k] = truth.a_ar * x_a[k - 1] + truth.a_noise_sd * e_a[k]
    temp = t_mu + x_t
    pm = np.maximum(truth.a_mean + x_a, 0.0)
    return temp, pm


def generate(truth: TruthSpec, n_events: int) -> SyntheticData:
    """Simulate exposure series and ``n_events`` matched sets.

    Deterministic for a given ``truth.seed``. Events are emitted alongside
    the series (and a one-cell-per-zone grid) in the shapes the linkage and
    design modules consume, plus the already-joined matched sets.
    """
    rng = np.random.default_rng(np.random.SeedSequence(truth.seed))
    zone_ids = [f"z{k:03d}" for k in range(truth.n_zones)]
    zones = []
    cells = []
    membership = []
    for k, zid in enumerate(zone_ids):
        lat = 32.0 + 0.2 * (k % 25)
        lon = -110.0 + 0.5 * (k // 25) + 0.01 * k
        cid = f"c{k:03d}"
        cells.append(GridCell(cid, lat, lon))
        zones.append(Zone(zid, lat, lon, frozenset({cid})))
        membership.append((zid, cid))

    lookback = max(truth.temperature_window_days, truth.pm25_window_days) + 3
    temp_series: dict[str, ExposureSeries] = {}
    pm_series: dict[str, ExposureSeries] = {}
    per_zone_windows: dict[str, tuple[list[Date], np.ndarray, np.ndarray]] = {}
    for zid in zone_ids:
        seasons = [_season_dates(year, truth.season_months, lookback) for year in truth.years]
        temps, pms = zip(*(_simulate_series(truth, rng, dates) for dates in seasons))
        dates_all = [d for dates in seasons for d in dates]
        temp = dict(zip(dates_all, np.concatenate(temps).tolist()))
        temp_series[zid] = ExposureSeries(zid, TEMPERATURE, temp)
        pm_series[zid] = ExposureSeries(zid, PM25, dict(zip(dates_all, np.concatenate(pms).tolist())))
        # one season's days are contiguous; windows never span two seasons
        per_zone_windows[zid] = (
            dates_all,
            np.concatenate([trailing_mean(t, truth.temperature_window_days) for t in temps]),
            np.concatenate([trailing_mean(a, truth.pm25_window_days) for a in pms]),
        )

    strata = _enumerate_strata(truth, zone_ids, per_zone_windows)
    cums = [np.cumsum(s["probs"]) for s in strata]

    events: list[Event] = []
    sets: list[MatchedSet] = []
    which = rng.integers(0, len(strata), size=n_events)
    u = rng.uniform(size=n_events)
    for i in range(n_events):
        st = strata[int(which[i])]
        cum = cums[int(which[i])]
        pos = int(np.searchsorted(cum, u[i] * cum[-1], side="right"))
        pos = min(pos, len(st["dates"]) - 1)
        subject = f"s{i:06d}"
        case_date = st["dates"][pos]
        events.append(Event(subject, st["zone"], case_date))
        rows = [
            DayRecord(
                date=st["dates"][j],
                is_case=(j == pos),
                temperature=float(st["t"][j]),
                pm25_window=float(st["a"][j]),
            )
            for j in range(len(st["dates"]))
        ]
        sets.append(MatchedSet(subject, rows))

    return SyntheticData(
        events=events,
        temperature_series=temp_series,
        pm25_series=pm_series,
        sets=sets,
        cells=cells,
        zones=zones,
        membership=membership,
        temperature_window=WindowSpec(TEMPERATURE, truth.temperature_window_days),
        pm25_window=WindowSpec(PM25, truth.pm25_window_days),
    )


def _enumerate_strata(truth: TruthSpec, zone_ids, per_zone_windows):
    """All (zone, year, month, weekday) strata with windowed covariates and
    case-day selection probabilities."""
    strata = []
    for zid in zone_ids:
        dates_all, t_win, a_win = per_zone_windows[zid]
        index = {d: k for k, d in enumerate(dates_all)}
        for year in truth.years:
            for month in range(truth.season_months[0], truth.season_months[1] + 1):
                for weekday in range(7):
                    days = [
                        d for d in dates_all
                        if d.year == year and d.month == month and d.weekday() == weekday
                    ]
                    if len(days) < 2:
                        continue
                    idx = [index[d] for d in days]
                    t = t_win[idx]
                    a = a_win[idx]
                    if np.any(np.isnan(t)) or np.any(np.isnan(a)):
                        continue
                    lam = (
                        np.asarray(truth.f(t), dtype=float)
                        + np.asarray(truth.g(a), dtype=float)
                        + np.asarray(truth.h(t, a), dtype=float)
                    )
                    if not np.all(np.isfinite(lam)):
                        raise ValueError(
                            "truth functions are not finite on the generated exposure range"
                        )
                    lam = lam - lam.max()
                    p = np.exp(lam)
                    strata.append({"zone": zid, "dates": days, "t": t, "a": a, "probs": p})
    if not strata:
        raise ValueError("no usable strata: every month-weekday cell is degenerate")
    return strata


def brute_force_set_probability(beta, case_row, control_rows) -> np.ndarray:
    """Direct softmax for one set, case row first, with no stabilization.

    Intended as an independent oracle for the stabilized likelihood; only
    meaningful while |x . beta| stays at moderate magnitudes (<= 30 or so).
    """
    beta = np.asarray(beta, dtype=float)
    rows = np.vstack([np.asarray(case_row, dtype=float), np.atleast_2d(control_rows)])
    weights = np.exp(rows @ beta)
    return weights / weights.sum()
