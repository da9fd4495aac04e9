"""Synthetic matched-set data with known ground-truth log-odds surfaces.

Exposure series follow per-zone AR(1) processes with cross-correlated
innovations and a seasonal mean ramp. Each synthetic subject is assigned a
(zone, year, month, weekday) stratum and its case day is drawn within the
stratum with probability proportional to exp(f + g + h) evaluated on the
windowed covariates - exactly the conditional model, so the stratified
regression estimand equals the generating truth by construction.

All strata, their days taken by the design's referent rule, form one padded
array, and every case day is drawn at once into one ``MatchedRows`` table,
``SyntheticData.rows``, and into the event columns ``SyntheticData.events``.
``.sets`` is that same table: per-set ``MatchedSet`` objects are built only
when one of its elements is read.

The module also houses the deliberately naive brute-force oracle used to
check the stabilized likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .design import MatchedRows, _stratum_days
from .exposure import DailyTable, GridCell, Zone, trailing_mean

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
        if self.n_zones < 1:
            raise ValueError(f"n_zones must be at least 1, got {self.n_zones}")
        years = sorted(self.years)
        if not years or len(set(years)) < len(years):
            raise ValueError(f"years must be non-empty and distinct, got {self.years}")
        if any(_season_days(self, y)[0] <= _season_days(self, x)[-1] for x, y in zip(years, years[1:])):
            raise ValueError(f"years {self.years}: a season's lookback reaches into an earlier season")


@dataclass
class SyntheticData:
    events: tuple[np.ndarray, np.ndarray, np.ndarray]   # subject_id, zone_id, case_day
    temperature_series: DailyTable
    pm25_series: DailyTable
    rows: MatchedRows
    cells: list[GridCell]
    zones: list[Zone]
    membership: list[tuple[str, str]] = field(default_factory=list)
    temperature_window_days: int = 1
    pm25_window_days: int = 3

    @property
    def sets(self) -> MatchedRows:
        """``rows`` itself, which also reads as a sequence of ``MatchedSet``."""
        return self.rows


def linear_truth(slope_t: float, slope_a: float, gamma: float, **kwargs) -> TruthSpec:
    """Truth with linear main effects and a product interaction."""
    return TruthSpec(
        f=lambda t: slope_t * np.asarray(t, dtype=float),
        g=lambda a: slope_a * np.asarray(a, dtype=float),
        h=lambda t, a: gamma * np.asarray(t, dtype=float) * np.asarray(a, dtype=float),
        **kwargs,
    )


def _season_days(truth: TruthSpec, year: int) -> np.ndarray:
    """The days of ``year``'s season, led by a lookback of the longest window + 3 days."""
    lo, hi = truth.season_months
    lookback = max(truth.temperature_window_days, truth.pm25_window_days) + 3
    return np.arange(np.datetime64(f"{year}-{lo:02d}-01") - lookback, np.datetime64(f"{year}-{hi:02d}") + 1)


def _simulate_series(truth: TruthSpec, rng: np.random.Generator, seasons: list[np.ndarray]):
    """Every zone's daily temperature and pm25 values over ``seasons``, as two
    lists of one (zones, days) array per season.

    Innovations are drawn zone by zone, season by season, day by day; the
    AR(1) recursions then step over days, on one value per (zone, season).
    """
    size = [season.size for season in seasons]
    longest = max(size)
    # (2, day, zone, season), each season padded to the longest
    eps = np.zeros((2, longest, truth.n_zones, len(seasons)))
    draws = rng.standard_normal((truth.n_zones, sum(size), 2))
    for j, block in enumerate(np.split(draws, np.cumsum(size)[:-1], axis=1)):
        eps[:, :size[j], :, j] = block.transpose(2, 1, 0)
    e_t = eps[0]
    e_a = truth.cross_corr * eps[0] + np.sqrt(1.0 - truth.cross_corr**2) * eps[1]
    x_t = np.empty_like(e_t)
    x_a = np.empty_like(e_a)
    x_t[0] = e_t[0] * truth.t_noise_sd / np.sqrt(1.0 - truth.t_ar**2)
    x_a[0] = e_a[0] * truth.a_noise_sd / np.sqrt(1.0 - truth.a_ar**2)
    for k in range(1, longest):
        x_t[k] = truth.t_ar * x_t[k - 1] + truth.t_noise_sd * e_t[k]
        x_a[k] = truth.a_ar * x_a[k - 1] + truth.a_noise_sd * e_a[k]
    temps, pms = [], []
    for j, days in enumerate(seasons):
        doy = (days - days.astype("datetime64[Y]")).astype(int) + 1.0
        # gentle mid-summer hump
        t_mu = truth.t_mean + truth.t_season_amp * np.sin((doy - 150.0) / 130.0 * np.pi)
        temps.append(t_mu + x_t[:size[j], :, j].T)
        pms.append(np.maximum(truth.a_mean + x_a[:size[j], :, j].T, 0.0))
    return temps, pms


def generate(truth: TruthSpec, n_events: int) -> SyntheticData:
    """Simulate exposure series and ``n_events`` matched sets.

    Deterministic for a given ``truth.seed``. Events are emitted alongside
    the series (and a one-cell-per-zone grid) in the shapes the linkage and
    design modules consume, plus the already-joined matched rows.
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

    seasons = [_season_days(truth, year) for year in truth.years]
    days = np.concatenate(seasons)
    temps, pms = _simulate_series(truth, rng, seasons)
    # one (zones, days) table per exposure, NaN between seasons
    origin = days.min()   # years may come in any order
    day_col = (days - origin).astype(int)
    temp, pm = (np.full((truth.n_zones, day_col.max() + 1), np.nan) for _ in range(2))
    temp[:, day_col], pm[:, day_col] = np.concatenate(temps, axis=1), np.concatenate(pms, axis=1)
    # a season's lookback covers its windows: no window read below spans two seasons
    t_win = trailing_mean(temp, truth.temperature_window_days)
    a_win = trailing_mean(pm, truth.pm25_window_days)

    # strata in zone, year, month, weekday order: a stratum's anchor is the
    # first of its weekday in the month, so its days are the anchor's weeks
    lo, hi = truth.season_months
    month = 12 * (np.array(truth.years)[:, np.newaxis] - 1970) + np.arange(lo - 1, hi)
    first = month.ravel().astype("datetime64[M]").astype("datetime64[D]")[:, np.newaxis]
    anchor = (first + (np.arange(7) - first.astype(int) - 3) % 7).ravel()  # 1970-01-01: Thursday
    stratum, _, day = _stratum_days(anchor)
    size = np.bincount(stratum, minlength=anchor.size)
    valid = np.arange(size.max()) < size[:, np.newaxis]
    padded = np.repeat(anchor[:, np.newaxis], size.max(), axis=1)
    padded[valid] = day  # the padding repeats the anchor: in season, and no new maximum
    t, a = (w[:, (padded - origin).astype(int)] for w in (t_win, a_win))  # (zones, strata, days)
    with np.errstate(over="ignore", invalid="ignore"):  # the check below raises instead
        lam = np.asarray(truth.f(t) + truth.g(a) + truth.h(t, a), dtype=float)
    if not np.all(np.isfinite(lam)):
        raise ValueError("truth functions are not finite on the generated exposure range")
    p = np.where(valid, np.exp(lam - lam.max(axis=2, keepdims=True)), 0.0)
    cum = np.cumsum(p, axis=2).reshape(-1, size.max())

    which = rng.integers(0, cum.shape[0], size=n_events)
    u = rng.uniform(size=n_events)
    zone, s = np.divmod(which, anchor.size)
    # searchsorted(side="right") of u * total in the stratum's cumulative sums
    pos = np.minimum((cum[which] <= (u * cum[which, -1])[:, np.newaxis]).sum(axis=1), size[s] - 1)

    subject = np.array([f"s{i:06d}" for i in range(n_events)], dtype=object)
    set_index, col = np.nonzero(valid[s])
    row_zone, row_s = zone[set_index], s[set_index]
    rows = MatchedRows(subject, set_index, padded[row_s, col], col == pos[set_index],
                       t[row_zone, row_s, col], a[row_zone, row_s, col])
    ids = np.array(zone_ids, dtype=object)
    return SyntheticData(
        events=(subject, ids[zone], padded[s, pos]),
        temperature_series=DailyTable(ids, origin, temp),
        pm25_series=DailyTable(ids, origin, pm),
        rows=rows,
        cells=cells,
        zones=zones,
        membership=membership,
        temperature_window_days=truth.temperature_window_days,
        pm25_window_days=truth.pm25_window_days,
    )


def brute_force_set_probability(beta, case_row, control_rows) -> np.ndarray:
    """Direct softmax for one set, case row first, with no stabilization.

    Intended as an independent oracle for the stabilized likelihood; only
    meaningful while |x . beta| stays at moderate magnitudes (<= 30 or so).
    """
    beta = np.asarray(beta, dtype=float)
    rows = np.vstack([np.asarray(case_row, dtype=float), np.atleast_2d(control_rows)])
    weights = np.exp(rows @ beta)
    return weights / weights.sum()
