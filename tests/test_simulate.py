import sys
from pathlib import Path

import numpy as np
import pytest

from casecross.clr import ConditionalLikelihood, fit_mle
from casecross.design import MatchedSet, build_matched_sets
from casecross.exposure import trailing_mean
from casecross.simulate import (
    TruthSpec,
    _season_days,
    brute_force_set_probability,
    generate,
    linear_truth,
)
from casecross.splines import design_matrix, fit_model_basis

sys.path.insert(0, str(Path(__file__).resolve().parent))

from per_day import by_day, events_of, rows_of, same_sets, set_objects  # noqa: E402

COLUMNS = ("subject_id", "set_index", "day", "is_case", "temperature", "pm25_window")


def _identical(a, b):
    """Same dtype and same values, floats compared bit for bit."""
    same = a.tolist() == b.tolist() if a.dtype == object else a.tobytes() == b.tobytes()
    return a.dtype == b.dtype and a.shape == b.shape and same


def _reference_series(truth, rng, days):
    """One zone's series over one season, its AR(1) recursions stepped one
    day at a time on scalars."""
    n = days.size
    doy = (days - days.astype("datetime64[Y]")).astype(int) + 1.0
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
    return t_mu + x_t, np.maximum(truth.a_mean + x_a, 0.0)


def _per_stratum_reference(truth, n_events):
    """The generator as a per-date scan: each (zone, year, month, weekday)
    stratum collects its days from the zone's dates, and each event draws its
    case day with ``searchsorted`` on the stratum's cumulative weights."""
    rng = np.random.default_rng(np.random.SeedSequence(truth.seed))
    seasons = [_season_days(truth, year).tolist() for year in truth.years]
    dates = [d for season in seasons for d in season]
    series, strata = {}, []
    for k in range(truth.n_zones):
        zid = f"z{k:03d}"
        sims = [_reference_series(truth, rng, np.array(s, dtype="datetime64[D]")) for s in seasons]
        series[zid] = tuple(dict(zip(dates, np.concatenate(x).tolist())) for x in zip(*sims))
        t_win = np.concatenate([trailing_mean(t, truth.temperature_window_days) for t, _ in sims])
        a_win = np.concatenate([trailing_mean(a, truth.pm25_window_days) for _, a in sims])
        for year in truth.years:
            for month in range(truth.season_months[0], truth.season_months[1] + 1):
                for weekday in range(7):
                    idx = [
                        j for j, d in enumerate(dates)
                        if d.year == year and d.month == month and d.weekday() == weekday
                    ]
                    t, a = t_win[idx], a_win[idx]
                    lam = truth.f(t) + truth.g(a) + truth.h(t, a)
                    cum = np.cumsum(np.exp(lam - lam.max()))
                    strata.append((zid, [dates[j] for j in idx], t, a, cum))
    which = rng.integers(0, len(strata), size=n_events)
    u = rng.uniform(size=n_events)
    events, sets = [], []
    for i in range(n_events):
        zid, days, t, a, cum = strata[which[i]]
        pos = min(int(np.searchsorted(cum, u[i] * cum[-1], side="right")), len(days) - 1)
        events.append((f"s{i:06d}", zid, days[pos]))
        sets.append([(days[j], j == pos, t[j], a[j]) for j in range(len(days))])
    rows = [r for s in sets for r in s]
    table = {
        "subject_id": np.array([e[0] for e in events], dtype=object),
        "set_index": np.repeat(np.arange(n_events), [len(s) for s in sets]),
        "day": np.array([r[0] for r in rows], dtype="datetime64[D]"),
        "is_case": np.array([r[1] for r in rows], dtype=bool),
        "temperature": np.array([r[2] for r in rows], dtype=float),
        "pm25_window": np.array([r[3] for r in rows], dtype=float),
    }
    return events, series, table


class TestGenerate:
    def test_deterministic_under_seed(self):
        truth = linear_truth(0.05, 0.02, 0.001, n_zones=10, seed=4)
        a = generate(truth, 200)
        b = generate(truth, 200)
        assert events_of(a.events) == events_of(b.events)
        for name in ("temperature_series", "pm25_series"):
            ta, tb = getattr(a, name), getattr(b, name)
            assert ta.ids.tolist() == tb.ids.tolist() and ta.origin == tb.origin
            assert ta.values.tobytes() == tb.values.tobytes()

    def test_different_seed_differs(self):
        a = generate(linear_truth(0.05, 0.02, 0.001, n_zones=10, seed=4), 200)
        b = generate(linear_truth(0.05, 0.02, 0.001, n_zones=10, seed=5), 200)
        assert [e.case_date for e in events_of(a.events)] != [e.case_date for e in events_of(b.events)]

    def test_series_respect_invariants(self):
        data = generate(TruthSpec(n_zones=8, seed=1), 100)
        # NaN only between seasons: one season here, so none at all
        assert np.all(data.pm25_series.values >= 0)
        assert np.all(np.isfinite(data.temperature_series.values))

    def test_events_in_season_with_window_coverage(self):
        truth = TruthSpec(n_zones=8, seed=2)
        data = generate(truth, 300)
        for ev in events_of(data.events):
            assert 6 <= ev.case_date.month <= 9
        # the emitted series join cleanly through the real pipeline
        sets, drops = build_matched_sets(
            data.events,
            data.temperature_series,
            data.pm25_series,
            data.temperature_window_days,
            data.pm25_window_days,
        )
        assert drops == []
        assert len(sets) == 300

    def test_prejoined_sets_match_pipeline_join(self):
        truth = linear_truth(0.05, 0.02, 0.001, n_zones=6, seed=3)
        data = generate(truth, 120)
        sets, _ = build_matched_sets(
            data.events,
            data.temperature_series,
            data.pm25_series,
            data.temperature_window_days,
            data.pm25_window_days,
        )
        # both sides window through exposure.trailing_mean: equal bit for bit
        for name in COLUMNS:
            assert np.array_equal(getattr(data.rows, name), getattr(sets, name)), name

    def test_null_truth_uniform_case_position(self):
        rows = generate(TruthSpec(n_zones=20, seed=6), 10000).rows
        # among 5-row sets the case should land on each position ~1/5
        size = np.bincount(rows.set_index)
        position = np.flatnonzero(rows.is_case) - (np.cumsum(size) - size)
        counts = np.bincount(position[size == 5], minlength=5)
        n5 = np.count_nonzero(size == 5)
        freq = counts / n5
        sd = np.sqrt(0.2 * 0.8 / n5)
        assert np.all(np.abs(freq - 0.2) < 3 * sd)

    def test_linear_slope_recovered(self):
        truth = linear_truth(0.08, 0.0, 0.0, seed=7)
        data = generate(truth, 5000)
        model = fit_model_basis(data.rows, "spline_linear", 1, 1)
        lik = ConditionalLikelihood.from_design_matrix(design_matrix(data.rows, model))
        fit = fit_mle(lik)
        assert abs(fit.point[0] - 0.08) < 3 * fit.sd[0]

    def test_bias_shrinks_with_sample_size(self):
        sizes = (1000, 20000)
        med_bias = {}
        for n in sizes:
            biases = []
            for rep in range(20):
                truth = linear_truth(0.06, 0.02, 0.0015, seed=1000 + rep)
                data = generate(truth, n)
                model = fit_model_basis(data.rows, "spline_linear", 1, 1)
                lik = ConditionalLikelihood.from_design_matrix(design_matrix(data.rows, model))
                fit = fit_mle(lik)
                biases.append(np.abs(fit.point - np.array([0.06, 0.02, 0.0015])))
            med_bias[n] = np.median(np.stack(biases), axis=0)
        assert np.all(med_bias[20000] < med_bias[1000])

    def test_invalid_cross_correlation(self):
        with pytest.raises(ValueError):
            TruthSpec(cross_corr=1.0)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"years": ()}, "years"),
            ({"years": (2012, 2012)}, "years"),
            ({"years": (2012, 2011, 2012)}, "years"),
            ({"season_months": (1, 12), "years": (2011, 2012)}, "years"),
            ({"season_months": (2, 12), "years": (2011, 2012), "temperature_window_days": 40}, "years"),
            ({"n_zones": 0}, "n_zones"),
        ],
    )
    def test_rejects_truths_the_generator_cannot_serve(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            TruthSpec(**kwargs)

    def test_sets_are_checked_objects_of_the_rows(self):
        data = generate(TruthSpec(n_zones=3, seed=5), 50)
        assert data.sets is data.rows
        assert all(isinstance(s, MatchedSet) for s in data.sets)
        assert same_sets(list(data.sets), set_objects(data.rows))
        assert data.rows[0] is data.rows[0]  # built once, on first read
        assert all(s.rows for s in data.sets)

    def test_interaction_detected_when_true_reri_is_05(self):
        # analytic RERI from the truth functions: solve for the product-term
        # coefficient that puts the true RERI at exactly 0.05
        from casecross.clr import PriorSpec, SamplerConfig, fit_bayes
        from casecross.effects import ContrastLevels, reri

        s_t, s_a = 0.05, 0.02
        t0, t1, a0, a1 = 28.0, 35.0, 9.0, 14.0

        def true_reri(g):
            or10 = np.exp(s_t * (t1 - t0) + g * (t1 * a0 - t0 * a0))
            or01 = np.exp(s_a * (a1 - a0) + g * (t0 * a1 - t0 * a0))
            or11 = np.exp(s_t * (t1 - t0) + s_a * (a1 - a0) + g * (t1 * a1 - t0 * a0))
            return or11 - or10 - or01 + 1.0

        lo, hi = 0.0, 0.01
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if true_reri(mid) < 0.05 else (lo, mid)
        gamma = 0.5 * (lo + hi)
        assert true_reri(gamma) == pytest.approx(0.05, abs=1e-10)

        truth = linear_truth(
            s_t, s_a, gamma, n_zones=30, seed=314,
            a_noise_sd=4.0, a_ar=0.35, t_noise_sd=3.5,
        )
        data = generate(truth, 30000)
        model = fit_model_basis(data.rows, "spline_linear", 1, 1)
        lik = ConditionalLikelihood.from_design_matrix(design_matrix(data.rows, model))
        fit = fit_bayes(
            lik,
            PriorSpec.for_model("linear_interaction"),
            SamplerConfig(chains=2, warmup=500, draws=1000, seed=1314),
        )
        levels = ContrastLevels(t0=t0, t1=t1, a0=a0, a1=a1, provenance="user")
        est = reri(fit, model, levels)
        assert float((est.per_draw > 0).mean()) > 0.9


class TestGeneratorExactness:
    """``generate`` equals the per-stratum scan bit for bit."""

    @pytest.mark.parametrize(
        "truth, n_events",
        [
            (TruthSpec(), 600),
            (linear_truth(0.06, 0.02, 0.0015, n_zones=25, seed=50_000), 800),
            (linear_truth(0.06, 0.02, 0.0015, n_zones=6, years=(2008, 2009, 2010), seed=3), 900),
            (linear_truth(0.08, 0.03, 0.002, n_zones=5, temperature_window_days=1,
                          pm25_window_days=1, seed=4), 300),
            (linear_truth(0.08, 0.03, 0.002, n_zones=5, temperature_window_days=3,
                          pm25_window_days=1, seed=5), 300),
            (linear_truth(0.08, 0.03, 0.002, n_zones=5, temperature_window_days=7,
                          pm25_window_days=7, seed=6), 300),
            (TruthSpec(
                f=lambda t: 0.5 * np.sin(t / 3.0),
                g=lambda a: 0.3 * np.log1p(a),
                h=lambda t, a: 0.01 * a * np.exp(-np.abs(t - 30.0) / 5.0),
                n_zones=6, seed=7,
            ), 500),
            (linear_truth(0.06, 0.02, 0.0015, n_zones=3, season_months=(1, 12), seed=8), 500),
            (linear_truth(0.06, 0.02, 0.0015, n_zones=4, seed=9), 0),
        ],
        ids=["default", "replicate", "three-seasons", "windows-1-1", "windows-3-1",
             "windows-7-7", "nonlinear", "whole-year", "no-events"],
    )
    def test_matches_per_stratum_reference(self, truth, n_events):
        data = generate(truth, n_events)
        events, series, table = _per_stratum_reference(truth, n_events)
        assert [c.dtype for c in data.events] == [np.dtype(object), np.dtype(object), np.dtype("datetime64[D]")]
        assert events_of(data.events) == events
        temps, pms = by_day(data.temperature_series), by_day(data.pm25_series)
        assert list(temps) == list(pms) == list(series)
        for zid, (temp, pm) in series.items():
            assert temps[zid] == temp
            assert pms[zid] == pm
        for name in COLUMNS:
            assert _identical(getattr(data.rows, name), table[name]), name
        pre = rows_of(list(data.sets))  # the objects -> table path
        for name in COLUMNS:
            assert _identical(getattr(pre, name), getattr(data.rows, name)), name


class TestBruteForceOracle:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            rows = rng.normal(size=(4, 3))
            beta = rng.normal(size=3)
            p = brute_force_set_probability(beta, rows[0], rows[1:])
            assert p.shape == (4,)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p > 0)

    def test_matches_softmax_formula(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        beta = np.array([0.5, -0.25])
        p = brute_force_set_probability(beta, rows[0], rows[1:])
        e = np.exp(rows @ beta)
        assert np.allclose(p, e / e.sum(), rtol=1e-15)

    def test_uniform_at_null(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(5, 4))
        p = brute_force_set_probability(np.zeros(4), rows[0], rows[1:])
        assert np.allclose(p, 0.2, rtol=1e-15)
