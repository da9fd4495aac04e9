import numpy as np
import pytest

from casecross.clr import ConditionalLikelihood, fit_mle
from casecross.design import MatchedRows, build_matched_sets
from casecross.simulate import (
    TruthSpec,
    brute_force_set_probability,
    generate,
    linear_truth,
)
from casecross.splines import design_matrix, fit_model_basis


class TestGenerate:
    def test_deterministic_under_seed(self):
        truth = linear_truth(0.05, 0.02, 0.001, n_zones=10, seed=4)
        a = generate(truth, 200)
        b = generate(truth, 200)
        assert [e.case_date for e in a.events] == [e.case_date for e in b.events]
        za = a.temperature_series["z003"].values
        zb = b.temperature_series["z003"].values
        assert za == zb

    def test_different_seed_differs(self):
        a = generate(linear_truth(0.05, 0.02, 0.001, n_zones=10, seed=4), 200)
        b = generate(linear_truth(0.05, 0.02, 0.001, n_zones=10, seed=5), 200)
        assert [e.case_date for e in a.events] != [e.case_date for e in b.events]

    def test_series_respect_invariants(self):
        data = generate(TruthSpec(n_zones=8, seed=1), 100)
        for s in data.pm25_series.values():
            assert all(v >= 0 for v in s.values.values())
        for s in data.temperature_series.values():
            assert all(np.isfinite(v) for v in s.values.values())

    def test_events_in_season_with_window_coverage(self):
        truth = TruthSpec(n_zones=8, seed=2)
        data = generate(truth, 300)
        for ev in data.events:
            assert 6 <= ev.case_date.month <= 9
        # the emitted series join cleanly through the real pipeline
        sets, drops = build_matched_sets(
            data.events,
            data.temperature_series,
            data.pm25_series,
            data.temperature_window,
            data.pm25_window,
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
            data.temperature_window,
            data.pm25_window,
        )
        # both sides window through exposure.trailing_mean: equal bit for bit
        pre = MatchedRows.from_sets(data.sets)
        for name in ("subject_id", "set_index", "day", "is_case", "temperature", "pm25_window"):
            assert np.array_equal(getattr(pre, name), getattr(sets, name)), name

    def test_null_truth_uniform_case_position(self):
        data = generate(TruthSpec(n_zones=20, seed=6), 10000)
        # among 5-row sets the case should land on each position ~1/5
        counts = np.zeros(5)
        n5 = 0
        for s in data.sets:
            if len(s.rows) == 5:
                n5 += 1
                counts[[r.is_case for r in s.rows].index(True)] += 1
        freq = counts / n5
        sd = np.sqrt(0.2 * 0.8 / n5)
        assert np.all(np.abs(freq - 0.2) < 3 * sd)

    def test_linear_slope_recovered(self):
        truth = linear_truth(0.08, 0.0, 0.0, seed=7)
        data = generate(truth, 5000)
        model = fit_model_basis(data.sets, "spline_linear", 1, 1)
        lik = ConditionalLikelihood.from_design_matrix(design_matrix(data.sets, model))
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
                model = fit_model_basis(data.sets, "spline_linear", 1, 1)
                lik = ConditionalLikelihood.from_design_matrix(design_matrix(data.sets, model))
                fit = fit_mle(lik)
                biases.append(np.abs(fit.point - np.array([0.06, 0.02, 0.0015])))
            med_bias[n] = np.median(np.stack(biases), axis=0)
        assert np.all(med_bias[20000] < med_bias[1000])

    def test_invalid_cross_correlation(self):
        with pytest.raises(ValueError):
            TruthSpec(cross_corr=1.0)

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
        model = fit_model_basis(data.sets, "spline_linear", 1, 1)
        lik = ConditionalLikelihood.from_design_matrix(design_matrix(data.sets, model))
        fit = fit_bayes(
            lik,
            PriorSpec.for_model("linear_interaction"),
            SamplerConfig(chains=2, warmup=500, draws=1000, seed=1314),
        )
        levels = ContrastLevels(t0=t0, t1=t1, a0=a0, a1=a1, provenance="user")
        est = reri(fit, model, levels)
        assert float((est.per_draw > 0).mean()) > 0.9


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
