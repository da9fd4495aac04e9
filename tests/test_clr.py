import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from casecross import clr, mcmc
from casecross.clr import (
    ConditionalLikelihood,
    PriorSpec,
    SamplerConfig,
    fit_bayes,
    fit_mle,
    gradient,
    hessian,
    log_likelihood,
)
from casecross.config import load_config
from casecross.errors import SeparationError
from casecross.pipeline import run
from casecross.simulate import brute_force_set_probability, generate, linear_truth
from casecross.splines import design_matrix, fit_model_basis
from per_day import pairs_likelihood


def random_instance(rng, n_sets=10, max_rows=5, dim=4, scale=0.6):
    sets = []
    for _ in range(n_sets):
        m = int(rng.integers(2, max_rows + 1))
        rows = rng.normal(size=(m, dim))
        sets.append((rows[0], rows[1:]))
    beta = rng.normal(size=dim) * scale
    return pairs_likelihood(sets), sets, beta


def oracle_log_likelihood(beta, sets):
    return sum(
        float(np.log(brute_force_set_probability(beta, case, ctrl)[0]))
        for case, ctrl in sets
    )


class TestLogLikelihood:
    def test_null_beta_uniform_probability(self):
        rng = np.random.default_rng(0)
        case = rng.normal(size=3)
        ctrl = rng.normal(size=(4, 3))
        lik = pairs_likelihood([(case, ctrl)])
        assert log_likelihood(np.zeros(3), lik) == pytest.approx(np.log(1 / 5), abs=1e-14)

    def test_identical_rows_cancel_for_any_beta(self):
        row = np.array([2.0, -1.5, 0.25])
        lik = pairs_likelihood([(row, np.tile(row, (4, 1)))])
        for beta in (np.zeros(3), np.array([3.0, 2.0, -8.0]), np.array([100.0, -50.0, 7.0])):
            assert log_likelihood(beta, lik) == pytest.approx(np.log(1 / 5), abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            lik, sets, beta = random_instance(rng)
            got = log_likelihood(beta, lik)
            want = oracle_log_likelihood(beta, sets)
            assert got == pytest.approx(want, rel=1e-12)

    def test_stable_at_large_linear_predictors(self):
        case = np.array([350.0])
        ctrl = np.array([[-350.0]])
        lik = pairs_likelihood([(case, ctrl)])
        ll = log_likelihood(np.array([2.0]), lik)  # |x.beta| = 700
        assert np.isfinite(ll)
        assert ll == pytest.approx(0.0, abs=1e-300)

    def test_alpha_shift_invariance_bitwise(self):
        # dyadic covariates and shifts add without rounding, and the
        # within-set differencing then removes the shift structurally
        rng = np.random.default_rng(2)
        for _ in range(20):
            dim = int(rng.integers(1, 6))
            orig, shifted = [], []
            for _ in range(int(rng.integers(1, 8))):
                m = int(rng.integers(2, 6))
                rows = rng.integers(-512, 512, size=(m, dim)) / 64.0
                c = rng.integers(-512, 512, size=dim) / 64.0
                orig.append((rows[0], rows[1:]))
                shifted.append((rows[0] + c, rows[1:] + c))
            beta = rng.normal(size=dim)
            l1 = log_likelihood(beta, pairs_likelihood(orig))
            l2 = log_likelihood(beta, pairs_likelihood(shifted))
            assert l1 == l2  # bit-level

    def test_concavity(self):
        rng = np.random.default_rng(3)
        lik, _, _ = random_instance(rng, n_sets=8)
        for _ in range(30):
            b1 = rng.normal(size=4)
            b2 = rng.normal(size=4)
            lam = float(rng.uniform())
            mid = log_likelihood(lam * b1 + (1 - lam) * b2, lik)
            chord = lam * log_likelihood(b1, lik) + (1 - lam) * log_likelihood(b2, lik)
            assert mid >= chord - 1e-10

    def test_non_finite_rejected(self):
        lik, _, beta = random_instance(np.random.default_rng(4))
        beta[0] = np.nan
        with pytest.raises(ValueError):
            log_likelihood(beta, lik)
        with pytest.raises(ValueError):
            pairs_likelihood([(np.array([np.inf]), np.array([[0.0]]))])


class TestDerivatives:
    def test_gradient_at_zero_is_case_minus_row_mean(self):
        rng = np.random.default_rng(5)
        case = rng.normal(size=3)
        ctrl = rng.normal(size=(4, 3))
        lik = pairs_likelihood([(case, ctrl)])
        rows = np.vstack([case, ctrl])
        want = case - rows.mean(axis=0)
        assert np.allclose(gradient(np.zeros(3), lik), want, atol=1e-14)

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            lik, _, beta = random_instance(rng)
            g = gradient(beta, lik)
            h = 1e-6
            fd = np.empty_like(g)
            for j in range(beta.size):
                e = np.zeros_like(beta)
                e[j] = h
                fd[j] = (log_likelihood(beta + e, lik) - log_likelihood(beta - e, lik)) / (2 * h)
            assert np.abs(g - fd).max() / max(1.0, np.abs(g).max()) < 1e-6

    def test_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            lik, _, beta = random_instance(rng)
            H = hessian(beta, lik)
            h = 1e-6
            fd = np.empty_like(H)
            for j in range(beta.size):
                e = np.zeros_like(beta)
                e[j] = h
                fd[:, j] = (gradient(beta + e, lik) - gradient(beta - e, lik)) / (2 * h)
            assert np.abs(H - fd).max() / max(1.0, np.abs(H).max()) < 1e-5

    def test_hessian_symmetric_negative_semidefinite(self):
        rng = np.random.default_rng(8)
        lik, _, beta = random_instance(rng, n_sets=15)
        H = hessian(beta, lik)
        assert np.allclose(H, H.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(H)
        assert np.all(eigs <= 1e-10)


class TestFitMle:
    def test_recovers_generating_slopes(self):
        truth = linear_truth(0.08, 0.03, 0.002, seed=11)
        data = generate(truth, 5000)
        model = fit_model_basis(data.rows, "spline_linear", 1, 1)
        lik = ConditionalLikelihood.from_design_matrix(design_matrix(data.rows, model))
        fit = fit_mle(lik)
        assert fit.diagnostics.converged
        want = np.array([0.08, 0.03, 0.002])
        z = np.abs(fit.point - want) / fit.sd
        assert np.all(z < 3.0)

    def test_flat_likelihood_zero_information(self):
        row = np.array([1.0, 2.0])
        lik = pairs_likelihood([(row, np.tile(row, (3, 1)))] * 5)
        fit = fit_mle(lik)
        assert np.array_equal(fit.point, np.zeros(2))
        assert fit.diagnostics.zero_information
        assert np.isnan(fit.sd).all()

    def test_perfect_separation_raises_with_block(self):
        sets = [(np.array([1.0, 0.3]), np.array([[0.0, 0.3]]))] * 4
        lik = pairs_likelihood(
            sets, labels=("exposure", "other"),
            blocks=(("exposure", slice(0, 1)), ("other", slice(1, 2))),
        )
        with pytest.raises(SeparationError) as err:
            fit_mle(lik)
        assert err.value.block == "exposure"

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        sets = []
        for _ in range(40):
            m = int(rng.integers(3, 6))
            rows = rng.normal(size=(m, 3)) * 0.8
            sets.append((rows[0], rows[1:]))
        fit1 = fit_mle(pairs_likelihood(sets))
        perm = [sets[i] for i in rng.permutation(len(sets))]
        perm = [(c, ct[::-1].copy()) for c, ct in perm]  # also reverse controls
        fit2 = fit_mle(pairs_likelihood(perm))
        assert np.allclose(fit1.point, fit2.point, atol=1e-7)

    def test_fits_build_no_strata(self, monkeypatch):
        # both fits score the likelihood's one tensor, in fit units
        rng = np.random.default_rng(13)
        lik, _, _ = random_instance(rng, n_sets=30)
        init, built = ConditionalLikelihood.__init__, []

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ConditionalLikelihood, "__init__", counted)
        fit_mle(lik)
        fit_bayes(lik, PriorSpec(sd={}, default_sd=1.0), SamplerConfig(chains=2, warmup=10, draws=10, seed=1))
        assert built == []

    def test_gradient_norm_within_tolerance(self):
        rng = np.random.default_rng(10)
        lik, _, _ = random_instance(rng, n_sets=30)
        fit = fit_mle(lik)
        assert fit.diagnostics.gradient_norm <= 1e-8


class TestFitBayes:
    def _sharp_likelihood(self):
        truth = linear_truth(0.08, 0.03, 0.002, seed=12)
        data = generate(truth, 5000)
        model = fit_model_basis(data.rows, "spline_linear", 1, 1)
        return ConditionalLikelihood.from_design_matrix(design_matrix(data.rows, model))

    def test_flat_likelihood_recovers_prior(self):
        row = np.array([1.0, 2.0])
        sets = [(row + k, np.tile(row + k, (3, 1))) for k in range(6)]
        lik = pairs_likelihood(sets)
        prior = PriorSpec(sd={}, default_sd=1.0)
        fit = fit_bayes(lik, prior, SamplerConfig(chains=4, warmup=500, draws=1500, seed=31))
        d = fit.diagnostics
        assert np.all(np.abs(fit.point) < 3 * d.mcse)
        sd = fit.draws.std(axis=0, ddof=1)
        assert np.all(np.abs(sd - 1.0) < 0.1)

    def test_posterior_close_to_mle_on_sharp_likelihood(self, caplog):
        lik = self._sharp_likelihood()
        mle = fit_mle(lik)
        with caplog.at_level("WARNING", logger="casecross.clr"):
            fit = fit_bayes(
                lik,
                PriorSpec.for_model("linear_interaction"),
                SamplerConfig(chains=4, warmup=600, draws=800, seed=77),
            )
        assert np.all(np.abs(fit.point - mle.point) < 0.5 * mle.sd)
        assert np.all(fit.diagnostics.rhat <= 1.05)
        assert fit.diagnostics.converged
        assert not caplog.records

    def test_same_seed_bit_identical(self):
        lik = self._sharp_likelihood()
        cfg = SamplerConfig(chains=2, warmup=200, draws=200, seed=5)
        prior = PriorSpec.for_model("linear_interaction")
        f1 = fit_bayes(lik, prior, cfg)
        f2 = fit_bayes(lik, prior, cfg)
        assert np.array_equal(f1.draws, f2.draws)
        assert np.array_equal(f1.point, f2.point)

    def test_different_seed_different_draws(self):
        lik = self._sharp_likelihood()
        prior = PriorSpec.for_model("linear_interaction")
        f1 = fit_bayes(lik, prior, SamplerConfig(chains=2, warmup=200, draws=200, seed=5))
        f2 = fit_bayes(lik, prior, SamplerConfig(chains=2, warmup=200, draws=200, seed=6))
        assert not np.array_equal(f1.draws, f2.draws)

    def test_ess_floor_on_sharp_likelihood(self):
        lik = self._sharp_likelihood()
        cfg = SamplerConfig(chains=2, warmup=500, draws=500, seed=9)
        fit = fit_bayes(lik, PriorSpec.for_model("linear_interaction"), cfg)
        d = fit.diagnostics
        assert d.ess.min() >= 0.25 * cfg.chains * cfg.draws
        assert d.pareto_k <= 0.7
        assert len(d.acceptance_per_chain) == cfg.chains
        assert d.log_post_evals == cfg.chains * (cfg.warmup + cfg.draws + 1)
        assert d.sampler_s > 0

    def test_ess_per_evaluation_on_shipped_main(self, tmp_path, caplog):
        # the shipped main analysis at its own sampler settings; a t(5)
        # proposal throughout reaches a min ESS of about half the draws,
        # below this gate
        cfg, _ = load_config(Path(__file__).resolve().parent.parent / "configs" / "main.json")
        with caplog.at_level("INFO", logger="casecross.pipeline"):
            d = run(replace(cfg, output_dir=str(tmp_path)), upto="fit").fit.diagnostics
        assert d.log_post_evals == cfg.chains * (cfg.warmup + cfg.draws + 1)
        assert d.ess.min() >= 0.65 * cfg.chains * cfg.draws
        assert len(d.proposal_df_per_chain) == cfg.chains
        assert set(d.proposal_df_per_chain) <= set(mcmc.TAILS)
        df_text = " ".join(map(str, d.proposal_df_per_chain))
        assert [r for r in caplog.records if r.getMessage().endswith(f"proposal df per chain {df_text}")]

    def test_separated_sets_sample_within_prior_scale(self, caplog):
        # the likelihood alone has no maximum; the Gaussian prior bounds
        # the posterior, whose mode Newton finds as for any other data
        sets = [(np.array([1.0, 0.3]), np.array([[0.0, 0.3]]))] * 4
        prior = PriorSpec()
        with pytest.raises(SeparationError):
            fit_mle(pairs_likelihood(sets))
        cfg = SamplerConfig(chains=2, warmup=200, draws=800, seed=3)
        with caplog.at_level("WARNING", logger="casecross.clr"):
            fit = fit_bayes(pairs_likelihood(sets), prior, cfg)
        assert np.all(np.isfinite(fit.draws))
        assert np.all(np.abs(fit.point) < prior.default_sd)
        assert np.all(fit.sd < 1.5 * prior.default_sd)
        assert fit.point[0] > 0     # the case rows' side
        assert fit.diagnostics.converged
        assert not caplog.records

    def test_non_convergence_logged_with_max_rhat(self, caplog, monkeypatch):
        run_chain = mcmc.run_chain
        shift = iter(range(10))

        def shifted_chain(*args, **kwargs):
            result = run_chain(*args, **kwargs)
            result.draws += next(shift)
            return result

        monkeypatch.setattr(mcmc, "run_chain", shifted_chain)
        cfg = SamplerConfig(chains=2, warmup=100, draws=100, seed=1)
        with caplog.at_level("WARNING", logger="casecross.clr"):
            fit = fit_bayes(self._sharp_likelihood(), PriorSpec.for_model("linear_interaction"), cfg)
        d = fit.diagnostics
        assert not d.converged
        [record] = [r for r in caplog.records if "did not converge" in r.message]
        assert record.levelname == "WARNING"
        assert f"{float(d.rhat.max()):.4f}" in record.message

    def test_narrow_proposal_flagged_by_pareto_k(self, caplog, monkeypatch):
        # shrink the Laplace scale tenfold: the t proposal then misses the
        # posterior's bulk and the importance weights grow a heavy tail
        newton = clr._newton

        def narrow(*args, **kwargs):
            mode, cov, diag = newton(*args, **kwargs)
            return mode, cov / 100.0, diag

        monkeypatch.setattr(clr, "_newton", narrow)
        cfg = SamplerConfig(chains=2, warmup=200, draws=800, seed=4)
        with caplog.at_level("WARNING", logger="casecross.clr"):
            fit = fit_bayes(self._sharp_likelihood(), PriorSpec.for_model("linear_interaction"), cfg)
        k_hat = fit.diagnostics.pareto_k
        assert k_hat > 0.7
        [record] = [r for r in caplog.records if "Pareto k-hat" in r.message]
        assert record.levelname == "WARNING"
        assert f"{k_hat:.3f}" in record.message

    def test_sampler_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(chains=1, seed=1)
        with pytest.raises(ValueError):
            SamplerConfig(seed=None)
        with pytest.raises(ValueError, match="at least 0"):
            SamplerConfig(seed=-1)

    def test_prior_spec_validation(self):
        with pytest.raises(ValueError):
            PriorSpec(sd={"temperature": -1.0})
        for bad in (math.nan, math.inf, 0.0):
            with pytest.raises(ValueError, match="positive finite"):
                PriorSpec(sd={"temperature": bad})
            with pytest.raises(ValueError, match="positive finite"):
                PriorSpec(default_sd=bad)
