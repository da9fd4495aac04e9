import math

import numpy as np
import pytest

from casecross.mcmc import (
    DF,
    TAILS,
    _sweep,
    _tail_scores,
    effective_sample_size,
    mcse_mean,
    pareto_k,
    run_chain,
    split_rhat,
)


def _std_normal_logpost(x):
    return -0.5 * (x**2).sum(axis=-1)


def _t3_logpost(x):
    # a multivariate t(3) target: tails heavier than any proposal in TAILS
    return -0.5 * (3 + x.shape[-1]) * np.log1p((x**2).sum(axis=-1) / 3)


def reference_chain(log_post, center, chol, rng, warmup, draws):
    """A one-call t(DF) chain: every proposal from t(DF), scored in one
    call, the sweep a loop over numpy scalars, the first ``warmup``
    iterations discarded. ``run_chain`` must return its draws and kept
    weights bit for bit whenever its chain keeps t(DF)."""
    dim = center.size
    n = warmup + draws + 1
    normal = rng.standard_normal((n, dim))
    chi2 = rng.chisquare(DF, n)
    log_u = np.log(rng.uniform(size=n - 1))
    points = center + np.sqrt(DF / chi2)[:, np.newaxis] * (normal @ chol.T)
    log_q = -0.5 * (DF + dim) * np.log1p((normal**2).sum(axis=1) / chi2)
    log_w = log_post(points) - log_q
    state = np.empty(n, dtype=np.intp)
    current = state[0] = 0
    for i in range(1, n):
        if log_u[i - 1] < log_w[i] - log_w[current]:
            current = i
        state[i] = current
    return points[state[warmup + 1:]], log_w[warmup + 1:]


def loop_ess(chains):
    """Effective sample size column by column and chain by chain, with the
    Geyer truncation as a scalar loop: the reference the vectorized
    ``effective_sample_size`` must match bit for bit."""
    half_n = chains.shape[1] // 2
    s = np.concatenate([chains[:, :half_n], chains[:, chains.shape[1] - half_n:]])
    m, n, d = s.shape
    total = m * n
    w = s.var(axis=1, ddof=1).mean(axis=0)
    var_plus = (n - 1) / n * w + s.mean(axis=1).var(axis=0, ddof=1)
    size = 1 << (2 * n - 1).bit_length()

    def autocov(x):
        f = np.fft.rfft(x - x.mean(), size)
        return np.fft.irfft(f * np.conj(f), size)[:n] / n

    ess = np.empty(d)
    for j in range(d):
        if var_plus[j] <= 0 or w[j] <= 0:
            ess[j] = float(total)
            continue
        acov = np.mean([autocov(s[c, :, j]) for c in range(m)], axis=0)
        rho = 1.0 - (w[j] - acov) / var_plus[j]
        rho[0] = 1.0
        pair_sum = 0.0
        prev = np.inf
        for k in range(n // 2):
            p = rho[2 * k] + rho[2 * k + 1]
            if p <= 0.0:
                break
            p = min(p, prev)
            prev = p
            pair_sum += p
        ess[j] = total / max(-1.0 + 2.0 * pair_sum, 1.0 / total)
    return ess


class TestDiagnostics:
    def test_rhat_near_one_for_matching_chains(self):
        rng = np.random.default_rng(0)
        chains = rng.normal(size=(4, 2000, 3))
        r = split_rhat(chains)
        assert np.all(np.abs(r - 1.0) < 0.01)

    def test_rhat_flags_shifted_chains(self):
        rng = np.random.default_rng(1)
        chains = rng.normal(size=(4, 500, 2))
        chains[0] += 5.0
        r = split_rhat(chains)
        assert np.all(r > 1.5)

    def test_rhat_flags_drift_within_chain(self):
        # split halves see a trend even when whole chains look alike
        rng = np.random.default_rng(2)
        n = 1000
        trend = np.linspace(0.0, 4.0, n)[None, :, None]
        chains = rng.normal(size=(2, n, 1)) + trend
        assert split_rhat(chains)[0] > 1.2

    def test_ess_close_to_sample_size_for_iid(self):
        rng = np.random.default_rng(3)
        chains = rng.normal(size=(4, 1500, 2))
        ess = effective_sample_size(chains)
        total = 4 * 1500
        assert np.all(ess > 0.6 * total)
        assert np.all(ess < 1.6 * total)

    def test_ess_small_for_sticky_chain(self):
        rng = np.random.default_rng(4)
        c, n = 2, 4000
        chains = np.empty((c, n, 1))
        for k in range(c):
            x = 0.0
            phi = 0.95
            for t in range(n):
                x = phi * x + rng.normal() * np.sqrt(1 - phi**2)
                chains[k, t, 0] = x
        ess = effective_sample_size(chains)
        total = c * n
        # AR(1) with phi=0.95 has tau ~ (1+phi)/(1-phi) = 39
        assert ess[0] < total / 10

    @pytest.mark.parametrize("shape", [(2, 800, 3), (4, 1500, 16), (3, 101, 2), (2, 9, 1), (4, 4, 5)])
    def test_ess_bit_identical_to_loop(self, shape):
        rng = np.random.default_rng(sum(shape))
        # white noise, a sticky AR(1) and a constant column side by side
        x = rng.normal(size=shape)
        for t in range(1, shape[1]):
            x[:, t, 1:] = 0.9 * x[:, t - 1, 1:] + 0.3 * x[:, t, 1:]
        x[..., -1] = 0.25
        assert np.array_equal(effective_sample_size(x), loop_ess(x))

    def test_ess_constant_chains_bit_identical_to_loop(self):
        # each chain constant: within-chain variance w = 0, with var_plus
        # zero in column 0 and positive (chains apart) in column 1
        chains = np.zeros((2, 50, 2))
        chains[1, :, 1] = 1.0
        ess = effective_sample_size(chains)
        assert np.array_equal(ess, loop_ess(chains))
        assert np.array_equal(ess, [100.0, 100.0])

    def test_mcse_shrinks_with_root_draws(self):
        # quadrupling the draws halves the Monte Carlo SE (within 30%)
        rng = np.random.default_rng(5)

        def mcse_at(n, seed):
            chains = np.random.default_rng(seed).normal(size=(4, n, 1))
            return mcse_mean(chains, effective_sample_size(chains))[0]

        ratios = [mcse_at(4000, 10 + k) / mcse_at(1000, 20 + k) for k in range(5)]
        mean_ratio = float(np.mean(ratios))
        assert abs(mean_ratio - 0.5) < 0.3 * 0.5

    def test_point_mass_column_handled(self):
        chains = np.zeros((2, 100, 1))
        assert split_rhat(chains)[0] == 1.0
        assert effective_sample_size(chains)[0] == 200


class TestRunChain:
    def test_samples_standard_normal(self):
        # proposal off-centre and too wide: the accept step must correct it
        chains = []
        for seed in (1, 2, 3, 4):
            r = run_chain(
                _std_normal_logpost,
                center=np.full(3, 0.3),
                chol=1.5 * np.eye(3),
                rng=np.random.default_rng(100 + seed),
                warmup=500,
                draws=2500,
            )
            chains.append(r.draws)
            assert 0.3 < r.acceptance_rate < 0.9
        draws = np.stack(chains)
        assert np.all(split_rhat(draws) < 1.05)
        flat = draws.reshape(-1, 3)
        mcse = mcse_mean(draws, effective_sample_size(draws))
        assert np.all(np.abs(flat.mean(axis=0)) < 4 * mcse)
        assert np.all(np.abs(flat.std(axis=0, ddof=1) - 1.0) < 0.1)

    def test_deterministic_under_generator_state(self):
        a = run_chain(
            _std_normal_logpost, np.zeros(2), np.eye(2), np.random.default_rng(9), warmup=200, draws=300
        )
        b = run_chain(
            _std_normal_logpost, np.zeros(2), np.eye(2), np.random.default_rng(9), warmup=200, draws=300
        )
        assert np.array_equal(a.draws, b.draws)
        assert np.array_equal(a.log_weights, b.log_weights)

    @pytest.mark.parametrize("seed", range(5))
    def test_heavy_tailed_target_keeps_df_and_reference_draws(self, seed):
        center = np.array([0.2, -0.1, 0.4])
        chol = np.array([[1.0, 0.0, 0.0], [0.4, 0.9, 0.0], [-0.3, 0.2, 0.7]])
        chain = run_chain(_t3_logpost, center, chol, np.random.default_rng(seed), warmup=400, draws=600)
        draws, log_w = reference_chain(_t3_logpost, center, chol, np.random.default_rng(seed), 400, 600)
        assert chain.tail_df == DF
        assert np.array_equal(chain.draws, draws)
        assert np.array_equal(chain.log_weights, log_w)

    def test_split_between_warmup_and_draws(self):
        # the same generator draws the same proposals whatever the split
        # between warmup and draws, while the tails stay at DF
        short = run_chain(
            _t3_logpost, np.zeros(2), np.eye(2), np.random.default_rng(10), warmup=300, draws=100
        )
        long = run_chain(_t3_logpost, np.zeros(2), np.eye(2), np.random.default_rng(10), warmup=0, draws=400)
        assert short.tail_df == long.tail_df == DF
        assert np.array_equal(short.draws, long.draws[300:])
        assert np.array_equal(short.log_weights, long.log_weights[300:])
        assert short.log_weights.size == 100

    @pytest.mark.parametrize("seed", range(4))
    def test_gaussian_target_picks_lightest_tails(self, seed):
        chain = run_chain(
            _std_normal_logpost, np.zeros(3), np.eye(3), np.random.default_rng(40 + seed), 500, 1000
        )
        assert chain.tail_df == max(TAILS)
        assert chain.acceptance_rate > 0.9

    def test_short_warmup_keeps_df(self):
        # a warmup of ten or fewer iterations cannot vouch for lighter tails
        for warmup in range(11):
            for seed in range(20):
                chain = run_chain(
                    _std_normal_logpost, np.zeros(3), np.eye(3), np.random.default_rng(seed), warmup, 50
                )
                assert chain.tail_df == DF, (warmup, seed)

    def test_log_post_called_on_warmup_then_kept_proposals(self):
        calls = []

        def log_post(x):
            calls.append(x.shape)
            return _std_normal_logpost(x)

        run_chain(log_post, np.zeros(2), np.eye(2), np.random.default_rng(11), warmup=20, draws=30)
        assert calls == [(21, 2), (30, 2)]

    def test_tail_scores_match_direct_chi2_estimate(self):
        # log of the sum over t(DF) draws of pi^2 / (t_DF t_nu), with full
        # densities in Python floats; the module leaves out the scale's log
        # determinant, twice
        rng = np.random.default_rng(21)
        dim, s = 3, 200
        center = np.array([0.1, -0.2, 0.3])
        chol = np.array([[1.2, 0.0, 0.0], [0.3, 0.8, 0.0], [-0.2, 0.1, 0.5]])
        normal = rng.standard_normal((s, dim))
        chi2 = rng.chisquare(DF, s)
        x = center + np.sqrt(DF / chi2)[:, np.newaxis] * (normal @ chol.T)
        log_p = -0.5 * ((x - 0.2) ** 2).sum(axis=1)
        scores, terms = _tail_scores(log_p, (normal**2).sum(axis=1) / chi2, dim)
        assert terms.shape == (len(TAILS), s)
        log_det = sum(math.log(chol[i, i]) for i in range(dim))
        inv = np.linalg.inv(chol)

        def density(nu, m2):
            return math.exp(
                math.lgamma((nu + dim) / 2) - math.lgamma(nu / 2) - log_det
                - 0.5 * dim * math.log(nu * math.pi) - 0.5 * (nu + dim) * math.log(1 + m2 / nu)
            )

        for nu, score in zip(TAILS, scores):
            total = 0.0
            for xi, lp in zip(x, log_p.tolist()):
                y = inv @ (xi - center)
                m2 = float(y @ y)
                total += math.exp(2 * lp) / (density(DF, m2) * density(nu, m2))
            assert score == pytest.approx(math.log(total) - 2 * log_det, abs=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_sweep_matches_numpy_scalar_loop(self, seed):
        # the Python-float sweep takes the same decisions as a loop over
        # numpy scalars, with -inf, NaN and +inf weights among the proposals
        rng = np.random.default_rng(seed)
        n = 400
        log_w = rng.normal(scale=2.0, size=n)
        for value, share in ((-np.inf, 0.1), (np.nan, 0.1), (np.inf, 0.005)):
            log_w[1:][rng.random(n - 1) < share] = value
        log_u = np.log(rng.uniform(size=n - 1))
        log_u[rng.random(n - 1) < 0.05] = -np.inf
        state = np.empty(n, dtype=np.intp)
        current = state[0] = 0
        with np.errstate(invalid="ignore"):      # inf - inf once +inf is current
            for i in range(1, n):
                if log_u[i - 1] < log_w[i] - log_w[current]:
                    current = i
                state[i] = current
        got = _sweep(log_u, log_w)
        assert got.dtype == state.dtype
        assert np.array_equal(got, state)
        assert 0 < np.count_nonzero(np.diff(state)) < n - 1

    def test_rejects_nonfinite_start(self):
        with pytest.raises(ValueError):
            run_chain(
                lambda x: np.full(x.shape[0], np.nan), np.zeros(1), np.eye(1),
                np.random.default_rng(1), 50, 50,
            )


class TestParetoK:
    def test_recovers_generalized_pareto_shape(self):
        # weights with a generalized Pareto tail of shape xi
        u = np.random.default_rng(12).uniform(size=20000)
        for xi in (0.2, 0.5, 0.9):
            weights = (u**-xi - 1.0) / xi
            assert abs(pareto_k(np.log(weights)) - xi) < 0.1

    def test_light_and_heavy_proposals(self):
        # a t proposal wider than the normal target gives bounded weights;
        # one much narrower than it gives heavy-tailed weights
        wide = run_chain(
            _std_normal_logpost, np.zeros(3), 1.2 * np.eye(3), np.random.default_rng(13), 1000, 3000
        )
        narrow = run_chain(
            _std_normal_logpost, np.zeros(3), 0.2 * np.eye(3), np.random.default_rng(13), 1000, 3000
        )
        assert pareto_k(wide.log_weights) < 0.5
        assert pareto_k(narrow.log_weights) > 0.7

    def test_invariant_to_constant_shift(self):
        lw = np.random.default_rng(14).standard_t(4, size=4000)
        assert pareto_k(lw) == pytest.approx(pareto_k(lw - 1234.5), abs=1e-9)
