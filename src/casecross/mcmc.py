"""Independence Metropolis sampling and convergence diagnostics.

The kernel is independence Metropolis (Tierney 1994, Ann. Statist.
22:1701): every proposal is drawn from a multivariate t centred at the
posterior mode and scaled by the inverse negative Hessian there (the
Laplace approximation), and is accepted with probability min(1, w'/w),
where w = pi/q is the importance weight of a point. Because proposals do
not depend on the chain state, a chain draws its proposals, mixing
variables and uniforms in batches, evaluates the log posterior on each
batch in one call, and runs a scalar accept/reject sweep over the weights.
How that call blocks its work is the likelihood kernel's affair (see
``clr``); a seed pins every draw bit for bit. Everything is driven by a
caller-supplied ``numpy.random.Generator``; identical generators give
bit-identical chains.

The warmup adapts the proposal's tail weight and nothing else. Its
proposals are t(``DF``); from those already scored points the chain picks,
among the degrees of freedom in ``TAILS``, the nu whose importance-sampling
estimate of the chi^2 divergence of the posterior from t(nu) is smallest,
and draws its kept proposals from t(nu) with the same scale matrix. A nu
other than ``DF`` is eligible only when the Pareto k-hat of its estimate's
terms passes the sample-size-dependent threshold of Vehtari et al. 2024,
so a short warmup, or a posterior whose tails the Laplace approximation
misses, keeps t(``DF``). Every nu in ``TAILS`` is finite, so under a
Gaussian prior times a concave log-likelihood the weights stay bounded and
the kept chain is a fixed-kernel, uniformly ergodic independence sampler
(Mengersen & Tweedie 1996, Ann. Statist. 24:101).

The same weights check the proposal at no extra evaluations: ``pareto_k``
is the shape estimate of a generalized Pareto fit to their upper tail, the
diagnostic of Pareto-smoothed importance sampling (Vehtari, Simpson, Gelman,
Yao & Gabry 2024, JMLR 25(72)); above 0.7 the proposal's tails are too
light for the target.

Convergence diagnostics are the split-chain potential scale reduction
factor (R-hat), autocorrelation-based effective sample size with Geyer's
initial monotone positive-pair truncation, and the Monte Carlo standard
error of the posterior mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ChainResult",
    "run_chain",
    "pareto_k",
    "split_rhat",
    "effective_sample_size",
    "mcse_mean",
]

DF = 5      # degrees of freedom of the warmup's t proposal
TAILS = (5, 10, 20, 50)     # the kept proposal's candidate degrees of freedom
PARETO_K_WARN = 0.7


@dataclass
class ChainResult:
    draws: np.ndarray          # (n_draws, dim), post-warmup only
    acceptance_rate: float     # post-warmup acceptance fraction
    log_weights: np.ndarray    # log pi - log q (up to a constant) of every kept proposal
    tail_df: int               # degrees of freedom of the kept proposals


def run_chain(
    log_post: Callable[[np.ndarray], np.ndarray],
    center: np.ndarray,
    chol: np.ndarray,
    rng: np.random.Generator,
    warmup: int,
    draws: int,
) -> ChainResult:
    """Run one independence Metropolis chain.

    Proposals are multivariate t with location ``center`` and scale matrix
    ``chol @ chol.T``. ``log_post`` maps a (k, dim) array of points to their
    k log densities. It is called twice: on the ``warmup + 1`` warmup
    proposals, drawn from t(``DF``), and on the ``draws`` kept proposals,
    drawn from t(``tail_df``), the tail weight ``_choose_tail`` picks from
    the scored warmup. The chain starts at the first warmup proposal and
    runs ``warmup`` iterations; it then continues from the warmup's last
    state, whose weight is recomputed under t(``tail_df``), and returns the
    ``draws`` states after it. The generator's draws come in one order,
    normals, warmup chi^2, kept chi^2 and uniforms, so a chain that keeps
    t(``DF``) returns the draws of a single t(``DF``) batch bit for bit.
    """
    center = np.asarray(center, dtype=float)
    dim = center.size
    n = warmup + draws + 1
    normal = rng.standard_normal((n, dim))
    # the squared Mahalanobis distance of a point is nu |normal|^2 / chi2
    radius = (normal**2).sum(axis=1)
    steps = normal @ chol.T
    del normal
    chi2 = rng.chisquare(DF, warmup + 1)
    points = center + np.sqrt(DF / chi2)[:, np.newaxis] * steps[:warmup + 1]
    log_p = log_post(points)
    if not np.isfinite(log_p[0]):
        raise ValueError("log posterior is not finite at the chain start")
    ratio = radius[:warmup + 1] / chi2       # m^2 / DF
    tail_df = _choose_tail(log_p, ratio, dim)
    chi2 = rng.chisquare(tail_df, draws)
    log_u = np.log(rng.uniform(size=n - 1))

    # t log density up to a constant: -(nu + dim) / 2 log1p(m^2 / nu)
    warm_w = log_p + 0.5 * (DF + dim) * np.log1p(ratio)
    last = _sweep(log_u[:warmup], warm_w)[-1]
    start = points[last].copy()     # a row, not a view that keeps the warmup's points
    start_w = log_p[last] + 0.5 * (tail_df + dim) * np.log1p(ratio[last] * (DF / tail_df))
    points = center + np.sqrt(tail_df / chi2)[:, np.newaxis] * steps[warmup + 1:]
    log_w = log_post(points) + 0.5 * (tail_df + dim) * np.log1p(radius[warmup + 1:] / chi2)

    state = _sweep(log_u[warmup:], np.append(start_w, log_w))
    moved = state[1:] != state[:-1]
    kept = state[1:] - 1            # -1 while the chain stays at the warmup's last state
    out = points[kept]
    out[kept < 0] = start
    return ChainResult(
        draws=out,
        acceptance_rate=float(moved.mean()) if draws else 0.0,
        log_weights=log_w,
        tail_df=tail_df,
    )


def _tail_scores(log_p: np.ndarray, ratio: np.ndarray, dim: int):
    """Per nu in ``TAILS``, the log of the sum over S t(``DF``) draws of
    pi^2 / (t_DF t_nu), S times the importance-sampling estimate of the
    integral of pi^2 / t_nu, which is the chi^2 divergence of the posterior
    from t(nu) up to terms common to every nu; and the (len(TAILS), S) log
    terms 2 log pi - log t_DF - log t_nu that it sums. ``ratio`` is each
    point's squared Mahalanobis distance over ``DF``; the t log densities
    carry their normalizing constants, and the scale matrix's log
    determinant, common to every nu, is left out. Non-finite terms are
    dropped from the sum."""
    const = [
        math.lgamma((nu + dim) / 2) - math.lgamma(nu / 2) - 0.5 * dim * math.log(nu * math.pi)
        for nu in TAILS
    ]
    nu = np.array(TAILS, dtype=float)[:, np.newaxis]
    log_t = np.array(const)[:, np.newaxis] - 0.5 * (nu + dim) * np.log1p(ratio * (DF / nu))
    terms = 2.0 * log_p - log_t[TAILS.index(DF)] - log_t
    finite = np.where(np.isfinite(terms), terms, -np.inf)
    top = finite.max(axis=1, keepdims=True)
    scores = top + np.log(np.exp(finite - top).sum(axis=1, keepdims=True))
    return scores.ravel().tolist(), terms


def _choose_tail(log_p: np.ndarray, ratio: np.ndarray, dim: int) -> int:
    """The nu of ``TAILS`` with the smallest ``_tail_scores`` score, ties to
    the smaller nu, among those eligible: ``DF`` always, another nu only
    when the Pareto k-hat of its score's terms is at most min(1 - 1/log10 S,
    ``PARETO_K_WARN``) for S points, the sample-size-dependent threshold of
    Vehtari et al. 2024, so with S <= 10 the chain keeps ``DF``. Candidates
    are tried from the best score down, so a chain usually fits one k-hat."""
    s = log_p.size
    if s <= 10:
        return DF
    scores, terms = _tail_scores(log_p, ratio, dim)
    bound = min(1.0 - 1.0 / math.log10(s), PARETO_K_WARN)
    for i in sorted(range(len(TAILS)), key=scores.__getitem__):
        if TAILS[i] == DF or pareto_k(terms[i]) <= bound:
            return TAILS[i]


def _sweep(log_u: np.ndarray, log_w: np.ndarray) -> np.ndarray:
    """The chain's state, the index of its current proposal, after each
    iteration: proposal i replaces the current one when ``log_u[i - 1] <
    log_w[i] - log_w[current]``. The sweep runs on Python floats, whose
    subtraction and comparison are the IEEE operations of numpy's scalars,
    at a fraction of their cost; it holds the GIL throughout, so its cost
    serializes the chains' threads."""
    weights = log_w.tolist()
    current, current_w = 0, weights[0]
    state = [0]
    for i, (u, w) in enumerate(zip(log_u.tolist(), weights[1:]), start=1):
        if u < w - current_w:
            current, current_w = i, w
        state.append(current)
    return np.array(state, dtype=np.intp)


def pareto_k(log_weights: np.ndarray) -> float:
    """Pareto k-hat of importance weights given as logs (any constant shift).

    The largest min(S/5, 3 sqrt(S)) weights, less the next largest, are fit
    with a generalized Pareto distribution by the profile-likelihood
    posterior mean of Zhang & Stephens (2009, Technometrics 51:316), with
    the weak prior toward 0.5 of the PSIS paper. Non-finite log weights
    (proposals of zero target density) are left out.
    """
    lw = np.sort(np.asarray(log_weights, dtype=float).ravel())
    lw = lw[np.isfinite(lw)]
    m = int(np.ceil(min(0.2 * lw.size, 3.0 * np.sqrt(lw.size))))
    # ascending exceedances over the largest weight outside the tail,
    # scaled by the largest weight
    x = np.exp(lw[-m:] - lw[-1]) - np.exp(lw[-m - 1] - lw[-1])
    x = x[x > 0.0]
    n = x.size
    if n < 5:
        return float("inf")     # too few distinct tail weights to fit
    grid = 30 + int(np.sqrt(n))
    theta = 1.0 / x[-1] + (1.0 - np.sqrt(grid / (np.arange(1, grid + 1) - 0.5))) / (
        3.0 * x[int(n / 4 + 0.5) - 1]
    )
    k = np.log1p(-theta[:, np.newaxis] * x).mean(axis=1)
    profile = n * (np.log(-theta / k) - k - 1.0)
    weight = 1.0 / np.exp(profile - profile[:, np.newaxis]).sum(axis=1)
    theta_hat = float(weight @ theta / weight.sum())
    k_hat = float(np.log1p(-theta_hat * x).mean())
    return (n * k_hat + 10 * 0.5) / (n + 10)


def _split(chains: np.ndarray) -> np.ndarray:
    """Split each chain in half: (C, N, d) -> (2C, N//2, d)."""
    chains = np.asarray(chains, dtype=float)
    if chains.ndim != 3:
        raise ValueError("expected draws with shape (chains, iterations, dim)")
    c, n, d = chains.shape
    if n < 4:
        raise ValueError("need at least 4 iterations per chain to split")
    half = n // 2
    return np.concatenate([chains[:, :half, :], chains[:, n - half:, :]], axis=0)


def _split_moments(chains: np.ndarray):
    """The split chains (see ``_split``) with, per column, the mean
    within-chain variance W and var+ = (n - 1) / n W + B / n, B / n being
    the variance of the split chains' means."""
    s = _split(chains)
    n = s.shape[1]
    w = s.var(axis=1, ddof=1).mean(axis=0)
    return s, w, (n - 1) / n * w + s.mean(axis=1).var(axis=0, ddof=1)


def split_rhat(chains: np.ndarray) -> np.ndarray:
    """Split-chain potential scale reduction factor, one value per column."""
    s, w, var_plus = _split_moments(chains)
    out = np.ones(s.shape[2])
    ok = w > 0
    out[ok] = np.sqrt(var_plus[ok] / w[ok])
    return out


def effective_sample_size(chains: np.ndarray) -> np.ndarray:
    """Multi-chain effective sample size per column (split chains, Geyer
    initial monotone positive-pair truncation of the autocorrelations).

    Each split chain's columns are transformed at once, and the chains'
    biased (normalized by n) autocovariances at all lags are averaged. One
    transform over every chain would hold (chains, columns, lags) complex
    arrays, several MB at a shipped config, and raise the run's peak memory.
    """
    s, w, var_plus = _split_moments(chains)
    m, n, d = s.shape
    total = m * n
    ess = np.full(d, float(total))
    ok = (var_plus > 0) & (w > 0)             # a constant column keeps ess = total
    size = 1 << (2 * n - 1).bit_length()
    acov = np.zeros((int(ok.sum()), n))
    for chain in s[:, :, ok]:
        x = np.ascontiguousarray(chain.T)
        x = x - x.mean(axis=1, keepdims=True)
        # the transforms fill the rows of a buffer one column wider, so that
        # numpy multiplies f by its conjugate row by row, as it would one
        # column's transform: its complex loop rounds the imaginary part
        # differently on long arrays, which would tie the bits to the width
        f = np.empty((x.shape[0], size // 2 + 2), dtype=complex)[:, :-1]
        f[:] = np.fft.rfft(x, size)
        np.multiply(f, np.conj(f), out=f)
        acov += np.fft.irfft(f, size)[:, :n] / n
    acov /= m
    rho = 1.0 - (w[ok, np.newaxis] - acov) / var_plus[ok, np.newaxis]
    rho[:, 0] = 1.0
    # tau = -1 + 2 * sum of pair sums P_k = rho_{2k} + rho_{2k+1}, truncated
    # at the first nonpositive pair and forced nonincreasing
    half = n // 2
    pairs = rho[:, 0:2 * half:2] + rho[:, 1:2 * half:2]
    kept = np.logical_and.accumulate(pairs > 0.0, axis=1).sum(axis=1)
    sums = np.cumsum(np.minimum.accumulate(pairs, axis=1), axis=1)
    pair_sum = np.where(kept > 0, sums[np.arange(kept.size), kept - 1], 0.0)
    ess[ok] = total / np.maximum(-1.0 + 2.0 * pair_sum, 1.0 / total)
    return ess


def mcse_mean(chains: np.ndarray, ess: np.ndarray) -> np.ndarray:
    """Monte Carlo standard error of the posterior mean per column, given
    the columns' effective sample sizes."""
    chains = np.asarray(chains, dtype=float)
    flat = chains.reshape(-1, chains.shape[-1])
    return flat.std(axis=0, ddof=1) / np.sqrt(ess)
