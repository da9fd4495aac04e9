"""Conditional (stratified) logistic regression for matched sets.

Per matched set, the contribution to the likelihood is the within-set
softmax probability of the case row,

    exp(x_case . beta) / sum_j exp(x_j . beta),

so any per-set constant added to every row cancels: subject-level intercepts
are conditioned out, never estimated. The likelihood is built from arrays
alone: one covariate row per matched row, the set of each row and its case
flag, in any row order, as a ``DesignMatrix`` holds them. Rows are stored as
differences z_j = x_j - x_ref against a reference row of the same set, which
makes that cancellation structural rather than an arithmetic accident.

Sets that hold the same rows up to such a constant, and differ only in which
row is the case, are collapsed into one stratum s with per-row case counts
c_sd and N_s = sum_d c_sd events. Because exposures are zone-level and the
referents are the case month's same-weekday days, every set from one (zone,
year, month, weekday) stratum has the same rows. To compare sets, each
set's rows are put in lexicographic order by a sort within sets, not one over
every row and column (``_row_order``). The log-likelihood

    sum_s [ sum_d c_sd z_sd . beta - N_s logsumexp_d(z_sd . beta) ]

is exactly the sum of the per-set terms: this is the conditional-Poisson
form of the conditional logistic likelihood (Armstrong, Gasparrini & Tobias
2014, BMC Med Res Methodol 14:122). A stratum's rows are differenced against
the case row of its first set, so a stratum holding one event contributes the
per-set term -logsumexp_j(z_j . beta) itself. That reference row is zero
and is not stored: it enters each logsumexp as exp(0) = 1. The form is exact
whatever the data; what it saves depends on their density. With sets that
are all distinct, every stratum holds one event and the cost is that of the
per-set form. ``ConditionalLikelihood`` stores the strata as one tensor of
row differences, one slice per row position up to the largest set size less
one, zero past a stratum's own rows, and its methods, one kernel, evaluate
the likelihood, its gradient and its Hessian; the likelihood also at a
batch of coefficient vectors.
Strata are ordered by a key that starts with their size, so strata of one
width are contiguous runs. A batch of coefficient vectors, however many, is
scored in blocks of at most ``COLS`` vectors, each block run by run, never
touching the rows past a stratum's width, over at most ``BLOCK`` strata at a
time, so that each span's buffer stays in cache. The work arrays are
allocated once per call and every span and block writes into views of
them; a block's vectors are multiplied as one C-contiguous (dim, cols)
panel. Each stratum's value is computed row by row in position order, as
over the whole tensor, so ``BLOCK`` changes no result. The matrix-vector
products that finish a block, c.t and n.lse, round each vector's value by
its place among the block's vectors, so a batch's bits depend on ``COLS``,
as on the order of its vectors; both are module constants rather than
settings, and a seed pins every draw. That
each block's bits match a single padded buffer also rests on the BLAS
rounding a product's rows alike whatever the matrix size: it does on the
BLAS the tests run on, and ``tests/test_strata.py::TestSpanKernel`` fails
on one where it does not.

Maximum likelihood is Newton iteration with step halving. Posterior sampling
over the same likelihood plus a per-block Gaussian prior runs the same Newton
iteration, with the prior precision added, to the posterior mode, and then
independence Metropolis chains whose multivariate t proposal is centred
there and scaled by the inverse negative Hessian (see ``mcmc``). Both paths
run in fit units, coefficients times ``scale``, each column's largest power
of two at or below its pooled standard deviation, and return coefficients
on the original scale. Dividing by a power of two is exact, so the one
tensor scored at beta / scale gives, bit for bit, what a tensor of z / scale
gives at beta: the units move no product of the kernel and matter only to
Newton's tolerance, its separation bound, its ridge and its linear algebra.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import mcmc
from .errors import ConvergenceError, SeparationError
from .parallel import ordered_map
from .splines import DesignMatrix

__all__ = [
    "ConditionalLikelihood",
    "PriorSpec",
    "SamplerConfig",
    "MleDiagnostics",
    "BayesDiagnostics",
    "FitResult",
    "log_likelihood",
    "gradient",
    "hessian",
    "fit_mle",
    "fit_bayes",
]

RHAT_WARN = 1.05
# Newton: gradient sup-norm at convergence, most iterations, and the
# coefficient sup-norm that flags separation, all in fit units
TOLERANCE = 1e-8
MAX_ITER = 200
SEPARATION_BOUND = 50.0

log = logging.getLogger(__name__)


class ConditionalLikelihood:
    """Matched-set data collapsed into count-weighted strata: the one
    likelihood kernel.

    ``values`` holds one (dim,) covariate row per matched row, finite;
    ``set_index`` names each row's set and ``is_case`` marks the one case
    row of each set. Rows may come in any order. Sets whose rows, sorted and
    differenced against their lexicographically smallest row, are
    bit-identical share a stratum (see the module docstring). Strata are
    ordered by their key bytes, so the reduction order, and hence every
    evaluation, is a function of the data alone and repeats bit for bit.

    ``z`` holds the (width - 1, strata, dim) tensor of row differences
    against each stratum's zero reference row, which is not stored,
    flattened to ((width - 1) * strata, dim) and zero past a stratum's own
    rows; ``runs`` the ``(width, s0, s1)`` runs of strata of one width (see
    ``_runs``), which tile the strata once; ``n`` the events per stratum;
    ``t`` the summed case-row differences sum_s sum_d c_sd z_sd, so that the
    log-likelihood is t.beta - n.lse with lse_s = log(1 + sum_j
    exp(z_sj.beta)); ``pad`` the (width - 1, strata) mask, 0 on a stratum's
    stored rows and -inf past them. A batch of any size is scored in blocks
    of ``COLS`` vectors over work arrays allocated once per call.
    """

    def __init__(
        self,
        values: np.ndarray,
        set_index: np.ndarray,
        is_case: np.ndarray,
        labels: Sequence[str] | None = None,
        blocks: Sequence[tuple[str, slice]] | None = None,
    ):
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise ValueError("covariates must be finite")
        n_rows, dim = values.shape
        if n_rows == 0:
            raise ValueError("need at least one matched set")
        set_index, is_case = np.asarray(set_index), np.asarray(is_case, dtype=bool)
        if set_index.shape != (n_rows,) or is_case.shape != (n_rows,):
            raise ValueError("set_index and is_case need one entry per row of values")
        # rows grouped by set, each set's rows in lexicographic value order,
        # sorted within sets (see _row_order)
        order, start, size, row_set, pos = _row_order(values, set_index)
        x = values[order]
        case = is_case[order]
        if np.any(np.bincount(row_set, weights=case) != 1):
            raise ValueError("each set must have exactly one case row")
        if size.min() < 2:
            raise ValueError("each set needs at least one control row")
        width = int(size.max())
        n_sets = start.size

        # stratum key: set size, then the padded rows differenced against
        # the set's smallest row, compared byte for byte
        key = np.zeros((n_sets, 1 + width * dim))
        key[:, 0] = size
        key[:, 1:].reshape(n_sets, width, dim)[row_set, pos] = x - x[start[row_set]]
        key = key.view(np.dtype((np.void, key.shape[1] * key.itemsize))).ravel()
        _, first, stratum = np.unique(key, return_index=True, return_inverse=True)
        stratum = stratum.ravel()
        n_strata = first.size

        # position-major (width - 1, strata) layout: reductions over a
        # stratum's rows then run along contiguous memory. Each stratum's rows
        # are differenced against the case row of its first set, its
        # reference, which is zero and is not stored: the rows after it move
        # up one slot. Events whose case row is the reference count in n alone.
        case_rows = np.flatnonzero(case)           # one per set, in set order
        ref = pos[case_rows[first]][stratum[row_set]]
        stored = pos != ref
        slot = pos - (pos > ref)
        counts = np.zeros((width - 1, n_strata))
        live = stored[case_rows]
        np.add.at(counts, (slot[case_rows][live], stratum[live]), 1.0)
        in_first = np.zeros(n_sets, dtype=bool)
        in_first[first] = True
        keep = in_first[row_set] & stored
        kept_set = row_set[keep]
        z = np.zeros((width - 1, n_strata, dim))
        z[slot[keep], stratum[kept_set]] = x[keep] - x[case_rows[kept_set]]
        self.pad = np.where(np.arange(width - 1)[:, np.newaxis] < size[first] - 1, 0.0, -np.inf)

        self.dimension = dim
        self.n_sets = n_sets
        self.n_rows = n_rows
        self.n_strata = n_strata
        self.labels = tuple(labels) if labels is not None else None
        self.blocks = tuple(blocks) if blocks is not None else None
        mean = values.sum(axis=0) / n_rows
        sd = np.sqrt(np.maximum((values**2).sum(axis=0) / n_rows - mean**2, 0.0))
        # the fits' units: the largest power of two at or below each column's
        # pooled sd, 0.5 where it is zero (see the module docstring)
        self.scale = np.ldexp(0.5, np.frexp(sd)[1])
        self.z = z.reshape(-1, dim)
        self.runs = _runs(size[first])
        self.n = np.bincount(stratum, minlength=n_strata).astype(float)
        self.t = counts.ravel() @ self.z

    @classmethod
    def from_design_matrix(cls, dm: DesignMatrix) -> "ConditionalLikelihood":
        return cls(dm.values, dm.set_index, dm.is_case, dm.column_labels, dm.blocks)

    def block_of(self, column: int) -> str:
        if self.blocks:
            for name, sl in self.blocks:
                if sl.start <= column < sl.stop:
                    return name
        if self.labels:
            return self.labels[column]
        return f"column {column}"

    def log_likelihood(self, beta: np.ndarray):
        """Log-likelihood at one (dim,) vector, as a float, or at each row of
        a (k, dim) array, as a (k,) array.

        One vector takes the stable form of ``_softmax``. A batch is scored
        as lse = log1p(sum_j exp(z_j.beta)) with no max pass, ``COLS``
        vectors at a time and, for each block of them, one (width - 1, span,
        cols) view of the call's work buffer of at most ``BLOCK`` strata at a
        time: near the posterior no z.beta nears the overflow of exp (about
        709), and a column whose sum does overflow is scored again in the
        stable form, so every value stays finite and exact to rounding. The
        call allocates its work buffer, the (strata, cols) lse array and the
        result once, whatever the number of vectors. Each block's transpose
        is copied once into a C-contiguous (dim, cols) panel, which numpy
        multiplies about twice as fast as the transposed view, with the
        same bits.

        BLAS rounds a matrix-vector product row by row according to where
        the row falls among the rows it is given, and numpy hands it any
        product with one row or one column. So a span of one stratum is
        multiplied beside a neighbouring stratum, whose scores are dropped,
        and a lone vector in a block beside a copy of itself; every score
        then has the bits of the product over the whole tensor, on a BLAS
        that rounds a gemm's rows alike whatever its size (see the module
        docstring). The (width - 1, dim) product of a tensor of one stratum
        keeps the transposed view: numpy hands it to gemv, which rounds it
        differently with the panel.
        """
        cols = np.atleast_2d(beta)
        if len(cols) == 1:
            ll = self.t @ cols[0] - self.n @ self._softmax(cols[0])[2]
            return float(ll) if np.ndim(beta) == 1 else np.array([ll])
        z3 = self.z.reshape(*self.pad.shape, -1)
        step = max(1, min(COLS, len(cols)))     # an empty batch scores nothing
        span = min(BLOCK, max(b - a for _, a, b in self.runs))
        # the work arrays of the whole call, viewed per span and per block
        work = np.empty(len(self.pad) * max(span, 2) * max(step, 2))
        lse_buffer = np.empty(self.n.size * max(step, 2))
        ll = np.empty(len(cols))
        with np.errstate(over="ignore"):
            for c0 in range(0, len(cols), step):
                block = cols[c0:c0 + step]
                m = len(block)
                if m == 1:
                    block = np.repeat(block, 2, axis=0)     # see below
                k = len(block)
                panel = block.T.copy()          # (dim, k), C-contiguous: see below
                lse = lse_buffer[:self.n.size * k].reshape(-1, k)
                for width, a, b in self.runs:
                    for s0 in range(a, b, BLOCK):
                        s1 = min(s0 + BLOCK, b)
                        p0, p1 = s0, s1         # the strata multiplied
                        if s1 - s0 == 1 and self.n.size > 1:
                            p0 = min(s0, self.n.size - 2)
                            p1 = p0 + 2
                        e = work[:(width - 1) * (p1 - p0) * k].reshape(width - 1, p1 - p0, k)
                        if p1 == p0 + 1:        # the tensor is one stratum
                            np.matmul(z3[:width - 1, p0], block.T, out=e[:, 0])
                        else:
                            np.matmul(z3[:width - 1, p0:p1], panel, out=e)
                        np.exp(e, out=e)
                        np.add.reduce(e[:, s0 - p0:s1 - p0], axis=0, out=lse[s0:s1])
                        np.log1p(lse[s0:s1], out=lse[s0:s1])
                part = block @ self.t - self.n @ lse
                if not np.isfinite(part).all():
                    # exp overflowed in some stratum: score those in the stable form
                    bad = ~np.isfinite(lse)
                    for c in np.flatnonzero(bad.any(axis=0)):
                        lse[bad[:, c], c] = self._softmax(block[c])[2][bad[:, c]]
                    part = block @ self.t - self.n @ lse
                ll[c0:c0 + m] = part[:m]
        return ll

    def _softmax(self, beta: np.ndarray):
        """The stable form at one vector, over the whole tensor at once.

        Returns exp(z.beta - mx) on the stored rows (zero past each
        stratum's width), the normalizer sum_j exp(z_j.beta - mx) + exp(-mx)
        whose last term is the reference row's, and lse = mx + log(norm),
        with mx = max(0, max_j z_j.beta) per stratum.
        """
        e = (self.z @ beta).reshape(self.pad.shape)
        e += self.pad
        mx = e.max(axis=0, initial=0.0)
        e -= mx
        np.exp(e, out=e)
        norm = e.sum(axis=0) + np.exp(-mx)
        return e, norm, mx + np.log(norm)

    def derivatives(self, beta: np.ndarray, want_hess: bool = True):
        """Log-likelihood, gradient and (optionally) Hessian in one pass. The
        reference row is zero, so it adds to the normalizer alone."""
        w, norm, lse = self._softmax(beta)
        ll = float(self.t @ beta - self.n @ lse)
        w *= self.n / norm                        # N_s times softmax weights
        g = self.t - w.reshape(-1) @ self.z
        if not want_hess:
            return ll, g
        wz = w.reshape(-1, 1) * self.z
        zbar = wz.reshape(*w.shape, -1).sum(axis=0)      # N_s times mean row
        h = (zbar.T / self.n) @ zbar - self.z.T @ wz
        return ll, g, h


def _row_order(values: np.ndarray, set_index: np.ndarray):
    """``np.lexsort((*values.T[::-1], set_index))`` for finite ``values``:
    rows grouped by set, each set's rows in lexicographic value order, ties
    kept in input order. Returned with the set structure of the ordered
    rows: each set's first row and size, and each row's set and position in
    its set.

    Sets hold a few rows each, so rather than sorting every column of every
    row it sorts the sets stably, then each set's first column in one
    stable row-wise sort of a (sets, width) table, +inf past a set's rows,
    and lexsorts the other columns only over rows tied with a neighbour on
    (set, first column). -0.0 and 0.0 tie, as in ``lexsort``.
    """
    by_set = np.argsort(set_index, kind="stable")
    sid = set_index[by_set]
    n_rows = sid.size
    new_set = np.ones(n_rows, dtype=bool)
    new_set[1:] = sid[1:] != sid[:-1]
    start = np.flatnonzero(new_set)
    size = np.diff(np.append(start, n_rows))
    row_set = np.cumsum(new_set) - 1
    pos = np.arange(n_rows) - start[row_set]
    table = np.full((start.size, int(size.max())), np.inf)
    table[row_set, pos] = values[by_set, 0]
    within = np.argsort(table, axis=1, kind="stable")
    real = np.arange(table.shape[1]) < size[:, np.newaxis]
    order = by_set[(start[:, np.newaxis] + within)[real]]
    first = values[order, 0]
    tie = ~new_set[1:] & (first[1:] == first[:-1])
    if values.shape[1] > 1 and tie.any():
        joins = np.append(False, tie)               # tied with the row before
        at = np.flatnonzero(joins | np.append(tie, False))
        rows = order[at]
        group = np.cumsum(~joins[at])               # one per run of tied rows
        order[at] = rows[np.lexsort((*values[rows, 1:].T[::-1], group))]
    return order, start, size, row_set, pos


# most strata per span and most coefficient vectors per block of a batch:
# the (width - 1, span, cols) work buffer, (4, 512, 32) at widths up to 5,
# is 524 kB, so with its span's rows it stays in a 2 MB L2. At paper shape
# (80,789 strata, runs of up to 49,843) that beats one span per run; smaller
# spans cost more in calls than they save in cache, and spans or blocks whose
# temporaries were allocated per span crossed glibc's mmap threshold call by
# call (sized with two sampler threads running). Module constants, not
# settings (see above).
BLOCK = 512
COLS = 32


def _runs(widths: np.ndarray) -> tuple[tuple[int, int, int], ...]:
    """``(width, s0, s1)``: the runs of strata ``s0:s1`` of one width, in
    stratum order."""
    edges = np.flatnonzero(np.diff(widths)) + 1
    starts, stops = np.append(0, edges).tolist(), np.append(edges, widths.size).tolist()
    return tuple((int(widths[a]), a, b) for a, b in zip(starts, stops))


def log_likelihood(beta, lik: ConditionalLikelihood) -> float:
    """Conditional log-likelihood at ``beta`` (original covariate scale)."""
    beta = _check_beta(beta, lik)
    return lik.log_likelihood(beta)


def gradient(beta, lik: ConditionalLikelihood) -> np.ndarray:
    """Score vector: sum over sets of (x_case - softmax-weighted row mean)."""
    beta = _check_beta(beta, lik)
    _, g = lik.derivatives(beta, want_hess=False)
    return g


def hessian(beta, lik: ConditionalLikelihood) -> np.ndarray:
    """Observed-information negative: minus the sum of within-set covariance
    matrices of the rows under softmax weights (symmetric, negative
    semidefinite)."""
    beta = _check_beta(beta, lik)
    _, _, h = lik.derivatives(beta)
    return h


def _check_beta(beta, lik: ConditionalLikelihood) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (lik.dimension,):
        raise ValueError(f"beta must have shape ({lik.dimension},), got {beta.shape}")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta must be finite")
    return beta


@dataclass
class MleDiagnostics:
    converged: bool
    iterations: int
    gradient_norm: float
    zero_information: bool = False
    ridge_restarted: bool = False


@dataclass
class BayesDiagnostics:
    rhat: np.ndarray
    ess: np.ndarray
    mcse: np.ndarray
    acceptance_rate: float          # mean over chains
    converged: bool                 # every split-Rhat <= RHAT_WARN
    pareto_k: float                 # PSIS k-hat of the kept proposals' weights
    acceptance_per_chain: tuple[float, ...]
    proposal_df_per_chain: tuple[int, ...]  # t degrees of freedom of each chain's kept proposals
    log_post_evals: int             # points at which the log posterior was evaluated
    sampler_s: float                # wall time of the mode search and the chains


@dataclass
class FitResult:
    """A fitted model: an MLE with covariance, or posterior draws."""

    mode: str                                  # "mle" | "bayes"
    point: np.ndarray                          # MLE or posterior mean
    labels: tuple[str, ...] | None
    blocks: tuple[tuple[str, slice], ...] | None
    covariance: np.ndarray | None = None       # mle only
    draws: np.ndarray | None = None            # (S, dim), bayes only
    diagnostics: MleDiagnostics | BayesDiagnostics | None = None

    @property
    def sd(self) -> np.ndarray:
        if self.mode == "mle":
            if self.covariance is None:
                return np.full_like(self.point, np.nan)
            return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))
        return self.draws.std(axis=0, ddof=1)

    def block_slice(self, name: str) -> slice:
        if not self.blocks:
            raise ValueError("fit carries no block structure")
        for block, sl in self.blocks:
            if block == name:
                return sl
        raise ValueError(f"no block named {name!r}")


@dataclass(frozen=True)
class PriorSpec:
    """Independent zero-mean Gaussian priors, one standard deviation per block.

    ``sd`` maps block names to prior standard deviations; ``default_sd``
    covers columns outside any named block.
    """

    sd: Mapping[str, float] = field(default_factory=dict)
    default_sd: float = 10.0

    def __post_init__(self):
        for name, s in self.sd.items():
            if s <= 0:
                raise ValueError(f"prior sd for block {name!r} must be positive")
        if self.default_sd <= 0:
            raise ValueError("default prior sd must be positive")

    def column_sds(self, lik: ConditionalLikelihood) -> np.ndarray:
        out = np.full(lik.dimension, self.default_sd)
        if lik.blocks:
            for name, sl in lik.blocks:
                out[sl] = self.sd.get(name, self.default_sd)
        return out

    @classmethod
    def for_model(cls, interaction_kind: str) -> "PriorSpec":
        """Defaults: sd 10 on spline blocks; sd 1 on a single product-term
        coefficient, whose covariate has much larger scale."""
        inter_sd = 1.0 if interaction_kind == "linear_interaction" else 10.0
        return cls(sd={"temperature": 10.0, "pm25": 10.0, "interaction": inter_sd})


@dataclass(frozen=True)
class SamplerConfig:
    chains: int = 4
    warmup: int = 1000
    draws: int = 1000          # per chain, post-warmup
    seed: int | None = None

    def __post_init__(self):
        if self.chains < 2:
            raise ValueError("need at least 2 chains for split-Rhat")
        if self.warmup < 10 or self.draws < 10:
            raise ValueError("warmup and draws must each be at least 10")
        if self.seed is None:
            raise ValueError("sampler seed is required for reproducibility")
        if self.seed < 0:
            raise ValueError(f"sampler seed must be at least 0, got {self.seed}")


def _newton(lik: ConditionalLikelihood, precision: np.ndarray | None = None):
    """Newton iteration in fit units (see the module docstring), from zero.

    Maximizes the log-likelihood or, given the diagonal ``precision`` of a
    zero-centred Gaussian prior, the log-posterior. Returns (beta,
    covariance or None, diagnostics); raises on separation or persistent
    failure. Separation, checked for the likelihood alone, is flagged either
    when the coefficient sup-norm passes ``SEPARATION_BOUND`` while the
    gradient has not converged, or when the likelihood converges onto its
    supremum of zero (every case predicted perfectly).
    """
    dim, scale = lik.dimension, lik.scale
    mle = precision is None
    if mle:
        precision = np.zeros(dim)   # the likelihood alone

    def objective(beta):
        return lik.log_likelihood(beta / scale) - 0.5 * float(precision @ beta**2)

    def derivatives(beta):
        ll, g, h = lik.derivatives(beta / scale)
        return (
            ll - 0.5 * float(precision @ beta**2),
            g / scale - precision * beta,
            h / np.outer(scale, scale) - np.diag(precision),
        )

    beta = np.zeros(dim)
    ll, g, h = derivatives(beta)
    gnorm = float(np.abs(g).max())
    ridge_used = False

    if mle and gnorm <= TOLERANCE and float(np.abs(h).max()) < 1e-12:
        diag = MleDiagnostics(True, 0, gnorm, zero_information=True)
        return beta, None, diag

    iterations = 0
    converged = gnorm <= TOLERANCE
    while not converged and iterations < MAX_ITER:
        iterations += 1
        neg_h = -h
        try:
            step = np.linalg.solve(neg_h, g)
        except np.linalg.LinAlgError:
            step = None
        if step is None or not np.all(np.isfinite(step)):
            ridge_used = True
            step = np.linalg.solve(neg_h + 1e-8 * np.eye(dim), g)
            if not np.all(np.isfinite(step)):
                raise ConvergenceError("hessian is singular even after ridge restart")
        lam = 1.0
        improved = False
        for _ in range(40):
            cand = beta + lam * step
            cand_ll = objective(cand)
            # a full step that leaves the likelihood flat at floating-point
            # resolution is the Newton endgame, not a failure
            flat_ok = lam == 1.0 and cand_ll >= ll - 1e-12 * max(1.0, abs(ll))
            if cand_ll > ll or flat_ok:
                beta, ll = cand, cand_ll
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
        ll, g, h = derivatives(beta)
        gnorm = float(np.abs(g).max())
        if gnorm <= TOLERANCE:
            converged = True
        elif mle and float(np.abs(beta).max()) > SEPARATION_BOUND:
            worst = int(np.abs(beta).argmax())
            raise SeparationError(
                f"coefficient sup-norm exceeded {SEPARATION_BOUND} (fit units) "
                f"with gradient norm {gnorm:.3g}; offending block: {lik.block_of(worst)}",
                block=lik.block_of(worst),
            )

    if not converged:
        raise ConvergenceError(
            f"Newton did not converge in {iterations} iterations (gradient norm {gnorm:.3g})"
        )
    if mle and ll > -1e-6 * lik.n_sets:
        worst = int(np.abs(beta).argmax())
        raise SeparationError(
            "log-likelihood converged onto its supremum of zero (each case day "
            f"predicted with probability one); offending block: {lik.block_of(worst)}",
            block=lik.block_of(worst),
        )

    neg_h = -h
    try:
        cov = np.linalg.inv(neg_h)
    except np.linalg.LinAlgError:
        ridge_used = True
        try:
            cov = np.linalg.inv(neg_h + 1e-8 * np.eye(dim))
        except np.linalg.LinAlgError:
            raise ConvergenceError("hessian is singular at the optimum even after ridge restart")
    diag = MleDiagnostics(True, iterations, gnorm, ridge_restarted=ridge_used)
    return beta, cov, diag


def fit_mle(lik: ConditionalLikelihood) -> FitResult:
    """Maximum likelihood via Newton iteration with step halving.

    Convergence is gradient sup-norm <= ``TOLERANCE`` in fit units; the
    covariance is the inverse observed information, back-transformed to the
    original scale.
    """
    scale = lik.scale
    beta_std, cov_std, diag = _newton(lik)
    point = beta_std / scale
    cov = None
    if cov_std is not None:
        cov = cov_std / np.outer(scale, scale)
    return FitResult(
        mode="mle",
        point=point,
        labels=lik.labels,
        blocks=lik.blocks,
        covariance=cov,
        diagnostics=diag,
    )


def fit_bayes(
    lik: ConditionalLikelihood,
    prior: PriorSpec,
    config: SamplerConfig,
) -> FitResult:
    """Posterior sampling for likelihood + Gaussian prior.

    Newton iteration finds the posterior mode, which exists and is unique
    because the Gaussian prior makes the log-posterior strictly concave.
    Each chain then runs independence Metropolis with a multivariate t
    proposal centred at the mode, with the inverse negative Hessian there as
    its scale matrix, from its own generator spawned from ``config.seed``;
    its warmup picks the kept proposals' degrees of freedom (see
    ``mcmc.run_chain``), recorded per chain on the diagnostics. The chains
    run on a thread pool and are kept in seed order. Runs with identical
    seeds and configs are bit-identical, whatever the number of threads.
    ``log_post_evals`` counts the points scored, chains x (warmup + draws +
    1), and the Pareto k-hat is that of the kept proposals' weights.
    Non-convergence (any split-Rhat above 1.05) and a k-hat above 0.7 are
    recorded on the diagnostics and logged as warnings, not raised.
    """
    start = time.perf_counter()
    scale = lik.scale
    # prior is declared on the original scale; a column in units of s
    # multiplies its coefficient, hence its prior sd, by s
    precision = 1.0 / (prior.column_sds(lik) * scale) ** 2

    evals = []      # points per call; list.append is atomic across the chains' threads

    def log_post(beta_std: np.ndarray) -> np.ndarray:
        evals.append(len(beta_std))
        return lik.log_likelihood(beta_std / scale) - 0.5 * (beta_std**2 @ precision)

    mode, cov, _ = _newton(lik, precision)
    chol = np.linalg.cholesky(cov)
    seeds = np.random.SeedSequence(config.seed).spawn(config.chains)
    results = ordered_map(
        lambda seed: mcmc.run_chain(
            log_post, mode, chol, np.random.default_rng(seed),
            warmup=config.warmup, draws=config.draws,
        ),
        seeds,
    )
    sampler_s = time.perf_counter() - start

    std_draws = np.stack([r.draws for r in results])      # (C, N, dim)
    rhat = mcmc.split_rhat(std_draws)
    ess = mcmc.effective_sample_size(std_draws)
    draws = (std_draws / scale).reshape(-1, lik.dimension)
    mcse = mcmc.mcse_mean(std_draws, ess) / scale
    accept = tuple(r.acceptance_rate for r in results)
    diag = BayesDiagnostics(
        rhat=rhat,
        ess=ess,
        mcse=mcse,
        acceptance_rate=float(np.mean(accept)),
        converged=bool(np.all(rhat <= RHAT_WARN)),
        pareto_k=mcmc.pareto_k(np.concatenate([r.log_weights for r in results])),
        acceptance_per_chain=accept,
        proposal_df_per_chain=tuple(r.tail_df for r in results),
        log_post_evals=sum(evals),
        sampler_s=sampler_s,
    )
    if not diag.converged:
        log.warning(
            "sampler did not converge: max split-Rhat %.4f > %.2f",
            float(rhat.max()), RHAT_WARN,
        )
    if diag.pareto_k > mcmc.PARETO_K_WARN:
        log.warning(
            "proposal fits the posterior poorly: Pareto k-hat %.3f > %.1f",
            diag.pareto_k, mcmc.PARETO_K_WARN,
        )
    return FitResult(
        mode="bayes",
        point=draws.mean(axis=0),
        labels=lik.labels,
        blocks=lik.blocks,
        draws=draws,
        diagnostics=diag,
    )
