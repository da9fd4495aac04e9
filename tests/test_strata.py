"""The count-weighted stratum likelihood against the per-set form.

Matched sets that hold the same rows and differ only in which row is the
case are collapsed into strata. These tests check that the collapse is exact:
on the shipped configurations against a plain per-set softmax reference, and
on generated instances through the properties of the collapse key. The
batched evaluation, one pass over several coefficient vectors, is checked
against one evaluation per vector. The kernel, which runs over runs of
strata of one width and cuts a batch's runs into spans, is checked bit for
bit against one padded buffer over every stratum: on a BLAS that rounds a
product's rows differently by matrix size these checks fail. The tensor
leaves out each stratum's zero reference row, which is checked against the
full tensor; and coefficients at which exp overflows are checked to score
finite and exact. The build's within-set row sort is checked against one
lexsort over every column, and so is the tensor it builds.
"""

import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casecross import clr, io
from casecross.clr import ConditionalLikelihood, fit_mle, gradient, hessian, log_likelihood
from casecross.config import load_config
from casecross.mcmc import run_chain
from casecross.design import TrimPolicy, apply_trimming, build_matched_sets
from casecross.exposure import PM25, TEMPERATURE, WindowSpec, link_pm25, link_temperature
from casecross.simulate import brute_force_set_probability, generate, linear_truth
from casecross.splines import design_matrix, fit_model_basis
from per_day import pairs_likelihood

REPO = Path(__file__).resolve().parent.parent
CONFIGS = ("main", "temp3day", "trim99", "tensor")


def shipped_design(name):
    """The design matrix of a shipped config, as ``run-all`` builds it."""
    cfg, _ = load_config(REPO / "configs" / f"{name}.json")
    cells = io.read_grid_cells(cfg.grid)
    zones = io.read_zones(cfg.zones, io.read_membership(cfg.membership))
    sets, _ = build_matched_sets(
        io.read_events(cfg.events),
        link_temperature(cells, zones, io.read_daily_field(cfg.temperature_field)),
        link_pm25(cells, zones, io.read_daily_field(cfg.pm25_field)),
        WindowSpec(TEMPERATURE, cfg.temperature_window_days),
        WindowSpec(PM25, cfg.pm25_window_days),
        season_months=cfg.season_months,
    )
    sets, _, _ = apply_trimming(sets, TrimPolicy(cfg.trim_quantile))
    model = fit_model_basis(sets, cfg.model_kind, cfg.temperature_df, cfg.pm25_df)
    return design_matrix(sets, model)


def per_set_reference(beta, dm):
    """Log-likelihood, score and Hessian summed set by set with a plain
    softmax; score and Hessian each with the sum of its terms' magnitudes,
    the scale against which summation in another order may differ."""
    dim = beta.size
    ll = 0.0
    g, g_scale = np.zeros(dim), np.zeros(dim)
    h, h_scale = np.zeros((dim, dim)), np.zeros((dim, dim))
    bounds = np.flatnonzero(np.diff(dm.set_index)) + 1
    for rows, case in zip(np.split(dm.values, bounds), np.split(dm.is_case, bounds)):
        e = rows @ beta
        e -= e.max()
        p = np.exp(e) / np.exp(e).sum()
        term = float(np.log(p[case][0]))
        mean = p @ rows
        score = rows[case][0] - mean
        centred = rows - mean
        info = (centred * p[:, np.newaxis]).T @ centred
        ll += term
        g += score
        h -= info
        g_scale += np.abs(score)
        h_scale += np.abs(info)
    return ll, (g, g_scale), (h, h_scale)


def log_softmax_reference(beta, dm):
    """The log-likelihood summed set by set as a log-softmax, each set's
    largest score subtracted first: finite where case probabilities
    underflow."""
    ll = 0.0
    bounds = np.flatnonzero(np.diff(dm.set_index)) + 1
    for rows, case in zip(np.split(dm.values, bounds), np.split(dm.is_case, bounds)):
        e = rows @ beta
        e -= e.max()
        ll += float(e[case][0] - np.log(np.exp(e).sum()))
    return ll


@pytest.fixture(scope="module", params=CONFIGS)
def shipped(request):
    dm = shipped_design(request.param)
    lik = ConditionalLikelihood.from_design_matrix(dm)
    return request.param, dm, lik, fit_mle(lik)


class TestShippedConfigs:
    def test_collapse_counts(self, shipped):
        name, dm, lik, _ = shipped
        assert lik.n_sets == np.unique(dm.set_index).size
        assert lik.n_rows == dm.values.shape[0]
        assert lik.n_strata < lik.n_sets, name

    @pytest.mark.parametrize("perturb", [0.0, 0.5])
    def test_matches_per_set_reference(self, shipped, perturb):
        name, dm, lik, mle = shipped
        beta = mle.point + perturb * mle.sd * np.linspace(-1.0, 1.0, mle.point.size)
        ll, (g, g_scale), (h, h_scale) = per_set_reference(beta, dm)
        assert abs(log_likelihood(beta, lik) - ll) <= 1e-12 * abs(ll), name
        assert np.all(np.abs(gradient(beta, lik) - g) <= 1e-12 * g_scale), name
        assert np.all(np.abs(hessian(beta, lik) - h) <= 1e-12 * h_scale), name

    def test_batched_log_likelihood_matches_per_column(self, shipped):
        name, _, lik, mle = shipped
        rng = np.random.default_rng(0)
        betas = mle.point + mle.sd * rng.standard_normal((16, mle.point.size))
        batched = lik._strata.log_likelihood(betas)
        assert batched.shape == (16,)
        for beta, ll in zip(betas, batched):
            assert ll == pytest.approx(log_likelihood(beta, lik), rel=1e-12), name

    def test_batch_memory_is_a_few_blocks(self, shipped):
        """One call over every proposal of a 1,500 + 1,500 chain allocates
        a work buffer and an lse array sized by ``BLOCK`` and ``COLS``, and
        the result: 0.70-0.79 MB here, where a (width - 1, strata,
        proposals) buffer would take 75 MB."""
        name, _, lik, mle = shipped
        betas = mle.point + mle.sd * np.random.default_rng(1).standard_normal((3001, mle.point.size))
        betas *= clr._scales(lik)
        tracemalloc.start()
        try:
            lik.standardized.log_likelihood(betas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6, name

    def test_reference_newton_step_from_collapsed_mle(self, shipped):
        name, dm, _, mle = shipped
        _, (g, _), (h, _) = per_set_reference(mle.point, dm)
        step = np.linalg.solve(-h, g)
        assert np.all(np.abs(step) <= 1e-10 * np.abs(mle.point)), name


# ------------------------------------------------------------ collapse key

def oracle_log_likelihood(beta, sets):
    return sum(
        float(np.log(brute_force_set_probability(beta, case, ctrl)[0]))
        for case, ctrl in sets
    )


@st.composite
def duplicated_instances(draw):
    """Dyadic sets, each repeated 1-4 times with the case moved to another
    row, in shuffled order; a coefficient vector; the number of distinct
    sets drawn; and the generator, for further draws."""
    dim = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    sets = []
    n_distinct = draw(st.integers(1, 8))
    for _ in range(n_distinct):
        m = int(rng.integers(2, 6))
        rows = rng.integers(-512, 512, size=(m, dim)) / 64.0
        for _ in range(int(rng.integers(1, 5))):
            k = int(rng.integers(m))
            sets.append((rows[k], np.delete(rows, k, axis=0)))
    order = rng.permutation(len(sets))
    return [sets[i] for i in order], rng.normal(size=dim), n_distinct, rng


class TestCollapseKey:
    @settings(max_examples=60, deadline=None)
    @given(duplicated_instances())
    def test_duplicates_collapse_exactly(self, instance):
        sets, beta, n_distinct, _ = instance
        lik = pairs_likelihood(sets)
        assert lik.n_sets == len(sets)
        assert lik.n_rows == sum(1 + len(ctrl) for _, ctrl in sets)
        assert lik.n_strata <= n_distinct
        assert log_likelihood(beta, lik) == pytest.approx(
            oracle_log_likelihood(beta, sets), rel=1e-12
        )

    def test_repeated_set_is_one_stratum(self):
        rows = np.array([[0.5, 1.0], [0.25, -2.0], [1.5, 0.0], [-1.0, 0.75]])
        sets = [(rows[k], np.delete(rows, k, axis=0)) for k in (0, 1, 1, 3, 2, 0)]
        lik = pairs_likelihood(sets)
        assert (lik.n_sets, lik.n_strata) == (6, 1)

    @settings(max_examples=60, deadline=None)
    @given(duplicated_instances())
    def test_dyadic_shift_per_set_bit_identical(self, instance):
        sets, beta, _, rng = instance
        shifted = []
        for case, ctrl in sets:
            c = rng.integers(-512, 512, size=beta.size) / 64.0
            shifted.append((case + c, ctrl + c))
        lik, lik_shifted = pairs_likelihood(sets), pairs_likelihood(shifted)
        assert lik.n_strata == lik_shifted.n_strata
        assert log_likelihood(beta, lik) == log_likelihood(beta, lik_shifted)

    @settings(max_examples=30, deadline=None)
    @given(duplicated_instances())
    def test_building_twice_bit_identical(self, instance):
        sets, beta, _, _ = instance
        a, b = pairs_likelihood(sets), pairs_likelihood(sets)
        assert a.n_strata == b.n_strata
        assert log_likelihood(beta, a) == log_likelihood(beta, b)
        assert np.array_equal(gradient(beta, a), gradient(beta, b))
        assert np.array_equal(hessian(beta, a), hessian(beta, b))

    @settings(max_examples=60, deadline=None)
    @given(duplicated_instances(), st.integers(0, 2**32 - 1))
    def test_set_permutation(self, instance, seed):
        sets, beta, _, _ = instance
        rng = np.random.default_rng(seed)
        # non-dyadic rows, so that the stratum's reference set matters
        sets = [(case + 0.1, ctrl + 0.1) for case, ctrl in sets]
        perm = [sets[i] for i in rng.permutation(len(sets))]
        l1 = log_likelihood(beta, pairs_likelihood(sets))
        l2 = log_likelihood(beta, pairs_likelihood(perm))
        assert l1 == pytest.approx(l2, rel=1e-13)

    def test_design_matrix_rows_in_any_order(self, shipped):
        _, dm, lik, mle = shipped
        order = np.random.default_rng(0).permutation(dm.set_index.size)
        shuffled = replace(
            dm, values=dm.values[order], set_index=dm.set_index[order], is_case=dm.is_case[order]
        )
        other = ConditionalLikelihood.from_design_matrix(shuffled)
        assert (other.n_sets, other.n_strata) == (lik.n_sets, lik.n_strata)
        assert log_likelihood(mle.point, other) == pytest.approx(
            log_likelihood(mle.point, lik), rel=1e-13
        )


# ------------------------------------------------------- array constructor

def ordered_sets(rng, n_sets=40, dim=3):
    """Values, set index and case flags of ``n_sets`` sets of 2 to 5 rows,
    each set's rows contiguous and sets in order."""
    sizes = rng.integers(2, 6, size=n_sets)
    set_index = np.repeat(np.arange(n_sets), sizes)
    is_case = np.zeros(set_index.size, dtype=bool)
    is_case[np.cumsum(sizes) - sizes + rng.integers(0, sizes)] = True
    return rng.normal(size=(set_index.size, dim)), set_index, is_case


class TestArrayConstructor:
    @pytest.mark.parametrize("seed", range(5))
    def test_interleaved_rows_bit_identical_to_ordered(self, seed):
        rng = np.random.default_rng(seed)
        values, set_index, is_case = ordered_sets(rng)
        order = rng.permutation(set_index.size)      # sets' rows interleaved
        assert np.any(np.diff(set_index[order]) < 0)
        a = ConditionalLikelihood(values, set_index, is_case)
        b = ConditionalLikelihood(values[order], set_index[order], is_case[order])
        assert (b.n_sets, b.n_rows, b.n_strata) == (a.n_sets, a.n_rows, a.n_strata)
        for beta in rng.normal(size=(4, values.shape[1])):
            assert log_likelihood(beta, a) == log_likelihood(beta, b)
            for x, y in zip(a._strata.derivatives(beta), b._strata.derivatives(beta)):
                assert np.asarray(x).tobytes() == np.asarray(y).tobytes()

    def test_malformed_sets_rejected(self):
        values, set_index, is_case = ordered_sets(np.random.default_rng(9), n_sets=3)
        two_cases = is_case.copy()
        two_cases[set_index == 1] = True
        with pytest.raises(ValueError, match="exactly one case row"):
            ConditionalLikelihood(values, set_index, two_cases)
        lone = np.append(set_index, 3)          # a set of its case row alone
        with pytest.raises(ValueError, match="at least one control row"):
            ConditionalLikelihood(np.vstack([values, values[:1]]), lone, np.append(is_case, True))
        for bad in (np.nan, np.inf):
            broken = values.copy()
            broken[2, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                ConditionalLikelihood(broken, set_index, is_case)
        with pytest.raises(ValueError, match="at least one matched set"):
            ConditionalLikelihood(np.zeros((0, 3)), np.zeros(0, dtype=int), np.zeros(0, dtype=bool))


@st.composite
def tied_designs(draw):
    """Sets of 2-5 rows with integer-valued columns, so that rows tie often,
    zeros of either sign, arbitrary set labels and the rows of all sets
    shuffled together."""
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_sets = draw(st.integers(1, 40))
    sizes = rng.integers(2, 6, n_sets)
    labels = rng.choice(np.arange(-50, 50), n_sets, replace=False)
    set_index = np.repeat(labels, sizes)
    is_case = np.zeros(set_index.size, dtype=bool)
    is_case[np.cumsum(sizes) - sizes + rng.integers(0, sizes)] = True
    values = rng.integers(-2, 3, size=(set_index.size, dim)).astype(float)
    values[(values == 0) & (rng.random(values.shape) < 0.5)] = -0.0
    order = rng.permutation(set_index.size)
    return values[order], set_index[order], is_case[order]


class TestRowOrder:
    """The within-set row sort against one lexsort over every column."""

    @settings(max_examples=200, deadline=None)
    @given(tied_designs())
    def test_permutation_is_lexsort(self, design):
        values, set_index, _ = design
        want = np.lexsort((*values.T[::-1], set_index))
        assert np.array_equal(clr._row_order(values, set_index), want)

    @settings(max_examples=100, deadline=None)
    @given(tied_designs())
    def test_build_bit_identical_to_lexsort_build(self, design):
        got = ConditionalLikelihood(*design)._strata
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clr, "_row_order", lambda v, s: np.lexsort((*v.T[::-1], s)))
            want = ConditionalLikelihood(*design)._strata
        for key in ("z", "n", "t", "pad"):
            assert getattr(got, key).tobytes() == getattr(want, key).tobytes(), key
            assert getattr(got, key).shape == getattr(want, key).shape, key
        assert got.runs == want.runs


# ---------------------------------------------------------- overflow guard

class TestOverflowGuard:
    """Coefficients at which some z.beta passes 709, where exp overflows:
    the batch falls back to the stable form stratum by stratum, and one
    vector and the derivatives take the stable form throughout."""

    @pytest.fixture(scope="class")
    def sharp(self):
        rng = np.random.default_rng(709)
        values, set_index, is_case = ordered_sets(rng, n_sets=60)
        lik = ConditionalLikelihood(values, set_index, is_case)
        dm = SimpleNamespace(values=values, set_index=set_index, is_case=is_case)
        betas = np.array([300.0, -200.0, 150.0]) + rng.normal(size=(16, 3))
        assert np.all((lik._strata.z @ betas.T).max(axis=0) > 709.0)
        return lik, dm, betas

    def test_batch_and_vector_finite_and_exact(self, sharp):
        lik, dm, betas = sharp
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = lik._strata.log_likelihood(betas)
            single = [log_likelihood(beta, lik) for beta in betas]
            derivatives = [(gradient(beta, lik), hessian(beta, lik)) for beta in betas[:4]]
        assert np.all(np.isfinite(batch)) and np.all(np.isfinite(single))
        for beta, b, v in zip(betas, batch, single):
            ll = log_softmax_reference(beta, dm)
            assert abs(b - ll) <= 1e-12 * abs(ll)
            assert abs(v - ll) <= 1e-12 * abs(ll)
        for beta, (g, h) in zip(betas, derivatives):
            # case probabilities underflow here, so the reference's
            # log-likelihood is not finite, but its weights are
            with np.errstate(divide="ignore"):
                _, (g_ref, g_scale), _ = per_set_reference(beta, dm)
            assert np.all(np.abs(g - g_ref) <= 1e-12 * g_scale)
            assert np.all(np.isfinite(h))

    def test_chain_starts_where_exp_overflows(self, sharp):
        lik, _, betas = sharp
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chain = run_chain(
                lik._strata.log_likelihood, betas[0], 0.1 * np.eye(3),
                np.random.default_rng(1), warmup=20, draws=20,
            )
        assert np.all(np.isfinite(chain.log_weights))


# ------------------------------------------------------------- span kernel

def synth_design(kind):
    """A small generated design over nine seasons, 2008 to 2016."""
    truth = linear_truth(0.06, 0.02, 0.0015, n_zones=12, years=tuple(range(2008, 2017)), seed=2024)
    rows = generate(truth, 3000).rows
    return design_matrix(rows, fit_model_basis(rows, kind, 3, 3))


DESIGNS = {name: (lambda name=name: shipped_design(name)) for name in CONFIGS}
DESIGNS["synth-main"] = lambda: synth_design("spline_linear")
DESIGNS["synth-tensor"] = lambda: synth_design("spline_tensor")


def stratum_widths(dm):
    """The set size of each stratum in stratum order, rebuilt set by set:
    a stratum is the key (size, rows sorted and differenced against the
    smallest), strata in the order of the key bytes."""
    bounds = np.flatnonzero(np.diff(dm.set_index)) + 1
    sets = np.split(dm.values, bounds)
    width = max(len(rows) for rows in sets)
    keys = set()
    for rows in sets:
        rows = rows[np.lexsort(rows.T[::-1])]
        key = np.zeros((1 + width * rows.shape[1]))
        key[0] = len(rows)
        key[1 : 1 + rows.size] = (rows - rows[0]).ravel()
        keys.add(key.tobytes())
    return np.array([int(np.frombuffer(k[:8])[0]) for k in sorted(keys)])


def padded_kernel(strata, widths, cols):
    """The kernel over one padded buffer of every stratum's stored rows,
    (width - 1, strata, k), -inf past each stratum's width - 1, with the
    reference row implicit: the reference the spanned kernel must match bit
    for bit. A batch is cut into blocks of ``cols`` vectors, as the kernel
    cuts it, since the matrix-vector products c.t and n.lse round a vector's
    value by its place in the block; a lone vector of a batch is scored
    beside a copy of itself, as in the kernel. Each block is log1p of the sum of
    exp(z.beta). One vector takes the stable form, mx = max(0, max_j
    z_j.beta), as the kernel does."""
    pad = np.where(np.arange(widths.max() - 1)[:, np.newaxis] < widths - 1, 0.0, -np.inf)

    def stable(beta):
        e = (strata.z @ beta).reshape(pad.shape) + pad
        mx = np.maximum(e.max(axis=0), 0.0)
        w = np.exp(e - mx)
        norm = w.sum(axis=0) + np.exp(-mx)
        return w, norm, mx + np.log(norm)

    def batch(block):
        if len(block) == 1:
            return batch(np.repeat(block, 2, axis=0))[:1]
        e = (strata.z @ block.T).reshape(*pad.shape, -1)
        e = np.exp(e + pad[..., np.newaxis])
        return block @ strata.t - strata.n @ np.log1p(e.sum(axis=0))

    def log_likelihood(beta):
        betas = np.atleast_2d(beta)
        if len(betas) == 1:
            return np.array([strata.t @ betas[0] - strata.n @ stable(betas[0])[2]])
        return np.concatenate([batch(betas[c:c + cols]) for c in range(0, len(betas), cols)])

    def derivatives(beta):
        w, norm, lse = stable(beta)
        ll = float(strata.t @ beta - strata.n @ lse)
        w *= strata.n / norm
        g = strata.t - w.reshape(-1) @ strata.z
        wz = w.reshape(-1, 1) * strata.z
        zbar = wz.reshape(*w.shape, -1).sum(axis=0)
        return ll, g, (zbar.T / strata.n) @ zbar - strata.z.T @ wz

    return log_likelihood, derivatives


def full_tensor(dm):
    """The (width, strata, dim) tensor of every stratum's rows, its
    reference row included, with per-position case counts and the position
    of each stratum's reference row: the layout before the reference row
    was dropped, built as ``ConditionalLikelihood`` keys and orders its
    strata."""
    order = np.lexsort((*dm.values.T[::-1], dm.set_index))
    x, case, sid = dm.values[order], dm.is_case[order], dm.set_index[order]
    n_rows, dim = x.shape
    first_row = np.append(True, sid[1:] != sid[:-1])
    start = np.flatnonzero(first_row)
    size = np.diff(np.append(start, n_rows))
    row_set = np.cumsum(first_row) - 1
    pos = np.arange(n_rows) - start[row_set]
    width, n_sets = int(size.max()), start.size
    key = np.zeros((n_sets, 1 + width * dim))
    key[:, 0] = size
    key[:, 1:].reshape(n_sets, width, dim)[row_set, pos] = x - x[start[row_set]]
    key = key.view(np.dtype((np.void, key.shape[1] * key.itemsize))).ravel()
    _, first, stratum = np.unique(key, return_index=True, return_inverse=True)
    stratum = stratum.ravel()
    case_rows = np.flatnonzero(case)
    counts = np.zeros((width, first.size))
    np.add.at(counts, (pos[case_rows], stratum), 1.0)
    keep = np.isin(row_set, first)
    z = np.zeros((width, first.size, dim))
    z[pos[keep], stratum[row_set[keep]]] = x[keep] - x[case_rows[row_set[keep]]]
    return z, counts, pos[case_rows[first]]


@pytest.fixture(scope="module", params=list(DESIGNS))
def design(request):
    dm = DESIGNS[request.param]()
    return request.param, dm, stratum_widths(dm)


class TestSpanKernel:
    def test_runs_tile_strata_at_their_widths(self, design):
        name, dm, widths = design
        runs = ConditionalLikelihood.from_design_matrix(dm)._strata.runs
        assert [s0 for _, s0, _ in runs] == [0] + [s1 for _, _, s1 in runs[:-1]], name
        assert runs[-1][2] == widths.size, name
        assert all(s0 < s1 for _, s0, s1 in runs), name
        for width, s0, s1 in runs:
            assert np.all(widths[s0:s1] == width), name
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:])), name
        # some run is longer than 7 and no multiple of it, so BLOCK = 7 cuts it short
        assert any(s1 - s0 > 7 and (s1 - s0) % 7 for _, s0, s1 in runs), name

    @pytest.mark.parametrize("block", [clr.BLOCK, 7, 1])
    # one vector, and 2 * cols + 1 vectors: two full blocks and a short one
    @pytest.mark.parametrize("cols, k", [
        (clr.COLS, 1), (clr.COLS, 2 * clr.COLS + 1), (7, 15), (1, 3),
    ])
    def test_bit_identical_to_padded_buffer(self, design, block, cols, k, monkeypatch):
        name, dm, widths = design
        monkeypatch.setattr(clr, "BLOCK", block)
        monkeypatch.setattr(clr, "COLS", cols)
        lik = ConditionalLikelihood.from_design_matrix(dm)
        strata = lik.standardized
        ref_ll, ref_derivatives = padded_kernel(strata, widths, cols)
        mode = fit_mle(lik).point * clr._scales(lik)
        rng = np.random.default_rng(k)
        betas = mode + 0.3 * rng.standard_normal((k, mode.size))
        assert np.array_equal(strata.log_likelihood(betas), ref_ll(betas)), name
        for beta in betas[:4]:
            assert strata.log_likelihood(beta) == float(ref_ll(beta)[0]), name
            ll, g, h = strata.derivatives(beta)
            ref = ref_derivatives(beta)
            assert ll == ref[0], name
            assert np.array_equal(g, ref[1]), name
            assert np.array_equal(h, ref[2]), name
            assert strata.derivatives(beta, want_hess=False)[1].tobytes() == ref[1].tobytes(), name

    @pytest.mark.parametrize("width", [2, 4])
    def test_one_stratum_bit_identical_to_padded_buffer(self, width):
        # a set twice over, its case row moved: one stratum, so that no
        # neighbour can share a lone stratum's product
        rows = np.random.default_rng(width).normal(size=(width, 3))
        is_case = np.zeros(2 * width, dtype=bool)
        is_case[[0, width + 1]] = True
        lik = ConditionalLikelihood(np.vstack([rows, rows]), np.repeat([0, 1], width), is_case)
        assert lik.n_strata == 1
        ref_ll, _ = padded_kernel(lik._strata, np.array([width]), clr.COLS)
        betas = np.random.default_rng(0).normal(size=(2 * clr.COLS + 1, 3))
        assert np.array_equal(lik._strata.log_likelihood(betas), ref_ll(betas))

    def test_reference_row_dropped_exactly(self, design):
        name, dm, widths = design
        strata = ConditionalLikelihood.from_design_matrix(dm)._strata
        full, counts, ref = full_tensor(dm)
        width, n_strata, dim = full.shape
        cols = np.arange(n_strata)
        assert not np.any(full[ref, cols]), name         # every dropped row is zero
        # the stored rows are the others, in position order, then zeros
        pos = np.arange(width - 1)[:, np.newaxis]
        kept = full[pos + (pos >= ref), cols]
        z = strata.z.reshape(width - 1, n_strata, dim)
        assert np.array_equal(z, kept), name
        assert not np.any(z[pos >= widths - 1]), name
        assert np.array_equal(strata.n, counts.sum(axis=0)), name
        flat = full.reshape(-1, dim)
        scale = counts.ravel() @ np.abs(flat)
        assert np.all(np.abs(strata.t - counts.ravel() @ flat) <= 1e-15 * scale), name
