import tracemalloc
from datetime import date

import numpy as np
import pytest

from casecross.clr import ConditionalLikelihood, FitResult, fit_mle
from casecross.design import DayRecord, MatchedSet
from casecross.effects import (
    CHUNK,
    ContrastLevels,
    _posterior_summary,
    case_day_levels,
    mult_interaction,
    or_contrast,
    reri,
    response_curve,
    risk_surface,
)
from casecross.errors import UnsupportedModelError
from casecross.quantiles import type1_index
from casecross.simulate import generate, linear_truth
from casecross.splines import (
    LINEAR_INTERACTION,
    TENSOR_PRODUCT,
    BasisSpec,
    ModelBasis,
    design_matrix,
    fit_model_basis,
)
from per_day import rows_of

LEVELS = ContrastLevels(t0=25.0, t1=35.0, a0=8.0, a1=16.0, provenance="user")


def linear_model(t_range=(10.0, 45.0), a_range=(0.0, 25.0)):
    t = BasisSpec(1, (), t_range)
    a = BasisSpec(1, (), a_range)
    return ModelBasis(t, a, LINEAR_INTERACTION)


def spline_model():
    t = BasisSpec(3, (20.0, 30.0), (10.0, 45.0))
    a = BasisSpec(3, (6.0, 12.0), (0.0, 25.0))
    return ModelBasis(t, a, LINEAR_INTERACTION)


def tensor_model():
    t = BasisSpec(3, (20.0, 30.0), (10.0, 45.0))
    a = BasisSpec(3, (6.0, 12.0), (0.0, 25.0))
    return ModelBasis(t, a, TENSOR_PRODUCT)


def bayes_fit(model, draws):
    draws = np.asarray(draws, dtype=float)
    return FitResult(
        point=draws.mean(axis=0),
        sd=draws.std(axis=0, ddof=1),
        labels=model.column_labels,
        blocks=model.blocks,
        draws=draws,
    )


def point_mass_fit(model, coefficients, n_draws=100):
    """A posterior whose every draw row is ``coefficients``."""
    return bayes_fit(model, np.tile(np.asarray(coefficients, dtype=float), (n_draws, 1)))


def assert_point_mass(est, want, rel):
    """Every draw of ``est`` is one value, close to ``want``; so are the
    interval ends, which are draws, and the mean."""
    assert np.all(est.per_draw == est.per_draw[0])
    assert est.per_draw[0] == pytest.approx(want, rel=rel)
    assert est.interval == (est.per_draw[0], est.per_draw[0])
    assert est.point == pytest.approx(want, rel=rel)


def _sets_with_case_values(temps, pms):
    days = [date(2012, 7, d) for d in (2, 9, 16, 23, 30)]
    sets = []
    for k, (t, a) in enumerate(zip(temps, pms)):
        rows = [
            DayRecord(days[0], True, float(t), float(a)),
            DayRecord(days[1], False, float(t) - 1.0, float(a) + 0.5),
        ]
        sets.append(MatchedSet(f"s{k:03d}", rows))
    return rows_of(sets)


class TestCaseDayLevels:
    def test_uniform_10_to_40(self):
        sets = _sets_with_case_values(range(10, 41), [5.0] * 31)
        levels = case_day_levels(sets)
        # 31 case values: median = 16th order statistic, p95 = 30th
        assert levels.t0 == 25.0
        assert levels.t1 == 39.0
        assert levels.provenance == "case_day_median_p95"

    def test_single_case_row_degenerate(self):
        sets = _sets_with_case_values([30.0], [9.0])
        levels = case_day_levels(sets)
        assert levels.t0 == levels.t1 == 30.0
        assert levels.a0 == levels.a1 == 9.0

    def test_quantiles_over_case_rows_only(self):
        # control rows carry different values and must not matter
        sets = _sets_with_case_values([20.0, 21.0, 22.0], [7.0, 8.0, 9.0])
        levels = case_day_levels(sets)
        assert levels.t0 == 21.0
        assert levels.a0 == 8.0


class TestOrContrast:
    def test_null_draws_give_unit_or(self):
        model = spline_model()
        fit = bayes_fit(model, np.zeros((500, model.dimension)))
        for which in ("10", "01", "11"):
            est = or_contrast(fit, model, which, LEVELS)
            assert est.point == 1.0
            assert est.interval == (1.0, 1.0)
            assert np.all(est.per_draw == 1.0)

    def test_empty_contrast_is_unit_for_every_draw(self):
        model = spline_model()
        rng = np.random.default_rng(0)
        fit = bayes_fit(model, rng.normal(size=(400, model.dimension)))
        same_t = ContrastLevels(t0=28.0, t1=28.0, a0=7.0, a1=15.0, provenance="user")
        est = or_contrast(fit, model, "10", same_t)
        assert np.all(est.per_draw == 1.0)
        same_a = ContrastLevels(t0=25.0, t1=33.0, a0=9.0, a1=9.0, provenance="user")
        est = or_contrast(fit, model, "01", same_a)
        assert np.all(est.per_draw == 1.0)

    def test_known_slopes_closed_form_at_point_mass(self):
        model = linear_model()
        slope_t, slope_a = 0.07, 0.025
        fit = point_mass_fit(model, [slope_t, slope_a, 0.0])
        est = or_contrast(fit, model, "10", LEVELS)
        assert_point_mass(est, np.exp(slope_t * (LEVELS.t1 - LEVELS.t0)), rel=1e-15)
        est01 = or_contrast(fit, model, "01", LEVELS)
        assert_point_mass(est01, np.exp(slope_a * (LEVELS.a1 - LEVELS.a0)), rel=1e-15)

    def test_monotone_transform_consistency(self):
        # OR interval endpoints are exp of the log-OR interval endpoints
        model = spline_model()
        rng = np.random.default_rng(1)
        fit = bayes_fit(model, rng.normal(scale=0.1, size=(999, model.dimension)))
        est = or_contrast(fit, model, "11", LEVELS)
        log_draws = np.log(est.per_draw)
        from casecross.quantiles import type1_index

        srt = np.sort(log_draws)
        lo = np.exp(srt[type1_index(999, 0.025)])
        hi = np.exp(srt[type1_index(999, 0.975)])
        assert est.interval == (lo, hi)

    def test_extrapolation_flagged(self):
        model = spline_model()
        fit = bayes_fit(model, np.zeros((50, model.dimension)))
        wild = ContrastLevels(t0=25.0, t1=60.0, a0=8.0, a1=16.0, provenance="user")
        assert or_contrast(fit, model, "10", wild).extrapolated
        assert not or_contrast(fit, model, "01", wild).extrapolated
        assert or_contrast(fit, model, "11", wild).extrapolated

    def test_interval_brackets_point_for_posterior_mean(self):
        # basis columns are cubic-scale, so realistic coefficients are small;
        # the lognormal posterior mean then sits inside the 95% interval
        model = spline_model()
        rng = np.random.default_rng(2)
        fit = bayes_fit(model, rng.normal(scale=1e-3, size=(2000, model.dimension)))
        for which in ("10", "01", "11"):
            est = or_contrast(fit, model, which, LEVELS)
            assert est.interval[0] <= est.point <= est.interval[1]


class TestReri:
    def test_null_model_zero(self):
        model = spline_model()
        fit = bayes_fit(model, np.zeros((300, model.dimension)))
        est = reri(fit, model, LEVELS)
        assert est.point == 0.0
        assert est.interval == (0.0, 0.0)
        assert np.all(est.per_draw == 0.0)

    def test_per_draw_identity_is_bitwise(self):
        model = spline_model()
        rng = np.random.default_rng(3)
        fit = bayes_fit(model, rng.normal(scale=0.1, size=(800, model.dimension)))
        or10 = or_contrast(fit, model, "10", LEVELS).per_draw
        or01 = or_contrast(fit, model, "01", LEVELS).per_draw
        or11 = or_contrast(fit, model, "11", LEVELS).per_draw
        est = reri(fit, model, LEVELS)
        assert np.array_equal(est.per_draw, or11 - or10 - or01 + 1.0)

    def test_multiplicative_null_algebraic_identity(self):
        # h == 0 with linear f, g: OR11 = OR10 * OR01, so per draw
        # RERI = (OR10 - 1)(OR01 - 1) up to floating-point rounding
        model = linear_model()
        rng = np.random.default_rng(4)
        draws = np.column_stack(
            [rng.normal(0.05, 0.01, size=1000), rng.normal(0.02, 0.01, size=1000), np.zeros(1000)]
        )
        fit = bayes_fit(model, draws)
        or10 = or_contrast(fit, model, "10", LEVELS).per_draw
        or01 = or_contrast(fit, model, "01", LEVELS).per_draw
        or11 = or_contrast(fit, model, "11", LEVELS).per_draw
        assert np.allclose(or11, or10 * or01, rtol=1e-12, atol=0)
        est = reri(fit, model, LEVELS)
        want = (or10 - 1.0) * (or01 - 1.0)
        assert np.allclose(est.per_draw, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_point_mass_plug_in(self):
        model = linear_model()
        beta = np.array([0.07, 0.025, 0.001])
        est = reri(point_mass_fit(model, beta), model, LEVELS)
        rows = {
            "10": (LEVELS.t1 - LEVELS.t0, 0.0, LEVELS.t1 * LEVELS.a0 - LEVELS.t0 * LEVELS.a0),
            "01": (0.0, LEVELS.a1 - LEVELS.a0, LEVELS.t0 * LEVELS.a1 - LEVELS.t0 * LEVELS.a0),
            "11": (
                LEVELS.t1 - LEVELS.t0,
                LEVELS.a1 - LEVELS.a0,
                LEVELS.t1 * LEVELS.a1 - LEVELS.t0 * LEVELS.a0,
            ),
        }
        ors = {w: np.exp(np.dot(rows[w], beta)) for w in rows}
        assert_point_mass(est, ors["11"] - ors["10"] - ors["01"] + 1.0, rel=1e-12)


class TestMultInteraction:
    def test_null_is_one(self):
        model = linear_model()
        fit = bayes_fit(model, np.zeros((100, 3)))
        est = mult_interaction(fit)
        assert est.point == 1.0

    def test_point_mass_log2(self):
        model = linear_model()
        draws = np.zeros((200, 3))
        draws[:, 2] = np.log(2.0)
        fit = bayes_fit(model, draws)
        est = mult_interaction(fit)
        assert est.point == pytest.approx(2.0, rel=1e-15)
        assert est.interval == (est.point, est.point)

    def test_tensor_model_unsupported(self):
        model = tensor_model()
        fit = bayes_fit(model, np.zeros((50, model.dimension)))
        with pytest.raises(UnsupportedModelError):
            mult_interaction(fit)


@pytest.fixture(scope="module")
def mle_fit_and_model():
    data = generate(linear_truth(0.05, 0.02, 0.002, n_zones=10, seed=41), 500)
    model = fit_model_basis(data.rows, "spline_linear", 1, 1)
    lik = ConditionalLikelihood.from_design_matrix(design_matrix(data.rows, model))
    return fit_mle(lik), model


EFFECTS = {
    "or_contrast": lambda fit, model: or_contrast(fit, model, "10", LEVELS),
    "reri": lambda fit, model: reri(fit, model, LEVELS),
    "mult_interaction": lambda fit, model: mult_interaction(fit),
    "response_curve": lambda fit, model: response_curve(fit, model, "pm25", 28.0, [4.0, 8.0], 8.0),
    "risk_surface": lambda fit, model: risk_surface(fit, model, [22.0, 31.0], [7.0, 14.0], (25.0, 8.0)),
}


@pytest.mark.parametrize("effect", sorted(EFFECTS))
def test_fit_without_draws_is_refused(mle_fit_and_model, effect):
    fit, model = mle_fit_and_model
    assert fit.draws is None
    with pytest.raises(UnsupportedModelError, match="posterior draws.*fit_bayes"):
        EFFECTS[effect](fit, model)


class TestTables:
    def test_curve_reference_point_is_unit(self):
        model = spline_model()
        rng = np.random.default_rng(5)
        fit = bayes_fit(model, rng.normal(scale=0.05, size=(400, model.dimension)))
        grid = np.array([20.0, 25.0, 30.0, 35.0])
        table = response_curve(fit, model, "temperature_max", 8.0, grid, reference=25.0)
        assert [r["t"] for r in table] == [20.0, 25.0, 30.0, 35.0]
        assert all(r["a"] == 8.0 for r in table)
        ref_row = table[1]
        assert ref_row["or"] == 1.0 and ref_row["lo95"] == 1.0 and ref_row["hi95"] == 1.0

    def test_curve_pm25_axis(self):
        model = spline_model()
        fit = bayes_fit(model, np.zeros((50, model.dimension)))
        grid = np.array([4.0, 8.0, 12.0])
        table = response_curve(fit, model, "pm25", 28.0, grid, reference=8.0)
        assert [r["a"] for r in table] == [4.0, 8.0, 12.0]
        assert all(r["t"] == 28.0 for r in table)

    def test_surface_reference_cell_unit_for_all_draws(self):
        model = spline_model()
        rng = np.random.default_rng(6)
        fit = bayes_fit(model, rng.normal(scale=0.08, size=(300, model.dimension)))
        t_grid = np.array([20.0, 25.0, 30.0])
        a_grid = np.array([6.0, 8.0, 10.0])
        table = risk_surface(fit, model, t_grid, a_grid, reference=(25.0, 8.0))
        assert len(table) == 9
        ref = [r for r in table if r["t"] == 25.0 and r["a"] == 8.0]
        assert len(ref) == 1
        assert ref[0]["or"] == 1.0
        assert ref[0]["lo95"] == 1.0 and ref[0]["hi95"] == 1.0

    def test_surface_matches_pointwise_contrasts(self):
        model = spline_model()
        rng = np.random.default_rng(7)
        fit = bayes_fit(model, rng.normal(scale=0.05, size=(200, model.dimension)))
        table = risk_surface(fit, model, [22.0, 31.0], [7.0, 14.0], reference=(25.0, 8.0))
        for row in table:
            delta = model.rows(row["t"], row["a"]) - model.rows(25.0, 8.0)
            want = float(np.exp(fit.draws @ delta).mean())
            assert row["or"] == pytest.approx(want, rel=1e-12)


# (model, draw scale): the tensor basis is products of cubic-scale columns
TABLE_MODELS = {"spline_linear": (spline_model, 1e-3), "spline_tensor": (tensor_model, 1e-6)}


def _table_fit(kind, n_draws, seed):
    make, scale = TABLE_MODELS[kind]
    model = make()
    rng = np.random.default_rng(seed)
    return model, bayes_fit(model, rng.normal(scale=scale, size=(n_draws, model.dimension)))


def _full_matrix_table(fit, model, pairs, ref):
    """The tables as summarized from the whole (draws, points) OR array."""
    rows = model.rows(pairs[:, 0], pairs[:, 1]) - model.rows(ref[0], ref[1])
    per_draw = np.exp(fit.draws @ rows.T)
    s = per_draw.shape[0]
    k_lo, k_hi = type1_index(s, 0.025), type1_index(s, 0.975)
    part = np.partition(per_draw, (k_lo, k_hi), axis=0)
    return {"or": per_draw.mean(axis=0), "lo95": part[k_lo], "hi95": part[k_hi]}


class TestStreamedTables:
    """The tables are summarized in column chunks; they must agree with the
    full-matrix summary up to the last bits of the smaller matrix products."""

    def _assert_matches(self, table, want):
        for key, values in want.items():
            got = np.array([row[key] for row in table])
            np.testing.assert_allclose(got, values, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", sorted(TABLE_MODELS))
    @pytest.mark.parametrize("n", [50, 2 * CHUNK + 1])  # under one chunk; k * chunk + 1
    def test_curve_matches_full_matrix(self, kind, n):
        model, fit = _table_fit(kind, 1000, seed=n)
        grid = np.linspace(12.0, 42.0, n)
        table = response_curve(fit, model, "temperature_max", 9.0, grid, reference=25.0)
        pairs = np.column_stack([grid, np.full(n, 9.0)])
        self._assert_matches(table, _full_matrix_table(fit, model, pairs, (25.0, 9.0)))

    @pytest.mark.parametrize("kind", sorted(TABLE_MODELS))
    @pytest.mark.parametrize("shape", [(51, 51), (2 * CHUNK + 1, 1)])
    def test_surface_matches_full_matrix(self, kind, shape):
        model, fit = _table_fit(kind, 1000, seed=shape[0])
        t_grid, a_grid = np.linspace(12.0, 42.0, shape[0]), np.linspace(1.0, 22.0, shape[1])
        table = risk_surface(fit, model, t_grid, a_grid, reference=(25.0, 8.0))
        tt, aa = np.meshgrid(t_grid, a_grid, indexing="ij")
        pairs = np.column_stack([tt.ravel(), aa.ravel()])
        assert len(table) == shape[0] * shape[1]
        self._assert_matches(table, _full_matrix_table(fit, model, pairs, (25.0, 8.0)))

    @pytest.mark.parametrize("n_draws", [999, 1000])
    def test_contrasts_bit_equal_to_sorted_order_statistics(self, n_draws):
        model, fit = _table_fit("spline_linear", n_draws, seed=n_draws)
        fit.draws[:, -1] *= 100.0  # a visible interaction for mult_interaction
        k_lo, k_hi = type1_index(n_draws, 0.025), type1_index(n_draws, 0.975)
        ests = [or_contrast(fit, model, w, LEVELS) for w in ("10", "01", "11")]
        ests += [reri(fit, model, LEVELS), mult_interaction(fit)]
        for est in ests:
            srt = np.sort(est.per_draw, kind="stable")
            assert est.point == float(est.per_draw.mean()), est.name
            assert est.interval == (float(srt[k_lo]), float(srt[k_hi])), est.name

    def test_surface_peak_memory_is_about_one_chunk(self):
        """``risk_surface`` over 6,000 draws and a 51 x 51 grid peaks at about
        6.9 MB of traced allocations on two threads (on each, a 6,000 x 32
        chunk of ORs, exponentiated in place, and its transposed copy; 3.6 MB
        on one thread); summarizing the whole (6,000, 2,601) OR array took
        about 251 MB, the array and its partitioned copy."""
        model, fit = _table_fit("spline_tensor", 6000, seed=0)
        grid_t, grid_a = np.linspace(12.0, 42.0, 51), np.linspace(1.0, 22.0, 51)
        tracemalloc.start()
        try:
            risk_surface(fit, model, grid_t, grid_a, reference=(25.0, 8.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


def _summary_block(kind, n_draws, n_cols, seed):
    """A (draws, columns) block of per-draw values: distinct, heavily tied,
    or ties mixed with +-inf and NaN."""
    rng = np.random.default_rng(seed)
    if kind == "distinct":
        return np.exp(rng.normal(size=(n_draws, n_cols)))
    block = rng.integers(0, 4, size=(n_draws, n_cols)).astype(float)
    if kind == "special":
        block[rng.random(block.shape) < 0.1] = np.inf
        block[rng.random(block.shape) < 0.1] = -np.inf
        block[rng.random(block.shape) < 0.05] = np.nan
    return block


class TestPosteriorSummaryExactness:
    """``_posterior_summary`` selects its order statistics one kth at a time
    on contiguous rows; they must be the sorted sample's elements, the same
    bits as the multi-kth partition along the draws axis, and the means
    those of the block along axis 0."""

    @pytest.mark.parametrize("kind", ["distinct", "ties", "special"])
    @pytest.mark.parametrize("n_cols", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("n_draws", [1, 2, 20, 21, 1600, 6000])
    def test_bit_equal_to_sort_and_multi_kth_partition(self, n_draws, n_cols, kind):
        block = _summary_block(kind, n_draws, n_cols, seed=n_draws * 1000 + n_cols)
        before = block.copy()
        k_lo, k_hi = type1_index(n_draws, 0.025), type1_index(n_draws, 0.975)
        with np.errstate(invalid="ignore"):    # the mean of a column holding inf and -inf
            mean, lo, hi = _posterior_summary(block)
            want_mean = before.mean(axis=0)
        assert np.array_equal(block, before, equal_nan=True)
        assert np.array_equal(mean, want_mean, equal_nan=True)
        srt = np.sort(before, axis=0)
        part = np.partition(before, (k_lo, k_hi), axis=0)
        for got, k in ((lo, k_lo), (hi, k_hi)):
            assert got.shape == (n_cols,)
            assert np.array_equal(got, srt[k], equal_nan=True)
            assert np.array_equal(got, part[k], equal_nan=True)

    def test_contrast_per_draw_is_left_as_drawn(self):
        model, fit = _table_fit("spline_linear", 1000, seed=5)
        est = or_contrast(fit, model, "10", LEVELS)
        row = model.rows(LEVELS.t1, LEVELS.a0) - model.rows(LEVELS.t0, LEVELS.a0)
        want = np.exp(fit.draws @ row)
        assert np.array_equal(est.per_draw, want)
