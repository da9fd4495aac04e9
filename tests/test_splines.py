from datetime import date

import numpy as np
import pytest

from casecross.design import DayRecord, MatchedSet
from casecross.errors import ConfigurationError, DegenerateDataError
from casecross.splines import (
    LINEAR_INTERACTION,
    TENSOR_PRODUCT,
    BasisSpec,
    InteractionSpec,
    design_matrix,
    eval_interaction,
    eval_natural_cubic,
    fit_knots,
    fit_model_basis,
)
from per_day import rows_of


def _spec(boundary=(0.0, 30.0), interior=(10.0, 20.0)):
    return BasisSpec(len(interior) + 1, tuple(interior), boundary)


def fd_second_derivative(spec, x, h):
    lo = eval_natural_cubic(spec, x - h)
    mid = eval_natural_cubic(spec, x)
    hi = eval_natural_cubic(spec, x + h)
    return (hi - 2 * mid + lo) / (h * h)


class TestKnotFitting:
    def test_uniform_0_to_99(self):
        spec = fit_knots(np.arange(100.0), 3)
        assert spec.boundary_knots == (0.0, 99.0)
        assert spec.interior_knots == (33.0, 66.0)
        assert spec.df == 3

    def test_constant_sample_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_knots(np.full(50, 3.3), 3)

    def test_df1_no_interior_knots(self):
        spec = fit_knots(np.array([1.0, 4.0, 2.0, 9.0]), 1)
        assert spec.interior_knots == ()
        assert spec.boundary_knots == (1.0, 9.0)

    def test_too_few_distinct_values(self):
        with pytest.raises(DegenerateDataError):
            fit_knots(np.array([1.0, 2.0, 1.0, 2.0]), 3)

    @pytest.mark.parametrize("df", [1, 2, 3, 4])
    def test_distinct_count_is_np_unique_size(self, df):
        # -0.0 and 0.0 are one value; the knots need df + 1 distinct ones
        xs = np.array([0.0, -0.0, 1.0, 1.0, 2.0, -0.0, 3.0])[: df + 3]
        if np.unique(xs).size < df + 1:
            with pytest.raises(DegenerateDataError, match=f"got {np.unique(xs).size}$"):
                fit_knots(xs, df)
        else:
            assert fit_knots(xs, df).boundary_knots == (float(xs.min()), float(xs.max()))

    def test_deterministic_given_sample(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=500)
        assert fit_knots(xs, 3) == fit_knots(xs, 3)


class TestNaturalBoundary:
    def test_second_difference_zero_at_and_beyond_boundary(self):
        spec = _spec()
        lo, hi = spec.boundary_knots
        # stencils anchored outside the boundary knots: the basis is a
        # straight line there, so second differences vanish
        for anchor, h in ((hi + 1.0, 1.0), (lo - 1.0, 1.0), (hi + 5.0, 2.0), (lo - 5.0, 2.0)):
            d2 = fd_second_derivative(spec, anchor, h)
            assert np.all(np.abs(d2) <= 1e-8)

    def test_linear_beyond_upper_boundary(self):
        spec = _spec()
        hi = spec.boundary_knots[1]
        b0 = eval_natural_cubic(spec, hi)
        b1 = eval_natural_cubic(spec, hi + 1.0)
        slope = b1 - b0
        for step in (2.0, 5.5, 11.0):
            want = b0 + slope * step
            got = eval_natural_cubic(spec, hi + step)
            assert np.allclose(got, want, rtol=0, atol=1e-9 * max(1.0, np.abs(want).max()))

    def test_linear_below_lower_boundary(self):
        spec = _spec()
        lo = spec.boundary_knots[0]
        b0 = eval_natural_cubic(spec, lo)
        b1 = eval_natural_cubic(spec, lo - 1.0)
        slope = b1 - b0
        got = eval_natural_cubic(spec, lo - 4.0)
        assert np.allclose(got, b0 + slope * 4.0, atol=1e-9)


class TestSmoothness:
    def test_c2_at_interior_knots_fd_oracle(self):
        # within one cubic piece f'' is linear and central second differences
        # are exact, so two one-sided estimates extrapolate exactly to the
        # knot; C2 means the left and right extrapolations coincide
        rng = np.random.default_rng(21)
        for _ in range(5):
            lo = float(rng.uniform(-5, 0))
            hi = float(rng.uniform(20, 40))
            interior = tuple(sorted(rng.uniform(lo + 2, hi - 2, size=2)))
            spec = BasisSpec(3, interior, (lo, hi))
            h = 1e-3 * (hi - lo)
            for knot in interior:
                left = 2 * fd_second_derivative(spec, knot - 2 * h, h) - fd_second_derivative(
                    spec, knot - 4 * h, h
                )
                right = 2 * fd_second_derivative(spec, knot + 2 * h, h) - fd_second_derivative(
                    spec, knot + 4 * h, h
                )
                scale = np.maximum(1.0, np.abs(left))
                assert np.all(np.abs(left - right) / scale < 1e-6)

    def test_evaluation_continuous_at_every_knot(self):
        spec = _spec()
        eps = 1e-6
        for knot in spec.knots:
            at = eval_natural_cubic(spec, knot)
            near = eval_natural_cubic(spec, np.array([knot - eps, knot + eps]))
            assert np.all(np.abs(near - at) < 1e-4)

    def test_exact_reproduction_of_linear_functions(self):
        spec = _spec()
        xs = np.linspace(-3.0, 33.0, 200)
        basis = eval_natural_cubic(spec, xs)
        design = np.column_stack([np.ones_like(xs), basis])
        design /= np.abs(design).max(axis=0)  # column scaling, solver hygiene
        y = 2.5 * xs - 1.0
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = np.abs(design @ coef - y)
        assert resid.max() <= 1e-10 * max(1.0, np.abs(y).max())


class TestInteraction:
    def test_linear_product(self):
        spec = InteractionSpec(LINEAR_INTERACTION)
        assert spec.df == 1
        got = eval_interaction(spec, 2.0, 3.0)
        assert got.shape == (1,)
        assert got[0] == 6.0

    def test_tensor_is_all_pairwise_products(self):
        t_b = _spec((0.0, 30.0), (10.0, 20.0))
        a_b = _spec((0.0, 20.0), (7.0, 13.0))
        spec = InteractionSpec(TENSOR_PRODUCT, t_b, a_b)
        assert spec.df == 9
        t, a = 17.3, 4.2
        got = eval_interaction(spec, t, a)
        bt = eval_natural_cubic(t_b, t)
        ba = eval_natural_cubic(a_b, a)
        want = np.array([bt[i] * ba[j] for i in range(3) for j in range(3)])
        assert np.array_equal(got, want)

    def test_tensor_matches_recomputation_at_random_points(self):
        rng = np.random.default_rng(5)
        t_b = _spec((5.0, 45.0), (18.0, 30.0))
        a_b = _spec((0.0, 25.0), (8.0, 16.0))
        spec = InteractionSpec(TENSOR_PRODUCT, t_b, a_b)
        ts = rng.uniform(0, 50, size=200)
        avs = rng.uniform(-2, 28, size=200)
        got = eval_interaction(spec, ts, avs)
        assert got.shape == (200, 9)
        for k in range(200):
            bt = eval_natural_cubic(t_b, ts[k])
            ba = eval_natural_cubic(a_b, avs[k])
            assert np.array_equal(got[k], np.outer(bt, ba).ravel())

    def test_tensor_requires_marginals(self):
        with pytest.raises(ConfigurationError):
            InteractionSpec(TENSOR_PRODUCT)


def _toy_sets():
    days = [date(2012, 7, d) for d in (2, 9, 16, 23, 30)]
    sets = []
    rng = np.random.default_rng(13)
    for k in range(12):
        rows = [
            DayRecord(days[j], j == 0, float(rng.uniform(10, 40)), float(rng.uniform(0, 25)))
            for j in range(4)
        ]
        sets.append(MatchedSet(f"s{k:02d}", rows))
    return rows_of(sets)


class TestDesignMatrix:
    def test_blocks_labels_and_shape(self):
        sets = _toy_sets()
        model = fit_model_basis(sets, "spline_linear", 3, 3)
        dm = design_matrix(sets, model)
        assert dm.values.shape == (48, 7)
        assert dm.column_labels == (
            "temp_s1", "temp_s2", "temp_s3",
            "pm25_s1", "pm25_s2", "pm25_s3",
            "inter_ta",
        )
        names = [b[0] for b in dm.blocks]
        assert names == ["temperature", "pm25", "interaction"]
        widths = [b[1].stop - b[1].start for b in dm.blocks]
        assert widths == [3, 3, 1]
        assert sum(widths) == dm.values.shape[1]

    def test_tensor_dimension(self):
        sets = _toy_sets()
        model = fit_model_basis(sets, "spline_tensor", 3, 3)
        dm = design_matrix(sets, model)
        assert dm.values.shape[1] == 3 + 3 + 9
        assert model.interaction.df == model.temperature.df * model.pm25.df

    def test_row_order_follows_set_order(self):
        sets = _toy_sets()
        model = fit_model_basis(sets, "spline_linear", 3, 3)
        dm1 = design_matrix(sets, model)
        reordered = rows_of(sets[::-1])
        dm2 = design_matrix(reordered, model)
        # same rows, permuted consistently with the set permutation
        n = len(sets)
        for i in range(n):
            rows1 = dm1.values[dm1.set_index == i]
            rows2 = dm2.values[dm2.set_index == (n - 1 - i)]
            assert np.array_equal(rows1, rows2)

    def test_labels_unique(self):
        sets = _toy_sets()
        for kind in ("spline_linear", "spline_tensor"):
            model = fit_model_basis(sets, kind, 3, 3)
            labels = model.column_labels
            assert len(set(labels)) == len(labels)


class TestBasisSpecValidation:
    def test_boundary_ordering(self):
        with pytest.raises(ConfigurationError):
            BasisSpec(3, (1.0, 2.0), (5.0, 0.0))

    def test_knot_count_consistency(self):
        with pytest.raises(ConfigurationError):
            BasisSpec(3, (1.0,), (0.0, 5.0))

    def test_interior_strictly_inside(self):
        with pytest.raises(ConfigurationError):
            BasisSpec(3, (0.0, 2.0), (0.0, 5.0))
