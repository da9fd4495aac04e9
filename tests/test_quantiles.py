from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from casecross.pipeline import _surface_grid
from casecross.effects import case_day_levels
from casecross.errors import DegenerateDataError
from casecross.quantiles import sorted_distinct, type1_index, type1_quantile, type1_quantiles
from casecross.splines import fit_knots


def test_order_statistic_rule_frozen_values():
    # ceil(q*n)-th smallest value, 1-based
    assert type1_quantile(range(1, 101), 0.95) == 95.0
    assert type1_quantile(range(1, 1001), 0.95) == 950.0
    assert type1_quantile(range(0, 100), 1 / 3) == 33.0
    assert type1_quantile(range(0, 100), 2 / 3) == 66.0
    assert type1_quantile([7.0], 0.5) == 7.0


def test_extremes():
    xs = [3.0, 1.0, 2.0]
    assert type1_quantile(xs, 1.0) == 3.0
    assert type1_quantile(xs, 1e-9) == 1.0


def test_matches_direct_enumeration():
    # oracle: walk the sorted sample and pick the first index with
    # rank/n >= q (the classic inverse-cdf definition)
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        xs = rng.normal(size=n)
        q = float(rng.uniform(0.01, 1.0))
        srt = np.sort(xs)
        want = next(srt[k] for k in range(n) if (k + 1) / n >= q - 1e-12)
        assert type1_quantile(xs, q) == want


def test_float_fuzz_at_exact_integer_products():
    # 0.95 * 1000 rounds above 950 in float arithmetic; the rule must not
    # slip to the 951st order statistic
    assert type1_index(1000, 0.95) == 949
    assert type1_index(100, 0.95) == 94
    assert type1_index(20, 0.05) == 0


def test_invalid_arguments():
    with pytest.raises(ValueError):
        type1_quantile([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        type1_quantile([1.0, 2.0], 1.5)
    with pytest.raises(ValueError):
        type1_quantile([], 0.5)



_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 1.0, -1.0])


@given(st.lists(_FINITE, min_size=1, max_size=30))
@example([0.0, -0.0])
@example([-0.0, 0.0])
@example([1.0, 1.0, 0.0, -0.0])
@example([2.0, 2.0, 2.0])
def test_sorted_distinct_is_np_unique(values):
    got, want = sorted_distinct(values), np.unique(np.array(values))
    zeros = [v for v in values if v == 0.0]
    if zeros:   # np.unique keeps either zero, as its hash table falls; the first given is kept
        want[want == 0.0] = zeros[0]
    assert got.tobytes() == want.tobytes()


_LEVELS = st.floats(min_value=1e-9, max_value=1.0)


@given(st.lists(_FINITE, min_size=1, max_size=30), st.lists(_LEVELS, max_size=4))
@example([0.0, -0.0, 1.0], [0.5, 1 / 3, 2 / 3])
@example([-0.0, 0.0], [0.5, 1.0])
def test_several_quantiles_from_one_sort_are_type1_quantile(values, levels):
    got = type1_quantiles(values, levels)
    assert len(got) == len(levels)
    for q, x in zip(levels, got):
        assert np.float64(x).tobytes() == np.float64(type1_quantile(values, q)).tobytes()


@given(st.lists(_FINITE, min_size=2, max_size=30), st.integers(1, 4))
@example([0.0, -0.0, 1.0, -0.0, 2.0, 0.0], 3)
@example([-0.0, 0.0, 1.0, 2.0, 2.0], 2)
def test_knots_from_one_sort_are_type1_quantiles(values, df):
    # one sort serves the distinct count and every interior knot
    xs = np.array(values)
    want = [type1_quantile(xs, j / df) for j in range(1, df)]
    knots = [xs.min(), *want, xs.max()]
    if np.unique(xs).size < df + 1:
        with pytest.raises(DegenerateDataError, match="distinct"):
            fit_knots(xs, df)
    elif any(a >= b for a, b in zip(knots, knots[1:])):
        with pytest.raises(DegenerateDataError, match="concentrated"):
            fit_knots(xs, df)
    else:
        spec = fit_knots(xs, df)
        assert np.array(spec.interior_knots).tobytes() == np.array(want, dtype=float).tobytes()
        assert np.array(spec.boundary_knots).tobytes() == np.array([xs.min(), xs.max()]).tobytes()


class _Rows(SimpleNamespace):
    """The columns of matched rows that ``case_day_levels`` reads."""

    def __len__(self):
        return self.is_case.size


@given(st.lists(st.tuples(_FINITE, _FINITE, st.booleans()), min_size=1, max_size=30))
def test_case_day_levels_are_type1_quantiles(rows):
    temperature, pm25, is_case = (np.array(c) for c in zip(*rows))
    is_case[0] = True       # at least one case row
    levels = case_day_levels(_Rows(temperature=temperature, pm25_window=pm25, is_case=is_case))
    for got, sample, q in (
        (levels.t0, temperature, 0.5), (levels.t1, temperature, 0.95),
        (levels.a0, pm25, 0.5), (levels.a1, pm25, 0.95),
    ):
        assert np.float64(got).tobytes() == np.float64(type1_quantile(sample[is_case], q)).tobytes()


@pytest.mark.parametrize("values, level", [
    ([10.0, 40.0], 25.0),       # between grid points
    ([10.0, 40.0], 20.0),       # on a grid point
    ([10.0, 40.0], 10.0),       # on an end
    ([10.0, 40.0], 50.0),       # outside the range
    ([-0.0, 7.0], 0.0),         # the signed zeros
    ([-7.0, 0.0], -0.0),
    ([3.0, 3.0], 3.0),          # a range of one value
])
def test_surface_grid_is_np_union1d(values, level):
    got = _surface_grid(np.array(values), 7, level)
    want = np.union1d(np.linspace(min(values), max(values), 7), [level])
    assert np.array_equal(got, want)
