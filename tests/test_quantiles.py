import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from casecross.pipeline import _surface_grid
from casecross.quantiles import sorted_distinct, type1_index, type1_quantile


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
