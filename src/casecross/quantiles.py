"""Order-statistic (type-1) empirical quantiles.

Every quantile computed anywhere in this package (trimming thresholds, knot
placement, contrast levels, credible-interval endpoints) is the order
statistic at ``type1_index``, so results are bit-reproducible and order
statistics commute with monotone transforms. ``type1_quantiles`` takes
several of them from one stable sort; an order statistic is an element of
the sample, so it has the bits of ``type1_quantile`` at each level.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["type1_quantile", "type1_quantiles", "type1_index", "sorted_distinct"]

# Guards against q*n landing an ulp above an exact integer (e.g. 0.95*1000).
_FUZZ = 1e-9


def type1_index(n: int, q: float) -> int:
    """0-based index of the type-1 quantile order statistic in a sorted sample."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    if n <= 0:
        raise ValueError("empty sample has no quantiles")
    k = math.ceil(q * n - _FUZZ)
    return min(max(k, 1), n) - 1


def type1_quantile(values, q: float) -> float:
    """Empirical quantile as the order statistic at 1-based index ceil(q*n)."""
    return type1_quantiles(values, (q,))[0]


def type1_quantiles(values, qs) -> tuple[float, ...]:
    """``type1_quantile`` at each level of ``qs``, from one sort."""
    xs = np.sort(np.asarray(values, dtype=float), kind="stable")
    if xs.ndim != 1:
        raise ValueError("expected a 1-d sample")
    return tuple(float(xs[type1_index(xs.size, q)]) for q in qs)


def sorted_distinct(values) -> np.ndarray:
    """The distinct values of a finite sample in increasing order, as
    ``np.unique`` gives them; of 0.0 and -0.0 the first given is kept
    (``np.unique`` keeps either, as its hash table falls). Found on a sorted
    copy: ``np.unique``'s hash path imports ``numpy.ma``, about 15 ms of a
    process."""
    xs = np.sort(np.asarray(values, dtype=float), kind="stable")
    keep = np.ones(xs.size, dtype=bool)
    keep[1:] = xs[1:] != xs[:-1]
    return xs[keep]
