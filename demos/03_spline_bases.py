#!/usr/bin/env python3
# ============================================================
# DEMO 3 - Natural cubic spline bases and interaction bases
#
#   * knot placement from data quantiles
#   * natural boundary behavior (linear extrapolation)
#   * product and tensor interaction blocks
# ============================================================

import numpy as np

from casecross import ModelBasis, eval_natural_cubic, fit_knots
from casecross.splines import LINEAR_INTERACTION, TENSOR_PRODUCT

rng = np.random.default_rng(3)

print("=" * 60)
print("1. Knots from a temperature-like sample")
print("=" * 60)

sample = rng.normal(29.0, 5.0, size=2000)
spec = fit_knots(sample, df=3)
print(f"\nboundary knots: ({spec.boundary_knots[0]:.2f}, {spec.boundary_knots[1]:.2f})")
print(f"interior knots: {tuple(round(k, 2) for k in spec.interior_knots)}")

print()
print("=" * 60)
print("2. Basis values across the range")
print("=" * 60)

xs = np.linspace(spec.boundary_knots[0] - 5, spec.boundary_knots[1] + 5, 9)
basis = eval_natural_cubic(spec, xs)
print(f"\n{'x':>8s}  " + "  ".join(f"{f'N{j+1}(x)':>12s}" for j in range(spec.df)))
for x, row in zip(xs, basis):
    print(f"{x:8.2f}  " + "  ".join(f"{v:12.4f}" for v in row))

print("\nsecond differences outside the boundary (should be ~0, the basis is linear there):")
hi = spec.boundary_knots[1]
h = 1.0
d2 = (
    eval_natural_cubic(spec, hi + 3 + h)
    - 2 * eval_natural_cubic(spec, hi + 3)
    + eval_natural_cubic(spec, hi + 3 - h)
)
print("  ", np.array2string(d2, precision=2, suppress_small=True))

print()
print("=" * 60)
print("3. Interaction blocks")
print("=" * 60)

# the interaction block is the last block of a model's design row
pm_spec = fit_knots(rng.gamma(5.0, 2.0, size=2000), df=3)
linear = ModelBasis(spec, pm_spec, LINEAR_INTERACTION)
inter = dict(linear.blocks)["interaction"]
print(f"\nlinear interaction at (t=31.5, a=9.25): {linear.rows(31.5, 9.25)[inter]}")

tensor = ModelBasis(spec, pm_spec, TENSOR_PRODUCT)
inter = dict(tensor.blocks)["interaction"]
vals = tensor.rows(31.5, 9.25)[inter]
print(f"tensor interaction dimension: {inter.stop - inter.start}")
print("tensor values (outer product of marginal bases, row-major):")
print("  ", np.array2string(vals.reshape(3, 3), precision=3))
