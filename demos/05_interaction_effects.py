#!/usr/bin/env python3
# ============================================================
# DEMO 5 - Odds-ratio contrasts, RERI, curves, and surfaces
#
#   * contrast levels from the case-day distributions
#   * OR10 / OR01 / OR11 and the additive interaction (RERI)
#   * multiplicative interaction and plot-ready tables
# ============================================================

import numpy as np

from casecross import (
    ConditionalLikelihood,
    PriorSpec,
    SamplerConfig,
    case_day_levels,
    design_matrix,
    fit_bayes,
    fit_model_basis,
    generate,
    linear_truth,
    mult_interaction,
    or_contrast,
    reri,
    response_curve,
    risk_surface,
)

print("=" * 60)
print("1. Fit a spline + product-interaction model")
print("=" * 60)

truth = linear_truth(0.06, 0.02, 0.002, n_zones=25, seed=99)
data = generate(truth, 3000)
rows = data.rows   # the generator's matched sets as one table
model = fit_model_basis(rows, "spline_linear", temperature_df=3, pm25_df=3)
lik = ConditionalLikelihood.from_design_matrix(design_matrix(rows, model))
fit = fit_bayes(
    lik,
    PriorSpec.for_model("linear_interaction"),
    SamplerConfig(chains=4, warmup=1000, draws=1000, seed=5),
)
print(f"\nfit {lik.dimension} coefficients, max rhat {fit.diagnostics.rhat.max():.3f}")

levels = case_day_levels(rows)
print(f"\ncase-day contrast levels ({levels.provenance}):")
print(f"  temperature: median {levels.t0:.2f} C -> p95 {levels.t1:.2f} C")
print(f"  pm25 window: median {levels.a0:.2f}  -> p95 {levels.a1:.2f} ug/m3")

print()
print("=" * 60)
print("2. Contrasts")
print("=" * 60)

print(f"\n{'name':18s} {'point':>8s} {'lo95':>8s} {'hi95':>8s}")
for est in (
    or_contrast(fit, model, "10", levels),
    or_contrast(fit, model, "01", levels),
    or_contrast(fit, model, "11", levels),
    reri(fit, model, levels),
    mult_interaction(fit),
):
    print(f"{est.name:18s} {est.point:8.4f} {est.interval[0]:8.4f} {est.interval[1]:8.4f}")

print("\n(the RERI is computed per posterior draw, never from the")
print(" summarized odds ratios)")

print()
print("=" * 60)
print("3. Plot-ready tables")
print("=" * 60)

grid = np.linspace(rows.temperature.min(), rows.temperature.max(), 7)
curve = response_curve(fit, model, "temperature_max", levels.a0, grid, reference=levels.t0)
print(f"\ntemperature response at pm25 = {levels.a0:.2f} (reference t = {levels.t0:.2f}):")
print(f"  {'t':>7s} {'or':>8s} {'lo95':>8s} {'hi95':>8s}")
for row in curve:
    print(f"  {row['t']:7.2f} {row['or']:8.4f} {row['lo95']:8.4f} {row['hi95']:8.4f}")

surface = risk_surface(
    fit, model,
    np.linspace(rows.temperature.min(), rows.temperature.max(), 4),
    np.linspace(rows.pm25_window.min(), rows.pm25_window.max(), 3),
    reference=(levels.t0, levels.a0),
)
print(f"\njoint surface vs reference ({levels.t0:.2f}, {levels.a0:.2f}), {len(surface)} cells:")
print(f"  {'t':>7s} {'a':>7s} {'or':>8s}")
for row in surface:
    print(f"  {row['t']:7.2f} {row['a']:7.2f} {row['or']:8.4f}")
