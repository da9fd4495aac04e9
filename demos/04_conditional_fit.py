#!/usr/bin/env python3
# ============================================================
# DEMO 4 - Conditional logistic regression, two ways
#
#   * Newton maximum likelihood with analytic derivatives
#   * posterior sampling: independence Metropolis with a t proposal
#     at the posterior mode, checked by its Pareto k-hat
#   * both recover a known generating truth
# ============================================================

import numpy as np

from casecross import (
    ConditionalLikelihood,
    PriorSpec,
    SamplerConfig,
    design_matrix,
    fit_bayes,
    fit_mle,
    fit_model_basis,
    generate,
    linear_truth,
)

TRUTH = {"temp_s1": 0.06, "pm25_s1": 0.02, "inter_ta": 0.0015}

print("=" * 60)
print("1. Simulate 5000 matched sets from a known linear truth")
print("=" * 60)

truth = linear_truth(*TRUTH.values(), n_zones=30, seed=11)
data = generate(truth, 5000)
model = fit_model_basis(data.rows, "spline_linear", temperature_df=1, pm25_df=1)
lik = ConditionalLikelihood.from_design_matrix(design_matrix(data.rows, model))
print(
    f"\nsets: {lik.n_sets}   strata: {lik.n_strata}   rows: {lik.n_rows}   "
    f"coefficients: {lik.dimension}"
)

print()
print("=" * 60)
print("2. Maximum likelihood")
print("=" * 60)

mle = fit_mle(lik)
d = mle.diagnostics
print(f"\nconverged in {d.iterations} Newton iterations (gradient norm {d.gradient_norm:.2e})")
print(f"\n{'label':10s} {'truth':>9s} {'estimate':>10s} {'sd':>9s} {'z(truth)':>9s}")
for j, lab in enumerate(lik.labels):
    z = (mle.point[j] - TRUTH[lab]) / mle.sd[j]
    print(f"{lab:10s} {TRUTH[lab]:9.4f} {mle.point[j]:10.4f} {mle.sd[j]:9.4f} {z:9.2f}")

print()
print("=" * 60)
print("3. Posterior sampling")
print("=" * 60)

fit = fit_bayes(
    lik,
    PriorSpec.for_model("linear_interaction"),
    SamplerConfig(chains=4, warmup=800, draws=1000, seed=2024),
)
b = fit.diagnostics
print(
    f"\nacceptance rate: {b.acceptance_rate:.2f}   max rhat: {b.rhat.max():.4f}   "
    f"pareto k-hat: {b.pareto_k:.3f} (proposal fits when <= 0.7)"
)
print(f"\n{'label':10s} {'post mean':>10s} {'post sd':>9s} {'rhat':>7s} {'ess':>7s}")
for j, lab in enumerate(lik.labels):
    print(
        f"{lab:10s} {fit.point[j]:10.4f} {fit.sd[j]:9.4f} "
        f"{b.rhat[j]:7.3f} {b.ess[j]:7.0f}"
    )
print(f"\nposterior mean vs MLE (in MLE standard errors): "
      f"{np.abs(fit.point - mle.point) / mle.sd}")
