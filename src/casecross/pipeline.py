"""End-to-end orchestration: link, match, trim, basis, fit, effects, tables.

Each stage writes its artifacts into the output directory, and a run
manifest (config echo, fitted knots, seed, versions) makes every run
self-describing: loading the manifest as a config reproduces all numeric
artifacts byte for byte.
"""

from __future__ import annotations

import logging
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, io
from .clr import ConditionalLikelihood, FitResult, PriorSpec, SamplerConfig, fit_bayes, fit_mle
from .config import AnalysisConfig, validate_config
from .design import apply_trimming, build_matched_sets
from .effects import case_day_levels, mult_interaction, or_contrast, reri, response_curve, risk_surface
from .errors import ConfigurationError, EmptyAnalysisError
from .exposure import PM25, TEMPERATURE, link_pm25, link_temperature
from .quantiles import sorted_distinct
from .splines import LINEAR_INTERACTION, design_matrix, fit_model_basis

__all__ = ["RunArtifacts", "STAGES", "run"]

log = logging.getLogger(__name__)

STAGES = ("link", "match", "fit", "effects")


@dataclass
class RunArtifacts:
    output_dir: Path
    converged: bool = True
    fit: FitResult | None = None


def run(cfg: AnalysisConfig, verbatim: dict | None = None, upto: str = "effects") -> RunArtifacts:
    """Run the pipeline through stage ``upto`` and write artifacts.

    Raises ``ConfigurationError`` for invalid configs or inputs,
    ``EmptyAnalysisError`` when nothing survives trimming, and
    ``SeparationError`` for unbounded likelihoods. A sampler that finishes
    with any split-Rhat above 1.05 is reported via ``converged=False``.
    """
    if upto not in STAGES:
        raise ConfigurationError(f"unknown stage {upto!r}")
    depth = STAGES.index(upto)
    problems = validate_config(cfg, need_seed=depth >= 2)
    if problems:
        raise ConfigurationError("invalid configuration: " + "; ".join(problems))

    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = RunArtifacts(output_dir=out)

    # link
    cells = io.read_grid_cells(cfg.grid)
    membership = io.read_membership(cfg.membership)
    zones = io.read_zones(cfg.zones, membership)
    # the fields are dropped once linked
    temp_series = link_temperature(cells, zones, io.read_daily_field(cfg.temperature_field))
    pm_series = link_pm25(cells, zones, io.read_daily_field(cfg.pm25_field))
    io.write_series(out / "exposure_series.csv", {TEMPERATURE: temp_series, PM25: pm_series})
    log.info("linked %d zones (%d with pm25 membership)", len(temp_series.ids), len(pm_series.ids))
    if depth == 0:
        _write_manifest(cfg, verbatim, artifacts)
        return artifacts

    # match + trim
    events = io.read_events(cfg.events)
    sets, drops = build_matched_sets(
        events, temp_series, pm_series, cfg.temperature_window_days, cfg.pm25_window_days,
        season_months=cfg.season_months,
    )
    if not len(sets):
        io.write_drop_log(out / "drop_log.csv", drops)
        raise EmptyAnalysisError("no events survived the exposure join")
    sets, threshold, trim_drops = apply_trimming(sets, cfg.trim_quantile)
    drops = drops + trim_drops
    io.write_matched_sets(out / "matched_sets.csv", sets)
    io.write_drop_log(out / "drop_log.csv", drops)
    log.info(
        "matched %d sets (threshold %.4g, %d events dropped)",
        len(sets), threshold, len(drops),
    )
    if depth == 1:
        _write_manifest(cfg, verbatim, artifacts, threshold=threshold)
        return artifacts

    # basis + fit
    model = fit_model_basis(sets, cfg.model_kind, cfg.temperature_df, cfg.pm25_df)
    lik = ConditionalLikelihood.from_design_matrix(design_matrix(sets, model))
    mle = fit_mle(lik)
    io.write_coefficients(out / "coefficients_mle.csv", lik.labels, mle.point, mle.sd)
    prior = PriorSpec(sd=dict(cfg.prior_sd))
    sampler = SamplerConfig(chains=cfg.chains, warmup=cfg.warmup, draws=cfg.draws, seed=cfg.seed)
    fit = fit_bayes(lik, prior, sampler)
    artifacts.fit = fit
    artifacts.converged = fit.diagnostics.converged
    io.write_coefficients(out / "coefficients.csv", lik.labels, fit.point, fit.sd)
    io.write_draws(out / "draws.csv", lik.labels, fit.draws)
    _write_diagnostics(out / "diagnostics.txt", lik.labels, mle, fit)
    log.info(
        "fit %d coefficients to %d sets in %d strata; max rhat %.3f; acceptance %.2f; "
        "pareto k %.3f; proposal df per chain %s",
        lik.dimension, lik.n_sets, lik.n_strata, float(fit.diagnostics.rhat.max()),
        fit.diagnostics.acceptance_rate, fit.diagnostics.pareto_k,
        " ".join(map(str, fit.diagnostics.proposal_df_per_chain)),
    )
    if depth == 2:
        _write_manifest(cfg, verbatim, artifacts, threshold=threshold, model=model)
        return artifacts

    # effects
    levels = case_day_levels(sets, cfg.contrast_quantiles)
    contrasts = [
        or_contrast(fit, model, "10", levels),
        or_contrast(fit, model, "01", levels),
        or_contrast(fit, model, "11", levels),
        reri(fit, model, levels),
    ]
    if model.interaction.kind == LINEAR_INTERACTION:
        contrasts.append(mult_interaction(fit))
    io.write_contrasts(out / "contrasts.csv", contrasts)

    t, a = sets.temperature, sets.pm25_window
    t_grid = np.linspace(t.min(), t.max(), cfg.curve_points)
    a_grid = np.linspace(a.min(), a.max(), cfg.curve_points)
    io.write_effect_table(
        out / "curve_temperature.csv",
        response_curve(fit, model, TEMPERATURE, levels.a0, t_grid, levels.t0),
    )
    io.write_effect_table(
        out / "curve_pm25.csv",
        response_curve(fit, model, PM25, levels.t0, a_grid, levels.a0),
    )
    t_surf = _surface_grid(t, cfg.surface_points, levels.t0)
    a_surf = _surface_grid(a, cfg.surface_points, levels.a0)
    io.write_effect_table(
        out / "surface.csv",
        risk_surface(fit, model, t_surf, a_surf, (levels.t0, levels.a0)),
    )
    _write_manifest(cfg, verbatim, artifacts, threshold=threshold, model=model, levels=levels)
    return artifacts


def _surface_grid(values: np.ndarray, points: int, level: float) -> np.ndarray:
    """``points`` evenly spaced values over the range of ``values``, merged
    with the reference ``level`` as ``np.union1d`` merges them."""
    return sorted_distinct(np.append(np.linspace(values.min(), values.max(), points), level))


def _write_manifest(cfg, verbatim, artifacts, threshold=None, model=None, levels=None):
    payload = {
        "config": verbatim if verbatim is not None else cfg.to_dict(),
        "resolved_config": cfg.to_dict(),
        "seed": cfg.seed,
        "versions": {
            "casecross": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    if threshold is not None:
        payload["trim_threshold"] = threshold
    if model is not None:
        payload["basis"] = {
            "temperature": {
                "df": model.temperature.df,
                "interior_knots": list(model.temperature.interior_knots),
                "boundary_knots": list(model.temperature.boundary_knots),
            },
            "pm25": {
                "df": model.pm25.df,
                "interior_knots": list(model.pm25.interior_knots),
                "boundary_knots": list(model.pm25.boundary_knots),
            },
            "interaction": model.interaction.kind,
        }
    if levels is not None:
        payload["contrast_levels"] = {
            "t0": levels.t0, "t1": levels.t1, "a0": levels.a0, "a1": levels.a1,
            "provenance": levels.provenance,
        }
    io.write_json(artifacts.output_dir / "manifest.json", payload)


def _write_diagnostics(path, labels, mle, fit):
    lines = ["== maximum likelihood =="]
    d = mle.diagnostics
    lines.append(f"converged: {d.converged}")
    lines.append(f"iterations: {d.iterations}")
    lines.append(f"gradient_norm: {d.gradient_norm!r}")
    lines.append(f"zero_information: {d.zero_information}")
    lines.append(f"ridge_restarted: {d.ridge_restarted}")
    lines.append("")
    lines.append("== posterior sampling ==")
    b = fit.diagnostics
    lines.append(f"converged (all rhat <= 1.05): {b.converged}")
    lines.append(f"acceptance_rate: {float(b.acceptance_rate)!r}")
    lines.append(f"pareto_k: {float(b.pareto_k)!r}")
    lines.append(f"log_post_evals: {b.log_post_evals}")
    lines.append("acceptance_per_chain: " + " ".join(repr(float(a)) for a in b.acceptance_per_chain))
    lines.append("proposal_df_per_chain: " + " ".join(map(str, b.proposal_df_per_chain)))
    lines.append(f"sampler_s: {b.sampler_s!r}")
    lines.append(f"min_ess_per_s: {float(b.ess.min()) / b.sampler_s!r}")
    lines.append("")
    lines.append("label rhat ess mcse")
    for j, lab in enumerate(labels):
        lines.append(f"{lab} {float(b.rhat[j])!r} {float(b.ess[j])!r} {float(b.mcse[j])!r}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
