"""Chains and OR-table chunks run on a thread pool: the results must not
depend on the number of threads, and errors and numpy warnings raised in a
worker must reach the caller as they do without the pool. The pool is kept
for the life of the process: later calls start no thread, a job may call
``ordered_map`` itself, and a forked child gets a pool of its own."""

import itertools
import os
import signal
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from casecross import io, mcmc, parallel
from casecross.clr import ConditionalLikelihood, PriorSpec, SamplerConfig, fit_bayes
from casecross.config import load_config
from casecross.design import TrimPolicy, apply_trimming, build_matched_sets
from casecross.effects import CHUNK, case_day_levels, response_curve, risk_surface
from casecross.exposure import PM25, TEMPERATURE, WindowSpec, link_pm25, link_temperature
from casecross.splines import design_matrix, fit_model_basis

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CPUS = (1, 2, 4)


@pytest.fixture(scope="module", params=["main", "tensor"])
def shipped(request):
    """Config, matched rows, basis, likelihood, prior and sampler settings of
    a shipped config, built as ``pipeline.run`` builds them."""
    cfg, _ = load_config(CONFIGS / f"{request.param}.json")
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
    lik = ConditionalLikelihood.from_design_matrix(design_matrix(sets, model))
    sampler = SamplerConfig(chains=cfg.chains, warmup=cfg.warmup, draws=cfg.draws, seed=cfg.seed)
    return cfg, sets, model, lik, PriorSpec(sd=dict(cfg.prior_sd)), sampler


def _on(monkeypatch, cpus):
    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)


def test_fit_and_tables_do_not_depend_on_thread_count(shipped, monkeypatch):
    cfg, sets, model, lik, prior, sampler = shipped
    levels = case_day_levels(sets, cfg.contrast_quantiles)
    t, a = sets.temperature, sets.pm25_window
    t_grid = np.linspace(t.min(), t.max(), cfg.curve_points)
    t_surf = np.union1d(np.linspace(t.min(), t.max(), cfg.surface_points), [levels.t0])
    a_surf = np.union1d(np.linspace(a.min(), a.max(), cfg.surface_points), [levels.a0])
    results = []
    for cpus in CPUS:
        _on(monkeypatch, cpus)
        fit = fit_bayes(lik, prior, sampler)
        d = fit.diagnostics
        results.append({
            "draws": fit.draws.tobytes(),
            "rhat": d.rhat.tobytes(),
            "ess": d.ess.tobytes(),
            "acceptance_per_chain": d.acceptance_per_chain,
            "pareto_k": d.pareto_k,
            "curve": response_curve(fit, model, TEMPERATURE, levels.a0, t_grid, levels.t0),
            "surface": risk_surface(fit, model, t_surf, a_surf, (levels.t0, levels.a0)),
        })
    assert len(results[0]["surface"]) == t_surf.size * a_surf.size
    for cpus, got in zip(CPUS[1:], results[1:]):
        for key, want in results[0].items():
            assert got[key] == want, (cpus, key)


@pytest.mark.parametrize("cpus", CPUS)
def test_non_finite_chain_start_raises_through_pool(shipped, monkeypatch, cpus):
    _, _, _, lik, prior, _ = shipped
    _on(monkeypatch, cpus)
    run_chain = mcmc.run_chain
    calls = itertools.count()

    def one_chain_poisoned(log_post, *args, **kwargs):
        if next(calls) == 2:
            log_post = lambda points: np.full(len(points), np.nan)  # noqa: E731
        return run_chain(log_post, *args, **kwargs)

    monkeypatch.setattr(mcmc, "run_chain", one_chain_poisoned)
    with pytest.raises(ValueError, match="^log posterior is not finite at the chain start$"):
        fit_bayes(lik, prior, SamplerConfig(chains=4, warmup=10, draws=10, seed=3))


def test_numpy_warning_in_a_worker_fails(shipped, monkeypatch):
    # tier-1 turns RuntimeWarning into an error (pyproject.toml); the table
    # chunks' overflowing exp runs on the pool's threads
    cfg, sets, model, lik, prior, _ = shipped
    _on(monkeypatch, 2)
    fit = fit_bayes(lik, prior, SamplerConfig(chains=2, warmup=10, draws=10, seed=3))
    fit.draws *= 1e6
    t = sets.temperature
    grid = np.linspace(t.min(), t.max(), 3 * CHUNK)
    with pytest.raises(RuntimeWarning, match="overflow"):
        response_curve(fit, model, TEMPERATURE, float(np.median(sets.pm25_window)), grid, float(t.min()))


# ---------------------------------------------------------- the kept pool

def _fill_pool(workers):
    """One call whose jobs wait for each other, so that the pool of
    ``workers`` threads has started all of them. Returns, per job, the
    thread it ran on and the number of live threads it saw."""
    barrier = threading.Barrier(workers)

    def job(x):
        barrier.wait(timeout=30)
        return threading.current_thread(), threading.active_count()

    return parallel.ordered_map(job, range(workers))


def test_results_in_input_order(monkeypatch):
    _on(monkeypatch, 2)
    # later items finish first
    out = parallel.ordered_map(lambda x: time.sleep(0.002 * (8 - x)) or x * x, range(8))
    assert out == [x * x for x in range(8)]


def test_worker_exception_raised_in_caller(monkeypatch):
    _on(monkeypatch, 2)

    def job(x):
        if x == 3:
            raise KeyError(x)
        return x

    with pytest.raises(KeyError):
        parallel.ordered_map(job, range(6))
    assert parallel.ordered_map(job, [0, 1]) == [0, 1]          # the pool still works


def test_second_call_starts_no_thread(monkeypatch):
    _on(monkeypatch, 2)
    first = _fill_pool(2)
    threads = threading.active_count()
    second = _fill_pool(2)
    assert {t for t, _ in second} == {t for t, _ in first}
    assert [n for _, n in second] == [threads, threads]
    assert threading.active_count() == threads


def test_job_that_maps_completes(monkeypatch):
    # each job's inner map runs inline: were it queued on the pool, both
    # workers would wait on jobs that no worker is free to run
    _on(monkeypatch, 2)

    def job(x):
        return parallel.ordered_map(abs, [x, -x])

    out = []
    outer = threading.Thread(target=lambda: out.append(parallel.ordered_map(job, range(4))), daemon=True)
    outer.start()
    outer.join(timeout=30)
    assert out == [[[x, x] for x in range(4)]]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_maps(monkeypatch):
    # the child's copy of the parent's pool has no threads
    _on(monkeypatch, 2)
    _fill_pool(2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)        # fork with threads running
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if parallel.ordered_map(abs, range(-4, 4)) == [4, 3, 2, 1, 0, 1, 2, 3] else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's ordered_map did not finish in 30 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0
