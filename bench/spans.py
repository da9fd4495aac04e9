"""In-process spans around the casecross layer functions, plus a kernel probe.

``install`` replaces each public layer function (as ``pipeline.run`` and the
CLI call them) with a wrapper that records a span: name, start, end and the
span that was open when it was called. Spans live in memory and are written
once, when the traced process ends. A layer function that no longer exists
is listed as absent instead of failing the run.

Run as a script, this file is a traced ``casecross`` command line:

    python3 bench/spans.py SPANS.json [--probe] -- run-all --config c.json ...

It writes the spans, the exit code and, with ``--probe``, kernel timings of
the first likelihood the run built, at its MLE, with the probe's own wall
time so that a caller can leave it out of the run's.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

# (module, attribute, metric the span's time counts toward)
TARGETS = (
    *(("io", f, "io.read_s") for f in (
        "read_grid_cells", "read_membership", "read_zones", "read_daily_field", "read_events")),
    *(("io", f, "io.write_s") for f in (
        "write_series", "write_matched_sets", "write_drop_log", "write_coefficients",
        "write_draws", "write_contrasts", "write_effect_table", "write_json", "write_rows")),
    ("exposure", "link_temperature", "exposure.link_s"),
    ("exposure", "link_pm25", "exposure.link_s"),
    ("design", "build_matched_sets", "design.match_s"),
    ("design", "apply_trimming", "design.trim_s"),
    ("splines", "fit_model_basis", "splines.basis_s"),
    ("splines", "design_matrix", "splines.basis_s"),
    ("clr", "ConditionalLikelihood.from_design_matrix", "clr.build_s"),
    ("clr", "fit_mle", "clr.mle_s"),
    ("clr", "fit_bayes", "clr.bayes_s"),
    ("mcmc", "run_chain", "mcmc.chain_s"),
    ("mcmc", "split_rhat", "mcmc.diag_s"),
    ("mcmc", "effective_sample_size", "mcmc.diag_s"),
    ("mcmc", "mcse_mean", "mcmc.diag_s"),
    ("effects", "case_day_levels", "effects.contrasts_s"),
    ("effects", "or_contrast", "effects.contrasts_s"),
    ("effects", "reri", "effects.contrasts_s"),
    ("effects", "mult_interaction", "effects.contrasts_s"),
    ("effects", "response_curve", "effects.tables_s"),
    ("effects", "risk_surface", "effects.tables_s"),
    ("simulate", "generate", "simulate.generate_s"),
    ("pipeline", "run", "pipeline.run_s"),
)
# modules that bind layer functions by name: patch them there as well
IMPORTERS = ("pipeline", "cli")


class Tracer:
    """Spans and per-span counts, held in memory until ``dump``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.captured: dict[str, object] = {}

    def span(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {"name": name, "parent": self._open[-1] if self._open else None}
            self.spans.append(record)
            self._open.append(len(self.spans) - 1)
            if name == "mcmc.run_chain":
                args, evals = _count_log_post(args, kwargs)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                record.update(counts(self, args, kwargs, result))
            if name == "mcmc.run_chain":
                record["evals"] = evals[0]
            return result

        return wrapper

    def dump(self, path, **extra) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans, **extra}))


def _count_log_post(args, kwargs):
    evals = [0]
    log_post = args[0] if args else kwargs.pop("log_post")

    def counted(beta):
        evals[0] += 1
        return log_post(beta)

    return (counted, *args[1:]), evals


def _write_bytes(tracer, args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


def _counts_for(attr):
    """Hook that turns a layer call's result into counts on its span."""
    if attr.startswith("write_"):
        return _write_bytes
    hooks = {
        "build_matched_sets": lambda tr, a, k, r: {"drops": len(r[1])},
        "apply_trimming": lambda tr, a, k, r: {"sets": len(r[0]), "drops": len(r[2])},
        "design_matrix": lambda tr, a, k, r: {"rows": int(r.values.shape[0])},
        "ConditionalLikelihood.from_design_matrix": _capture_likelihood,
        "fit_mle": _capture_mle,
        "fit_bayes": lambda tr, a, k, r: {
            "ess_min": float(r.diagnostics.ess.min()),
            "rhat_max": float(r.diagnostics.rhat.max()),
        },
        "run_chain": lambda tr, a, k, r: {"acceptance": float(r.acceptance_rate)},
        "response_curve": _table_cells,
        "risk_surface": _table_cells,
    }
    return hooks.get(attr)


def _capture_likelihood(tracer, args, kwargs, lik):
    tracer.captured.setdefault("likelihood", lik)
    return {}


def _capture_mle(tracer, args, kwargs, fit):
    if args and args[0] is tracer.captured.get("likelihood"):
        tracer.captured.setdefault("mle", fit.point)
    return {"iterations": int(fit.diagnostics.iterations)}


def _table_cells(tracer, args, kwargs, table):
    fit = args[0]
    draws = fit.draws.shape[0] if fit.draws is not None else 1
    return {"cells": draws * len(table)}


def _module(name: str):
    try:
        return importlib.import_module(f"casecross.{name}")
    except ModuleNotFoundError:
        return None


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; return the names of absent ones."""
    absent = []
    importers = [m for m in map(_module, IMPORTERS) if m is not None]
    for module_name, attr, _ in TARGETS:
        module = _module(module_name)
        name = f"{module_name}.{attr}"
        if module is None:
            absent.append(name)
            continue
        owner, _, fn_name = attr.rpartition(".")
        if owner:
            cls = getattr(module, owner, None)
            raw = getattr(cls, "__dict__", {}).get(fn_name)
            if not isinstance(raw, classmethod):
                absent.append(name)
                continue
            wrapped = tracer.span(name, raw.__func__, _counts_for(attr))
            setattr(cls, fn_name, classmethod(wrapped))
            continue
        fn = getattr(module, attr, None)
        if not callable(fn):
            absent.append(name)
            continue
        wrapped = tracer.span(name, fn, _counts_for(attr))
        for holder in (module, *importers):
            if getattr(holder, attr, None) is fn:
                setattr(holder, attr, wrapped)
    return absent


def _per_call_us(fn, batches: int = 15, batch_s: float = 0.02) -> float:
    for _ in range(5):
        fn()
    start = time.perf_counter()
    fn()
    n = max(1, int(batch_s / max(time.perf_counter() - start, 1e-9)))
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - start) / n)
    return statistics.median(times) * 1e6


def probe(lik, beta) -> dict:
    """Per-call time of the likelihood kernels at ``beta``, after warm-up.

    ``ll_bytes`` is computed, not measured: the float64 difference tensor
    holds one row per matched row and one column per coefficient, and one
    evaluation reads all of it.
    """
    from casecross import clr

    out = {"ll_bytes": int(lik.n_rows) * int(lik.dimension) * 8}
    if hasattr(clr, "log_likelihood"):
        out["ll_eval_us"] = _per_call_us(lambda: clr.log_likelihood(beta, lik))
    if hasattr(clr, "gradient") and hasattr(clr, "hessian"):
        out["grad_hess_us"] = _per_call_us(lambda: (clr.gradient(beta, lik), clr.hessian(beta, lik)))
    return out


# ---------------------------------------------------------------- aggregation

GROUP = {f"{m}.{a}": metric for m, a, metric in TARGETS}
COMPUTED = {"clr.ll_bytes"}     # derived from sizes, not measured
SPAN_METRICS = sorted(set(GROUP.values()))


def _top_level(spans: list[dict]) -> list[dict]:
    """Spans with no ancestor in their own metric group."""
    out = []
    for s in spans:
        group = GROUP[s["name"]]
        p = s["parent"]
        while p is not None and GROUP[spans[p]["name"]] != group:
            p = spans[p]["parent"]
        if p is None:
            out.append(s)
    return out


def layer_metrics(span_sets: list[list[dict]]) -> dict[str, float]:
    """Per-layer totals over the span lists of one or more processes."""
    m = {name: 0.0 for name in SPAN_METRICS}
    counts = {k: 0 for k in ("bytes", "drops", "sets", "rows", "iterations", "cells", "evals")}
    acceptance, ess_min, rhat_max = [], [], []
    self_s = 0.0
    for spans in span_sets:
        for s in _top_level(spans):
            m[GROUP[s["name"]]] += s["end"] - s["start"]
            for k in counts:
                counts[k] += s.get(k, 0)
        for i, s in enumerate(spans):
            if "acceptance" in s:
                acceptance.append(s["acceptance"])
            if "ess_min" in s:
                ess_min.append(s["ess_min"])
                rhat_max.append(s["rhat_max"])
            if s["name"] == "pipeline.run":
                children = sum(c["end"] - c["start"] for c in spans if c["parent"] == i)
                self_s += (s["end"] - s["start"]) - children
    m["pipeline.self_s"] = self_s
    m["io.bytes_written"] = counts["bytes"]
    m["design.sets"] = counts["sets"]
    m["design.drops"] = counts["drops"]
    m["splines.rows"] = counts["rows"]
    m["clr.mle_iterations"] = counts["iterations"]
    m["effects.cells"] = counts["cells"]
    m["mcmc.log_post_evals"] = counts["evals"]
    m["mcmc.us_per_eval"] = m["mcmc.chain_s"] / counts["evals"] * 1e6 if counts["evals"] else 0.0
    m["mcmc.acceptance"] = statistics.fmean(acceptance) if acceptance else 0.0
    m["mcmc.ess_min"] = min(ess_min) if ess_min else 0.0
    m["mcmc.rhat_max"] = max(rhat_max) if rhat_max else 0.0
    return m


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1:]
    spans_path = opts[0]
    tracer = Tracer()
    absent = install(tracer)
    from casecross import cli

    code = cli.main(cli_args)
    kernel = {}
    start = time.perf_counter()
    if "--probe" in opts and "likelihood" in tracer.captured and "mle" in tracer.captured:
        kernel = probe(tracer.captured["likelihood"], tracer.captured["mle"])
    tracer.dump(spans_path, exit_code=code, absent=absent, probe=kernel,
                probe_s=time.perf_counter() - start)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
