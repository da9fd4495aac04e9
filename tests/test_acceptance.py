"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured runtime (run with ``pytest -s`` to see the
lines live)."""

import csv
import json
import time
from contextlib import contextmanager
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from casecross.cli import main as cli_main
from casecross.clr import (
    ConditionalLikelihood,
    PriorSpec,
    SamplerConfig,
    fit_bayes,
    fit_mle,
    gradient,
    hessian,
    log_likelihood,
)
from casecross.design import apply_trimming, select_referents
from casecross.effects import ContrastLevels, or_contrast, reri
from casecross.simulate import brute_force_set_probability, generate, linear_truth
from casecross.splines import (
    BasisSpec,
    LINEAR_INTERACTION,
    ModelBasis,
    design_matrix,
    eval_natural_cubic,
    fit_model_basis,
)
from per_day import pairs_likelihood, rows_of

REPO = Path(__file__).resolve().parent.parent

TRUTH_BETA = np.array([0.06, 0.02, 0.0015])


@contextmanager
def criterion(number: int, description: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"acceptance criterion {number:2d} ({description}): FAIL [{elapsed:.1f}s]")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s ({elapsed:.1f}s)"
    print(f"acceptance criterion {number:2d} ({description}): PASS [{elapsed:.1f}s]")


def _random_instance(rng, max_sets=10, max_rows=5, max_dim=12, eta_bound=30.0):
    dim = int(rng.integers(1, max_dim + 1))
    sets = []
    rows_all = []
    for _ in range(int(rng.integers(1, max_sets + 1))):
        m = int(rng.integers(2, max_rows + 1))
        rows = rng.normal(size=(m, dim))
        rows_all.append(rows)
        sets.append((rows[0], rows[1:]))
    beta = rng.normal(size=dim)
    eta_max = max(float(np.abs(r @ beta).max()) for r in rows_all)
    if eta_max > eta_bound:
        beta *= eta_bound / eta_max
    return sets, beta


def _criterion4_fit(rep: int, n_sets: int = 5000):
    truth = linear_truth(*TRUTH_BETA, n_zones=30, seed=7000 + rep)
    data = generate(truth, n_sets)
    model = fit_model_basis(data.sets, "spline_linear", 1, 1)
    lik = ConditionalLikelihood.from_design_matrix(design_matrix(data.sets, model))
    return lik, model


def test_01_likelihood_matches_brute_force():
    with criterion(1, "likelihood oracle equivalence", 1.0):
        rng = np.random.default_rng(101)
        for _ in range(200):
            sets, beta = _random_instance(rng)
            lik = pairs_likelihood(sets)
            got = log_likelihood(beta, lik)
            want = sum(
                float(np.log(brute_force_set_probability(beta, case, ctrl)[0]))
                for case, ctrl in sets
            )
            assert got == pytest.approx(want, rel=1e-12)


def test_02_derivatives_match_finite_differences():
    with criterion(2, "derivative correctness", 10.0):
        rng = np.random.default_rng(202)
        h = 1e-6
        for _ in range(50):
            sets, beta = _random_instance(rng, max_dim=8)
            lik = pairs_likelihood(sets)
            dim = beta.size
            g = gradient(beta, lik)
            fd_g = np.empty(dim)
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = h
                fd_g[j] = (log_likelihood(beta + e, lik) - log_likelihood(beta - e, lik)) / (2 * h)
            assert np.abs(g - fd_g).max() / max(1.0, np.abs(g).max()) < 1e-6
            H = hessian(beta, lik)
            fd_h = np.empty((dim, dim))
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = h
                fd_h[:, j] = (gradient(beta + e, lik) - gradient(beta - e, lik)) / (2 * h)
            assert np.abs(H - fd_h).max() / max(1.0, np.abs(H).max()) < 1e-5


def test_03_alpha_absorption_bit_level():
    with criterion(3, "alpha-absorption invariance", 30.0):
        rng = np.random.default_rng(303)
        for _ in range(100):
            dim = int(rng.integers(1, 9))
            orig, shifted = [], []
            for _ in range(int(rng.integers(1, 10))):
                m = int(rng.integers(2, 6))
                # dyadic rationals add exactly, so the shifted instance is
                # bit-for-bit a constant translation of the original
                rows = rng.integers(-2048, 2048, size=(m, dim)) / 128.0
                c = rng.integers(-2048, 2048, size=dim) / 128.0
                orig.append((rows[0], rows[1:]))
                shifted.append((rows[0] + c, rows[1:] + c))
            beta = rng.normal(size=dim)
            l1 = log_likelihood(beta, pairs_likelihood(orig))
            l2 = log_likelihood(beta, pairs_likelihood(shifted))
            assert l1 == l2


def test_04_estimand_recovery():
    with criterion(4, "estimand recovery (40 reps x 5000 sets)", 120.0):
        hits = 0
        for rep in range(40):
            lik, _ = _criterion4_fit(rep)
            fit = fit_mle(lik)
            z = np.abs(fit.point - TRUTH_BETA) / fit.sd
            hits += bool(np.all(z < 3.0))
        assert hits >= 38, f"only {hits}/40 replications recovered truth within 3 SE"


def test_05_bayes_mle_agreement():
    with criterion(5, "Bayes-MLE agreement and determinism", 600.0):
        lik, _ = _criterion4_fit(0)
        mle = fit_mle(lik)
        prior = PriorSpec.for_model(LINEAR_INTERACTION)
        config = SamplerConfig(chains=4, warmup=600, draws=800, seed=424242)
        fit = fit_bayes(lik, prior, config)
        assert np.all(np.abs(fit.point - mle.point) < 0.5 * mle.sd)
        assert np.all(fit.diagnostics.rhat <= 1.05)
        rerun = fit_bayes(lik, prior, config)
        assert np.array_equal(fit.draws, rerun.draws)
        assert np.array_equal(fit.point, rerun.point)


def test_06_reri_identities():
    with criterion(6, "RERI identities", 60.0):
        t_spec = BasisSpec(1, (), (10.0, 45.0))
        a_spec = BasisSpec(1, (), (0.0, 25.0))
        model = ModelBasis(t_spec, a_spec, LINEAR_INTERACTION)
        levels = ContrastLevels(t0=25.0, t1=35.0, a0=8.0, a1=16.0, provenance="user")
        rng = np.random.default_rng(606)

        # per-draw pipeline consistency, bit level
        from casecross.clr import FitResult

        draws = np.column_stack(
            [rng.normal(0.05, 0.02, 2000), rng.normal(0.02, 0.02, 2000), rng.normal(0.0, 0.002, 2000)]
        )
        fit = FitResult(draws.mean(axis=0), draws.std(axis=0, ddof=1), model.column_labels, model.blocks, draws=draws)
        or10 = or_contrast(fit, model, "10", levels).per_draw
        or01 = or_contrast(fit, model, "01", levels).per_draw
        or11 = or_contrast(fit, model, "11", levels).per_draw
        est = reri(fit, model, levels)
        assert np.array_equal(est.per_draw, or11 - or10 - or01 + 1.0)

        # multiplicative null: h == 0 with linear f, g
        null_draws = draws.copy()
        null_draws[:, 2] = 0.0
        fit0 = FitResult(
            null_draws.mean(axis=0), null_draws.std(axis=0, ddof=1), model.column_labels, model.blocks,
            draws=null_draws,
        )
        r10 = or_contrast(fit0, model, "10", levels).per_draw
        r01 = or_contrast(fit0, model, "01", levels).per_draw
        r11 = or_contrast(fit0, model, "11", levels).per_draw
        assert np.allclose(r11, r10 * r01, rtol=1e-12, atol=0)
        want = (r10 - 1.0) * (r01 - 1.0)
        got = reri(fit0, model, levels).per_draw
        assert np.allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))

        # null coefficients: every OR is one and the RERI is zero, exactly
        zero = FitResult(
            np.zeros(3), np.zeros(3), model.column_labels, model.blocks, draws=np.zeros((500, 3))
        )
        for which in ("10", "01", "11"):
            assert np.all(or_contrast(zero, model, which, levels).per_draw == 1.0)
        z = reri(zero, model, levels)
        assert z.point == 0.0 and z.interval == (0.0, 0.0)


def test_07_interval_calibration():
    with criterion(7, "interval calibration (200 replications)", 1800.0):
        slope_t, slope_a, gamma = TRUTH_BETA
        levels = ContrastLevels(t0=28.0, t1=35.0, a0=9.0, a1=14.0, provenance="user")
        true_or10 = float(np.exp(slope_t * (levels.t1 - levels.t0) + gamma * levels.a0 * (levels.t1 - levels.t0)))
        covered = 0
        for rep in range(200):
            truth = linear_truth(slope_t, slope_a, gamma, n_zones=25, seed=50_000 + rep)
            data = generate(truth, 800)
            model = fit_model_basis(data.sets, "spline_linear", 1, 1)
            lik = ConditionalLikelihood.from_design_matrix(design_matrix(data.sets, model))
            fit = fit_bayes(
                lik,
                PriorSpec.for_model(LINEAR_INTERACTION),
                SamplerConfig(chains=2, warmup=400, draws=800, seed=90_000 + rep),
            )
            est = or_contrast(fit, model, "10", levels)
            covered += est.interval[0] <= true_or10 <= est.interval[1]
        rate = covered / 200.0
        assert 0.91 <= rate <= 0.99, f"coverage {rate:.3f} outside 95% +/- 4pp"


def test_08_referent_selection_exhaustive():
    with criterion(8, "referent selection 2008-2016", 5.0):
        day = date(2008, 1, 1)
        end = date(2016, 12, 31)
        cache = {}
        while day <= end:
            refs = select_referents(day)
            assert 3 <= len(refs) <= 4
            assert day not in refs
            for r in refs:
                assert (r.year, r.month) == (day.year, day.month)
                assert r.weekday() == day.weekday()
            cache[day] = set(refs)
            day += timedelta(days=1)
        # partition symmetry within every month-weekday stratum
        for d, refs in cache.items():
            for r in refs:
                assert d in cache[r]


def test_09_trimming_rule():
    with criterion(9, "trimming order-statistic rule", 30.0):
        # 250 sets x 4 rows pooled to exactly 1..1000
        days = [date(2012, 7, d) for d in (2, 9, 16, 23)]
        from casecross.design import DayRecord, MatchedSet

        sets = []
        for k in range(250):
            vals = [1.0 + 4 * k + j for j in range(4)]
            rows = [DayRecord(days[j], j == 0, 25.0, vals[j]) for j in range(4)]
            sets.append(MatchedSet(f"s{k:03d}", rows))
        kept, threshold, drops = apply_trimming(rows_of(sets), 0.95)
        assert threshold == 950.0
        surviving = sorted(kept.pm25_window.tolist())
        # sets whose case row (value 4k+1) exceeds 950 die whole: k >= 238;
        # the set holding 949..952 only loses its rows above the threshold
        assert surviving == [float(v) for v in range(1, 951)]
        case_trimmed = {d.subject_id for d in drops if d.reason == "case_trimmed"}
        assert case_trimmed == {f"s{k:03d}" for k in range(238, 250)}


def test_10_spline_properties():
    with criterion(10, "spline properties", 30.0):
        spec = BasisSpec(3, (12.0, 24.0), (5.0, 40.0))

        def fd2(x, h):
            return (
                eval_natural_cubic(spec, x + h)
                - 2 * eval_natural_cubic(spec, x)
                + eval_natural_cubic(spec, x - h)
            ) / (h * h)

        # natural boundary: zero second derivative outside the boundary knots
        for anchor, h in ((45.0, 1.0), (0.0, 1.0), (60.0, 2.5), (-20.0, 2.5)):
            assert np.all(np.abs(fd2(anchor, h)) <= 1e-8)

        # C2 continuity at interior knots: extrapolate exact one-sided
        # second-difference estimates to the knot from both sides
        h = 1e-3 * 35.0
        for knot in spec.interior_knots:
            left = 2 * fd2(knot - 2 * h, h) - fd2(knot - 4 * h, h)
            right = 2 * fd2(knot + 2 * h, h) - fd2(knot + 4 * h, h)
            assert np.all(np.abs(left - right) / np.maximum(1.0, np.abs(left)) < 1e-6)

        # exact reproduction of linear functions
        xs = np.linspace(2.0, 43.0, 300)
        design = np.column_stack([np.ones_like(xs), eval_natural_cubic(spec, xs)])
        design /= np.abs(design).max(axis=0)
        y = -4.0 + 1.75 * xs
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert np.abs(design @ coef - y).max() <= 1e-10 * max(1.0, np.abs(y).max())


def test_11_end_to_end_four_configurations(tmp_path):
    with criterion(11, "end-to-end four configurations", 900.0):
        config_names = ("main", "temp3day", "trim99", "tensor")
        numeric_artifacts = (
            "exposure_series.csv", "matched_sets.csv", "drop_log.csv",
            "coefficients.csv", "coefficients_mle.csv", "draws.csv",
            "contrasts.csv", "curve_temperature.csv", "curve_pm25.csv", "surface.csv",
        )
        for name in config_names:
            cfg_path = REPO / "configs" / f"{name}.json"
            assert cfg_path.exists(), f"shipped config missing: {cfg_path}"
            out1 = tmp_path / name
            code = cli_main(["-q", "run-all", "--config", str(cfg_path), "--out", str(out1)])
            assert code in (0, 4), f"{name}: unexpected exit code {code}"

            with open(out1 / "contrasts.csv") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["name", "point", "lo95", "hi95", "extrapolated"]
            got_names = [r[0] for r in rows[1:]]
            expected = ["OR10", "OR01", "OR11", "RERI"]
            if name != "tensor":
                expected.append("mult_interaction")
            assert got_names == expected, f"{name}: contrast rows {got_names}"
            for r in rows[1:]:
                lo, point, hi = float(r[2]), float(r[1]), float(r[3])
                assert np.isfinite([lo, point, hi]).all()

            for curve in ("curve_temperature.csv", "curve_pm25.csv", "surface.csv"):
                with open(out1 / curve) as fh:
                    table = list(csv.reader(fh))
                assert table[0] == ["t", "a", "or", "lo95", "hi95"]
                assert len(table) > 10

            manifest = json.loads((out1 / "manifest.json").read_text())
            assert manifest["config"] == json.loads(cfg_path.read_text())
            assert "basis" in manifest

            out2 = tmp_path / f"{name}_rerun"
            code = cli_main([
                "-q", "run-all", "--config", str(out1 / "manifest.json"), "--out", str(out2),
            ])
            assert code in (0, 4)
            for artifact in numeric_artifacts:
                assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes(), (
                    f"{name}: {artifact} differs on rerun"
                )
