import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from casecross import mcmc
from casecross.cli import EXIT_INPUT_ERROR, EXIT_NONCONVERGENCE, EXIT_OK, main
from casecross.errors import ConvergenceError


def child_env() -> dict:
    """This environment with the checkout's ``src`` first on
    ``PYTHONPATH``, so that a child interpreter imports the code under test
    as pytest's ``pythonpath`` setting makes this process do."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def make_dataset(tmp_path, seed=42, events=500, zones=15):
    data_dir = tmp_path / "data"
    code = main([
        "-q", "synth", "--out", str(data_dir), "--seed", str(seed),
        "--events", str(events), "--zones", str(zones),
    ])
    assert code == EXIT_OK
    return data_dir


def make_config(tmp_path, data_dir, name="cfg.json", **overrides):
    payload = {
        "events": str(data_dir / "events.csv"),
        "grid": str(data_dir / "grid.csv"),
        "zones": str(data_dir / "zones.csv"),
        "membership": str(data_dir / "membership.csv"),
        "temperature_field": str(data_dir / "temperature_field.csv"),
        "pm25_field": str(data_dir / "pm25_field.csv"),
        "chains": 2,
        "warmup": 300,
        "draws": 300,
        "seed": 7,
        "curve_points": 12,
        "surface_points": 8,
        "output_dir": str(tmp_path / "out"),
    }
    payload.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


class TestSynth:
    def test_requires_seed(self, tmp_path):
        assert main(["-q", "synth", "--out", str(tmp_path / "d")]) == EXIT_INPUT_ERROR

    def test_emits_all_input_files(self, tmp_path):
        data_dir = make_dataset(tmp_path, events=60, zones=5)
        names = {p.name for p in data_dir.iterdir()}
        assert names == {
            "grid.csv", "zones.csv", "membership.csv",
            "temperature_field.csv", "pm25_field.csv", "events.csv",
        }
        with open(data_dir / "events.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["subject_id", "zone_id", "case_date"]
        assert len(rows) == 61

    def test_regenerates_shipped_data_byte_for_byte(self, tmp_path):
        shipped = Path(__file__).resolve().parent.parent / "data" / "synth"
        assert main([
            "-q", "synth", "--out", str(tmp_path), "--seed", "20120601",
            "--events", "1500", "--zones", "40",
        ]) == EXIT_OK
        names = sorted(p.name for p in shipped.iterdir())
        assert names == sorted(p.name for p in tmp_path.iterdir())
        for name in names:
            assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name

    def test_synth_builds_no_per_row_objects(self, tmp_path, monkeypatch):
        from casecross import design

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built on the synth path")

        monkeypatch.setattr(design.MatchedSet, "__init__", refuse)
        monkeypatch.setattr(design.DayRecord, "__init__", refuse)
        shipped = Path(__file__).resolve().parent.parent / "data" / "synth"
        assert main([
            "-q", "synth", "--out", str(tmp_path), "--seed", "20120601",
            "--events", "1500", "--zones", "40",
        ]) == EXIT_OK
        for path in shipped.iterdir():
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name

    def test_benchmark_dataset_is_pinned(self, tmp_path):
        # the synth30k benchmark workload analyses exactly this output
        want = {
            "events.csv": "f34624bb41aeba904951b2ed874e5d5db5f6464d441cff8360f1524efddb19d7",
            "grid.csv": "51a7deee2f66da849fdc53db5ddca1fee982764504346f33cbe8d3362926a6f1",
            "membership.csv": "91ff4cd09e2900ef4807fd4b9252d65f8955cd849dd04a12f86b1772991805ec",
            "pm25_field.csv": "46a665aabf585ecbf8101e289c187b88124c27a14c5c553d17b3b710e5800035",
            "temperature_field.csv": "8a95571b5737aeaff413546e624cd9c2eb535453e1eae2abde717584fff9de2f",
            "zones.csv": "7bdc16e729d93a7cadcc2c7249e3fd2e0080b79291f01479f64054bdac52eeb1",
        }
        assert main([
            "-q", "synth", "--out", str(tmp_path), "--seed", "7",
            "--events", "30000", "--zones", "200",
        ]) == EXIT_OK
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert got == want

    def test_years_range_spans_every_season(self, tmp_path):
        args = ["-q", "synth", "--seed", "3", "--events", "300", "--zones", "3"]
        assert main([*args, "--out", str(tmp_path / "range"), "--years", "2008-2010"]) == EXIT_OK
        for name, column in (("events.csv", "case_date"), ("temperature_field.csv", "date")):
            with open(tmp_path / "range" / name) as fh:
                years = {row[column][:4] for row in csv.DictReader(fh)}
            assert years == {"2008", "2009", "2010"}, name
        # one year named is the default
        assert main([*args, "--out", str(tmp_path / "one"), "--years", "2012"]) == EXIT_OK
        assert main([*args, "--out", str(tmp_path / "default")]) == EXIT_OK
        for path in (tmp_path / "default").iterdir():
            assert (tmp_path / "one" / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize("value", ["2016-2008", "2008:2016", "08-16", "2008-", "0999-2001", "abc", ""])
    def test_bad_years_exit_2_naming_flag(self, tmp_path, capsys, value):
        code = main(["-q", "synth", "--out", str(tmp_path / "d"), "--seed", "1",
                     "--zones", "3", f"--years={value}"])
        assert code == EXIT_INPUT_ERROR
        assert "--years" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--seed", "-1"),
            ("--events", "-1"),
            ("--zones", "0"),
            ("--gamma", "inf"),
            ("--slope-t", "nan"),
            ("--slope-a", "-inf"),
            ("--gamma", "1e308"),
        ],
    )
    def test_bad_number_exits_2_naming_flag(self, tmp_path, capsys, flag, value):
        code = main(["-q", "synth", "--out", str(tmp_path / "d"), "--seed", "1",
                     "--zones", "3", f"{flag}={value}"])
        assert code == EXIT_INPUT_ERROR
        assert flag in capsys.readouterr().err

    def test_overflowing_truth_exits_2_without_numpy_warning(self, tmp_path, capsys):
        # the truth's log-odds overflow to inf; the generator's own check
        # reports it, and numpy must not warn on the way there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["-q", "synth", "--out", str(tmp_path / "d"), "--seed", "1",
                         "--zones", "3", "--gamma=1e308"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "--gamma" in err and "not finite" in err
        assert "Warning" not in err and "numpy" not in err

    def test_zero_events_exits_0(self, tmp_path):
        assert main(["-q", "synth", "--out", str(tmp_path), "--seed", "1", "--events", "0"]) == EXIT_OK
        assert (tmp_path / "events.csv").read_text() == "subject_id,zone_id,case_date\n"


class TestValidate:
    def test_valid_config(self, tmp_path, capsys):
        data_dir = make_dataset(tmp_path, events=50, zones=4)
        cfg = make_config(tmp_path, data_dir)
        assert main(["-q", "validate", "--config", str(cfg)]) == EXIT_OK
        assert "ok" in capsys.readouterr().out

    def test_missing_file_fails(self, tmp_path, capsys):
        data_dir = make_dataset(tmp_path, events=50, zones=4)
        cfg = make_config(tmp_path, data_dir, events=str(tmp_path / "missing.csv"))
        assert main(["-q", "validate", "--config", str(cfg)]) == EXIT_INPUT_ERROR
        assert "problem" in capsys.readouterr().out

    @pytest.mark.parametrize("key, value", [
        ("chains", "4"), ("draws", 1500.0), ("draws", 2.5), ("seed", "20120601"),
        ("warmup", True), ("pm25_window_days", 3.0), ("temperature_df", "3"),
        ("curve_points", None),
    ])
    def test_mistyped_integer_field_exits_2(self, tmp_path, capsys, key, value):
        # the type check comes before any input file is opened
        cfg = make_config(tmp_path, tmp_path / "no_data", **{key: value})
        assert main(["-q", "run-all", "--config", str(cfg)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert str(cfg) in err and key in err and "integer" in err

    @pytest.mark.parametrize("command", ["validate", "run-all"])
    @pytest.mark.parametrize("key, value", [
        ("events", 5), ("pm25_field", ["a.csv"]), ("grid", None),
        ("output_dir", None), ("output_dir", 1.5), ("model_kind", 2),
    ])
    def test_non_string_path_or_kind_exits_2(self, tmp_path, capsys, command, key, value):
        data_dir = make_dataset(tmp_path, events=50, zones=4)
        cfg = make_config(tmp_path, data_dir, **{key: value})
        assert main(["-q", command, "--config", str(cfg)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert str(cfg) in err and key in err and "string" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("prior_sd", {"temperature": "a"}),
        ("prior_sd", [1, 2]),
        ("prior_sd", {"temprature": 1.0, "pm25": 10.0, "interaction": 1.0}),
        ("prior_sd", {"temperature": 10.0, "pm25": float("inf")}),
        ("prior_sd", {"interaction": True}),
        ("season_months", [6]),
        ("season_months", [6, "9"]),
        ("season_months", [6.5, 9]),
        ("season_months", [6, 9.0]),
        ("season_months", [True, 9]),
        ("contrast_quantiles", [0.5]),
        ("contrast_quantiles", 0.5),
        ("trim_quantile", "x"),
        ("trim_quantile", True),
    ])
    def test_malformed_config_value_exits_2(self, tmp_path, capsys, key, value):
        cfg = make_config(tmp_path, tmp_path / "no_data", **{key: value})
        assert main(["-q", "validate", "--config", str(cfg)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert str(cfg) in err and key in err and "Traceback" not in err

    @pytest.mark.parametrize("command, file, line, bad", [
        ("link", "temperature_field.csv", 3, "abc"),
        ("link", "pm25_field.csv", 2, "1.0.0"),
        ("link", "grid.csv", 4, "north"),
        ("link", "zones.csv", 2, ""),
        ("match", "events.csv", 5, "2012-13-45"),
    ])
    def test_unparseable_input_exits_2_naming_file_and_line(
        self, tmp_path, capsys, command, file, line, bad
    ):
        data_dir = make_dataset(tmp_path, events=50, zones=4)
        path = data_dir / file
        rows = list(csv.reader(path.open()))
        rows[line - 1][-1] = bad
        with path.open("w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        cfg = make_config(tmp_path, data_dir)
        assert main(["-q", command, "--config", str(cfg)]) == EXIT_INPUT_ERROR
        assert f"{path}:{line}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run-all"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, flag):
        # from the flag or from the config, before any input is read
        data_dir = make_dataset(tmp_path, events=50, zones=4)
        cfg = make_config(tmp_path, data_dir, **({} if flag else {"seed": -1}))
        args = ["--seed", "-1"] if flag else []
        assert main(["-q", command, "--config", str(cfg), *args]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert "seed -1 must be at least 0" in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    def test_trim_quantile_zero_rejected_before_computation(self, tmp_path):
        data_dir = make_dataset(tmp_path, events=50, zones=4)
        cfg = make_config(tmp_path, data_dir, trim_quantile=0.0)
        assert main(["-q", "validate", "--config", str(cfg)]) == EXIT_INPUT_ERROR
        assert main(["-q", "run-all", "--config", str(cfg)]) == EXIT_INPUT_ERROR
        assert not (tmp_path / "out").exists()


class TestStages:
    def test_link_writes_series_only(self, tmp_path):
        data_dir = make_dataset(tmp_path, events=50, zones=4)
        cfg = make_config(tmp_path, data_dir)
        assert main(["-q", "link", "--config", str(cfg)]) == EXIT_OK
        out = tmp_path / "out"
        assert (out / "exposure_series.csv").exists()
        assert (out / "manifest.json").exists()
        assert not (out / "matched_sets.csv").exists()

    def test_match_writes_audit_and_drop_log(self, tmp_path):
        data_dir = make_dataset(tmp_path, events=80, zones=4)
        cfg = make_config(tmp_path, data_dir)
        assert main(["-q", "match", "--config", str(cfg)]) == EXIT_OK
        out = tmp_path / "out"
        with open(out / "matched_sets.csv") as fh:
            header = next(csv.reader(fh))
        assert header == ["subject_id", "date", "is_case", "temperature", "pm25_window"]
        assert (out / "drop_log.csv").exists()

    def test_fit_requires_seed(self, tmp_path):
        data_dir = make_dataset(tmp_path, events=50, zones=4)
        cfg = make_config(tmp_path, data_dir)
        payload = json.loads(cfg.read_text())
        del payload["seed"]
        cfg.write_text(json.dumps(payload))
        assert main(["-q", "fit", "--config", str(cfg)]) == EXIT_INPUT_ERROR
        # a --seed flag satisfies the requirement (short chains may still
        # warn about convergence, which is not an input error)
        assert main(["-q", "fit", "--config", str(cfg), "--seed", "5"]) in (
            EXIT_OK,
            EXIT_NONCONVERGENCE,
        )


class TestRunAll:
    def test_artifacts_and_manifest_echo(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        cfg_path = make_config(tmp_path, data_dir)
        code = main(["-q", "run-all", "--config", str(cfg_path)])
        assert code in (EXIT_OK, 4)
        out = tmp_path / "out"
        for name in (
            "exposure_series.csv", "matched_sets.csv", "drop_log.csv",
            "coefficients.csv", "coefficients_mle.csv", "draws.csv",
            "diagnostics.txt", "contrasts.csv", "curve_temperature.csv",
            "curve_pm25.csv", "surface.csv", "manifest.json",
        ):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == json.loads(cfg_path.read_text())
        assert manifest["seed"] == 7
        assert "basis" in manifest and "trim_threshold" in manifest
        with open(out / "contrasts.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "point", "lo95", "hi95", "extrapolated"]
        assert [r[0] for r in rows[1:]] == ["OR10", "OR01", "OR11", "RERI", "mult_interaction"]
        head, _ = (out / "diagnostics.txt").read_text().split("label rhat ess mcse\n")
        fields = dict(line.split(": ", 1) for line in head.splitlines() if ": " in line)
        assert float(fields["pareto_k"]) <= 0.7
        assert int(fields["log_post_evals"]) == 2 * (300 + 300 + 1)
        assert len(fields["acceptance_per_chain"].split()) == 2
        assert all(int(df) in mcmc.TAILS for df in fields["proposal_df_per_chain"].split())
        assert len(fields["proposal_df_per_chain"].split()) == 2
        assert float(fields["sampler_s"]) > 0
        assert float(fields["min_ess_per_s"]) > 0

    def test_rerun_from_manifest_is_bit_identical(self, tmp_path):
        data_dir = make_dataset(tmp_path)
        cfg_path = make_config(tmp_path, data_dir)
        assert main(["-q", "run-all", "--config", str(cfg_path)]) in (EXIT_OK, 4)
        out1 = tmp_path / "out"
        out2 = tmp_path / "out2"
        assert main([
            "-q", "run-all", "--config", str(out1 / "manifest.json"), "--out", str(out2),
        ]) in (EXIT_OK, 4)
        for name in (
            "exposure_series.csv", "matched_sets.csv", "drop_log.csv",
            "coefficients.csv", "draws.csv", "contrasts.csv",
            "curve_temperature.csv", "curve_pm25.csv", "surface.csv",
        ):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_pipeline_builds_no_per_row_objects(self, tmp_path, monkeypatch):
        from casecross import design

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built on the pipeline path")

        monkeypatch.setattr(design.MatchedSet, "__init__", refuse)
        monkeypatch.setattr(design.DayRecord, "__init__", refuse)
        config = Path(__file__).resolve().parent.parent / "configs" / "main.json"
        assert main(["-q", "run-all", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_convergence_error_exits_2(self, tmp_path, monkeypatch, capsys):
        from casecross import pipeline

        def fail(*args, **kwargs):
            raise ConvergenceError("hessian is singular even after ridge restart")

        monkeypatch.setattr(pipeline, "fit_mle", fail)
        config = Path(__file__).resolve().parent.parent / "configs" / "main.json"
        code = main(["-q", "run-all", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_INPUT_ERROR
        assert "hessian is singular" in capsys.readouterr().err

    def test_unknown_zone_events_logged_not_fatal(self, tmp_path):
        data_dir = make_dataset(tmp_path, events=60, zones=4)
        with open(data_dir / "events.csv", "a") as fh:
            fh.write("sX,zone_that_is_not_there,2012-07-18\n")
        cfg = make_config(tmp_path, data_dir)
        assert main(["-q", "match", "--config", str(cfg)]) == EXIT_OK
        drops = (tmp_path / "out" / "drop_log.csv").read_text()
        assert "sX,unknown_zone" in drops


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        data_dir = make_dataset(tmp_path, events=40, zones=4)
        cfg = make_config(tmp_path, data_dir)
        proc = subprocess.run(
            [sys.executable, "-m", "casecross", "validate", "--config", str(cfg)],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert "ok" in proc.stdout

    def test_run_all_does_not_import_numpy_ma(self, tmp_path):
        # np.unique's hash path imports numpy.ma, about 15 ms of every
        # process; the thread pool's concurrent.futures loads on first use
        config = Path(__file__).resolve().parent.parent / "configs" / "main.json"
        script = (
            "import sys; from casecross.cli import main; "
            "futures = 'concurrent.futures' in sys.modules; "
            f"code = main(['-q', 'run-all', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}]); "
            "print(code, 'numpy.ma' in sys.modules, futures)"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env())
        assert proc.stdout.split() == [str(EXIT_OK), "False", "False"], proc.stderr

    def test_tensor_model_runs(self, tmp_path):
        data_dir = make_dataset(tmp_path, events=300, zones=8)
        cfg = make_config(
            tmp_path, data_dir, model_kind="spline_tensor",
            warmup=200, draws=200, surface_points=6, curve_points=8,
        )
        code = main(["-q", "run-all", "--config", str(cfg)])
        assert code in (EXIT_OK, 4)
        with open(tmp_path / "out" / "contrasts.csv") as fh:
            rows = list(csv.reader(fh))
        # no single product coefficient in the tensor model
        assert [r[0] for r in rows[1:]] == ["OR10", "OR01", "OR11", "RERI"]
        with open(tmp_path / "out" / "coefficients.csv") as fh:
            coef_rows = list(csv.reader(fh))
        assert len(coef_rows) == 1 + 3 + 3 + 9
