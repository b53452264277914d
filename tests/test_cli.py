"""Command-line interface: panel format, round trips, determinism, commands."""

import json
import warnings

import numpy as np
import pytest

from sibglm.benchmark import ESTIMATORS, CellSpec, evaluate_estimator
from sibglm.cli import main, read_panel
from sibglm.families import family_from_name, gaussian, poisson
from sibglm.glm import design_with_intercept, fit_glm
from sibglm.residuals import fisher_scaled, raw
from sibglm.simulate import SimConfig, generate, replicate_seed


def _run(*argv):
    return main([str(a) for a in argv])


def _count_scale_series(seed, m=250):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, m)
    noise = rng.uniform(-1, 1, m)
    y = poisson().sample(2.5 + 1.0 * x + 0.8 * noise, rng)
    return x, noise, y


def _simulate(tmp_path, name="panel.csv", **over):
    args = {
        "family": "poisson", "m": 120, "q": 4, "seed": 7,
    }
    args.update(over)
    out = tmp_path / name
    argv = ["simulate", "--output", out]
    for key, value in args.items():
        argv += [f"--{key.replace('_', '-')}", value]
    assert _run(*argv) == 0
    return out


class TestPanelFormat:
    def test_round_trip_simulated_panel(self, tmp_path):
        out = _simulate(tmp_path, q=5, seed=3)
        panel = read_panel(str(out))
        truth = generate(SimConfig(poisson(), m=120, q=5, seed=3))
        assert panel.x_names == ["x"]
        assert panel.y_names == [f"s0{j}" for j in range(5)]
        assert np.array_equal(panel.x[:, 0], truth.x)
        assert np.array_equal(panel.y, truth.y)
        assert np.array_equal(panel.truth["truth_noise"], truth.noise)
        assert float(panel.meta["truth_w_x_s00"]) == truth.x_coefs[0]

    def test_reading_errors_carry_location(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x_a,y_b\n1.0,2.0\n1.0\n")
        with pytest.raises(ValueError, match="expected 2 cells"):
            read_panel(str(p))
        p.write_text("x_a,y_b\n1.0,\n")
        with pytest.raises(ValueError, match="missing cell"):
            read_panel(str(p))
        p.write_text("x_a,y_b\n1.0,zap\n")
        with pytest.raises(ValueError, match="bad number"):
            read_panel(str(p))
        p.write_text("x_a,z_b\n1.0,2.0\n")
        with pytest.raises(ValueError, match="unknown columns"):
            read_panel(str(p))

    def test_seventeen_digit_round_trip(self, tmp_path):
        out = _simulate(tmp_path, family="gaussian", seed=11)
        panel = read_panel(str(out))
        truth = generate(SimConfig(gaussian(1.0), m=120, q=4, seed=11))
        assert np.array_equal(panel.y, truth.y)


class TestDeterminism:
    def test_simulate_rerun_is_byte_identical(self, tmp_path):
        out = _simulate(tmp_path, seed=5)
        first = out.read_bytes()
        _simulate(tmp_path, seed=5)
        assert out.read_bytes() == first

    def test_denoise_rerun_is_byte_identical(self, tmp_path):
        panel = _simulate(tmp_path, seed=5)
        out = tmp_path / "den.csv"
        assert _run("denoise", "--family", "poisson", "--input", panel, "--output", out) == 0
        first = out.read_bytes()
        assert _run("denoise", "--family", "poisson", "--input", panel, "--output", out) == 0
        assert out.read_bytes() == first

    def test_benchmark_rerun_and_jobs_are_byte_identical(self, tmp_path):
        out = tmp_path / "bm.csv"
        argv = [
            "benchmark", "--family", "poisson", "--m", "60", "--q-grid", "2,3",
            "--estimator", "glm,sglm", "--replicates", "2", "--seed", "1",
            "--output", out,
        ]
        assert _run(*argv) == 0
        first = out.read_bytes()
        assert _run(*argv, "--jobs", "2") == 0
        assert out.read_bytes() == first


class TestSimulateCommand:
    def test_shape_of_output(self, tmp_path, capsys):
        out = _simulate(tmp_path, m=120, q=20, seed=7)
        assert "seed = 7" in capsys.readouterr().out
        panel = read_panel(str(out))
        assert panel.x.shape == (120, 1)
        assert panel.y.shape == (120, 20)

    def test_q_one_is_an_error(self, tmp_path, capsys):
        rc = _run("simulate", "--q", "1", "--output", tmp_path / "x.csv")
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_config_file_precedence(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"m": 50, "q": 3, "seed": 9}))
        out = tmp_path / "p.csv"
        assert _run("simulate", "--config", conf, "--q", "4", "--output", out) == 0
        panel = read_panel(str(out))
        assert panel.y.shape == (50, 4)  # flag overrides config; config overrides default
        assert panel.meta["seed"] == "9"

    def test_config_strings_parse_through_option_type(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"m": "50", "sigma_eps": "0.2"}))
        out = tmp_path / "p.csv"
        assert _run("simulate", "--config", conf, "--q", "3", "--output", out) == 0
        panel = read_panel(str(out))
        assert panel.y.shape == (50, 3)
        assert panel.meta["m"] == "50" and panel.meta["sigma_eps"] == "0.20000000000000001"

    def test_config_must_be_an_object(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(["m"]))
        assert _run("simulate", "--config", conf, "--output", tmp_path / "p.csv") == 1
        assert "error: ValueError: config file must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "benchmark"])
    def test_input_flag_is_rejected(self, tmp_path, command):
        with pytest.raises(SystemExit) as excinfo:
            _run(command, "--input", "x", "--output", tmp_path / "x.csv")
        assert excinfo.value.code == 2


class TestDenoiseCommand:
    def test_schema_is_estimator_agnostic(self, tmp_path):
        panel = _simulate(tmp_path, seed=2)
        headers = {}
        for estimator in ("glm", "sglm", "half_sibling", "three_quarter"):
            out = tmp_path / f"den_{estimator}.csv"
            rc = _run(
                "denoise", "--family", "poisson", "--estimator", estimator,
                "--input", panel, "--output", out,
            )
            assert rc == 0
            lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
            headers[estimator] = lines[0]
            assert len(lines) == 1 + 120
        assert len(set(headers.values())) == 1
        assert headers["glm"] == "noise_hat,signal_hat,mu_hat"

    def test_truth_metrics_reported(self, tmp_path):
        panel = _simulate(tmp_path, seed=2)
        out = tmp_path / "den.csv"
        assert _run("denoise", "--family", "poisson", "--input", panel, "--output", out) == 0
        meta = {
            k.strip(): v.strip()
            for k, v in (
                line[1:].split("=", 1)
                for line in out.read_text().splitlines()
                if line.startswith("#") and "=" in line
            )
        }
        assert "metric_mse" in meta and "metric_bias" in meta and "metric_noise_corr" in meta
        assert "coef_noise_hat" in meta and "stderr_noise_hat" in meta
        assert meta["converged"] == "true"

    def test_no_shared_noise_gives_small_correlation(self, tmp_path):
        panel = _simulate(tmp_path, m=2000, q=6, seed=3, noise_scheme="zero")
        out = tmp_path / "den.csv"
        assert _run("denoise", "--family", "poisson", "--input", panel, "--output", out) == 0
        meta = dict(
            line[2:].split(" = ", 1)
            for line in out.read_text().splitlines()
            if line.startswith("# ")
        )
        assert abs(float(meta["metric_noise_corr"])) < 0.1

    def test_strategy_and_step3_flags(self, tmp_path):
        panel = _simulate(tmp_path, seed=14, noise_scheme="one")
        for extra in (["--noise-strategy", "mean_of_residuals"], ["--step3-with-x"]):
            out = tmp_path / "den.csv"
            rc = _run(
                "denoise", "--family", "poisson", "--input", panel,
                "--output", out, *extra,
            )
            assert rc == 0
            assert "# coef_noise_hat = " in out.read_text()

    @pytest.mark.parametrize("family", ["gaussian", "poisson", "bernoulli", "gamma"])
    def test_metrics_match_the_study(self, tmp_path, family):
        panel = _simulate(tmp_path, family=family, m=200, q=5, seed=4)
        truth = generate(SimConfig(family_from_name(family), m=200, q=5, seed=4))
        for estimator in ESTIMATORS:
            out = tmp_path / f"den_{estimator}.csv"
            assert _run(
                "denoise", "--family", family, "--estimator", estimator,
                "--input", panel, "--output", out,
            ) == 0
            meta = dict(
                line[2:].split(" = ", 1)
                for line in out.read_text().splitlines()
                if line.startswith("# ")
            )
            spec = CellSpec(family=family_from_name(family), m=200, q=5, estimator=estimator)
            rec = evaluate_estimator(truth, spec.family, spec)
            for name in ("mse", "bias", "noise_corr"):
                value = getattr(rec, name)
                if np.isnan(value):
                    assert f"metric_{name}" not in meta, (estimator, name)
                else:
                    assert float(meta[f"metric_{name}"]) == value, (estimator, name)

    def test_flag_overrides_config(self, tmp_path):
        panel = _simulate(tmp_path, seed=2)
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"estimator": "glm"}))
        out = tmp_path / "den.csv"
        assert _run("denoise", "--config", conf, "--input", panel, "--output", out) == 0
        assert "# estimator = glm" in out.read_text()
        assert _run(
            "denoise", "--config", conf, "--estimator", "sglm", "--input", panel, "--output", out,
        ) == 0
        text = out.read_text()
        assert "# estimator = sglm" in text and "# coef_noise_hat = " in text

    def test_target_selection(self, tmp_path):
        panel = _simulate(tmp_path, seed=4)
        out = tmp_path / "den.csv"
        assert _run(
            "denoise", "--family", "poisson", "--input", panel,
            "--output", out, "--target", "s02",
        ) == 0
        assert "# target = s02" in out.read_text()
        rc = _run(
            "denoise", "--family", "poisson", "--input", panel,
            "--output", out, "--target", "nope",
        )
        assert rc == 1


class TestResidualsCommand:
    def test_gaussian_fisher_equals_raw(self, tmp_path):
        panel = _simulate(tmp_path, family="gaussian", seed=6)
        out = tmp_path / "resid.csv"
        assert _run("residuals", "--family", "gaussian", "--input", panel, "--output", out) == 0
        table = read_csv_columns(out)
        for j in range(4):
            assert np.array_equal(table[f"fisher_s0{j}"], table[f"raw_s0{j}"])

    def test_saturated_self_fit_is_all_zero(self, tmp_path):
        p = tmp_path / "tiny.csv"
        p.write_text("y_a\n2.5\n")  # one row, intercept-only: 1 row per parameter
        out = tmp_path / "resid.csv"
        assert _run("residuals", "--family", "gaussian", "--input", p, "--output", out) == 0
        table = read_csv_columns(out)
        for kind in ("fisher", "raw", "student", "deviance"):
            assert table[f"{kind}_a"][0] == 0.0

    def test_proxy_correlations_emitted(self, tmp_path):
        panel = _simulate(tmp_path, seed=8)
        out = tmp_path / "resid.csv"
        assert _run(
            "residuals", "--family", "poisson", "--input", panel,
            "--output", out, "--proxy-column", "truth_noise",
        ) == 0
        text = out.read_text()
        for kind in ("fisher", "raw", "student", "deviance"):
            assert f"# corr_{kind}_s00 = " in text

    def test_constant_proxy_gives_nan_without_warnings(self, tmp_path):
        x = np.linspace(-1, 1, 30)
        y = poisson().sample(0.5 + x, np.random.default_rng(2))
        path = tmp_path / "const.csv"
        rows = ["x_x,y_a,truth_const"]
        rows += [f"{a!r},{b!r},1.0" for a, b in zip(x.tolist(), y.tolist())]
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run(
                "residuals", "--family", "poisson", "--input", path,
                "--output", out, "--proxy-column", "truth_const",
            ) == 0
        text = out.read_text()
        for kind in ("fisher", "raw", "student", "deviance"):
            assert f"# corr_{kind}_a = nan\n" in text

    def test_failing_series_is_named(self, tmp_path, capsys):
        # the third series is perfectly separated by x
        x = np.linspace(-1, 1, 40)
        noisy = (np.random.default_rng(0).random((40, 2)) < 0.5).astype(float)
        table = np.column_stack([x, noisy, x > 0])
        path = tmp_path / "separated.csv"
        rows = ["x_x,y_a,y_b,y_c"] + [",".join(repr(float(v)) for v in row) for row in table]
        path.write_text("\n".join(rows) + "\n")
        rc = _run(
            "residuals", "--family", "bernoulli", "--input", path,
            "--output", tmp_path / "r.csv",
        )
        assert rc == 1
        assert "error: ConvergenceError: series 2: " in capsys.readouterr().err

    def test_unknown_proxy_errors(self, tmp_path):
        panel = _simulate(tmp_path, seed=8)
        rc = _run(
            "residuals", "--family", "poisson", "--input", panel,
            "--output", tmp_path / "r.csv", "--proxy-column", "moonlight",
        )
        assert rc == 1

    def test_scaled_residual_tracks_noise_at_least_as_well_as_raw(self, tmp_path):
        # count-scale panels (survey-like baselines) with a shared detection
        # noise term: the information-scaled residual is the better proxy
        fam = poisson()
        gaps = []
        for r in range(50):
            x, noise, y = _count_scale_series(replicate_seed(91, r))
            design = design_with_intercept(x, names=("x",))
            fit = fit_glm(design, y, fam)
            c_fisher = np.corrcoef(fisher_scaled(fit, y), noise)[0, 1]
            c_raw = np.corrcoef(raw(fit, y), noise)[0, 1]
            gaps.append(abs(c_fisher) - abs(c_raw))
        assert np.mean(gaps) >= 0.0

        # same comparison through the command's proxy-correlation output
        x, noise, y = _count_scale_series(424242)
        path = tmp_path / "moth.csv"
        lines = ["x_x,y_a,truth_noise"]
        lines += [
            f"{float(x[i])!r},{float(y[i])!r},{float(noise[i])!r}"
            for i in range(len(y))
        ]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "resid.csv"
        assert _run(
            "residuals", "--family", "poisson", "--input", path,
            "--output", out, "--proxy-column", "truth_noise",
        ) == 0
        meta = dict(
            line[2:].split(" = ", 1)
            for line in out.read_text().splitlines()
            if line.startswith("# ")
        )
        assert abs(float(meta["corr_fisher_a"])) >= abs(float(meta["corr_raw_a"])) - 0.05


class TestFitCommand:
    def test_fit_summary(self, tmp_path):
        panel = _simulate(tmp_path, seed=12)
        out = tmp_path / "fit.csv"
        assert _run("fit", "--family", "poisson", "--input", panel, "--output", out) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "coefficient,estimate,stderr"
        assert lines[1].startswith("intercept,")
        assert lines[2].startswith("x,")


class TestBenchmarkCommand:
    def test_well_formed_long_csv(self, tmp_path):
        out = tmp_path / "bm.csv"
        assert _run(
            "benchmark", "--family", "poisson", "--m", "60", "--q-grid", "2,3",
            "--estimator", "glm,sglm,half_sibling,three_quarter",
            "--residual", "fisher,raw", "--replicates", "2", "--seed", "4",
            "--output", out,
        ) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header == [
            "family", "m", "sigma_eps", "q", "estimator", "residual",
            "metric", "mean", "stderr", "replicates", "status", "note",
        ]
        rows = [l.split(",") for l in lines[1:]]
        # per q: glm 1 cell, sglm 2 residual cells, two linear estimators
        assert len(rows) == 2 * (1 + 2 + 1 + 1) * 3
        assert all(r[10] == "ok" for r in rows)
        sglm_kinds = {r[5] for r in rows if r[4] == "sglm"}
        assert sglm_kinds == {"fisher", "raw"}
        assert {r[5] for r in rows if r[4] == "glm"} == {"-"}

    def test_failed_cells_are_recorded(self, tmp_path):
        out = tmp_path / "bm.csv"
        assert _run(
            "benchmark", "--family", "gamma", "--dispersion", "2.0", "--m", "60",
            "--sigma-eps", "5.0", "--q-grid", "2", "--estimator", "glm",
            "--replicates", "2", "--seed", "4", "--output", out,
        ) == 0
        rows = [
            l.split(",") for l in out.read_text().splitlines()
            if not l.startswith("#") and l
        ][1:]
        assert len(rows) == 1
        assert rows[0][10] == "failed"
        assert "GenerationError" in rows[0][11]

    def test_every_job_count_reports_each_cell(self, tmp_path, capsys):
        assert _run(
            "benchmark", "--family", "poisson", "--m", "60", "--q-grid", "2,3",
            "--estimator", "glm,sglm", "--residual", "fisher,raw", "--replicates", "2",
            "--seed", "1", "--jobs", "2", "--output", tmp_path / "bm.csv",
        ) == 0
        lines = capsys.readouterr().err.splitlines()
        cells = [l for l in lines if l.startswith("cell q=")]
        assert len(cells) == 2 * (1 + 2)
        assert cells[0].startswith("cell q=2 estimator=glm residual=fisher: ")

    def test_bad_grid_errors(self, tmp_path):
        rc = _run(
            "benchmark", "--q-grid", "1,2", "--output", tmp_path / "x.csv",
        )
        assert rc == 1

    @pytest.mark.parametrize("flag", ["--estimator", "--residual"])
    def test_empty_list_errors(self, tmp_path, capsys, flag):
        rc = _run(
            "benchmark", "--estimator", "glm", flag, ",", "--q-grid", "2",
            "--replicates", "1", "--output", tmp_path / "x.csv",
        )
        assert rc == 1
        assert "must be nonempty" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_step3_with_x_from_config(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"step3_with_x": True}))
        out = tmp_path / "bm.csv"
        assert _run(
            "benchmark", "--config", conf, "--m", "60", "--q-grid", "2",
            "--replicates", "1", "--output", out,
        ) == 0
        assert "# step3_with_x = True" in out.read_text()


def read_csv_columns(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#") and l]
    names = lines[0].split(",")
    data = np.array([[float(c) for c in l.split(",")] for l in lines[1:]])
    return {n: data[:, j] for j, n in enumerate(names)}
