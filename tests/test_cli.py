"""Command-line interface: panel format, round trips, determinism, commands."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sibglm.benchmark as bench
from sibglm.benchmark import Study, run_study
import sibglm.cli
import sibglm.residuals as res
from sibglm.cli import _BLOCK_ROWS, PanelFormatError, _fmt, _write_table, main, read_panel
from sibglm.families import bernoulli, family_from_name, gamma, gaussian, poisson
from sibglm.glm import design_with_intercept, fit_glm
from sibglm.residuals import fisher_scaled, raw
from sibglm.sibling import ESTIMATORS, CellSpec, run_estimator
from sibglm.simulate import SimConfig, correlation, generate, replicate_seed, to_panel

from oracles import read_panel_per_cell, write_table_per_row


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


def _data_lines(path):
    """The rows of a benchmark table, without its header lines."""
    return [l for l in path.read_text().splitlines() if l and not l.startswith("#")][1:]


def _cell_outcomes(path):
    """Status and note of each (q, estimator, residual) cell of a benchmark table."""
    rows = (line.split(",", 11) for line in _data_lines(path))
    return {tuple(r[3:6]): (r[10], r[11]) for r in rows}


def _per_cell_note(family, m, q, estimator, replicates, seed, **config):
    """The note a cell gets when it runs on its own q-series panels."""
    for r in range(replicates):
        try:
            truth = bench.generate(
                SimConfig(family, m=m, q=q, seed=replicate_seed(seed, r), **config)
            )
            run_estimator(to_panel(truth, family), estimator)
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"
    return None


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

    def test_repeated_column_is_an_error(self, tmp_path, capsys):
        p = tmp_path / "dup.csv"
        p.write_text("x_a,y_s,y_s,truth_n,truth_n\n1,2,3,4,5\n2,3,4,5,6\n")
        with pytest.raises(PanelFormatError, match=r"dup\.csv: column 'y_s' appears more than once"):
            read_panel(str(p))
        out = tmp_path / "res.csv"
        assert _run("residuals", "--input", p, "--output", out) == 1
        assert "column 'y_s' appears more than once" in capsys.readouterr().err
        assert not out.exists()


def _read_or_error(reader, path):
    try:
        return reader(str(path))
    except PanelFormatError as exc:
        return str(exc)


def _assert_reads_like_per_cell(path):
    """read_panel gives the per-cell reader's arrays bit for bit, or its message."""
    got = _read_or_error(read_panel, path)
    want = _read_or_error(read_panel_per_cell, path)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert (got.x_names, got.y_names, got.meta) == (want.x_names, want.y_names, want.meta)
    pairs = [(got.x, want.x), (got.y, want.y)]
    assert list(got.truth) == list(want.truth)
    pairs += [(got.truth[n], want.truth[n]) for n in want.truth]
    for a, b in pairs:
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


# Cells that Python's float() reads unusually, or rejects; "\x1c" and "\x1f"
# are removed by str.strip() but rejected by float() alone
ODD_CELLS = [
    "1_0", "\u0661", " 2 ", "+1.5", ".5", "infinity", "-inf", "nan", "-nan", "NaN",
    "1e400", "1e-400", "5e-324", "-0", "0x10", "", "   ", "\t", "1__0", "_1", "2.5e",
    "\uff11\uff12", "\x1c3\x1c", "\x1f1", "\u00a04", "1,5",
]


class TestReaderContract:
    @pytest.mark.parametrize("cell", ODD_CELLS)
    def test_odd_cell_reads_like_float(self, tmp_path, cell):
        for text in (f"x_a,y_b\n1,{cell}\n2,3\n", f"y_b,x_a\n{cell},1\n"):
            p = tmp_path / "odd.csv"
            p.write_text(text, encoding="utf-8")
            _assert_reads_like_per_cell(p)

    def test_crlf_line_endings(self, tmp_path):
        p = tmp_path / "crlf.csv"
        p.write_bytes(b"# k = v\r\nx_a,y_b,truth_c\r\n1,2,3\r\n4.5,-6,1e3\r\n")
        _assert_reads_like_per_cell(p)
        assert read_panel(str(p)).meta == {"k": "v"}
        p.write_bytes(b"x_a,y_b\r\n1,2\r\n\r\n3,4\r\n")
        _assert_reads_like_per_cell(p)

    @pytest.mark.parametrize("rows", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 7])
    def test_block_boundaries(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        values = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-300, 300, size=(rows, 3))
        lines = ["# a = 1", "x_a,y_b,truth_c"] + [",".join(map(repr, r)) for r in values.tolist()]
        p = tmp_path / "blocks.csv"
        p.write_text("\n".join(lines) + "\n")
        _assert_reads_like_per_cell(p)
        assert read_panel(str(p)).y[:, 0].tobytes() == values[:, 1].tobytes()

    @pytest.mark.parametrize("bad_row", [1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3])
    def test_bad_cell_names_its_row_in_any_block(self, tmp_path, bad_row):
        for bad in ("", "zap"):
            lines = ["x_a,y_b"] + [f"{i},{i}" for i in range(1, 2 * _BLOCK_ROWS + 5)]
            lines[bad_row] = f"{bad_row},{bad}"
            p = tmp_path / "bad.csv"
            p.write_text("\n".join(lines) + "\n")
            _assert_reads_like_per_cell(p)
            with pytest.raises(PanelFormatError, match=f"at row {bad_row}, column 'y_b'"):
                read_panel(str(p))

    @pytest.mark.parametrize("short_line", [3, _BLOCK_ROWS + 2, 2 * _BLOCK_ROWS + 4])
    def test_wrong_cell_count_on_line_n_comes_first(self, tmp_path, short_line):
        # a bad cell in an earlier row still yields the cell-count error
        lines = ["# c = 1", "x_a,y_b"] + [f"{i},{i}" for i in range(2 * _BLOCK_ROWS + 5)]
        lines[2] = "0,zap"
        lines[short_line - 1] = "7"
        p = tmp_path / "short.csv"
        p.write_text("\n".join(lines) + "\n")
        _assert_reads_like_per_cell(p)
        with pytest.raises(PanelFormatError, match=f"short.csv:{short_line}: expected 2 cells, got 1"):
            read_panel(str(p))

    @pytest.mark.parametrize("text", [
        "", "# only = comments\n", "x_a,y_b\n", "x_a,z_b\n1,2\n", "x_a\n1\n", "x_a,z_b\n1,zap\n",
    ])
    def test_file_level_errors(self, tmp_path, text):
        p = tmp_path / "f.csv"
        p.write_text(text)
        _assert_reads_like_per_cell(p)
        with pytest.raises(PanelFormatError):
            read_panel(str(p))


@pytest.fixture
def paired_writes(monkeypatch):
    """Every table a command writes, also written by the row-by-row writer."""
    paths = []

    def both(path, meta, columns):
        _write_table(path, meta, columns)
        write_table_per_row(path + ".per_row", meta, columns)
        paths.append(path)

    monkeypatch.setattr(sibglm.cli, "_write_table", both)
    return paths


def _assert_same_bytes(paths):
    assert paths
    for path in paths:
        with open(path, "rb") as a, open(path + ".per_row", "rb") as b:
            assert a.read() == b.read(), path


class TestWriterGolden:
    @pytest.mark.parametrize("family", ["gaussian", "poisson", "bernoulli", "gamma"])
    def test_every_command_table(self, tmp_path, paired_writes, family):
        panel = str(tmp_path / "panel.csv")
        fam = ["--family", family]
        calls = [
            ["simulate", *fam, "--m", "300", "--q", "4", "--seed", "3", "--output", panel],
            ["fit", *fam, "--input", panel, "--output", str(tmp_path / "fit.csv")],
            ["denoise", *fam, "--input", panel, "--output", str(tmp_path / "den.csv")],
            ["residuals", *fam, "--input", panel, "--proxy-column", "truth_noise",
             "--output", str(tmp_path / "res.csv")],
            ["benchmark", *fam, "--m", "60", "--q-grid", "2,3", "--replicates", "2",
             "--estimator", "glm,sglm,half_sibling", "--residual", "fisher,raw",
             "--output", str(tmp_path / "bm.csv")],
        ]
        for argv in calls:
            assert main(argv) == 0, argv
        assert len(paired_writes) == len(calls)
        _assert_same_bytes(paired_writes)

    @pytest.mark.parametrize("m", [1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 5])
    def test_special_values_and_mixed_columns(self, tmp_path, m):
        special = [-0.0, 1e-300, 5e-324, np.nan, np.inf, -np.inf, 0.1, 1.0, -2.5e300]
        rng = np.random.default_rng(m)
        floats = rng.normal(size=m) * 10.0 ** rng.integers(-320, 300, size=m)
        floats[: len(special)] = special[:m]
        columns = {
            "f": floats,
            "g": -floats[::-1].copy(),
            "name": np.array([f"c{i}" for i in range(m)], dtype=object),
            "tag": [["ok", "", "x,y"][i % 3] for i in range(m)],
            "i": np.arange(m),
            "h": np.linspace(-1.0, 1.0, m, dtype=np.float32),
        }
        path = str(tmp_path / "t.csv")
        meta = {"b": "2", "a": "%s %.17g"}
        _write_table(path, meta, columns)
        write_table_per_row(path + ".per_row", meta, columns)
        _assert_same_bytes([path])


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
    def test_negative_seed_is_an_error(self, tmp_path, capsys):
        rc = _run("simulate", "--seed", "-1", "--output", tmp_path / "x.csv")
        assert rc == 1
        assert capsys.readouterr().err == "error: ValueError: seed must be >= 0\n"
        assert not (tmp_path / "x.csv").exists()

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

    @pytest.mark.parametrize("family", ["poisson", "bernoulli"])
    def test_fixed_dispersion_is_not_overridden(self, tmp_path, capsys, family):
        out = tmp_path / "p.csv"
        assert _run("simulate", "--family", family, "--dispersion", "5", "--output", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: ValueError: {family} family has fixed dispersion 1\n"
        assert not out.exists()

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

    def test_series_outside_the_support_is_named(self, tmp_path, capsys):
        # series b is negative: the panel commands name it, and a fit of it alone does not
        path = tmp_path / "negative.csv"
        path.write_text("x_x,y_a,y_b\n" + "".join(f"{i},{i},{-i}\n" for i in range(6)))
        message = "poisson response must be nonnegative"
        for command, flags, prefix in (
            ("denoise", (), "series 1: "),
            ("residuals", (), "series 1: "),
            ("fit", ("--target", "b"), ""),
        ):
            capsys.readouterr()
            rc = _run(command, "--input", path, "--output", tmp_path / "o.csv", *flags)
            assert rc == 1
            assert f"error: DomainError: {prefix}{message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("covariate", ["intercept", "noise_hat"])
    def test_a_covariate_named_like_another_column_is_named(self, tmp_path, capsys, covariate):
        # x_intercept repeats the design's intercept; x_noise_hat repeats the
        # proxy column of the sglm refit, so only sglm fails on it
        path = tmp_path / "clash.csv"
        x = np.linspace(-1, 1, 30)
        ys = np.random.default_rng(2).poisson(np.exp(1 + x)[:, None], (30, 3))
        rows = [f"x_{covariate},y_a,y_b,y_c"] + [
            ",".join([repr(float(v)), *map(str, y)]) for v, y in zip(x, ys)
        ]
        path.write_text("\n".join(rows) + "\n")
        expected = f"error: ValueError: column name '{covariate}' appears more than once\n"
        for argv in (["fit"], ["denoise", "--estimator", "glm"], ["denoise"]):
            capsys.readouterr()
            rc = _run(*argv, "--input", path, "--output", tmp_path / "o.csv")
            fails = covariate == "intercept" or argv == ["denoise"]
            assert rc == int(fails), argv
            assert (expected in capsys.readouterr().err) == fails, argv

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
        # replicate 0 of a study with master seed 4 is the panel simulated
        # with that replicate's seed; q=3 takes the first series of q=5
        fam = family_from_name(family)
        study = Study(fam, m=200, replicates=1, master_seed=4)
        cells = [CellSpec(q, estimator) for q in (3, 5) for estimator in ESTIMATORS]
        results, _ = run_study(study, cells)
        for q in (3, 5):
            panel = _simulate(
                tmp_path, name=f"panel{q}.csv", family=family, m=200, q=q,
                seed=replicate_seed(4, 0),
            )
            for result in results:
                if result.spec.q != q:
                    continue
                estimator = result.spec.estimator
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
                assert result.error is None
                for name in ("mse", "bias", "noise_corr"):
                    value = result.samples[name][0]
                    if np.isnan(value):
                        assert f"metric_{name}" not in meta, (q, estimator, name)
                    else:
                        assert float(meta[f"metric_{name}"]) == value, (q, estimator, name)

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

    @pytest.mark.parametrize(
        "failing,message",
        [
            ({"raw": 2, "deviance": 1}, "deviance fails at series 1"),
            ({"deviance": 1, "raw": 1}, "raw fails at series 1"),
            ({"fisher": 3, "student": 0}, "student fails at series 0"),
        ],
    )
    def test_the_first_error_of_a_series_major_loop_is_reported(
        self, tmp_path, capsys, monkeypatch, failing, message
    ):
        panel = _simulate(tmp_path, seed=8)
        responses = read_panel(str(panel)).y
        for kind, j in failing.items():
            def failing_block(fits, ys, mu, design, block=res._KINDS[kind], kind=kind, j=j):
                if any(np.array_equal(row, responses[:, j]) for row in ys):
                    raise ValueError(f"{kind} fails at series {j}")
                return block(fits, ys, mu, design)

            monkeypatch.setitem(res._KINDS, kind, failing_block)
        out = tmp_path / "r.csv"
        capsys.readouterr()
        assert _run("residuals", "--input", panel, "--output", out) == 1
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("column", ["x_x", "y_s01"])
    def test_proxy_from_a_covariate_or_a_series(self, tmp_path, column):
        path = _simulate(tmp_path, seed=8)
        out = tmp_path / "r.csv"
        assert _run(
            "residuals", "--family", "poisson", "--input", path,
            "--output", out, "--proxy-column", column,
        ) == 0
        panel = read_panel(str(path))
        proxy = panel.x[:, 0] if column == "x_x" else panel.y[:, 1]
        table = read_csv_columns(out)
        text = out.read_text()
        for name in panel.y_names:
            for kind in ("fisher", "raw", "student", "deviance"):
                corr = correlation(table[f"{kind}_{name}"], proxy)
                assert f"# corr_{kind}_{name} = {_fmt(corr)}\n" in text

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


# A fresh interpreter runs one round of the commands and lists the modules
# it has loaded from one package. sibglm needs numpy alone, and importing
# scipy would roughly double the start-up every call pays; a single-job
# study needs no process pool, and concurrent.futures, with the logging
# module it loads, adds about 8 ms to every call.
ROUND = """
import sys
from sibglm.cli import main

work, package = sys.argv[1:]
calls = [
    ["simulate", "--m", "30", "--q", "3", "--seed", "5", "--output", f"{work}/panel.csv"],
    ["fit", "--input", f"{work}/panel.csv", "--output", f"{work}/fit.csv"],
    ["denoise", "--input", f"{work}/panel.csv", "--output", f"{work}/den.csv"],
    ["residuals", "--input", f"{work}/panel.csv", "--output", f"{work}/res.csv"],
    ["benchmark", "--m", "30", "--q-grid", "2", "--replicates", "1", "--output", f"{work}/bm.csv"],
]
print([main(argv) for argv in calls])
print(sorted(name for name in sys.modules if name == package or name.startswith(package + ".")))
"""


def _loaded_in_a_round(tmp_path, package: str) -> str:
    src = os.path.dirname(os.path.dirname(sibglm.cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", ROUND, str(tmp_path), package],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    codes, loaded = done.stdout.splitlines()[-2:]
    assert codes == "[0, 0, 0, 0, 0]"
    return loaded


def test_a_round_of_commands_loads_no_scipy(tmp_path):
    assert _loaded_in_a_round(tmp_path, "scipy") == "[]"


def test_a_round_of_commands_loads_no_process_pool(tmp_path):
    assert _loaded_in_a_round(tmp_path, "concurrent.futures") == "[]"


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
        assert len([l for l in lines if l.startswith("shared generate and fit: ")]) == 1

    def test_small_q_rows_do_not_depend_on_the_grid(self, tmp_path):
        common = [
            "benchmark", "--family", "poisson", "--m", "60",
            "--estimator", "glm,sglm,half_sibling,three_quarter", "--residual", "fisher,student",
            "--replicates", "3", "--seed", "2",
        ]
        wide, narrow = tmp_path / "wide.csv", tmp_path / "narrow.csv"
        assert _run(*common, "--q-grid", "2,6,11,21", "--output", wide) == 0
        assert _run(*common, "--q-grid", "2", "--output", narrow) == 0
        q2 = [line for line in _data_lines(wide) if line.split(",")[3] == "2"]
        assert q2 == _data_lines(narrow)

    GAMMA_FAILING = [
        "benchmark", "--family", "gamma", "--dispersion", "2.0", "--m", "40",
        "--sigma-eps", "0.7", "--estimator", "glm,sglm,half_sibling", "--replicates", "8",
        "--seed", "1",
    ]

    def test_generation_failure_beyond_a_cell_leaves_it_ok(self, tmp_path):
        # some replicates cannot be generated at q=16 because of series 8,
        # so the cells of q <= 8 run as if the grid stopped at 8
        wide, narrow = tmp_path / "wide.csv", tmp_path / "narrow.csv"
        assert _run(*self.GAMMA_FAILING, "--q-grid", "2,4,8,16", "--output", wide) == 0
        assert _run(*self.GAMMA_FAILING, "--q-grid", "2,4,8", "--output", narrow) == 0
        note = _per_cell_note(gamma(2.0), 40, 16, "glm", 8, 1, sigma_eps=0.7)
        assert note.startswith("GenerationError: series 8, ")
        for (q, _, _), outcome in _cell_outcomes(wide).items():
            assert outcome == (("failed", note) if q == "16" else ("ok", ""))
        assert [line for line in _data_lines(wide) if line.split(",")[3] != "16"] == (
            _data_lines(narrow)
        )

    def test_separated_series_beyond_a_cell_leaves_it_ok(self, tmp_path, monkeypatch):
        simulate = bench.generate

        def separated(config):
            truth = simulate(config)
            if config.q > 3:
                truth.y[:, 3] = truth.x > 0.0  # series 3 is separated by x
            return truth

        monkeypatch.setattr(bench, "generate", separated)
        out = tmp_path / "bm.csv"
        assert _run(
            "benchmark", "--family", "bernoulli", "--m", "60", "--q-grid", "2,3,6",
            "--estimator", "glm,sglm,half_sibling", "--replicates", "3", "--seed", "1",
            "--output", out,
        ) == 0
        note = _per_cell_note(bernoulli(), 60, 6, "sglm", 3, 1)
        assert note.startswith("ConvergenceError: series 3: ")
        for cell, outcome in _cell_outcomes(out).items():
            assert outcome == (("failed", note) if cell == ("6", "sglm", "fisher") else ("ok", ""))

    def test_job_count_does_not_change_bytes_with_failures(self, tmp_path):
        outputs = []
        for jobs in ("1", "2", "3"):
            out = tmp_path / f"bm{jobs}.csv"
            assert _run(
                *self.GAMMA_FAILING, "--q-grid", "2,8,16", "--jobs", jobs, "--output", out
            ) == 0
            outputs.append(out.read_bytes().replace(out.name.encode(), b""))
        assert outputs[0] == outputs[1] == outputs[2]
        assert b",failed," in outputs[0] and b",ok," in outputs[0]

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

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_nonpositive_jobs_error_before_any_cell(self, tmp_path, capsys, jobs):
        rc = _run(
            "benchmark", "--estimator", "glm", "--q-grid", "2", "--replicates", "1",
            "--jobs", jobs, "--output", tmp_path / "x.csv",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: ValueError: jobs must be >= 1\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--m", "1"], "need m >= 2 observations"),
            (["--sigma-eps", "-1"], "sigma_eps must be nonnegative"),
            (["--seed", "-1"], "seed must be >= 0"),
        ],
    )
    def test_bad_panel_settings_error_before_any_cell(self, tmp_path, capsys, flags, message):
        rc = _run("benchmark", "--q-grid", "2", "--replicates", "1", *flags,
                  "--output", tmp_path / "x.csv")
        assert rc == 1
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_study_checks_its_settings(self):
        with pytest.raises(ValueError, match="replicates must be >= 1"):
            Study(poisson(), m=30, replicates=0)
        with pytest.raises(ValueError, match="need m >= 2"):
            Study(poisson(), m=1)
        with pytest.raises(ValueError, match="sigma_eps must be nonnegative"):
            Study(poisson(), m=30, sigma_eps=-1.0)
        with pytest.raises(ValueError, match="unknown noise coefficient scheme"):
            Study(poisson(), m=30, noise_scheme="half")
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_study(Study(poisson(), m=30, replicates=1), [CellSpec(2, "glm")], jobs=0)

    def test_study_checks_its_noise_strategy(self):
        # the error each sglm cell would note, raised before any cell runs,
        # so a glm-only study does not run with it either
        with pytest.raises(ValueError, match="^unknown noise strategy 'ridge'; expected one of"):
            Study(poisson(), m=30, strategy="ridge")

    def test_step3_with_x_from_config(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"step3_with_x": True}))
        out = tmp_path / "bm.csv"
        assert _run(
            "benchmark", "--config", conf, "--m", "60", "--q-grid", "2",
            "--replicates", "1", "--output", out,
        ) == 0
        assert "# step3_with_x = True" in out.read_text()



FAMILY = ("family", "poisson", None, ("gaussian", "poisson", "bernoulli", "gamma"))
NOISE_SCHEME = ("noise_scheme", "uniform", None, ("uniform", "zero", "one"))
NOISE_STRATEGY = ("noise_strategy", "regression", None, ("regression", "mean_of_residuals"))
ESTIMATOR_CHOICE = ("estimator", "sglm", None, ("glm", "half_sibling", "three_quarter", "sglm"))
RESIDUAL_CHOICE = ("residual", "fisher", None, ("fisher", "raw", "student", "deviance"))

# flag -> (dest, default, type, choices) of every option of each command
PARSER_CONTRACT = {
    "simulate": {
        "--family": FAMILY, "--dispersion": ("dispersion", 1.0, float, None),
        "--output": ("output", None, None, None), "--config": ("config", None, None, None),
        "--seed": ("seed", 0, int, None), "--m": ("m", 120, int, None),
        "--q": ("q", 20, int, None), "--sigma-eps": ("sigma_eps", 0.1, float, None),
        "--noise-scheme": NOISE_SCHEME,
    },
    "fit": {
        "--family": FAMILY, "--dispersion": ("dispersion", 1.0, float, None),
        "--input": ("input", None, None, None), "--output": ("output", None, None, None),
        "--config": ("config", None, None, None), "--target": ("target", None, None, None),
    },
    "denoise": {
        "--family": FAMILY, "--dispersion": ("dispersion", 1.0, float, None),
        "--input": ("input", None, None, None), "--output": ("output", None, None, None),
        "--config": ("config", None, None, None), "--target": ("target", None, None, None),
        "--estimator": ESTIMATOR_CHOICE, "--residual": RESIDUAL_CHOICE,
        "--noise-strategy": NOISE_STRATEGY,
        "--step3-with-x": ("step3_with_x", False, None, None),
    },
    "residuals": {
        "--family": FAMILY, "--dispersion": ("dispersion", 1.0, float, None),
        "--input": ("input", None, None, None), "--output": ("output", None, None, None),
        "--config": ("config", None, None, None),
        "--proxy-column": ("proxy_column", None, None, None),
    },
    "benchmark": {
        "--family": FAMILY, "--dispersion": ("dispersion", 1.0, float, None),
        "--output": ("output", None, None, None), "--config": ("config", None, None, None),
        "--seed": ("seed", 0, int, None), "--m": ("m", 120, int, None),
        "--sigma-eps": ("sigma_eps", 0.1, float, None), "--noise-scheme": NOISE_SCHEME,
        "--q-grid": ("q_grid", "2,6,11,21", None, None),
        "--estimator": ("estimator", "glm,sglm", None, None),
        "--residual": ("residual", "fisher", None, None),
        "--noise-strategy": NOISE_STRATEGY,
        "--step3-with-x": ("step3_with_x", False, None, None),
        "--replicates": ("replicates", 100, int, None), "--jobs": ("jobs", 1, int, None),
    },
}


class TestParserContract:
    def test_commands(self):
        assert set(sibglm.cli.build_parser()[1]) == set(PARSER_CONTRACT)

    @pytest.mark.parametrize("command", sorted(PARSER_CONTRACT))
    def test_options_of_each_command(self, command):
        sp = sibglm.cli.build_parser()[1][command]
        options = {
            a.option_strings[0]: (a.dest, a.default, a.type, a.choices and tuple(a.choices))
            for a in sp._actions if a.dest != "help"
        }
        assert options == PARSER_CONTRACT[command]
        assert all(len(a.option_strings) == 1 for a in sp._actions if a.dest != "help")

    def test_the_parser_is_built_once(self):
        assert sibglm.cli.build_parser() is sibglm.cli.build_parser()

    def test_main_calls_the_command_found_by_name(self, tmp_path, monkeypatch):
        panel = _simulate(tmp_path, m=30, q=3)
        called = []
        monkeypatch.setattr(sibglm.cli, "cmd_fit", lambda args: called.append(args) or 7)
        assert _run("fit", "--input", panel, "--output", tmp_path / "fit.csv") == 7
        assert [args.command for args in called] == ["fit"]
        assert not (tmp_path / "fit.csv").exists()

    @pytest.mark.parametrize("command", ["denoise", "benchmark"])
    def test_step3_with_x_is_a_switch(self, command):
        sp = sibglm.cli.build_parser()[1][command]
        assert sp.parse_args(["--step3-with-x"]).step3_with_x is True
        assert sp.parse_args([]).step3_with_x is False

    BAD_CHOICES = [
        ("benchmark", "--noise-strategy", "ridge"),
        ("benchmark", "--noise-scheme", "half"),
        ("benchmark", "--family", "Poisson"),
        ("denoise", "--estimator", "bogus"),
        ("denoise", "--residual", "pearson"),
    ]

    @pytest.mark.parametrize("command,flag,value", BAD_CHOICES)
    def test_bad_config_choice_fails_as_the_flag_does(
        self, tmp_path, capsys, command, flag, value
    ):
        panel = _simulate(tmp_path, m=30, q=3)
        out = tmp_path / "out.csv"
        argv = {
            "benchmark": ["benchmark", "--m", "30", "--q-grid", "2", "--replicates", "1"],
            "denoise": ["denoise", "--input", panel],
        }[command] + ["--output", out]
        dest, default = PARSER_CONTRACT[command][flag][:2]
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({dest: value}))
        capsys.readouterr()
        failures = []
        for given in ([flag, value], ["--config", conf]):
            with pytest.raises(SystemExit) as excinfo:
                _run(*argv, *given)
            failures.append((excinfo.value.code, capsys.readouterr().err.splitlines()[-1]))
        assert failures[0] == failures[1]
        code, line = failures[0]
        assert code == 2
        assert f"{command}: error: argument {flag}: invalid choice: {value!r}" in line
        assert not out.exists()
        # the config's flags come first, so a valid flag after them still fails
        with pytest.raises(SystemExit) as excinfo:
            _run(*argv, "--config", conf, flag, default)
        assert (excinfo.value.code, capsys.readouterr().err.splitlines()[-1]) == failures[0]
        assert not out.exists()

    # (command, config, the flags that give the same error)
    BAD_VALUES = [
        ("simulate", {"m": 2.5}, ["--m", "2.5"]),
        ("simulate", {"m": True}, ["--m"]),
        ("benchmark", {"step3_with_x": "no"}, ["--step3-with-x=no"]),
    ]

    @pytest.mark.parametrize("command,config,flags", BAD_VALUES)
    def test_bad_config_value_fails_as_the_flag_does(
        self, tmp_path, capsys, command, config, flags
    ):
        out = tmp_path / "out.csv"
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        failures = []
        for given in (flags, ["--config", conf]):
            with pytest.raises(SystemExit) as excinfo:
                _run(command, "--output", out, *given)
            failures.append((excinfo.value.code, capsys.readouterr().err.splitlines()[-1]))
        assert failures[0] == failures[1]
        assert failures[0][0] == 2
        assert f"{command}: error: argument {flags[0].split('=')[0]}: " in failures[0][1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["conf.json"]

    # (command, config, the flags it stands for)
    CONFIG_FLAGS = [
        ("simulate", {"sigma_eps": 0, "seed": 0}, ["--sigma-eps", "0", "--seed", "0"]),
        (
            "benchmark", {"q_grid": [2, 3], "step3_with_x": True},
            ["--q-grid", "2,3", "--step3-with-x"],
        ),
        ("benchmark", {"q_grid": "2", "step3_with_x": False}, ["--q-grid", "2"]),
        ("fit", {"target": None}, []),
    ]

    @pytest.mark.parametrize("command,config,flags", CONFIG_FLAGS)
    def test_config_writes_what_its_flags_write(self, tmp_path, command, config, flags):
        panel = _simulate(tmp_path, m=30, q=3)
        extra = {
            "simulate": ["--m", "30", "--q", "3"],
            "benchmark": ["--m", "30", "--replicates", "2"],
            "fit": ["--input", panel],
        }[command]
        out = tmp_path / "out.csv"
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(config))
        written = []
        for given in (flags, ["--config", conf]):
            assert _run(command, *extra, *given, "--output", out) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]


class TestRequiredPaths:
    MISSING = [
        ("simulate", [], "simulate requires --output"),
        ("simulate", ["--output", ""], "simulate requires --output"),
        ("benchmark", [], "benchmark requires --output"),
        *(
            (command, flags, f"{command} requires --input and --output")
            for command in ("fit", "denoise", "residuals")
            for flags in ([], ["--input", "IN"], ["--output", "OUT"])
        ),
    ]

    @pytest.mark.parametrize(
        "command,flags,message", MISSING, ids=[f"{c}{''.join(f)}" for c, f, _ in MISSING]
    )
    def test_missing_path_is_one_error_line(self, tmp_path, capsys, command, flags, message):
        panel = _simulate(tmp_path, m=30, q=3)
        capsys.readouterr()
        argv = [{"IN": panel, "OUT": tmp_path / "out.csv"}.get(f, f) for f in flags]
        assert _run(command, *argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: ValueError: {message}\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == [panel.name]

    @pytest.mark.parametrize("command", sorted(PARSER_CONTRACT))
    def test_paths_from_the_config_satisfy_the_check(self, tmp_path, command):
        panel = _simulate(tmp_path, m=30, q=3)
        out = tmp_path / "out.csv"
        paths = {"output": str(out)}
        if "--input" in PARSER_CONTRACT[command]:
            paths["input"] = str(panel)
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(paths))
        extra = {
            "simulate": ["--m", "30", "--q", "3"],
            "benchmark": ["--m", "30", "--q-grid", "2", "--replicates", "1"],
        }
        assert _run(command, "--config", conf, *extra.get(command, [])) == 0
        assert f"# output = {out}" in out.read_text()

def read_csv_columns(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#") and l]
    names = lines[0].split(",")
    data = np.array([[float(c) for c in l.split(",")] for l in lines[1:]])
    return {n: data[:, j] for j, n in enumerate(names)}
