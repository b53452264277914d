"""Each output check accepts the program's output and rejects a corrupted copy.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from sibglm.cli import main  # noqa: E402
from sibglm.families import family_from_name  # noqa: E402
from sibglm.sibling import sglm_denoise  # noqa: E402
from sibglm.simulate import SimConfig, generate, replicate_seed, to_panel  # noqa: E402

M, Q = 80, 4
FAMILIES = {"poisson": 1.0, "gamma": 2.0}
STUDY = dict(m=60, sigma_eps=0.1, q_grid=(2, 3), replicates=3, seed=5)


def _run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0


def corrupt(path, column, row, edit) -> None:
    """Rewrite one cell of a CLI CSV: ``edit`` maps the old text to the new."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    j = lines[header].split(",").index(column)
    cells = lines[header + 1 + row].split(",")
    cells[j] = edit(cells[j])
    lines[header + 1 + row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def scale(factor):
    return lambda text: repr(float(text) * factor)


@pytest.fixture(params=sorted(FAMILIES))
def outputs(request, tmp_path):
    family, k = request.param, FAMILIES[request.param]
    fam = ["--family", family, "--dispersion", k]
    p = {n: str(tmp_path / f"{n}.csv") for n in ("panel", "fit", "denoised", "residuals")}
    _run("simulate", *fam, "--m", M, "--q", Q, "--seed", 3, "--output", p["panel"])
    _run("fit", *fam, "--input", p["panel"], "--output", p["fit"])
    _run("denoise", *fam, "--input", p["panel"], "--output", p["denoised"])
    _run("residuals", *fam, "--input", p["panel"], "--proxy-column", "truth_noise",
         "--output", p["residuals"])
    return family, k, p


def test_command_outputs_pass(outputs):
    family, k, p = outputs
    checks.check_simulate(p["panel"], family, M, Q)
    checks.check_fit(p["fit"], p["panel"], family, k)
    checks.check_denoise(p["denoised"], p["panel"], family, k)
    checks.check_residuals(p["residuals"], p["panel"], family, k)


def test_simulate_rejects_corruption(outputs):
    family, k, p = outputs
    corrupt(p["panel"], "y_s01", 7, lambda t: "2.5" if family == "poisson" else "-1")
    with pytest.raises(checks.CheckError):
        checks.check_simulate(p["panel"], family, M, Q)


def test_simulate_rejects_inconsistent_truth(outputs):
    family, k, p = outputs
    corrupt(p["panel"], "truth_z_s02", 3, scale(1.001))
    with pytest.raises(checks.CheckError, match="truth_z_s02"):
        checks.check_simulate(p["panel"], family, M, Q)


def test_fit_rejects_corruption(outputs):
    family, k, p = outputs
    corrupt(p["fit"], "estimate", 1, scale(1.001))
    with pytest.raises(checks.CheckError, match="score"):
        checks.check_fit(p["fit"], p["panel"], family, k)


def test_fit_rejects_wrong_stderr(outputs):
    family, k, p = outputs
    corrupt(p["fit"], "stderr", 0, scale(1.01))
    with pytest.raises(checks.CheckError, match="stderr"):
        checks.check_fit(p["fit"], p["panel"], family, k)


@pytest.mark.parametrize("column", ["noise_hat", "signal_hat", "mu_hat"])
def test_denoise_rejects_corruption(outputs, column):
    family, k, p = outputs
    corrupt(p["denoised"], column, 11, scale(1.001))
    with pytest.raises(checks.CheckError):
        checks.check_denoise(p["denoised"], p["panel"], family, k)


@pytest.mark.parametrize("column", ["raw_s00", "fisher_s01", "student_s02", "deviance_s03"])
def test_residuals_rejects_corruption(outputs, column):
    family, k, p = outputs
    corrupt(p["residuals"], column, 5, scale(1.001))
    with pytest.raises(checks.CheckError):
        checks.check_residuals(p["residuals"], p["panel"], family, k)


@pytest.fixture(params=sorted(FAMILIES))
def study(request, tmp_path):
    family = family_from_name(request.param, FAMILIES[request.param])
    path = str(tmp_path / "study.csv")
    _run("benchmark", "--family", family.kind, "--dispersion", family.dispersion,
         "--m", STUDY["m"], "--q-grid", "2,3", "--estimator", "glm,sglm",
         "--replicates", STUDY["replicates"], "--seed", STUDY["seed"], "--output", path)
    return family, path


def _check_study(family, path):
    checks.check_study(path, family, **STUDY)


def _row_of(path, estimator, q, metric):
    _, rows = checks.read_rows(path)
    return next(i for i, r in enumerate(rows)
                if (r["estimator"], r["q"], r["metric"]) == (estimator, str(q), metric))


def test_study_passes(study):
    _check_study(*study)


def test_study_rejects_failed_cell(study):
    family, path = study
    corrupt(path, "status", _row_of(path, "sglm", 3, "mse"), lambda t: "failed")
    with pytest.raises(checks.CheckError, match="failed"):
        _check_study(family, path)


def test_study_rejects_unpaired_glm_rows(study):
    family, path = study
    corrupt(path, "mean", _row_of(path, "glm", 3, "bias"), scale(1.001))
    with pytest.raises(checks.CheckError, match="differs across q"):
        _check_study(family, path)


def test_study_rejects_glm_off_newton(study):
    family, path = study
    for q in STUDY["q_grid"]:
        corrupt(path, "mean", _row_of(path, "glm", q, "mse"), scale(1.001))
    with pytest.raises(checks.CheckError, match="Newton"):
        _check_study(family, path)


@pytest.mark.parametrize("family_name", sorted(FAMILIES))
def test_sglm_properties(family_name):
    family = family_from_name(family_name, FAMILIES[family_name])
    truth = generate(SimConfig(family=family, m=M, q=Q, seed=replicate_seed(5, 0)))
    out = sglm_denoise(to_panel(truth, family))
    x = np.column_stack([np.ones(M), truth.x])
    y = truth.y[:, 0]
    checks.sglm_properties(out, x, y, family.kind, family.dispersion)

    bad = [
        dataclasses.replace(out, signal_hat=out.signal_hat * 1.001),
        dataclasses.replace(out, noise_hat=out.noise_hat + 0.01),
        dataclasses.replace(out, refit=dataclasses.replace(out.refit, beta=out.refit.beta * 1.001)),
    ]
    for result in bad:
        with pytest.raises(checks.CheckError):
            checks.sglm_properties(result, x, y, family.kind, family.dispersion)


def test_newton_fit_matches_closed_form():
    # An intercept-only Poisson fit is the log of the sample mean.
    y = np.array([0.0, 1, 2, 3, 5, 8])
    beta = checks.newton_fit(np.ones((6, 1)), y, "poisson", 1.0)
    assert abs(beta[0] - np.log(y.mean())) < 1e-12
