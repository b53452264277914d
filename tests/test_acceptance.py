"""Acceptance suite: one test per criterion, one reported line each.

Every tolerance is pinned here. Monte-Carlo studies run on fixed master
seeds with replicate child seeds shared across q values and estimators,
so trend and separation checks are paired. Heavy studies are cached and
shared between criteria that look at the same cells.
"""

import functools
import time

import numpy as np
import pytest

from sibglm.cli import main as cli_main
from sibglm.families import bernoulli, gamma, gaussian, poisson
from sibglm.glm import Design, design_with_intercept, evaluate_at, fit_glm, ols
from sibglm.inference import relative_efficiency, sandwich
from sibglm.residuals import DEVIANCE, FISHER, RAW, STUDENT, fisher_scaled
from sibglm.sibling import (
    MEAN_OF_RESIDUALS,
    estimate_noise,
    sglm_denoise,
    three_quarter_sibling,
)
from sibglm.simulate import SimConfig, generate, metrics, replicate_seed, to_panel

from oracles import residual_form_equivalence

Q_GRID = (2, 6, 11, 21)

REPORT_LINES: list[str] = []


def _report(line: str) -> None:
    # surfaced by the pytest_terminal_summary hook in conftest.py
    REPORT_LINES.append(line)
    print(line)


def _family(key: str):
    return {"poisson": poisson(), "gamma": gamma(2.0), "gaussian": gaussian(1.0)}[key]


def _sim_config(family_key, m, q, seed, scheme="uniform"):
    return SimConfig(
        family=_family(family_key),
        m=m,
        q=q,
        sigma_eps=0.1,
        seed=seed,
        noise_coefficient_scheme=scheme,
    )


@functools.cache
def _sglm_mse_samples(family_key, master_seed, m, q, kind, reps):
    """Per-replicate denoised-signal MSE for one (family, q, residual kind) cell."""
    family = _family(family_key)
    out = np.empty(reps)
    for r in range(reps):
        truth = generate(_sim_config(family_key, m, q, replicate_seed(master_seed, r)))
        result = sglm_denoise(to_panel(truth, family), residual_kind=kind)
        out[r] = metrics(truth, result).mse
    return out


@functools.cache
def _bias_study(master_seed=7, m=120, q=20, reps=200):
    """Paired per-replicate records for the plain fit and the denoised refit."""
    family = poisson()
    rows = {
        "glm_gap": np.empty(reps),
        "sglm_gap": np.empty(reps),
        "scale": np.empty(reps),
        "glm_coef_bias": np.empty(reps),
        "sglm_coef_bias": np.empty(reps),
    }
    for r in range(reps):
        truth = generate(_sim_config("poisson", m, q, replicate_seed(master_seed, r)))
        result = sglm_denoise(to_panel(truth, family))
        z_true = truth.signal[:, 0]
        rows["glm_gap"][r] = np.mean(result.base_fit.eta - z_true)
        rows["sglm_gap"][r] = np.mean(result.signal_hat - z_true)
        rows["scale"][r] = np.mean(np.abs(z_true))
        rows["glm_coef_bias"][r] = metrics(truth, result.base_fit).bias
        rows["sglm_coef_bias"][r] = metrics(truth, result).bias
    return rows


def test_criterion_01_bias_reduction():
    """Poisson m=120, q=20, 200 replicates: systematic relative bias of the
    fitted natural-parameter estimates > 8% for the plain GLM, < 4% after
    denoising, separation at least 2 standard errors, under 2 minutes."""
    t0 = time.perf_counter()
    rows = _bias_study()
    reps = len(rows["scale"])
    scale = rows["scale"].mean()
    glm_bias = rows["glm_gap"].mean() / scale
    sglm_bias = rows["sglm_gap"].mean() / scale
    glm_se = rows["glm_gap"].std(ddof=1) / np.sqrt(reps) / scale
    sglm_se = rows["sglm_gap"].std(ddof=1) / np.sqrt(reps) / scale
    diff = (rows["glm_gap"] - rows["sglm_gap"]) / scale
    sep_se = diff.std(ddof=1) / np.sqrt(reps)
    elapsed = time.perf_counter() - t0

    assert glm_bias > 0.08, f"plain GLM bias {glm_bias:.4f} not > 8%"
    assert abs(sglm_bias) < 0.04, f"denoised bias {sglm_bias:.4f} not < 4%"
    assert diff.mean() >= 2 * sep_se, "separation below 2 standard errors"
    assert elapsed < 120.0, f"runtime {elapsed:.0f}s exceeds 2 minutes"
    _report(
        f"PASS criterion 1: bias reduction, GLM {glm_bias:+.2%} (se {glm_se:.2%}) vs "
        f"SGLM {sglm_bias:+.2%} (se {sglm_se:.2%}), separation {diff.mean() / sep_se:.1f} se, "
        f"{elapsed:.1f}s  [coefficient-metric view: mean|rel err| GLM "
        f"{np.mean(np.abs(rows['glm_coef_bias'])):.2%}, SGLM "
        f"{np.mean(np.abs(rows['sglm_coef_bias'])):.2%}]"
    )


@pytest.mark.parametrize("family_key,master_seed", [("poisson", 7), ("gamma", 11)])
def test_criterion_02_mse_non_increasing_in_q(family_key, master_seed):
    """Denoised-signal MSE is non-increasing in q up to 2 paired standard errors."""
    reps = 200
    samples = {
        q: _sglm_mse_samples(family_key, master_seed, 120, q, FISHER, reps)
        for q in Q_GRID
    }
    means = [samples[q].mean() for q in Q_GRID]
    for a, b in zip(Q_GRID, Q_GRID[1:]):
        d = samples[b] - samples[a]
        slack = 2 * d.std(ddof=1) / np.sqrt(reps)
        assert d.mean() <= slack, (
            f"{family_key}: MSE rose from q={a} to q={b} by {d.mean():.5f} > {slack:.5f}"
        )
    _report(
        f"PASS criterion 2 ({family_key}): MSE over q={Q_GRID}: "
        + ", ".join(f"{v:.5f}" for v in means)
    )


def test_criterion_03_residual_kind_ranking():
    """At q=21 the information-scaled residual's MSE is at most every
    alternative's plus 2 paired standard errors."""
    reps = 200
    fisher = _sglm_mse_samples("poisson", 7, 120, 21, FISHER, reps)
    details = []
    for kind in (RAW, STUDENT, DEVIANCE):
        other = _sglm_mse_samples("poisson", 7, 120, 21, kind, reps)
        d = fisher - other
        slack = 2 * d.std(ddof=1) / np.sqrt(reps)
        assert d.mean() <= slack, f"fisher MSE exceeds {kind} by {d.mean():.5f} > {slack:.5f}"
        details.append(f"{kind} {other.mean():.5f}")
    _report(
        f"PASS criterion 3: fisher MSE {fisher.mean():.5f} <= " + ", ".join(details)
        + " (+2 se)"
    )


def test_criterion_04_three_quarter_comparison():
    """At q=21 the denoised fit beats the three-quarter estimator on
    log1p-transformed counts by at least 2 standard errors."""
    reps = 200
    sglm = _sglm_mse_samples("poisson", 7, 120, 21, FISHER, reps)
    tq = np.empty(reps)
    for r in range(reps):
        truth = generate(_sim_config("poisson", 120, 21, replicate_seed(7, r)))
        ty = np.log1p(truth.y)
        z_hat = three_quarter_sibling(truth.x, ty[:, 0], ty[:, 1:])
        tq[r] = np.mean((z_hat - truth.signal[:, 0]) ** 2)
    d = tq - sglm
    se = d.std(ddof=1) / np.sqrt(reps)
    assert d.mean() >= 2 * se, "separation below 2 standard errors"
    _report(
        f"PASS criterion 4: SGLM MSE {sglm.mean():.5f} < transformed-3QS {tq.mean():.5f} "
        f"({d.mean() / se:.0f} se separation)"
    )


def test_criterion_05_residual_form_identity():
    """Both estimator forms agree elementwise below 1e-8 on 100 random
    linear-Gaussian instances of size 200."""
    rng = np.random.default_rng(2025)
    worst = 0.0
    for i in range(100):
        y1 = rng.normal(size=200)
        y2 = rng.normal(size=(200, rng.integers(1, 4)))
        if i % 2:
            lhs, rhs = residual_form_equivalence(y1, y2, rng.normal(size=(200, 2)))
        else:
            lhs, rhs = residual_form_equivalence(y1, y2)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-8
    _report(f"PASS criterion 5: estimator-form identity, max gap {worst:.2e}")


def test_criterion_06_first_order_residual_mean():
    """The Monte-Carlo mean of the information-scaled residual at a fixed fit
    matches the natural-parameter gap within 2*gap^2 + 3 standard errors."""
    n = 100_000
    lines = []
    for family_key, eta0 in (("poisson", 0.3), ("gamma", -2.0)):
        family = _family(family_key)
        for delta in (0.05, 0.1, 0.2):
            fit = evaluate_at(design_with_intercept(None, m=n), family, [eta0])
            y = family.sample(np.full(n, eta0 + delta), np.random.default_rng(5))
            values = fisher_scaled(fit, y).values
            se = values.std(ddof=1) / np.sqrt(n)
            gap = abs(values.mean() - delta)
            band = 2 * delta**2 + 3 * se
            assert gap <= band, f"{family_key} delta={delta}: gap {gap:.5f} > band {band:.5f}"
            lines.append(f"{family_key}/{delta}: {gap:.4f}<={band:.4f}")
    _report("PASS criterion 6: first-order residual mean, " + "; ".join(lines))


def test_criterion_07_residual_averaging():
    """Averaging auxiliary residuals: correlation with the true noise rises
    with q and exceeds 0.9 at q=21 (all-ones loadings, m=2000)."""
    reps = 20
    means = []
    for q in Q_GRID:
        cs = np.empty(reps)
        for r in range(reps):
            truth = generate(
                _sim_config("gaussian", 2000, q, replicate_seed(13, r), scheme="one")
            )
            nhat = estimate_noise(
                to_panel(truth, gaussian(1.0)), strategy=MEAN_OF_RESIDUALS
            )
            cs[r] = np.corrcoef(nhat, truth.noise)[0, 1]
        means.append(cs.mean())
    assert all(b > a for a, b in zip(means, means[1:])), f"not increasing: {means}"
    assert means[-1] > 0.9, f"correlation at q=21 is {means[-1]:.3f}, not > 0.9"
    _report(
        "PASS criterion 7: averaged-residual noise correlation over q: "
        + ", ".join(f"{v:.3f}" for v in means)
    )


def test_criterion_08_sandwich_covariance():
    """Sandwich pieces: matches the classical Gaussian covariance within 10%
    (standardized entrywise), 95% intervals cover in [90%, 99%], and the
    efficiency ratio behaves with and without noise."""
    # entrywise agreement at m = 10^4
    rng = np.random.default_rng(3)
    m = 10_000
    x = np.column_stack([np.ones(m), rng.normal(size=m), rng.uniform(-1, 1, m)])
    design = Design(x, ("intercept", "a", "b"))
    y = x @ np.array([0.5, -1.0, 2.0]) + rng.normal(size=m)
    fit = fit_glm(design, y, gaussian(1.0))
    sw = sandwich(fit, design, y)
    classical = np.linalg.inv(x.T @ x / m)
    scale = np.sqrt(np.outer(np.diag(classical), np.diag(classical)))
    worst = float(np.max(np.abs(sw.c - classical) / scale))
    assert worst <= 0.10, f"sandwich off by {worst:.2%} from the OLS covariance"

    # interval coverage over 500 replicates at m = 2000
    hits = 0
    for r in range(500):
        rr = np.random.default_rng(replicate_seed(21, r))
        xx = np.column_stack([np.ones(2000), rr.uniform(-1, 1, 2000)])
        dd = Design(xx, ("intercept", "x"))
        yy = xx @ np.array([0.3, 1.2]) + rr.normal(size=2000)
        ff = fit_glm(dd, yy, gaussian(1.0))
        ss = sandwich(ff, dd, yy)
        hits += abs(ff.beta[1] - 1.2) <= 1.96 * ss.standard_errors[1]
    coverage = hits / 500
    assert 0.90 <= coverage <= 0.99, f"coverage {coverage:.3f} outside [0.90, 0.99]"

    # efficiency ratio: > 1 under strong shared noise, ~1 without noise
    ratios = {}
    for scheme in ("one", "zero"):
        vals = np.empty(200)
        for r in range(200):
            truth = generate(
                _sim_config("gaussian", 500, 21, replicate_seed(23, r), scheme=scheme)
            )
            panel = to_panel(truth, gaussian(1.0))
            result = sglm_denoise(panel)
            y1 = truth.y[:, 0]
            sw_direct = sandwich(result.base_fit, panel.design, y1)
            sw_refit = sandwich(result.refit, result.refit_design, y1)
            vals[r] = relative_efficiency(sw_direct, sw_refit, 1)
        ratios[scheme] = vals
    strong = ratios["one"]
    strong_se = strong.std(ddof=1) / np.sqrt(len(strong))
    assert strong.mean() - 1.0 >= 2 * strong_se, "no efficiency gain under strong noise"
    null = ratios["zero"]
    assert abs(null.mean() - 1.0) <= 0.05, f"null ratio {null.mean():.3f} far from 1"
    _report(
        f"PASS criterion 8: sandwich max err {worst:.2%}, coverage {coverage:.1%}, "
        f"efficiency ratio {strong.mean():.3f} (strong) / {null.mean():.3f} (no noise)"
    )


def test_criterion_09_glm_kernel_oracles():
    """Grid-search MLE agreement within 1e-3, Gaussian/OLS within 1e-8, and
    derivative identities within 1e-6."""
    families = {
        "poisson": (poisson(), [0.0, 3.0, 1.0, 2.0, 5.0, 1.0]),
        "gaussian": (gaussian(1.0), [0.3, -1.2, 0.4, 2.0, 1.1, -0.5]),
        "bernoulli": (bernoulli(), [0.0, 1.0, 1.0, 0.0, 1.0, 0.0]),
        "gamma": (gamma(2.0), [0.5, 1.4, 2.2, 0.9, 3.0, 1.7]),
    }
    worst_grid = 0.0
    for family, y in families.values():
        grid = np.arange(-10.0, 10.0001, 1e-4)
        if family.kind == "gamma":
            grid = grid[grid < -1e-4]
        ll = family.log_pdf(np.asarray(y)[:, None], grid[None, :]).sum(axis=0)
        oracle = grid[np.argmax(ll)]
        fit = fit_glm(design_with_intercept(None, m=len(y)), y, family)
        worst_grid = max(worst_grid, abs(fit.beta[0] - oracle))
    assert worst_grid <= 1e-3

    rng = np.random.default_rng(17)
    worst_ols = 0.0
    for _ in range(5):
        x = np.column_stack([np.ones(60), rng.normal(size=(60, 2))])
        yy = rng.normal(size=60)
        fit = fit_glm(Design(x, ("intercept", "a", "b")), yy, gaussian(1.0))
        worst_ols = max(worst_ols, float(np.max(np.abs(fit.beta - ols(x, yy)))))
    assert worst_ols <= 1e-8

    h = 1e-5
    worst_fd = 0.0
    for family, _ in families.values():
        theta = rng.uniform(-3, 3, 20)
        if family.kind == "gamma":
            theta = -np.abs(theta) - 0.5
        d1 = (family.log_partition(theta + h) - family.log_partition(theta - h)) / (2 * h)
        d2 = (family.mean(theta + h) - family.mean(theta - h)) / (2 * h)
        worst_fd = max(
            worst_fd,
            float(np.max(np.abs(d1 - family.mean(theta)))),
            float(np.max(np.abs(d2 - family.fisher_info(theta)))),
        )
        assert np.all(family.fisher_info(theta) > 0)
    assert worst_fd <= 1e-6
    _report(
        f"PASS criterion 9: grid gap {worst_grid:.1e}, OLS gap {worst_ols:.1e}, "
        f"derivative gap {worst_fd:.1e}"
    )


def test_criterion_10_cli_determinism(tmp_path):
    """Rerunning any command with the same seed reproduces output bytes."""
    panel = tmp_path / "panel.csv"
    checked = []
    for argv in (
        ["simulate", "--family", "poisson", "--m", "80", "--q", "5", "--seed", "7",
         "--output", str(panel)],
        ["denoise", "--family", "poisson", "--input", str(panel),
         "--output", str(tmp_path / "den.csv")],
        ["residuals", "--family", "poisson", "--input", str(panel),
         "--output", str(tmp_path / "resid.csv"), "--proxy-column", "truth_noise"],
        ["benchmark", "--family", "poisson", "--m", "60", "--q-grid", "2,3",
         "--estimator", "glm,sglm", "--replicates", "3", "--seed", "7",
         "--output", str(tmp_path / "bm.csv")],
    ):
        out = argv[argv.index("--output") + 1]
        assert cli_main(argv) == 0
        first = open(out, "rb").read()
        assert cli_main(argv) == 0
        assert open(out, "rb").read() == first, f"bytes changed for {argv[0]}"
        checked.append(argv[0])
    _report(f"PASS criterion 10: byte-identical reruns for {', '.join(checked)}")
