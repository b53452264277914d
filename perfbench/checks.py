"""Output checks for the benchmark workloads.

Every check recomputes what it needs apart from the program (the
exponential-family functions, a Newton-Raphson fit, leverages, the
sandwich) or tests a property the method must have. None compares
against a stored copy of earlier output. A failed check raises
``CheckError`` naming the file and what is wrong.
"""

from __future__ import annotations

import csv

import numpy as np

POISSON = "poisson"
GAMMA = "gamma"

# Score equations must hold to this per row: ten times the solver's
# default tolerance of 1e-8 per row.
SCORE_TOL_PER_ROW = 1e-7
REL_TOL = 1e-8


class CheckError(AssertionError):
    """An output file or result fails a correctness check."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- exponential-family functions, written apart from sibglm.families --


def mean_of(family: str, k: float, eta: np.ndarray) -> np.ndarray:
    """A'(eta) for the canonical link."""
    if family == POISSON:
        return np.exp(eta)
    if family == GAMMA:
        return -k / eta
    raise ValueError(f"no checks for family {family!r}")


def variance_of(family: str, k: float, mu: np.ndarray) -> np.ndarray:
    """A''(eta) expressed through the mean: the response variance."""
    if family == POISSON:
        return mu
    if family == GAMMA:
        return mu**2 / k
    raise ValueError(f"no checks for family {family!r}")


def unit_deviance(family: str, k: float, y: np.ndarray, mu: np.ndarray) -> np.ndarray:
    if family == POISSON:
        with np.errstate(divide="ignore", invalid="ignore"):
            ylog = np.where(y > 0, y * np.log(y / mu), 0.0)
        return 2.0 * (ylog - (y - mu))
    if family == GAMMA:
        return 2.0 * k * ((y - mu) / mu - np.log(y / mu))
    raise ValueError(f"no checks for family {family!r}")


def _loglik(family: str, k: float, x, y, beta) -> float:
    eta = x @ beta
    if family == POISSON:
        return float(np.sum(y * eta - np.exp(eta)))
    return float(np.sum(y * eta + k * np.log(-eta)))


def newton_fit(x: np.ndarray, y: np.ndarray, family: str, k: float) -> np.ndarray:
    """Maximum-likelihood coefficients by damped Newton-Raphson.

    Starts at the intercept-only solution (column 0 is the intercept) and
    halves steps that leave the domain or lower the log-likelihood.
    """
    beta = np.zeros(x.shape[1])
    beta[0] = np.log(np.mean(y)) if family == POISSON else -k / np.mean(y)
    ll = _loglik(family, k, x, y, beta)
    for _ in range(200):
        mu = mean_of(family, k, x @ beta)
        w = variance_of(family, k, mu)
        step = np.linalg.solve((x * w[:, None]).T @ x, x.T @ (y - mu))
        t = 1.0
        while True:
            cand = beta + t * step
            eta = x @ cand
            if family == POISSON or np.all(eta < 0):
                ll_c = _loglik(family, k, x, y, cand)
                if ll_c >= ll - 1e-12 * abs(ll):
                    break
            t *= 0.5
            _require(t > 1e-12, "reference Newton fit stalled")
        beta, ll = cand, ll_c
        if np.max(np.abs(t * step)) <= 1e-13 * (1.0 + np.max(np.abs(beta))):
            return beta
    raise CheckError("reference Newton fit did not converge")


def _check_score(x, y, mu, what: str) -> None:
    score = np.max(np.abs(x.T @ (y - mu)))
    tol = SCORE_TOL_PER_ROW * x.shape[0]
    _require(score <= tol, f"{what}: canonical score {score:.3e} exceeds {tol:.1e}")


def _close(a, b, what: str, rtol: float = REL_TOL) -> None:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    err = np.abs(a - b)
    bad = ~(err <= rtol * (1.0 + np.abs(b)))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CheckError(
            f"{what}: {a.flat[i]!r} != {b.flat[i]!r} at index {i} "
            f"({int(bad.sum())} entries differ)"
        )


# -- reading output files --------------------------------------------


def read_table(path: str) -> tuple[dict[str, str], dict[str, np.ndarray]]:
    """Header metadata and numeric columns of a CSV the CLI wrote."""
    meta: dict[str, str] = {}
    skip = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            skip += 1
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
                continue
            names = line.rstrip("\n").split(",")
            break
    data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    _require(data.shape[1] == len(names), f"{path}: ragged table")
    return meta, {name: data[:, j] for j, name in enumerate(names)}


def read_rows(path: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Header metadata and rows of a CSV with text columns."""
    meta: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif line:
            body.append(line)
    return meta, list(csv.DictReader(body))


def _panel(path: str):
    meta, cols = read_table(path)
    x = np.column_stack([np.ones(len(cols["x_x"])), cols["x_x"]])
    return meta, cols, x


# -- CLI command outputs -------------------------------------------------


def check_simulate(path: str, family: str, m: int, q: int) -> None:
    """m rows, q response columns in the family support, consistent truth."""
    meta, cols = read_table(path)
    ys = [n for n in cols if n.startswith("y_")]
    _require(len(ys) == q, f"{path}: {len(ys)} y_ columns, expected {q}")
    shift = float(meta["truth_theta_shift"])
    for name in ys:
        y = cols[name]
        _require(len(y) == m, f"{path}: {len(y)} rows, expected {m}")
        _require(np.all(np.isfinite(y)), f"{path}: {name} has non-finite values")
        if family == POISSON:
            _require(np.all(y >= 0) and np.all(y == np.floor(y)),
                     f"{path}: {name} is not a non-negative integer column")
        else:
            _require(np.all(y > 0), f"{path}: {name} is not strictly positive")
        s = name[2:]
        z = float(meta[f"truth_w_x_{s}"]) * cols["x_x"] + shift
        _close(cols[f"truth_z_{s}"], z, f"{path}: truth_z_{s}")


def check_fit(path: str, panel_path: str, family: str, k: float) -> None:
    """The estimates solve the score equation; standard errors are the sandwich."""
    meta, rows = read_rows(path)
    _, cols, x = _panel(panel_path)
    _require([r["coefficient"] for r in rows] == ["intercept", "x"],
             f"{path}: unexpected coefficient rows")
    beta = np.array([float(r["estimate"]) for r in rows])
    y = cols[f"y_{meta['target']}"]
    m = len(y)
    mu = mean_of(family, k, x @ beta)
    _check_score(x, y, mu, path)
    a = (x * variance_of(family, k, mu)[:, None]).T @ x / m
    b = (x * ((y - mu) ** 2)[:, None]).T @ x / m
    a_inv = np.linalg.inv(a)
    se = np.sqrt(np.diag(a_inv @ b @ a_inv) / m)
    _close([float(r["stderr"]) for r in rows], se, f"{path}: stderr", rtol=1e-6)


def check_denoise(path: str, panel_path: str, family: str, k: float) -> None:
    """Refit, denoised signal and noise proxy agree with one another."""
    meta, out = read_table(path)
    _, cols, x = _panel(panel_path)
    nhat, signal, mu_hat = out["noise_hat"], out["signal_hat"], out["mu_hat"]
    b0, b1, bn = (float(meta[f"coef_{n}"]) for n in ("intercept", "x", "noise_hat"))
    _close(signal, b0 + b1 * cols["x_x"], f"{path}: signal_hat")
    _close(mu_hat, mean_of(family, k, signal + bn * nhat), f"{path}: mu_hat")
    _require(abs(np.mean(nhat)) <= 1e-10 * (1.0 + np.max(np.abs(nhat))),
             f"{path}: noise_hat mean {np.mean(nhat):.3e} is not zero")
    y = cols[f"y_{meta['target']}"]
    _check_score(np.column_stack([x, nhat]), y, mu_hat, f"{path}: refit")


def leverages(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Diagonal of W^1/2 X (X'WX)^-1 X' W^1/2."""
    inv = np.linalg.inv((x * w[:, None]).T @ x)
    return w * np.einsum("ij,jk,ik->i", x, inv, x)


def check_residuals(path: str, panel_path: str, family: str, k: float,
                    proxy: str = "truth_noise") -> None:
    """Each residual kind follows from the raw residual as defined."""
    meta, out = read_table(path)
    _, cols, x = _panel(panel_path)
    series = [n[2:] for n in cols if n.startswith("y_")]
    _require(len(out) == 4 * len(series), f"{path}: {len(out)} columns for {len(series)} series")
    for s in series:
        y = cols[f"y_{s}"]
        raw = out[f"raw_{s}"]
        mu = y - raw
        _check_score(x, y, mu, f"{path}: raw_{s}")
        v = variance_of(family, k, mu)
        _close(out[f"fisher_{s}"] * v, raw, f"{path}: fisher_{s} * A''")
        h = leverages(x, v)
        _close(out[f"student_{s}"], raw / np.sqrt(v * (1.0 - h)), f"{path}: student_{s}", rtol=1e-6)
        dev = out[f"deviance_{s}"]
        d = unit_deviance(family, k, y, mu)
        _close(dev**2, d, f"{path}: deviance_{s} squared", rtol=1e-6)
        nz = dev != 0
        _require(np.all(np.sign(dev[nz]) == np.sign(raw[nz])),
                 f"{path}: deviance_{s} sign differs from raw_{s}")
        for kind in ("fisher", "raw", "student", "deviance"):
            corr = np.corrcoef(out[f"{kind}_{s}"], cols[proxy])[0, 1]
            _close(float(meta[f"corr_{kind}_{s}"]), corr, f"{path}: corr_{kind}_{s}", rtol=1e-9)


# -- studies ---------------------------------------------------------------


def check_study(path: str, family, m: int, sigma_eps: float, q_grid, replicates: int,
                seed: int) -> None:
    """Every cell ok; glm rows paired across q and equal to a Newton-Raphson fit."""
    from sibglm.simulate import SimConfig, generate, replicate_seed

    _, rows = read_rows(path)
    _require(rows, f"{path}: no rows")
    for r in rows:
        _require(r["status"] == "ok", f"{path}: cell q={r['q']} {r['estimator']} "
                                      f"{r['residual']} failed: {r['note']}")
    glm = [r for r in rows if r["estimator"] == "glm"]
    by_metric: dict[str, set] = {}
    for r in glm:
        by_metric.setdefault(r["metric"], set()).add((r["mean"], r["stderr"]))
    _require(len({r["q"] for r in glm}) == len(q_grid), f"{path}: glm rows missing for some q")
    for metric, values in by_metric.items():
        _require(len(values) == 1, f"{path}: glm {metric} differs across q: {sorted(values)}")

    kind, k = family.kind, family.dispersion
    mse = np.empty(replicates)
    bias = np.empty(replicates)
    for rep in range(replicates):
        truth = generate(SimConfig(family=family, m=m, q=min(q_grid), sigma_eps=sigma_eps,
                                   seed=replicate_seed(seed, rep)))
        x = np.column_stack([np.ones(m), truth.x])
        beta = newton_fit(x, truth.y[:, 0], kind, k)
        w_true = truth.x_coefs[0]
        mse[rep] = np.mean((x @ beta - truth.signal[:, 0] - truth.theta_shift) ** 2)
        bias[rep] = (beta[1] - w_true) / w_true
    for metric, values in (("mse", mse), ("bias", bias)):
        (mean, _), = by_metric[metric]
        _close(float(mean), np.mean(values), f"{path}: glm {metric} against Newton-Raphson",
               rtol=1e-6)


def sglm_properties(result, x: np.ndarray, y: np.ndarray, family: str, k: float) -> None:
    """The refit solves the canonical score equation on [X, noise_hat];
    noise_hat has mean zero; signal_hat is X times the leading coefficients."""
    nhat = result.noise_hat
    xa = np.column_stack([x, nhat])
    _check_score(xa, y, mean_of(family, k, xa @ result.refit.beta), "sglm refit")
    _require(abs(np.mean(nhat)) <= 1e-10 * (1.0 + np.max(np.abs(nhat))),
             f"sglm noise_hat mean {np.mean(nhat):.3e} is not zero")
    _close(result.signal_hat, x @ result.refit.beta[: x.shape[1]], "sglm signal_hat",
           rtol=1e-12)


def check_sglm(family, m: int, sigma_eps: float, q_grid, kinds, seed: int,
               panels: int = 2) -> None:
    """SGLM properties on the first few replicate panels of every q."""
    from sibglm.sibling import sglm_denoise
    from sibglm.simulate import SimConfig, generate, replicate_seed, to_panel

    for q in q_grid:
        for rep in range(panels):
            truth = generate(SimConfig(family=family, m=m, q=q, sigma_eps=sigma_eps,
                                       seed=replicate_seed(seed, rep)))
            x = np.column_stack([np.ones(m), truth.x])
            for kind in kinds:
                out = sglm_denoise(to_panel(truth, family), residual_kind=kind)
                sglm_properties(out, x, truth.y[:, 0], family.kind, family.dispersion)
