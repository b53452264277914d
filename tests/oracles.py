"""Reference computations the tests compare the package against."""

import numpy as np

from sibglm.cli import PanelData, PanelFormatError, _fmt
from sibglm.families import Family
from sibglm.glm import Design, GlmFit, fit_glm, ols
from sibglm.inference import SandwichCovariance
from sibglm.residuals import compute
from sibglm.simulate import (
    GAMMA_THETA_SHIFT, W_X_HIGH, W_X_LOW, GenerationError, SimConfig, SimTruth, _stream,
)
from sibglm.sibling import (
    Estimate,
    _base,
    _one,
    _proxies,
    _shared_components,
    half_sibling,
    three_quarter_sibling,
)


def _lstsq_fitted(mat, y):
    return mat @ np.linalg.lstsq(mat, y, rcond=None)[0]


def informative_columns_per_column(y2, base) -> np.ndarray:
    """The columns of ``y2`` that the sibling estimators keep, one column at
    a time: a column stays when its least-squares residual on ``base`` is
    above ``1e-9 * max(1, ||column||)``."""
    keep = []
    for j in range(y2.shape[1]):
        col = y2[:, j]
        resid = col - _lstsq_fitted(base, col)
        if np.linalg.norm(resid) > 1e-9 * max(1.0, float(np.linalg.norm(col))):
            keep.append(j)
    return y2[:, keep]


def residual_form_equivalence(y1, y2, x=None) -> tuple[np.ndarray, np.ndarray]:
    """Both algebraic forms of the sibling estimator, for self-testing.

    Returns the direct form (difference of conditional-expectation fits,
    from the package) and the residual form (target minus the regression
    of its centered residuals on the auxiliaries' centered residuals,
    from ``np.linalg.lstsq``). With matched intercept-augmented least
    squares the two agree to rounding error.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float).reshape(len(y1), -1)
    ones = np.ones(len(y1))[:, None]
    if x is None:
        lhs = half_sibling(y1, y2)
        base = ones
    else:
        lhs = three_quarter_sibling(x, y1, y2)
        x = np.asarray(x, dtype=float).reshape(len(y1), -1)
        base = np.column_stack([ones, x[:, np.ptp(x, axis=0) > 0.0]])

    y2 = informative_columns_per_column(y2, base)
    r1 = y1 - _lstsq_fitted(base, y1)
    r2 = y2 - _lstsq_fitted(base, y2)
    rhs = y1 - _lstsq_fitted(np.column_stack([ones, r2]), r1)
    return lhs, rhs


def lone_proxy(resid, target, x, include_x, strategy) -> np.ndarray:
    """The ``strategy``'s noise proxy from the residual matrix ``resid``: a
    stack of one through ``sibling._proxies``, raising its exception."""
    return _one(_proxies(resid[None], target, _base(x, include_x)[None], strategy))


def qr_noise_proxy(resid, target, x, include_x) -> np.ndarray:
    """The ``regression`` noise proxy as two QR least-squares fits.

    The target's residuals are fitted on the joint design ``[1, shared, x]``
    and on the baseline ``[1, x]`` (``x`` only when ``include_x``, without
    its constant columns), each by ``glm.ols``, and the proxy is the
    difference. The baseline is fitted first, so a design's row and rank
    errors come in that order. ``lone_proxy`` must agree to rounding, and
    raise the same errors.
    """
    m = resid.shape[0]
    r1 = resid[:, target]
    shared = _shared_components(np.delete(resid, target, axis=1)[None])[0]
    ones = np.ones((m, 1))
    xc = x[:, np.ptp(x, axis=0) > 0.0] if include_x else np.empty((m, 0))
    baseline = np.column_stack([ones, xc])
    baseline_fit = baseline @ ols(baseline, r1)
    joint = np.column_stack([ones, shared, xc])
    return joint @ ols(joint, r1) - baseline_fit


def residual_matrix(panel, fits, kind) -> np.ndarray:
    """Residuals of one kind, a column per series, from one fit per series,
    each column computed on its own."""
    cols = [compute(kind, fits[j], panel.responses[:, j], design=panel.design)
            for j in range(panel.q)]
    return np.column_stack(cols)


def lone_sglm(panel, resid, include_x, strategy) -> Estimate:
    """Steps 3 and 4 of ``sglm`` for one panel, with the target refitted
    alone by ``fit_glm`` on its design plus the proxy as a last column.

    ``sibling.estimates`` must give an ``sglm`` cell of q series on a panel
    whose first q series are ``panel``, with ``resid`` as their residuals,
    this estimate bit for bit, or the exception this raises, with the same
    type and message.
    """
    nhat = lone_proxy(resid, panel.target_index, panel.design.x, include_x, strategy)
    design = Design(
        np.column_stack([panel.design.x, nhat]), (*panel.design.column_names, "noise_hat")
    )
    refit = fit_glm(design, panel.responses[:, panel.target_index], panel.family)
    signal_hat = panel.design.x @ refit.beta[: panel.design.p]
    return Estimate(signal_hat, nhat, refit.mu, refit, design)


def evaluate_at(design: Design, family: Family, beta, y=None) -> GlmFit:
    """Evaluate a GLM at fixed coefficients without fitting.

    Useful for constructing reference fits with known parameters; the
    log-likelihood is computed when ``y`` is supplied.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (design.p,):
        raise ValueError("coefficient length does not match design columns")
    eta = design.x @ beta
    family.check_domain(eta)
    ll = float(np.sum(family.log_pdf(y, eta))) if y is not None else float("nan")
    return GlmFit(
        family=family,
        beta=beta,
        eta=eta,
        mu=family.mean(eta),
        fisher_diag=family.fisher_info(eta),
        loglik=ll,
        converged=True,
        iterations=0,
    )


def predict(fit: GlmFit, design: Design) -> tuple[np.ndarray, np.ndarray]:
    """Linear predictors and fitted means for a (new) design."""
    if design.p != fit.beta.shape[0]:
        raise ValueError(
            f"design has {design.p} columns, fit expects {fit.beta.shape[0]}"
        )
    eta = design.x @ fit.beta
    return eta, fit.family.mean(eta)


def log_likelihood(fit: GlmFit, y) -> float:
    """Total log-likelihood of ``y`` under the fitted natural parameters."""
    return float(np.sum(fit.family.log_pdf(y, fit.eta)))


def relative_efficiency(
    direct: SandwichCovariance, denoised: SandwichCovariance, coef_index: int
) -> float:
    """Variance ratio (direct / denoised) for one shared coefficient.

    Values above 1 mean the denoised refit estimates that coefficient
    more precisely than the direct fit.
    """
    for cov in (direct, denoised):
        if not 0 <= coef_index < cov.standard_errors.shape[0]:
            raise IndexError(f"coefficient index {coef_index} out of range")
    return float(
        (direct.standard_errors[coef_index] / denoised.standard_errors[coef_index]) ** 2
    )


def read_panel_per_cell(path: str) -> PanelData:
    """The panel reader as a two-pass, cell-by-cell loop.

    Reads every line, then converts each cell with ``float`` on its own;
    ``sibglm.cli.read_panel`` must return the same arrays, bit for bit,
    and raise the same messages.
    """
    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                if header is None and "=" in line:
                    key, _, value = line[1:].partition("=")
                    meta[key.strip()] = value.strip()
                continue
            cells = line.split(",")
            if header is None:
                header = [c.strip() for c in cells]
                continue
            if len(cells) != len(header):
                raise PanelFormatError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(cells)}"
                )
            rows.append(cells)
    if header is None:
        raise PanelFormatError(f"{path}: no header row found")
    if not rows:
        raise PanelFormatError(f"{path}: no data rows")

    data = np.empty((len(rows), len(header)))
    for i, cells in enumerate(rows):
        for j, cell in enumerate(cells):
            cell = cell.strip()
            if cell == "":
                raise PanelFormatError(
                    f"{path}: missing cell at row {i + 1}, column {header[j]!r}"
                )
            try:
                data[i, j] = float(cell)
            except ValueError:
                raise PanelFormatError(
                    f"{path}: bad number {cell!r} at row {i + 1}, column {header[j]!r}"
                ) from None

    x_idx = [j for j, n in enumerate(header) if n.startswith("x_")]
    y_idx = [j for j, n in enumerate(header) if n.startswith("y_")]
    t_idx = [j for j, n in enumerate(header) if n.startswith("truth_")]
    known = set(x_idx) | set(y_idx) | set(t_idx)
    unknown = [header[j] for j in range(len(header)) if j not in known]
    if unknown:
        raise PanelFormatError(
            f"{path}: unknown columns {unknown}; names must start with x_, y_, or truth_"
        )
    if not y_idx:
        raise PanelFormatError(f"{path}: need at least one y_ column")

    return PanelData(
        x_names=[header[j][2:] for j in x_idx],
        x=data[:, x_idx],
        y_names=[header[j][2:] for j in y_idx],
        y=data[:, y_idx],
        truth={header[j]: data[:, j] for j in t_idx},
        meta=meta,
    )


def write_table_per_row(path: str, meta: dict[str, str], columns: dict) -> None:
    """The table writer as a row-by-row loop that formats each cell with ``_fmt``."""
    names = list(columns)
    m = len(next(iter(columns.values())))
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(meta):
            fh.write(f"# {key} = {meta[key]}\n")
        fh.write(",".join(names) + "\n")
        for i in range(m):
            fh.write(",".join(_fmt(columns[n][i]) for n in names) + "\n")


def lone_correlation(a, b) -> float:
    """Pearson correlation of two vectors, with one-dimensional means and dot
    products, clipped to [-1, 1]; NaN when either is constant."""
    a = np.asarray(a, dtype=float) - np.mean(a)
    b = np.asarray(b, dtype=float) - np.mean(b)
    aa, bb = a @ a, b @ b
    if aa > 0.0 and bb > 0.0:
        return float(np.clip((a @ b) / np.sqrt(aa * bb), -1.0, 1.0))
    return float("nan")


def generate_series_by_series(config: SimConfig) -> SimTruth:
    """``simulate.generate`` as a loop that draws, checks and samples one
    series at a time, with the checked ``Family.sample``."""
    m, q, family = config.m, config.q, config.family
    x = _stream(config.seed, 0).uniform(-1.0, 1.0, m)
    noise = _stream(config.seed, 1).uniform(-1.0, 1.0, m)
    shift = GAMMA_THETA_SHIFT if family.kind == "gamma" else 0.0
    x_coefs, noise_coefs = np.empty(q), np.empty(q)
    eps, theta, y = np.empty((m, q)), np.empty((m, q)), np.empty((m, q))

    def first(n: int) -> SimTruth:
        return SimTruth(
            x, noise, x_coefs[:n], noise_coefs[:n], eps[:, :n],
            x_coefs[None, :n] * x[:, None], theta[:, :n], y[:, :n], shift,
        )

    for j in range(q):
        rng = _stream(config.seed, 2, j)
        x_coefs[j] = rng.uniform(W_X_LOW, W_X_HIGH)
        w_n = rng.uniform(-1.0, 1.0)
        noise_coefs[j] = {"zero": 0.0, "one": 1.0}.get(config.noise_coefficient_scheme, w_n)
        eps[:, j] = rng.normal(0.0, config.sigma_eps, m)
        theta[:, j] = x_coefs[j] * x + noise_coefs[j] * noise + eps[:, j] + shift
        if not family.in_domain(theta[:, j]):
            bad = int(np.argmax(~(theta[:, j] < 0.0)))
            raise GenerationError(
                f"series {j}, row {bad}: natural parameter "
                f"{theta[bad, j]:.4f} outside the {family.kind} domain",
                first(j),
            )
        y[:, j] = family.sample(theta[:, j], rng)
    return first(q)
