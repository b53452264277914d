"""Canonical-link GLM estimation by iteratively reweighted least squares.

The fitting loop is a damped Newton iteration over all response series
that share one design: each step solves every series' weighted normal
equations ``X'WX b = X'Wz`` and is step-halved until the log-likelihood
is non-decreasing and the natural parameters stay inside the family
domain. At convergence the canonical score equation ``X'(y - mu) = 0``
holds to tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .families import GAMMA, DomainError, Family

RANK_RTOL = 1e-10

# IRLS stopping rules: iteration budget, score tolerance per row,
# relative log-likelihood change, and step halvings per iteration
MAX_ITER = 100
TOL_SCORE = 1e-8
TOL_LOGLIK = 1e-10
MAX_HALVINGS = 30


class SingularDesignError(ValueError):
    """The design matrix is rank deficient at the working tolerance."""


class ConvergenceError(RuntimeError):
    """IRLS failed to converge; ``last_fit`` holds the final iterate."""

    def __init__(self, message, last_fit=None):
        super().__init__(message)
        self.last_fit = last_fit


@dataclass(frozen=True)
class Design:
    """Covariate matrix with named columns.

    Requires finite entries and unique column names. Fitting additionally
    requires at least as many rows as columns (checked in ``fit_glm``;
    prediction designs may have fewer rows).
    """

    x: np.ndarray
    column_names: tuple[str, ...]

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if x.ndim != 2:
            raise ValueError("design matrix must be two-dimensional")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "column_names", tuple(self.column_names))
        m, p = x.shape
        if p < 1 or m < 1:
            raise ValueError(f"need at least one row and column, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("design matrix contains non-finite entries")
        if len(self.column_names) != p:
            raise ValueError("column_names length must match column count")
        if len(set(self.column_names)) != p:
            raise ValueError("column names must be unique")

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


def design_with_intercept(x=None, names: Sequence[str] | None = None, m: int | None = None) -> Design:
    """Build a Design with a leading intercept column.

    ``x`` may be None (intercept only, requires ``m``), a vector, or a
    matrix of covariate columns.
    """
    if x is None:
        if m is None:
            raise ValueError("m is required for an intercept-only design")
        mat = np.ones((m, 1))
        return Design(mat, ("intercept",))
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if names is None:
        names = [f"x{i + 1}" for i in range(x.shape[1])]
    mat = np.column_stack([np.ones(x.shape[0]), x])
    return Design(mat, ("intercept", *names))


@dataclass(frozen=True)
class GlmFit:
    """A fitted canonical GLM.

    ``eta`` is the linear predictor, ``mu = A'(eta)`` the fitted means,
    and ``fisher_diag = A''(eta)`` the per-observation information.
    """

    family: Family
    beta: np.ndarray
    eta: np.ndarray
    mu: np.ndarray
    fisher_diag: np.ndarray
    loglik: float
    converged: bool
    iterations: int


def _check_full_rank(x: np.ndarray) -> None:
    if x.shape[0] < x.shape[1]:
        raise SingularDesignError(
            f"need at least as many rows as columns, got {x.shape}"
        )
    r = scipy.linalg.qr(x, mode="r", pivoting=True)[0]
    d = np.abs(np.diag(r))
    if d.size == 0 or d.min() <= RANK_RTOL * d.max():
        raise SingularDesignError("design matrix is rank deficient")


def _wls_solve(x: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve the weighted least-squares problem min ||sqrt(w)(z - x b)||."""
    sw = np.sqrt(w)
    q, r = np.linalg.qr(sw[:, None] * x)
    d = np.abs(np.diag(r))
    if d.min() <= RANK_RTOL * max(d.max(), 1e-300):
        raise SingularDesignError("weighted design is numerically singular")
    return scipy.linalg.solve_triangular(r, q.T @ (sw * z))


def _initial_beta(x: np.ndarray, ys: np.ndarray, family: Family) -> np.ndarray:
    """Feasible starting coefficients, one row per response row of ``ys``.

    Zero works for families whose natural-parameter domain is the whole
    real line. The Gamma domain excludes zero, so its start matches the
    intercept-only maximum likelihood solution when a constant column is
    available, falling back to a least-squares fit on the link scale.
    """
    m, p = x.shape
    k = ys.shape[0]
    beta = np.zeros((k, p))
    if family.kind != GAMMA:
        return beta
    spans = np.ptp(x, axis=0)
    for c in range(p):
        if spans[c] == 0.0 and x[0, c] != 0.0:
            beta[:, c] = family.theta_from_mean(ys.mean(axis=1)) / x[0, c]
            return beta
    for j in range(k):
        z = family.theta_from_mean(np.maximum(ys[j], 1e-8))
        beta[j] = _wls_solve(x, z, np.ones(m))
        if not family.in_domain(x @ beta[j]):
            error = ConvergenceError("no feasible gamma starting point; add an intercept column")
            raise _for_series(error, j, k)
    return beta


def _for_series(exc: Exception, j: int, k: int) -> Exception:
    """Name series ``j`` in the message when there are several, keeping the
    exception's type and attributes (such as ``ConvergenceError.last_fit``)."""
    if k > 1:
        exc.args = (f"series {j}: {exc}", *exc.args[1:])
    return exc


def _cholesky_diagonals(a: np.ndarray) -> np.ndarray:
    """Diagonals of the Cholesky factors of a stack of symmetric matrices.

    For ``a = X'WX`` the diagonal is that of the QR factor ``R`` of
    ``sqrt(W) X`` up to sign. A matrix that is not numerically positive
    definite gets a zero diagonal.
    """
    try:
        return np.diagonal(np.linalg.cholesky(a), axis1=1, axis2=2)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.zeros((1, a.shape[1]))
        return np.concatenate([_cholesky_diagonals(a[i : i + 1]) for i in range(len(a))])


def _newton_system(x, xx, family, y, eta):
    """Score ``X'(y - mu)``, ``X'WX`` and ``X'Wz`` of one IRLS step per row.

    ``y`` and ``eta`` hold one series per row; ``xx`` holds the per-row
    outer products of the design, so ``w @ xx`` forms every ``X'WX``.
    """
    p = x.shape[1]
    w = family.fisher_info(eta)
    resid = y - family.mean(eta)
    # rows with underflowed information carry no weight; avoid 0/0 in z;
    # in place, since each array is as large as the panel
    wz = resid / np.maximum(w, 1e-300)
    wz += eta
    wz *= w
    return resid @ x, (w @ xx).reshape(-1, p, p), wz @ x


def _row_loglik(family, y, eta):
    """Log-likelihood of each row; NaN, which no test accepts, outside the domain."""
    if family.in_domain(eta):
        return family.log_pdf(y, eta).sum(axis=1)
    ok = np.array([family.in_domain(row) for row in eta])
    ll = np.full(len(eta), np.nan)
    ll[ok] = family.log_pdf(y[ok], eta[ok]).sum(axis=1)
    return ll


def _keep_rows(mask, *arrays):
    """The rows of each array where ``mask`` holds (the arrays when it holds for all)."""
    return arrays if mask.all() else tuple(a[mask] for a in arrays)


def _irls(x, y, family):
    """Damped Newton iterations for every row of ``y`` (one series each) at once.

    Each row step-halves and stops on its own, exactly as it would alone.
    Returns the final coefficients and log-likelihoods, the iteration
    counts, the convergence flags and the errors of the rows that failed.
    """
    m, p = x.shape
    xx = (x[:, :, None] * x[:, None, :]).reshape(m, p * p)
    score_tol = m * TOL_SCORE
    k = y.shape[0]
    beta = _initial_beta(x, y, family)
    e = beta @ x.T
    ll = _row_loglik(family, y, e)
    iterations = np.full(k, MAX_ITER)
    converged = np.zeros(k, dtype=bool)
    errors: dict[int, Exception] = {}

    # the series still iterating, and their state (copies, because beta and
    # ll are updated in place while the previous iterate is still needed)
    live, b, lik = np.arange(k), beta.copy(), ll.copy()
    for it in range(1, MAX_ITER + 1):
        score, xwx, rhs = _newton_system(x, xx, family, y, e)
        done = np.max(np.abs(score), axis=1) <= score_tol
        converged[live[done]] = True
        iterations[live[done]] = it - 1
        d = _cholesky_diagonals(xwx)
        singular = ~done & (d.min(axis=1) <= RANK_RTOL * np.maximum(d.max(axis=1), 1e-300))
        for j in live[singular]:
            errors[j] = SingularDesignError("weighted design is numerically singular")
        live, b, e, y, lik, xwx, rhs = _keep_rows(~(done | singular), live, b, e, y, lik, xwx, rhs)
        if not live.size:
            break
        step = np.linalg.solve(xwx, rhs[:, :, None])[:, :, 0] - b

        # halve the steps of the series whose log-likelihood would fall or
        # whose natural parameters would leave the domain
        b_new = b + step
        e_new = b_new @ x.T
        lik_new = _row_loglik(family, y, e_new)
        halve = ~(lik_new >= lik - 1e-12 * (1.0 + np.abs(lik)))
        alpha = 1.0
        for _ in range(MAX_HALVINGS):
            if not halve.any():
                break
            alpha *= 0.5
            rows = np.flatnonzero(halve)
            b_new[rows] = b[rows] + alpha * step[rows]
            e_new[rows] = b_new[rows] @ x.T
            lik_new[rows] = _row_loglik(family, y[rows], e_new[rows])
            halve[rows] = ~(lik_new[rows] >= lik[rows] - 1e-12 * (1.0 + np.abs(lik[rows])))
        # a series whose step-halving is exhausted stops at its last iterate
        iterations[live[halve]] = it
        live, b_new, e_new, y, lik, lik_new = _keep_rows(
            ~halve, live, b_new, e_new, y, lik, lik_new
        )
        if not live.size:
            break

        beta[live], ll[live] = b_new, lik_new
        small = np.abs(lik_new - lik) <= TOL_LOGLIK * (1.0 + np.abs(lik_new))
        score = (y[small] - family.mean(e_new[small])) @ x
        small[small] = np.max(np.abs(score), axis=1) <= score_tol
        converged[live[small]] = True
        iterations[live[small]] = it
        live, b, e, y, lik = _keep_rows(~small, live, b_new, e_new, y, lik_new)
        if not live.size:
            break
    return beta, ll, iterations, converged, errors


def fit_glms(design: Design, responses, family: Family) -> list[GlmFit]:
    """Maximum-likelihood fits of one canonical GLM per column of ``responses``.

    All columns share the design, so one damped Newton loop fits them
    together: each step forms every column's ``X'W_jX`` from per-row
    outer products of the design, computed once, and solves all the
    systems in one batched call. Each column step-halves and stops on
    its own, so its fit equals the one ``fit_glm`` gives for it alone.

    Raises ``SingularDesignError`` for rank-deficient designs,
    ``DomainError`` for responses outside the family support, and
    ``ConvergenceError`` (carrying the last iterate) when the iteration
    budget or step-halving is exhausted before the score equation holds.
    An error about one column is raised for the first failing column and
    names it (``series j: ...``) when there are several.
    """
    x = design.x
    m = x.shape[0]
    ys = np.asarray(responses, dtype=float)
    if ys.ndim != 2 or ys.shape[0] != m or ys.shape[1] < 1:
        raise ValueError(f"responses of shape {ys.shape} are not an m={m} x k matrix")
    k = ys.shape[1]
    try:
        family.check_support(ys)
    except DomainError:
        for j in range(k):
            try:
                family.check_support(ys[:, j])
            except DomainError as exc:
                raise _for_series(exc, j, k) from None
        raise
    _check_full_rank(x)

    # one row per series
    beta, ll, iterations, converged, errors = _irls(x, np.ascontiguousarray(ys.T), family)
    eta = beta @ x.T
    mean = family.mean(eta)
    fisher = family.fisher_info(eta)
    score_norms = np.max(np.abs((ys.T - mean) @ x), axis=1)
    edges = np.sum(fisher == 0.0, axis=1)
    fits = []
    for j in range(k):
        if j in errors:
            raise _for_series(errors[j], j, k)
        fit = GlmFit(
            family=family,
            beta=beta[j],
            eta=eta[j],
            mu=mean[j],
            fisher_diag=fisher[j],
            loglik=float(ll[j]),
            converged=bool(converged[j] or score_norms[j] <= m * TOL_SCORE),
            iterations=int(iterations[j]),
        )
        if not fit.converged:
            message = (
                f"IRLS did not converge in {fit.iterations} iterations "
                f"(score inf-norm {score_norms[j]:.3e})"
            )
            raise _for_series(ConvergenceError(message, last_fit=fit), j, k)
        if edges[j]:
            # e.g. a separated Bernoulli series: the likelihood keeps rising
            # along a direction, so no maximum-likelihood estimate exists
            message = (
                f"fitted means reach the edge of the {family.kind} support at {edges[j]} rows "
                "(zero information); the maximum-likelihood estimate does not exist"
            )
            raise _for_series(ConvergenceError(message, last_fit=fit), j, k)
        fits.append(fit)
    return fits


def fit_glm(design: Design, y, family: Family) -> GlmFit:
    """Maximum-likelihood fit of a canonical GLM: ``fit_glms`` on one series.

    Raises ``SingularDesignError`` for rank-deficient designs,
    ``DomainError`` for responses outside the family support, and
    ``ConvergenceError`` (carrying the last iterate) when the iteration
    budget or step-halving is exhausted before the score equation holds.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (design.m,):
        raise ValueError(f"response length {y.shape} does not match m={design.m}")
    return fit_glms(design, y[:, None], family)[0]


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


def hat_diagonal(fit: GlmFit, design: Design) -> np.ndarray:
    """Leverages: diagonal of sqrt(W) X (X'WX)^{-1} X' sqrt(W).

    Entries lie in [0, 1] and sum to the number of columns.
    """
    if design.m != fit.eta.shape[0] or design.p != fit.beta.shape[0]:
        raise ValueError("design shape does not match the fit")
    sw = np.sqrt(fit.fisher_diag)
    q, r = np.linalg.qr(sw[:, None] * design.x)
    d = np.abs(np.diag(r))
    if d.min() <= RANK_RTOL * max(d.max(), 1e-300):
        raise SingularDesignError("X'WX is numerically singular")
    return np.sum(q**2, axis=1)


def log_likelihood(fit: GlmFit, y) -> float:
    """Total log-likelihood of ``y`` under the fitted natural parameters."""
    return float(np.sum(fit.family.log_pdf(y, fit.eta)))


def ols(x, y) -> np.ndarray:
    """Ordinary least-squares coefficients via QR.

    The residual is orthogonal to the columns of ``x``; rank deficiency
    raises ``SingularDesignError``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    _check_full_rank(x)
    return _wls_solve(x, y, np.ones(x.shape[0]))
