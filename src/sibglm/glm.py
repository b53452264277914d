"""Canonical-link GLM estimation by iteratively reweighted least squares.

The fitting loop is a damped Newton iteration: each step solves a
weighted least-squares problem through an orthogonal factorization of
``sqrt(W) X`` and is step-halved until the log-likelihood is
non-decreasing and the natural parameters stay inside the family domain.
At convergence the canonical score equation ``X'(y - mu) = 0`` holds to
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .families import GAMMA, Family

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


def _initial_beta(design: Design, y: np.ndarray, family: Family) -> np.ndarray:
    """Feasible starting coefficients.

    Zero works for families whose natural-parameter domain is the whole
    real line. The Gamma domain excludes zero, so its start matches the
    intercept-only maximum likelihood solution when a constant column is
    available, falling back to a least-squares fit on the link scale.
    """
    m, p = design.x.shape
    if family.kind != GAMMA:
        return np.zeros(p)
    spans = np.ptp(design.x, axis=0)
    for j in range(p):
        if spans[j] == 0.0 and design.x[0, j] != 0.0:
            beta = np.zeros(p)
            beta[j] = family.theta_from_mean(float(np.mean(y))) / design.x[0, j]
            return beta
    z = family.theta_from_mean(np.maximum(y, 1e-8))
    beta = _wls_solve(design.x, z, np.ones(m))
    if not family.in_domain(design.x @ beta):
        raise ConvergenceError(
            "no feasible gamma starting point; add an intercept column"
        )
    return beta


def fit_glm(design: Design, y, family: Family) -> GlmFit:
    """Maximum-likelihood fit of a canonical GLM.

    Raises ``SingularDesignError`` for rank-deficient designs,
    ``DomainError`` for responses outside the family support, and
    ``ConvergenceError`` (carrying the last iterate) when the iteration
    budget or step-halving is exhausted before the score equation holds.
    """
    x = design.x
    m = x.shape[0]
    y = family.check_support(y)
    if y.shape != (m,):
        raise ValueError(f"response length {y.shape} does not match m={m}")
    _check_full_rank(x)

    beta = _initial_beta(design, y, family)
    eta = x @ beta
    mu = family.mean(eta)
    ll = float(np.sum(family.log_pdf(y, eta)))
    score_tol = m * TOL_SCORE

    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        score = x.T @ (y - mu)
        if np.max(np.abs(score)) <= score_tol:
            converged = True
            iterations -= 1
            break

        w = family.fisher_info(eta)
        # rows with underflowed information carry no weight; avoid 0/0 in z
        z = eta + (y - mu) / np.maximum(w, 1e-300)
        step = _wls_solve(x, z, w) - beta

        alpha = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            cand = beta + alpha * step
            eta_c = x @ cand
            if family.in_domain(eta_c):
                ll_c = float(np.sum(family.log_pdf(y, eta_c)))
                if ll_c >= ll - 1e-12 * (1.0 + abs(ll)):
                    accepted = True
                    break
            alpha *= 0.5
        if not accepted:
            break

        beta, eta, mu = cand, eta_c, family.mean(eta_c)
        ll_prev, ll = ll, ll_c
        if abs(ll - ll_prev) <= TOL_LOGLIK * (1.0 + abs(ll)):
            if np.max(np.abs(x.T @ (y - mu))) <= score_tol:
                converged = True
                break

    if not converged and np.max(np.abs(x.T @ (y - mu))) <= score_tol:
        converged = True

    fit = GlmFit(
        family=family,
        beta=beta,
        eta=eta,
        mu=mu,
        fisher_diag=family.fisher_info(eta),
        loglik=ll,
        converged=converged,
        iterations=iterations,
    )
    if not converged:
        raise ConvergenceError(
            f"IRLS did not converge in {iterations} iterations "
            f"(score inf-norm {np.max(np.abs(x.T @ (y - mu))):.3e})",
            last_fit=fit,
        )
    edge = int(np.sum(fit.fisher_diag == 0.0))
    if edge:
        # e.g. a separated Bernoulli series: the likelihood keeps rising
        # along a direction, so no maximum-likelihood estimate exists
        raise ConvergenceError(
            f"fitted means reach the edge of the {family.kind} support at {edge} rows "
            "(zero information); the maximum-likelihood estimate does not exist",
            last_fit=fit,
        )
    return fit


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
