"""Canonical-link GLM estimation by iteratively reweighted least squares.

The fitting loop is a damped Newton iteration over all response series
that share one design: each step solves every series' weighted normal
equations ``X'WX b = X'Wz`` and is step-halved until the log-likelihood
is non-decreasing and the natural parameters stay inside the family
domain. At convergence the canonical score equation ``X'(y - mu) = 0``
holds to tolerance.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .families import GAMMA, DomainError, Family

RANK_RTOL = 1e-10
_RANK_DEFICIENT = "design matrix is rank deficient"

# IRLS stopping rules: iteration budget, step halvings per iteration, and
# the one convergence test, a score inf-norm of at most m * TOL_SCORE
MAX_ITER = 100
TOL_SCORE = 1e-8
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
        repeated = [n for j, n in enumerate(self.column_names) if n in self.column_names[:j]]
        if repeated:
            raise ValueError(f"column name {repeated[0]!r} appears more than once")

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


def _rank_deficient(d: np.ndarray):
    """The one rank test, on triangular-factor diagonals along the last axis
    of ``d``: the smallest is negligible next to the largest, or there are none."""
    d = np.abs(d)
    return d.shape[-1] == 0 or d.min(axis=-1) <= RANK_RTOL * np.maximum(d.max(axis=-1), 1e-300)


def _check_rows(shape: tuple[int, int]) -> None:
    """The row check of a design of this shape: at least as many rows as columns."""
    if shape[0] < shape[1]:
        raise SingularDesignError(f"need at least as many rows as columns, got {shape}")


def _factor(x: np.ndarray, message: str) -> tuple[np.ndarray, np.ndarray]:
    """QR factors of ``x``, or of each matrix of a stack (one LAPACK call per
    matrix); ``SingularDesignError(message)`` when any R fails the rank test."""
    q, r = np.linalg.qr(x)
    if np.any(_rank_deficient(np.diagonal(r, axis1=-2, axis2=-1))):
        raise SingularDesignError(message)
    return q, r


def _initial_beta(x: np.ndarray, ys: np.ndarray, family: Family) -> np.ndarray:
    """Feasible starting coefficients, one row per response row of ``ys``.

    ``x`` is the design every row shares, or a stack of one design per row.
    Zero works for families whose natural-parameter domain is the whole
    real line. The Gamma domain excludes zero, so its start matches the
    intercept-only maximum likelihood solution when a constant column is
    available, falling back to a least-squares fit on the link scale. The
    rows with a constant column take their start in one step; each other
    row is fitted on its own.
    """
    p = x.shape[-1]
    k = ys.shape[0]
    beta = np.zeros((k, p))
    if family.kind != GAMMA:
        return beta
    # each row's design's first non-zero constant column, if it has one; the
    # spans are taken along contiguous rows, which is much faster on a stack
    first = x[..., 0, :]
    spans = np.ptp(np.ascontiguousarray(x.swapaxes(-1, -2)), axis=-1)
    constant = np.broadcast_to((spans == 0.0) & (first != 0.0), (k, p))
    has = constant.any(axis=1)
    rows = np.flatnonzero(has)
    columns = constant.argmax(axis=1)[rows]
    if rows.size:
        (started,) = _keep_rows(has, ys)
        scale = np.broadcast_to(first, (k, p))[rows, columns]
        beta[rows, columns] = family.theta_from_mean(started.mean(axis=1)) / scale
    for j in np.flatnonzero(~has):
        xj = x[j] if x.ndim == 3 else x
        z = family.theta_from_mean(np.maximum(ys[j], 1e-8))
        beta[j] = ols(xj, z)
        if not family.in_domain(xj @ beta[j]):
            error = ConvergenceError("no feasible gamma starting point; add an intercept column")
            raise _for_series(error, j, k if x.ndim == 2 else 1)
    return beta


def _for_series(exc: Exception, j: int, k: int) -> Exception:
    """Name series ``j`` in the message when there are several, keeping the
    exception's type and attributes (such as ``ConvergenceError.last_fit``)."""
    if k > 1:
        exc.args = (f"series {j}: {exc}", *exc.args[1:])
    return exc


def _check_support(family: Family, ys: np.ndarray) -> None:
    """``family.check_support`` on the m x k responses ``ys``; a ``DomainError``
    names the first column outside the support when there are several."""
    try:
        family.check_support(ys)
    except DomainError:
        for j in range(ys.shape[1]):
            try:
                family.check_support(ys[:, j])
            except DomainError as exc:
                raise _for_series(exc, j, ys.shape[1]) from None
        raise


def _solve_checked(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky diagonals and solutions of a stack of symmetric systems ``a x = b``.

    For ``a = X'WX`` the diagonal is that of the QR factor ``R`` of
    ``sqrt(W) X`` up to sign. A system that is not numerically positive
    definite, or that LAPACK's solve finds exactly singular (which the rank
    test on the diagonal can pass), gets a zero diagonal.
    """
    try:
        diagonals = np.diagonal(np.linalg.cholesky(a), axis1=1, axis2=2)
        return diagonals, np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.zeros((1, a.shape[1])), np.zeros(b.shape)
        parts = [_solve_checked(a[i : i + 1], b[i : i + 1]) for i in range(len(a))]
        return tuple(np.concatenate(part) for part in zip(*parts))


def _rows_times(v, a):
    """``v @ a`` as one matrix product per row of ``v``.

    Row j is bitwise ``v[j] @ a`` whatever the other rows are: a single
    product over all rows lets BLAS block the sum differently for
    different row counts.
    """
    return (v[:, None, :] @ a)[:, 0]


def _newton_system(x, xx, family, y, eta):
    """Score ``X'(y - mu)``, ``X'WX`` and ``X'Wz`` of one IRLS step per row.

    ``y`` and ``eta`` hold one series per row; ``x`` is their shared design
    or a stack of one design per row, and ``xx`` holds the per-row outer
    products of the design (or of each row's design), so ``w @ xx`` forms
    every ``X'WX``.
    """
    p = x.shape[-1]
    mean, w = family._mean_and_info(eta)
    resid = y - mean
    # rows with underflowed information carry no weight; avoid 0/0 in z;
    # in place, since each array is as large as the panel
    wz = resid / np.maximum(w, 1e-300)
    wz += eta
    wz *= w
    return _rows_times(resid, x), _rows_times(w, xx).reshape(-1, p, p), _rows_times(wz, x)


def _row_loglik(family, y, c, eta):
    """Log-likelihood of each row, ``c`` holding ``y``'s support term; NaN,
    which no test accepts, outside the domain."""
    if family.in_domain(eta):
        return family._log_pdf(y, eta, c).sum(axis=1)
    ok = family.domain_mask(eta).all(axis=1)
    ll = np.full(len(eta), np.nan)
    ll[ok] = family._log_pdf(y[ok], eta[ok], c[ok]).sum(axis=1)
    return ll


def _keep_rows(mask, *arrays):
    """The rows of each array where ``mask`` holds (the arrays when it holds for all)."""
    return arrays if mask.all() else tuple(a[mask] for a in arrays)


def _outcomes(ok: np.ndarray, values, error: Exception) -> list:
    """In order, the next of ``values`` where ``ok`` holds and a copy of ``error`` elsewhere."""
    values = iter(values)
    return [next(values) if good else copy.copy(error) for good in ok]


def _irls(x, y, family):
    """Damped Newton iterations for every row of ``y`` (one series each) at once.

    ``x`` is one m x p design that every row shares, or a k x m x p stack
    with one design per row. A shared design stays one array; a stack
    keeps only the rows still iterating. Each row step-halves and stops
    on its own, and every product is formed one row at a time with that
    row's design, so each row goes exactly as it would alone. A row stops
    when, at the top of an iteration, its score inf-norm is at most
    ``m * TOL_SCORE``; its count is the steps taken. Returns the final
    coefficients and log-likelihoods, the iteration counts and the errors
    of the rows that failed.

    The responses are checked before the loop, and the loop keeps its own
    domain rule (``_row_loglik``), so it calls the family's unchecked
    kernels, with the response-only term of the log density computed
    once and sliced with the rows.
    """
    m, p = x.shape[-2:]
    per_row = x.ndim == 3
    # the outer products' entries, bitwise, as one product per column pair,
    # whose inner loops run over rows rather than over p columns
    xx = np.empty((*x.shape[:-1], p * p))
    for i in range(p):
        for j in range(p):
            np.multiply(x[..., i], x[..., j], out=xx[..., i * p + j])
    score_tol = m * TOL_SCORE
    k = y.shape[0]
    beta = _initial_beta(x, y, family)
    # swapaxes is x.T, for the one design or for each design of a stack
    e = _rows_times(beta, x.swapaxes(-1, -2))
    c = family._support_term(y)
    ll = _row_loglik(family, y, c, e)
    iterations = np.full(k, MAX_ITER)
    errors: dict[int, Exception] = {}

    # the series still iterating, and their state (copies, because beta and
    # ll are updated in place while the previous iterate is still needed)
    live, b, lik = np.arange(k), beta.copy(), ll.copy()
    for it in range(1, MAX_ITER + 1):
        score, xwx, rhs = _newton_system(x, xx, family, y, e)
        done = np.max(np.abs(score), axis=1) <= score_tol
        iterations[live[done]] = it - 1
        diagonals, solution = _solve_checked(xwx, rhs)
        singular = ~done & _rank_deficient(diagonals)
        for j in live[singular]:
            errors[j] = SingularDesignError("weighted design is numerically singular")
        going = ~(done | singular)
        live, b, e, y, c, lik, solution = _keep_rows(going, live, b, e, y, c, lik, solution)
        if per_row:
            x, xx = _keep_rows(going, x, xx)
        if not live.size:
            break
        step = solution - b

        # halve the steps of the series whose log-likelihood would fall or
        # whose natural parameters would leave the domain
        b_new = b + step
        e_new = _rows_times(b_new, x.swapaxes(-1, -2))
        lik_new = _row_loglik(family, y, c, e_new)
        halve = ~(lik_new >= lik - 1e-12 * (1.0 + np.abs(lik)))
        alpha = 1.0
        for _ in range(MAX_HALVINGS):
            if not halve.any():
                break
            alpha *= 0.5
            rows = np.flatnonzero(halve)
            b_new[rows] = b[rows] + alpha * step[rows]
            xt = (x[rows] if per_row else x).swapaxes(-1, -2)
            e_new[rows] = _rows_times(b_new[rows], xt)
            lik_new[rows] = _row_loglik(family, y[rows], c[rows], e_new[rows])
            halve[rows] = ~(lik_new[rows] >= lik[rows] - 1e-12 * (1.0 + np.abs(lik[rows])))
        # a series whose step-halving is exhausted stops at its last iterate
        iterations[live[halve]] = it
        live, b, e, y, c, lik = _keep_rows(~halve, live, b_new, e_new, y, c, lik_new)
        if per_row:
            x, xx = _keep_rows(~halve, x, xx)
        if not live.size:
            break
        beta[live], ll[live] = b, lik
    return beta, ll, iterations, errors


def _deficient_designs(x: np.ndarray):
    """The fitting checks of one design, or of each design of a stack (which
    share a shape): ``_check_rows`` raises when there are fewer rows than
    columns, and the result is the rank test on the diagonal of the QR
    factor R, True where a design is rank deficient."""
    _check_rows(x.shape[-2:])
    return _rank_deficient(np.diagonal(np.linalg.qr(x, mode="r"), axis1=-2, axis2=-1))


def _fit_rows(x: np.ndarray, ys: np.ndarray, family: Family) -> list:
    """One canonical GLM per row of ``ys`` (k x m, inside the family
    support), fitted in one damped Newton loop (``_irls``).

    ``x`` is one checked m x p design that every row shares, or a
    k x m x p stack with one design per row, each checked here as
    ``fit_glm`` checks it. Returns, for each row, its ``GlmFit``, bitwise
    the one ``fit_glm`` gives for that design and row alone, or the
    exception ``fit_glm`` raises for them, with the same type and message.
    A Gamma row with no feasible start (no constant column) raises for
    the whole call.
    """
    # the products' bits depend on the layout: an F-ordered stack gave
    # other bits than its designs alone, so every design is fitted C-ordered
    x = np.ascontiguousarray(x)
    m = ys.shape[1]
    ok = np.ones(len(ys), dtype=bool)
    if x.ndim == 3:
        try:
            ok = ~_deficient_designs(x)
        except SingularDesignError as exc:
            return [copy.copy(exc) for _ in ys]
        x, ys = _keep_rows(ok, x, ys)
    beta, ll, iterations, errors = _irls(x, ys, family)
    eta = _rows_times(beta, x.swapaxes(-1, -2))
    mean = family.mean(eta)
    fisher = family.fisher_info(eta)
    score_norms = np.max(np.abs(_rows_times(ys - mean, x)), axis=1)
    edges = np.sum(fisher == 0.0, axis=1)
    fits = []
    for i in range(len(ys)):
        if i in errors:
            fits.append(errors[i])
            continue
        fit = GlmFit(
            family=family,
            beta=beta[i],
            eta=eta[i],
            mu=mean[i],
            fisher_diag=fisher[i],
            loglik=float(ll[i]),
            converged=bool(score_norms[i] <= m * TOL_SCORE),
            iterations=int(iterations[i]),
        )
        message = None
        if not fit.converged:
            message = (
                f"IRLS did not converge in {fit.iterations} iterations "
                f"(score inf-norm {score_norms[i]:.3e})"
            )
        elif edges[i]:
            # e.g. a separated Bernoulli series: the likelihood keeps rising
            # along a direction, so no maximum-likelihood estimate exists
            message = (
                f"fitted means reach the edge of the {family.kind} support at {edges[i]} rows "
                "(zero information); the maximum-likelihood estimate does not exist"
            )
        fits.append(fit if message is None else ConvergenceError(message, last_fit=fit))
    return _outcomes(ok, fits, SingularDesignError(_RANK_DEFICIENT))


def fit_glms(design: Design, responses, family: Family) -> list[GlmFit]:
    """Maximum-likelihood fits of one canonical GLM per column of ``responses``.

    All columns share the design, so one damped Newton loop fits them
    together (``_fit_rows``): each step forms every column's ``X'W_jX``
    from per-row outer products of the design, computed once, and solves
    all the systems in one batched call. Each column step-halves and
    stops on its own, and every product is formed one column at a time,
    so column j's fit is bitwise the one ``fit_glm`` gives for it alone,
    whatever the other columns are. Every ``sglm`` refit of a
    ``sibling.estimates`` call, one design per target, goes through the
    same loop with a stack of designs.

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
    _check_support(family, ys)
    if _deficient_designs(x):
        raise SingularDesignError(_RANK_DEFICIENT)
    # one row per series
    fits = _fit_rows(x, np.ascontiguousarray(ys.T), family)
    for j, fit in enumerate(fits):
        if isinstance(fit, Exception):
            raise _for_series(fit, j, len(fits))
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


def hat_diagonal(fit: GlmFit, design: Design) -> np.ndarray:
    """Leverages: diagonal of sqrt(W) X (X'WX)^{-1} X' sqrt(W).

    Entries lie in [0, 1] and sum to the number of columns.
    """
    if design.m != fit.eta.shape[0] or design.p != fit.beta.shape[0]:
        raise ValueError("design shape does not match the fit")
    return _leverages(fit.fisher_diag[None], design.x)[0]


def _leverages(fisher: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``hat_diagonal`` of each row of the k x m information weights
    ``fisher`` on the m x p design ``x``, from one stacked QR of the
    weighted designs. Row j is bitwise its stack of one's; a weighted
    design that fails the rank test raises for the stack.
    """
    sw = np.sqrt(fisher)
    q = _factor(sw[:, :, None] * x, "X'WX is numerically singular")[0]
    return np.sum(q**2, axis=2)


def ols(x, y) -> np.ndarray:
    """Least-squares coefficients from one QR of ``x``, for a vector ``y`` or
    for each column of an m x k matrix ``y``. Each residual is orthogonal to
    the columns of ``x``; fewer rows than columns or a rank-deficient ``x``
    raise ``SingularDesignError``.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _check_rows(x.shape)
    q, r = _factor(x, _RANK_DEFICIENT)
    # a contiguous right-hand side keeps the product on one BLAS path, so
    # the bytes do not depend on whether ``y`` is a strided view
    return np.linalg.solve(r, q.T @ np.ascontiguousarray(y, dtype=float))
