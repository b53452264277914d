"""Sandwich covariance for maximum-likelihood GLM fits.

The estimator stays valid when the fitted model is misspecified: the
coefficient covariance is A^{-1} B A^{-1} with A the average expected
Hessian and B the average outer product of per-observation scores, both
replaced by their empirical plug-ins. No small-sample degrees-of-freedom
correction is applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .glm import Design, GlmFit, SingularDesignError


@dataclass(frozen=True)
class SandwichCovariance:
    """Plug-in sandwich pieces and per-coefficient standard errors.

    ``c`` is the asymptotic covariance of sqrt(m) times the coefficient
    estimate; ``standard_errors`` are sqrt(diag(c) / m).
    """

    a_bar: np.ndarray
    b_bar: np.ndarray
    c: np.ndarray
    standard_errors: np.ndarray


def sandwich(fit: GlmFit, design: Design, y) -> SandwichCovariance:
    """Empirical sandwich covariance of a converged fit.

    A = mean of A''(eta_i) x_i x_i', B = mean of (y_i - mu_i)^2 x_i x_i'.
    """
    if not fit.converged:
        raise ValueError("sandwich covariance requires a converged fit")
    x = design.x
    m = x.shape[0]
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        raise ValueError("response length does not match the design")

    w = fit.fisher_diag
    r = y - fit.mu
    a_bar = (x * w[:, None]).T @ x / m
    b_bar = (x * (r**2)[:, None]).T @ x / m

    try:
        a_inv = np.linalg.inv(a_bar)
    except np.linalg.LinAlgError as exc:
        raise SingularDesignError("expected-Hessian matrix is singular") from exc
    c = a_inv @ b_bar @ a_inv
    c = 0.5 * (c + c.T)
    se = np.sqrt(np.maximum(np.diag(c), 0.0) / m)
    return SandwichCovariance(a_bar=a_bar, b_bar=b_bar, c=c, standard_errors=se)

