"""Residual definitions for fitted canonical GLMs.

Four kinds are provided. The information-scaled residual divides the raw
residual by the per-observation Fisher information ``A''(eta)``; its
conditional expectation approximates the gap between the true and fitted
natural parameters to first order, which is what makes it usable as a
signature of additive noise on the natural-parameter scale. Raw,
studentized, and deviance residuals are the classical alternatives.
"""

from __future__ import annotations

import numpy as np

from .glm import Design, GlmFit, hat_diagonal

RAW = "raw"
STUDENT = "student"
DEVIANCE = "deviance"
FISHER = "fisher"

RESIDUAL_KINDS = (FISHER, RAW, STUDENT, DEVIANCE)

LEVERAGE_LIMIT = 1.0 - 1e-12


class LeverageError(ValueError):
    """A leverage of (numerically) one makes studentization undefined."""


def _check_aligned(fit: GlmFit, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != fit.mu.shape:
        raise ValueError(f"response shape {y.shape} does not match fit {fit.mu.shape}")
    return y


def raw(fit: GlmFit, y) -> np.ndarray:
    """Observed minus fitted mean."""
    y = _check_aligned(fit, y)
    return y - fit.mu


def fisher_scaled(fit: GlmFit, y) -> np.ndarray:
    """Raw residual divided by the per-observation information A''(eta)."""
    y = _check_aligned(fit, y)
    return (y - fit.mu) / fit.fisher_diag


def studentized(fit: GlmFit, design: Design, y) -> np.ndarray:
    """Raw residual scaled by its estimated standard deviation.

    Divides by sqrt(Var(Y) * (1 - h)) with h the hat-matrix leverage of
    the weighted design. A saturated point (h numerically 1) raises
    ``LeverageError`` unless its raw residual is zero, in which case the
    0/0 limit is taken as 0 (an exactly interpolated observation).
    """
    y = _check_aligned(fit, y)
    h = hat_diagonal(fit, design)
    r = y - fit.mu
    saturated = h >= LEVERAGE_LIMIT
    if np.any(saturated & (np.abs(r) > 1e-12 * (1.0 + np.abs(y)))):
        raise LeverageError("leverage of 1 encountered (saturated observation)")
    var = fit.family.response_variance(fit.eta)
    values = np.zeros_like(r)
    ok = ~saturated
    values[ok] = r[ok] / np.sqrt(var[ok] * (1.0 - h[ok]))
    return values


def deviance_residual(fit: GlmFit, y) -> np.ndarray:
    """sign(y - mu) * sqrt(unit deviance), with sign(0) = 0."""
    y = _check_aligned(fit, y)
    d = fit.family.unit_deviance(y, fit.mu)
    return np.sign(y - fit.mu) * np.sqrt(d)


def compute(kind: str, fit: GlmFit, y, design: Design) -> np.ndarray:
    """Dispatch on a residual kind name; ``design`` is the fit's, for studentized."""
    if kind == RAW:
        return raw(fit, y)
    if kind == FISHER:
        return fisher_scaled(fit, y)
    if kind == DEVIANCE:
        return deviance_residual(fit, y)
    if kind == STUDENT:
        return studentized(fit, design, y)
    raise ValueError(f"unknown residual kind {kind!r}; expected one of {RESIDUAL_KINDS}")


def columns(kind: str, fits: list[GlmFit], ys: np.ndarray, design: Design):
    """``compute`` for each fit and its column of the m x k responses ``ys``,
    up to the first that raises a ``ValueError``: the m x j matrix of the
    columns before it and that error, or all k columns and None.

    Each column is its own ``compute`` call, so its temporaries stay one
    series long and the first failing series stops it with its own error.
    """
    out = np.empty((ys.shape[0], min(len(fits), ys.shape[1])))
    for j, (fit, y) in enumerate(zip(fits, ys.T)):
        try:
            out[:, j] = compute(kind, fit, y, design=design)
        except ValueError as exc:
            return out[:, :j], exc
    return out, None
