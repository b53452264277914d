"""Residual definitions for fitted canonical GLMs.

Four kinds are provided. The information-scaled residual divides the raw
residual by the per-observation Fisher information ``A''(eta)``; its
conditional expectation approximates the gap between the true and fitted
natural parameters to first order, which is what makes it usable as a
signature of additive noise on the natural-parameter scale. Raw,
studentized, and deviance residuals are the classical alternatives.

Each kind is computed for a block of series at once, as one k x m
array: the studentized residuals take their leverages from one stacked
QR of the block's weighted designs, and the deviance residuals check
the support and the means once per block. Every product, factorisation
and reduction is the one a lone series gets, so each row is bitwise its
series' residual alone. ``compute`` is the one dispatch, for one fit or
a block, and the kind functions are its stacks of one.
"""

from __future__ import annotations

import numpy as np

from .glm import Design, GlmFit, _leverages

RAW = "raw"
STUDENT = "student"
DEVIANCE = "deviance"
FISHER = "fisher"

RESIDUAL_KINDS = (FISHER, RAW, STUDENT, DEVIANCE)

LEVERAGE_LIMIT = 1.0 - 1e-12

# Cap on the entries (series x m x p) of a chunk of ``columns``: a chunk's
# stack of weighted designs, and each of its k x m temporaries, stays within
# 128 KiB, the allocator's mmap threshold. Above m * p = 2**14 a chunk is
# one series.
CHUNK_ENTRIES = 2**14


class LeverageError(ValueError):
    """A leverage of (numerically) one makes studentization undefined."""


def _raw(fits, ys, mu, design):
    """Observed minus fitted mean."""
    return ys - mu


def _fisher(fits, ys, mu, design):
    """Raw residual divided by the per-observation information A''(eta)."""
    return (ys - mu) / np.array([fit.fisher_diag for fit in fits])


def _student(fits, ys, mu, design):
    """``studentized`` for a block, with the leverages of one stacked QR."""
    if design.m != mu.shape[1] or design.p != fits[0].beta.shape[0]:
        raise ValueError("design shape does not match the fit")
    h = _leverages(np.array([fit.fisher_diag for fit in fits]), design.x)
    r = ys - mu
    saturated = h >= LEVERAGE_LIMIT
    if np.any(saturated & (np.abs(r) > 1e-12 * (1.0 + np.abs(ys)))):
        raise LeverageError("leverage of 1 encountered (saturated observation)")
    var = fits[0].family.response_variance(np.array([fit.eta for fit in fits]))
    values = np.zeros_like(r)
    ok = ~saturated
    values[ok] = r[ok] / np.sqrt(var[ok] * (1.0 - h[ok]))
    return values


def _deviance(fits, ys, mu, design):
    """sign(y - mu) * sqrt(unit deviance), with sign(0) = 0."""
    d = fits[0].family.unit_deviance(ys, mu)
    return np.sign(ys - mu) * np.sqrt(d)


_KINDS = {FISHER: _fisher, RAW: _raw, STUDENT: _student, DEVIANCE: _deviance}


def compute(kind: str, fit: GlmFit | list[GlmFit], y, design: Design | None) -> np.ndarray:
    """The residuals of a kind name, for one fit and its response vector
    ``y``, or for a list of k fits of one family and their k x m responses
    ``y`` as a k x m block; ``design`` is the fits', for studentized.

    A block raises a ``ValueError`` when any of its series would. Row j
    is bitwise the residual of fit j and its response alone.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown residual kind {kind!r}; expected one of {RESIDUAL_KINDS}")
    ys = np.asarray(y, dtype=float)
    if isinstance(fit, GlmFit):
        if ys.shape != fit.mu.shape:
            raise ValueError(f"response shape {ys.shape} does not match fit {fit.mu.shape}")
        return _KINDS[kind]([fit], ys[None], fit.mu[None], design)[0]
    mu = np.array([f.mu for f in fit])
    if ys.shape != mu.shape:
        raise ValueError(f"responses of shape {ys.shape} do not match the fits {mu.shape}")
    if any(f.family != fit[0].family for f in fit):
        raise ValueError("the fits of a block must share one family")
    return _KINDS[kind](fit, ys, mu, design)


def raw(fit: GlmFit, y) -> np.ndarray:
    """Observed minus fitted mean."""
    return compute(RAW, fit, y, None)


def fisher_scaled(fit: GlmFit, y) -> np.ndarray:
    """Raw residual divided by the per-observation information A''(eta)."""
    return compute(FISHER, fit, y, None)


def studentized(fit: GlmFit, design: Design, y) -> np.ndarray:
    """Raw residual scaled by its estimated standard deviation.

    Divides by sqrt(Var(Y) * (1 - h)) with h the hat-matrix leverage of
    the weighted design. A saturated point (h numerically 1) raises
    ``LeverageError`` unless its raw residual is zero, in which case the
    0/0 limit is taken as 0 (an exactly interpolated observation).
    """
    return compute(STUDENT, fit, y, design)


def deviance_residual(fit: GlmFit, y) -> np.ndarray:
    """sign(y - mu) * sqrt(unit deviance), with sign(0) = 0."""
    return compute(DEVIANCE, fit, y, None)


def chunks(k: int, m: int, p: int) -> list[range]:
    """``range(k)`` cut into consecutive chunks of series within ``CHUNK_ENTRIES``
    (series x m x p), or of one series."""
    size = max(1, CHUNK_ENTRIES // (m * p))
    return [range(start, min(start + size, k)) for start in range(0, k, size)]


def columns(kind: str, fits: list[GlmFit], ys: np.ndarray, design: Design):
    """``compute`` for each fit and its column of the m x k responses ``ys``,
    up to the first that raises a ``ValueError``: the m x j matrix of the
    columns before it and that error, or all k columns and None.

    The fits go a chunk of series at a time (``chunks``), one ``compute``
    call per chunk, which bounds the temporaries whatever the panel. A
    chunk that raises is redone series by series, so the first failing
    series stops it with its own error.
    """
    out = np.empty((ys.shape[0], min(len(fits), ys.shape[1])))
    for chunk in chunks(out.shape[1], *design.x.shape):
        part = slice(chunk.start, chunk.stop)
        try:
            out[:, part] = compute(kind, fits[part], ys[:, part].T, design).T
        except ValueError:
            for j in chunk:
                try:
                    out[:, j] = compute(kind, fits[j], ys[:, j], design)
                except ValueError as exc:
                    return out[:, :j], exc
    return out, None
