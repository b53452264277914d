"""Sibling estimators and the staged GLM denoising pipeline.

The setting: several response series share covariates and are corrupted
by a common latent noise term that acts additively on the natural
parameter of an exponential family. Because the series are conditionally
independent given covariates and noise, residual co-variation across
series carries the noise signature.

Two classical estimators operate directly on the observations:

* half-sibling: remove from the target the part a regression on the
  auxiliary series explains, then add the target mean back;
* three-quarter-sibling: the same with both regressions additionally
  conditioning on the shared covariates.

Both are algebraically identical to regressing mean-centered (or
covariate-centered) residuals of the target on those of the auxiliaries,
which is what generalizes to GLMs: fit one GLM per series, form
information-scaled residuals, regress the target's residuals on the
shared component of the auxiliaries' residuals to build a noise proxy,
and refit the target GLM with that proxy as an extra covariate. The
covariate-only part of the refit linear predictor is the denoised
natural-parameter estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import Family
from .glm import Design, GlmFit, fit_glm, fit_glms, ols
from . import residuals as res

REGRESSION = "regression"
MEAN_OF_RESIDUALS = "mean_of_residuals"

NOISE_STRATEGIES = (REGRESSION, MEAN_OF_RESIDUALS)


@dataclass(frozen=True)
class Panel:
    """Aligned observations of shared covariates and q >= 2 response series."""

    design: Design
    responses: np.ndarray
    family: Family
    target_index: int = 0

    def __post_init__(self):
        y = np.asarray(self.responses, dtype=float)
        if y.ndim != 2:
            raise ValueError("responses must be an m x q matrix")
        object.__setattr__(self, "responses", y)
        m, q = y.shape
        if q < 2:
            raise ValueError("a panel needs at least one auxiliary series (q >= 2)")
        if m != self.design.m:
            raise ValueError("responses and design have different row counts")
        if not 0 <= self.target_index < q:
            raise ValueError("target_index out of range")
        self.family.check_support(y)

    @property
    def m(self) -> int:
        return self.responses.shape[0]

    @property
    def q(self) -> int:
        return self.responses.shape[1]


@dataclass(frozen=True)
class SglmDiagnostics:
    """Per-step records of the denoising pipeline."""

    residual_kind: str
    include_x: bool
    strategy: str
    r2_joint: float
    r2_baseline: float


@dataclass(frozen=True)
class SglmResult:
    """Output of the staged denoising pipeline.

    ``noise_hat`` is the mean-zero noise proxy, ``refit`` the target GLM
    refit on ``refit_design`` (the original design plus the proxy as a
    last column named ``noise_hat``), and ``signal_hat`` the
    covariate-only part of the refit linear predictor (the denoised
    natural-parameter estimate).
    """

    noise_hat: np.ndarray
    base_fit: GlmFit
    refit: GlmFit
    refit_design: Design
    signal_hat: np.ndarray
    diagnostics: SglmDiagnostics


def _as_columns(y2) -> np.ndarray:
    y2 = np.asarray(y2, dtype=float)
    if y2.ndim == 1:
        y2 = y2[:, None]
    return y2


def _fitted(mat: np.ndarray, y: np.ndarray) -> np.ndarray:
    return mat @ ols(mat, y)


def _nonconstant_columns(x: np.ndarray) -> np.ndarray:
    """Covariate columns with any variation; constants duplicate the intercept."""
    keep = np.ptp(x, axis=0) > 0.0
    return x[:, keep]


def _informative_columns(y2: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Columns of ``y2`` not already explained by the base regression.

    A sibling column that is (numerically) a linear combination of the
    conditioning set carries no extra information: the conditional and
    unconditional regressions coincide, so it is dropped rather than
    breaking the fit with a rank-deficient matrix.
    """
    keep = []
    for j in range(y2.shape[1]):
        col = y2[:, j]
        resid = col - _fitted(base, col)
        if np.linalg.norm(resid) > 1e-9 * max(1.0, float(np.linalg.norm(col))):
            keep.append(j)
    return y2[:, keep]


def half_sibling(y1, y2) -> np.ndarray:
    """Denoise ``y1`` using sibling series that share only the noise.

    Removes the part of ``y1`` that a least-squares regression on ``y2``
    explains and restores the mean, so the output mean equals the input
    mean by construction.
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = _as_columns(y2)
    ones = np.ones(len(y1))[:, None]
    mat = np.column_stack([ones, _informative_columns(y2, ones)])
    return y1 - _fitted(mat, y1) + np.mean(y1)


def three_quarter_sibling(x, y1, y2) -> np.ndarray:
    """Sibling denoising when the series also share observed covariates.

    Both conditional expectations are least-squares fits with intercept;
    ``x`` columns with no variation are dropped (conditioning on a
    constant is conditioning on nothing).
    """
    y1 = np.asarray(y1, dtype=float)
    y2 = _as_columns(y2)
    x = _nonconstant_columns(_as_columns(x))
    ones = np.ones(len(y1))[:, None]
    base = np.column_stack([ones, x]) if x.shape[1] else ones
    full = np.column_stack([base, _informative_columns(y2, base)])
    return y1 - _fitted(full, y1) + _fitted(base, y1)


def _residual_matrix(panel: Panel, fits: list[GlmFit], kind: str) -> np.ndarray:
    cols = [
        res.compute(kind, fits[j], panel.responses[:, j], design=panel.design)
        for j in range(panel.q)
    ]
    return np.column_stack(cols)


def _r_squared(fitted: np.ndarray, y: np.ndarray) -> float:
    sst = float(np.sum((y - np.mean(y)) ** 2))
    if sst == 0.0:
        return 0.0
    return 1.0 - float(np.sum((y - fitted) ** 2)) / sst


def _shared_component(aux: np.ndarray) -> np.ndarray:
    """Combine centered auxiliary residuals along their shared direction.

    Each auxiliary residual series carries the common noise scaled by its
    own (unknown, possibly negative) coefficient plus independent
    variation, so the noise direction is the leading factor of the
    between-series covariance. Power iteration on that covariance with
    the diagonal removed recovers the loading vector without ever
    touching the target series; loadings are then divided by each
    series' total residual variance so that noisy low-information series
    contribute less. With a single auxiliary this reduces to the
    centered residual itself.
    """
    m, k = aux.shape
    centered = aux - aux.mean(axis=0)
    if k == 1:
        return centered[:, 0]
    cov = centered.T @ centered / m
    off = cov - np.diag(np.diag(cov))
    u = np.ones(k) / np.sqrt(k)
    for _ in range(8):
        v = off @ u
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            break
        u = v / norm
    weights = u / np.maximum(np.diag(cov), 1e-12)
    return centered @ weights


def _noise_from_residuals(
    resid: np.ndarray, target: int, x: np.ndarray, include_x: bool, strategy: str
) -> tuple[np.ndarray, float, float]:
    m = resid.shape[0]
    r1 = resid[:, target]
    aux = np.delete(resid, target, axis=1)

    if strategy == MEAN_OF_RESIDUALS:
        nhat = aux.mean(axis=1)
        nhat = nhat - nhat.mean()
        return nhat, float("nan"), float("nan")
    if strategy != REGRESSION:
        raise ValueError(
            f"unknown noise strategy {strategy!r}; expected one of {NOISE_STRATEGIES}"
        )

    ones = np.ones(m)[:, None]
    xc = _nonconstant_columns(x) if include_x else np.empty((m, 0))
    shared = _shared_component(aux)[:, None]
    joint = np.column_stack([ones, shared, xc])
    baseline = np.column_stack([ones, xc])
    fitted_joint = _fitted(joint, r1)
    fitted_base = _fitted(baseline, r1)
    nhat = fitted_joint - fitted_base
    return nhat, _r_squared(fitted_joint, r1), _r_squared(fitted_base, r1)


def sglm_denoise(
    panel: Panel,
    residual_kind: str = res.FISHER,
    include_x: bool = False,
    strategy: str = REGRESSION,
) -> SglmResult:
    """Full staged pipeline: noise proxy, refit, denoised signal.

    Fits one GLM per series on the shared design and computes residuals
    of the chosen kind. The ``regression`` strategy condenses the
    auxiliary residual columns into their shared component (see
    ``_shared_component``; with one auxiliary this is just its centered
    residual), regresses the target residuals on it (plus covariates
    when ``include_x``), and takes the difference between that fit and
    the baseline fit as the proxy, which is mean zero by construction.
    The ``mean_of_residuals`` strategy instead averages the auxiliary
    residual columns and centers the result; it is only sensible when
    every series loads on the noise with the same sign. The target is
    then refit with the proxy as an extra covariate.
    """
    y1 = panel.responses[:, panel.target_index]
    fits = fit_glms(panel.design, panel.responses, panel.family)
    base_fit = fits[panel.target_index]

    resid = _residual_matrix(panel, fits, residual_kind)
    nhat, r2_joint, r2_base = _noise_from_residuals(
        resid, panel.target_index, panel.design.x, include_x, strategy
    )

    refit_design = Design(
        np.column_stack([panel.design.x, nhat]),
        (*panel.design.column_names, "noise_hat"),
    )
    refit = fit_glm(refit_design, y1, panel.family)
    signal_hat = panel.design.x @ refit.beta[: panel.design.p]

    return SglmResult(
        noise_hat=nhat,
        base_fit=base_fit,
        refit=refit,
        refit_design=refit_design,
        signal_hat=signal_hat,
        diagnostics=SglmDiagnostics(
            residual_kind=residual_kind,
            include_x=include_x,
            strategy=strategy,
            r2_joint=r2_joint,
            r2_baseline=r2_base,
        ),
    )
