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
# fit_glm is unused here, but perfbench/tracing.py patches sibling.fit_glm
from .glm import Design, GlmFit, SingularDesignError, _fit_rows, fit_glm, fit_glms, ols
from .glm import _RANK_DEFICIENT, _check_rows, _rank_deficient
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
class Estimate:
    """One estimator's output for a panel's target series.

    ``signal_hat`` is the denoised estimate, on the natural-parameter
    scale for the GLM estimators and on the working scale for the linear
    ones; ``noise_hat`` is the removed noise, and ``mu_hat`` the fitted
    mean. ``refit`` is the target GLM fitted on ``refit_design``: for
    ``sglm`` the original design plus the proxy as a last column named
    ``noise_hat``, for a plain fit the original design. Both are None
    for the linear estimators.
    """

    signal_hat: np.ndarray
    noise_hat: np.ndarray
    mu_hat: np.ndarray
    refit: GlmFit | None
    refit_design: Design | None

    @classmethod
    def of_fit(cls, fit: GlmFit, design: Design) -> "Estimate":
        """A plain fit as an estimate: nothing removed, so ``noise_hat`` is zero."""
        return cls(fit.eta, np.zeros(len(fit.eta)), fit.mu, fit, design)


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
    resid = y2 - _fitted(base, y2)
    keep = np.linalg.norm(resid, axis=0) > 1e-9 * np.maximum(1.0, np.linalg.norm(y2, axis=0))
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


def residual_matrix(panel: Panel, fits: list[GlmFit], kind: str) -> np.ndarray:
    """Residuals of one kind, a column per series, from one fit per series.

    Each column depends only on its own series and fit, so the first q
    columns of a wider panel's matrix are bitwise the matrix of its
    first q series.
    """
    cols = [
        res.compute(kind, fits[j], panel.responses[:, j], design=panel.design)
        for j in range(panel.q)
    ]
    return np.column_stack(cols)


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
) -> np.ndarray:
    """The ``strategy``'s noise proxy from the residual matrix ``resid``.

    For ``regression``, the target residuals' fit on ``[base, shared]``
    minus their fit on ``base`` (the intercept, plus the non-constant
    covariates when ``include_x``) is, by the Frisch-Waugh-Lovell theorem,
    their projection on the shared component, both residualised on
    ``base``. The checks of ``[base, shared]`` keep their order: ``base``'s
    (in ``ols``), rows, rank.
    """
    m = resid.shape[0]
    r1 = resid[:, target]
    aux = np.delete(resid, target, axis=1)

    if strategy == MEAN_OF_RESIDUALS:
        nhat = aux.mean(axis=1)
        return nhat - nhat.mean()
    if strategy != REGRESSION:
        raise ValueError(
            f"unknown noise strategy {strategy!r}; expected one of {NOISE_STRATEGIES}"
        )

    xc = _nonconstant_columns(x) if include_x else np.empty((m, 0))
    base = np.column_stack([np.ones(m), xc])
    both = np.column_stack([_shared_component(aux), r1])
    shared, r = (both - _fitted(base, both)).T
    _check_rows((m, base.shape[1] + 1))
    # bounds on the diagonal of the QR factor of [base, shared]; the last is exact
    if _rank_deficient(np.append(np.linalg.norm(base, axis=0), np.linalg.norm(shared))):
        raise SingularDesignError(_RANK_DEFICIENT)
    return shared * ((shared @ r) / (shared @ shared))


def sglm_denoise(
    panel: Panel,
    residual_kind: str = res.FISHER,
    include_x: bool = False,
    strategy: str = REGRESSION,
) -> Estimate:
    """Full staged pipeline: noise proxy, refit, denoised signal.

    Fits one GLM per series on the shared design, computes residuals of
    the chosen kind (``residual_matrix``) and hands them to
    ``denoise_all`` for the proxy and the refit, raising its error.
    """
    fits = fit_glms(panel.design, panel.responses, panel.family)
    resid = residual_matrix(panel, fits, residual_kind)
    (outcome,) = denoise_all([(panel, resid)], include_x, strategy)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def denoise_all(
    requests: list[tuple[Panel, np.ndarray]],
    include_x: bool = False,
    strategy: str = REGRESSION,
) -> list[Estimate | Exception]:
    """Steps 3 and 4 for each ``(panel, resid)`` request: noise proxy,
    refit, denoised signal.

    ``resid`` holds the panel's residuals of one kind, a column per
    series, computed from one GLM fit per series. The ``regression``
    strategy condenses the auxiliary residual columns into their shared
    component (see ``_shared_component``; with one auxiliary this is
    just its centered residual), regresses the target residuals on it
    (plus covariates when ``include_x``), and takes the difference
    between that fit and the baseline fit as the proxy, which is mean
    zero by construction. By the Frisch-Waugh-Lovell theorem that
    difference is one projection, from one least-squares fit per request
    (see ``_noise_from_residuals``). The ``mean_of_residuals`` strategy
    instead averages the auxiliary residual columns and centers the
    result; it is only sensible when every series loads on the noise with
    the same sign.

    The target is then refitted on the panel's design plus the proxy as a
    last column named ``noise_hat``; the covariate-only part of the refit
    linear predictor is the denoised signal. The panels share one family
    and one design shape, and each takes its own target. All refits go
    through one ``glm._fit_rows`` call, so each is bitwise the target's
    lone ``fit_glm`` on that design. Returns, in request order, each
    request's ``Estimate`` or the exception its proxy, refit design or
    refit raised. An error ``_fit_rows`` raises for the whole call (a
    Gamma design with no constant column) reaches the caller.
    """
    outcomes: list[Estimate | Exception | None] = [None] * len(requests)
    staged = []
    for i, (panel, resid) in enumerate(requests):
        try:
            if resid.shape != panel.responses.shape:
                raise ValueError(f"residuals of shape {resid.shape} do not match the panel")
            nhat = _noise_from_residuals(
                resid, panel.target_index, panel.design.x, include_x, strategy
            )
            design = Design(
                np.column_stack([panel.design.x, nhat]),
                (*panel.design.column_names, "noise_hat"),
            )
        except Exception as exc:
            outcomes[i] = exc
            continue
        staged.append((i, panel, nhat, design))
    if not staged:
        return outcomes
    refits = _fit_rows(
        np.stack([design.x for *_, design in staged]),
        np.stack([panel.responses[:, panel.target_index] for _, panel, *_ in staged]),
        staged[0][1].family,
    )
    for (i, panel, nhat, design), refit in zip(staged, refits):
        if isinstance(refit, Exception):
            outcomes[i] = refit
        else:
            signal_hat = panel.design.x @ refit.beta[: panel.design.p]
            outcomes[i] = Estimate(signal_hat, nhat, refit.mu, refit, design)
    return outcomes
