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

``estimates`` is the one place that branches on the estimator, and
``_fit_step`` decides which GLM fits and residuals it needs. The
``denoise`` command's ``run_estimator`` makes one ``(spec, step)`` pair of
it; a study makes one call for every cell and replicate of a block. The
linear sibling estimators operate on log1p-transformed responses for the
Poisson and Gamma families (the standard count transformation the
comparison is about) and on the raw responses otherwise; they estimate
the denoised series directly, so only MSE and the noise correlation are
defined for them.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .families import GAMMA, POISSON, Family
# fit_glm is unused here, but perfbench/tracing.py patches sibling.fit_glm
from .glm import Design, GlmFit, SingularDesignError, _fit_rows, _rank_deficient, fit_glm, ols
from .glm import _RANK_DEFICIENT, _check_rows, _check_support, _deficient_designs, _for_series
from . import residuals as res

REGRESSION = "regression"
MEAN_OF_RESIDUALS = "mean_of_residuals"

NOISE_STRATEGIES = (REGRESSION, MEAN_OF_RESIDUALS)

GLM_ESTIMATOR = "glm"
HALF_SIBLING = "half_sibling"
THREE_QUARTER = "three_quarter"
SGLM = "sglm"

ESTIMATORS = (GLM_ESTIMATOR, HALF_SIBLING, THREE_QUARTER, SGLM)


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
        _check_support(self.family, y)

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


def _check_strategy(strategy: str) -> None:
    if strategy not in NOISE_STRATEGIES:
        raise ValueError(
            f"unknown noise strategy {strategy!r}; expected one of {NOISE_STRATEGIES}"
        )


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

    _check_strategy(strategy)
    if strategy == MEAN_OF_RESIDUALS:
        nhat = aux.mean(axis=1)
        return nhat - nhat.mean()

    xc = _nonconstant_columns(x) if include_x else np.empty((m, 0))
    base = np.column_stack([np.ones(m), xc])
    both = np.column_stack([_shared_component(aux), r1])
    shared, r = (both - _fitted(base, both)).T
    _check_rows((m, base.shape[1] + 1))
    # bounds on the diagonal of the QR factor of [base, shared]; the last is exact
    if _rank_deficient(np.append(np.linalg.norm(base, axis=0), np.linalg.norm(shared))):
        raise SingularDesignError(_RANK_DEFICIENT)
    return shared * ((shared @ r) / (shared @ shared))


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


@dataclass(frozen=True)
class CellSpec:
    """One estimator run, and one study cell: a (q, estimator, residual kind)
    combination on the first q series of a panel."""

    q: int
    estimator: str
    residual_kind: str = res.FISHER


def _needed(estimators: set[str], q: int, target: int) -> range:
    """The series among the first q whose first fits ``estimators`` need."""
    if SGLM in estimators:
        return range(q)
    return range(target, target + 1) if GLM_ESTIMATOR in estimators else range(0)


def _fit_step(panel: Panel, cells: list[CellSpec]) -> tuple[dict, dict]:
    """The first fits and residuals the cells need on ``panel``, per series:
    after ``fit_glms``' design check, one ``_fit_rows`` call gives each series
    ``_needed`` names, by index, a ``GlmFit`` or an exception, and each
    ``sglm`` residual kind a matrix of the leading fitted series' columns
    and the exception of the next one, if it raised."""
    rows = _needed({c.estimator for c in cells}, panel.q, panel.target_index)
    if rows and _deficient_designs(panel.design.x):
        raise SingularDesignError(_RANK_DEFICIENT)
    ys = np.ascontiguousarray(panel.responses.T[rows.start : rows.stop])
    fits = dict(zip(rows, _fit_rows(panel.design.x, ys, panel.family))) if rows else {}
    residuals = {}
    for kind in {c.residual_kind for c in cells if c.estimator == SGLM}:
        columns, error = [np.empty((panel.m, 0))], None  # stacks to m x 0 with no column
        for j, fit in fits.items():
            if not isinstance(fit, GlmFit):
                break
            try:
                columns.append(res.compute(kind, fit, panel.responses[:, j], design=panel.design))
            except ValueError as exc:
                error = exc
                break
        residuals[kind] = np.column_stack(columns), error
    return fits, residuals


def _failure(spec: CellSpec, step) -> Exception | None:
    """What fails ``spec`` on a step ``(panel, fits, residuals, error)``, in
    the order its own pipeline meets it: one of its q series not made
    (``error``), a fit its estimator needs, named as ``fit_glms`` names it (on
    a copy, since one exception serves several specs), a residual of its kind."""
    panel, fits, residuals, error = step
    if panel is None or panel.q < spec.q:
        return error
    needed = _needed({spec.estimator}, spec.q, panel.target_index)
    for j in needed:
        if isinstance(fits[j], Exception):
            return _for_series(copy.copy(fits[j]), j, len(needed))
    if spec.estimator == SGLM and residuals[spec.residual_kind][0].shape[1] < spec.q:
        return residuals[spec.residual_kind][1]
    return None


def _cell_panel(panel: Panel, q: int) -> Panel:
    """The panel of the first ``q`` series."""
    if panel.q == q:
        return panel
    return Panel(panel.design, panel.responses[:, :q], panel.family)


def _request(spec: CellSpec, step):
    """The ``denoise_all`` request of an ``sglm`` spec: its q series and their residuals."""
    panel, _, residuals, _ = step
    return _cell_panel(panel, spec.q), residuals[spec.residual_kind][0][:, : spec.q]


def _unbatched(spec: CellSpec, step) -> Estimate:
    """The ``glm`` or linear estimate of ``spec`` on a step it has no ``_failure`` on."""
    panel, fits, _, _ = step
    t = panel.target_index
    if spec.estimator == GLM_ESTIMATOR:
        return Estimate.of_fit(fits[t], panel.design)
    panel = _cell_panel(panel, spec.q)
    logged = panel.family.kind in (POISSON, GAMMA)
    ty = np.log1p(panel.responses) if logged else panel.responses
    aux = np.delete(ty, t, axis=1)
    if spec.estimator == HALF_SIBLING:
        signal_hat = half_sibling(ty[:, t], aux)
    elif spec.estimator == THREE_QUARTER:
        # the design's intercept is constant, so the estimator drops it
        signal_hat = three_quarter_sibling(panel.design.x, ty[:, t], aux)
    else:
        raise ValueError(f"unknown estimator {spec.estimator!r}")
    mu_hat = np.expm1(signal_hat) if logged else signal_hat
    return Estimate(signal_hat, ty[:, t] - signal_hat, mu_hat, None, None)


def estimates(
    pairs: list[tuple[CellSpec, tuple]], include_x: bool = False, strategy: str = REGRESSION
) -> list[Estimate | Exception]:
    """Each ``(spec, step)`` pair's ``Estimate``, or the exception that fails it.

    A step ``(panel, fits, residuals, error)`` holds a panel, the
    ``_fit_step`` of its specs on it, and the error that cut its series
    short, if any. A pair with a ``_failure`` gets it; the other ``sglm``
    pairs go through one ``denoise_all`` call, and every other pair runs
    its estimator alone.
    """
    outcomes = [_failure(spec, step) for spec, step in pairs]
    batched = [
        i for i, (spec, _) in enumerate(pairs) if outcomes[i] is None and spec.estimator == SGLM
    ]
    refits = denoise_all([_request(*pairs[i]) for i in batched], include_x, strategy)
    for i, refit in zip(batched, refits):
        outcomes[i] = refit
    for i, (spec, step) in enumerate(pairs):
        if outcomes[i] is None:
            try:
                outcomes[i] = _unbatched(spec, step)
            except Exception as exc:
                outcomes[i] = exc
    return outcomes


def run_estimator(
    panel: Panel,
    estimator: str,
    residual_kind: str = res.FISHER,
    include_x: bool = False,
    strategy: str = REGRESSION,
) -> Estimate:
    """Denoise the panel's target series with one of ``ESTIMATORS``, raising
    the exception that fails it; ``residual_kind``, ``include_x`` and
    ``strategy`` apply to ``sglm``."""
    spec = CellSpec(panel.q, estimator, residual_kind)
    (outcome,) = estimates([(spec, (panel, *_fit_step(panel, [spec]), None))], include_x, strategy)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def sglm_denoise(
    panel: Panel,
    residual_kind: str = res.FISHER,
    include_x: bool = False,
    strategy: str = REGRESSION,
) -> Estimate:
    """The staged pipeline, steps 1 to 4: ``run_estimator`` with ``SGLM``."""
    return run_estimator(panel, SGLM, residual_kind, include_x, strategy)
