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
it; a study makes one call for every cell and replicate of a block. Each
cell denoises its panel's own target among the panel's first q series.
The linear sibling estimators operate on log1p-transformed responses for
the Poisson and Gamma families (the standard count transformation the
comparison is about) and on the raw responses otherwise; they estimate
the denoised series directly, so only MSE and the noise correlation are
defined for them.

``estimates`` makes one pass. One ``_by_group`` call stacks the small
least-squares work of the call: the ``sglm`` proxies of one target and
residual and baseline shape come from one ``_proxies`` call; the linear
estimates of one estimator, target, q, m and baseline width from one
``_linear`` call, which makes one least-squares call on the baseline
columns and one on the full designs for each number of sibling columns a
request keeps. Every product and solve in a stack is the lone call's,
one BLAS or LAPACK call per request with the same shapes and strides, so
each request's output is bitwise its lone call's whatever the stack, and
a failing request gets its own exception. All ``sglm`` refits then go
through one ``glm._fit_rows`` call. ``half_sibling`` and
``three_quarter_sibling`` are the stacks of one. Residuals are computed
series by series (``residuals.columns``).
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

import numpy as np

from .families import GAMMA, POISSON, Family
# fit_glm is unused here, but perfbench/tracing.py patches sibling.fit_glm
from .glm import Design, GlmFit, SingularDesignError, _fit_rows, _rank_deficient, fit_glm
from .glm import _RANK_DEFICIENT, _check_rows, _check_support, _deficient_designs, _for_series
from .glm import _keep_rows, _rows_times
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


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Equal-shape arrays as one stack; a lone array's stack is a view, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _by_group(outcomes: list, indices, key, run) -> list:
    """Put each of ``indices``' outcome in ``outcomes`` and return it. The
    indices are grouped by ``key`` (in order, groups by first appearance);
    ``run(group)`` lists a group's outcomes, and an exception it raises
    goes, copied, to each member."""
    groups: dict = {}
    for i in indices:
        groups.setdefault(key(i), []).append(i)
    for group in groups.values():
        try:
            values = run(group)
        except Exception as exc:
            values = [copy.copy(exc) for _ in group]
        for i, value in zip(group, values):
            outcomes[i] = value
    return outcomes


def _outcomes(ok: np.ndarray, values, error: Exception) -> list:
    """In order, the next of ``values`` where ``ok`` holds and a copy of ``error`` elsewhere."""
    values = iter(values)
    return [next(values) if good else copy.copy(error) for good in ok]


def _least_squares(x: np.ndarray, *ys: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """``x[i] @ ols(x[i], y[i])`` for each design of the k x m x w stack ``x``
    and each stack ``y`` of ``ys`` (k x m vectors or k x m x n matrices).

    ``ols``' row check raises for the stack. Returns which designs pass its
    rank test, and each fitted stack at those designs. Every product and
    solve is that of the lone call, one LAPACK or BLAS call per design with
    the same shapes and strides, so each result is bitwise the lone one
    whatever the stack.
    """
    _check_rows(x.shape[1:])
    q, r = np.linalg.qr(x)
    ok = ~_rank_deficient(np.diagonal(r, axis1=1, axis2=2))
    x, q, r = _keep_rows(ok, x, q, r)
    qt = q.swapaxes(1, 2)
    fitted = []
    for y in _keep_rows(ok, *(np.ascontiguousarray(y) for y in ys)):
        if y.ndim == 2:
            coef = np.linalg.solve(r, np.matvec(qt, y)[:, :, None])[:, :, 0]
            fitted.append(np.matvec(x, coef))
        else:
            fitted.append(x @ np.linalg.solve(r, qt @ y))
    return ok, fitted


def _base(x: np.ndarray, with_x: bool) -> np.ndarray:
    """The intercept, and the columns of ``x`` with any variation when
    ``with_x`` (constants duplicate the intercept)."""
    m = x.shape[0]
    if not with_x:
        return np.ones((m, 1))
    return np.column_stack([np.ones(m), x[:, np.ptp(x, axis=0) > 0.0]])


def _one(outcomes: list):
    """The outcome of a stack of one, raised when it is an exception."""
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _kept(y2: np.ndarray, fitted: np.ndarray) -> np.ndarray:
    """Which sibling columns of each request of a stack are not already
    explained by its base columns, given their fits on them.

    A sibling column that is (numerically) a linear combination of the
    conditioning set carries no extra information: the conditional and
    unconditional regressions coincide, so it is dropped rather than
    breaking the fit with a rank-deficient matrix.
    """
    resid = y2 - fitted
    return np.linalg.norm(resid, axis=1) > 1e-9 * np.maximum(1.0, np.linalg.norm(y2, axis=1))


def _linear(estimator: str, y1: np.ndarray, y2: np.ndarray, base: np.ndarray) -> list:
    """``half_sibling`` or ``three_quarter_sibling`` for a stack of requests:
    targets ``y1`` (k x m), siblings ``y2`` (k x m x a) and base columns
    (k x m x w; the intercept, plus the non-constant covariates for
    ``THREE_QUARTER``). Returns each request's signal, bitwise its lone
    call's whatever the stack, or its exception; ``ols``' row error on the
    base is raised for the stack.

    Each request keeps the siblings ``_kept`` keeps, and the
    requests that keep equally many share one least-squares call.
    """
    y1, y2 = np.ascontiguousarray(y1), np.ascontiguousarray(y2)
    ok, fitted = _least_squares(base, y2, *([y1] if estimator == THREE_QUARTER else []))
    y1, y2, base = _keep_rows(ok, y1, y2, base)
    kept = _kept(y2, fitted[0])
    rank_error = SingularDesignError(_RANK_DEFICIENT)

    def run(group):
        full = _stack([np.column_stack([base[j], y2[j][:, kept[j]]]) for j in group])
        full_ok, (fitted_full,) = _least_squares(full, y1[group])
        rows = np.asarray(group)[full_ok]
        if estimator == THREE_QUARTER:
            restored = fitted[1][rows]
        else:
            restored = y1[rows].mean(axis=1)[:, None]
        return _outcomes(full_ok, y1[rows] - fitted_full + restored, rank_error)

    signals = _by_group([None] * len(y1), range(len(y1)), lambda j: kept[j].sum(), run)
    return _outcomes(ok, signals, rank_error)


def half_sibling(y1, y2) -> np.ndarray:
    """Denoise ``y1`` using sibling series that share only the noise.

    Removes the part of ``y1`` that a least-squares regression on ``y2``
    explains and restores the mean, so the output mean equals the input
    mean by construction.
    """
    y1 = np.asarray(y1, dtype=float)
    return _one(_linear(HALF_SIBLING, y1[None], _as_columns(y2)[None], np.ones((1, len(y1), 1))))


def three_quarter_sibling(x, y1, y2) -> np.ndarray:
    """Sibling denoising when the series also share observed covariates.

    Both conditional expectations are least-squares fits with intercept;
    ``x`` columns with no variation are dropped (conditioning on a
    constant is conditioning on nothing).
    """
    y1 = np.asarray(y1, dtype=float)
    base = _base(_as_columns(x), True)
    return _one(_linear(THREE_QUARTER, y1[None], _as_columns(y2)[None], base[None]))


def _shared_components(aux: np.ndarray) -> np.ndarray:
    """Combine each m x a matrix of a k x m x a stack of centered auxiliary
    residuals along its shared direction.

    Each auxiliary residual series carries the common noise scaled by its
    own (unknown, possibly negative) coefficient plus independent
    variation, so the noise direction is the leading factor of the
    between-series covariance. Power iteration on that covariance with
    the diagonal removed recovers the loading vector without ever
    touching the target series; loadings are then divided by each
    series' total residual variance so that noisy low-information series
    contribute less. With a single auxiliary this reduces to the
    centered residual itself. Each request stops its power iteration on
    its own, so each result is bitwise its stack of one's.
    """
    k, m, a = aux.shape
    centered = aux - aux.mean(axis=1)[:, None, :]
    if a == 1:
        return centered[:, :, 0]
    cov = centered.swapaxes(1, 2) @ centered / m
    diagonal = np.diagonal(cov, axis1=1, axis2=2)
    # subtract the diagonal as a matrix, as the lone call did
    on_diagonal = np.zeros_like(cov)
    on_diagonal[:, range(a), range(a)] = diagonal
    off = cov - on_diagonal
    u = np.ones((k, a)) / np.sqrt(a)
    for _ in range(8):
        v = np.matvec(off, u)
        norm = np.sqrt(_rows_times(v, v[:, :, None]))
        # a request whose step is negligible keeps its vector, as the lone call stops
        going = ~(norm < 1e-12)
        if not going.any():
            break
        u = np.where(going, v / np.where(going, norm, 1.0), u)
    weights = u / np.maximum(diagonal, 1e-12)
    return np.matvec(centered, weights)


def _check_strategy(strategy: str) -> None:
    if strategy not in NOISE_STRATEGIES:
        raise ValueError(
            f"unknown noise strategy {strategy!r}; expected one of {NOISE_STRATEGIES}"
        )


def _proxies(resid: np.ndarray, target: int, base: np.ndarray, strategy: str) -> list:
    """The noise proxies of a k x m x q stack of residual matrices with one
    target, and the k x m x w stack of their base columns (the intercept,
    plus the non-constant covariates when step 3 takes them).

    For ``regression``, the target residuals' fit on ``[base, shared]``
    minus their fit on ``base`` is, by the Frisch-Waugh-Lovell theorem,
    their projection on the shared component, both residualised on
    ``base``. The checks of ``[base, shared]`` keep their order: ``base``'s
    (in ``ols``), rows, rank. Returns each request's proxy, bitwise its
    lone call's whatever the stack, or its exception; an unknown strategy
    and ``ols``' row error on the base are raised for the stack.
    """
    aux = np.delete(resid, target, axis=2)
    _check_strategy(strategy)
    if strategy == MEAN_OF_RESIDUALS:
        nhat = aux.mean(axis=2)
        return list(nhat - nhat.mean(axis=1, keepdims=True))

    both = np.stack([_shared_components(aux), resid[:, :, target]], axis=2)
    ok, (fitted,) = _least_squares(base, both)
    rank_error = SingularDesignError(_RANK_DEFICIENT)
    try:
        _check_rows((base.shape[1], base.shape[2] + 1))
    except SingularDesignError as exc:
        return [copy.copy(exc if good else rank_error) for good in ok]
    base, both = _keep_rows(ok, base, both)
    shared, r = (both - fitted).transpose(2, 0, 1)
    # bounds on the diagonal of the QR factor of [base, shared]; the last is exact
    contiguous = np.ascontiguousarray(shared)
    squares = _rows_times(contiguous, contiguous[:, :, None])[:, 0]
    norms = np.column_stack([np.linalg.norm(base, axis=1), np.sqrt(squares)])
    singular = _rank_deficient(norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = _rows_times(shared, r[:, :, None]) / _rows_times(shared, shared[:, :, None])
        proxies = shared * slopes
    values = [copy.copy(rank_error) if bad else proxy for bad, proxy in zip(singular, proxies)]
    return _outcomes(ok, values, rank_error)


@dataclass(frozen=True)
class CellSpec:
    """One estimator run, and one study cell: a (q, estimator, residual kind)
    combination on the first q series of a panel."""

    q: int
    estimator: str
    residual_kind: str = res.FISHER

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("q_grid entries must be >= 2 (target plus auxiliaries)")


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
    and the exception of the next one, if it raised (``residuals.columns``)."""
    rows = _needed({c.estimator for c in cells}, panel.q, panel.target_index)
    if rows and _deficient_designs(panel.design.x):
        raise SingularDesignError(_RANK_DEFICIENT)
    ys = np.ascontiguousarray(panel.responses.T[rows.start : rows.stop])
    fits = dict(zip(rows, _fit_rows(panel.design.x, ys, panel.family))) if rows else {}
    leading = list(itertools.takewhile(lambda fit: isinstance(fit, GlmFit), fits.values()))
    fitted_ys = panel.responses[:, : len(leading)]
    kinds = {c.residual_kind for c in cells if c.estimator == SGLM}
    residuals = {kind: res.columns(kind, leading, fitted_ys, panel.design) for kind in kinds}
    return fits, residuals


def _failure(spec: CellSpec, step) -> Exception | None:
    """What fails ``spec`` on a step ``(panel, fits, residuals, error)``, in
    the order its own pipeline meets it: one of its q series not made
    (``error``, or a ``ValueError`` if none), the panel's target not among
    them, a fit its estimator needs, named as ``fit_glms`` names it (on a
    copy, since one exception serves several specs), a residual of its
    kind, an unknown estimator."""
    panel, fits, residuals, error = step
    if panel is None:
        return error
    if panel.q < spec.q:
        return error or ValueError(f"the cell needs q={spec.q} series, the panel has {panel.q}")
    if panel.target_index >= spec.q:
        t = panel.target_index
        return ValueError(f"target series {t} is not among the cell's q={spec.q} series")
    needed = _needed({spec.estimator}, spec.q, panel.target_index)
    for j in needed:
        if isinstance(fits[j], Exception):
            return _for_series(copy.copy(fits[j]), j, len(needed))
    if spec.estimator == SGLM and residuals[spec.residual_kind][0].shape[1] < spec.q:
        return residuals[spec.residual_kind][1]
    if spec.estimator not in ESTIMATORS:
        return ValueError(f"unknown estimator {spec.estimator!r}")
    return None


def estimates(
    pairs: list[tuple[CellSpec, tuple]], include_x: bool = False, strategy: str = REGRESSION
) -> list[Estimate | Exception]:
    """Each ``(spec, step)`` pair's ``Estimate``, or the exception that fails it.

    A step ``(panel, fits, residuals, error)`` holds a panel, the
    ``_fit_step`` of its specs on it, and the error that cut its series
    short, if any. A pair with a ``_failure`` gets it, and a ``glm`` pair
    takes its target's fit. Every spec denoises the panel's own target
    among its first q series.

    The other pairs take their arrays from the step: an ``sglm`` pair the
    first q columns of its residual matrix and its base columns (the
    intercept, plus the non-constant covariates when ``include_x``); a
    linear pair its target and siblings among the first q series, on the
    working scale (made once per panel), and its base columns (the
    intercept, plus the non-constant covariates for ``THREE_QUARTER``).
    The pairs of one estimator, target and array shapes form a group, and
    one ``_by_group`` call gives each group's stack to ``_proxies`` or
    ``_linear``, so each outcome is bitwise its lone call's.

    Step 3's ``regression`` proxy is the projection of the target's
    residuals on the shared component of its auxiliaries' residuals
    (``_shared_components``), both residualised on the base columns;
    ``mean_of_residuals`` centers the auxiliaries' mean residual, which is
    only sensible when every series loads on the noise with the same sign.
    In step 4 the target is refitted on its design plus the proxy as a
    last column named ``noise_hat``, and the covariate-only part of the
    refit linear predictor is the denoised signal. The panels share one
    family and one design shape, and all refits go through one
    ``glm._fit_rows`` call, so each is bitwise the target's lone
    ``fit_glm`` on that design; an error that call raises for the whole
    stack (a Gamma design with no constant column) reaches the caller.
    """
    outcomes = [_failure(spec, step) for spec, step in pairs]
    panels = [panel for _, (panel, *_) in pairs]
    made: dict[int, tuple] = {}
    arrays: dict[int, tuple] = {}
    for i, (spec, (panel, fits, residuals, _)) in enumerate(pairs):
        if outcomes[i] is not None:
            continue
        t = panel.target_index
        if spec.estimator == GLM_ESTIMATOR:
            outcomes[i] = Estimate.of_fit(fits[t], panel.design)
        elif spec.estimator == SGLM:
            resid = residuals[spec.residual_kind][0][:, : spec.q]
            arrays[i] = resid, _base(panel.design.x, include_x)
        else:
            if id(panel) not in made:
                logged = panel.family.kind in (POISSON, GAMMA)
                # the design's intercept is constant, so the three-quarter estimator drops it
                ty = np.log1p(panel.responses) if logged else panel.responses
                made[id(panel)] = ty, _base(panel.design.x, True), logged
            ty, x_base, _ = made[id(panel)]
            ty = ty[:, : spec.q]
            base = x_base if spec.estimator == THREE_QUARTER else np.ones((panel.m, 1))
            arrays[i] = ty[:, t], np.delete(ty, t, axis=1), base

    def key(i):
        return pairs[i][0].estimator, panels[i].target_index, *(a.shape for a in arrays[i])

    def run(group):
        stacks = [_stack(parts) for parts in zip(*(arrays[i] for i in group))]
        estimator = pairs[group[0]][0].estimator
        if estimator == SGLM:
            return _proxies(stacks[0], panels[group[0]].target_index, stacks[1], strategy)
        return _linear(estimator, *stacks)

    _by_group(outcomes, list(arrays), key, run)
    staged = []
    for i in arrays:
        panel, value = panels[i], outcomes[i]
        if isinstance(value, Exception):
            continue
        if pairs[i][0].estimator != SGLM:
            mu_hat = np.expm1(value) if made[id(panel)][2] else value
            outcomes[i] = Estimate(value, arrays[i][0] - value, mu_hat, None, None)
            continue
        try:
            x, names = np.column_stack([panel.design.x, value]), panel.design.column_names
            staged.append((i, value, Design(x, (*names, "noise_hat"))))
        except Exception as exc:
            outcomes[i] = exc
    # free the linear inputs before the refits build their stacks
    arrays.clear()
    made.clear()
    if not staged:
        return outcomes
    refits = _fit_rows(
        np.stack([design.x for *_, design in staged]),
        np.stack([panels[i].responses[:, panels[i].target_index] for i, *_ in staged]),
        panels[staged[0][0]].family,
    )
    for (i, nhat, design), refit in zip(staged, refits):
        if isinstance(refit, Exception):
            outcomes[i] = refit
        else:
            signal_hat = panels[i].design.x @ refit.beta[: panels[i].design.p]
            outcomes[i] = Estimate(signal_hat, nhat, refit.mu, refit, design)
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
