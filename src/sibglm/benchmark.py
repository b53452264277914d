"""Replicated simulation studies over estimators, residual kinds, and q.

One replicate draws a panel, runs the requested estimator, and scores it
against the ground truth. Replicate seeds are derived from the master
seed by replicate index only, so runs at different q (or with different
estimators) see the same draws and comparisons are paired.

``run_estimator`` is the one place that runs any of the four estimators;
the ``denoise`` command calls it too. The linear sibling estimators
operate on log1p-transformed responses for the Poisson and Gamma families
(the standard count transformation the comparison is about) and on the
raw responses otherwise; they estimate the denoised series directly, so
only MSE and the noise correlation are defined for them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .families import GAMMA, POISSON, Family
from .glm import Design, GlmFit, fit_glm
from . import residuals as res
from . import sibling
from .simulate import MetricsRecord, SimConfig, generate, metrics, replicate_seed, to_panel

GLM_ESTIMATOR = "glm"
HALF_SIBLING = "half_sibling"
THREE_QUARTER = "three_quarter"
SGLM = "sglm"

ESTIMATORS = (GLM_ESTIMATOR, HALF_SIBLING, THREE_QUARTER, SGLM)

METRIC_NAMES = ("bias", "mse", "noise_corr")


@dataclass(frozen=True)
class CellSpec:
    """One benchmark cell: a (q, estimator, residual kind) combination."""

    family: Family
    m: int
    q: int
    estimator: str
    residual_kind: str = res.FISHER
    sigma_eps: float = 0.1
    include_x: bool = False
    strategy: str = sibling.REGRESSION
    noise_scheme: str = "uniform"
    replicates: int = 100
    master_seed: int = 0


@dataclass
class CellResult:
    spec: CellSpec
    samples: dict[str, np.ndarray] = field(default_factory=dict)
    error: str | None = None
    seconds: float = 0.0

    def mean(self, metric: str) -> float:
        return float(np.mean(self.samples[metric]))

    def stderr(self, metric: str) -> float:
        v = self.samples[metric]
        if len(v) < 2:
            return float("nan")
        return float(np.std(v, ddof=1) / math.sqrt(len(v)))


@dataclass(frozen=True)
class Estimate:
    """One estimator's output for the panel's target series.

    ``signal_hat`` is the denoised estimate, on the natural-parameter scale
    for the GLM estimators and on the working scale for the linear ones;
    ``noise_hat`` is the removed noise (all zeros for ``glm``), and
    ``mu_hat`` the fitted mean. ``fit`` and its ``design`` are the target
    GLM (the refit for ``sglm``) and are None for the linear estimators.
    """

    signal_hat: np.ndarray
    noise_hat: np.ndarray
    mu_hat: np.ndarray
    fit: GlmFit | None
    design: Design | None


def working_scale(family: Family, y: np.ndarray) -> np.ndarray:
    """Observation scale the linear sibling estimators operate on."""
    if family.kind in (POISSON, GAMMA):
        return np.log1p(y)
    return y


def run_estimator(
    panel: sibling.Panel,
    estimator: str,
    residual_kind: str = res.FISHER,
    include_x: bool = False,
    strategy: str = sibling.REGRESSION,
) -> Estimate:
    """Denoise the panel's target series with one of ``ESTIMATORS``.

    ``residual_kind``, ``include_x`` and ``strategy`` apply to ``sglm``.
    """
    family, t = panel.family, panel.target_index
    if estimator == SGLM:
        out = sibling.sglm_denoise(
            panel, residual_kind=residual_kind, include_x=include_x, strategy=strategy
        )
        return Estimate(out.signal_hat, out.noise_hat, out.refit.mu, out.refit, out.refit_design)
    if estimator == GLM_ESTIMATOR:
        fit = fit_glm(panel.design, panel.responses[:, t], family)
        return Estimate(fit.eta, np.zeros(panel.m), fit.mu, fit, panel.design)

    ty = working_scale(family, panel.responses)
    aux = np.delete(ty, t, axis=1)
    if estimator == HALF_SIBLING:
        signal_hat = sibling.half_sibling(ty[:, t], aux)
    elif estimator == THREE_QUARTER:
        # the design's intercept is constant, so the estimator drops it
        signal_hat = sibling.three_quarter_sibling(panel.design.x, ty[:, t], aux)
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    # back from the working scale to the mean
    mu_hat = np.expm1(signal_hat) if family.kind in (POISSON, GAMMA) else signal_hat
    return Estimate(signal_hat, ty[:, t] - signal_hat, mu_hat, None, None)


def evaluate_estimator(truth, family: Family, spec: CellSpec) -> MetricsRecord:
    """Score one estimator on one generated panel."""
    estimate = run_estimator(
        to_panel(truth, family), spec.estimator, spec.residual_kind, spec.include_x, spec.strategy
    )
    return metrics(truth, estimate)


def run_cell(spec: CellSpec) -> CellResult:
    """Run and time all replicates of one cell; per-cell failures are recorded."""
    started = time.perf_counter()
    samples = {name: np.empty(spec.replicates) for name in METRIC_NAMES}
    error = None
    try:
        for r in range(spec.replicates):
            cfg = SimConfig(
                family=spec.family,
                m=spec.m,
                q=spec.q,
                sigma_eps=spec.sigma_eps,
                seed=replicate_seed(spec.master_seed, r),
                noise_coefficient_scheme=spec.noise_scheme,
            )
            rec = evaluate_estimator(generate(cfg), spec.family, spec)
            samples["bias"][r] = rec.bias
            samples["mse"][r] = rec.mse
            samples["noise_corr"][r] = rec.noise_corr
    except Exception as exc:
        samples, error = {}, f"{type(exc).__name__}: {exc}"
    return CellResult(spec, samples, error, seconds=time.perf_counter() - started)
