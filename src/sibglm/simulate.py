"""Seeded synthetic panels with shared latent noise and full ground truth.

Each of ``q`` response series is driven by a shared scalar covariate and
a shared latent noise term, both uniform on [-1, 1] per observation. The
natural parameter of series ``j`` at row ``i`` is

    theta[i, j] = x_coefs[j] * x[i] + noise_coefs[j] * noise[i] + eps[i, j]

plus, for the Gamma family only, a fixed negative shift that keeps every
natural parameter inside the domain. Per-series coefficient draws come
from dedicated child streams of the master seed, so sweeps over ``q``
are paired: the first min(q, q') series are identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import GAMMA, Family
from .glm import design_with_intercept
from .sibling import Estimate, Panel

W_X_LOW, W_X_HIGH = 0.5, 1.5
GAMMA_THETA_SHIFT = -3.5

NOISE_COEF_SCHEMES = ("uniform", "zero", "one")


class GenerationError(RuntimeError):
    """The generated natural parameters left the family domain; ``truth``
    holds the series drawn before the failing one."""

    def __init__(self, message, truth=None):
        super().__init__(message)
        self.truth = truth


@dataclass(frozen=True)
class SimConfig:
    family: Family
    m: int
    q: int
    sigma_eps: float = 0.1
    seed: int = 0
    noise_coefficient_scheme: str = "uniform"

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("need m >= 2 observations")
        if self.q < 2:
            raise ValueError("need q >= 2 series")
        if self.sigma_eps < 0:
            raise ValueError("sigma_eps must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.noise_coefficient_scheme not in NOISE_COEF_SCHEMES:
            raise ValueError(
                f"unknown noise coefficient scheme {self.noise_coefficient_scheme!r}"
            )


@dataclass(frozen=True)
class SimTruth:
    """Generated panel plus every latent quantity needed for scoring.

    ``signal`` holds the covariate-driven part x_coefs[j] * x[i] without
    the Gamma domain shift; ``theta`` is the full natural parameter
    including the shift, so ``theta = signal + noise_coefs * noise + eps
    + theta_shift`` holds exactly as generated.
    """

    x: np.ndarray
    noise: np.ndarray
    x_coefs: np.ndarray
    noise_coefs: np.ndarray
    eps: np.ndarray
    signal: np.ndarray
    theta: np.ndarray
    y: np.ndarray
    theta_shift: float


def correlation(a, b) -> float:
    """Pearson correlation of ``a`` and ``b``, clipped to [-1, 1]; NaN when
    either is constant."""
    a = np.asarray(a, dtype=float) - np.mean(a)
    b = np.asarray(b, dtype=float) - np.mean(b)
    aa, bb = a @ a, b @ b
    if aa > 0.0 and bb > 0.0:
        return float(np.clip((a @ b) / np.sqrt(aa * bb), -1.0, 1.0))
    return float("nan")


@dataclass(frozen=True)
class MetricsRecord:
    mse: float
    bias: float
    noise_corr: float

    @classmethod
    def score(
        cls, signal_hat, noise_hat, w_hat, true_signal, true_noise, w_true
    ) -> "MetricsRecord":
        """Score one estimate; the one formula behind every reported metric.

        ``mse`` is the mean squared gap between the estimated and the true
        covariate-driven natural parameter; ``bias`` the relative error
        (w_hat - w_true) / w_true of the covariate coefficient; and
        ``noise_corr`` the Pearson correlation of the noise proxy with the
        true noise. Each is NaN where it is undefined: a missing (None)
        input, a zero true coefficient, or a constant proxy or noise.
        """
        mse = bias = noise_corr = float("nan")
        if true_signal is not None:
            if signal_hat.shape != true_signal.shape:
                raise ValueError("estimate length does not match the truth")
            mse = float(np.mean((signal_hat - true_signal) ** 2))
        if w_hat is not None and w_true is not None and w_true != 0.0:
            bias = (w_hat - w_true) / w_true
        if true_noise is not None:
            noise_corr = correlation(noise_hat, true_noise)
        return cls(mse=mse, bias=bias, noise_corr=noise_corr)


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def replicate_seed(master_seed: int, index: int) -> int:
    """Deterministic child seed for replicate ``index`` of a study."""
    return int(_stream(master_seed, 9, index).integers(0, 2**63 - 1))


def generate(config: SimConfig) -> SimTruth:
    """Draw one panel. Bit-identical for identical configs. A series that
    leaves the domain raises ``GenerationError`` with the series before it,
    bitwise the panel at that q, since each series has its own streams."""
    m, q = config.m, config.q
    family = config.family

    x = _stream(config.seed, 0).uniform(-1.0, 1.0, m)
    noise = _stream(config.seed, 1).uniform(-1.0, 1.0, m)
    shift = GAMMA_THETA_SHIFT if family.kind == GAMMA else 0.0

    x_coefs = np.empty(q)
    noise_coefs = np.empty(q)
    eps = np.empty((m, q))
    theta = np.empty((m, q))
    y = np.empty((m, q))

    def first(n: int) -> SimTruth:
        return SimTruth(
            x=x, noise=noise, x_coefs=x_coefs[:n], noise_coefs=noise_coefs[:n],
            eps=eps[:, :n], signal=x_coefs[None, :n] * x[:, None], theta=theta[:, :n],
            y=y[:, :n], theta_shift=shift,
        )

    for j in range(q):
        rng = _stream(config.seed, 2, j)
        x_coefs[j] = rng.uniform(W_X_LOW, W_X_HIGH)
        w_n = rng.uniform(-1.0, 1.0)
        if config.noise_coefficient_scheme == "zero":
            w_n = 0.0
        elif config.noise_coefficient_scheme == "one":
            w_n = 1.0
        noise_coefs[j] = w_n
        eps[:, j] = rng.normal(0.0, config.sigma_eps, m)
        theta[:, j] = x_coefs[j] * x + w_n * noise + eps[:, j] + shift
        if not family.in_domain(theta[:, j]):
            bad = int(np.argmax(~(theta[:, j] < 0.0)))
            raise GenerationError(
                f"series {j}, row {bad}: natural parameter "
                f"{theta[bad, j]:.4f} outside the {family.kind} domain",
                first(j),
            )
        y[:, j] = family.sample(theta[:, j], rng)
    return first(q)


def to_panel(truth: SimTruth, family: Family, target_index: int = 0) -> Panel:
    """View a generated truth as an estimation panel ([intercept, x] design)."""
    return Panel(
        design=design_with_intercept(truth.x, names=("x",)),
        responses=truth.y,
        family=family,
        target_index=target_index,
    )


def metrics(truth: SimTruth, estimate: Estimate, target_index: int = 0) -> MetricsRecord:
    """Score an estimate against the generating truth with ``MetricsRecord.score``.

    A plain fit's zero ``noise_hat`` scores ``noise_corr`` as NaN, and an
    estimate without a ``refit`` (a linear estimator) has no ``bias``.
    The true signal includes the domain shift; the coefficient is the one
    at index 1, the ``x`` column of the standard [intercept, x] design.
    """
    refit = estimate.refit
    return MetricsRecord.score(
        estimate.signal_hat,
        estimate.noise_hat,
        None if refit is None else float(refit.beta[1]),
        truth.signal[:, target_index] + truth.theta_shift,
        truth.noise,
        float(truth.x_coefs[target_index]),
    )
