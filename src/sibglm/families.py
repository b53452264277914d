"""Exponential-family distributions with identity sufficient statistic.

Each family is described through its log-partition function ``A`` on the
natural-parameter scale: the first derivative of ``A`` is the mean, the
second derivative is the per-observation Fisher information. Supported
families are Gaussian (fixed variance), Poisson, Bernoulli, and Gamma
(fixed shape). The Gamma family stores the shape ``k`` in ``dispersion``
and uses the convention ``theta = -k / mu`` so that ``A'(theta) = mu``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

import numpy as np

GAUSSIAN = "gaussian"
POISSON = "poisson"
BERNOULLI = "bernoulli"
GAMMA = "gamma"

FAMILY_KINDS = (GAUSSIAN, POISSON, BERNOULLI, GAMMA)

# log(n!) for the counts n = 0..1023, each the logarithm of the exact integer
# n! (math.lgamma is an ulp off even at small integers: lgamma(3) != log 2)
_LOG_FACTORIALS = np.array([0.0] + [math.log(f) for f in accumulate(range(1, 1024), mul)])


class DomainError(ValueError):
    """A natural parameter, mean, or response is outside the family domain."""


@dataclass(frozen=True)
class Family:
    """Immutable exponential-family descriptor.

    Parameters
    ----------
    kind : str
        One of ``gaussian``, ``poisson``, ``bernoulli``, ``gamma``.
    dispersion : float
        Fixed variance for Gaussian, fixed shape for Gamma. Must be
        exactly 1 for Poisson and Bernoulli.
    """

    kind: str
    dispersion: float = 1.0

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if not np.isfinite(self.dispersion) or self.dispersion <= 0:
            raise ValueError("dispersion must be a positive finite real")
        if self.kind in (POISSON, BERNOULLI) and self.dispersion != 1.0:
            raise ValueError(f"{self.kind} family has fixed dispersion 1")

    # -- natural-parameter domain -------------------------------------

    def domain_mask(self, theta) -> np.ndarray:
        """Entrywise: True where ``theta`` is a valid natural parameter."""
        theta = np.asarray(theta, dtype=float)
        ok = np.isfinite(theta)
        if self.kind == GAMMA:
            ok &= theta < 0.0
        return ok

    def in_domain(self, theta) -> bool:
        """True when every entry of ``theta`` is a valid natural parameter."""
        return bool(np.all(self.domain_mask(theta)))

    def check_domain(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if not self.in_domain(theta):
            raise DomainError(
                f"natural parameter outside the {self.kind} domain"
                + (" (requires theta < 0)" if self.kind == GAMMA else "")
            )
        return theta

    def check_support(self, y) -> np.ndarray:
        """Validate a response vector against the family support."""
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)):
            raise DomainError("response contains non-finite values")
        if self.kind == POISSON and np.any(y < 0):
            raise DomainError("poisson response must be nonnegative")
        if self.kind == BERNOULLI and np.any((y != 0.0) & (y != 1.0)):
            raise DomainError("bernoulli response must be 0 or 1")
        if self.kind == GAMMA and np.any(y <= 0):
            raise DomainError("gamma response must be strictly positive")
        return y

    # -- log-partition and derivatives --------------------------------

    def log_partition(self, theta):
        """A(theta), computed in an overflow-safe form for Bernoulli."""
        theta = self.check_domain(theta)
        if self.kind == GAUSSIAN:
            return 0.5 * theta**2
        if self.kind == POISSON:
            return np.exp(theta)
        if self.kind == BERNOULLI:
            return np.logaddexp(0.0, theta)
        return -self.dispersion * np.log(-theta)

    def mean(self, theta):
        """A'(theta), the expected response at a natural parameter."""
        return self._mean(self.check_domain(theta))

    def fisher_info(self, theta):
        """A''(theta), the per-observation Fisher information (> 0)."""
        return self._mean_and_info(self.check_domain(theta))[1]

    def response_variance(self, theta):
        """Var(Y) at a natural parameter.

        Equals ``fisher_info`` except for the Gaussian family, where the
        variance is the fixed dispersion rather than A'' = 1.
        """
        theta = self.check_domain(theta)
        if self.kind == GAUSSIAN:
            return np.full_like(theta, self.dispersion)
        return self._mean_and_info(theta)[1]

    def theta_from_mean(self, mu):
        """Canonical link: the natural parameter with mean ``mu``."""
        mu = self._check_mean(mu)
        if self.kind == GAUSSIAN:
            return mu + 0.0
        if self.kind == POISSON:
            return np.log(mu)
        if self.kind == BERNOULLI:
            return np.log(mu) - np.log1p(-mu)
        return -self.dispersion / mu

    def _check_mean(self, mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=float)
        if not np.all(np.isfinite(mu)):
            raise DomainError("mean contains non-finite values")
        if self.kind in (POISSON, GAMMA) and np.any(mu <= 0):
            raise DomainError(f"{self.kind} mean must be strictly positive")
        if self.kind == BERNOULLI and np.any((mu <= 0) | (mu >= 1)):
            raise DomainError("bernoulli mean must lie strictly in (0, 1)")
        return mu

    # -- deviance and likelihood ---------------------------------------

    def unit_deviance(self, y, mu):
        """Per-observation deviance 2*(saturated loglik - loglik at mu).

        Nonnegative, zero exactly when ``mu`` is the saturated mean of
        ``y``. Poisson uses the 0*log(0) = 0 convention for zero counts.
        """
        y = self.check_support(y)
        mu = self._check_mean(mu)
        if self.kind == GAUSSIAN:
            d = (y - mu) ** 2 / self.dispersion
        elif self.kind == POISSON:
            d = 2.0 * (_xlogy(y, y / mu) - (y - mu))
        elif self.kind == BERNOULLI:
            d = 2.0 * (_xlogy(y, y / mu) + _xlogy(1.0 - y, (1.0 - y) / (1.0 - mu)))
        else:
            d = 2.0 * self.dispersion * ((y - mu) / mu - np.log(y / mu))
        return np.maximum(d, 0.0)

    def log_pdf(self, y, theta):
        """Per-observation log density / log mass at natural parameter theta."""
        theta = self.check_domain(theta)
        y = self.check_support(y)
        return self._log_pdf(y, theta, self._support_term(y))

    # -- unchecked kernels ---------------------------------------------
    #
    # The formulas behind the public methods, for arrays already checked:
    # IRLS checks the responses once per fit and keeps its own domain
    # rule, so it calls these on every step instead.

    def _mean(self, theta):
        if self.kind == GAUSSIAN:
            return theta + 0.0
        if self.kind == POISSON:
            return np.exp(theta)
        if self.kind == BERNOULLI:
            # the logistic function; exp(-theta) overflows to inf below
            # theta = -709, where the mean is 0 as it should be
            with np.errstate(over="ignore"):
                return 1.0 / (1.0 + np.exp(-theta))
        return -self.dispersion / theta

    def _mean_and_info(self, theta):
        """A'(theta) and A''(theta); Poisson and Bernoulli take the exponential once."""
        mean = self._mean(theta)
        if self.kind == GAUSSIAN:
            return mean, np.ones_like(theta)
        if self.kind == POISSON:
            return mean, mean
        if self.kind == BERNOULLI:
            return mean, mean * (1.0 - mean)
        return mean, self.dispersion / theta**2

    def _support_term(self, y):
        """The part of the log density that depends on the response alone:
        log(y!) for Poisson, (k - 1) log y for Gamma. The other families
        have none, and get an empty row per leading index of ``y``."""
        if self.kind == POISSON:
            return _log_factorial(y)
        if self.kind == GAMMA:
            return (self.dispersion - 1.0) * np.log(y)
        return np.empty(np.shape(y)[:1] + (0,))

    def _log_pdf(self, y, theta, c):
        """``log_pdf`` with ``c = _support_term(y)``."""
        if self.kind == GAUSSIAN:
            s2 = self.dispersion
            return -0.5 * (y - theta) ** 2 / s2 - 0.5 * np.log(2.0 * np.pi * s2)
        if self.kind == POISSON:
            return y * theta - np.exp(theta) - c
        if self.kind == BERNOULLI:
            return y * theta - np.logaddexp(0.0, theta)
        k = self.dispersion
        return y * theta + k * np.log(-theta) + c - math.lgamma(k)

    # -- sampling -------------------------------------------------------

    def sample(self, theta, rng: np.random.Generator):
        """Draw one response per entry of ``theta``.

        Deterministic for a given generator state and call order. The
        draws have mean A'(theta) and the family's response variance.
        """
        return self._sample(self.check_domain(theta), rng)

    def _sample(self, theta, rng: np.random.Generator):
        """``sample`` for natural parameters already checked."""
        if self.kind == GAUSSIAN:
            return rng.normal(loc=theta, scale=np.sqrt(self.dispersion))
        if self.kind == POISSON:
            return np.asarray(rng.poisson(lam=np.exp(theta)), dtype=float)
        if self.kind == BERNOULLI:
            return (rng.random(size=np.shape(theta)) < self._mean(theta)).astype(float)
        k = self.dispersion
        mu = -k / theta
        return rng.gamma(shape=k, scale=mu / k)


def _log_factorial(y):
    """log(y!) = log Gamma(y + 1) entrywise, for responses y >= 0: from the
    table for the counts it holds, from ``math.lgamma`` over the distinct
    other values (counts past the table, or non-integer responses)."""
    y = np.asarray(y, dtype=float)
    counts = (y < _LOG_FACTORIALS.size) & (y == np.floor(y))
    if counts.all():
        return _LOG_FACTORIALS[y.astype(np.intp)]
    out = np.empty_like(y)
    out[counts] = _LOG_FACTORIALS[y[counts].astype(np.intp)]
    values, inverse = np.unique(y[~counts], return_inverse=True)
    out[~counts] = np.array([math.lgamma(v + 1.0) for v in values.tolist()])[inverse]
    return out


def _xlogy(x, y):
    """x * log(y) entrywise, and 0 where x is 0 (so 0 log 0 = 0)."""
    log_y = np.log(y, out=np.zeros(np.broadcast(x, y).shape), where=x != 0.0)
    return x * log_y


def gaussian(variance: float = 1.0) -> Family:
    """Gaussian family with known variance."""
    return Family(GAUSSIAN, variance)


def poisson() -> Family:
    """Poisson family (dispersion fixed at 1)."""
    return Family(POISSON, 1.0)


def bernoulli() -> Family:
    """Bernoulli family (dispersion fixed at 1)."""
    return Family(BERNOULLI, 1.0)


def gamma(shape: float) -> Family:
    """Gamma family with known shape ``k``; natural parameter is -k/mu."""
    return Family(GAMMA, shape)


def family_from_name(name: str, dispersion: float = 1.0) -> Family:
    """Build a family from its lowercase kind name."""
    kind = name.strip().lower()
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family {name!r}; expected one of {FAMILY_KINDS}")
    return Family(kind, dispersion)
