"""Exponential-family kernel: pinned values, derivative identities, sampling."""

import decimal
import math
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats

from sibglm.families import (
    DomainError,
    Family,
    _log_factorial,
    _xlogy,
    bernoulli,
    family_from_name,
    gamma,
    gaussian,
    poisson,
)

ALL_FAMILIES = [gaussian(1.0), poisson(), bernoulli(), gamma(2.0)]


def _random_theta(family, rng, size):
    t = rng.uniform(-3.0, 3.0, size)
    if family.kind == "gamma":
        t = -np.abs(t) - 0.5
    return t


class TestLogPartition:
    def test_poisson_at_zero(self):
        assert poisson().log_partition(0.0) == pytest.approx(1.0)

    def test_gaussian_at_zero(self):
        assert gaussian().log_partition(0.0) == 0.0

    def test_bernoulli_overflow_safe_branch(self):
        # oracle: ln(1 + e^50) at 60 decimal digits
        decimal.getcontext().prec = 60
        e50 = decimal.Decimal(50).exp()
        expected = float((1 + e50).ln())
        got = bernoulli().log_partition(50.0)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(50.0, abs=1e-9)
        # the mirrored branch must stay positive and tiny, not overflow
        low = bernoulli().log_partition(-50.0)
        assert 0.0 < low < 1e-20

    def test_gamma_domain_error(self):
        with pytest.raises(DomainError):
            gamma(2.0).log_partition(0.0)
        with pytest.raises(DomainError):
            gamma(2.0).log_partition(1.5)


class TestMeanAndInformation:
    def test_pinned_means(self):
        assert poisson().mean(0.0) == pytest.approx(1.0)
        assert bernoulli().mean(0.0) == pytest.approx(0.5)
        assert gamma(2.0).mean(-1.0) == pytest.approx(2.0)
        assert gaussian().mean(1.7) == pytest.approx(1.7)

    def test_pinned_information(self):
        rng = np.random.default_rng(0)
        assert np.all(gaussian().fisher_info(rng.normal(size=10)) == 1.0)
        assert poisson().fisher_info(0.0) == pytest.approx(1.0)
        assert bernoulli().fisher_info(0.0) == pytest.approx(0.25)
        assert gamma(3.0).fisher_info(-2.0) == pytest.approx(0.75)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_finite_difference_identities(self, family):
        rng = np.random.default_rng(42)
        theta = _random_theta(family, rng, 20)
        h = 1e-5
        d1 = (family.log_partition(theta + h) - family.log_partition(theta - h)) / (2 * h)
        assert np.max(np.abs(d1 - family.mean(theta))) <= 1e-6
        d2 = (family.mean(theta + h) - family.mean(theta - h)) / (2 * h)
        assert np.max(np.abs(d2 - family.fisher_info(theta))) <= 1e-6

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_strict_convexity(self, family):
        rng = np.random.default_rng(7)
        theta = _random_theta(family, rng, 50)
        assert np.all(family.fisher_info(theta) > 0)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_mean_and_information_are_bitwise_the_checked_ones(self, family):
        theta = _random_theta(family, np.random.default_rng(5), (3, 200))
        mean, info = family._mean_and_info(theta)
        assert mean.tobytes() == family.mean(theta).tobytes()
        assert info.tobytes() == family.fisher_info(theta).tobytes()

    def test_canonical_link_roundtrip(self):
        for family in ALL_FAMILIES:
            rng = np.random.default_rng(3)
            theta = _random_theta(family, rng, 10)
            back = family.theta_from_mean(family.mean(theta))
            assert np.allclose(back, theta, atol=1e-10)


class TestUnitDeviance:
    def test_saturated_is_zero(self):
        assert poisson().unit_deviance(2.0, 2.0) == 0.0

    def test_poisson_zero_count(self):
        # oracle: twice the log-likelihood gap, saturated limit mu -> 0
        fam = poisson()
        ll_at_one = fam.log_pdf(0.0, fam.theta_from_mean(1.0))
        ll_saturated = fam.log_pdf(0.0, fam.theta_from_mean(1e-13))
        oracle = 2.0 * (ll_saturated - ll_at_one)
        assert oracle == pytest.approx(2.0, abs=1e-9)
        assert fam.unit_deviance(0.0, 1.0) == pytest.approx(2.0)

    def test_gaussian_squared_error(self):
        assert gaussian(1.0).unit_deviance(3.0, 1.0) == pytest.approx(4.0)
        assert gaussian(4.0).unit_deviance(3.0, 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_nonnegative_zero_iff_saturated(self, family):
        rng = np.random.default_rng(11)
        theta = _random_theta(family, rng, 200)
        y = family.sample(theta, rng)
        mu = family.mean(theta)
        if family.kind == "bernoulli":
            mu = np.clip(mu, 1e-9, 1 - 1e-9)
        d = family.unit_deviance(y, mu)
        assert np.all(d >= 0)
        if family.kind == "gaussian":
            assert np.all(family.unit_deviance(y, y) == 0.0)
        elif family.kind == "gamma":
            assert np.allclose(family.unit_deviance(y, y), 0.0, atol=1e-12)
        saturated = np.abs(y - mu) < 1e-12
        assert np.all(d[~saturated] > 0)

    def test_invalid_mean_errors(self):
        with pytest.raises(DomainError):
            poisson().unit_deviance(1.0, -0.5)
        with pytest.raises(DomainError):
            bernoulli().unit_deviance(1.0, 1.0)


def _ulps(got, want, scale):
    """|got - want| in units of the spacing of ``scale`` (elementwise)."""
    return np.abs(got - want) / np.spacing(np.abs(scale))


class TestKernelsAgainstScipy:
    """The numpy and ``math`` kernels against the scipy functions they
    replace, which the package no longer imports."""

    def test_logistic_mean(self):
        theta = np.array([0.0, 1e-300, -1e-300, 30.0, -30.0, 745.0, -745.0, 800.0, -800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = bernoulli().mean(theta)
        assert np.array_equal(got, scipy.special.expit(theta))

    def test_log_factorial_of_counts(self):
        y = np.arange(100_001.0)
        got, want = _log_factorial(y), scipy.special.gammaln(y + 1.0)
        assert got[0] == got[1] == 0.0
        assert got[2] == math.log(2.0) != math.lgamma(3.0)
        assert np.max(_ulps(got[2:], want[2:], want[2:])) <= 4.0
        # counts all inside the table, and a block of counts, give the same values
        assert np.array_equal(_log_factorial(y[:1000].reshape(10, 100)).ravel(), got[:1000])
        assert np.array_equal(_log_factorial(y[::997].reshape(-1, 1))[:, 0], got[::997])

    def test_log_factorial_of_non_integer_responses(self):
        y = np.array([2.5, 1e-3, 1e7 + 0.5, 1e-3, 3.0])
        want = scipy.special.gammaln(y + 1.0)
        # in ulps of max(1, |value|): near the zero of log Gamma at 1 neither
        # function is good to an ulp of its tiny result (log Gamma(1.001))
        assert np.max(_ulps(_log_factorial(y), want, np.maximum(1.0, np.abs(want)))) <= 4.0

    def test_xlogy_with_zeros(self):
        x = np.array([0.0, 1.0, 2.5, 3.0])
        y = np.array([0.0, 1.0, 0.5, 7.0])
        with np.errstate(divide="ignore"):
            got = _xlogy(x, y[:, None])
        assert np.array_equal(got, scipy.special.xlogy(x, y[:, None]))
        # 0 log 0 is 0, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(_xlogy(np.zeros(3), np.array([0.0, 1.0, 2.0])), np.zeros(3))

    @pytest.mark.parametrize("shape", [0.5, 2.0, 7.3])
    def test_gamma_log_density(self, shape):
        mu = np.array([0.2, 1.0, 4.5])
        y = np.array([0.05, 1.3, 9.0])
        got = gamma(shape).log_pdf(y, -shape / mu)
        want = scipy.stats.gamma.logpdf(y, a=shape, scale=mu / shape)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


class TestSampling:
    def test_degenerate_gaussian(self):
        rng = np.random.default_rng(0)
        draw = gaussian(1e-12).sample(np.array([2.0]), rng)
        assert abs(draw[0] - 2.0) < 1e-4

    def test_poisson_law_of_large_numbers(self):
        rng = np.random.default_rng(1)
        draws = poisson().sample(np.full(100_000, np.log(4.0)), rng)
        assert abs(draws.mean() - 4.0) < 0.05

    def test_bernoulli_law_of_large_numbers(self):
        rng = np.random.default_rng(2)
        draws = bernoulli().sample(np.zeros(100_000), rng)
        assert set(np.unique(draws)) <= {0.0, 1.0}
        assert abs(draws.mean() - 0.5) < 0.01

    @pytest.mark.parametrize("family", ALL_FAMILIES, ids=lambda f: f.kind)
    def test_mean_within_four_standard_errors(self, family):
        rng = np.random.default_rng(5)
        theta = np.full(100_000, -1.5 if family.kind == "gamma" else 0.7)
        draws = family.sample(theta, rng)
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - float(family.mean(theta[0]))) <= 4 * se

    def test_seed_determinism(self):
        theta = np.linspace(-2.0, 1.0, 64)
        for family in (gaussian(), poisson(), bernoulli()):
            a = family.sample(theta, np.random.default_rng(99))
            b = family.sample(theta, np.random.default_rng(99))
            assert np.array_equal(a, b)
        g = gamma(2.0)
        a = g.sample(theta - 3.0, np.random.default_rng(99))
        b = g.sample(theta - 3.0, np.random.default_rng(99))
        assert np.array_equal(a, b)


class TestValidation:
    def test_kind_and_dispersion_checks(self):
        with pytest.raises(ValueError):
            Family("weibull")
        with pytest.raises(ValueError):
            Family("poisson", 2.0)
        with pytest.raises(ValueError):
            gaussian(-1.0)

    def test_support_checks(self):
        with pytest.raises(DomainError):
            poisson().check_support([-1.0])
        with pytest.raises(DomainError):
            bernoulli().check_support([0.5])
        with pytest.raises(DomainError):
            gamma(1.0).check_support([0.0])

    def test_family_from_name(self):
        assert family_from_name("Poisson").kind == "poisson"
        assert family_from_name("gamma", 3.0).dispersion == 3.0
        with pytest.raises(ValueError):
            family_from_name("negbin")

    @pytest.mark.parametrize("name", ["poisson", "bernoulli"])
    def test_family_from_name_keeps_fixed_dispersion(self, name):
        assert family_from_name(name, 1.0).dispersion == 1.0
        with pytest.raises(ValueError, match=f"{name} family has fixed dispersion 1"):
            family_from_name(name, 5.0)
