"""Residual kinds: pinned values, cross-kind identities, first-order behavior."""

import numpy as np
import pytest

from sibglm.families import bernoulli, gamma, gaussian, poisson
from sibglm.glm import Design, design_with_intercept, fit_glm
from sibglm.residuals import (
    LeverageError,
    compute,
    deviance_residual,
    fisher_scaled,
    raw,
    studentized,
)

from oracles import evaluate_at


def _fixed_fit(family, eta):
    eta = np.asarray(eta, dtype=float)
    design = design_with_intercept(None, m=len(eta))
    # per-row natural parameters via a diagonal trick: evaluate at each eta
    return evaluate_at(
        Design(np.eye(len(eta)) if len(eta) > 1 else np.array([[1.0]]),
               tuple(f"e{i}" for i in range(len(eta)))),
        family,
        eta,
    ) if len(eta) > 1 else evaluate_at(design, family, [eta[0]])


class TestFisherScaled:
    def test_gaussian_identity_scaling(self):
        fit = _fixed_fit(gaussian(), [1.0, 1.0])
        y = fit.mu + np.array([1.0, -2.0])
        assert np.allclose(fisher_scaled(fit, y), [1.0, -2.0])

    def test_poisson_pinned(self):
        fit = _fixed_fit(poisson(), [np.log(2.0)])
        assert fisher_scaled(fit, [3.0])[0] == pytest.approx(0.5)

    def test_bernoulli_pinned(self):
        fit = _fixed_fit(bernoulli(), [0.0])
        assert fisher_scaled(fit, [1.0])[0] == pytest.approx(2.0)

    def test_equals_raw_for_gaussian(self):
        rng = np.random.default_rng(0)
        m = 50
        x = np.column_stack([np.ones(m), rng.normal(size=m)])
        design = Design(x, ("intercept", "x"))
        y = x @ [0.5, 1.0] + rng.normal(size=m)
        fit = fit_glm(design, y, gaussian())
        assert np.array_equal(fisher_scaled(fit, y), raw(fit, y))


class TestRaw:
    def test_zero_when_saturated(self):
        fit = _fixed_fit(poisson(), [0.3, 0.3])
        assert np.all(raw(fit, fit.mu) == 0.0)

    def test_poisson_pinned(self):
        fit = _fixed_fit(poisson(), [np.log(2.0)])
        assert raw(fit, [3.0])[0] == pytest.approx(1.0)

    def test_mean_zero_with_intercept(self):
        rng = np.random.default_rng(1)
        m = 300
        x = np.column_stack([np.ones(m), rng.uniform(-1, 1, m)])
        design = Design(x, ("intercept", "x"))
        y = poisson().sample(0.5 + 0.7 * x[:, 1], rng)
        fit = fit_glm(design, y, poisson())
        assert abs(raw(fit, y).mean()) < 1e-6


class TestStudentized:
    def test_gaussian_two_point_hand_computation(self):
        design = design_with_intercept(None, m=2)
        fit = fit_glm(design, [0.0, 2.0], gaussian())
        values = studentized(fit, design, [0.0, 2.0])
        assert np.allclose(values, [-np.sqrt(2.0), np.sqrt(2.0)], atol=1e-8)

    def test_zero_when_saturated_mean(self):
        rng = np.random.default_rng(2)
        m = 20
        x = np.column_stack([np.ones(m), rng.normal(size=m)])
        design = Design(x, ("intercept", "x"))
        y = x @ [1.0, 0.5] + rng.normal(size=m)
        fit = fit_glm(design, y, gaussian())
        assert np.allclose(studentized(fit, design, fit.mu), 0.0, atol=1e-10)

    def test_sum_of_squares_near_residual_dof(self):
        rng = np.random.default_rng(3)
        m, p, reps = 30, 2, 200
        totals = []
        for _ in range(reps):
            x = np.column_stack([np.ones(m), rng.uniform(-1, 1, m)])
            design = Design(x, ("intercept", "x"))
            y = x @ [0.3, 1.1] + rng.normal(size=m)
            fit = fit_glm(design, y, gaussian())
            totals.append(np.sum(studentized(fit, design, y) ** 2))
        assert abs(np.mean(totals) - (m - p)) <= 0.1 * (m - p)

    def test_interpolated_saturated_point_is_zero(self):
        design = design_with_intercept(None, m=1)
        fit = fit_glm(design, [1.5], gaussian())
        assert studentized(fit, design, [1.5])[0] == 0.0

    def test_leverage_error_for_unfit_saturated_point(self):
        design = design_with_intercept(None, m=1)
        fit = evaluate_at(design, gaussian(), [0.0])
        with pytest.raises(LeverageError):
            studentized(fit, design, [1.0])

    def test_gamma_uses_response_variance(self):
        # Pearson-like scaling: (y - mu) / sqrt((mu^2 / k)(1 - h))
        fam = gamma(4.0)
        rng = np.random.default_rng(8)
        m = 30
        x = np.column_stack([np.ones(m), rng.uniform(-1, 1, m)])
        design = Design(x, ("intercept", "x"))
        y = fam.sample(-2.5 + 0.5 * x[:, 1], rng)
        fit = fit_glm(design, y, fam)
        got = studentized(fit, design, y)
        from sibglm.glm import hat_diagonal

        h = hat_diagonal(fit, design)
        oracle = (y - fit.mu) / np.sqrt((fit.mu**2 / 4.0) * (1.0 - h))
        assert np.allclose(got, oracle, atol=1e-10)


class TestDevianceResidual:
    def test_zero_when_saturated(self):
        fit = _fixed_fit(poisson(), [0.2, 0.2])
        assert np.all(deviance_residual(fit, fit.mu) == 0.0)

    def test_poisson_zero_count(self):
        fit = _fixed_fit(poisson(), [0.0])
        assert deviance_residual(fit, [0.0])[0] == pytest.approx(-np.sqrt(2.0))

    def test_gaussian_signed_root(self):
        fit = _fixed_fit(gaussian(1.0), [1.0])
        assert deviance_residual(fit, [3.0])[0] == pytest.approx(2.0)

    def test_sign_matches_raw(self):
        rng = np.random.default_rng(5)
        fit = _fixed_fit(poisson(), np.full(40, 0.4))
        y = poisson().sample(fit.eta, rng)
        d = deviance_residual(fit, y)
        assert np.all(np.sign(d) == np.sign(y - fit.mu))


class TestDispatchAndAlignment:
    def test_compute_dispatch(self):
        rng = np.random.default_rng(6)
        m = 25
        x = np.column_stack([np.ones(m), rng.uniform(-1, 1, m)])
        design = Design(x, ("intercept", "x"))
        y = poisson().sample(0.2 + 0.5 * x[:, 1], rng)
        fit = fit_glm(design, y, poisson())
        direct = {
            "raw": raw(fit, y),
            "fisher": fisher_scaled(fit, y),
            "deviance": deviance_residual(fit, y),
            "student": studentized(fit, design, y),
        }
        for kind, values in direct.items():
            assert np.array_equal(compute(kind, fit, y, design=design), values)
        with pytest.raises(ValueError):
            compute("pearson", fit, y, design=design)

    def test_alignment_error(self):
        fit = _fixed_fit(poisson(), [0.0, 0.0])
        with pytest.raises(ValueError):
            raw(fit, [1.0])


class TestFirstOrderApproximation:
    def test_scaled_residual_mean_tracks_parameter_gap(self):
        # at a fixed fit, the Monte-Carlo mean of the information-scaled
        # residual matches the natural-parameter gap to second order
        fam = poisson()
        eta0, delta, n = 0.3, 0.1, 100_000
        fit = evaluate_at(design_with_intercept(None, m=n), fam, [eta0])
        y = fam.sample(np.full(n, eta0 + delta), np.random.default_rng(7))
        values = fisher_scaled(fit, y)
        se = values.std(ddof=1) / np.sqrt(n)
        assert abs(values.mean() - delta) <= 2 * delta**2 + 3 * se
