"""GLM fitting: pinned solutions, independent oracles, error contracts."""

import numpy as np
import pytest
from scipy.stats import poisson as poisson_dist

import sibglm.glm
from sibglm.families import DomainError, bernoulli, gamma, gaussian, poisson
from sibglm.glm import (
    ConvergenceError,
    Design,
    SingularDesignError,
    design_with_intercept,
    evaluate_at,
    fit_glm,
    hat_diagonal,
    log_likelihood,
    ols,
    predict,
)


def _intercept_design(m):
    return design_with_intercept(None, m=m)


def _grid_mle(family, y, lo=-10.0, hi=10.0, step=1e-4):
    """Brute-force intercept-only MLE by grid search over the natural parameter."""
    grid = np.arange(lo, hi + step, step)
    if family.kind == "gamma":
        grid = grid[grid < -step]
    ll = family.log_pdf(np.asarray(y)[:, None], grid[None, :]).sum(axis=0)
    return grid[np.argmax(ll)]


class TestFitGlm:
    def test_intercept_only_poisson(self):
        fit = fit_glm(_intercept_design(3), [1.0, 2.0, 3.0], poisson())
        assert fit.converged
        assert fit.beta[0] == pytest.approx(np.log(2.0), abs=1e-10)

    def test_intercept_only_gaussian(self):
        fit = fit_glm(_intercept_design(3), [-1.0, 0.0, 4.0], gaussian())
        assert fit.beta[0] == pytest.approx(1.0, abs=1e-10)

    def test_saturated_two_point_poisson(self):
        # analytic solution: A'(b0) = 1 and A'(b0 + b1) = e
        design = Design(np.array([[1.0, 0.0], [1.0, 1.0]]), ("intercept", "slope"))
        y = np.array([1.0, np.e])
        fit = fit_glm(design, y, poisson())
        assert np.allclose(fit.beta, [0.0, 1.0], atol=1e-6)
        assert np.allclose(fit.mu, y, atol=1e-6)

    @pytest.mark.parametrize(
        "family,y",
        [
            (poisson(), [0.0, 3.0, 1.0, 2.0, 5.0, 1.0]),
            (gaussian(1.0), [0.3, -1.2, 0.4, 2.0, 1.1, -0.5]),
            (bernoulli(), [0.0, 1.0, 1.0, 0.0, 1.0, 0.0]),
            (gamma(2.0), [0.5, 1.4, 2.2, 0.9, 3.0, 1.7]),
        ],
        ids=lambda v: v.kind if hasattr(v, "kind") else "",
    )
    def test_one_parameter_grid_oracle(self, family, y):
        fit = fit_glm(_intercept_design(len(y)), y, family)
        assert abs(fit.beta[0] - _grid_mle(family, y)) <= 1e-3

    def test_gaussian_glm_matches_ols(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
            y = rng.normal(size=40)
            design = Design(x, ("intercept", "a", "b"))
            fit = fit_glm(design, y, gaussian())
            assert np.allclose(fit.beta, ols(x, y), atol=1e-8)

    def test_score_equation_at_convergence(self):
        rng = np.random.default_rng(5)
        m = 200
        x = np.column_stack([np.ones(m), rng.uniform(-1, 1, m)])
        eta = 0.4 + 0.9 * x[:, 1]
        y = poisson().sample(eta, rng)
        design = Design(x, ("intercept", "x"))
        fit = fit_glm(design, y, poisson())
        assert fit.converged
        assert np.max(np.abs(x.T @ (y - fit.mu))) <= m * 1e-8

    def test_loglik_not_below_start(self):
        rng = np.random.default_rng(6)
        m = 100
        x = np.column_stack([np.ones(m), rng.uniform(-1, 1, m)])
        design = Design(x, ("intercept", "x"))
        y = bernoulli().sample(0.3 - 1.1 * x[:, 1], rng)
        fit = fit_glm(design, y, bernoulli())
        start = evaluate_at(design, bernoulli(), np.zeros(2), y)
        assert fit.loglik >= start.loglik

    def test_gamma_fit_recovers_coefficients(self):
        rng = np.random.default_rng(9)
        m = 4000
        x = np.column_stack([np.ones(m), rng.uniform(-1, 1, m)])
        design = Design(x, ("intercept", "x"))
        fam = gamma(2.0)
        eta = -3.0 + 0.8 * x[:, 1]
        y = fam.sample(eta, rng)
        fit = fit_glm(design, y, fam)
        assert fit.converged
        assert np.all(fit.eta < 0)
        assert np.allclose(fit.beta, [-3.0, 0.8], atol=0.15)

    def test_rank_deficient_design_raises(self):
        x = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(ValueError):
            # duplicate names rejected at Design construction
            Design(x, ("a", "a"))
        design = Design(x, ("a", "b"))
        with pytest.raises(SingularDesignError):
            fit_glm(design, np.ones(5), gaussian())

    def test_response_support_raises(self):
        with pytest.raises(DomainError):
            fit_glm(_intercept_design(3), [-1.0, 2.0, 1.0], poisson())

    def test_non_convergence_carries_last_iterate(self, monkeypatch):
        rng = np.random.default_rng(4)
        m = 50
        x = np.column_stack([np.ones(m), rng.uniform(-1, 1, m)])
        y = poisson().sample(1.5 + 1.0 * x[:, 1], rng)
        design = Design(x, ("intercept", "x"))
        monkeypatch.setattr(sibglm.glm, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as excinfo:
            fit_glm(design, y, poisson())
        last = excinfo.value.last_fit
        assert last is not None and not last.converged
        assert last.iterations == 1

    def test_bernoulli_separation_raises(self):
        x = np.linspace(-1, 1, 40)
        with pytest.raises(ConvergenceError, match="edge of the bernoulli support") as excinfo:
            fit_glm(design_with_intercept(x), (x > 0).astype(float), bernoulli())
        last = excinfo.value.last_fit
        assert last is not None and np.min(last.fisher_diag) == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        m = 80
        x = np.column_stack([np.ones(m), rng.uniform(-1, 1, m)])
        y = poisson().sample(0.2 + x[:, 1], rng)
        design = Design(x, ("intercept", "x"))
        a = fit_glm(design, y, poisson())
        b = fit_glm(design, y, poisson())
        assert np.array_equal(a.beta, b.beta)


class TestPredict:
    def test_gaussian_identity(self):
        design = Design(np.array([[1.0]]), ("x",))
        fit = evaluate_at(design, gaussian(), [2.0])
        eta, mu = predict(fit, design)
        assert eta[0] == 2.0 and mu[0] == 2.0

    def test_poisson_unit_mean(self):
        design = Design(np.array([[1.0]]), ("intercept",))
        fit = evaluate_at(design, poisson(), [0.0])
        assert predict(fit, design)[1][0] == pytest.approx(1.0)

    def test_bernoulli_half(self):
        design = Design(np.array([[1.0, 1.0]]), ("a", "b"))
        fit = evaluate_at(design, bernoulli(), [1.0, -1.0])
        eta, mu = predict(fit, design)
        assert eta[0] == 0.0 and mu[0] == pytest.approx(0.5)

    def test_column_mismatch(self):
        design = Design(np.array([[1.0, 0.0]]), ("a", "b"))
        fit = evaluate_at(design, gaussian(), [1.0, 2.0])
        with pytest.raises(ValueError):
            predict(fit, Design(np.array([[1.0]]), ("a",)))


class TestHatDiagonal:
    def test_balanced_intercept_leverage(self):
        design = _intercept_design(4)
        fit = fit_glm(design, [1.0, 2.0, 0.0, 1.0], gaussian())
        assert np.allclose(hat_diagonal(fit, design), 0.25)

    def test_trace_equals_p_and_bounds(self):
        rng = np.random.default_rng(2)
        m, p = 60, 4
        x = np.column_stack([np.ones(m), rng.normal(size=(m, p - 1))])
        design = Design(x, tuple(f"c{i}" for i in range(p)))
        y = poisson().sample(0.3 * x[:, 1], rng)
        fit = fit_glm(design, y, poisson())
        h = hat_diagonal(fit, design)
        assert abs(h.sum() - p) <= 1e-8
        assert np.all((h >= 0) & (h <= 1 + 1e-12))

    def test_shape_mismatch(self):
        design = _intercept_design(4)
        fit = fit_glm(design, [1.0, 2.0, 0.0, 1.0], gaussian())
        with pytest.raises(ValueError):
            hat_diagonal(fit, Design(np.ones((4, 2)), ("a", "b")))

    def test_saturated_two_point_poisson(self):
        design = Design(np.array([[1.0, 0.0], [1.0, 1.0]]), ("intercept", "slope"))
        y = np.array([1.0, np.e])
        fit = fit_glm(design, y, poisson())
        h = hat_diagonal(fit, design)
        # explicit dense oracle: diag of W^1/2 X (X'WX)^-1 X' W^1/2
        w = fit.fisher_diag
        sw = np.sqrt(w)[:, None] * design.x
        dense = sw @ np.linalg.inv(design.x.T @ (w[:, None] * design.x)) @ sw.T
        assert np.allclose(h, np.diag(dense), atol=1e-10)
        assert np.allclose(h, [1.0, 1.0], atol=1e-8)


class TestLogLikelihood:
    def test_standard_normal_at_zero(self):
        design = _intercept_design(1)
        fit = evaluate_at(design, gaussian(1.0), [0.0])
        assert log_likelihood(fit, [0.0]) == pytest.approx(-0.5 * np.log(2 * np.pi))

    def test_poisson_zero_count(self):
        design = _intercept_design(1)
        fit = evaluate_at(design, poisson(), [0.0])
        assert log_likelihood(fit, [0.0]) == pytest.approx(-1.0)

    def test_poisson_matches_pmf_product(self):
        design = _intercept_design(2)
        fit = evaluate_at(design, poisson(), [np.log(2.0)])
        oracle = poisson_dist.logpmf([1, 3], 2.0).sum()
        assert log_likelihood(fit, [1.0, 3.0]) == pytest.approx(oracle, rel=1e-12)


class TestOls:
    def test_two_points_with_intercept(self):
        x = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert np.allclose(ols(x, [0.0, 1.0]), [0.0, 1.0], atol=1e-12)

    def test_constant_response(self):
        rng = np.random.default_rng(1)
        x = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
        beta = ols(x, np.full(30, 3.5))
        assert beta[0] == pytest.approx(3.5, abs=1e-10)
        assert np.allclose(beta[1:], 0.0, atol=1e-10)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        oracle = np.linalg.inv(x.T @ x) @ (x.T @ y)
        assert np.allclose(ols(x, y), oracle, atol=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        r = y - x @ ols(x, y)
        assert np.max(np.abs(x.T @ r)) <= 1e-8

    def test_rank_deficiency(self):
        x = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(SingularDesignError):
            ols(x, np.arange(10.0))


class TestDesign:
    def test_validation(self):
        with pytest.raises(ValueError):
            Design(np.array([[np.inf]]), ("a",))
        with pytest.raises(ValueError):
            Design(np.ones((3, 1)), ("a", "b"))

    def test_fit_needs_more_rows_than_columns(self):
        design = Design(np.ones((2, 3)), ("a", "b", "c"))
        with pytest.raises(SingularDesignError):
            fit_glm(design, np.zeros(2), gaussian())

    def test_with_intercept(self):
        d = design_with_intercept(np.arange(4.0), names=("t",))
        assert d.column_names == ("intercept", "t")
        assert np.all(d.x[:, 0] == 1.0)
        d2 = design_with_intercept(None, m=5)
        assert d2.p == 1
