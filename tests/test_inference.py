"""Sandwich covariance: plug-in pieces, specification behavior, efficiency ratio."""

import numpy as np
import pytest

from sibglm.families import gaussian, poisson
from sibglm.glm import Design, fit_glm
from sibglm.inference import sandwich

from oracles import evaluate_at, relative_efficiency


def _gaussian_fit(rng, m=4000, beta=(0.5, -1.0)):
    x = np.column_stack([np.ones(m), rng.normal(size=m)])
    design = Design(x, ("intercept", "x"))
    y = x @ np.asarray(beta) + rng.normal(size=m)
    return design, y, fit_glm(design, y, gaussian())


class TestSandwich:
    def test_pieces_are_plug_in_averages(self):
        rng = np.random.default_rng(0)
        design, y, fit = _gaussian_fit(rng, m=200)
        sw = sandwich(fit, design, y)
        x = design.x
        m = len(y)
        a_oracle = (x * fit.fisher_diag[:, None]).T @ x / m
        b_oracle = (x * ((y - fit.mu) ** 2)[:, None]).T @ x / m
        assert np.allclose(sw.a_bar, a_oracle, atol=1e-12)
        assert np.allclose(sw.b_bar, b_oracle, atol=1e-12)
        c_oracle = np.linalg.inv(a_oracle) @ b_oracle @ np.linalg.inv(a_oracle)
        assert np.allclose(sw.c, c_oracle, atol=1e-10)
        assert np.allclose(sw.standard_errors, np.sqrt(np.diag(c_oracle) / m))

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        design, y, fit = _gaussian_fit(rng, m=300)
        sw = sandwich(fit, design, y)
        for mat in (sw.a_bar, sw.b_bar, sw.c):
            assert np.max(np.abs(mat - mat.T)) <= 1e-8

    def test_well_specified_gaussian_matches_ols_covariance(self):
        rng = np.random.default_rng(2)
        design, y, fit = _gaussian_fit(rng, m=10_000)
        sw = sandwich(fit, design, y)
        classical = np.linalg.inv(design.x.T @ design.x / len(y))
        scale = np.sqrt(np.outer(np.diag(classical), np.diag(classical)))
        assert np.max(np.abs(sw.c - classical) / scale) <= 0.10

    def test_well_specified_poisson_matches_inverse_fisher(self):
        rng = np.random.default_rng(3)
        m = 10_000
        x = np.column_stack([np.ones(m), rng.uniform(-1, 1, m)])
        design = Design(x, ("intercept", "x"))
        fam = poisson()
        y = fam.sample(0.5 + 0.8 * x[:, 1], rng)
        fit = fit_glm(design, y, fam)
        sw = sandwich(fit, design, y)
        inv_fisher = np.linalg.inv((x * fit.fisher_diag[:, None]).T @ x / m)
        scale = np.sqrt(np.outer(np.diag(inv_fisher), np.diag(inv_fisher)))
        assert np.max(np.abs(sw.c - inv_fisher) / scale) <= 0.15

    def test_overdispersion_inflates_variance(self):
        rng = np.random.default_rng(4)
        m = 10_000
        x = np.column_stack([np.ones(m), rng.uniform(-1, 1, m)])
        design = Design(x, ("intercept", "x"))
        # Poisson fit to a gamma-mixed rate: variance exceeds the mean
        rate = np.exp(0.5 + 0.8 * x[:, 1]) * rng.gamma(2.0, 0.5, m)
        y = rng.poisson(rate).astype(float)
        fit = fit_glm(design, y, poisson())
        sw = sandwich(fit, design, y)
        inv_fisher = np.linalg.inv((x * fit.fisher_diag[:, None]).T @ x / m)
        assert np.all(np.diag(sw.c) > np.diag(inv_fisher))

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        m = 500
        x = np.column_stack([np.ones(m), rng.normal(size=(m, 2))])
        y = x @ [0.2, 1.0, -0.5] + rng.normal(size=m)
        d1 = Design(x, ("intercept", "a", "b"))
        perm = [2, 0, 1]
        d2 = Design(x[:, perm], ("b", "intercept", "a"))
        f1 = fit_glm(d1, y, gaussian())
        f2 = fit_glm(d2, y, gaussian())
        c1 = sandwich(f1, d1, y).c
        c2 = sandwich(f2, d2, y).c
        p_mat = np.eye(3)[perm]
        assert np.allclose(c2, p_mat @ c1 @ p_mat.T, atol=1e-8)

    def test_requires_converged_fit(self):
        design = Design(np.ones((3, 1)), ("intercept",))
        fit = evaluate_at(design, gaussian(), [0.0], y=np.zeros(3))
        bad = type(fit)(
            family=fit.family, beta=fit.beta, eta=fit.eta, mu=fit.mu,
            fisher_diag=fit.fisher_diag, loglik=fit.loglik,
            converged=False, iterations=0,
        )
        with pytest.raises(ValueError):
            sandwich(bad, design, np.zeros(3))


class TestRelativeEfficiency:
    def test_identical_fits_give_one(self):
        rng = np.random.default_rng(6)
        design, y, fit = _gaussian_fit(rng, m=250)
        sw = sandwich(fit, design, y)
        assert relative_efficiency(sw, sw, 1) == pytest.approx(1.0)

    def test_index_out_of_range(self):
        rng = np.random.default_rng(7)
        design, y, fit = _gaussian_fit(rng, m=250)
        sw = sandwich(fit, design, y)
        with pytest.raises(IndexError):
            relative_efficiency(sw, sw, 5)

    def test_variance_ratio_definition(self):
        rng = np.random.default_rng(8)
        d1, y1, f1 = _gaussian_fit(rng, m=300)
        sw1 = sandwich(f1, d1, y1)
        d2, y2, f2 = _gaussian_fit(rng, m=1200)
        sw2 = sandwich(f2, d2, y2)
        got = relative_efficiency(sw1, sw2, 1)
        oracle = sw1.standard_errors[1] ** 2 / sw2.standard_errors[1] ** 2
        assert got == pytest.approx(oracle, rel=1e-12)
