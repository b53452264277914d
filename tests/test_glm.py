"""GLM fitting: pinned solutions, independent oracles, error contracts."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import poisson as poisson_dist

import sibglm.glm
from sibglm.families import DomainError, Family, bernoulli, gamma, gaussian, poisson
from sibglm.glm import (
    ConvergenceError,
    Design,
    SingularDesignError,
    design_with_intercept,
    fit_glm,
    fit_glms,
    hat_diagonal,
    ols,
)
from sibglm.sibling import Panel, sglm_denoise
from sibglm.simulate import SimConfig, generate, to_panel

from oracles import evaluate_at, log_likelihood, predict


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

    def test_gamma_start_without_a_constant_column(self):
        # the start is the least-squares fit of the link-scale responses, which
        # is feasible for a covariate of one sign
        rng = np.random.default_rng(6)
        fam = gamma(2.0)
        x = rng.uniform(1.0, 2.0, (200, 1))
        y = fam.sample(-1.5 * x[:, 0], rng)
        start = sibglm.glm._initial_beta(x, y[None, :], fam)
        assert np.array_equal(start[0], ols(x, fam.theta_from_mean(y)))
        fit = fit_glm(Design(x, ("x",)), y, fam)
        assert fit.converged and abs(fit.beta[0] + 1.5) < 0.2
        # a covariate of both signs: no coefficient keeps every theta < 0
        signed = Design(np.linspace(-1.0, 1.0, 20)[:, None], ("x",))
        message = "no feasible gamma starting point; add an intercept column$"
        with pytest.raises(ConvergenceError, match=f"^{message}") as excinfo:
            fit_glm(signed, np.ones(20), fam)
        assert excinfo.value.last_fit is None
        with pytest.raises(ConvergenceError, match=f"^series 0: {message}"):
            fit_glms(signed, np.ones((20, 2)), fam)

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


FIT_FIELDS = ("beta", "eta", "mu", "fisher_diag")


def _assert_bitwise_equal(fit, alone):
    for name in FIT_FIELDS:
        assert getattr(fit, name).tobytes() == getattr(alone, name).tobytes(), name
    assert np.float64(fit.loglik).tobytes() == np.float64(alone.loglik).tobytes()
    assert fit.iterations == alone.iterations


def _gamma_halving_panel():
    """Gamma series whose Newton steps leave the domain and are halved."""
    fam = gamma(2.0)
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 60)
    ys = np.column_stack([fam.sample(-s - 0.05 + s * x, rng) for s in (0.3, 1.5, 2.5, 4.5)])
    return design_with_intercept(x), ys, fam


class TestFitGlms:
    @staticmethod
    def _assert_each_column_fits_alone(design, ys, family):
        fits = fit_glms(design, ys, family)
        assert len(fits) == ys.shape[1]
        for j, fit in enumerate(fits):
            alone = fit_glm(design, ys[:, j], family)
            assert fit.converged and alone.converged
            _assert_bitwise_equal(fit, alone)
        return fits

    @pytest.mark.parametrize(
        "family", [poisson(), gaussian(0.5), bernoulli(), gamma(2.0)], ids=lambda f: f.kind
    )
    def test_each_column_equals_its_single_series_fit(self, family):
        truth = generate(SimConfig(family, m=200, q=6, sigma_eps=0.3, seed=3))
        panel = to_panel(truth, family)
        self._assert_each_column_fits_alone(panel.design, panel.responses, family)

    @pytest.mark.parametrize(
        "family", [poisson(), gaussian(0.5), bernoulli(), gamma(2.0), "gamma-halving"],
        ids=lambda f: getattr(f, "kind", f),
    )
    def test_any_batch_is_bitwise_the_lone_fits(self, family):
        # column j of a batch of any width is bitwise fit_glm on column j alone
        if family == "gamma-halving":
            design, ys, family = _gamma_halving_panel()
        else:
            truth = generate(SimConfig(family, m=120, q=21, seed=5))
            panel = to_panel(truth, family)
            design, ys = panel.design, panel.responses
        alone = [fit_glm(design, ys[:, j], family) for j in range(ys.shape[1])]
        for k in (1, 2, 6, 11, 21):
            for j, fit in enumerate(fit_glms(design, ys[:, :k], family)):
                _assert_bitwise_equal(fit, alone[j])

    def test_gamma_columns_halve_and_stop_on_their_own(self, monkeypatch):
        design, ys, fam = _gamma_halving_panel()
        rejected = []
        in_domain = Family.in_domain

        def recording(self, theta):
            ok = in_domain(self, theta)
            rejected.append(not ok)
            return ok

        monkeypatch.setattr(Family, "in_domain", recording)
        fits = self._assert_each_column_fits_alone(design, ys, fam)
        assert any(rejected)  # some Newton steps left the domain and were halved
        assert len({fit.iterations for fit in fits}) > 1

    @pytest.mark.parametrize("case", ["gamma-halving", "poisson"])
    def test_loglik_is_the_checked_log_pdf_of_each_row(self, case):
        # IRLS slices the support term with the rows as they finish; each
        # row's log-likelihood is still the public log_pdf of its own fit
        if case == "gamma-halving":
            design, ys, family = _gamma_halving_panel()
        else:
            family = poisson()
            panel = to_panel(generate(SimConfig(family, m=120, q=21, seed=5)), family)
            design, ys = panel.design, panel.responses
        fits = fit_glms(design, ys, family)
        assert len({fit.iterations for fit in fits}) > 1
        for j, fit in enumerate(fits):
            assert fit.loglik == float(family.log_pdf(ys[:, j], fit.eta).sum())

    def test_separated_series_is_named_with_last_fit(self):
        # series 2 is perfectly separated by x
        x = np.linspace(-1, 1, 40)
        noisy = (np.random.default_rng(0).random((40, 2)) < 0.5).astype(float)
        design, ys = design_with_intercept(x), np.column_stack([noisy, x > 0])
        with pytest.raises(ConvergenceError, match="^series 2: ") as excinfo:
            fit_glms(design, ys, bernoulli())
        last = excinfo.value.last_fit
        assert last is not None and np.min(last.fisher_diag) == 0.0
        panel = Panel(design=design, responses=ys, family=bernoulli())
        with pytest.raises(ConvergenceError, match="^series 2: ") as excinfo:
            sglm_denoise(panel)
        assert excinfo.value.last_fit is not None

    @pytest.mark.parametrize("family", [poisson(), bernoulli()], ids=lambda f: f.kind)
    def test_means_and_information_are_separate_arrays(self, family):
        # IRLS reuses the mean for the information; a fit keeps its own copies
        truth = generate(SimConfig(family, m=80, q=3, seed=4))
        for fit in fit_glms(to_panel(truth, family).design, truth.y, family):
            assert not np.shares_memory(fit.mu, fit.fisher_diag)

    def test_rank_deficient_design_fails_before_any_fit(self, monkeypatch):
        design = Design(np.column_stack([np.ones(6), np.ones(6)]), ("a", "b"))
        calls = []
        monkeypatch.setattr(Family, "_log_pdf", lambda *args: calls.append(args))
        with pytest.raises(SingularDesignError, match="^design matrix is rank deficient"):
            fit_glms(design, np.ones((6, 3)), poisson())
        assert calls == []

    def test_singular_weighted_design_is_named(self, monkeypatch):
        # zero information on every row makes each X'WX singular at the first step
        monkeypatch.setattr(
            Family, "_mean_and_info", lambda self, eta: (self._mean(eta), np.zeros_like(eta))
        )
        design = design_with_intercept(np.linspace(-1.0, 1.0, 8))
        with pytest.raises(SingularDesignError, match="^weighted design is numerically singular$"):
            fit_glm(design, np.arange(8.0), poisson())
        with pytest.raises(
            SingularDesignError, match="^series 0: weighted design is numerically singular$"
        ):
            fit_glms(design, np.tile(np.arange(8.0)[:, None], 3), poisson())

    def test_support_error_names_the_series(self):
        ys = np.ones((5, 3))
        ys[2, 1] = -1.0
        with pytest.raises(DomainError, match="^series 1: poisson response"):
            fit_glms(_intercept_design(5), ys, poisson())

    def test_iteration_budget_is_read_at_call_time(self, monkeypatch):
        truth = generate(SimConfig(poisson(), m=80, q=3, seed=4))
        panel = to_panel(truth, poisson())
        monkeypatch.setattr(sibglm.glm, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="^series 0: IRLS did not converge") as excinfo:
            fit_glms(panel.design, panel.responses, poisson())
        assert excinfo.value.last_fit.iterations == 1

    def test_response_shape(self):
        with pytest.raises(ValueError):
            fit_glms(_intercept_design(4), np.ones(4), poisson())
        with pytest.raises(ValueError):
            fit_glms(_intercept_design(4), np.ones((3, 2)), poisson())


def _fit_or_error(design, y, family):
    try:
        return fit_glm(design, y, family)
    except (ConvergenceError, SingularDesignError) as exc:
        return exc


class TestPerDesignBatch:
    """``_fit_rows`` on a stack of designs, one per response row, as a
    study's ``sglm`` refits use it."""

    @pytest.mark.parametrize(
        "family", [poisson(), gaussian(0.5), bernoulli(), gamma(2.0), "gamma-halving"],
        ids=lambda f: getattr(f, "kind", f),
    )
    def test_each_row_is_bitwise_its_lone_fit(self, family):
        if family == "gamma-halving":
            base, ys, family = _gamma_halving_panel()
        else:
            truth = generate(SimConfig(family, m=120, q=5, sigma_eps=0.3, seed=7))
            panel = to_panel(truth, family)
            base, ys = panel.design, panel.responses
        m, q = ys.shape
        rng = np.random.default_rng(2)
        names = (*base.column_names, "extra")
        designs = [Design(np.column_stack([base.x, rng.uniform(-1, 1, m)]), names) for _ in range(q)]
        responses = [ys[:, j] for j in range(q)]
        # a rank-deficient design: its extra column repeats the covariate
        designs.insert(1, Design(np.column_stack([base.x, base.x[:, 1]]), names))
        responses.insert(1, ys[:, 1])
        if family.kind == "bernoulli":
            # a series that the covariate separates
            designs.insert(3, designs[0])
            responses.insert(3, (base.x[:, 1] > 0).astype(float))

        got = sibglm.glm._fit_rows(np.stack([d.x for d in designs]), np.stack(responses), family)
        assert len(got) == len(designs)
        failed = 0
        for fit, design, y in zip(got, designs, responses):
            want = _fit_or_error(design, y, family)
            assert type(fit) is type(want)
            if isinstance(want, Exception):
                failed += 1
                assert str(fit) == str(want)
                if getattr(want, "last_fit", None) is not None:
                    _assert_bitwise_equal(fit.last_fit, want.last_fit)
            else:
                _assert_bitwise_equal(fit, want)
        assert failed == (2 if family.kind == "bernoulli" else 1)

    def test_every_design_failing_its_check(self):
        x = np.column_stack([np.ones(6), np.ones(6)])
        got = sibglm.glm._fit_rows(np.stack([x, x]), np.ones((2, 6)), poisson())
        assert [str(e) for e in got] == ["design matrix is rank deficient"] * 2
        assert all(isinstance(e, SingularDesignError) for e in got)
        assert got[0] is not got[1]

    def test_every_design_with_too_few_rows(self):
        got = sibglm.glm._fit_rows(np.ones((2, 2, 3)), np.ones((2, 2)), poisson())
        assert [str(e) for e in got] == ["need at least as many rows as columns, got (2, 3)"] * 2
        assert all(isinstance(e, SingularDesignError) for e in got)
        assert got[0] is not got[1]


class TestStoppingRule:
    @pytest.mark.parametrize(
        "family", [poisson(), gaussian(0.5), bernoulli(), gamma(2.0)], ids=lambda f: f.kind
    )
    def test_budget_of_the_steps_taken_is_enough(self, family, monkeypatch):
        # one test stops a series, so a fit that took n steps converges, bitwise
        # the same, with a budget of n, and fails with n - 1 at its last iterate
        truth = generate(SimConfig(family, m=120, q=20, sigma_eps=0.3, seed=6))
        panel = to_panel(truth, family)
        for y in panel.responses.T:
            fit = fit_glm(panel.design, y, family)
            monkeypatch.setattr(sibglm.glm, "MAX_ITER", fit.iterations)
            bounded = fit_glm(panel.design, y, family)
            assert bounded.converged
            _assert_bitwise_equal(bounded, fit)
            monkeypatch.setattr(sibglm.glm, "MAX_ITER", fit.iterations - 1)
            with pytest.raises(ConvergenceError, match="^IRLS did not converge") as excinfo:
                fit_glm(panel.design, y, family)
            assert excinfo.value.last_fit.iterations == fit.iterations - 1
            monkeypatch.undo()


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

    def test_zero_information_is_singular(self):
        design = design_with_intercept(np.arange(4.0))
        fit = fit_glm(design, [1.0, 2.0, 0.0, 1.0], gaussian())
        fit = dataclasses.replace(fit, fisher_diag=np.zeros(4))
        with pytest.raises(SingularDesignError, match="^X'WX is numerically singular$"):
            hat_diagonal(fit, design)

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

    @staticmethod
    def _deficient(kind):
        x = np.random.default_rng(6).normal(size=(12, 4))
        if kind == "duplicate":
            x[:, 2] = x[:, 1]
        elif kind == "zero":
            x[:, 1] = 0.0
        elif kind == "first":
            x[:, 0] = 0.0
        elif kind == "first_combination":
            x[:, 0] = x[:, 1] - 2.0 * x[:, 3]
        elif kind == "last":
            x[:, 3] = 0.5 * x[:, 0] + x[:, 2]
        return x

    @pytest.mark.parametrize("kind", ["duplicate", "zero", "first", "first_combination", "last"])
    def test_rank_deficient_designs_raise(self, kind):
        with pytest.raises(SingularDesignError, match="^design matrix is rank deficient$"):
            ols(self._deficient(kind), np.arange(12.0))

    def test_fewer_rows_than_columns(self):
        x = np.random.default_rng(7).normal(size=(2, 3))
        with pytest.raises(SingularDesignError, match="^need at least as many rows as columns"):
            ols(x, np.ones(2))

    def test_zero_column_design(self):
        with pytest.raises(SingularDesignError, match="^design matrix is rank deficient$"):
            ols(np.empty((6, 0)), np.ones(6))

    @pytest.mark.parametrize("m, p", [(120, 2), (120, 3), (400, 5), (37, 4)])
    def test_bytes_do_not_depend_on_memory_layout(self, m, p):
        rng = np.random.default_rng(m + p)
        x = np.column_stack([np.ones(m), rng.normal(size=(m, p - 1))])
        panel = rng.normal(size=(m, 6))
        for j in range(panel.shape[1]):
            view, copy = panel[:, j], panel[:, j].copy()
            assert not view.flags.c_contiguous
            assert ols(x, view).tobytes() == ols(x, copy).tobytes()

    @pytest.mark.parametrize("k", [None, 1, 5])
    def test_matches_a_triangular_solve(self, k):
        rng = np.random.default_rng(9)
        x = np.column_stack([np.ones(60), rng.normal(size=(60, 3))])
        y = rng.normal(size=60 if k is None else (60, k))
        q, r = np.linalg.qr(x)
        oracle = scipy.linalg.solve_triangular(r, q.T @ y)
        assert np.max(np.abs(ols(x, y) - oracle)) <= 1e-12 * max(1.0, np.max(np.abs(oracle)))

    def test_matrix_response_matches_lstsq_per_column(self):
        rng = np.random.default_rng(8)
        x = np.column_stack([np.ones(80), rng.normal(size=(80, 3))])
        ys = rng.normal(size=(80, 5))
        beta = ols(x, ys)
        assert beta.shape == (4, 5)
        for j in range(ys.shape[1]):
            oracle = np.linalg.lstsq(x, ys[:, j], rcond=None)[0]
            assert np.max(np.abs(beta[:, j] - oracle)) <= 1e-12


def _pivoted_rank_deficient(x):
    """The rank test on the diagonal of scipy's column-pivoted QR factor."""
    return bool(sibglm.glm._rank_deficient(np.diag(scipy.linalg.qr(x, mode="r", pivoting=True)[0])))


class TestRankDecision:
    """The rank test on numpy's unpivoted QR factor decides as it does on
    scipy's pivoted one."""

    @staticmethod
    def _designs():
        rng = np.random.default_rng(6)
        yield from (TestOls._deficient(kind) for kind in
                    ("duplicate", "zero", "first", "first_combination", "last"))
        yield np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
        yield rng.normal(size=(50, 3))
        yield np.array([[1.0, 0.0], [1.0, 1.0]])
        yield np.column_stack([np.ones(10), np.ones(10)])
        for m in (12, 120, 400):
            x = np.linspace(-1.0, 1.0, m)
            u = np.random.default_rng(m).uniform(-1.0, 1.0, m)
            for e in range(6, 13):
                yield np.column_stack([np.ones(m), x, x + 10.0**-e * u])

    def test_each_decision_matches_the_pivoted_check(self):
        decisions = [(_pivoted_rank_deficient(x), bool(sibglm.glm._deficient_designs(x)))
                     for x in self._designs()]
        assert [want for want, _ in decisions] == [got for _, got in decisions]
        # both sides of the threshold are reached
        assert {want for want, _ in decisions} == {False, True}

    def test_a_stack_decides_as_its_designs_one_by_one(self):
        stack = np.stack([x for x in self._designs() if x.shape == (120, 3)])
        assert list(sibglm.glm._deficient_designs(stack)) == [
            bool(sibglm.glm._deficient_designs(x)) for x in stack
        ]


class TestDesign:
    def test_validation(self):
        with pytest.raises(ValueError):
            Design(np.array([[np.inf]]), ("a",))
        with pytest.raises(ValueError):
            Design(np.ones((3, 1)), ("a", "b"))

    def test_a_repeated_column_is_named(self):
        with pytest.raises(ValueError, match="^column name 'b' appears more than once$"):
            Design(np.ones((3, 4)), ("a", "b", "c", "b"))

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
