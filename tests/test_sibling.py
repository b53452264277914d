"""Sibling estimators, their algebraic identity, and the denoising pipeline."""

import numpy as np
import pytest

from sibglm.families import bernoulli, gaussian, poisson
from sibglm.glm import ConvergenceError, FitOptions, design_with_intercept
from sibglm.sibling import (
    MEAN_OF_RESIDUALS,
    Panel,
    _noise_from_residuals,
    estimate_noise,
    half_sibling,
    sglm_denoise,
    three_quarter_sibling,
)
from sibglm.simulate import SimConfig, generate, replicate_seed, to_panel

from oracles import residual_form_equivalence


def _normal_equation_fitted(mat, y):
    return mat @ (np.linalg.inv(mat.T @ mat) @ (mat.T @ y))


class TestHalfSibling:
    def test_constant_sibling_changes_nothing(self):
        y1 = np.array([1.0, 2.0, 3.0, 6.0])
        assert np.allclose(half_sibling(y1, np.full((4, 1), 7.0)), y1)

    def test_identical_sibling_removes_everything(self):
        y1 = np.array([1.0, 2.0, 3.0, 6.0])
        assert np.allclose(half_sibling(y1, y1), np.full(4, 3.0))

    def test_worked_four_point_example(self):
        y1 = np.array([1.0, 2.0, 3.0, 6.0])
        y2 = np.array([[0.0], [1.0], [2.0], [5.0]])
        got = half_sibling(y1, y2)
        # normal-equation oracle for the conditional expectation
        mat = np.column_stack([np.ones(4), y2])
        oracle = y1 - _normal_equation_fitted(mat, y1) + y1.mean()
        assert np.allclose(got, oracle, atol=1e-10)
        assert np.allclose(got, [3.0, 3.0, 3.0, 3.0], atol=1e-10)

    def test_output_mean_equals_input_mean(self):
        rng = np.random.default_rng(0)
        y1 = rng.normal(size=500)
        y2 = rng.normal(size=(500, 4))
        z = half_sibling(y1, y2)
        assert z.mean() == pytest.approx(y1.mean(), abs=1e-12)


class TestThreeQuarterSibling:
    def test_sibling_inside_x_changes_nothing(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=100)
        y1 = rng.normal(size=100)
        assert np.allclose(three_quarter_sibling(x, y1, x.copy()), y1, atol=1e-9)

    def test_constant_x_reduces_to_half_sibling(self):
        rng = np.random.default_rng(2)
        y1 = rng.normal(size=80)
        y2 = rng.normal(size=(80, 2))
        a = three_quarter_sibling(np.full(80, 5.0), y1, y2)
        assert np.allclose(a, half_sibling(y1, y2), atol=1e-12)

    def test_reduces_conditional_noise_correlation(self):
        # synthetic linear instance with known additive noise
        rng = np.random.default_rng(3)
        m = 10_000
        x = rng.uniform(-1, 1, m)
        noise = rng.uniform(-1, 1, m)
        y1 = 1.2 * x + noise + rng.normal(0, 0.2, m)
        y2 = np.column_stack([0.8 * x + noise + rng.normal(0, 0.2, m)])
        z_hat = three_quarter_sibling(x, y1, y2)
        before = abs(np.corrcoef(y1 - 1.2 * x, noise)[0, 1])
        after = abs(np.corrcoef(z_hat - 1.2 * x, noise)[0, 1])
        assert after < before


class TestResidualFormEquivalence:
    def test_random_linear_gaussian_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(3):
            y1 = rng.normal(size=200)
            y2 = rng.normal(size=(200, 3))
            x = rng.normal(size=(200, 2))
            lhs, rhs = residual_form_equivalence(y1, y2, x)
            assert np.max(np.abs(lhs - rhs)) < 1e-8
            lhs, rhs = residual_form_equivalence(y1, y2)
            assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_constant_sibling(self):
        y1 = np.arange(6.0)
        lhs, rhs = residual_form_equivalence(y1, np.full((6, 1), 2.0))
        assert np.allclose(lhs, y1) and np.allclose(rhs, y1)

    def test_worked_example_matches(self):
        y1 = np.array([1.0, 2.0, 3.0, 6.0])
        y2 = np.array([[0.0], [1.0], [2.0], [5.0]])
        lhs, rhs = residual_form_equivalence(y1, y2)
        assert np.allclose(lhs, half_sibling(y1, y2), atol=1e-12)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestEstimateNoise:
    def test_no_shared_noise_gives_no_correlation(self):
        fam = poisson()
        cfg = SimConfig(fam, m=2000, q=6, seed=101, noise_coefficient_scheme="zero")
        truth = generate(cfg)
        nhat = estimate_noise(to_panel(truth, fam))
        assert abs(np.corrcoef(nhat, truth.noise)[0, 1]) < 0.1

    def test_many_strong_siblings_recover_noise(self):
        fam = gaussian(1.0)
        cfg = SimConfig(fam, m=2000, q=21, seed=55, noise_coefficient_scheme="one")
        truth = generate(cfg)
        nhat = estimate_noise(to_panel(truth, fam))
        assert np.corrcoef(nhat, truth.noise)[0, 1] > 0.9

    def test_correlation_non_decreasing_in_q(self):
        fam = gaussian(1.0)
        means = []
        for q in (2, 6, 11, 21):
            cs = []
            for r in range(5):
                cfg = SimConfig(
                    fam, m=2000, q=q, seed=replicate_seed(77, r),
                    noise_coefficient_scheme="one",
                )
                truth = generate(cfg)
                nhat = estimate_noise(to_panel(truth, fam))
                cs.append(np.corrcoef(nhat, truth.noise)[0, 1])
            means.append(np.mean(cs))
        diffs = np.diff(means)
        assert np.all(diffs > -0.02)

    def test_mean_zero_by_construction(self):
        fam = poisson()
        truth = generate(SimConfig(fam, m=300, q=5, seed=9))
        panel = to_panel(truth, fam)
        for strategy in ("regression", MEAN_OF_RESIDUALS):
            nhat = estimate_noise(panel, strategy=strategy)
            assert abs(nhat.mean()) < 1e-8

    def test_invariant_to_constant_shift_of_auxiliary_residuals(self):
        rng = np.random.default_rng(10)
        resid = rng.normal(size=(100, 5))
        x = np.column_stack([np.ones(100), rng.normal(size=100)])
        for strategy in ("regression", MEAN_OF_RESIDUALS):
            base, *_ = _noise_from_residuals(resid, 0, x, False, strategy)
            shifted = resid.copy()
            shifted[:, 1:] += 4.2
            moved, *_ = _noise_from_residuals(shifted, 0, x, False, strategy)
            assert np.allclose(base, moved, atol=1e-10)

    def test_unknown_strategy(self):
        fam = poisson()
        truth = generate(SimConfig(fam, m=100, q=3, seed=2))
        with pytest.raises(ValueError):
            estimate_noise(to_panel(truth, fam), strategy="ridge")

    def test_conditioning_on_covariates_keeps_contract(self):
        fam = gaussian(1.0)
        cfg = SimConfig(fam, m=2000, q=11, seed=63, noise_coefficient_scheme="one")
        truth = generate(cfg)
        panel = to_panel(truth, fam)
        with_x = estimate_noise(panel, include_x=True)
        without = estimate_noise(panel, include_x=False)
        assert abs(with_x.mean()) < 1e-8
        # residuals are nearly uncorrelated with the covariates, so the two
        # conditioning sets give nearly the same proxy
        assert np.corrcoef(with_x, without)[0, 1] > 0.95
        assert np.corrcoef(with_x, truth.noise)[0, 1] > 0.8


class TestSglmDenoise:
    def test_zero_noise_leaves_coefficients_alone(self):
        fam = poisson()
        cfg = SimConfig(fam, m=2000, q=6, seed=31, noise_coefficient_scheme="zero")
        truth = generate(cfg)
        out = sglm_denoise(to_panel(truth, fam))
        from sibglm.inference import sandwich

        panel = to_panel(truth, fam)
        sw = sandwich(out.base_fit, panel.design, truth.y[:, 0])
        gap = np.abs(out.refit.beta[:2] - out.base_fit.beta)
        assert np.all(gap <= 2 * sw.standard_errors)
        # the proxy coefficient carries no real signal
        sw_refit = sandwich(out.refit, out.refit_design, truth.y[:, 0])
        assert abs(out.refit.beta[2]) <= 4 * sw_refit.standard_errors[2]

    def test_true_noise_hook_is_nearly_unbiased(self):
        fam = poisson()
        gaps = []
        for r in range(30):
            cfg = SimConfig(fam, m=1000, q=4, seed=replicate_seed(41, r))
            truth = generate(cfg)
            exact = truth.noise_coefs[0] * truth.noise + truth.eps[:, 0]
            out = sglm_denoise(to_panel(truth, fam), noise_override=exact)
            gaps.append(np.mean(out.signal_hat - truth.signal[:, 0]))
        se = np.std(gaps, ddof=1) / np.sqrt(len(gaps))
        assert abs(np.mean(gaps)) <= 3 * se + 0.01

    def test_result_structure(self):
        fam = poisson()
        truth = generate(SimConfig(fam, m=150, q=4, seed=13))
        panel = to_panel(truth, fam)
        out = sglm_denoise(panel, residual_kind="deviance")
        assert out.noise_hat.shape == (150,)
        assert abs(out.noise_hat.mean()) < 1e-8
        assert out.refit.beta.shape == (3,)  # intercept, x, proxy
        assert np.allclose(out.signal_hat, panel.design.x @ out.refit.beta[:2])
        assert out.diagnostics.residual_kind == "deviance"
        assert 0.0 <= out.diagnostics.r2_joint <= 1.0

    def test_bit_identical_reruns(self):
        fam = poisson()
        truth = generate(SimConfig(fam, m=200, q=5, seed=77))
        panel = to_panel(truth, fam)
        a = sglm_denoise(panel)
        b = sglm_denoise(panel)
        assert np.array_equal(a.noise_hat, b.noise_hat)
        assert np.array_equal(a.refit.beta, b.refit.beta)
        assert np.array_equal(a.signal_hat, b.signal_hat)

    def test_override_length_check(self):
        fam = poisson()
        truth = generate(SimConfig(fam, m=100, q=3, seed=5))
        with pytest.raises(ValueError):
            sglm_denoise(to_panel(truth, fam), noise_override=np.zeros(99))

    def test_series_errors_keep_type_and_last_fit(self):
        fam = poisson()
        panel = to_panel(generate(SimConfig(fam, m=120, q=5, seed=1)), fam)
        with pytest.raises(ConvergenceError) as excinfo:
            sglm_denoise(panel, options=FitOptions(max_iter=1))
        assert str(excinfo.value).startswith("series 0:")
        assert excinfo.value.last_fit is not None

    def test_separated_target_raises_a_typed_error(self):
        x = np.linspace(-1, 1, 40)
        aux = (np.random.default_rng(0).random(40) < 0.5).astype(float)
        panel = Panel(
            design=design_with_intercept(x, names=("x",)),
            responses=np.column_stack([(x > 0).astype(float), aux]),
            family=bernoulli(),
        )
        with pytest.raises(ConvergenceError, match="^series 0: ") as excinfo:
            sglm_denoise(panel)
        assert excinfo.value.last_fit is not None

    def test_non_default_target(self):
        fam = poisson()
        truth = generate(SimConfig(fam, m=500, q=4, seed=15))
        out = sglm_denoise(to_panel(truth, fam, target_index=2))
        from sibglm.simulate import metrics

        rec = metrics(truth, out, target_index=2)
        assert np.isfinite(rec.mse) and np.isfinite(rec.bias)
        direct = out.base_fit
        assert np.allclose(
            direct.mu, fam.mean(direct.eta)
        )  # base fit belongs to the chosen series
        assert abs(direct.beta[1] - truth.x_coefs[2]) < 1.0


class TestPanel:
    def test_needs_two_series(self):
        design = design_with_intercept(np.arange(4.0), names=("x",))
        with pytest.raises(ValueError):
            Panel(design=design, responses=np.ones((4, 1)), family=poisson())

    def test_support_validation(self):
        design = design_with_intercept(np.arange(4.0), names=("x",))
        bad = np.column_stack([np.ones(4), -np.ones(4)])
        with pytest.raises(Exception):
            Panel(design=design, responses=bad, family=poisson())

    def test_target_index_range(self):
        design = design_with_intercept(np.arange(4.0), names=("x",))
        with pytest.raises(ValueError):
            Panel(
                design=design,
                responses=np.ones((4, 2)),
                family=poisson(),
                target_index=2,
            )
