"""Synthetic panel generator: distributions, determinism, pairing, scoring."""

import numpy as np
import pytest

from sibglm.families import gamma, gaussian, poisson
from sibglm.glm import design_with_intercept, evaluate_at, fit_glm
from sibglm.inference import sandwich
from sibglm.sibling import SglmDiagnostics, SglmResult
from sibglm.simulate import (
    GenerationError,
    MetricsRecord,
    SimConfig,
    generate,
    metrics,
    replicate_seed,
    to_panel,
)


class TestGenerate:
    def test_uniform_moments(self):
        truth = generate(SimConfig(poisson(), m=100_000, q=2, seed=1))
        for series in (truth.x, truth.noise):
            assert abs(series.mean()) < 0.01
            assert abs(series.var() - 1.0 / 3.0) < 0.02 / 3.0

    def test_bit_identical_for_same_seed(self):
        a = generate(SimConfig(poisson(), m=200, q=5, seed=42))
        b = generate(SimConfig(poisson(), m=200, q=5, seed=42))
        for field in ("x", "noise", "x_coefs", "noise_coefs", "eps", "theta", "y"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_seed_changes_output(self):
        a = generate(SimConfig(poisson(), m=200, q=5, seed=42))
        b = generate(SimConfig(poisson(), m=200, q=5, seed=43))
        assert not np.array_equal(a.y, b.y)

    def test_q_extension_is_paired(self):
        small = generate(SimConfig(poisson(), m=150, q=3, seed=9))
        large = generate(SimConfig(poisson(), m=150, q=8, seed=9))
        assert np.array_equal(small.x, large.x)
        assert np.array_equal(small.noise, large.noise)
        assert np.array_equal(small.x_coefs, large.x_coefs[:3])
        assert np.array_equal(small.noise_coefs, large.noise_coefs[:3])
        assert np.array_equal(small.y, large.y[:, :3])

    def test_theta_identity_exact(self):
        truth = generate(SimConfig(gamma(2.0), m=300, q=4, seed=3))
        rebuilt = (
            truth.signal
            + truth.noise_coefs[None, :] * truth.noise[:, None]
            + truth.eps
            + truth.theta_shift
        )
        assert np.array_equal(truth.theta, rebuilt)

    def test_gamma_thetas_inside_domain(self):
        truth = generate(SimConfig(gamma(2.0), m=500, q=6, seed=8))
        assert np.all(truth.theta < 0)
        assert truth.theta_shift == -3.5

    def test_gamma_domain_violation_raises(self):
        with pytest.raises(GenerationError):
            generate(SimConfig(gamma(2.0), m=2000, q=3, sigma_eps=5.0, seed=1))

    def test_column_means_match_family_means(self):
        truth = generate(SimConfig(poisson(), m=50_000, q=3, seed=21))
        fam = poisson()
        for j in range(3):
            diff = truth.y[:, j] - fam.mean(truth.theta[:, j])
            se = diff.std(ddof=1) / np.sqrt(len(diff))
            assert abs(diff.mean()) <= 4 * se

    def test_noise_scheme_overrides(self):
        z = generate(SimConfig(poisson(), m=50, q=4, seed=2, noise_coefficient_scheme="zero"))
        assert np.all(z.noise_coefs == 0.0)
        o = generate(SimConfig(poisson(), m=50, q=4, seed=2, noise_coefficient_scheme="one"))
        assert np.all(o.noise_coefs == 1.0)

    def test_clean_columns_recover_coefficients(self):
        fam = poisson()
        cfg = SimConfig(
            fam, m=5000, q=2, sigma_eps=0.0, seed=77, noise_coefficient_scheme="zero"
        )
        truth = generate(cfg)
        panel = to_panel(truth, fam)
        for j in range(2):
            fit = fit_glm(panel.design, truth.y[:, j], fam)
            sw = sandwich(fit, panel.design, truth.y[:, j])
            assert abs(fit.beta[1] - truth.x_coefs[j]) <= 3 * sw.standard_errors[1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(poisson(), m=1, q=3)
        with pytest.raises(ValueError):
            SimConfig(poisson(), m=10, q=1)
        with pytest.raises(ValueError):
            SimConfig(poisson(), m=10, q=3, sigma_eps=-0.1)
        with pytest.raises(ValueError):
            SimConfig(poisson(), m=10, q=3, noise_coefficient_scheme="half")

    def test_replicate_seed_deterministic(self):
        assert replicate_seed(5, 3) == replicate_seed(5, 3)
        assert replicate_seed(5, 3) != replicate_seed(5, 4)


class TestMetrics:
    def _truth(self):
        return generate(SimConfig(gaussian(1.0), m=120, q=3, seed=4))

    def test_exact_signal_estimate_scores_zero(self):
        truth = self._truth()
        design = design_with_intercept(truth.x, names=("x",))
        fit = evaluate_at(
            design, gaussian(1.0), [truth.theta_shift, truth.x_coefs[0]]
        )
        rec = metrics(truth, fit)
        assert rec.mse == pytest.approx(0.0, abs=1e-24)
        assert rec.bias == pytest.approx(0.0, abs=1e-15)
        assert np.isnan(rec.noise_corr)

    def _sglm_result(self, truth, noise_hat):
        design = design_with_intercept(truth.x, names=("x",))
        base = evaluate_at(design, gaussian(1.0), [0.0, truth.x_coefs[0]])
        refit_design = design_with_intercept(
            np.column_stack([truth.x, noise_hat]), names=("x", "noise_hat")
        )
        refit = evaluate_at(
            refit_design, gaussian(1.0), [0.0, truth.x_coefs[0], 1.0]
        )
        return SglmResult(
            noise_hat=noise_hat,
            base_fit=base,
            refit=refit,
            refit_design=refit_design,
            signal_hat=truth.signal[:, 0],
            diagnostics=SglmDiagnostics("fisher", False, "override", 1.0, 0.0),
        )

    def test_exact_noise_gives_unit_correlation(self):
        truth = self._truth()
        rec = metrics(truth, self._sglm_result(truth, truth.noise.copy()))
        assert rec.noise_corr == pytest.approx(1.0)
        assert rec.mse == pytest.approx(0.0, abs=1e-24)

    def test_flipped_noise_gives_negative_correlation(self):
        truth = self._truth()
        rec = metrics(truth, self._sglm_result(truth, -truth.noise))
        assert rec.noise_corr == pytest.approx(-1.0)

    def test_length_mismatch(self):
        truth = self._truth()
        short = generate(SimConfig(gaussian(1.0), m=60, q=3, seed=4))
        design = design_with_intercept(short.x, names=("x",))
        fit = evaluate_at(design, gaussian(1.0), [0.0, 1.0])
        with pytest.raises(ValueError):
            metrics(truth, fit)

    def test_score_is_nan_where_undefined(self):
        signal = np.linspace(0.0, 1.0, 5)
        rec = MetricsRecord.score(signal, np.zeros(5), 1.0, None, signal, 0.0)
        assert np.isnan(rec.mse) and np.isnan(rec.bias) and np.isnan(rec.noise_corr)
        rec = MetricsRecord.score(signal + 0.5, -signal, 1.5, signal, signal, 1.0)
        assert (rec.mse, rec.bias, rec.noise_corr) == pytest.approx((0.25, 0.5, -1.0))

    def test_record_fields(self):
        rec = MetricsRecord(mse=1.0, bias=0.5, noise_corr=float("nan"))
        assert rec.mse == 1.0 and rec.bias == 0.5
