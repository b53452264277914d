"""Sibling estimators, their algebraic identity, and the denoising pipeline."""

import collections
import concurrent.futures
import gc
import itertools
import math
import weakref

import numpy as np
import pytest

import sibglm.benchmark
import sibglm.glm
import sibglm.sibling
from sibglm.benchmark import Study, run_study
from sibglm.families import DomainError, bernoulli, gamma, gaussian, poisson
from sibglm.glm import (
    ConvergenceError,
    SingularDesignError,
    _initial_beta,
    design_with_intercept,
    fit_glm,
    fit_glms,
)
from sibglm.residuals import RESIDUAL_KINDS, columns, compute
from sibglm.sibling import (
    ESTIMATORS,
    MEAN_OF_RESIDUALS,
    NOISE_STRATEGIES,
    SGLM,
    CellSpec,
    Panel,
    HALF_SIBLING,
    THREE_QUARTER,
    _base,
    _failure,
    _fit_step,
    _kept,
    _least_squares,
    _linear,
    _proxies,
    estimates,
    half_sibling,
    run_estimator,
    sglm_denoise,
    three_quarter_sibling,
)
from sibglm.simulate import SimConfig, generate, replicate_seed, to_panel

from oracles import (
    informative_columns_per_column,
    lone_proxy,
    lone_sglm,
    qr_noise_proxy,
    residual_form_equivalence,
    residual_matrix,
)


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


def _informative_columns(y2, base):
    """The sibling columns the linear estimators keep given ``base``."""
    ok, (fitted,) = _least_squares(base[None], y2[None])
    assert ok[0]
    return y2[:, _kept(y2[None], fitted)[0]]


class TestInformativeColumns:
    M = 200

    @classmethod
    def _grid(cls):
        """Sibling columns by name, with whether each is kept given ``[1, x]``."""
        rng = np.random.default_rng(12)
        m = cls.M
        x = rng.normal(size=m)
        sibling = rng.normal(size=m)
        noise = rng.normal(size=m)
        cases = {
            "constant": (np.full(m, 2.0), False),
            "zero": (np.zeros(m), False),
            "equal_to_x": (x.copy(), False),
            "x_plus_1e-12": (x + 1e-12 * noise, False),
            "base_plus_1e-8": (3.0 - 2.0 * x + 1e-8 * noise, True),
            "base_plus_1e-10": (3.0 - 2.0 * x + 1e-10 * noise, False),
            "duplicate_a": (sibling, True),
            "duplicate_b": (sibling.copy(), True),
            "informative": (rng.normal(size=m), True),
        }
        return x, cases

    def test_same_columns_as_the_per_column_loop(self):
        x, cases = self._grid()
        ones = np.ones((self.M, 1))
        y2 = np.column_stack([col for col, _ in cases.values()])
        for base in (ones, np.column_stack([ones, x])):
            for col, _ in cases.values():
                one = col[:, None]
                assert np.array_equal(
                    _informative_columns(one, base), informative_columns_per_column(one, base)
                )
            assert np.array_equal(
                _informative_columns(y2, base), informative_columns_per_column(y2, base)
            )

    def test_columns_kept_given_the_covariate(self):
        x, cases = self._grid()
        base = np.column_stack([np.ones(self.M), x])
        y2 = np.column_stack([col for col, _ in cases.values()])
        kept = np.array([keep for _, keep in cases.values()])
        assert np.array_equal(_informative_columns(y2, base), y2[:, kept])

    def test_duplicate_siblings_still_fail_the_final_fit(self):
        _, cases = self._grid()
        y2 = np.column_stack([cases["duplicate_a"][0], cases["duplicate_b"][0]])
        y1 = np.random.default_rng(13).normal(size=self.M)
        with pytest.raises(SingularDesignError, match="^design matrix is rank deficient$"):
            half_sibling(y1, y2)


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
        nhat = sglm_denoise(to_panel(truth, fam)).noise_hat
        assert abs(np.corrcoef(nhat, truth.noise)[0, 1]) < 0.1

    def test_many_strong_siblings_recover_noise(self):
        fam = gaussian(1.0)
        cfg = SimConfig(fam, m=2000, q=21, seed=55, noise_coefficient_scheme="one")
        truth = generate(cfg)
        nhat = sglm_denoise(to_panel(truth, fam)).noise_hat
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
                nhat = sglm_denoise(to_panel(truth, fam)).noise_hat
                cs.append(np.corrcoef(nhat, truth.noise)[0, 1])
            means.append(np.mean(cs))
        diffs = np.diff(means)
        assert np.all(diffs > -0.02)

    def test_mean_zero_by_construction(self):
        fam = poisson()
        truth = generate(SimConfig(fam, m=300, q=5, seed=9))
        panel = to_panel(truth, fam)
        for strategy in ("regression", MEAN_OF_RESIDUALS):
            nhat = sglm_denoise(panel, strategy=strategy).noise_hat
            assert abs(nhat.mean()) < 1e-8

    def test_invariant_to_constant_shift_of_auxiliary_residuals(self):
        rng = np.random.default_rng(10)
        resid = rng.normal(size=(100, 5))
        x = np.column_stack([np.ones(100), rng.normal(size=100)])
        for strategy in ("regression", MEAN_OF_RESIDUALS):
            base = lone_proxy(resid, 0, x, False, strategy)
            shifted = resid.copy()
            shifted[:, 1:] += 4.2
            moved = lone_proxy(shifted, 0, x, False, strategy)
            assert np.allclose(base, moved, atol=1e-10)

    def test_unknown_strategy(self):
        fam = poisson()
        truth = generate(SimConfig(fam, m=100, q=3, seed=2))
        with pytest.raises(ValueError):
            sglm_denoise(to_panel(truth, fam), strategy="ridge")

    def test_conditioning_on_covariates_keeps_contract(self):
        fam = gaussian(1.0)
        cfg = SimConfig(fam, m=2000, q=11, seed=63, noise_coefficient_scheme="one")
        truth = generate(cfg)
        panel = to_panel(truth, fam)
        with_x = sglm_denoise(panel, include_x=True).noise_hat
        without = sglm_denoise(panel, include_x=False).noise_hat
        assert abs(with_x.mean()) < 1e-8
        # residuals are nearly uncorrelated with the covariates, so the two
        # conditioning sets give nearly the same proxy
        assert np.corrcoef(with_x, without)[0, 1] > 0.95
        assert np.corrcoef(with_x, truth.noise)[0, 1] > 0.8


class TestRegressionProxy:
    """The ``regression`` proxy is one projection: the target residuals on
    the shared component, both residualised on the baseline columns. It
    agrees with the two-fit QR form (``oracles.qr_noise_proxy``) to
    rounding, and raises that form's errors in the same order."""

    @staticmethod
    def _outcome(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            return exc

    def _assert_same_error(self, resid, x, include_x):
        got = self._outcome(lone_proxy, resid, 0, x, include_x, "regression")
        want = self._outcome(qr_noise_proxy, resid, 0, x, include_x)
        assert type(got) is type(want) is SingularDesignError
        assert str(got) == str(want)
        return str(got)

    @pytest.mark.parametrize("include_x", [False, True])
    @pytest.mark.parametrize(
        "family", [gaussian(1.0), poisson(), bernoulli(), gamma(2.0)], ids=lambda f: f.kind
    )
    def test_matches_the_qr_form(self, family, include_x):
        truth = generate(SimConfig(family, m=120, q=6, sigma_eps=0.3, seed=5))
        panel = to_panel(truth, family)
        fits = fit_glms(panel.design, panel.responses, family)
        # a constant column (dropped) and two covariates
        x = np.column_stack([panel.design.x, truth.x**2])
        base = x if include_x else x[:, :1]
        for kind in RESIDUAL_KINDS:
            resid = residual_matrix(panel, fits, kind)
            for target in (0, 3):
                for q in (2, 6):
                    args = (resid[:, :q], target % q, x, include_x)
                    got = lone_proxy(*args, "regression")
                    want = qr_noise_proxy(*args)
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
                    # the proxy is orthogonal to the baseline columns
                    scale = np.linalg.norm(base, axis=0) * np.linalg.norm(got)
                    assert np.all(np.abs(base.T @ got) <= 1e-12 * scale)

    def test_rows_are_checked_before_rank(self):
        # two rows: [1, x] passes, [1, x, shared] has more columns than rows
        resid = np.array([[0.3, -1.0, 0.5], [-0.2, 2.0, 0.1]])
        x = np.array([[1.0, 0.0], [1.0, 1.0]])
        message = self._assert_same_error(resid, x, True)
        assert message == "need at least as many rows as columns, got (2, 3)"

    @pytest.mark.parametrize("include_x", [False, True])
    def test_zero_auxiliary_residual_is_rank_deficient(self, include_x):
        rng = np.random.default_rng(2)
        resid = np.column_stack([rng.normal(size=20), np.zeros(20)])
        x = np.column_stack([np.ones(20), rng.uniform(-1, 1, 20)])
        message = self._assert_same_error(resid, x, include_x)
        assert message == "design matrix is rank deficient"


def _relative_gap(got, want) -> float:
    """Largest gap between two outputs, relative to max|want|; 0 when they are equal."""
    gap = np.max(np.abs(got - want))
    return float(gap / np.max(np.abs(want))) if gap else 0.0


class TestMetamorphicRelations:
    """Relations the model implies and the ``regression`` proxy keeps, each on
    eight fixed-seed panels (m=200, q=6) per family and residual kind. Each
    tolerance, relative to max|output|, is about ten times the largest gap
    seen on these panels: 1.6e-13 for the auxiliary order, and 1.1e-12 for
    the row order (the Gamma outputs and refit coefficients; the first
    fits' coefficients, the residuals and the other estimators' outputs
    move less)."""

    FAMILIES = [gaussian(1.0), poisson(), bernoulli(), gamma(2.0)]

    @staticmethod
    def _panels(family):
        for seed in range(8):
            truth = generate(SimConfig(family, m=200, q=6, seed=seed))
            yield seed, truth, to_panel(truth, family)

    @pytest.mark.parametrize("kind", RESIDUAL_KINDS)
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
    def test_reversed_auxiliaries_leave_the_proxy_unchanged(self, family, kind):
        for _, _, panel in self._panels(family):
            want = sglm_denoise(panel, kind).noise_hat
            flipped = Panel(panel.design, panel.responses[:, [0, 5, 4, 3, 2, 1]], family)
            assert _relative_gap(sglm_denoise(flipped, kind).noise_hat, want) <= 2e-12

    @pytest.mark.parametrize("kind", RESIDUAL_KINDS)
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
    def test_permuted_rows_permute_the_outputs(self, family, kind):
        # every estimator (the denoise command), the first fits' coefficients
        # (the fit command) and the residuals of the kind (the residuals command)
        for seed, truth, panel in self._panels(family):
            rows = np.random.default_rng(seed).permutation(panel.m)
            design = design_with_intercept(truth.x[rows], names=("x",))
            permuted = Panel(design, panel.responses[rows], family)
            for estimator in ESTIMATORS:
                want = run_estimator(panel, estimator, kind)
                got = run_estimator(permuted, estimator, kind)
                for name in ("signal_hat", "noise_hat", "mu_hat"):
                    gap = _relative_gap(getattr(got, name), getattr(want, name)[rows])
                    assert gap <= 1e-11, (estimator, name)
                if want.refit is not None:
                    assert _relative_gap(got.refit.beta, want.refit.beta) <= 1e-11, estimator
            fits = fit_glms(panel.design, panel.responses, family)
            permuted_fits = fit_glms(permuted.design, permuted.responses, family)
            for fit, permuted_fit in zip(fits, permuted_fits):
                assert _relative_gap(permuted_fit.beta, fit.beta) <= 1e-11
            want = residual_matrix(panel, fits, kind)
            assert _relative_gap(residual_matrix(permuted, permuted_fits, kind), want[rows]) <= 1e-11


class TestSglmDenoise:
    def test_zero_noise_leaves_coefficients_alone(self):
        fam = poisson()
        cfg = SimConfig(fam, m=2000, q=6, seed=31, noise_coefficient_scheme="zero")
        truth = generate(cfg)
        out = sglm_denoise(to_panel(truth, fam))
        from sibglm.inference import sandwich

        panel = to_panel(truth, fam)
        base_fit = fit_glm(panel.design, truth.y[:, 0], fam)
        sw = sandwich(base_fit, panel.design, truth.y[:, 0])
        gap = np.abs(out.refit.beta[:2] - base_fit.beta)
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
            # refit the target on the true noise it was generated with
            exact = truth.noise_coefs[0] * truth.noise + truth.eps[:, 0]
            design = design_with_intercept(np.column_stack([truth.x, exact - exact.mean()]))
            fit = fit_glm(design, truth.y[:, 0], fam)
            gaps.append(np.mean(design.x[:, :2] @ fit.beta[:2] - truth.signal[:, 0]))
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

    def test_bit_identical_reruns(self):
        fam = poisson()
        truth = generate(SimConfig(fam, m=200, q=5, seed=77))
        panel = to_panel(truth, fam)
        a = sglm_denoise(panel)
        b = sglm_denoise(panel)
        assert np.array_equal(a.noise_hat, b.noise_hat)
        assert np.array_equal(a.refit.beta, b.refit.beta)
        assert np.array_equal(a.signal_hat, b.signal_hat)

    def test_series_errors_keep_type_and_last_fit(self, monkeypatch):
        fam = poisson()
        panel = to_panel(generate(SimConfig(fam, m=120, q=5, seed=1)), fam)
        monkeypatch.setattr(sibglm.glm, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError) as excinfo:
            sglm_denoise(panel)
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

    def test_exactly_singular_refit_is_a_typed_error(self):
        # LAPACK finds this refit's weighted system exactly singular although
        # its Cholesky diagonals pass the rank test; a batch keeps the others
        fam = bernoulli()
        bad, good = (
            to_panel(generate(SimConfig(fam, m=6, q=2, seed=replicate_seed(7, i))), fam)
            for i in (0, 1)
        )
        with pytest.raises(SingularDesignError, match="^weighted design is numerically singular$"):
            sglm_denoise(bad)
        bad_outcome, good_outcome = estimates([_pair(CellSpec(2, SGLM), p) for p in (bad, good)])
        assert isinstance(bad_outcome, SingularDesignError)
        _assert_same_estimate(good_outcome, sglm_denoise(good))
        # in a study, the cell fails with that note instead of the study raising
        (result,), _ = run_study(Study(fam, m=6, replicates=2, master_seed=7), [CellSpec(2, SGLM)])
        assert result.error == "SingularDesignError: weighted design is numerically singular"

    def test_non_default_target(self):
        fam = poisson()
        truth = generate(SimConfig(fam, m=500, q=4, seed=15))
        panel = to_panel(truth, fam, target_index=2)
        out = sglm_denoise(panel)
        from sibglm.simulate import metrics

        rec = metrics(truth, out, target_index=2)
        assert np.isfinite(rec.mse) and np.isfinite(rec.bias)
        direct = fit_glm(panel.design, truth.y[:, 2], fam)
        assert np.allclose(
            direct.mu, fam.mean(direct.eta)
        )  # base fit belongs to the chosen series
        assert abs(direct.beta[1] - truth.x_coefs[2]) < 1.0
        # the refit solves the chosen series' score equation
        score = out.refit_design.x.T @ (truth.y[:, 2] - out.refit.mu)
        assert np.abs(score).max() < 1e-6


def _assert_same_estimate(got, want):
    for name in ("signal_hat", "noise_hat", "mu_hat"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("beta", "eta", "mu", "fisher_diag"):
        assert getattr(got.refit, name).tobytes() == getattr(want.refit, name).tobytes(), name
    assert (got.refit.loglik, got.refit.iterations) == (want.refit.loglik, want.refit.iterations)
    assert got.refit_design.x.tobytes() == want.refit_design.x.tobytes()
    assert got.refit_design.column_names == want.refit_design.column_names


class TestRunEstimator:
    @pytest.mark.parametrize("target", [0, 2])
    @pytest.mark.parametrize("family", [poisson(), gamma(2.0)], ids=lambda f: f.kind)
    def test_sglm_is_bitwise_the_lone_refit(self, family, target):
        truth = generate(SimConfig(family, m=80, q=5, sigma_eps=0.3, seed=8))
        panel = to_panel(truth, family, target_index=target)
        fits = fit_glms(panel.design, panel.responses, family)
        for kind in RESIDUAL_KINDS:
            resid = residual_matrix(panel, fits, kind)
            for strategy in NOISE_STRATEGIES:
                for include_x in (False, True):
                    _assert_same_estimate(
                        run_estimator(panel, "sglm", kind, include_x, strategy),
                        lone_sglm(panel, resid, include_x, strategy),
                    )

    def test_glm_is_the_targets_fit(self):
        fam = poisson()
        panel = to_panel(generate(SimConfig(fam, m=80, q=5, seed=8)), fam, target_index=2)
        fit = fit_glm(panel.design, panel.responses[:, 2], fam)
        got = run_estimator(panel, "glm")
        for name in ("beta", "eta", "mu", "fisher_diag"):
            assert getattr(got.refit, name).tobytes() == getattr(fit, name).tobytes(), name
        assert got.signal_hat.tobytes() == fit.eta.tobytes()
        assert got.mu_hat.tobytes() == fit.mu.tobytes()
        assert not got.noise_hat.any()
        assert got.refit_design is panel.design

    @pytest.mark.parametrize(
        "strategy, error, message",
        [
            ("ridge", ValueError, "unknown noise strategy 'ridge'"),
            # the averaged proxy of two exact lines is rounding error
            (MEAN_OF_RESIDUALS, SingularDesignError, "design matrix is rank deficient$"),
        ],
    )
    def test_sglm_raises_the_error_of_its_request(self, strategy, error, message):
        x = np.linspace(-1.0, 1.0, 30)
        y = 1 + 0.5 * x + np.random.default_rng(1).normal(0, 0.3, 30)
        panel = Panel(
            design_with_intercept(x, names=("x",)),
            np.column_stack([y, 1 + 2 * x, 2 - x]),
            gaussian(1.0),
        )
        with pytest.raises(error, match=f"^{message}"):
            run_estimator(panel, "sglm", strategy=strategy)

    @pytest.mark.parametrize("target", [0, 2])
    def test_errors_are_the_lone_fits_errors(self, target):
        # s02 is separated by x: its fit fails, the others fit
        x = np.linspace(-1, 1, 40)
        noisy = (np.random.default_rng(0).random((40, 2)) < 0.5).astype(float)
        ys = np.column_stack([noisy, x > 0])
        panel = Panel(design_with_intercept(x, names=("x",)), ys, bernoulli(), target)
        with pytest.raises(ConvergenceError) as lone:
            fit_glms(panel.design, ys, bernoulli())
        with pytest.raises(ConvergenceError) as got:
            run_estimator(panel, "sglm")
        assert str(got.value) == str(lone.value)
        assert str(got.value).startswith("series 2: ")
        assert got.value.last_fit.beta.tobytes() == lone.value.last_fit.beta.tobytes()
        if target == 0:
            assert run_estimator(panel, "glm").refit.converged
        else:
            with pytest.raises(ConvergenceError) as lone:
                fit_glm(panel.design, ys[:, 2], bernoulli())
            with pytest.raises(ConvergenceError) as got:
                run_estimator(panel, "glm")
            assert str(got.value) == str(lone.value)
            assert not str(got.value).startswith("series")

    def test_rank_deficient_design_fails_the_fitted_estimators(self):
        x = np.ones(20)
        ys = np.random.default_rng(3).poisson(2.0, (20, 3)).astype(float)
        panel = Panel(design_with_intercept(x, names=("x",)), ys, poisson())
        for estimator in ("glm", "sglm"):
            with pytest.raises(SingularDesignError, match="^design matrix is rank deficient$"):
                run_estimator(panel, estimator)
        assert run_estimator(panel, "half_sibling").refit is None

    def test_unknown_estimator(self):
        fam = poisson()
        panel = to_panel(generate(SimConfig(fam, m=40, q=3, seed=8)), fam)
        with pytest.raises(ValueError, match="^unknown estimator 'ridge'$"):
            run_estimator(panel, "ridge")

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_a_cell_wider_than_its_panel_fails(self, estimator):
        fam = poisson()
        panel = to_panel(generate(SimConfig(fam, m=40, q=3, seed=8)), fam)
        (outcome,) = estimates([_pair(CellSpec(6, estimator), panel)])
        assert type(outcome) is ValueError
        assert str(outcome) == "the cell needs q=6 series, the panel has 3"

    def test_a_narrow_cell_denoises_the_panels_target(self):
        fam = poisson()
        panel = to_panel(generate(SimConfig(fam, m=80, q=5, seed=8)), fam, target_index=1)
        (got,) = estimates([_pair(CellSpec(3, SGLM), panel)])
        alone = Panel(panel.design, panel.responses[:, :3], fam, 1)
        _assert_same_estimate(got, sglm_denoise(alone))

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_a_target_beyond_the_cell_fails(self, estimator):
        fam = poisson()
        panel = to_panel(generate(SimConfig(fam, m=40, q=5, seed=8)), fam, target_index=3)
        (outcome,) = estimates([_pair(CellSpec(2, estimator), panel)])
        assert type(outcome) is ValueError
        assert str(outcome) == "target series 3 is not among the cell's q=2 series"

    @pytest.mark.parametrize("q, estimator", [(1, SGLM), (1, HALF_SIBLING), (0, "glm")])
    def test_a_cell_needs_an_auxiliary_series(self, q, estimator):
        with pytest.raises(ValueError, match=r"^q_grid entries must be >= 2 \(target plus"):
            CellSpec(q, estimator)


def _pair(spec, panel):
    """``spec`` and its own step on ``panel``, as ``run_estimator`` pairs them."""
    return spec, (panel, *_fit_step(panel, [spec]), None)


def _lone_outcome(panel, resid, include_x, strategy):
    """``lone_sglm``'s estimate, or the exception it raises."""
    try:
        return lone_sglm(panel, resid, include_x, strategy)
    except Exception as exc:
        return exc


def _assert_same_outcome(got, want):
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        want_fit = getattr(want, "last_fit", None)
        got_fit = getattr(got, "last_fit", None)
        assert (got_fit is None) == (want_fit is None)
        if want_fit is not None:
            for name in ("beta", "eta", "mu", "fisher_diag"):
                assert getattr(got_fit, name).tobytes() == getattr(want_fit, name).tobytes()
            assert (got_fit.loglik, got_fit.iterations) == (want_fit.loglik, want_fit.iterations)
    else:
        _assert_same_estimate(got, want)


class TestSglmEstimates:
    """One ``estimates`` call answers each ``sglm`` pair, in pair order, with
    the lone refit's estimate on the panel of its first q series, bit for
    bit, or with its exception."""

    @staticmethod
    def _cells():
        """Each pair, with the panel of its cell's first q series and that
        panel's residuals."""
        fam = gaussian(1.0)
        truth = generate(SimConfig(fam, m=30, q=5, sigma_eps=0.3, seed=4))
        panel, other_target = to_panel(truth, fam), to_panel(truth, fam, target_index=2)
        # auxiliaries exactly linear in x: their residuals are rounding error
        x = truth.x
        y = 1 + 0.5 * x + np.random.default_rng(1).normal(0, 0.3, len(x))
        linear = Panel(panel.design, np.column_stack([y, 1 + 2 * x, 2 - x]), fam)
        cells = []
        for whole, q in [(panel, 5), (panel, 3), (linear, 3), (other_target, 5), (other_target, 3)]:
            alone = Panel(whole.design, whole.responses[:, :q], fam, whole.target_index)
            resid = residual_matrix(alone, fit_glms(alone.design, alone.responses, fam), "fisher")
            cells.append((_pair(CellSpec(q, SGLM), whole), alone, resid))
        return cells

    @pytest.mark.parametrize("include_x", [False, True])
    @pytest.mark.parametrize(
        "strategy, failures",
        [
            ("regression", [None] * 5),
            (MEAN_OF_RESIDUALS, [None, None, SingularDesignError, None, None]),
            ("ridge", [ValueError] * 5),
        ],
    )
    def test_mixed_batch_is_each_pair_alone(self, strategy, failures, include_x):
        cells = self._cells()
        got = estimates([pair for pair, *_ in cells], include_x, strategy)
        assert len(got) == len(cells)
        for outcome, failure, (_, alone, resid) in zip(got, failures, cells):
            _assert_same_outcome(outcome, _lone_outcome(alone, resid, include_x, strategy))
            assert type(outcome) is (failure or sibglm.sibling.Estimate)
        if strategy == MEAN_OF_RESIDUALS:
            assert str(got[2]) == "design matrix is rank deficient"

    def test_refit_errors_keep_their_last_fit(self, monkeypatch):
        cells = self._cells()
        monkeypatch.setattr(sibglm.glm, "MAX_ITER", 0)
        got = estimates([pair for pair, *_ in cells])
        for outcome, (_, alone, resid) in zip(got, cells):
            _assert_same_outcome(outcome, _lone_outcome(alone, resid, False, "regression"))
        assert [type(o) for o in got] == [ConvergenceError] * 5
        assert all(o.last_fit.iterations == 0 for o in got)


def _sub_stacks(n: int, seed: int):
    """Ways to run n requests as stacks: whole, one at a time, reversed, and
    shuffled orders cut into two or three stacks."""
    rng = np.random.default_rng(seed)
    yield [list(range(n))]
    yield [[i] for i in range(n)]
    yield [list(range(n))[::-1]]
    for _ in range(4):
        order = [int(i) for i in rng.permutation(n)]
        cuts = sorted(rng.choice(np.arange(1, n), size=min(2, n - 1), replace=False))
        yield [part for part in np.split(order, cuts)]


def _outcome(fn, *args):
    """``fn(*args)``, or the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _assert_bitwise(got, want):
    """The same exception (type and message) or the same array, bit for bit."""
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
    else:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _each_request(kernel, n: int, seed: int = 0) -> list:
    """``kernel(indices)``'s outcomes for each of n requests, checked to be the
    same bit for bit however the requests are cut into stacks or ordered."""
    want = kernel(list(range(n)))
    assert len(want) == n
    for stacks in _sub_stacks(n, seed):
        for stack in stacks:
            for i, got in zip(stack, kernel([int(i) for i in stack])):
                _assert_bitwise(got, want[i])
    return want


class TestStackedKernels:
    """Each stacked kernel gives every request of a stack the outcome of its
    lone call, bit for bit, however its group is split into sub-stacks or
    ordered, also when one member of the group fails."""

    @staticmethod
    def _residuals(family, count, m=60, q=6):
        for seed in range(count):
            panel = to_panel(generate(SimConfig(family, m=m, q=q, sigma_eps=0.3, seed=seed)), family)
            fits = fit_glms(panel.design, panel.responses, family)
            yield panel, residual_matrix(panel, fits, RESIDUAL_KINDS[seed % 4])

    @pytest.mark.parametrize("strategy", NOISE_STRATEGIES)
    @pytest.mark.parametrize("include_x", [False, True])
    def test_proxies(self, include_x, strategy):
        requests = list(self._residuals(gamma(2.0), 5))
        # a zero auxiliary residual: its shared component is zero, so the
        # regression proxy is rank deficient
        panel, resid = requests[2]
        requests[2] = panel, np.column_stack([resid[:, 0], np.zeros((panel.m, 5))])

        def kernel(indices):
            resid = np.stack([requests[i][1] for i in indices])
            base = np.stack([_base(requests[i][0].design.x, include_x) for i in indices])
            return _proxies(resid, 0, base, strategy)

        got = _each_request(kernel, len(requests))
        for (panel, resid), outcome in zip(requests, got):
            x = panel.design.x
            _assert_bitwise(outcome, _outcome(lone_proxy, resid, 0, x, include_x, strategy))
        if strategy == "regression":
            assert str(got[2]) == "design matrix is rank deficient"
        assert sum(isinstance(o, Exception) for o in got) == (strategy == "regression")

    @pytest.mark.parametrize("estimator", [HALF_SIBLING, THREE_QUARTER])
    def test_linear_estimators(self, estimator):
        family = poisson()
        panels = [
            to_panel(generate(SimConfig(family, m=50, q=5, sigma_eps=0.3, seed=s)), family)
            for s in range(6)
        ]
        ys = [np.log1p(panel.responses) for panel in panels]
        ys[1][:, 3] = 0.7  # a constant auxiliary: one fewer kept column
        ys[4][:, 2] = ys[4][:, 1]  # duplicate siblings: the final fit is rank deficient

        def kernel(indices):
            return _linear(
                estimator,
                np.stack([ys[i][:, 0] for i in indices]),
                np.stack([ys[i][:, 1:] for i in indices]),
                np.stack([_base(panels[i].design.x, estimator == THREE_QUARTER) for i in indices]),
            )

        got = _each_request(kernel, len(panels))
        for panel, y, outcome in zip(panels, ys, got):
            if estimator == HALF_SIBLING:
                lone = _outcome(half_sibling, y[:, 0], y[:, 1:])
            else:
                lone = _outcome(three_quarter_sibling, panel.design.x, y[:, 0], y[:, 1:])
            _assert_bitwise(outcome, lone)
        assert [isinstance(o, SingularDesignError) for o in got] == [False] * 4 + [True, False]

    def test_a_sub_group_that_raises_fails_alone(self):
        # m=5 and five siblings: the requests that keep all five have full
        # designs wider than their rows, so their sub-group's least-squares
        # call raises; the requests that keep three and four fit
        rng = np.random.default_rng(3)
        y1, y2 = rng.normal(size=(4, 5)), rng.normal(size=(4, 5, 5))
        y2[1, :, 3:] = 0.7
        y2[2, :, 4] = -1.2
        got = _linear(HALF_SIBLING, y1, y2, np.ones((4, 5, 1)))
        for j, outcome in enumerate(got):
            _assert_bitwise(outcome, _outcome(half_sibling, y1[j], y2[j]))
        wide = "need at least as many rows as columns, got (5, 6)"
        errors = [str(outcome) if isinstance(outcome, Exception) else None for outcome in got]
        assert errors == [wide, None, None, wide]

    @pytest.mark.parametrize("kind", RESIDUAL_KINDS)
    def test_residual_columns(self, kind):
        # the byte gate's bernoulli-partway panel at m=6, seed 42: on replicate
        # 0 series 6 has no student residual
        family = bernoulli()
        config = SimConfig(family, m=6, q=8, seed=replicate_seed(42, 0))
        panel = to_panel(generate(config), family)
        fits = fit_glms(panel.design, panel.responses, family)
        lone = [_outcome(compute, kind, fit, panel.responses[:, j], panel.design)
                for j, fit in enumerate(fits)]
        failing = [j for j, outcome in enumerate(lone) if isinstance(outcome, Exception)]
        assert failing == ([6] if kind == "student" else [])

        def columns_of(order):
            matrix, error = columns(kind, [fits[j] for j in order], panel.responses[:, order],
                                    panel.design)
            stop = next((n for n, j in enumerate(order) if j in failing), len(order))
            assert matrix.shape == (panel.m, stop)
            if stop < len(order):
                _assert_bitwise(error, lone[order[stop]])
            else:
                assert error is None
            return [matrix[:, n] for n in range(stop)]

        for stacks in _sub_stacks(panel.q, 1):
            for stack in stacks:
                for j, column in zip(stack, columns_of([int(j) for j in stack])):
                    _assert_bitwise(column, lone[j])

    def test_gamma_starts(self):
        # one design with no constant column takes the least-squares start
        rng = np.random.default_rng(5)
        x = np.stack([design_with_intercept(rng.uniform(-1, 1, 40)).x for _ in range(5)])
        x[3, :, 0] = rng.uniform(0.5, 1.5, 40)
        ys = rng.gamma(2.0, 1.0, (5, 40))
        family = gamma(2.0)
        starts = _each_request(lambda rows: list(_initial_beta(x[rows], ys[rows], family)), 5)
        for j, start in enumerate(starts):
            _assert_bitwise(start, _initial_beta(x[j], ys[j : j + 1], family)[0])
        assert starts[3][1] != 0.0 and all(start[1] == 0.0 for start in starts[:3])


class TestBatchedStudy:
    """A study refits all its ``sglm`` cells of a replicate in one IRLS loop;
    each cell's results are bitwise those of the cell run alone, by the
    same call and by the lone refit of ``oracles.lone_sglm``."""

    @staticmethod
    def _assert_each_cell_as_alone(study, cells, monkeypatch):
        # one shared step, and one draw, per replicate, whatever fails on it
        steps, draws = [], []
        shared_replicate = sibglm.benchmark._shared_replicate
        with monkeypatch.context() as patched:
            patched.setattr(sibglm.benchmark, "_shared_replicate",
                            lambda *args: steps.append(args[2]) or shared_replicate(*args))
            patched.setattr(sibglm.benchmark, "generate",
                            lambda config: draws.append(config.q) or generate(config))
            results, _ = run_study(study, cells)
        assert steps == list(range(study.replicates))
        assert draws == [max(c.q for c in cells)] * study.replicates
        alone = [run_study(study, [spec])[0][0] for spec in cells]

        def lone_estimates(pairs, include_x, strategy):
            # each live sglm cell refitted by lone_sglm on the panel of its first q series
            outcomes = []
            for spec, step in pairs:
                panel, _, residuals, _ = step
                if spec.estimator != SGLM or _failure(spec, step) is not None:
                    outcomes += estimates([(spec, step)], include_x, strategy)
                    continue
                alone = Panel(panel.design, panel.responses[:, : spec.q], panel.family)
                resid = residuals[spec.residual_kind][0][:, : spec.q]
                outcomes.append(_lone_outcome(alone, resid, include_x, strategy))
            return outcomes

        with monkeypatch.context() as patched:
            patched.setattr(sibglm.sibling, "estimates", lone_estimates)
            lone = [run_study(study, [spec])[0][0] for spec in cells]
        for result, *references in zip(results, alone, lone):
            for reference in references:
                assert result.spec == reference.spec
                assert result.error == reference.error
                assert result.samples.keys() == reference.samples.keys()
                for name, values in result.samples.items():
                    assert values.tobytes() == reference.samples[name].tobytes(), name
        return results

    @pytest.mark.parametrize("family", [poisson(), gamma(2.0)], ids=lambda f: f.kind)
    def test_sglm_cells_are_bitwise_the_cells_alone(self, family, monkeypatch):
        study = Study(family, m=120, replicates=4, master_seed=3)
        cells = [CellSpec(q, SGLM, kind) for q in (2, 6) for kind in RESIDUAL_KINDS]
        results = self._assert_each_cell_as_alone(study, [*cells, CellSpec(6, "glm")], monkeypatch)
        assert all(result.error is None for result in results)

    def test_failing_cells_keep_their_notes(self, monkeypatch):
        # at m=12 some refits fail, and their cells get the lone refit's note
        study = Study(bernoulli(), m=12, replicates=6, master_seed=3)
        cells = [
            CellSpec(q, estimator, kind)
            for q in (2, 4, 8)
            for estimator in ESTIMATORS
            for kind in (("fisher", "student") if estimator == SGLM else ("fisher",))
        ]
        results = self._assert_each_cell_as_alone(study, cells, monkeypatch)
        failed = [r for r in results if r.error is not None]
        assert any(r.spec.estimator == SGLM for r in failed)
        assert any(r.spec.estimator == SGLM and r.error is None for r in results)

    def test_cells_beyond_a_failed_draw_fail_alone(self, monkeypatch):
        # the byte gate's gamma-failing study, plus q=9: on replicate 7 series 8
        # leaves the domain, so the cells at q > 8 fail there, and those at
        # q <= 8 use the series drawn before it (on the byte gate's grid the
        # parent drew 20 panels, one per replicate and one per live cell on
        # replicate 7)
        study = Study(gamma(2.0), m=40, sigma_eps=0.7, replicates=8, master_seed=1)
        cells = [CellSpec(q, e) for q in (2, 4, 8, 9, 16) for e in ("glm", SGLM, "half_sibling")]
        results = self._assert_each_cell_as_alone(study, cells, monkeypatch)
        assert [r.spec.q for r in results if r.error is not None] == [9] * 3 + [16] * 3
        assert all(r.error.startswith("GenerationError: series 8, ") for r in results if r.error)

    @pytest.mark.parametrize(
        "m, seed, note",
        [
            # series 6 has no first fit on replicate 2
            (12, 7, "ConvergenceError: series 6: fitted means reach the edge"),
            # series 4 has no first fit, and a student residual fails beyond q=4
            (6, 42, "LeverageError: leverage of 1 encountered"),
        ],
    )
    def test_cells_beyond_a_failed_fit_or_residual_fail_alone(self, m, seed, note, monkeypatch):
        # the byte gate's bernoulli-partway studies; at q=7 the cells need
        # exactly the series before the failing one and that one
        study = Study(bernoulli(), m=m, replicates=4, master_seed=seed)
        cells = [
            CellSpec(q, estimator, kind)
            for q in (2, 4, 7, 8)
            for estimator in ESTIMATORS
            for kind in (("fisher", "student") if estimator == SGLM else ("fisher",))
        ]
        results = {r.spec: r for r in self._assert_each_cell_as_alone(study, cells, monkeypatch)}
        assert results[CellSpec(7, SGLM, "student")].error.startswith(note)
        assert results[CellSpec(8, SGLM, "student")].error.startswith(note)
        # at q=4 the cell uses only series that fit and have residuals
        assert results[CellSpec(4, SGLM, "student")].error is None
        # a plain fit of the target is not failed by another series
        assert results[CellSpec(8, "glm")].error is None

    @pytest.mark.parametrize("jobs", [1, 2, 3, 7])
    @pytest.mark.parametrize("cap", [1, 500, 2**14, 2**60])
    def test_blocks_cover_the_replicates_in_capped_shares(self, cap, jobs, monkeypatch):
        monkeypatch.setattr(sibglm.benchmark, "_BLOCK_ROWS", cap)
        grid = itertools.product((1, 2, 5, 8, 100), (2, 60, 400), (0, 1, 16))
        for replicates, m, sglm_cells in grid:
            study = Study(poisson(), m=m, replicates=replicates)
            cells = [CellSpec(2, "glm")] + [CellSpec(2 + j, SGLM) for j in range(sglm_cells)]
            blocks = sibglm.benchmark._blocks(study, cells, jobs)
            # consecutive, in order, covering every replicate once
            assert all(isinstance(b, range) and b.step == 1 and len(b) > 0 for b in blocks)
            assert [i for b in blocks for i in b] == list(range(replicates))
            rows = max(1, sglm_cells) * m
            assert all(len(b) * rows <= cap or len(b) == 1 for b in blocks)
            needed = math.ceil(replicates / max(1, cap // rows))
            if jobs == 1:
                assert len(blocks) == needed
            assert len(blocks) % jobs == 0 or len(blocks) == replicates
            assert needed <= len(blocks) < needed + jobs

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    @pytest.mark.parametrize("grid", ["gamma-failing", "linear-only", "bernoulli-separated"])
    def test_results_do_not_depend_on_the_block_size(self, grid, jobs, monkeypatch):
        # one replicate per block, the default cap, and as few blocks as the jobs allow
        if grid in ("gamma-failing", "linear-only"):
            # series 8 leaves the domain on replicate 7: the cells beyond it
            # fail, and the others use the series drawn before it
            study = Study(gamma(2.0), m=40, sigma_eps=0.7, replicates=8, master_seed=1)
            estimators, kinds = ("glm", SGLM, "half_sibling"), ("fisher",)
            if grid == "linear-only":
                estimators = ("glm", "half_sibling", "three_quarter")
            note = "GenerationError: series 8"
        else:
            study = Study(bernoulli(), m=12, replicates=6, master_seed=3)
            estimators, kinds = ESTIMATORS, ("fisher", "student")
            note = "edge of the bernoulli support"
        cells = [
            CellSpec(q, estimator, kind)
            for q in (2, 6, 11, 21)
            for estimator in estimators
            for kind in (kinds if estimator == SGLM else kinds[:1])
        ]
        runs = []
        for cap in (1, sibglm.benchmark._BLOCK_ROWS, 2**60):
            monkeypatch.setattr(sibglm.benchmark, "_BLOCK_ROWS", cap)
            runs.append(run_study(study, cells, jobs)[0])
        errors = [r.error for r in runs[0] if r.error is not None]
        assert any(r.error is None for r in runs[0])
        if SGLM in estimators:
            assert any(r.spec.estimator == SGLM and r.error is None for r in runs[0])
        assert any(note in e for e in errors)
        for results in runs[1:]:
            for result, reference in zip(results, runs[0]):
                assert result.error == reference.error
                assert result.samples.keys() == reference.samples.keys()
                for name, values in result.samples.items():
                    assert values.tobytes() == reference.samples[name].tobytes(), name

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_wave_runs_only_the_cells_alive_before_it(self, monkeypatch, jobs):
        # one replicate per block, run in waves of one block per process (here
        # all in this process): each wave runs the cells that have not failed
        # in an earlier one, and the results are those of a real pool
        study = Study(bernoulli(), m=12, replicates=6, master_seed=3)
        cells = [
            CellSpec(q, estimator, kind)
            for q in (2, 4, 8)
            for estimator in ESTIMATORS
            for kind in (("fisher", "student") if estimator == SGLM else ("fisher",))
        ]
        waves = []
        run_block = sibglm.benchmark._run_block

        class InProcess:
            def __init__(self, max_workers):
                assert max_workers == jobs

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *args):
                return map(fn, *args)

        def recording(study, cells, indices):
            results, seconds = run_block(study, cells, indices)
            if indices.start % jobs == 0:
                waves.append([])
            waves[-1].append(results)
            return results, seconds

        monkeypatch.setattr(sibglm.benchmark, "_BLOCK_ROWS", 1)
        with monkeypatch.context() as patched:
            patched.setattr(sibglm.benchmark, "_run_block", recording)
            patched.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
            results, _ = run_study(study, cells, jobs)
        assert all(len(wave) == jobs for wave in waves)
        failed = set()
        for wave in waves:
            for block in wave:
                assert [r.spec for r in block] == [c for c in cells if c not in failed]
            failed |= {r.spec for block in wave for r in block if r.error is not None}
        assert len(waves) > 1 and 0 < len(waves[-1][0]) < len(cells)
        pooled, _ = run_study(study, cells, jobs=2)
        for result, reference in zip(results, pooled):
            assert (result.spec, result.error) == (reference.spec, reference.error)
            for name, values in result.samples.items():
                assert values.tobytes() == reference.samples[name].tobytes(), name

    def test_a_block_is_freed_before_the_next_is_made(self, monkeypatch):
        # blocks of one replicate: when a replicate's step starts, no panel
        # of an earlier block is alive
        panels, alive = [], []
        shared_replicate = sibglm.benchmark._shared_replicate

        def tracking(study, cells, index):
            gc.collect()
            alive.append([ref() is not None for ref in panels])
            truth, step = shared_replicate(study, cells, index)
            panels.append(weakref.ref(step[0]))
            return truth, step

        monkeypatch.setattr(sibglm.benchmark, "_BLOCK_ROWS", 1)
        monkeypatch.setattr(sibglm.benchmark, "_shared_replicate", tracking)
        study = Study(poisson(), m=60, replicates=3, master_seed=2)
        results, _ = run_study(study, [CellSpec(q, e) for q in (2, 4) for e in ESTIMATORS])
        assert all(r.error is None for r in results)
        assert alive == [[], [False], [False, False]]

    def test_one_stacked_call_per_group(self, monkeypatch):
        # the gamma study of the benchmark runs in 3 blocks (1, 2 and 2
        # replicates). Each block makes one proxy call per q and one linear
        # call per q and linear estimator. The QR factorisations: 5 design
        # checks of the first fits, 3 of the refit stacks, 105 for the
        # leverages (21 series x 5 replicates), 12 for the proxies and 48 for
        # the linear calls (a base and one full stack each)
        calls = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("_proxies", "_linear"):
            monkeypatch.setattr(sibglm.sibling, name, counting(name, getattr(sibglm.sibling, name)))
        monkeypatch.setattr(np.linalg, "qr", counting("qr", np.linalg.qr))
        study = Study(gamma(2.0), m=400, replicates=5, master_seed=1)
        cells = [
            CellSpec(q, estimator, kind)
            for q in (2, 6, 11, 21)
            for estimator in ESTIMATORS
            for kind in (RESIDUAL_KINDS if estimator == SGLM else RESIDUAL_KINDS[:1])
        ]
        assert [len(block) for block in sibglm.benchmark._blocks(study, cells, 1)] == [1, 2, 2]
        results, _ = run_study(study, cells)
        assert all(r.error is None for r in results)
        assert calls == {"_proxies": 3 * 4, "_linear": 3 * 4 * 2, "qr": 5 + 3 + 105 + 12 + 48}


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

    def test_support_error_names_the_series(self):
        design = design_with_intercept(np.arange(4.0), names=("x",))
        bad = np.column_stack([np.ones(4), np.ones(4), -np.ones(4)])
        with pytest.raises(DomainError, match="^series 2: poisson response must be nonnegative$"):
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
