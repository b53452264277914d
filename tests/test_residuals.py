"""Residual kinds: pinned values, cross-kind identities, first-order behavior."""

import dataclasses

import numpy as np
import pytest

import sibglm.residuals
from sibglm.families import DomainError, bernoulli, gamma, gaussian, poisson
from sibglm.glm import Design, SingularDesignError, design_with_intercept, fit_glm, fit_glms
from sibglm.residuals import (
    RESIDUAL_KINDS,
    LeverageError,
    columns,
    compute,
    deviance_residual,
    fisher_scaled,
    raw,
    studentized,
)
from sibglm.simulate import SimConfig, generate, to_panel

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


def _series_by_series(kind, fits, ys, design):
    """``columns`` as a loop of lone ``compute`` calls: the columns before
    the first failing series and its error."""
    done = []
    for j, fit in enumerate(fits):
        try:
            done.append(compute(kind, fit, ys[:, j], design))
        except ValueError as exc:
            return np.column_stack(done) if done else np.empty((len(ys), 0)), exc
    return np.column_stack(done), None


def _cap_series(monkeypatch, series, design):
    """Cap the chunks of ``columns`` at ``series`` series of this design."""
    monkeypatch.setattr(sibglm.residuals, "CHUNK_ENTRIES", series * design.m * design.p)


def _assert_same_outcome(got, want):
    (values, error), (want_values, want_error) = got, want
    assert values.shape == want_values.shape
    assert values.tobytes() == np.ascontiguousarray(want_values).tobytes()
    assert type(error) is type(want_error) and str(error) == str(want_error)


class TestColumns:
    FAMILIES = [poisson(), gaussian(0.5), bernoulli(), gamma(2.0)]

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
    @pytest.mark.parametrize("kind", RESIDUAL_KINDS)
    @pytest.mark.parametrize("series", [1, 2, 5])
    def test_each_column_is_bitwise_its_lone_compute(self, monkeypatch, family, kind, series):
        panel = to_panel(generate(SimConfig(family, m=60, q=5, sigma_eps=0.3, seed=4)), family)
        fits = fit_glms(panel.design, panel.responses, family)
        _cap_series(monkeypatch, series, panel.design)
        got = columns(kind, fits, panel.responses, panel.design)
        _assert_same_outcome(got, _series_by_series(kind, fits, panel.responses, panel.design))
        assert got[1] is None

    def test_the_default_cap_bounds_a_chunk_by_its_entries(self):
        assert [len(c) for c in sibglm.residuals.chunks(21, 120, 2)] == [21]
        assert [len(c) for c in sibglm.residuals.chunks(21, 400, 2)] == [20, 1]
        assert [len(c) for c in sibglm.residuals.chunks(3, 10_000, 2)] == [1, 1, 1]

    @staticmethod
    def _fits_with_a_bad_one(bad_at=2, k=5):
        """A Gaussian panel's fits on a design whose last column marks one
        row, so that row's leverage is 1, with series ``bad_at`` evaluated
        off its fit: its residual at that row is not zero."""
        rng = np.random.default_rng(9)
        m = 12
        marker = np.zeros(m)
        marker[3] = 1.0
        x = np.column_stack([np.ones(m), rng.uniform(-1, 1, m), marker])
        design = Design(x, ("intercept", "x", "marker"))
        ys = rng.normal(size=(m, k))
        fits = fit_glms(design, ys, gaussian())
        fits[bad_at] = evaluate_at(design, gaussian(), [0.1, 0.2, 0.3])
        return fits, ys, design

    @pytest.mark.parametrize("series", [1, 2, 5])
    def test_a_saturated_series_mid_chunk_stops_it_with_its_error(self, monkeypatch, series):
        fits, ys, design = self._fits_with_a_bad_one()
        _cap_series(monkeypatch, series, design)
        got = columns("student", fits, ys, design)
        want = _series_by_series("student", fits, ys, design)
        _assert_same_outcome(got, want)
        assert isinstance(got[1], LeverageError) and got[0].shape == (12, 2)

    @pytest.mark.parametrize("series", [1, 2, 5])
    def test_a_mean_outside_the_domain_mid_chunk_stops_it(self, monkeypatch, series):
        panel = to_panel(generate(SimConfig(poisson(), m=30, q=5, seed=2)), poisson())
        fits = fit_glms(panel.design, panel.responses, poisson())
        mu = fits[2].mu.copy()
        mu[7] = -1.0
        fits[2] = dataclasses.replace(fits[2], mu=mu)
        _cap_series(monkeypatch, series, panel.design)
        got = columns("deviance", fits, panel.responses, panel.design)
        _assert_same_outcome(got, _series_by_series("deviance", fits, panel.responses, panel.design))
        assert isinstance(got[1], DomainError) and got[0].shape == (30, 2)
        assert str(got[1]) == "poisson mean must be strictly positive"

    @pytest.mark.parametrize("series", [1, 2, 5])
    def test_a_singular_weighted_design_mid_chunk_stops_it(self, monkeypatch, series):
        panel = to_panel(generate(SimConfig(poisson(), m=30, q=5, seed=2)), poisson())
        fits = fit_glms(panel.design, panel.responses, poisson())
        # information on one row only: the weighted design has rank 1
        info = np.zeros(30)
        info[4] = 1.0
        fits[2] = dataclasses.replace(fits[2], fisher_diag=info)
        _cap_series(monkeypatch, series, panel.design)
        got = columns("student", fits, panel.responses, panel.design)
        _assert_same_outcome(got, _series_by_series("student", fits, panel.responses, panel.design))
        assert isinstance(got[1], SingularDesignError) and got[0].shape == (30, 2)

    def test_a_block_is_its_rows_alone(self):
        panel = to_panel(generate(SimConfig(gamma(2.0), m=40, q=4, seed=5)), gamma(2.0))
        fits = fit_glms(panel.design, panel.responses, gamma(2.0))
        ys = panel.responses.T
        for kind in RESIDUAL_KINDS:
            block = compute(kind, fits, ys, panel.design)
            for j, fit in enumerate(fits):
                assert block[j].tobytes() == compute(kind, fit, ys[j], panel.design).tobytes()

    def test_a_block_must_match_its_fits(self):
        panel = to_panel(generate(SimConfig(poisson(), m=20, q=3, seed=5)), poisson())
        fits = fit_glms(panel.design, panel.responses, poisson())
        with pytest.raises(ValueError, match="do not match the fits"):
            compute("raw", fits, panel.responses, panel.design)
        mixed = [fits[0], dataclasses.replace(fits[1], family=gamma(2.0))]
        with pytest.raises(ValueError, match="^the fits of a block must share one family$"):
            compute("raw", mixed, panel.responses.T[:2], panel.design)
