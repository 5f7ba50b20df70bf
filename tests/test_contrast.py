"""Contrast function, analytic gradient, scale profiling, minimization."""

import numpy as np
import pytest

from spde2d import contrast
from spde2d.contrast import (ContrastConfig, _profiled_hessian,
                             contrast_gradient, contrast_value,
                             minimize_contrast, profile_scale)
from spde2d.increments import (SpaceThinning, SquaredIncrementField,
                               build_space_thinning)
from spde2d.model import contrast_coefficient

ALPHA = 0.5


def make_thinning(m1=5, m2=5) -> SpaceThinning:
    return build_space_thinning(50, 50, m1 + 1, m2 + 1, 0.05)


def surface(thin, scale, kappa, eta, alpha=ALPHA):
    c = contrast_coefficient(alpha)
    return c * scale * np.outer(np.exp(-kappa * thin.points_y),
                                np.exp(-eta * thin.points_z))


def zfield(values, thin, n=100, alpha=ALPHA):
    return SquaredIncrementField(values=values, alpha=alpha, N=n,
                                 thinning=thin)


class TestContrastValue:
    def test_zero_at_exact_surface(self):
        thin = make_thinning()
        z = zfield(surface(thin, 5.0, 1.0, 1.0), thin)
        assert contrast_value(z, thin, 5.0, 1.0, 1.0, ALPHA) == 0.0

    def test_minimum_scale_residual_identity(self):
        # at the bottom of the scale box the contrast equals the direct
        # re-evaluation of the residual sum
        thin = make_thinning()
        rng = np.random.default_rng(3)
        values = rng.uniform(0.1, 1.0, (thin.m1, thin.m2))
        z = zfield(values, thin)
        s_min = 1e-3
        direct = float(np.sum((values - surface(thin, s_min, 0.7, -0.2)) ** 2))
        assert contrast_value(z, thin, s_min, 0.7, -0.2, ALPHA) == pytest.approx(
            direct, rel=1e-15)
        assert contrast_value(z, thin, s_min, 0.7, -0.2, ALPHA) > 0

    def test_perturbation_increases_contrast(self):
        thin = make_thinning()
        z = zfield(surface(thin, 5.0, 1.0, 1.0), thin)
        assert contrast_value(z, thin, 5.0, 1.1, 1.0, ALPHA) > 0
        assert contrast_value(z, thin, 5.0, 1.0, 0.9, ALPHA) > 0


class TestGradient:
    def test_zero_at_exact_match(self):
        thin = make_thinning()
        z = zfield(surface(thin, 5.0, 1.0, 1.0), thin)
        g = contrast_gradient(z, thin, 5.0, 1.0, 1.0, ALPHA)
        assert np.allclose(g, 0.0, atol=1e-18)

    def test_matches_central_differences(self, rng):
        thin = make_thinning()
        values = rng.uniform(0.05, 1.5, (thin.m1, thin.m2))
        z = zfield(values, thin)
        h = 1e-6
        for _ in range(100):
            s = float(rng.uniform(0.5, 8.0))
            k = float(rng.uniform(-2.0, 2.0))
            e = float(rng.uniform(-2.0, 2.0))
            g = contrast_gradient(z, thin, s, k, e, ALPHA)
            fd = np.empty(3)
            for i, d in enumerate(np.eye(3) * h):
                up = contrast_value(z, thin, s + d[0], k + d[1], e + d[2], ALPHA)
                dn = contrast_value(z, thin, s - d[0], k - d[1], e - d[2], ALPHA)
                fd[i] = (up - dn) / (2 * h)
            assert np.allclose(g, fd, rtol=1e-5, atol=1e-9)

    def test_scale_component_linear_in_statistic(self, rng):
        # with the model term negligible the gradient is linear in the data
        thin = make_thinning()
        values = rng.uniform(0.1, 1.0, (thin.m1, thin.m2))
        tiny = 1e-12
        g1 = contrast_gradient(zfield(values, thin), thin, tiny, 0.5, 0.5, ALPHA)
        g2 = contrast_gradient(zfield(3.0 * values, thin), thin, tiny, 0.5,
                               0.5, ALPHA)
        assert np.allclose(g2[0], 3.0 * g1[0], rtol=1e-9)


class TestProfiledHessian:
    @staticmethod
    def profiled_gradient(z, thin, k, e, box):
        s = profile_scale(z, thin, k, e, ALPHA, box)
        return contrast_gradient(z, thin, s, k, e, ALPHA)[1:]

    @pytest.mark.parametrize("box,interior", [((1e-3, 1e3), True),
                                              ((1e-3, 0.05), False)])
    def test_matches_central_differences_of_profiled_gradient(
            self, rng, box, interior):
        # the clamped case pins the scale at the top of a narrow box
        thin = make_thinning()
        values = surface(thin, 3.0, 0.8, -0.6) * rng.uniform(
            0.5, 1.5, (thin.m1, thin.m2))
        z = zfield(values, thin)
        h = 1e-6
        for _ in range(50):
            k = float(rng.uniform(-2.0, 2.0))
            e = float(rng.uniform(-2.0, 2.0))
            s = profile_scale(z, thin, k, e, ALPHA, box)
            assert (box[0] < s < box[1]) == interior
            hess = _profiled_hessian(z, thin, s, k, e, ALPHA, box)
            fd = np.empty((2, 2))
            for i, d in enumerate(np.eye(2) * h):
                up = self.profiled_gradient(z, thin, k + d[0], e + d[1], box)
                dn = self.profiled_gradient(z, thin, k - d[0], e - d[1], box)
                fd[:, i] = (up - dn) / (2 * h)
            assert np.allclose(hess, fd, rtol=1e-5,
                               atol=1e-7 * np.abs(fd).max())
            assert np.allclose(hess, hess.T, rtol=1e-12, atol=0)


class TestProfileScale:
    def test_exact_surface_recovers_scale(self):
        thin = make_thinning()
        z = zfield(surface(thin, 5.0, 1.0, 1.0), thin)
        assert profile_scale(z, thin, 1.0, 1.0, ALPHA) == pytest.approx(
            5.0, rel=1e-13)

    def test_zero_statistic_clamps_to_box_minimum(self):
        thin = make_thinning()
        z = zfield(np.zeros((thin.m1, thin.m2)), thin)
        assert profile_scale(z, thin, 0.3, -0.4, ALPHA) == 1e-3

    def test_never_beaten_by_grid_search(self, rng):
        thin = make_thinning()
        for _ in range(20):
            values = rng.uniform(0.0, 2.0, (thin.m1, thin.m2))
            z = zfield(values, thin)
            k = float(rng.uniform(-1, 1))
            e = float(rng.uniform(-1, 1))
            star = profile_scale(z, thin, k, e, ALPHA)
            best = contrast_value(z, thin, star, k, e, ALPHA)
            for s in np.linspace(1e-3, 20.0, 1000):
                assert best <= contrast_value(z, thin, float(s), k, e,
                                              ALPHA) + 1e-12


class TestMinimize:
    def test_exact_recovery_from_noiseless_surface(self):
        thin = make_thinning()
        z = zfield(surface(thin, 5.0, 1.0, 1.0), thin)
        fit = minimize_contrast(z, thin, ALPHA)
        assert abs(fit.scale - 5.0) < 1e-8
        assert abs(fit.kappa_hat - 1.0) < 1e-8
        assert abs(fit.eta_hat - 1.0) < 1e-8
        assert fit.contrast < 1e-16
        assert fit.converged
        # the closed-form start is already stationary: no grid starts
        assert fit.n_restarts_used == 1

    @pytest.mark.parametrize("truth", [(0.5, -2.0, 3.0), (12.0, 0.0, 0.0),
                                       (2.0, 4.0, -4.0)])
    def test_exact_recovery_other_configurations(self, truth):
        thin = make_thinning()
        s, k, e = truth
        z = zfield(surface(thin, s, k, e), thin)
        fit = minimize_contrast(z, thin, ALPHA)
        assert abs(fit.scale - s) < 1e-8 * max(1, s)
        assert abs(fit.kappa_hat - k) < 1e-8
        assert abs(fit.eta_hat - e) < 1e-8
        assert fit.converged
        assert fit.n_restarts_used == 1

    @pytest.mark.filterwarnings("error")
    def test_zero_statistic_returns_clamped_scale(self):
        thin = make_thinning()
        z = zfield(np.zeros((thin.m1, thin.m2)), thin)
        fit = minimize_contrast(z, thin, ALPHA)
        assert fit.scale == 1e-3
        # no logarithm, so no closed-form start: every grid start runs
        assert fit.n_restarts_used == 25

    @pytest.mark.filterwarnings("error")
    def test_single_point_underdetermined(self):
        thin = build_space_thinning(10, 10, 2, 2, 0.45)
        assert thin.m == 1
        z = zfield(np.array([[0.4]]), thin)
        fit = minimize_contrast(z, thin, ALPHA)
        assert not fit.converged
        # profile-consistent scale at the reported point
        assert fit.scale == pytest.approx(
            profile_scale(z, thin, fit.kappa_hat, fit.eta_hat, ALPHA),
            rel=1e-12)

    def test_deterministic_and_reusable_for_either_noise(self, rng):
        # the same functional serves both noise families (scale read as s
        # or S); identical input must give identical output
        thin = make_thinning()
        values = surface(thin, 5.0, 1.0, 1.0) * rng.uniform(
            0.9, 1.1, (thin.m1, thin.m2))
        z = zfield(values, thin)
        fit1 = minimize_contrast(z, thin, ALPHA)
        fit2 = minimize_contrast(z, thin, ALPHA)
        assert fit1 == fit2
        assert fit1.converged

    def test_noisy_surface_converges_near_truth(self, rng):
        thin = make_thinning()
        noise = rng.normal(0, 0.01, (thin.m1, thin.m2))
        z = zfield(surface(thin, 5.0, 1.0, 1.0) * (1 + noise), thin)
        fit = minimize_contrast(z, thin, ALPHA)
        assert fit.converged
        assert abs(fit.scale - 5.0) < 0.5
        assert abs(fit.kappa_hat - 1.0) < 0.15
        assert abs(fit.eta_hat - 1.0) < 0.15

    def test_restart_count_honours_config(self, rng, monkeypatch):
        thin = make_thinning()
        values = surface(thin, 2.0, 0.5, 0.5)
        config = ContrastConfig(init_grid=3)
        fit = minimize_contrast(zfield(values, thin), thin, ALPHA, config)
        assert fit.n_restarts_used == 1
        assert abs(fit.kappa_hat - 0.5) < 1e-8
        # a non-positive value leaves no closed-form start: the 3x3 grid runs
        values = values * rng.uniform(0.9, 1.1, values.shape)
        values[2, 2] = -values[2, 2]
        fit = minimize_contrast(zfield(values, thin), thin, ALPHA, config)
        assert fit.n_restarts_used == 9
        assert fit.converged
        # a closed-form start that ends non-stationary adds the grid to it
        values[2, 2] = -values[2, 2]
        monkeypatch.setattr(contrast, "MAX_ITER", 0)
        fit = minimize_contrast(zfield(values, thin), thin, ALPHA, config)
        assert fit.n_restarts_used == 1 + 9
        assert not fit.converged

    def test_reported_contrast_is_minimum_over_starts(self, rng):
        # re-run the objective at every grid start: no start beats the fit
        thin = make_thinning()
        values = surface(thin, 3.0, 0.8, -0.6) * rng.uniform(
            0.8, 1.2, (thin.m1, thin.m2))
        z = zfield(values, thin)
        config = ContrastConfig()
        fit = minimize_contrast(z, thin, ALPHA, config)
        assert fit.converged
        for k0 in np.linspace(*config.kappa_box, config.init_grid):
            for e0 in np.linspace(*config.eta_box, config.init_grid):
                s0 = profile_scale(z, thin, k0, e0, ALPHA, config.scale_box)
                assert fit.contrast <= contrast_value(
                    z, thin, s0, float(k0), float(e0), ALPHA) + 1e-12
