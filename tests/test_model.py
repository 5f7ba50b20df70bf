"""Eigenstructure, derived ratios, and parameter validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spde2d.errors import ConfigError
from spde2d.model import (DerivedRatios, Mode, ModelParams, NoiseKind,
                          contrast_coefficient, damping_base, damping_factor,
                          eigenfunction, eigenvalue, mode_grid,
                          mode_volatility, mu_value, sinpi)

PI2 = math.pi ** 2


def params_strategy():
    """Valid coefficient sets (positivity of the smallest eigenvalue is
    enforced by capping theta0)."""

    def build(theta1, eta1, theta2, sigma, alpha, slack):
        lam11_at_zero = (theta1 ** 2 + eta1 ** 2) / (4 * theta2) + 2 * PI2 * theta2
        theta0 = lam11_at_zero - slack
        return ModelParams(theta0=theta0, theta1=theta1, eta1=eta1,
                           theta2=theta2, sigma=sigma, alpha=alpha)

    return st.builds(
        build,
        theta1=st.floats(-3, 3),
        eta1=st.floats(-3, 3),
        theta2=st.floats(0.05, 5),
        sigma=st.floats(0.1, 3),
        alpha=st.floats(0.05, 0.95),
        slack=st.floats(0.1, 50),
    )


class TestEigenvalue:
    def test_reference_configuration(self, reference_params):
        lam = eigenvalue(Mode(1, 1), reference_params)
        expected = (0.2 ** 2 + 0.2 ** 2) / (4 * 0.2) + 2 * PI2 * 0.2
        assert lam == pytest.approx(expected, rel=1e-15)
        assert round(lam, 2) == 4.05

    def test_driftless_unit_diffusivity(self):
        p = ModelParams(theta0=0.0, theta1=0.0, eta1=0.0, theta2=1.0,
                        sigma=1.0, alpha=0.5)
        assert eigenvalue(Mode(1, 1), p) == pytest.approx(2 * PI2, rel=1e-15)

    @given(params_strategy())
    @settings(max_examples=100, deadline=None)
    def test_mode_spacing_identity(self, params):
        gap = eigenvalue(Mode(1, 2), params) - eigenvalue(Mode(1, 1), params)
        assert gap == pytest.approx(3 * PI2 * params.theta2, rel=1e-12)

    @given(params_strategy(), st.integers(1, 30), st.integers(1, 30))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_both_indices(self, params, k, l):
        lam = eigenvalue(Mode(k, l), params)
        assert eigenvalue(Mode(k + 1, l), params) > lam
        assert eigenvalue(Mode(k, l + 1), params) > lam


@pytest.mark.parametrize("kind", list(NoiseKind))
def test_scalars_equal_the_simulator_tables(kind):
    # the simulator and the oracles evaluate the mode grid, the plug-ins
    # and the tests one mode: the two must agree bit for bit
    params = ModelParams(theta0=0.3, theta1=-0.7, eta1=0.45, theta2=0.37,
                         sigma=1.3, alpha=0.3, mu0=-3.1)
    modes = mode_grid(40, 30)
    lam = eigenvalue(modes, params)
    base = damping_base(kind, modes, params)
    vol = mode_volatility(kind, modes, params)
    assert lam.shape == base.shape == vol.shape == (40, 30)
    for k in range(1, 41):
        for l in range(1, 31):
            mode = Mode(k, l)
            assert lam[k - 1, l - 1] == eigenvalue(mode, params)
            assert base[k - 1, l - 1] == (
                mu_value(mode, params.mu0) if kind.is_q2
                else eigenvalue(mode, params))
            assert vol[k - 1, l - 1] == mode_volatility(kind, mode, params)


class TestMuValue:
    def test_zero_shift(self):
        assert mu_value(Mode(1, 1), 0.0) == pytest.approx(2 * PI2, rel=1e-15)

    @given(st.floats(-2 * PI2 + 1e-6, 100), st.integers(1, 20),
           st.integers(1, 20))
    @settings(max_examples=100, deadline=None)
    def test_spacing_and_positivity(self, mu0, k, l):
        assert mu_value(Mode(1, 2), mu0) == pytest.approx(
            mu_value(Mode(1, 1), mu0) + 3 * PI2, rel=1e-12, abs=1e-9)
        assert mu_value(Mode(k, l), mu0) > 0

    def test_near_boundary_cancellation(self):
        assert mu_value(Mode(1, 1), -2 * PI2 + 0.1) == pytest.approx(0.1, abs=1e-12)

    def test_rejects_shift_at_or_below_boundary(self):
        with pytest.raises(ConfigError):
            mu_value(Mode(1, 1), -2 * PI2)
        with pytest.raises(ConfigError):
            mu_value(Mode(1, 1), -2 * PI2 - 1.0)


class TestEigenfunction:
    def test_boundary_zero_exact(self, rng):
        for _ in range(1000):
            k = int(rng.integers(1, 50))
            l = int(rng.integers(1, 50))
            theta2 = float(rng.uniform(0.05, 2.0))
            p = ModelParams(theta0=0.0, theta1=float(rng.uniform(-1, 1)),
                            eta1=float(rng.uniform(-1, 1)), theta2=theta2,
                            sigma=1.0, alpha=0.5)
            u = float(rng.uniform(0, 1))
            edge = float(rng.integers(0, 2))
            assert eigenfunction(Mode(k, l), edge, u, p) == 0.0
            assert eigenfunction(Mode(k, l), u, edge, p) == 0.0

    def test_center_value_no_drift(self):
        p = ModelParams(theta0=0.0, theta1=0.0, eta1=0.0, theta2=0.2,
                        sigma=1.0, alpha=0.5)
        assert eigenfunction(Mode(1, 1), 0.5, 0.5, p) == pytest.approx(2.0, rel=1e-15)

    def test_center_value_unit_ratios(self):
        # kappa = eta = 1 gives 2 exp(-1/2) at the center
        p = ModelParams(theta0=0.0, theta1=0.2, eta1=0.2, theta2=0.2,
                        sigma=1.0, alpha=0.5)
        got = eigenfunction(Mode(1, 1), 0.5, 0.5, p)
        assert got == pytest.approx(2.0 * math.exp(-0.5), rel=1e-14)

    def test_discrete_weighted_orthonormality(self, reference_params):
        m = 400
        y = np.arange(1, m) / m
        z = np.arange(1, m) / m
        p = reference_params
        weight = np.exp(p.kappa * y)[:, None] * np.exp(p.eta * z)[None, :]
        tables = {}
        for k in range(1, 5):
            for l in range(1, 5):
                tables[(k, l)] = eigenfunction(
                    Mode(k, l), y[:, None], z[None, :], p)
        for k1 in range(1, 5):
            for l1 in range(1, 5):
                for k2 in range(1, 5):
                    for l2 in range(1, 5):
                        val = np.sum(tables[(k1, l1)] * tables[(k2, l2)]
                                     * weight) / (m * m)
                        target = 1.0 if (k1, l1) == (k2, l2) else 0.0
                        assert abs(val - target) < 2e-2


class TestDamping:
    def test_unit_eigenvalue_is_neutral(self):
        # lambda = 1 gives damping 1 regardless of alpha: construct params
        # with lambda_{1,1} = 1 via theta0
        theta2 = 0.01
        lam_at_zero = 2 * PI2 * theta2
        for alpha in (0.1, 0.5, 0.9):
            p = ModelParams(theta0=lam_at_zero - 1.0, theta1=0.0, eta1=0.0,
                            theta2=theta2, sigma=1.0, alpha=alpha)
            assert eigenvalue(Mode(1, 1), p) == pytest.approx(1.0, rel=1e-12)
            assert damping_factor(NoiseKind.Q1, Mode(1, 1), p) == pytest.approx(
                1.0, rel=1e-12)

    def test_q1_value(self, reference_params):
        lam = eigenvalue(Mode(1, 1), reference_params)
        got = damping_factor(NoiseKind.Q1, Mode(1, 1), reference_params)
        assert got == pytest.approx(lam ** -0.25, rel=1e-14)
        assert got == pytest.approx(0.705, abs=5e-4)

    def test_q2_value(self):
        p = ModelParams(theta0=0.0, theta1=0.2, eta1=0.2, theta2=0.2,
                        sigma=1.0, alpha=0.5, mu0=0.0)
        got = damping_factor(NoiseKind.Q2_KNOWN_MU0, Mode(1, 1), p)
        assert got == pytest.approx((2 * PI2) ** -0.25, rel=1e-14)

    @given(params_strategy(), st.integers(1, 10), st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_strictly_decreasing_in_indices(self, params, k, l):
        d = damping_factor(NoiseKind.Q1, Mode(k, l), params)
        assert damping_factor(NoiseKind.Q1, Mode(k + 1, l), params) < d
        assert damping_factor(NoiseKind.Q1, Mode(k, l + 1), params) < d


class TestRatios:
    @given(params_strategy())
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, params):
        r = DerivedRatios.from_params(params)
        rebuilt = ModelParams(theta0=params.theta0,
                              theta1=r.kappa * params.theta2,
                              eta1=r.eta * params.theta2,
                              theta2=params.theta2,
                              sigma=math.sqrt(r.s * params.theta2),
                              alpha=params.alpha)
        r2 = DerivedRatios.from_params(rebuilt)
        assert r2.kappa == pytest.approx(r.kappa, rel=1e-15, abs=1e-15)
        assert r2.eta == pytest.approx(r.eta, rel=1e-15, abs=1e-15)
        assert r2.s == pytest.approx(r.s, rel=1e-14)

    def test_scale_definitions(self, reference_params):
        r = DerivedRatios.from_params(reference_params)
        assert r.s == pytest.approx(5.0, rel=1e-15)
        assert r.S == pytest.approx(1.0 / 0.2 ** 0.5, rel=1e-15)


class TestValidation:
    def test_rejects_nonpositive_theta2(self):
        with pytest.raises(ConfigError):
            ModelParams(0.0, 0.2, 0.2, 0.0, 1.0, 0.5)

    def test_rejects_alpha_outside_unit_interval(self):
        for alpha in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                ModelParams(0.0, 0.2, 0.2, 0.2, 1.0, alpha)

    def test_rejects_nonpositive_smallest_eigenvalue(self):
        # theta0 large enough to push the smallest eigenvalue below zero
        with pytest.raises(ConfigError):
            ModelParams(10.0, 0.2, 0.2, 0.2, 1.0, 0.5)

    def test_rejects_mu0_at_boundary(self):
        with pytest.raises(ConfigError):
            ModelParams(0.0, 0.2, 0.2, 0.2, 1.0, 0.5, mu0=-2 * PI2)

    def test_mu0_required_for_q2_damping(self, reference_params):
        with pytest.raises(ConfigError):
            damping_factor(NoiseKind.Q2_KNOWN_MU0, Mode(1, 1), reference_params)


class TestContrastCoefficient:
    def test_half_alpha_closed_form(self):
        # Gamma(1/2) = sqrt(pi), so the coefficient is 1 / (2 sqrt(pi))
        assert contrast_coefficient(0.5) == pytest.approx(
            1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-15)
        assert contrast_coefficient(0.5) == pytest.approx(0.282095, abs=1e-6)

    def test_matches_gamma_on_grid(self):
        for alpha in np.linspace(0.05, 0.95, 19):
            expected = math.gamma(1 - alpha) / (4 * math.pi * alpha)
            assert contrast_coefficient(alpha) == pytest.approx(expected, rel=1e-15)


def test_sinpi_exact_zeros_and_values():
    assert sinpi(0.0) == 0.0
    assert sinpi(1.0) == 0.0
    assert sinpi(123456.0) == 0.0
    assert sinpi(0.5) == 1.0
    assert sinpi(1.5) == -1.0
    out = sinpi(np.array([0.0, 0.25, 1.0, 2.5]))
    assert out[0] == 0.0 and out[2] == 0.0
    assert out[1] == pytest.approx(math.sin(math.pi * 0.25), rel=1e-15)
    assert out[3] == pytest.approx(1.0, rel=1e-15)
