"""Space thinning, the squared-increment statistic, and its mean oracles."""

import math

import numpy as np
import pytest

from spde2d.errors import ConfigError, GridMismatchError, ThinningError
from spde2d.increments import (asymptotic_mean, build_space_thinning,
                               expected_squared_increment_oracle,
                               expected_squared_increment_total,
                               squared_increment_field)
from spde2d.model import ModelParams, NoiseKind
from spde2d.simulate import (FieldSample, RngSeed, SpaceTimeGrid,
                             TruncationSpec, observe_sample, simulate_field)

SEED = RngSeed(271828)


def _const_field(values, grid):
    return FieldSample(values=values, grid=grid, provenance={})


def _observed(field, thin):
    return observe_sample(field, thin.index_y, thin.index_z, [0])


class TestSpaceThinning:
    def test_hand_enumerated_example(self):
        thin = build_space_thinning(10, 10, 5, 5, 0.2)
        assert thin.J1 == 0 and thin.m1 == 4
        assert np.allclose(thin.points_y, [0.2, 0.4, 0.6, 0.8])
        assert np.array_equal(thin.index_y, [2, 4, 6, 8])

    def test_symmetric_axes(self):
        thin = build_space_thinning(40, 40, 7, 7, 0.1)
        assert np.array_equal(thin.points_y, thin.points_z)
        assert thin.m1 == thin.m2

    def test_no_interior_point_fails(self):
        # coarse points 0.2j; none inside [0.45, 0.55]
        with pytest.raises(ThinningError):
            build_space_thinning(10, 10, 5, 5, 0.45)

    def test_points_are_interior_grid_nodes(self):
        for mbar in (3, 5, 6, 9):
            thin = build_space_thinning(50, 50, mbar, mbar, 0.05)
            assert np.all(thin.points_y >= 0.05)
            assert np.all(thin.points_y <= 0.95)
            assert np.array_equal(thin.index_y / 50.0, thin.points_y)

    def test_desk_scale_has_five_points_per_axis(self):
        thin = build_space_thinning(50, 50, 6, 6, 0.05)
        assert (thin.m1, thin.m2) == (5, 5)
        assert np.allclose(thin.points_y, [0.16, 0.32, 0.48, 0.64, 0.80])

    def test_invalid_arguments(self):
        with pytest.raises(ConfigError):
            build_space_thinning(10, 10, 11, 5, 0.1)
        with pytest.raises(ConfigError):
            build_space_thinning(10, 10, 5, 5, 0.0)
        with pytest.raises(ConfigError):
            build_space_thinning(10, 10, 5, 5, 0.5)


class TestSquaredIncrementField:
    def test_time_constant_field_is_zero(self):
        grid = SpaceTimeGrid(N=8, M1=10, M2=10)
        values = np.tile(np.random.default_rng(0).normal(
            size=(1, 11, 11)), (9, 1, 1))
        thin = build_space_thinning(10, 10, 5, 5, 0.2)
        obs = _observed(_const_field(values, grid), thin)
        z = squared_increment_field(obs, thin, 0.5)
        assert np.all(z.values == 0.0)

    def test_single_increment_normalization(self):
        # N = 1 makes the normalization exactly 1
        grid = SpaceTimeGrid(N=1, M1=10, M2=10)
        values = np.zeros((2, 11, 11))
        values[1] = 3.0
        thin = build_space_thinning(10, 10, 5, 5, 0.2)
        obs = _observed(_const_field(values, grid), thin)
        z = squared_increment_field(obs, thin, 0.7)
        assert np.allclose(z.values, 9.0, rtol=0, atol=0)

    def test_linear_ramp_hand_value(self):
        # X(t_i) = i/N at every point, N=4, alpha=1/2: each increment is
        # 1/16, the sum is 1/4, and the normalization is 1/2
        grid = SpaceTimeGrid(N=4, M1=10, M2=10)
        values = np.broadcast_to(
            (np.arange(5) / 4.0)[:, None, None], (5, 11, 11)).copy()
        thin = build_space_thinning(10, 10, 5, 5, 0.2)
        obs = _observed(_const_field(values, grid), thin)
        z = squared_increment_field(obs, thin, 0.5)
        assert np.allclose(z.values, 0.125, rtol=1e-15)

    def test_nonnegative_on_simulated_field(self, reference_params):
        grid = SpaceTimeGrid(N=50, M1=10, M2=10)
        field = simulate_field(reference_params, NoiseKind.Q1, grid,
                               TruncationSpec(K=16, L=16), seed=SEED)
        thin = build_space_thinning(10, 10, 5, 5, 0.2)
        z = squared_increment_field(_observed(field, thin), thin, 0.5)
        assert np.all(z.values >= 0.0)
        assert z.N == 50

    def test_grid_mismatch_rejected(self, reference_params):
        grid = SpaceTimeGrid(N=4, M1=10, M2=10)
        thin = build_space_thinning(20, 20, 5, 5, 0.2)
        obs = _observed(_const_field(np.zeros((5, 11, 11)), grid),
                        build_space_thinning(10, 10, 5, 5, 0.2))
        with pytest.raises(GridMismatchError):
            squared_increment_field(obs, thin, 0.5)

    def test_points_of_another_thinning_rejected(self):
        # same grid, other points: the record cannot stand for this thinning
        grid = SpaceTimeGrid(N=4, M1=10, M2=10)
        field = _const_field(np.zeros((5, 11, 11)), grid)
        obs = _observed(field, build_space_thinning(10, 10, 5, 5, 0.2))
        with pytest.raises(GridMismatchError, match="other points"):
            squared_increment_field(
                obs, build_space_thinning(10, 10, 5, 5, 0.3), 0.5)


class TestIncrementOracle:
    def test_first_increment_reduces_to_closed_form(self, reference_params):
        # at i=1 the bracket is (1 + e^{-lam dt})/2, so the per-mode term
        # collapses to (1 - e^{-2 lam dt}) / (2 lam^{1+alpha})
        trunc = TruncationSpec(K=8, L=8)
        n_steps = 16
        got = expected_squared_increment_oracle(
            reference_params, NoiseKind.Q1, 1, n_steps, 0.5, 0.5, trunc)
        from spde2d.model import Mode, eigenfunction, eigenvalue
        total = 0.0
        for k in range(1, 9):
            for l in range(1, 9):
                lam = eigenvalue(Mode(k, l), reference_params)
                e2 = eigenfunction(Mode(k, l), 0.5, 0.5, reference_params) ** 2
                total += (1 - math.exp(-2 * lam / n_steps)) / (2 * lam ** 1.5) * e2
        assert got == pytest.approx(total, rel=1e-12)

    def test_monotone_in_increment_index(self, reference_params):
        # from the zero initial state the per-increment mean rises toward
        # its stationary level: the subtracted correction decays with i
        trunc = TruncationSpec(K=16, L=16)
        vals = [expected_squared_increment_oracle(
            reference_params, NoiseKind.Q1, i, 16, 0.5, 0.5, trunc)
            for i in range(1, 17)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > vals[0]

    def test_total_matches_per_index_sum(self, reference_params):
        trunc = TruncationSpec(K=8, L=8)
        per = sum(expected_squared_increment_oracle(
            reference_params, NoiseKind.Q1, i, 12, 0.3, 0.7, trunc)
            for i in range(1, 13))
        tot = expected_squared_increment_total(
            reference_params, NoiseKind.Q1, 12, 0.3, 0.7, trunc)
        assert tot == pytest.approx(per, rel=1e-12)

    @pytest.mark.parametrize("kind,mu0", [(NoiseKind.Q1, None),
                                          (NoiseKind.Q2_KNOWN_MU0, 0.0)])
    def test_monte_carlo_mean_matches_oracle(self, kind, mu0):
        params = ModelParams(0.0, 0.2, 0.2, 0.2, 1.0, 0.5, mu0=mu0)
        trunc = TruncationSpec(K=16, L=16)
        grid = SpaceTimeGrid(N=16, M1=4, M2=4)
        reps = 4000
        from spde2d.simulate import simulate_point_values
        vals = simulate_point_values(params, kind, grid, trunc,
                                     [(0.5, 0.5)], seed=SEED, reps=reps)
        incs = np.diff(vals[:, :, 0], axis=1) ** 2
        for i in (1, 8, 16):
            sample = incs[:, i - 1]
            oracle = expected_squared_increment_oracle(
                params, kind, i, 16, 0.5, 0.5, trunc)
            se = sample.std(ddof=1) / math.sqrt(reps)
            assert abs(sample.mean() - oracle) < 3 * se

    def test_statistic_unbiased_against_oracle(self, reference_params):
        # N Delta^alpha E[Z] equals the summed per-increment oracle
        n_steps = 16
        trunc = TruncationSpec(K=16, L=16)
        grid = SpaceTimeGrid(N=n_steps, M1=4, M2=4)
        reps = 10_000
        from spde2d.simulate import simulate_point_values
        vals = simulate_point_values(reference_params, NoiseKind.Q1, grid, trunc,
                                     [(0.5, 0.5)], seed=SEED, reps=reps)
        totals = np.sum(np.diff(vals[:, :, 0], axis=1) ** 2, axis=1)
        expected = expected_squared_increment_total(
            reference_params, NoiseKind.Q1, n_steps, 0.5, 0.5, trunc)
        se = totals.std(ddof=1) / math.sqrt(reps)
        assert abs(totals.mean() - expected) < 3 * se

    def test_index_bounds_checked(self, reference_params):
        with pytest.raises(ConfigError):
            expected_squared_increment_oracle(
                reference_params, NoiseKind.Q1, 0, 8, 0.5, 0.5,
                TruncationSpec(K=2, L=2))
        with pytest.raises(ConfigError):
            expected_squared_increment_oracle(
                reference_params, NoiseKind.Q1, 9, 8, 0.5, 0.5,
                TruncationSpec(K=2, L=2))


class TestOraclePoint:
    """The oracles take a point of the closed unit square; any other y or
    z, nan and inf included, is a ConfigError."""

    TRUNC = TruncationSpec(K=4, L=4)

    def _all(self, params, y, z):
        return (expected_squared_increment_oracle(
                    params, NoiseKind.Q1, 1, 8, y, z, self.TRUNC),
                expected_squared_increment_total(
                    params, NoiseKind.Q1, 8, y, z, self.TRUNC),
                asymptotic_mean(params, NoiseKind.Q1, y, z))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1,
                                     2.0])
    @pytest.mark.parametrize("axis", ["y", "z"])
    def test_off_square_point_rejected(self, reference_params, bad, axis):
        y, z = (bad, 0.5) if axis == "y" else (0.5, bad)
        calls = (
            lambda: expected_squared_increment_oracle(
                reference_params, NoiseKind.Q1, 1, 8, y, z, self.TRUNC),
            lambda: expected_squared_increment_total(
                reference_params, NoiseKind.Q1, 8, y, z, self.TRUNC),
            lambda: asymptotic_mean(reference_params, NoiseKind.Q1, y, z))
        for call in calls:
            with pytest.raises(ConfigError, match=f"{axis} must be"):
                call()

    @pytest.mark.parametrize("y,z", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0),
                                     (0.5, 1.0), (0.0, 1.0)])
    def test_endpoints_accepted(self, reference_params, y, z):
        exact, total, limit = self._all(reference_params, y, z)
        # the eigenfunctions vanish on the boundary, the limit does not
        assert exact == pytest.approx(0.0, abs=1e-30)
        assert total == pytest.approx(0.0, abs=1e-30)
        assert limit > 0.0


class TestAsymptoticMean:
    def test_coefficient_at_half_alpha(self, reference_params):
        got = asymptotic_mean(reference_params, NoiseKind.Q1, 0.0, 0.0)
        assert got == pytest.approx(5.0 / (2.0 * math.sqrt(math.pi)), rel=1e-14)

    def test_reference_point_value(self, reference_params):
        got = asymptotic_mean(reference_params, NoiseKind.Q1, 0.5, 0.5)
        expected = (1.0 / (2.0 * math.sqrt(math.pi))) * 5.0 * math.exp(-1.0)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(0.51889, abs=5e-5)

    def test_symmetry_under_coordinate_swap(self, reference_params):
        a = asymptotic_mean(reference_params, NoiseKind.Q1, 0.3, 0.8)
        b = asymptotic_mean(reference_params, NoiseKind.Q1, 0.8, 0.3)
        assert a == pytest.approx(b, rel=1e-15)

    def test_q2_uses_alpha_adjusted_scale(self):
        p = ModelParams(0.0, 0.2, 0.2, 0.2, 1.0, 0.5, mu0=0.0)
        q1 = asymptotic_mean(p, NoiseKind.Q1, 0.5, 0.5)
        q2 = asymptotic_mean(p, NoiseKind.Q2_KNOWN_MU0, 0.5, 0.5)
        # S / s = theta2^alpha
        assert q2 / q1 == pytest.approx(0.2 ** 0.5, rel=1e-12)

    def test_normalized_total_converges_to_limit(self, reference_params):
        # finite-N mean, normalized, approaches the asymptotic coefficient
        trunc = TruncationSpec(K=256, L=256)
        errs = []
        for n_steps in (16, 32, 64):
            tot = expected_squared_increment_total(
                reference_params, NoiseKind.Q1, n_steps, 0.5, 0.5, trunc)
            normalized = tot / (n_steps * n_steps ** -reference_params.alpha)
            errs.append(abs(normalized - asymptotic_mean(
                reference_params, NoiseKind.Q1, 0.5, 0.5)))
        assert errs[0] > errs[1] > errs[2]
