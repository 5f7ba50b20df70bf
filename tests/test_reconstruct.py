"""Coordinate reconstruction and realized quadratic variation."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from spde2d.errors import ConfigError, GridMismatchError
from spde2d.model import Mode, NoiseKind, eigenvalue
from spde2d.reconstruct import (ApproxCoordinatePath, approx_coordinate,
                                build_time_thinning, realized_qv)
from spde2d.simulate import (FieldSample, RngSeed, SpaceTimeGrid,
                             TruncationSpec, observe_sample,
                             simulate_coordinate_paths, simulate_field)

SEED = RngSeed(555)


def _observed(field, tt):
    return observe_sample(field, [1], [1], tt.indices)


def _reconstruct(field, mode, kappa_hat, eta_hat, tt):
    """``approx_coordinate`` on the observation record of ``field``."""
    return approx_coordinate(_observed(field, tt), mode, kappa_hat, eta_hat,
                             tt)


class TestTimeThinning:
    def test_even_division(self):
        tt = build_time_thinning(10, 5)
        assert np.allclose(tt.points, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        assert tt.step == 2

    def test_floor_division_discards_tail(self):
        tt = build_time_thinning(10, 3)
        assert tt.step == 3
        assert np.allclose(tt.points, [0.0, 0.3, 0.6, 0.9])
        assert tt.horizon == pytest.approx(0.9)

    def test_identity_thinning(self):
        tt = build_time_thinning(8, 8)
        assert np.allclose(tt.points, np.arange(9) / 8)

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            build_time_thinning(10, 11)
        with pytest.raises(ConfigError):
            build_time_thinning(10, 0)


class TestApproxCoordinate:
    def test_zero_field_gives_zero_path(self, reference_params):
        grid = SpaceTimeGrid(N=10, M1=8, M2=8)
        field = FieldSample(values=np.zeros((11, 9, 9)), grid=grid,
                            provenance={})
        tt = build_time_thinning(10, 5)
        path = _reconstruct(field, Mode(1, 1), 1.0, 1.0, tt)
        assert np.all(path.values == 0.0)
        assert path.values.shape == (6,)

    def test_exact_ratio_weights_reconstruct_exactly(self, reference_params):
        # with the true ratios the exponential weights cancel and the
        # discrete sine orthogonality makes the Riemann sum exact
        grid = SpaceTimeGrid(N=4, M1=50, M2=50)
        trunc = TruncationSpec(K=1, L=1)
        paths = simulate_coordinate_paths(reference_params, NoiseKind.Q1, grid,
                                          trunc, seed=SEED)
        field = simulate_field(reference_params, NoiseKind.Q1, grid,
                               trunc, seed=SEED)
        tt = build_time_thinning(4, 4)
        rec = _reconstruct(field, Mode(1, 1), reference_params.kappa,
                           reference_params.eta, tt)
        assert np.allclose(rec.values, paths[0, 0], rtol=1e-12, atol=1e-14)

    def test_quadrature_error_vanishes_with_resolution(self, reference_params):
        # an offset ratio weight leaves a genuine Riemann sum; its
        # continuum limit is a 1-D integral factor.  The integrand's
        # boundary zeros make the lattice sum superconvergent (measured
        # slope ~4), comfortably at least first order in 1/M.
        factor, _ = quad(lambda y: 2.0 * math.sin(math.pi * y) ** 2
                         * math.exp(0.1 * y), 0.0, 1.0)
        errs = {}
        for m in (50, 100, 200):
            grid = SpaceTimeGrid(N=4, M1=m, M2=m)
            trunc = TruncationSpec(K=1, L=1)
            paths = simulate_coordinate_paths(reference_params, NoiseKind.Q1,
                                              grid, trunc, seed=SEED)
            field = simulate_field(reference_params, NoiseKind.Q1, grid,
                                   trunc, seed=SEED)
            tt = build_time_thinning(4, 4)
            rec = _reconstruct(field, Mode(1, 1),
                               reference_params.kappa + 0.2,
                               reference_params.eta, tt)
            ratio = rec.values[1:] / paths[0, 0, 1:]
            errs[m] = np.max(np.abs(ratio - factor))
        assert errs[100] < errs[50]
        assert errs[200] < errs[100]
        slope = math.log2(errs[50] / errs[200]) / 2.0
        assert slope >= 0.8

    def test_offset_ratio_weight_scales_by_quadrature_factor(self, reference_params):
        # reconstructing with kappa_hat = kappa + 0.1 multiplies a pure
        # (1,1)-mode path by a computable 1-D integral factor
        grid = SpaceTimeGrid(N=4, M1=400, M2=400)
        trunc = TruncationSpec(K=1, L=1)
        paths = simulate_coordinate_paths(reference_params, NoiseKind.Q1, grid,
                                          trunc, seed=SEED)
        field = simulate_field(reference_params, NoiseKind.Q1, grid,
                               trunc, seed=SEED)
        tt = build_time_thinning(4, 4)
        rec = _reconstruct(field, Mode(1, 1), reference_params.kappa + 0.1,
                           reference_params.eta, tt)
        factor, _ = quad(lambda y: 2.0 * math.sin(math.pi * y) ** 2
                         * math.exp(0.05 * y), 0.0, 1.0)
        ratio = rec.values[1:] / paths[0, 0, tt.indices][1:]
        assert np.allclose(ratio, factor, rtol=2e-3)

    def test_linearity_in_the_field(self, reference_params, rng):
        grid = SpaceTimeGrid(N=6, M1=10, M2=10)
        a = rng.normal(size=(7, 11, 11))
        b = rng.normal(size=(7, 11, 11))
        tt = build_time_thinning(6, 3)
        fa = FieldSample(values=a, grid=grid, provenance={})
        fb = FieldSample(values=b, grid=grid, provenance={})
        fab = FieldSample(values=a + 2.0 * b, grid=grid, provenance={})
        pa = _reconstruct(fa, Mode(1, 2), 0.3, 0.7, tt).values
        pb = _reconstruct(fb, Mode(1, 2), 0.3, 0.7, tt).values
        pab = _reconstruct(fab, Mode(1, 2), 0.3, 0.7, tt).values
        assert np.allclose(pab, pa + 2.0 * pb, rtol=1e-12, atol=1e-14)

    def test_grid_mismatch_rejected(self, reference_params):
        grid = SpaceTimeGrid(N=10, M1=4, M2=4)
        field = FieldSample(values=np.zeros((11, 5, 5)), grid=grid,
                            provenance={})
        obs = _observed(field, build_time_thinning(10, 5))
        tt = build_time_thinning(20, 5)
        with pytest.raises(GridMismatchError):
            approx_coordinate(obs, Mode(1, 1), 0.0, 0.0, tt)

    def test_slices_of_other_times_rejected(self):
        grid = SpaceTimeGrid(N=10, M1=4, M2=4)
        field = FieldSample(values=np.zeros((11, 5, 5)), grid=grid,
                            provenance={})
        obs = _observed(field, build_time_thinning(10, 5))
        with pytest.raises(GridMismatchError, match="other times"):
            approx_coordinate(obs, Mode(1, 1), 0.0, 0.0,
                              build_time_thinning(10, 2))


class TestRealizedQv:
    def test_constant_path_is_zero(self):
        path = ApproxCoordinatePath(mode=Mode(1, 1),
                                    values=np.full(11, 2.5),
                                    times=np.arange(11) / 10.0,
                                    kappa_used=0.0, eta_used=0.0)
        est = realized_qv(path)
        assert est.value == 0.0
        assert est.n_used == 10

    def test_additive_over_increments(self, rng):
        values = rng.normal(size=21)
        path = ApproxCoordinatePath(mode=Mode(1, 1), values=values,
                                    times=np.arange(21) / 20.0,
                                    kappa_used=0.0, eta_used=0.0)
        total = realized_qv(path).value
        manual = math.fsum((values[i + 1] - values[i]) ** 2 for i in range(20))
        assert total == pytest.approx(manual, rel=1e-14)
        assert total >= 0.0

    def test_mean_matches_volatility_on_exact_paths(self, reference_params):
        # exact (non-reconstructed) mode-(1,1) paths at n=100: the mean of
        # the realized variation approaches sigma^2 lam^{-alpha} times the
        # expected quadratic variation of the sampled transitions
        n = 100
        reps = 10_000
        grid = SpaceTimeGrid(N=n, M1=2, M2=2)
        paths = simulate_coordinate_paths(reference_params, NoiseKind.Q1, grid,
                                          TruncationSpec(K=1, L=1),
                                          seed=SEED, reps=reps)
        x = paths[:, 0, 0, :]
        qv = np.sum(np.diff(x, axis=1) ** 2, axis=1)
        lam = eigenvalue(Mode(1, 1), reference_params)
        gamma2 = lam ** -0.5
        h = 1.0 / n
        # sum of per-step increment variances from the zero initial state
        levels = gamma2 * (1 - np.exp(-2 * lam * np.arange(n) * h)) / (2 * lam)
        expected = np.sum(gamma2 * (1 - np.exp(-2 * lam * h)) / (2 * lam)
                          + (1 - math.exp(-lam * h)) ** 2 * levels)
        se = qv.std(ddof=1) / math.sqrt(reps)
        assert abs(qv.mean() - expected) < 3 * se
        # the leading value is sigma^2 lam^{-alpha}
        assert qv.mean() == pytest.approx(gamma2, rel=0.05)

    def test_clt_variance_on_exact_paths(self, reference_params):
        # var of sqrt(n) (qv - population) approaches 2 gamma^4
        n = 200
        reps = 10_000
        grid = SpaceTimeGrid(N=n, M1=2, M2=2)
        paths = simulate_coordinate_paths(reference_params, NoiseKind.Q1, grid,
                                          TruncationSpec(K=1, L=1),
                                          seed=SEED, reps=reps)
        qv = np.sum(np.diff(paths[:, 0, 0, :], axis=1) ** 2, axis=1)
        lam = eigenvalue(Mode(1, 1), reference_params)
        gamma2 = lam ** -0.5
        got = n * qv.var(ddof=1)
        assert abs(got - 2 * gamma2 ** 2) < 0.2 * 2 * gamma2 ** 2

    def test_path_too_short_rejected(self):
        path = ApproxCoordinatePath(mode=Mode(1, 1), values=np.array([1.0]),
                                    times=np.array([0.0]), kappa_used=0.0,
                                    eta_used=0.0)
        with pytest.raises(ConfigError):
            realized_qv(path)
