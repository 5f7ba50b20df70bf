"""Simulator: exact transitions, marginal laws, determinism, linearity."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from spde2d.errors import ConfigError, GridMismatchError, MemoryBudgetError
from spde2d.model import Mode, ModelParams, NoiseKind, eigenvalue
from spde2d.simulate import (FieldSample, InitialCondition, RngSeed,
                             SpaceTimeGrid, TruncationSpec, _factor_table,
                             simulate_coordinate_paths, simulate_field,
                             simulate_point_values)

SEED = RngSeed(314159)


class TestCoordinatePaths:
    def test_zero_noise_zero_initial_is_identically_zero(self):
        p = ModelParams(0.0, 0.2, 0.2, 0.2, 0.0, 0.5)
        paths = simulate_coordinate_paths(
            p, NoiseKind.Q1, SpaceTimeGrid(N=16, M1=4, M2=4),
            TruncationSpec(K=3, L=3), seed=SEED)
        assert paths.shape == (3, 3, 17)
        assert np.all(paths == 0.0)

    def test_noiseless_decay_of_initial_coefficient(self):
        p = ModelParams(0.0, 0.2, 0.2, 0.2, 0.0, 0.5)
        grid = SpaceTimeGrid(N=32, M1=4, M2=4)
        init = InitialCondition({Mode(1, 1): 1.0})
        paths = simulate_coordinate_paths(p, NoiseKind.Q1, grid,
                                          TruncationSpec(K=2, L=2),
                                          init=init, seed=SEED)
        lam = eigenvalue(Mode(1, 1), p)
        expected = np.exp(-lam * grid.times())
        assert np.allclose(paths[0, 0], expected, rtol=1e-12)
        assert np.all(paths[0, 1] == 0.0)
        assert np.all(paths[1, :] == 0.0)

    def test_terminal_variance_matches_ito_isometry(self, reference_params):
        # Var x_{1,1}(1) = sigma^2 lam^{-alpha} (1 - e^{-2 lam}) / (2 lam)
        reps = 10_000
        paths = simulate_coordinate_paths(
            reference_params, NoiseKind.Q1, SpaceTimeGrid(N=4, M1=2, M2=2),
            TruncationSpec(K=1, L=1), seed=SEED, reps=reps)
        x1 = paths[:, 0, 0, -1]
        lam = eigenvalue(Mode(1, 1), reference_params)
        target = lam ** -0.5 * (1 - math.exp(-2 * lam)) / (2 * lam)
        se = target * math.sqrt(2.0 / (reps - 1))
        assert abs(x1.var(ddof=1) - target) < 3 * se
        assert abs(x1.mean()) < 3 * math.sqrt(target / reps)

    def test_mode_independence(self, reference_params):
        reps = 10_000
        paths = simulate_coordinate_paths(
            reference_params, NoiseKind.Q1, SpaceTimeGrid(N=2, M1=2, M2=2),
            TruncationSpec(K=2, L=3), seed=SEED, reps=reps)
        a = paths[:, 0, 0, -1]
        b = paths[:, 1, 2, -1]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(reps)

    def test_truncation_monotonicity(self, reference_params):
        grid = SpaceTimeGrid(N=8, M1=4, M2=4)
        small = simulate_coordinate_paths(reference_params, NoiseKind.Q1, grid,
                                          TruncationSpec(K=3, L=3), seed=SEED)
        large = simulate_coordinate_paths(reference_params, NoiseKind.Q1, grid,
                                          TruncationSpec(K=5, L=4), seed=SEED)
        assert np.array_equal(large[:3, :3], small)

    def test_q2_uses_shift_damping(self):
        p = ModelParams(0.0, 0.2, 0.2, 0.2, 1.0, 0.5, mu0=0.0)
        reps = 10_000
        paths = simulate_coordinate_paths(
            p, NoiseKind.Q2_KNOWN_MU0, SpaceTimeGrid(N=2, M1=2, M2=2),
            TruncationSpec(K=1, L=1), seed=SEED, reps=reps)
        lam = eigenvalue(Mode(1, 1), p)
        mu = 2 * math.pi ** 2
        target = mu ** -0.5 * (1 - math.exp(-2 * lam)) / (2 * lam)
        x1 = paths[:, 0, 0, -1]
        se = target * math.sqrt(2.0 / (reps - 1))
        assert abs(x1.var(ddof=1) - target) < 3 * se

    @pytest.mark.parametrize("reps", [0, -1])
    def test_nonpositive_reps_rejected(self, reference_params, reps):
        grid = SpaceTimeGrid(N=2, M1=2, M2=2)
        trunc = TruncationSpec(K=2, L=2)
        with pytest.raises(ConfigError, match="reps must be >= 1"):
            simulate_coordinate_paths(reference_params, NoiseKind.Q1, grid,
                                      trunc, seed=SEED, reps=reps)
        with pytest.raises(ConfigError, match="reps must be >= 1"):
            simulate_point_values(reference_params, NoiseKind.Q1, grid, trunc,
                                  [(0.5, 0.5)], seed=SEED, reps=reps)

    # replication indices key 64-bit noise streams
    @pytest.mark.parametrize("rep", [-1, 2 ** 64])
    def test_out_of_range_replication_rejected(self, reference_params, rep):
        with pytest.raises(ConfigError, match="must lie in"):
            simulate_field(reference_params, NoiseKind.Q1,
                           SpaceTimeGrid(N=2, M1=2, M2=2),
                           TruncationSpec(K=2, L=2), seed=SEED, rep=rep)

    def test_last_replication_out_of_range_rejected(self, reference_params):
        grid = SpaceTimeGrid(N=2, M1=2, M2=2)
        trunc = TruncationSpec(K=2, L=2)
        with pytest.raises(ConfigError, match="must lie in"):
            simulate_coordinate_paths(reference_params, NoiseKind.Q1, grid,
                                      trunc, seed=SEED, reps=3,
                                      first_rep=2 ** 64 - 2)
        last = simulate_coordinate_paths(reference_params, NoiseKind.Q1,
                                         grid, trunc, seed=SEED, reps=2,
                                         first_rep=2 ** 64 - 2)
        assert np.array_equal(last[1], simulate_coordinate_paths(
            reference_params, NoiseKind.Q1, grid, trunc, seed=SEED,
            reps=1, first_rep=2 ** 64 - 1)[0])

    def test_initial_mode_outside_truncation_rejected(self, reference_params):
        init = InitialCondition({Mode(5, 1): 1.0})
        with pytest.raises(ConfigError):
            simulate_coordinate_paths(reference_params, NoiseKind.Q1,
                                      SpaceTimeGrid(N=2, M1=2, M2=2),
                                      TruncationSpec(K=2, L=2), init=init,
                                      seed=SEED)

    # each request is over the 4 GiB budget: 8 bytes x 10^12 replications
    # x 11 steps, or 1001^3 field values
    @pytest.mark.parametrize("simulate", [
        lambda p: simulate_coordinate_paths(
            p, NoiseKind.Q1, SpaceTimeGrid(N=10, M1=2, M2=2),
            TruncationSpec(K=1, L=1), seed=SEED, reps=10 ** 12),
        lambda p: simulate_point_values(
            p, NoiseKind.Q1, SpaceTimeGrid(N=10, M1=2, M2=2),
            TruncationSpec(K=1, L=1), [(0.5, 0.5)], seed=SEED, reps=10 ** 12),
        lambda p: simulate_field(
            p, NoiseKind.Q1, SpaceTimeGrid(N=1000, M1=1000, M2=1000),
            TruncationSpec(K=1, L=1), seed=SEED),
    ], ids=["paths", "points", "field"])
    def test_memory_budget_enforced(self, reference_params, simulate):
        # refused before any allocation: no bare numpy MemoryError, and no
        # list of replication chunks built first
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetError, match="budget of 4294967296"):
                simulate(reference_params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestNoiseContract:
    # sha256 of the coordinate-path bytes at a tiny configuration: two
    # replications from first_rep=5 and a nonzero initial state.  No BLAS
    # call is involved, so the digests pin the Philox keying, the normal map
    # and the exact OU step end to end.
    DIGESTS = {
        NoiseKind.Q1:
            "38140e9762d253cc5ca40a7ffe4c8600806896d9687ca562f936618c15dbeb99",
        NoiseKind.Q2_KNOWN_MU0:
            "a88a5d1e1e4d1db81b2dde5e41ce04bc5c660bb39fc073a56d95c36bfd262d37",
    }

    @pytest.mark.parametrize("kind", list(DIGESTS))
    def test_coordinate_path_digest(self, kind):
        p = ModelParams(0.0, 0.2, 0.2, 0.2, 1.0, 0.5,
                        mu0=1.0 if kind.is_q2 else None)
        paths = simulate_coordinate_paths(
            p, kind, SpaceTimeGrid(N=9, M1=4, M2=4), TruncationSpec(K=3, L=4),
            InitialCondition({Mode(1, 1): 0.5, Mode(3, 4): -0.25}),
            RngSeed(20220121), reps=2, first_rep=5)
        assert paths.shape == (2, 3, 4, 10)
        digest = hashlib.sha256(paths.tobytes()).hexdigest()
        assert digest == self.DIGESTS[kind]

    def test_batched_replications_match_single_runs(self, reference_params):
        grid = SpaceTimeGrid(N=9, M1=4, M2=4)
        trunc = TruncationSpec(K=3, L=4)
        batch = simulate_coordinate_paths(reference_params, NoiseKind.Q1,
                                          grid, trunc, seed=SEED, reps=3,
                                          first_rep=2)
        for r in range(3):
            one = simulate_coordinate_paths(reference_params, NoiseKind.Q1,
                                            grid, trunc, seed=SEED,
                                            first_rep=2 + r)
            assert np.array_equal(batch[r], one)


class TestFieldSynthesis:
    def test_single_mode_product_structure(self, reference_params):
        from spde2d.model import eigenfunction
        grid = SpaceTimeGrid(N=6, M1=7, M2=5)
        trunc = TruncationSpec(K=1, L=1)
        paths = simulate_coordinate_paths(reference_params, NoiseKind.Q1, grid,
                                          trunc, seed=SEED)
        field = simulate_field(reference_params, NoiseKind.Q1, grid, trunc,
                               seed=SEED)
        ys = grid.ys()
        zs = grid.zs()
        etab = eigenfunction(Mode(1, 1), ys[:, None], zs[None, :],
                             reference_params)
        for i in range(grid.N + 1):
            assert np.allclose(field.values[i], paths[0, 0, i] * etab,
                               rtol=1e-13, atol=1e-16)

    def test_streaming_equals_paths_bitwise(self, reference_params):
        grid = SpaceTimeGrid(N=12, M1=9, M2=8)
        trunc = TruncationSpec(K=6, L=5)
        paths = simulate_coordinate_paths(reference_params, NoiseKind.Q1, grid,
                                          trunc, seed=SEED)
        # project the stored paths slice by slice with the simulator's
        # factor tables; streaming must give the same bits
        eyT = np.ascontiguousarray(_factor_table(
            np.arange(1.0, trunc.K + 1), grid.ys(), reference_params.kappa).T)
        ez = _factor_table(np.arange(1.0, trunc.L + 1), grid.zs(),
                           reference_params.eta)
        via_paths = np.stack([eyT @ np.ascontiguousarray(paths[:, :, i]) @ ez
                              for i in range(grid.N + 1)])
        streamed = simulate_field(reference_params, NoiseKind.Q1, grid, trunc,
                                  seed=SEED)
        assert np.array_equal(via_paths, streamed.values)

    def test_boundary_exactly_zero(self, reference_params):
        field = simulate_field(reference_params, NoiseKind.Q1,
                               SpaceTimeGrid(N=5, M1=6, M2=6),
                               TruncationSpec(K=8, L=8), seed=SEED)
        assert np.all(field.values[:, 0, :] == 0.0)
        assert np.all(field.values[:, -1, :] == 0.0)
        assert np.all(field.values[:, :, 0] == 0.0)
        assert np.all(field.values[:, :, -1] == 0.0)
        assert np.all(np.isfinite(field.values))

    def test_sigma_doubling_doubles_field_exactly(self, reference_params):
        grid = SpaceTimeGrid(N=6, M1=5, M2=5)
        trunc = TruncationSpec(K=4, L=4)
        base = simulate_field(reference_params, NoiseKind.Q1, grid, trunc,
                              seed=SEED)
        doubled_params = ModelParams(0.0, 0.2, 0.2, 0.2, 2.0, 0.5)
        doubled = simulate_field(doubled_params, NoiseKind.Q1, grid, trunc,
                                 seed=SEED)
        assert np.array_equal(doubled.values, 2.0 * base.values)

    def test_determinism_across_runs(self, reference_params):
        grid = SpaceTimeGrid(N=4, M1=4, M2=4)
        trunc = TruncationSpec(K=3, L=3)
        a = simulate_field(reference_params, NoiseKind.Q1, grid, trunc, seed=SEED,
                           rep=5)
        b = simulate_field(reference_params, NoiseKind.Q1, grid, trunc, seed=SEED,
                           rep=5)
        assert np.array_equal(a.values, b.values)
        c = simulate_field(reference_params, NoiseKind.Q1, grid, trunc, seed=SEED,
                           rep=6)
        assert not np.array_equal(a.values, c.values)

    def test_point_values_match_field(self, reference_params):
        grid = SpaceTimeGrid(N=10, M1=4, M2=4)
        trunc = TruncationSpec(K=5, L=5)
        pv = simulate_point_values(reference_params, NoiseKind.Q1, grid, trunc,
                                   [(0.25, 0.5)], seed=SEED, reps=3)
        for r in range(3):
            f = simulate_field(reference_params, NoiseKind.Q1, grid, trunc,
                               seed=SEED, rep=r)
            assert np.allclose(pv[r, :, 0], f.values[:, 1, 2], rtol=1e-11,
                               atol=1e-14)

    def test_field_sample_validates_shape(self, reference_params):
        grid = SpaceTimeGrid(N=3, M1=3, M2=3)
        with pytest.raises(GridMismatchError):
            FieldSample(values=np.zeros((2, 2, 2)), grid=grid, provenance={})


class TestGridValidation:
    def test_grid_rejects_bad_sizes(self):
        for bad in ({"N": 0, "M1": 2, "M2": 2}, {"N": 2, "M1": 0, "M2": 2},
                    {"N": 2, "M1": 2, "M2": 0}):
            with pytest.raises(ConfigError):
                SpaceTimeGrid(**bad)

    def test_grid_endpoints_exact(self):
        grid = SpaceTimeGrid(N=7, M1=3, M2=9)
        assert grid.times()[-1] == 1.0
        assert grid.ys()[-1] == 1.0
        assert grid.zs()[-1] == 1.0

    def test_seed_range(self):
        with pytest.raises(ConfigError):
            RngSeed(-1)
        with pytest.raises(ConfigError):
            RngSeed(2 ** 64)
