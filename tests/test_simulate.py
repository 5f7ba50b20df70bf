"""Simulator: exact transitions, marginal laws, determinism, linearity."""

import hashlib
import math
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spde2d import _kernels_py, kernels
from spde2d.errors import ConfigError, GridMismatchError, MemoryBudgetError
from spde2d.model import Mode, ModelParams, NoiseKind, eigenvalue
from spde2d.harness import ExperimentConfig, _thinnings
from spde2d.simulate import (FieldSample, InitialCondition, RngSeed,
                             SpaceTimeGrid, TruncationSpec, _factor_table,
                             observe_sample, simulate_coordinate_paths,
                             simulate_field, simulate_observation,
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


class TestTiledSweep:
    """``kernels.ou_sweep``'s tiles, chunks and threads leave no trace in
    the output: sha256 digests recorded before the sweep was tiled, when one
    normal block was drawn per 4 steps and every state stepped and
    projected in order on the calling thread."""

    P = ModelParams(0.0, 0.2, 0.2, 0.2, 1.0, 0.5)

    def _field_tiles(self):
        # 9,216 streams: two chunks of the default size, three tiles of
        # 28 steps for N = 61 (28, 28 and 5 steps)
        return simulate_field(self.P, NoiseKind.Q1, SpaceTimeGrid(61, 6, 5),
                              TruncationSpec(96, 96), seed=SEED, rep=2).values

    def _field_short(self):
        # 35 streams: one chunk, and N = 23 is shorter than one tile
        return simulate_field(self.P, NoiseKind.Q1, SpaceTimeGrid(23, 6, 5),
                              TruncationSpec(5, 7), seed=SEED).values

    def _paths(self):
        # 3 x 2,800 streams from a nonzero start: two chunks, two tiles
        return simulate_coordinate_paths(
            self.P, NoiseKind.Q1, SpaceTimeGrid(37, 4, 4),
            TruncationSpec(40, 70),
            InitialCondition({Mode(1, 1): 0.5, Mode(40, 70): -0.25,
                              Mode(7, 3): 2.0}), SEED, reps=3, first_rep=4)

    def _points(self):
        return simulate_point_values(
            self.P, NoiseKind.Q1, SpaceTimeGrid(45, 4, 4),
            TruncationSpec(30, 20), [(0.25, 0.5), (0.5, 0.75)], SEED, reps=5,
            first_rep=1)

    DIGESTS = {
        "_field_tiles":
            "1cd6d3910748db9bcf91bd388ec5d0753a2ec0f26358f075244b2f7ac56852b4",
        "_field_short":
            "7c81c5315d9b9d1d8069cc8bdad7e8fae4c778f1c9516f28d3297253b70e6698",
        "_paths":
            "0f6e238ce8512f46cb5cb1a593b482a3723dd3c1d291e081140ff55e154132cb",
        "_points":
            "7a76cbac4e7405bbd387cb02f8c4f35adea95e93faff72fa525329c68384f29f",
    }

    def test_cases_cover_tiles_and_chunks(self):
        assert kernels.tile_steps(96 * 96) == 28
        assert kernels.CHUNK < 96 * 96 < 2 * kernels.CHUNK
        assert kernels.tile_steps(35) > 23
        assert kernels.tile_steps(3 * 40 * 70) == 28
        assert kernels.CHUNK < 3 * 40 * 70

    # a chunk of 1,000 streams cuts every case but the shortest into
    # several chunks, the last one short
    @pytest.mark.parametrize("chunk", [kernels.CHUNK, 1000])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", list(DIGESTS))
    def test_digest(self, case, threads, chunk, monkeypatch):
        monkeypatch.setattr(kernels, "_threads", threads)
        monkeypatch.setattr(kernels, "CHUNK", chunk)
        values = getattr(self, case)()
        assert hashlib.sha256(values.tobytes()).hexdigest() == \
            self.DIGESTS[case]

    # the NumPy words cut the streams into chunks of 2 * CHUNK: one chunk
    # of 16,384 or several of 2,000 streams
    @pytest.mark.parametrize("chunk", [kernels.CHUNK, 1000])
    @pytest.mark.parametrize("case", list(DIGESTS))
    def test_digest_on_numpy_words(self, case, chunk, monkeypatch):
        monkeypatch.setattr(kernels, "_threads", 2)
        monkeypatch.setattr(kernels, "CHUNK", chunk)
        monkeypatch.setattr(kernels, "philox_raw_block",
                            _kernels_py.philox_raw_block)
        values = getattr(self, case)()
        assert hashlib.sha256(values.tobytes()).hexdigest() == \
            self.DIGESTS[case]

    def test_many_small_tiles(self, monkeypatch):
        # 4-step tiles: every tile boundary is a counter-block boundary
        expected = self._paths()
        monkeypatch.setattr(kernels, "TILE_BYTES", 1)
        assert kernels.tile_steps(3 * 40 * 70) == 4
        assert np.array_equal(self._paths(), expected)

    def test_words_follow_the_module_attribute(self, monkeypatch):
        # the sweep reads kernels.philox_raw_block at call time: the NumPy
        # words give the same field as the default ones (the compiled map
        # where those are the compiled words), other words another field
        expected = self._field_tiles()
        monkeypatch.setattr(kernels, "philox_raw_block",
                            _kernels_py.philox_raw_block)
        assert np.array_equal(self._field_tiles(), expected)
        monkeypatch.setattr(
            kernels, "philox_raw_block",
            lambda *args: ~_kernels_py.philox_raw_block(*args))
        other = self._field_tiles()
        assert np.all(np.isfinite(other))
        assert not np.array_equal(other[1:], expected[1:])

    def test_concurrent_sweeps_under_fast_switching(self, monkeypatch):
        # more kernel threads than cores, four callers sharing one pool and
        # frequent switches: every caller still gets its own tiles' states
        monkeypatch.setattr(kernels, "_threads", 3)
        monkeypatch.setattr(kernels, "_pool", (None, None))
        monkeypatch.setattr(kernels, "CHUNK", 1000)
        expected = self._paths()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as callers:
                got = list(callers.map(lambda _: self._paths(), range(4),
                                       timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for g in got:
            assert np.array_equal(g, expected)

    # three chunks, so the visits are shared: step 1 fails on the calling
    # thread, step 9 on the pool's
    @pytest.mark.parametrize("bad", [1, 9])
    def test_failed_visit_raises_once_every_thread_is_done(self, bad,
                                                           monkeypatch):
        monkeypatch.setattr(kernels, "_threads", 2)
        monkeypatch.setattr(kernels, "CHUNK", 4)
        n, done = 10, []
        ctr = np.arange(n, dtype=np.uint64)

        def visit(i, state):
            if i == bad:
                raise ValueError(f"step {i}")
            time.sleep(0.01)
            done.append(i)

        with pytest.raises(ValueError, match=f"step {bad}"):
            kernels.ou_sweep(np.zeros(n), np.ones(n), np.ones(n), ctr, ctr,
                             0, ctr, 9, visit)
        count = len(done)
        time.sleep(0.1)
        assert len(done) == count

    def test_visit_sees_every_state_once(self):
        # the visits of a tile run on the kernel threads in any order
        n, seen = 10, []
        x = np.arange(1.0, n + 1)
        ctr = np.arange(n, dtype=np.uint64)
        kernels.ou_sweep(x, np.full(n, 0.5), np.zeros(n), ctr, ctr, 0, ctr,
                         9, lambda i, s: seen.append((i, s.copy())))
        assert sorted(i for i, _ in seen) == list(range(10))
        for i, s in seen:
            assert np.array_equal(s, np.arange(1.0, n + 1) * 0.5 ** i)
        assert np.array_equal(x, np.arange(1.0, n + 1))


class TestObservation:
    """``simulate_observation`` projects fine steps onto the rows of the
    thinned points only; its record must equal the one indexed from
    ``simulate_field``'s field on every step."""

    # (config overrides, replication): perfbench's tiny config (every step
    # coarse), tier-1's small harness config, and the N=1000, 50x50 grid at
    # the truncations of perfbench's field_io and desk_rep
    SHAPES = {
        "tiny_K8_N100": ({"grid": {"N": 100}, "truncation": {"K": 8, "L": 8}},
                         0),
        "small_K8_N40": ({"grid": {"N": 40, "M1": 10, "M2": 10},
                          "truncation": {"K": 8, "L": 8},
                          "thinning": {"mbar1": 5, "mbar2": 5, "n": 20}}, 1),
        "K128_N1000": ({"truncation": {"K": 128, "L": 128}}, 2),
        "K256_N1000": ({}, 3),
    }

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_sweep_record_equals_indexed_field(self, shape):
        overrides, rep = self.SHAPES[shape]
        cfg = ExperimentConfig.from_dict({**overrides, "seed": 11})
        thin, tt = _thinnings(cfg)
        args = (cfg.params, cfg.kind, cfg.grid, cfg.trunc)
        field = simulate_field(*args, seed=cfg.seed, rep=rep)
        want = observe_sample(field, thin.index_y, thin.index_z, tt.indices)
        del field
        got = simulate_observation(*args, thin.index_y, thin.index_z,
                                   tt.indices, seed=cfg.seed, rep=rep)
        assert got.points.shape == (cfg.grid.N + 1, thin.m1, thin.m2)
        assert got.slices.shape == (cfg.thinning.n + 1, cfg.grid.M1 + 1,
                                    cfg.grid.M2 + 1)
        for i in range(cfg.grid.N + 1):
            assert np.array_equal(got.points[i], want.points[i]), i
        assert np.array_equal(got.slices, want.slices)
        for name in ("index_y", "index_z", "coarse"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_nonzero_start(self, reference_params):
        grid = SpaceTimeGrid(N=9, M1=6, M2=4)
        trunc = TruncationSpec(K=5, L=3)
        init = InitialCondition({Mode(1, 1): 0.5, Mode(5, 3): -2.0})
        where = ([1, 3, 5], [2], [0, 4, 9])
        field = simulate_field(reference_params, NoiseKind.Q1, grid, trunc,
                               init, SEED, rep=4)
        want = observe_sample(field, *where)
        got = simulate_observation(reference_params, NoiseKind.Q1, grid,
                                   trunc, *where, init, SEED, rep=4)
        assert np.array_equal(got.points, want.points)
        assert np.array_equal(got.slices, want.slices)

    @pytest.mark.parametrize("where", [
        ([0, 7], [1], [0]), ([-1], [1], [0]), ([1], [5], [0]),
        ([1], [1], [10]), ([1], [1], [2, 2]), ([1], [1], [3, 1]),
        ([1.0], [1], [0]), ([[1]], [1], [0])])
    def test_bad_indices_rejected(self, reference_params, where):
        grid = SpaceTimeGrid(N=9, M1=6, M2=4)
        field = FieldSample(values=np.zeros((10, 7, 5)), grid=grid,
                            provenance={})
        with pytest.raises(ConfigError, match="must"):
            observe_sample(field, *where)
        with pytest.raises(ConfigError, match="must"):
            simulate_observation(reference_params, NoiseKind.Q1, grid,
                                 TruncationSpec(K=2, L=2), *where, seed=SEED)

    def test_replication_range_checked(self, reference_params):
        with pytest.raises(ConfigError, match="must lie in"):
            simulate_observation(reference_params, NoiseKind.Q1,
                                 SpaceTimeGrid(N=2, M1=2, M2=2),
                                 TruncationSpec(K=2, L=2), [1], [1], [0],
                                 seed=SEED, rep=-1)

    def test_memory_budget_enforced(self, reference_params):
        # 10^9 steps of one point and one 3x3 slice: 8 GB, refused before
        # any allocation
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetError,
                               match="observation record needs 8000000080 "):
                simulate_observation(reference_params, NoiseKind.Q1,
                                     SpaceTimeGrid(N=10 ** 9, M1=2, M2=2),
                                     TruncationSpec(K=1, L=1), [1], [1], [0],
                                     seed=SEED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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
