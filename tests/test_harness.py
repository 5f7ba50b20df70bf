"""Experiment harness: configuration, replication pipeline, summaries,
cross sections, and the command-line interface."""

import dataclasses
import hashlib
import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest

from spde2d import _kernels_py, fieldio, kernels
from spde2d.cli import main as cli_main
from spde2d.contrast import ContrastConfig
from spde2d.errors import ConfigError, GridMismatchError
from spde2d.harness import (ExperimentConfig, ThinningConfig,
                            cross_section_dump, default_config, diagnostics,
                            estimate_field, load_config, run_monte_carlo,
                            run_replication, section_record, thinnings)
from spde2d.model import NoiseKind
from spde2d.simulate import (Observation, RngSeed, SpaceTimeGrid,
                             TruncationSpec, observe_sample, observe_slices,
                             simulate_field)

SMALL = {
    "params": {"theta0": 0.0, "theta1": 0.2, "eta1": 0.2, "theta2": 0.2,
               "sigma": 1.0, "alpha": 0.5},
    "kind": "q1",
    "grid": {"N": 40, "M1": 10, "M2": 10},
    "truncation": {"K": 8, "L": 8},
    "thinning": {"mbar1": 5, "mbar2": 5, "delta": 0.05, "n": 20},
    "replications": 3,
    "seed": 2024,
}


def _field(values, grid):
    """The field ``values`` on ``grid``: the record of every time slice."""
    return observe_slices(grid, [values], [], [], range(grid.N + 1), {})


@pytest.fixture
def small_config() -> ExperimentConfig:
    return ExperimentConfig.from_dict(SMALL)


class TestConfig:
    def test_defaults_are_desk_scale(self):
        cfg = default_config()
        assert (cfg.grid.N, cfg.grid.M1, cfg.grid.M2) == (1000, 50, 50)
        assert (cfg.trunc.K, cfg.trunc.L) == (256, 256)
        assert cfg.thinning.n == 100
        assert cfg.replications == 25

    def test_round_trip_through_dict(self, small_config):
        again = ExperimentConfig.from_dict(small_config.to_dict())
        assert again == small_config

    def test_q2_requires_mu0(self):
        d = dict(SMALL)
        d["kind"] = "q2-known-mu0"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)

    def test_bad_json_file_raises_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("key", ["replication", "grid.n",
                                     "contrast.initgrid", "params.sigma2",
                                     "contrast.max_iter", "contrast.grad_tol",
                                     "contrast.step_tol", "exponents.rho"])
    def test_unknown_keys_rejected(self, key):
        d = 1
        for part in reversed(key.split(".")):
            d = {part: d}
        with pytest.raises(ConfigError, match=f"'{key}'"):
            ExperimentConfig.from_dict(d)

    def test_section_must_be_an_object(self):
        with pytest.raises(ConfigError, match="'grid'"):
            ExperimentConfig.from_dict({"grid": 5})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict([])

    def test_readme_config_block_is_the_default(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir,
                              "README.md")
        with open(readme) as fh:
            text = fh.read()
        block = text.split("```json\n", 1)[1].split("```", 1)[0]
        stripped = "\n".join(line.split("//")[0] for line in block.splitlines())
        assert json.loads(stripped) == default_config().to_dict()

    @pytest.mark.parametrize("key,value", [
        ("grid.N", 10.7), ("replications", 2.9), ("truncation.K", True),
        ("params.sigma", False), ("params.mu0", True),
        ("contrast.scale_box", [True, 5]),
        ("contrast.scale_box", [1e-3, 1e3, 7]),
        ("contrast.scale_box", [1e-3]), ("contrast.kappa_box", -20.0)])
    def test_inexact_numbers_rejected(self, key, value):
        # a fraction for an integer, a boolean for a number, or a list of
        # another length used to be truncated, read as 0/1 or passed on
        d = value
        for part in reversed(key.split(".")):
            d = {part: d}
        with pytest.raises(ConfigError, match=f"'{key}'"):
            ExperimentConfig.from_dict(d)

    def test_settable_values(self):
        def count(d):
            return sum(count(v) if isinstance(v, dict) else 1
                       for v in d.values())
        assert count(default_config().to_dict()) == 25

    def test_integral_float_accepted(self):
        cfg = ExperimentConfig.from_dict({"grid": {"N": 10.0}})
        assert cfg.grid.N == 10 and isinstance(cfg.grid.N, int)

    def test_invalid_values_raise_config_error(self):
        d = dict(SMALL)
        d["params"] = dict(SMALL["params"], alpha=1.5)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(d)


class TestReplication:
    # sha256 of json.dumps([run_replication(cfg, r).to_dict() for r in
    # (0, 1)], sort_keys=True) on SMALL with mu0 = 0.5.  JSON writes each
    # float by repr, so the digest pins every estimate of the chain from
    # the noise to the plug-ins bit for bit.
    RECORDS_SHA = {
        "q1": "bb22f52f8ad60d6a59bb6d991d21fbaa"
              "1167578c7fc4a68806836d403b233703",
        "q2-known-mu0": "04a9d38003d6801146c07afe04616750"
                        "da0ae9b0cf25351bf002b2fc12871187",
        "q2-unknown-mu0": "dda0098b71eeef7ff167f8a07ffa4a55"
                          "70795facc600a86d857eeaef2ff04a1f",
    }

    @pytest.mark.parametrize("kind", sorted(RECORDS_SHA))
    def test_records_pinned(self, kind):
        cfg = ExperimentConfig.from_dict(
            {**SMALL, "kind": kind, "params": {**SMALL["params"], "mu0": 0.5}})
        text = json.dumps([run_replication(cfg, r).to_dict() for r in (0, 1)],
                          sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            self.RECORDS_SHA[kind]

    def test_deterministic_record(self, small_config):
        a = run_replication(small_config, 1)
        b = run_replication(small_config, 1)
        assert a == b
        c = run_replication(small_config, 2)
        assert c.fit.scale != a.fit.scale

    def test_degenerate_zero_noise_flagged(self):
        d = dict(SMALL)
        d["params"] = dict(SMALL["params"], sigma=0.0)
        cfg = ExperimentConfig.from_dict(d)
        rec = run_replication(cfg, 0)
        assert rec.degenerate_input
        assert rec.fit.scale == cfg.contrast.scale_box[0]

    def test_q2_cases_dispatch(self):
        for kind in ("q2-known-mu0", "q2-unknown-mu0"):
            d = dict(SMALL)
            d["kind"] = kind
            d["params"] = dict(SMALL["params"], mu0=0.0)
            cfg = ExperimentConfig.from_dict(d)
            rec = run_replication(cfg, 0)
            assert rec.estimates.case is NoiseKind(kind)

    def test_estimate_field_checks_grid(self, small_config, reference_params):
        other = simulate_field(reference_params, NoiseKind.Q1,
                               SpaceTimeGrid(N=8, M1=10, M2=10),
                               TruncationSpec(K=4, L=4),
                               seed=RngSeed(1))
        with pytest.raises(GridMismatchError):
            estimate_field(small_config, other)

    def test_estimate_field_refuses_a_record_of_other_times(self,
                                                            small_config):
        # the record carries its coarse times; the plug-ins read them, so
        # a record thinned in time otherwise than the config says is refused
        cfg = small_config
        thin, coarse = thinnings(cfg)
        field = simulate_field(cfg.params, cfg.kind, cfg.grid, cfg.trunc,
                               seed=cfg.seed)
        record = observe_sample(field, thin.index_y, thin.index_z,
                                coarse[::2])
        with pytest.raises(GridMismatchError, match="other times"):
            estimate_field(cfg, record)


class TestMonteCarlo:
    def test_accounting_and_summary_shape(self, small_config):
        table = run_monte_carlo(small_config)
        assert table.replications == 3
        assert len(table.records) == 3
        names = [r["parameter"] for r in table.rows]
        assert names == ["s", "kappa", "eta", "theta0", "theta1", "eta1",
                         "theta2", "sigma2"]
        for row in table.rows:
            assert 0 <= row["fail_count"] <= 3
            n_ok = sum(1 for rec in table.records
                       if rec.estimates.failure is None
                       or row["parameter"] in ("s", "kappa", "eta"))
            assert n_ok + row["fail_count"] == 3

    @pytest.mark.parametrize("kind, names", [
        ("q2-known-mu0", ["S", "kappa", "eta", "theta1", "eta1", "theta2",
                          "sigma2"]),
        ("q2-unknown-mu0", ["S", "kappa", "eta", "mu0", "theta1", "eta1",
                            "theta2", "sigma2"]),
    ], ids=["q2-known-mu0", "q2-unknown-mu0"])
    def test_q2_summary_rows(self, kind, names):
        config = ExperimentConfig.from_dict({
            **SMALL, "kind": kind, "replications": 1,
            "params": {**SMALL["params"], "mu0": 0.5}})
        rows = run_monte_carlo(config).rows
        assert [r["parameter"] for r in rows] == names
        truth = {"S": 1.0 / 0.2 ** 0.5, "kappa": 1.0, "eta": 1.0,
                 "mu0": 0.5, "theta1": 0.2, "eta1": 0.2, "theta2": 0.2,
                 "sigma2": 1.0}
        assert [r["true"] for r in rows] == pytest.approx(
            [truth[name] for name in names], rel=1e-15)

    def test_worker_count_does_not_change_bytes(self, small_config):
        serial = run_monte_carlo(small_config, threads=1)
        parallel = run_monte_carlo(small_config, threads=2)
        assert serial.to_csv() == parallel.to_csv()
        assert serial.to_json() == parallel.to_json()

    def test_workers_fork_without_the_noise_threads(self, small_config,
                                                   monkeypatch):
        # a forked worker copies a parent with no live pool threads; the
        # sweep spans two chunks on either word source, so it starts the pool
        monkeypatch.setattr(kernels, "_threads", 2)
        n = 4 * kernels.CHUNK
        kernels.ou_sweep(np.zeros(n), np.ones(n), np.ones(n), 1, 0, 0, 4,
                         lambda i, state: None)

        def noise_threads():
            return [t for t in threading.enumerate()
                    if t.name.startswith("spde2d-noise")]

        assert noise_threads()
        parallel = run_monte_carlo(small_config, threads=2)
        assert not noise_threads()
        assert parallel.to_json() == run_monte_carlo(small_config).to_json()

    # with fork, a pool starts all its max_workers on the first submit; one
    # worker runs on the calling process
    @pytest.mark.parametrize("replications,threads,pools", [
        (3, 5, [3]), (1, 3, []), (3, 2, [2])])
    def test_no_more_workers_than_replications(self, monkeypatch,
                                               replications, threads, pools):
        import spde2d.harness as hmod
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(hmod, "ProcessPoolExecutor", SerialPool)
        config = ExperimentConfig.from_dict({**SMALL,
                                             "replications": replications})
        table = run_monte_carlo(config, threads=threads)
        assert sizes == pools
        assert table.to_json() == run_monte_carlo(config).to_json()

    def test_single_replication_has_blank_sd(self):
        d = dict(SMALL)
        d["replications"] = 1
        table = run_monte_carlo(ExperimentConfig.from_dict(d))
        assert all(row["sd"] is None for row in table.rows)
        csv = table.to_csv()
        line = csv.strip().split("\n")[1]
        assert line.split(",")[3] == ""

    def test_rep_seed_independence(self):
        # contrast scales across distinct replications are uncorrelated
        d = dict(SMALL)
        d["grid"] = {"N": 16, "M1": 6, "M2": 6}
        d["truncation"] = {"K": 4, "L": 4}
        d["replications"] = 1000
        d["thinning"] = {"mbar1": 3, "mbar2": 3, "delta": 0.05, "n": 8}
        d["contrast"] = {"init_grid": 3}
        table = run_monte_carlo(ExperimentConfig.from_dict(d), threads=2)
        s = np.array([rec.fit.scale for rec in table.records])
        corr = np.corrcoef(s[:-1], s[1:])[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(len(s) - 1)

    def test_failure_counting(self, small_config, monkeypatch):
        import spde2d.harness as hmod
        from spde2d.plugins import PluginEstimates, ORDERING_VIOLATION

        real = hmod.q1_plugin
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                return PluginEstimates(case=NoiseKind.Q1,
                                       failure=ORDERING_VIOLATION)
            return real(*args, **kwargs)

        monkeypatch.setattr(hmod, "q1_plugin", flaky)
        table = run_monte_carlo(small_config)
        theta2_row = next(r for r in table.rows if r["parameter"] == "theta2")
        s_row = next(r for r in table.rows if r["parameter"] == "s")
        assert theta2_row["fail_count"] == 1
        assert s_row["fail_count"] == 0


@pytest.mark.parametrize("build", [
    lambda: SpaceTimeGrid(True, 2, 2), lambda: SpaceTimeGrid(2, 2, True),
    lambda: TruncationSpec(True, 3), lambda: TruncationSpec(3, True),
    lambda: RngSeed(True), lambda: RngSeed(False),
    lambda: ContrastConfig(init_grid=True),
    lambda: ContrastConfig(init_grid=2.5),
    lambda: run_monte_carlo(ExperimentConfig.from_dict(SMALL), threads=True),
    lambda: ThinningConfig(mbar1=2.5), lambda: ThinningConfig(mbar2=True),
    lambda: ThinningConfig(n=2.5), lambda: ThinningConfig(n=True),
    lambda: dataclasses.replace(ExperimentConfig.from_dict(SMALL),
                                replications=True),
], ids=["grid-N", "grid-M2", "trunc-K", "trunc-L", "seed-True", "seed-False",
        "init_grid-True", "init_grid-2.5", "threads-True", "mbar1-2.5",
        "mbar2-True", "n-2.5", "n-True", "replications-True"])
def test_library_refuses_a_boolean_or_fraction_for_a_count(build):
    # ExperimentConfig.from_dict refuses these; the library types must too,
    # or a dump's sidecar records "truncation": [true, 3]
    with pytest.raises(ConfigError):
        build()


class TestDiagnostics:
    def test_reference_ratio_values(self):
        # full-scale reference configuration: N=1000, M=200, m=25,
        # gamma=0.26, eps=0.499; the first ratio is ~0.008 at n=50 and
        # ~0.011 at n=100, and the second ~0.50 at n=100
        base = {
            "params": dict(SMALL["params"]),
            "grid": {"N": 1000, "M1": 200, "M2": 200},
            "truncation": {"K": 8, "L": 8},
            "thinning": {"mbar1": 6, "mbar2": 6, "delta": 0.05, "n": 50},
            "replications": 1, "seed": 1,
        }
        cfg = ExperimentConfig.from_dict(base)
        d = diagnostics(cfg)
        assert d["n^(1-alpha)/(m N^(2 gamma))"] == pytest.approx(0.008, abs=5e-4)
        base["thinning"]["n"] = 100
        cfg = ExperimentConfig.from_dict(base)
        d = diagnostics(cfg)
        assert d["n^(1-alpha)/(m N^(2 gamma))"] == pytest.approx(0.011, abs=5e-4)
        assert d["n^(1-alpha+eps)/(min(M1,M2)^(2 eps))"] == pytest.approx(
            0.50, abs=5e-3)

    def test_diagnostics_in_summary(self, small_config):
        table = run_monte_carlo(small_config)
        assert set(table.diagnostics) == {
            "n^(1-alpha)/(m N^(2 gamma))",
            "n^(2-alpha)/(m N^(2 gamma))",
            "n^(1-alpha+eps)/(min(M1,M2)^(2 eps))",
            "n^(2-alpha+eps)/(min(M1,M2)^(2 eps))",
        }


class TestCrossSection:
    @pytest.fixture
    def field(self, reference_params):
        return simulate_field(reference_params, NoiseKind.Q1,
                              SpaceTimeGrid(N=10, M1=10, M2=10),
                              TruncationSpec(K=6, L=6), seed=RngSeed(5))

    def test_time_slice(self, field):
        section = cross_section_dump(field, "t", 0.5)
        assert section.names == ("y", "z")
        assert section.values.shape == (11, 11)
        assert np.array_equal(section.values, field.slices[5])

    def test_boundary_slice_is_zero(self, field):
        section = cross_section_dump(field, "y", 0.0)
        assert np.all(section.values == 0.0)

    def test_zero_field_slices_zero(self, reference_params):
        grid = SpaceTimeGrid(N=4, M1=4, M2=4)
        field = _field(np.zeros((5, 5, 5)), grid)
        assert np.all(cross_section_dump(field, "z", 0.5).values == 0.0)

    def test_off_grid_level_rejected(self, field):
        with pytest.raises(ConfigError):
            cross_section_dump(field, "t", 0.123)
        with pytest.raises(ConfigError):
            cross_section_dump(field, "w", 0.5)

    def test_csv_layout(self, field):
        text = cross_section_dump(field, "t", 0.1).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "y,z,value"
        assert len(lines) == 1 + 11 * 11
        cells = [[float(c) for c in line.split(",")] for line in lines[1:]]
        assert all(len(row) == 3 for row in cells)
        assert cells[12] == [0.1, 0.1, float(field.slices[1, 1, 1])]


# The two read modes of ``read_field``: the whole field, and the record at
# the point (1, 1) and times 0 and 2
READS = (fieldio.read_field,
         lambda path: fieldio.read_field(path, record=([1], [1], [0, 2])))


class TestFieldIo:
    def test_round_trip_preserves_bits_and_provenance(self, reference_params,
                                                      tmp_path):
        field = simulate_field(reference_params, NoiseKind.Q1,
                               SpaceTimeGrid(N=4, M1=5, M2=6),
                               TruncationSpec(K=3, L=3), seed=RngSeed(9))
        path = str(tmp_path / "f.bin")
        fieldio.write_field(field, path)
        back = fieldio.read_field(path)
        assert np.array_equal(back.slices, field.slices)
        assert back.grid == field.grid
        assert back.provenance == field.provenance

    def test_both_read_modes_return_an_observation(self, reference_params,
                                                   tmp_path):
        grid = SpaceTimeGrid(N=4, M1=5, M2=6)
        field = simulate_field(reference_params, NoiseKind.Q1, grid,
                               TruncationSpec(K=3, L=3), seed=RngSeed(9))
        path = str(tmp_path / "f.bin")
        fieldio.write_field(field, path)
        whole, record = (read(path) for read in READS)
        assert isinstance(whole, Observation)
        assert isinstance(record, Observation)
        assert whole.is_field and not record.is_field
        assert whole.points.shape == (5, 0, 0)
        assert np.array_equal(whole.coarse, range(5))
        assert np.array_equal(record.slices, field.slices[[0, 2]])

    def test_write_refuses_a_record_that_is_not_the_field(
            self, reference_params, tmp_path):
        grid = SpaceTimeGrid(N=3, M1=3, M2=3)
        field = simulate_field(reference_params, NoiseKind.Q1, grid,
                               TruncationSpec(K=2, L=2), seed=RngSeed(9))
        part = observe_sample(field, [1], [1], [0, 2])
        with pytest.raises(GridMismatchError, match="not the whole field"):
            fieldio.write_field(part, str(tmp_path / "f.bin"))
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_the_previous_dump_and_sidecar(
            self, reference_params, tmp_path, monkeypatch):
        grid = SpaceTimeGrid(N=4, M1=5, M2=6)
        old, new = (simulate_field(reference_params, NoiseKind.Q1, grid,
                                   TruncationSpec(K=3, L=3), seed=RngSeed(s))
                    for s in (9, 10))
        path = tmp_path / "f.bin"
        fieldio.write_field(old, str(path))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["f.bin", "f.bin.meta.json"]

        def fail(*args, **kwargs):
            raise OSError("no space left for the sidecar")
        monkeypatch.setattr(fieldio.json, "dump", fail)
        with pytest.raises(OSError, match="sidecar"):
            fieldio.write_field(new, str(path))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        monkeypatch.undo()
        back = fieldio.read_field(str(path))
        assert np.array_equal(back.slices, old.slices)
        assert back.provenance == old.provenance != new.provenance

    # cut < 0 drops bytes from the end, cut > 0 appends zero bytes; the
    # dump holds 16 header bytes after the magic and 48 values, so -395
    # and -392 end inside the header, after 5 and 8 of its bytes.  "n=..."
    # makes the header claim N = M1 = M2 = n instead: 2^32 - 1 values per
    # axis used to overflow an index, 3000 to ask for 216 GB
    @pytest.mark.parametrize("cut", [-8, -3, 24, -395, -392,
                                     "n=4294967295", "n=3000"])
    def test_truncated_or_padded_dump_rejected(self, reference_params,
                                               tmp_path, cut):
        field = simulate_field(reference_params, NoiseKind.Q1,
                               SpaceTimeGrid(N=2, M1=3, M2=3),
                               TruncationSpec(K=2, L=2), seed=RngSeed(9))
        path = tmp_path / "f.bin"
        fieldio.write_field(field, str(path))
        data = path.read_bytes()
        assert len(data) == 8 + 16 + 8 * 48
        if isinstance(cut, str):
            n = int(cut[2:])
            data = data[:12] + np.array([n] * 3, "<u4").tobytes() + data[24:]
        else:
            data = data[:cut] if cut < 0 else data + b"\x00" * cut
        path.write_bytes(data)
        for read in READS:
            with pytest.raises(ConfigError,
                               match="padded" if cut == 24 else "truncated"):
                read(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAFILE" + b"\x00" * 64)
        for read in READS:
            with pytest.raises(ConfigError):
                read(str(path))

    # A slice of the 10x3x4 grid is 20 values (160 bytes), so the dump's 11
    # slices are read whole, in blocks of 3 rows (3, 3, 3, 2), or one
    # slice at a time from a block smaller than a slice.
    @pytest.mark.parametrize("block_bytes", [1 << 20, 3 * 160, 100],
                             ids=["one_block", "three_rows", "one_slice"])
    def test_record_read_equals_indexed_field(self, reference_params,
                                              tmp_path, monkeypatch,
                                              block_bytes):
        grid = SpaceTimeGrid(N=10, M1=3, M2=4)
        field = simulate_field(reference_params, NoiseKind.Q1, grid,
                               TruncationSpec(K=3, L=3), seed=RngSeed(9))
        path = str(tmp_path / "f.bin")
        fieldio.write_field(field, path)
        where = ([1, 2], [0, 3, 4], [0, 2, 3, 8, 9, 10])
        want = observe_sample(field, *where)
        monkeypatch.setattr(fieldio, "BLOCK_BYTES", block_bytes)
        got = fieldio.read_field(path, grid=grid, record=where)
        assert np.array_equal(got.points, want.points)
        assert np.array_equal(got.slices, want.slices)
        assert np.array_equal(got.slices, field.slices[where[2]])
        for name in ("index_y", "index_z", "coarse"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.grid == want.grid == grid
        assert got.provenance == want.provenance == field.provenance

    def test_record_read_never_holds_the_field(self, tmp_path):
        # a 7.7 MB dump whose record (32 kB of points, 85 kB of slices) is
        # read through a buffer of 1 MiB: a peak below a quarter of the
        # values shows that the field is never allocated
        grid = SpaceTimeGrid(N=1000, M1=30, M2=30)
        path = str(tmp_path / "f.bin")
        fieldio.write_field(_field(np.zeros((1001, 31, 31)), grid), path)
        value_bytes = 8 * 1001 * 31 * 31
        tracemalloc.start()
        try:
            fieldio.read_field(path, grid=grid, record=(
                [5, 10], [5, 10], np.arange(0, 1001, 100)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < value_bytes / 4


    @pytest.mark.parametrize("axis, index", [("t", 500), ("y", 7),
                                             ("z", 12)])
    def test_section_read_never_holds_the_field(self, tmp_path, axis, index):
        # a section is one time slice (8 kB) or one y or z index at every
        # time (248 kB) of a 7.7 MB dump, read through a buffer of 1 MiB
        grid = SpaceTimeGrid(N=1000, M1=30, M2=30)
        field = _field(
            np.random.default_rng(3).standard_normal((1001, 31, 31)), grid)
        path = str(tmp_path / "f.bin")
        fieldio.write_field(field, path)
        level = float({"t": grid.times(), "y": grid.ys(),
                       "z": grid.zs()}[axis][index])
        tracemalloc.start()
        try:
            fieldio.read_field(path, grid=grid,
                               record=section_record(grid, axis, level))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < field.slices.nbytes / 4
        # and the command's CSV is the in-memory field's section
        assert cli_main(["cross-section", "--field", path, "--axis", axis,
                         "--level", repr(level), "--out-dir",
                         str(tmp_path)]) == 0
        written = tmp_path / f"cross_section_{axis}_{level}.csv"
        assert written.read_text() == cross_section_dump(
            field, axis, level).to_csv()

    def test_section_command_writes_its_csv_a_line_at_a_time(self, tmp_path):
        # the y section of a dump of field_io's grid is 51,051 lines (1.5
        # MB) of CSV; joined in memory with the list of its lines it took
        # five times that, written a line at a time the peak is the 1 MiB
        # read buffer and the 408 kB section
        grid = SpaceTimeGrid(N=1000, M1=50, M2=50)
        path = str(tmp_path / "f.bin")
        fieldio.write_field(_field(
            np.random.default_rng(3).standard_normal((1001, 51, 51)), grid),
            path)
        tracemalloc.start()
        try:
            assert cli_main(["cross-section", "--field", path, "--axis", "y",
                             "--level", "0.5", "--out-dir",
                             str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = tmp_path / "cross_section_y_0.5.csv"
        assert written.stat().st_size > 10 ** 6
        assert peak < 2 * written.stat().st_size


class TestCli:
    def _write_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(SMALL))
        return str(path)

    def test_simulate_estimate_cross_section_round_trip(self, tmp_path,
                                                        capsys):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path)
        assert cli_main(["simulate", "--config", cfg, "--out-dir", out]) == 0
        field_path = os.path.join(out, "field.bin")
        assert os.path.exists(field_path)
        assert cli_main(["estimate", "--config", cfg, "--field", field_path,
                         "--out-dir", out]) == 0
        with open(os.path.join(out, "estimate.json")) as fh:
            record = json.load(fh)
        assert "kappa_hat" in record and "theta2" in record
        assert cli_main(["cross-section", "--field", field_path, "--axis",
                         "t", "--level", "0.5", "--out-dir", out]) == 0
        assert os.path.exists(os.path.join(out, "cross_section_t_0.5.csv"))

    def test_estimate_matches_replication(self, tmp_path):
        # estimate on a dumped field reproduces the in-process record, which
        # run_replication computes from an observation record alone, and
        # the record of the field in memory
        for kind in ("q1", "q2-known-mu0", "q2-unknown-mu0"):
            config = {**SMALL, "kind": kind,
                      "params": {**SMALL["params"], "mu0": 0.5}}
            cfg_path = tmp_path / f"{kind}.json"
            cfg_path.write_text(json.dumps(config))
            out = str(tmp_path / kind)
            assert cli_main(["simulate", "--config", str(cfg_path), "--rep",
                             "0", "--out-dir", out]) == 0
            assert cli_main(["estimate", "--config", str(cfg_path),
                             "--field", os.path.join(out, "field.bin"),
                             "--out-dir", out]) == 0
            with open(os.path.join(out, "estimate.json")) as fh:
                record = json.load(fh)
            cfg = ExperimentConfig.from_dict(config)
            direct = run_replication(cfg, 0)
            assert record == direct.to_dict(), kind
            field = simulate_field(cfg.params, cfg.kind, cfg.grid, cfg.trunc,
                                   seed=cfg.seed, rep=0)
            assert estimate_field(cfg, field).to_dict() == record, kind

    def test_mc_outputs(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path / "mc")
        assert cli_main(["mc", "--config", cfg, "--replications", "2",
                         "--out-dir", out]) == 0
        for name in ("summary.csv", "summary.json", "records.json"):
            assert os.path.exists(os.path.join(out, name))
        with open(os.path.join(out, "records.json")) as fh:
            payload = json.load(fh)
        assert len(payload["records"]) == 2
        assert payload["config"]["replications"] == 2

    def test_oracle_output(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = str(tmp_path)
        assert cli_main(["oracle", "--config", cfg, "--y", "0.5", "--z",
                         "0.5", "--i", "1,8", "--out-dir", out]) == 0
        with open(os.path.join(out, "oracle.csv")) as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "i,expected_squared_increment"
        assert len(lines) == 4  # two indices + asymptotic mean
        assert lines[-1].startswith("asymptotic_mean,")

    def test_config_errors_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert cli_main(["mc", "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_config_that_is_a_directory_exits_nonzero(self, tmp_path,
                                                      capsys):
        assert cli_main(["mc", "--config", str(tmp_path),
                         "--out-dir", str(tmp_path / "mc")]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path} is a directory, not a configuration file\n")
        assert not os.path.exists(tmp_path / "mc")

    def test_config_that_is_not_utf8_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(json.dumps({**SMALL, "seed": 7}).encode()
                        .replace(b'"seed"', b'"s\xe9ed"'))
        assert cli_main(["mc", "--config", str(bad),
                         "--out-dir", str(tmp_path / "mc")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {bad} is not valid JSON: 'utf-8' codec can't decode")
        assert not os.path.exists(tmp_path / "mc")

    def test_out_of_range_rep_exits_nonzero(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli_main(["simulate", "--config", cfg, "--rep", "-1",
                         "--out-dir", str(tmp_path)]) == 1
        assert "error: replications -1 .. -1" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(tmp_path, "field.bin"))

    @pytest.mark.parametrize("argv", [
        ["cross-section", "--field", "f.bin", "--axis", "t", "--level", "0.5",
         "--threads", "2"],
        ["estimate", "--field", "f.bin", "--seed", "3"],
        ["simulate", "--replications", "2"],
        ["oracle", "--seed", "3"]])
    def test_unread_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_field_exit_nonzero(self, tmp_path):
        cfg = self._write_config(tmp_path)
        assert cli_main(["estimate", "--config", cfg, "--field",
                         str(tmp_path / "absent.bin")]) == 1

    @staticmethod
    def _variant(tmp_path, name, kind="q1", **params):
        path = tmp_path / name
        path.write_text(json.dumps(dict(
            SMALL, kind=kind, params=dict(SMALL["params"], **params))))
        return str(path)

    @pytest.mark.parametrize("simulated, estimated, key", [
        (("q1", {"alpha": 0.3}), ("q1", {}), "params.alpha"),
        (("q1", {}), ("q2-known-mu0", {"mu0": 0.0}), "kind"),
        (("q2-unknown-mu0", {"mu0": 0.0}), ("q1", {}), "kind"),
        (("q2-known-mu0", {"mu0": 0.0}), ("q2-known-mu0", {"mu0": 0.5}),
         "params.mu0"),
    ])
    def test_estimate_refuses_a_dump_of_other_known_values(
            self, tmp_path, capsys, simulated, estimated, key):
        out = str(tmp_path)
        assert cli_main(["simulate", "--config",
                         self._variant(tmp_path, "sim.json", simulated[0],
                                       **simulated[1]),
                         "--out-dir", out]) == 0
        capsys.readouterr()
        assert cli_main(["estimate", "--config",
                         self._variant(tmp_path, "est.json", estimated[0],
                                       **estimated[1]),
                         "--field", os.path.join(out, "field.bin"),
                         "--out-dir", out]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")
        assert not os.path.exists(os.path.join(out, "estimate.json"))

    @pytest.mark.parametrize("simulated, estimated, sidecar", [
        # the two Q2 kinds simulate the same field; mu0 is estimated
        (("q2-known-mu0", {"mu0": 0.0}), ("q2-unknown-mu0", {"mu0": 0.5}),
         True),
        # a dump without a sidecar is read as it is
        (("q1", {"alpha": 0.3}), ("q1", {}), False),
    ])
    def test_estimate_accepts(self, tmp_path, simulated, estimated, sidecar):
        out = str(tmp_path)
        field = os.path.join(out, "field.bin")
        assert cli_main(["simulate", "--config",
                         self._variant(tmp_path, "sim.json", simulated[0],
                                       **simulated[1]),
                         "--out-dir", out]) == 0
        if not sidecar:
            os.remove(field + ".meta.json")
        assert cli_main(["estimate", "--config",
                         self._variant(tmp_path, "est.json", estimated[0],
                                       **estimated[1]),
                         "--field", field, "--out-dir", out]) == 0
        assert os.path.exists(os.path.join(out, "estimate.json"))

    @pytest.mark.parametrize("sidecar", [[], "q1", {"params": None},
                                         {"params": [0.5]},
                                         {"kind": ["q1"]}])
    def test_estimate_refuses_a_malformed_sidecar(self, tmp_path, capsys,
                                                  sidecar):
        out = str(tmp_path)
        field = os.path.join(out, "field.bin")
        cfg = self._variant(tmp_path, "cfg.json")
        assert cli_main(["simulate", "--config", cfg, "--out-dir", out]) == 0
        with open(field + ".meta.json", "w") as fh:
            json.dump(sidecar, fh)
        capsys.readouterr()
        assert cli_main(["estimate", "--config", cfg, "--field", field,
                         "--out-dir", out]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(os.path.join(out, "estimate.json"))

    @pytest.mark.parametrize("value, t, yz", [
        # at a thinned point off the coarse times: the statistic is not
        # finite (1e200 overflows when squared)
        (math.nan, 5, 2), (math.inf, 5, 2), (1e200, 5, 2),
        # in a coarse slice off the thinned points: the coordinate path is
        # not finite
        (math.nan, 4, 1),
    ])
    def test_estimate_refuses_a_dump_with_a_non_finite_value(
            self, tmp_path, capsys, value, t, yz):
        out = str(tmp_path)
        field = os.path.join(out, "field.bin")
        cfg = self._write_config(tmp_path)
        assert cli_main(["simulate", "--config", cfg, "--out-dir", out]) == 0
        m1, m2 = SMALL["grid"]["M1"] + 1, SMALL["grid"]["M2"] + 1
        with open(field, "r+b") as fh:
            fh.seek(24 + 8 * ((t * m1 + yz) * m2 + yz))
            fh.write(np.array(value, dtype="<f8").tobytes())
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli_main(["estimate", "--config", cfg, "--field", field,
                             "--out-dir", out]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(os.path.join(out, "estimate.json"))

    # estimate reads the dump's record, cross-section its section: both
    # through the header and sidecar checks of fieldio.read_field
    @pytest.mark.parametrize("sidecar", [b"{broken", b'{"kind": "q1"',
                                         b"\xff\xfe{}"])
    @pytest.mark.parametrize("command", [
        ["estimate"], ["cross-section", "--axis", "t", "--level", "0.5"]])
    def test_sidecar_that_is_not_json_exits_nonzero(self, tmp_path, capsys,
                                                    sidecar, command):
        out = str(tmp_path)
        field = os.path.join(out, "field.bin")
        cfg = self._variant(tmp_path, "cfg.json")
        assert cli_main(["simulate", "--config", cfg, "--out-dir", out]) == 0
        with open(field + ".meta.json", "wb") as fh:
            fh.write(sidecar)
        capsys.readouterr()
        config = ["--config", cfg] if command[0] == "estimate" else []
        assert cli_main([*command, *config, "--field", field,
                         "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {field}.meta.json is not valid JSON: ")
        assert not os.path.exists(tmp_path / "out")

    # both commands, as above
    @pytest.mark.parametrize("command", [
        ["estimate"], ["cross-section", "--axis", "t", "--level", "0.5"]])
    def test_sidecar_that_is_a_directory_exits_nonzero(self, tmp_path, capsys,
                                                       command):
        out = str(tmp_path)
        field = os.path.join(out, "field.bin")
        cfg = self._variant(tmp_path, "cfg.json")
        assert cli_main(["simulate", "--config", cfg, "--out-dir", out]) == 0
        os.remove(field + ".meta.json")
        os.mkdir(field + ".meta.json")
        capsys.readouterr()
        config = ["--config", cfg] if command[0] == "estimate" else []
        assert cli_main([*command, *config, "--field", field,
                         "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"error: {field}.meta.json is a directory, not a sidecar\n")
        assert not os.path.exists(tmp_path / "out")

    # both commands, as above
    @pytest.mark.parametrize("command", [
        ["estimate"], ["cross-section", "--axis", "t", "--level", "0.5"]])
    def test_field_that_is_a_directory_exits_nonzero(self, tmp_path, capsys,
                                                     command):
        config = (["--config", self._write_config(tmp_path)]
                  if command[0] == "estimate" else [])
        assert cli_main([*command, *config, "--field", str(tmp_path),
                         "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path} is a directory, not a field dump\n")

    @pytest.mark.parametrize("grid", [{"N": 20, "M1": 6, "M2": 10},
                                      {"N": 40, "M1": 10, "M2": 14}],
                             ids=["smaller", "larger"])
    def test_estimate_refuses_a_dump_on_another_grid(self, tmp_path, capsys,
                                                    grid):
        # refused on the header, before the record's indices are checked
        # against the dump's lattice or any value is read
        out = str(tmp_path)
        sim = tmp_path / "sim.json"
        sim.write_text(json.dumps(dict(SMALL, grid=grid)))
        assert cli_main(["simulate", "--config", str(sim), "--out-dir",
                         out]) == 0
        capsys.readouterr()
        assert cli_main(["estimate", "--config", self._write_config(tmp_path),
                         "--field", os.path.join(out, "field.bin"),
                         "--out-dir", out]) == 1
        n, m1, m2 = grid["N"], grid["M1"], grid["M2"]
        assert capsys.readouterr().err == (
            f"error: field grid ({n}, {m1}, {m2}) does not match the "
            f"expected grid (40, 10, 10)\n")
        assert not os.path.exists(os.path.join(out, "estimate.json"))

    def test_oracle_refuses_a_non_integer_index(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli_main(["oracle", "--config", cfg, "--i", "1,x",
                         "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: --i takes comma-separated integers, got '1,x'\n")
        assert not os.path.exists(tmp_path / "oracle.csv")

    @pytest.mark.parametrize("axis", ["y", "z"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "2"])
    def test_oracle_refuses_a_point_off_the_square(self, tmp_path, capsys,
                                                    axis, value):
        cfg = self._write_config(tmp_path)
        assert cli_main(["oracle", "--config", cfg, f"--{axis}", value,
                         "--i", "1", "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {axis} must be a finite number in [0, 1], got "
            f"{float(value)!r}\n")
        assert not os.path.exists(tmp_path / "oracle.csv")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_mc_refuses_nonpositive_threads(self, tmp_path, capsys, threads):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "mc"
        assert cli_main(["mc", "--config", cfg, "--threads", threads,
                         "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: threads must be an integer >= 1, got {threads}\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("under", ["", "mc", "../mc"],
                             ids=["file", "in_file", "through_file"])
    def test_out_dir_that_is_not_a_directory_exits_before_the_work(
            self, tmp_path, capsys, monkeypatch, under):
        # refused up front, not by a traceback once every replication ran
        def run_monte_carlo(*args, **kwargs):
            raise AssertionError("mc ran with an unusable --out-dir")

        monkeypatch.setattr("spde2d.cli.run_monte_carlo", run_monte_carlo)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = os.path.join(blocker, under) if under else str(blocker)
        assert cli_main(["mc", "--config", self._write_config(tmp_path),
                         "--out-dir", out]) == 1
        assert capsys.readouterr().err == (
            f"error: --out-dir {out}: {blocker} is not a directory\n")

    # each command with one of its output files made a directory, or (for
    # simulate) a --name that names a directory or runs through a file
    @pytest.mark.parametrize("command, name", [
        (["simulate", "--name", "d"], "d"),
        (["simulate", "--name", ""], ""),
        (["simulate"], "field.bin.meta.json"),
        (["simulate", "--name", "file/x.bin"], "file/x.bin"),
        (["estimate", "--field", "f.bin"], "estimate.json"),
        (["mc"], "summary.csv"),
        (["mc"], "records.json"),
        (["oracle"], "oracle.csv"),
        (["cross-section", "--field", "f.bin", "--axis", "t", "--level",
          "0.5"], "cross_section_t_0.5.csv")],
        ids=["simulate_name", "simulate_empty_name", "simulate_sidecar",
             "simulate_through_file", "estimate", "mc_summary", "mc_records",
             "oracle", "cross_section"])
    def test_output_that_cannot_be_written_exits_before_the_work(
            self, tmp_path, capsys, monkeypatch, command, name):
        # refused up front, not by a traceback once the work is done
        def work(*args, **kwargs):
            raise AssertionError(f"{command[0]} ran with an unusable output")

        for target in ("spde2d.cli.simulate_field",
                       "spde2d.cli.run_monte_carlo",
                       "spde2d.cli.expected_squared_increment_oracle",
                       "spde2d.fieldio.read_field", "spde2d.fieldio.read_grid"):
            monkeypatch.setattr(target, work)
        out = tmp_path / "out"
        out.mkdir()
        (out / "file").write_text("")
        if "file" not in name:
            (out / name).mkdir(exist_ok=True)
        config = ([] if command[0] == "cross-section"
                  else ["--config", self._write_config(tmp_path)])
        assert cli_main([*command, *config, "--out-dir", str(out)]) == 1
        path = os.path.join(out, name)
        assert capsys.readouterr().err == (
            f"error: {path}: {out / 'file'} is not a directory\n"
            if "file" in name else
            f"error: {path} is a directory, not an output file\n")

    @pytest.mark.parametrize("command", [["mc", "--config"],
                                         ["estimate", "--field"]])
    def test_input_path_through_a_file_exits_nonzero(self, tmp_path, capsys,
                                                     command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [*command, str(blocker / "x")]
        if command[0] == "estimate":
            argv += ["--config", self._write_config(tmp_path)]
        assert cli_main([*argv, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Not a directory" in err
        assert not os.path.exists(tmp_path / "out")


class TestPhiloxPaths:
    """The NumPy and the compiled Philox words drive the same pipeline."""

    # sha256 of perfbench's tiny noise configuration (perfbench/reference.json)
    WORDS_SHA = ("8200245472b5354800427bf9fab3c1bff6345dcc9e0b430140de29d7"
                 "cdf0cabe")
    NORMALS_SHA = ("548c909f6a1466d2b011cd508b7d4644bcc70cc14129562ebd16e1ea"
                   "43cc5499")

    def test_noise_digests(self, philox_words, monkeypatch):
        monkeypatch.setattr(kernels, "philox_raw_block", philox_words)
        c2 = np.repeat(np.arange(1, 4, dtype=np.uint64), 4)
        c3 = np.tile(np.arange(1, 5, dtype=np.uint64), 3)
        key1 = np.full(12, np.uint64(7), dtype=np.uint64)
        raw = kernels.philox_raw_block(3, c2, c3, 20220121, key1)
        z = kernels.normal_block(3, c2, c3, 20220121, key1)
        assert hashlib.sha256(raw.tobytes()).hexdigest() == self.WORDS_SHA
        assert hashlib.sha256(z.tobytes()).hexdigest() == self.NORMALS_SHA

    def test_replication_equal_under_compiled_words(self, small_config,
                                                    compiled_philox,
                                                    compiled_words,
                                                    monkeypatch):
        def outputs():
            rec = run_replication(small_config, 0)
            return rec.fit, rec.qv11, rec.qv12, rec.estimates

        monkeypatch.setattr(kernels, "philox_raw_block",
                            _kernels_py.philox_raw_block)
        reference = outputs()
        monkeypatch.setattr(kernels, "philox_raw_block", compiled_words)
        assert outputs() == reference
        # the fixture's words are compiled: the sweep takes their compiled
        # sweep and chunks, not the NumPy loop the reference ran
        assert kernels._sweep_words(compiled_words) == (
            compiled_philox.sweep, kernels.CHUNK)
        assert kernels._sweep_words(_kernels_py.philox_raw_block)[1] == (
            2 * kernels.CHUNK)


def test_estimate_covariance_flag(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(SMALL))
    out = str(tmp_path)
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out-dir", out]) == 0
    assert cli_main(["estimate", "--config", str(cfg_path), "--field",
                     os.path.join(out, "field.bin"), "--covariance",
                     "--out-dir", out]) == 0
    with open(os.path.join(out, "estimate.json")) as fh:
        record = json.load(fh)
    cov = record["covariance"]
    if cov is not None:
        assert cov["which"] == "J"
        assert len(cov["entries"]) == 5
