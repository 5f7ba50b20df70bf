"""Experiment harness: configuration, replication pipeline, summaries,
cross sections, and the command-line interface."""

import hashlib
import json
import math
import os
import threading

import numpy as np
import pytest

from spde2d import _kernels_py, fieldio, kernels
from spde2d.cli import main as cli_main
from spde2d.errors import ConfigError, GridMismatchError
from spde2d.harness import (ExperimentConfig, cross_section_dump,
                            default_config, diagnostics, estimate_field,
                            load_config, run_monte_carlo, run_replication)
from spde2d.model import NoiseKind
from spde2d.simulate import (FieldSample, RngSeed, SpaceTimeGrid,
                             TruncationSpec, simulate_field)

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

    def test_worker_count_does_not_change_bytes(self, small_config):
        serial = run_monte_carlo(small_config, threads=1)
        parallel = run_monte_carlo(small_config, threads=2)
        assert serial.to_csv() == parallel.to_csv()
        assert serial.to_json() == parallel.to_json()

    def test_workers_fork_without_the_noise_threads(self, small_config,
                                                   monkeypatch):
        # a forked worker copies a parent with no live pool threads
        monkeypatch.setattr(kernels, "_threads", 2)
        streams = np.zeros(2 * kernels.CHUNK, dtype=np.uint64)
        kernels.normal_block(0, streams, streams, 0, streams)

        def noise_threads():
            return [t for t in threading.enumerate()
                    if t.name.startswith("spde2d-noise")]

        assert noise_threads()
        parallel = run_monte_carlo(small_config, threads=2)
        assert not noise_threads()
        assert parallel.to_json() == run_monte_carlo(small_config).to_json()

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
        assert np.array_equal(section.values, field.values[5])

    def test_boundary_slice_is_zero(self, field):
        section = cross_section_dump(field, "y", 0.0)
        assert np.all(section.values == 0.0)

    def test_zero_field_slices_zero(self, reference_params):
        grid = SpaceTimeGrid(N=4, M1=4, M2=4)
        field = FieldSample(values=np.zeros((5, 5, 5)), grid=grid,
                            provenance={})
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
        assert cells[12] == [0.1, 0.1, float(field.values[1, 1, 1])]


class TestFieldIo:
    def test_round_trip_preserves_bits_and_provenance(self, reference_params,
                                                      tmp_path):
        field = simulate_field(reference_params, NoiseKind.Q1,
                               SpaceTimeGrid(N=4, M1=5, M2=6),
                               TruncationSpec(K=3, L=3), seed=RngSeed(9))
        path = str(tmp_path / "f.bin")
        fieldio.write_field(field, path)
        back = fieldio.read_field(path)
        assert np.array_equal(back.values, field.values)
        assert back.grid == field.grid
        assert back.provenance == field.provenance

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
        with pytest.raises(ConfigError,
                           match="padded" if cut == 24 else "truncated"):
            fieldio.read_field(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTAFILE" + b"\x00" * 64)
        with pytest.raises(ConfigError):
            fieldio.read_field(str(path))


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
        # run_replication computes from an observation record alone
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
            direct = run_replication(ExperimentConfig.from_dict(config), 0)
            assert record == direct.to_dict(), kind

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
