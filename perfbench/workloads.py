"""The benchmark's three workloads.

All use the Q1 default parameters, N=1000 and a 50x50 grid; the workload
seed is the master seed of the experiment configuration.

* ``desk_rep``: ``harness.run_replication`` at desk scale (K=L=256, 65,536
  modes), one replication per operation, closed loop.  The paper's
  reference experiment; the noise kernels and the spectral projection do
  ~90% of its work.
* ``field_io``: the two commands a user runs on stored data, through
  ``spde2d.cli.main`` with a config file: ``simulate`` (full-field synthesis
  plus dump write), then ``estimate --covariance`` (dump read, estimate,
  covariance) on that dump.  K=L=128: at K=L=64 the contrast fit takes
  either ~800 or ~8,000 evaluations depending on the data, which makes the
  estimate time a coin flip of the seed; at 128 the count varies by ~2%.
* ``mc_2w``: ``harness.run_monte_carlo(threads=2)`` at K=L=128, the only
  workload with a process pool, record pickling and the summary.  Every
  call in a run repeats the same experiment, so its summaries must be
  byte-identical.  It is not listed in BENCHMARK.json: with both vCPUs of
  a 2-vCPU host busy, its run-to-run spread (IQR/median of 0.16 and 0.27
  over two sets of 10 seeds) exceeds the largest bound a metric may have.
  Run it by hand for the ``harness.pool_*`` metrics.

An operation is one replication, one dump or one estimate.  ``run`` times
an operation; ``check`` verifies its outputs afterwards, outside the timed
region and outside any tracing.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from dataclasses import dataclass, field

import spde2d.cli
import spde2d.harness
from spde2d.harness import ExperimentConfig

from . import checks
from .tracing import clock, patched

REFERENCE_SEED = 1
MC_WORKERS = 2

# Configuration overrides per workload, at full and at smoke-test scale.
FULL = {
    "desk_rep": {},
    "field_io": {"truncation": {"K": 128, "L": 128}},
    "mc_2w": {"truncation": {"K": 128, "L": 128}, "replications": 8},
}
TINY = {"grid": {"N": 100}, "truncation": {"K": 8, "L": 8},
        "contrast": {"init_grid": 2}, "replications": 4}
# Warm-up operation of set-up: every code path once, at a fixed seed and
# with full-size fields (the first allocation of a field-sized array costs
# page faults that later operations do not pay), but few modes and starts.
WARM_UP = {"truncation": {"K": 8, "L": 8}, "contrast": {"init_grid": 1},
           "replications": 1}


@dataclass
class Op:
    seconds: float
    attempted: int
    parts: dict = field(default_factory=dict)
    records: list = field(default_factory=list)  # record dicts
    errors: list = field(default_factory=list)
    failed: int = 0
    payload: dict = field(default_factory=dict)

    def fail(self, message: str, count: int = None):
        self.errors.append(message)
        self.failed = self.attempted if count is None else count


def _config(overrides: dict, seed: int) -> ExperimentConfig:
    return ExperimentConfig.from_dict({**overrides, "seed": seed})


class Workload:
    name = ""

    def __init__(self, seed: int, tmp: str, tiny: bool, reference: dict):
        self.tmp = tmp
        self.config = _config(TINY if tiny else FULL[self.name], seed)
        self.reference = (reference.get(self.name, {})
                          if seed == REFERENCE_SEED and not tiny else {})

    def warm_up(self):
        spde2d.harness.run_replication(self._warm_up_config(), 0)

    def _warm_up_config(self):
        return _config({**WARM_UP, "grid": self.config.to_dict()["grid"]}, 7)

    def patches(self):
        return []

    def run(self, i: int) -> Op:
        raise NotImplementedError

    def check(self, op: Op):
        pass

    def _check_reference(self, op: Op, key: str, record: dict):
        want = self.reference.get(key)
        if want is not None:
            bad = checks.estimate_mismatches(record, want)
            if bad:
                op.fail(f"{key}: {bad} differ from the reference")


class DeskRep(Workload):
    name = "desk_rep"

    def run(self, i):
        t0 = clock()
        try:
            rec = spde2d.harness.run_replication(self.config, i)
        except Exception as exc:  # a raising operation counts as failed
            op = Op(clock() - t0, 1)
            op.fail(f"rep {i}: {exc!r}")
            return op
        dt = clock() - t0
        return Op(dt, 1, parts={"rep_s": dt}, records=[rec.to_dict()],
                  payload={"key": str(i)})

    def check(self, op):
        if op.records:
            self._check_reference(op, op.payload["key"], op.records[0])


class FieldIO(Workload):
    name = "field_io"

    def __init__(self, seed, tmp, tiny, reference):
        super().__init__(seed, tmp, tiny, reference)
        self.config_path = os.path.join(tmp, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config.to_dict(), fh)
        self.dump = os.path.join(tmp, "field.bin")
        self.captured = None

    def warm_up(self):
        path = os.path.join(self.tmp, "warm_up.json")
        with open(path, "w") as fh:
            json.dump(self._warm_up_config().to_dict(), fh)
        self._cli("simulate", "--config", path, "--name", "field.bin")
        self._cli("estimate", "--config", path, "--field", self.dump,
                  "--covariance")

    def _cli(self, *argv):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = spde2d.cli.main([*argv, "--out-dir", self.tmp])
        if rc != 0:
            raise RuntimeError(f"spde2d {argv[0]} exited with {rc}")

    def patches(self):
        # keep the in-memory field of each `simulate` for the round-trip check
        simulate_field = spde2d.cli.simulate_field

        @functools.wraps(simulate_field)
        def capture(*args, **kwargs):
            self.captured = simulate_field(*args, **kwargs)
            return self.captured

        return [patched("spde2d.cli", "simulate_field", capture)]

    def run(self, i):
        self.captured = None
        op = Op(0.0, 2, payload={"key": str(i)})
        t0 = clock()
        try:
            self._cli("simulate", "--config", self.config_path, "--rep",
                      str(i), "--name", "field.bin")
        except Exception as exc:  # a raising operation counts as failed
            op.seconds = clock() - t0
            op.fail(f"simulate {i}: {exc!r}")
            return op
        t1 = clock()
        try:
            self._cli("estimate", "--config", self.config_path, "--field",
                      self.dump, "--covariance")
        except Exception as exc:  # a raising operation counts as failed
            op.seconds = clock() - t0
            op.fail(f"estimate {i}: {exc!r}", 1)
            return op
        t2 = clock()
        op.seconds = t2 - t0
        op.parts = {"dump_s": t1 - t0, "estimate_s": t2 - t1}
        with open(os.path.join(self.tmp, "estimate.json")) as fh:
            op.records = [json.load(fh)]
        op.payload["field"] = self.captured
        return op

    def check(self, op):
        if not op.records:
            return
        got = dict(op.records[0])
        got.pop("covariance", None)
        in_memory = spde2d.harness.estimate_field(
            self.config, op.payload.pop("field")).to_dict()
        if got != in_memory:
            op.fail(f"field {op.payload['key']}: the estimate from the "
                    "re-read dump differs from the in-memory estimate", 1)
        self._check_reference(op, op.payload["key"], got)


class MonteCarlo(Workload):
    name = "mc_2w"

    def __init__(self, seed, tmp, tiny, reference):
        super().__init__(seed, tmp, tiny, reference)
        self.first_summary = None

    def run(self, i):
        n = self.config.replications
        t0 = clock()
        try:
            table = spde2d.harness.run_monte_carlo(self.config,
                                                   threads=MC_WORKERS)
        except Exception as exc:  # a raising call fails all its replications
            op = Op(clock() - t0, n)
            op.fail(f"call {i}: {exc!r}")
            return op
        dt = clock() - t0
        return Op(dt, n, parts={"mc_reps_per_s": n / dt, "op_s": dt / n},
                  records=[r.to_dict() for r in table.records],
                  payload={"table": table})

    def check(self, op):
        table = op.payload.pop("table", None)
        if table is None:
            return
        if [r["rep_index"] for r in op.records] != list(
                range(self.config.replications)):
            op.fail("records are not one per replication index")
        summary = table.to_json()
        if self.first_summary is None:
            self.first_summary = summary
        elif summary != self.first_summary:
            op.fail("summary differs between calls of one run")
        if self.reference:
            bad = checks.summary_mismatches(checks.summary_means(table),
                                            self.reference["means"])
            if bad:
                op.fail(f"summary means {bad} differ from the reference")


WORKLOADS = {w.name: w for w in (DeskRep, FieldIO, MonteCarlo)}
