"""Per-layer metrics of a traced run.

Kernel costs come from direct calls with desk-size inputs (65,536 streams
or modes), for every kernel backend that imports.  Everything else is
derived from the spans and counters of the traced operations and divided
by the number of replications (``desk_rep``, ``mc_2w``) or fields
(``field_io``) they covered, so runs of different lengths compare.  A layer
the workload does not exercise reads 0.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict

import numpy as np

from .tracing import clock, self_times, totals
from .workloads import MC_WORKERS

DESK_K = DESK_L = 256
BLOCKS = 16
CALLS = 200

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "kernels.philox_ms": ("ms", "lower"),
    "kernels.normal_block_ms": ("ms", "lower"),
    "kernels.ndtri_ms": ("ms", "lower"),
    "kernels.ou_step_ms": ("ms", "lower"),
    "kernels.sq_diff_accum_ms": ("ms", "lower"),
    "kernels.normal_block_s": ("s", "lower"),
    "kernels.normal_block_calls": ("count", "lower"),
    "kernels.ou_step_s": ("s", "lower"),
    "kernels.normals_per_s": ("1/s", "higher"),
    "simulate.simulate_field_s": ("s", "lower"),
    "simulate.self_s": ("s", "lower"),
    "simulate.proj_macs": ("count", "lower"),
    "simulate.field_bytes": ("bytes", "lower"),
    "increments.squared_increment_field_s": ("s", "lower"),
    "reconstruct.s": ("s", "lower"),
    "plugins.s": ("s", "lower"),
    "contrast.minimize_contrast_s": ("s", "lower"),
    "contrast.evals": ("count", "lower"),
    "contrast.converged_ratio": ("ratio", "higher"),
    "plugins.failure_ratio": ("ratio", "lower"),
    "fieldio.write_s": ("s", "lower"),
    "fieldio.read_s": ("s", "lower"),
    "fieldio.bytes": ("bytes", "lower"),
    "harness.run_replication_s": ("s", "lower"),
    "harness.estimate_field_s": ("s", "lower"),
    "harness.pool_wall_s": ("s", "lower"),
    "harness.queue_wait_s": ("s", "lower"),
    "harness.pool_efficiency": ("ratio", "higher"),
    "cli.overhead_s": ("s", "lower"),
    "trace_overhead": ("ratio", "lower"),
}


def kernel_backends() -> dict:
    """Every kernel backend module that imports, by backend name."""
    out = {}
    for module in ("spde2d._kernels_py", "spde2d._kernels_c"):
        try:
            impl = importlib.import_module(module)
        except ImportError:
            continue
        out[impl.BACKEND_NAME] = impl
    return out


def _per_call_ms(fn, n: int) -> float:
    times = []
    for i in range(n):
        t0 = clock()
        fn(i)
        times.append(clock() - t0)
    return 1e3 * statistics.median(times)


def kernel_timings(impl) -> dict:
    """Median ms per call of each hot kernel at desk size."""
    n = DESK_K * DESK_L
    c2 = np.repeat(np.arange(1, DESK_K + 1, dtype=np.uint64), DESK_L)
    c3 = np.tile(np.arange(1, DESK_L + 1, dtype=np.uint64), DESK_K)
    key1 = np.zeros(n, dtype=np.uint64)
    rng = np.random.default_rng(0)
    x = rng.normal(size=n)
    decay = rng.uniform(0.1, 0.999, n)
    scale = rng.uniform(0.0, 1.0, n)
    noise = rng.normal(size=n)
    prev, curr = rng.normal(size=n), rng.normal(size=n)
    acc, comp = np.zeros(n), np.zeros(n)
    philox = _per_call_ms(
        lambda b: impl.philox_raw_block(b, c2, c3, 1, key1), BLOCKS)
    normal = _per_call_ms(
        lambda b: impl.normal_block(b, c2, c3, 1, key1), BLOCKS)
    return {
        "kernels.philox_ms": philox,
        "kernels.normal_block_ms": normal,
        "kernels.ndtri_ms": normal - philox,
        "kernels.ou_step_ms": _per_call_ms(
            lambda _: impl.ou_step(x, decay, scale, noise), CALLS),
        "kernels.sq_diff_accum_ms": _per_call_ms(
            lambda _: impl.sq_diff_accum(curr, prev, acc, comp), CALLS),
    }


def _queue_waits(spans) -> list:
    """Submission to start of the replication in a worker, per replication.

    ``Executor.map`` submits replications in index order, so the i-th
    submission of a call belongs to replication i.
    """
    submits = defaultdict(list)
    starts = {}
    for sid, name, start, end, parent, op in spans:
        if name == "harness.submit":
            submits[op].append(start)
        elif name == "harness.run_replication" and "/rep" in str(op):
            base, rep = op.rsplit("/rep", 1)
            starts[(base, int(rep))] = start
    waits = []
    for op, times in submits.items():
        for rep, t in enumerate(sorted(times)):
            if (op, rep) in starts:
                waits.append(starts[(op, rep)] - t)
    return waits


def layer_metrics(spans, counters, units: int, records: list, config,
                  kernel_ms: dict, overhead: float) -> dict:
    dur, calls = totals(spans)
    own = self_times(spans)

    def per_unit(*names):
        return sum(dur.get(n, 0.0) for n in names) / units

    def per_call(name, table=dur):
        return table.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

    def counted(what):
        return sum(v for (op, name), v in counters.items() if name == what)

    grid, trunc = config.grid, config.trunc
    field_bytes = 8 * (grid.N + 1) * (grid.M1 + 1) * (grid.M2 + 1)
    fits = calls.get("contrast.minimize_contrast", 0)
    pool_wall = dur.get("harness.run_monte_carlo", 0.0)
    worker_time = sum(end - start for sid, name, start, end, parent, op in
                      spans if name == "harness.run_replication"
                      and "/rep" in str(op))
    waits = _queue_waits(spans)
    m = dict(kernel_ms)
    m.update({
        "kernels.normal_block_s": per_unit("kernels.normal_block"),
        "kernels.normal_block_calls":
            calls.get("kernels.normal_block", 0) / units,
        "kernels.ou_step_s": per_unit("kernels.ou_step"),
        "kernels.normals_per_s": (counted("kernels.normals")
                                  / dur["kernels.normal_block"]
                                  if dur.get("kernels.normal_block") else 0.0),
        "simulate.simulate_field_s": per_unit("simulate.simulate_field"),
        "simulate.self_s": own.get("simulate.simulate_field", 0.0) / units,
        # eyT (M1+1, K) @ X (K, L), then (M1+1, L) @ ez (L, M2+1), per slice
        "simulate.proj_macs": float((grid.M1 + 1) * trunc.K * trunc.L
                                    + (grid.M1 + 1) * trunc.L * (grid.M2 + 1)),
        "simulate.field_bytes": float(field_bytes),
        "increments.squared_increment_field_s":
            per_unit("increments.squared_increment_field"),
        "reconstruct.s": per_unit("reconstruct.approx_coordinate",
                                  "reconstruct.realized_qv"),
        "plugins.s": per_unit(*(n for n in dur if n.startswith("plugins."))),
        "contrast.minimize_contrast_s":
            per_unit("contrast.minimize_contrast"),
        "contrast.evals": counted("contrast.evals") / fits if fits else 0.0,
        "contrast.converged_ratio":
            float(np.mean([bool(r["converged"]) for r in records])),
        "plugins.failure_ratio":
            float(np.mean([r["failure"] is not None for r in records])),
        "fieldio.write_s": per_unit("fieldio.write_field"),
        "fieldio.read_s": per_unit("fieldio.read_field"),
        # magic, version and N, M1, M2 (24 bytes), then the values
        "fieldio.bytes": calls.get("fieldio.write_field", 0)
                         * (24.0 + field_bytes) / units,
        "harness.run_replication_s": per_unit("harness.run_replication"),
        "harness.estimate_field_s": per_unit("harness.estimate_field"),
        "harness.pool_wall_s": per_call("harness.run_monte_carlo"),
        "harness.queue_wait_s": float(np.mean(waits)) if waits else 0.0,
        "harness.pool_efficiency":
            worker_time / (MC_WORKERS * pool_wall) if pool_wall else 0.0,
        "cli.overhead_s": per_call("cli.main", own),
        "trace_overhead": overhead,
    })
    return m
