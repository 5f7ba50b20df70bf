"""Benchmark of spde2d: three workloads, timed end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk_rep --seed 1 --seconds 50 --trace 0

Workloads (see ``workloads.py``): ``desk_rep`` and ``field_io``, listed in
BENCHMARK.json, and ``mc_2w``, run by hand.

With ``--trace 0`` the benchmark measures, untraced, for ``--seconds``
seconds in a closed loop (one operation at a time) and reports the
end-to-end metrics: ``op_s`` (median seconds per operation), ``setup_s``
and ``peak_rss_mb``.  It also prints the workload's own names for them
(``rep_s``, ``dump_s``, ``estimate_s``, ``mc_reps_per_s``) and
``error_rate``.  With ``--trace 1`` it runs each operation twice on the same
inputs, untraced and traced in alternating order, and reports the per-layer metrics of
``layers.py``, including the tracing overhead; the spans go to a file next
to the results.  Results, with the machine and provenance, are written to
``.perfbench/`` at the root.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from ``src/`` as the test suite imports it, with the
BLAS pool pinned to one thread.  ``--tiny`` shrinks every workload for the
smoke test; ``--record-reference`` rewrites ``reference.json`` from the
current code at the reference seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
WORKLOAD_NAMES = ("desk_rep", "field_io", "mc_2w")
SETUP_PROBES = 3
# Unit of each end-to-end metric; BENCHMARK.json holds their bounds.
END_TO_END = {
    "op_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# The workloads' own names for their timings, printed and stored.
NAMED = {
    "rep_s": ("s", "seconds per replication"),
    "dump_s": ("s", "seconds per `simulate` command"),
    "estimate_s": ("s", "seconds per `estimate --covariance` command"),
    "mc_reps_per_s": ("1/s", "replications per second of run_monte_carlo"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, default="desk_rep")
    p.add_argument("--seed", type=int, default=1, help="workload seed")
    p.add_argument("--seconds", type=float, default=50.0,
                   help="measurement time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test scale: K=L=8, N=100")
    p.add_argument("--reference", help="reference file "
                   "(default: perfbench/reference.json)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite the reference file from the current code")
    return p.parse_args(argv)


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    import spde2d
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": spde2d.BACKEND,
        "env": {v: os.environ.get(v)
                for v in BLAS_VARS + ("SPDE2D_PURE_PYTHON",)},
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def probe_setup(args) -> float:
    """Seconds from starting a fresh benchmark process to its first timed
    call: import, configuration, correctness pre-flight and warm-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    if args.reference:
        cmd += ["--reference", args.reference]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_op(workload, i, tracer, originals):
    """One operation with the fit guard installed, traced if ``tracer``;
    its outputs are checked after every wrapper is removed."""
    import spde2d.harness

    from perfbench.checks import guard_fits
    from perfbench.tracing import instrument, patched

    with contextlib.ExitStack() as stack:
        if tracer is not None:
            tracer.op = f"{workload.name}-{i}"
            stack.enter_context(instrument(tracer))
        stack.enter_context(patched(
            "spde2d.harness", "minimize_contrast",
            guard_fits(spde2d.harness.minimize_contrast, *originals)))
        for patch in workload.patches():
            stack.enter_context(patch)
        op = workload.run(i)
    if tracer is not None:
        tracer.collect_workers()
    workload.check(op)
    return op


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 1),
            "value": sorted(samples)[n - 11]}


def summarize(samples, unit, what):
    return {"value": statistics.median(samples), "unit": unit,
            "samples": len(samples), "tail": tail_percentile(samples),
            "what": what}


def record_reference(path):
    """Estimates and Monte Carlo means at the reference seed, from the
    current code; run once when the benchmark is defined."""
    import tempfile

    from perfbench import checks
    from perfbench.workloads import REFERENCE_SEED, WORKLOADS

    ref = {"seed": REFERENCE_SEED, "rtol": checks.RTOL,
           "noise": checks.noise_digests()}
    counts = {"desk_rep": 6, "field_io": 16, "mc_2w": 1}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, cls in WORKLOADS.items():
            w = cls(REFERENCE_SEED, tmp, False, {})
            ops = [w.run(i) for i in range(counts[name])]
            if any(op.errors for op in ops):
                raise RuntimeError([op.errors for op in ops])
            if name == "mc_2w":
                ref[name] = {"replications": w.config.replications,
                             "means": checks.summary_means(
                                 ops[0].payload["table"])}
            else:
                ref[name] = {str(i): {k: op.records[0][k]
                                      for k in checks.ESTIMATE_KEYS}
                             for i, op in enumerate(ops)}
            print(f"recorded {name}", file=sys.stderr)
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "spde2d", "__init__.py")):
        print(f"error: no spde2d package under {src}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy loads
        os.environ[var] = "1"
    sys.path[:0] = [src, ROOT]

    import spde2d.contrast

    from perfbench import checks, layers
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    reference_path = args.reference or checks.REFERENCE_PATH
    if args.record_reference:
        record_reference(reference_path)
        return 0

    out_dir = os.path.join(ROOT, ".perfbench")
    tmp = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmp)
    try:
        with open(reference_path) as fh:
            reference = json.load(fh)
        noise_errors = checks.check_noise(reference)
        workload = WORKLOADS[args.workload](args.seed, tmp, args.tiny,
                                            reference)
        workload.warm_up()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        originals = (spde2d.contrast.contrast_value,
                     spde2d.contrast.profile_scale)

        tracer = kernel_ms = None
        if args.trace:
            tracer = Tracer(os.path.join(tmp, "workers"))
            by_backend = {name: layers.kernel_timings(impl)
                          for name, impl in layers.kernel_backends().items()}
            kernel_ms = by_backend[spde2d.BACKEND]
        # Closed loop: start another operation while it should end within
        # the measurement time.  A traced run times each operation untraced
        # and traced, alternating which goes first, at least twice.
        plain, traced = [], []
        start = time.perf_counter()
        i = 0
        while True:
            t0 = time.perf_counter()
            if tracer is None:
                plain.append(run_op(workload, i, None, originals))
            else:
                for t in ((None, tracer) if i % 2 == 0 else (tracer, None)):
                    (traced if t else plain).append(
                        run_op(workload, i, t, originals))
            i += 1
            now = time.perf_counter()
            if ((now - start) + (now - t0) > args.seconds
                    and (tracer is None or i >= 2)):
                break
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.workload == "mc_2w":
            peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setup = [probe_setup(args) for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = plain + traced
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    errors = [e for op in ops for e in op.errors]
    if noise_errors:
        failed = attempted
        errors.insert(0, f"noise digests {noise_errors} differ from the "
                         "reference")
    ok = [op for op in plain if not op.failed]
    reported = {
        "setup_s": summarize(setup, "s", "fresh process to first timed call"),
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB",
                        "what": "peak resident memory"
                        + (", plus the largest worker" if args.workload
                           == "mc_2w" else "")},
        "error_rate": {"value": failed / attempted, "unit": "ratio",
                       "what": f"{failed} of {attempted} operations failed"},
    }
    if ok:
        reported["op_s"] = summarize(
            [op.parts.get("op_s", op.seconds) for op in ok], "s",
            "seconds per operation")
        for name, (unit, what) in NAMED.items():
            values = [op.parts[name] for op in ok if name in op.parts]
            if values:
                reported[name] = summarize(values, unit, what)

    config = workload.config
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "tiny": args.tiny, "provenance": provenance(args.seed),
              "reported": reported, "errors": errors,
              "samples": {"setup_s": setup,
                          "op_s": [op.seconds for op in plain]}}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(out_dir, exist_ok=True)
    if tracer is not None:
        units = sum(op.attempted for op in traced)
        if args.workload == "field_io":
            units //= 2  # a dump and an estimate per field
        overhead = (sum(op.seconds for op in traced)
                    / sum(op.seconds for op in plain))
        records = [r for op in traced for r in op.records]
        metrics = layers.layer_metrics(tracer.spans, tracer.counters, units,
                                       records, config, kernel_ms, overhead)
        result["layers"] = metrics
        result["kernels_by_backend"] = by_backend
        result["self_s"] = {k: v / units for k, v in
                            layers.self_times(tracer.spans).items()}
        # Share of the untraced time per replication or field covered by
        # the simulate and contrast spans (the kernels are simulate's
        # children); on desk_rep it should be within trace_overhead of 1.
        result["span_share"] = (
            (metrics["simulate.simulate_field_s"]
             + metrics["contrast.minimize_contrast_s"])
            * units / sum(op.seconds for op in plain))
        spans_path = os.path.join(out_dir, f"{tag}-spans.jsonl")
        tracer.write(spans_path)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
        emitted = {k: {"value": metrics[k], "unit": unit}
                   for k, (unit, _) in layers.PER_LAYER.items()}
    else:
        emitted = {k: {"value": reported[k]["value"], "unit": unit}
                   for k, unit in END_TO_END.items() if k in reported}

    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"backend={spde2d.BACKEND}")
    for name, r in reported.items():
        extra = f" (median of {r['samples']})" if "samples" in r else ""
        print(f"  {name:<14} {r['value']:.6g} {r['unit']}{extra}  "
              f"{r['what']}")
    if tracer is not None:
        for name, value in metrics.items():
            print(f"  {name:<38} {value:.6g} {layers.PER_LAYER[name][0]}")
        print(f"  simulate + contrast spans / untraced time: "
              f"{result['span_share']:.4f}")
    for e in errors:
        print(f"  error: {e}")
    print(json.dumps({"correct": not errors and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": emitted}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
