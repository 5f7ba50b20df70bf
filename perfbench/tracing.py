"""Spans and counters recorded around the package's layers from outside.

Nothing under ``src/`` is modified: ``instrument`` swaps module attributes
such as ``spde2d.harness.minimize_contrast`` or ``spde2d.kernels.ou_step``
for timing wrappers and restores them on exit.  A call site that reads the
attribute at call time (``kernels.ou_step(...)``, or a name imported into
``harness`` and called from there) goes through the wrapper.

A span is ``(id, name, start, end, parent, op)``; spans of one operation
share ``op``.  Wrappers installed before a process pool forks are inherited
by its workers: a worker tags each replication's spans with its own
operation id and appends them to a per-process file, which the parent
collects once the pool has shut down.  ``time.perf_counter`` reads
``CLOCK_MONOTONIC`` on Linux, so worker and parent timestamps compare.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
import types
from collections import defaultdict

clock = time.perf_counter

# (module, attribute, span name) of every plain timing wrapper.
SPANNED = [
    ("spde2d.kernels", "normal_block", "kernels.normal_block"),
    ("spde2d.kernels", "ou_step", "kernels.ou_step"),
    ("spde2d.kernels", "sq_diff_accum", "kernels.sq_diff_accum"),
    ("spde2d.harness", "simulate_field", "simulate.simulate_field"),
    ("spde2d.cli", "simulate_field", "simulate.simulate_field"),
    ("spde2d.harness", "squared_increment_field",
     "increments.squared_increment_field"),
    ("spde2d.harness", "minimize_contrast", "contrast.minimize_contrast"),
    ("spde2d.harness", "approx_coordinate", "reconstruct.approx_coordinate"),
    ("spde2d.harness", "realized_qv", "reconstruct.realized_qv"),
    ("spde2d.harness", "q1_plugin", "plugins.q1_plugin"),
    ("spde2d.harness", "q2_known_plugin", "plugins.q2_known_plugin"),
    ("spde2d.harness", "q2_unknown_plugin", "plugins.q2_unknown_plugin"),
    ("spde2d.plugins", "covariance_J", "plugins.covariance_J"),
    ("spde2d.plugins", "covariance_K", "plugins.covariance_K"),
    ("spde2d.plugins", "covariance_L", "plugins.covariance_L"),
    ("spde2d.harness", "estimate_field", "harness.estimate_field"),
    ("spde2d.cli", "estimate_field", "harness.estimate_field"),
    ("spde2d.harness", "run_monte_carlo", "harness.run_monte_carlo"),
    ("spde2d.cli", "main", "cli.main"),
]


@contextlib.contextmanager
def patched(module: str, attr: str, value):
    """Set ``module.attr`` to ``value`` for the duration of the block."""
    mod = importlib.import_module(module)
    old = getattr(mod, attr)
    setattr(mod, attr, value)
    try:
        yield old
    finally:
        setattr(mod, attr, old)


class Tracer:
    """In-memory span and counter store for one benchmark process.

    ``op`` is set by the benchmark before each operation.  In a forked
    worker the store starts empty and is flushed to ``worker_dir`` after
    every replication.
    """

    def __init__(self, worker_dir: str):
        os.makedirs(worker_dir, exist_ok=True)
        self.worker_dir = worker_dir
        self.root_pid = self.pid = os.getpid()
        self.op = None
        self.spans = []  # [id, name, start, end, parent, op]
        self.counters = defaultdict(float)  # (op, name) -> total
        self._stack = []
        self._n = 0

    def _own(self):
        pid = os.getpid()
        if pid != self.pid:
            self.pid = pid
            self.spans, self._stack = [], []
            self.counters = defaultdict(float)

    def add(self, name: str, value: float):
        self._own()
        self.counters[(self.op, name)] += value

    def mark(self, name: str):
        """Record a zero-length span, e.g. a pool submission."""
        self._own()
        now = clock()
        self.spans.append([f"{self.pid}:{self._n}", name, now, now,
                           self._stack[-1] if self._stack else None, self.op])
        self._n += 1

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._own()
            sid = f"{self.pid}:{self._n}"
            self._n += 1
            rec = [sid, name, clock(), None,
                   self._stack[-1] if self._stack else None, self.op]
            self.spans.append(rec)
            self._stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                self._stack.pop()
        return traced

    def wrap_replication(self, fn):
        """``harness.run_replication``: in a pool worker each call is an
        operation of its own, flushed to disk when it ends."""
        inner = self.wrap("harness.run_replication", fn)

        @functools.wraps(fn)
        def entry(config, rep_index):
            if os.getpid() == self.root_pid:
                return inner(config, rep_index)
            self._own()
            base = self.op
            self.op = f"{base}/rep{rep_index}"
            try:
                return inner(config, rep_index)
            finally:
                self.op = base
                self._flush()
        return entry

    def _flush(self):
        path = os.path.join(self.worker_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps({"span": s}) + "\n")
            for (op, name), v in self.counters.items():
                fh.write(json.dumps({"counter": [op, name, v]}) + "\n")
        self.spans = []
        self.counters = defaultdict(float)

    def collect_workers(self):
        """Merge and delete the files flushed by pool workers."""
        for fname in sorted(os.listdir(self.worker_dir)):
            path = os.path.join(self.worker_dir, fname)
            with open(path) as fh:
                for line in fh:
                    item = json.loads(line)
                    if "span" in item:
                        self.spans.append(item["span"])
                    else:
                        op, name, v = item["counter"]
                        self.counters[(op, name)] += v
            os.remove(path)

    def write(self, path: str):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "op": op}) + "\n")
            for (op, name), v in sorted(self.counters.items(),
                                        key=lambda kv: (str(kv[0][0]),
                                                        kv[0][1])):
                fh.write(json.dumps({"counter": name, "op": op,
                                     "value": v}) + "\n")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install every wrapper; the package is restored on exit."""
    import spde2d.cli
    import spde2d.contrast

    def counting(name, amount, fn):
        @functools.wraps(fn)
        def counted(*args):
            tracer.add(name, amount(*args))
            return fn(*args)
        return counted

    class SubmitMarkingPool(spde2d.harness.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            tracer.mark("harness.submit")
            return super().submit(fn, *args, **kwargs)

    fieldio = spde2d.cli.fieldio
    fieldio_proxy = types.SimpleNamespace(
        write_field=tracer.wrap("fieldio.write_field", fieldio.write_field),
        read_field=tracer.wrap("fieldio.read_field", fieldio.read_field))

    with contextlib.ExitStack() as stack:
        for module, attr, name in SPANNED:
            fn = getattr(importlib.import_module(module), attr)
            stack.enter_context(patched(module, attr, tracer.wrap(name, fn)))
        stack.enter_context(patched(
            "spde2d.kernels", "normal_block",
            counting("kernels.normals", lambda b, ctr2, *_: 4 * len(ctr2),
                     spde2d.kernels.normal_block)))
        stack.enter_context(patched(
            "spde2d.contrast", "contrast_value",
            counting("contrast.evals", lambda *_: 1,
                     spde2d.contrast.contrast_value)))
        stack.enter_context(patched(
            "spde2d.harness", "run_replication",
            tracer.wrap_replication(spde2d.harness.run_replication)))
        stack.enter_context(patched("spde2d.harness", "ProcessPoolExecutor",
                                    SubmitMarkingPool))
        stack.enter_context(patched("spde2d.cli", "fieldio", fieldio_proxy))
        yield tracer


def self_times(spans) -> dict:
    """Total self time per span name: duration minus time in direct
    children (children of one span never overlap)."""
    child_time = defaultdict(float)
    for sid, name, start, end, parent, op in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(float)
    for sid, name, start, end, parent, op in spans:
        out[name] += (end - start) - child_time[sid]
    return dict(out)


def totals(spans) -> tuple[dict, dict]:
    """Total duration and call count per span name."""
    dur = defaultdict(float)
    calls = defaultdict(int)
    for sid, name, start, end, parent, op in spans:
        dur[name] += end - start
        calls[name] += 1
    return dict(dur), dict(calls)
