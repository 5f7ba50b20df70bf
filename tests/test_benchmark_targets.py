"""The benchmark in ``perfbench/`` times the package by swapping module
attributes by name; a rename under ``src/`` must fail here, not silently in
a traced benchmark run."""

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import layers, tracing  # noqa: E402


def test_instrument_finds_and_restores_every_target(tmp_path):
    targets = {(module, attr): getattr(importlib.import_module(module), attr)
               for module, attr, _ in tracing.SPANNED}
    with tracing.instrument(tracing.Tracer(str(tmp_path))):
        pass
    for (module, attr), original in targets.items():
        assert getattr(importlib.import_module(module), attr) is original


def test_kernel_table_names():
    import spde2d
    backends = layers.kernel_backends()
    # a traced run times the active words: they must be in the table
    assert "python" in backends and spde2d.BACKEND in backends
    for impl in backends.values():
        for name in ("philox_raw_block", "normal_block", "ou_step",
                     "sq_diff_accum"):
            assert callable(getattr(impl, name))
