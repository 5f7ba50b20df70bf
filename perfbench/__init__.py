"""Benchmark of the spde2d package; run ``perfbench/run.py``."""
