"""Smoke test of the benchmark at a tiny configuration.

    python3 -m pytest -q perfbench/test_smoke.py

Every metric BENCHMARK.json names is emitted with its unit, and a tampered
reference digest makes the correctness check fail.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_bench(*args):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--tiny",
         "--seconds", "0.5", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", ["desk_rep", "field_io", "mc_2w"])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    result = run_bench("--workload", workload, "--trace", str(trace))
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == declared(kind)
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_tampered_reference_digest_fails_the_check(tmp_path):
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    digest = reference["noise"]["normal_block"]
    reference["noise"]["normal_block"] = digest[::-1]
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    result = run_bench("--workload", "desk_rep", "--reference", str(path))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
