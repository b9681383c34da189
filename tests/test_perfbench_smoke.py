"""Smoke test of the benchmark's output protocol.

perfbench/run.py must end its stdout with one JSON result object, traced or
not, so nothing the package does may print to stdout.  A short verify run
(about a second per trace setting) checks that, that every answer is right,
and that the result carries exactly the metrics BENCHMARK.json declares:
the per-layer ones when traced, the end-to-end ones when not.  A private
name or option the traced run relies on that the package no longer has
shows up here as a missing per-layer metric.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result line")


@pytest.mark.parametrize("trace", ["0", "1"])
def test_verify_run_ends_with_a_json_result(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "0.5", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = done.stdout.splitlines()[-1]
    result = json.loads(last, parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in declared[kind]}
