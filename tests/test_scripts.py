"""Smoke tests of the scripts, each run in a subprocess against this
checkout's package: oracle_range.py prints each shape's rb and time range
over the runs and ends with the slowest shape; rainbow_free_census.py and
dichotomy_sweep.py print what the README says they do."""

import os
import re
import subprocess
import sys
from pathlib import Path

from rainbownum import Equation, rainbow_number_brute

ROOT = Path(__file__).resolve().parent.parent


def test_oracle_range_prints_rb_and_slowest():
    shapes = [(1, 1, 1, 0), (1, 2, 3, 5)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "scripts" / "oracle_range.py"),
            "--modulus", "12", "--runs", "2"]
    for shape in shapes:
        argv += ["--shape", ",".join(map(str, shape))]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, env=env)
    lines = done.stdout.splitlines()
    assert len(lines) == len(shapes) + 1, done.stdout
    for (a1, a2, a3, b), line in zip(shapes, lines):
        found = re.fullmatch(
            rf"{a1},{a2},{a3} b={b}\s+rb = (\d+)\s+total (\d+\.\d\d)-(\d+\.\d\d) s", line)
        assert found, line
        low, high = float(found[2]), float(found[3])
        assert 0 <= low <= high
        want = rainbow_number_brute(12, Equation(12, a1, a2, a3, b)).value
        assert int(found[1]) == want, line
    assert re.fullmatch(r"slowest at n = 12: \S+ b=\d+ in \d+\.\d\d s", lines[-1]), lines[-1]


def _run_script(name: str, *args: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "scripts" / name), *args]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, env=env)
    return done.stdout.splitlines()


def test_rainbow_free_census_on_z9():
    lines = _run_script("rainbow_free_census.py", "--modulus", "9",
                        "--coeffs", "1,1,1", "--rhs", "0")
    rows = [line.split() for line in lines[2:-1]]
    assert [int(row[0]) for row in rows] == list(range(1, 10))
    assert rows[3][2] == "2", lines
    assert lines[-1] == "rb(Z_9, eq) = 5"


def test_dichotomy_sweep_agrees_at_p5():
    lines = _run_script("dichotomy_sweep.py", "--p", "5")
    assert lines[-1] == "formula and oracle agree everywhere"
