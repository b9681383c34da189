"""Smoke test of scripts/oracle_range.py: it runs in a subprocess against
this checkout's package, prints each shape's rb and time range over the
runs, and ends with the slowest shape."""

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
