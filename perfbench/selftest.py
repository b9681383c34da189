"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. For each workload, one answer of the program is made wrong by wrapping a
   public function from outside; the run must report a nonzero error rate
   (``failed`` > 0 and ``correct`` false).
2. The deep workload's DFS node counts must be nonzero and identical on two
   seeds, since a seed changes the inputs but not the search.

Takes about two minutes.  Exits 0 when both hold.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import checkout

checkout.use_src()

from rainbownum import cli, formulas, search  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# where each workload's answer is falsified: the oracle or closed form it checks
INJECT = {
    "deep": (search, "rainbow_number_brute"),
    "scan": (cli, "rainbow_number_brute"),
    "verify": (formulas, "rb_formula"),
}


@contextlib.contextmanager
def one_wrong_answer(module, attr):
    """Make the first call of module.attr answer rb + 1."""
    real = getattr(module, attr)
    calls = []

    def wrong(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(1)
        return dataclasses.replace(result, value=result.value + 1) if len(calls) == 1 else result

    setattr(module, attr, wrong)
    try:
        yield
    finally:
        setattr(module, attr, real)


def error_rate_with_injection(name: str) -> tuple[int, int, bool]:
    out = io.StringIO()
    with one_wrong_answer(*INJECT[name]), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        run.main(["--workload", name, "--seed", "1", "--seconds", "0"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    return result["failed"], result["attempted"], result["correct"]


def deep_nodes(seed: int, work) -> dict:
    wl = workloads.build("deep", seed, work)
    nodes, done = layers.count_dfs_nodes(lambda: workloads.run_pass(wl))
    if done.errors:
        raise SystemExit(f"deep seed {seed}: {done.errors}")
    return dict(nodes)


def main() -> int:
    ok = True
    for name in workloads.NAMES:
        failed, attempted, correct = error_rate_with_injection(name)
        good = failed > 0 and not correct
        ok &= good
        print(f"{name}: one injected wrong answer gives error_rate {failed}/{attempted}"
              f" -> {'ok' if good else 'NOT DETECTED'}", flush=True)

    with checkout.work_dir("selftest") as work:
        first, second = deep_nodes(1, work), deep_nodes(2, work)
    good = first == second and sum(first.values()) > 0
    ok &= good
    print(f"deep DFS nodes, seed 1: {first}; seed 2: {second} -> "
          f"{'identical' if good else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
