"""Run workloads on several seeds and report the spread of each end-to-end metric.

    python3 perfbench/spread.py --seeds 10 [--first-seed 1] [--workloads deep scan]

For each workload and metric it prints the median and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, and marks a spread above a third of the metric's bound in
BENCHMARK.json (setup_s is exempt).  Runs are sequential.  The last line of
stdout is a JSON object with every value, for recording a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import checkout


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(checkout.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout.ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} wrong answers")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+")
    args = parser.parse_args(argv)
    with open(checkout.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for name in names:
        runs = [run_once(name, seed, bench["run_seconds"], 0)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        summary[name] = {}
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if metric == "setup_s" or spread < bound / 3 else "   above bound/3"
            print(f"{name:7s} {metric:15s} median {med:.6g}  spread {spread:.4f}  "
                  f"(bound {bound}){flag}", flush=True)
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": spread, "values": values}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
