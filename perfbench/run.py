"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it measures the rainbownum package under
that checkout's src/.  With ``--trace 0`` it repeats the workload's pass until
``--seconds`` have gone by and reports the end-to-end metrics, its times
scaled to a fixed host speed (hostspeed.py); with ``--trace 1`` it reports
the per-layer metrics of layers.py instead.  Every answer is checked.  The
last line of stdout is one JSON object:

    {"correct": true, "attempted": 1200, "failed": 0, "metrics": {...}}

where ``failed / attempted`` is the error rate: wrong answers plus unexpected
exceptions and exit codes, over the public calls made.  The lines before it
list the same numbers for people.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import checkout
import hostspeed

SETUP_RUNS = 11
MAX_ERRORS_SHOWN = 5


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("deep", "scan", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int, between) -> float:
    """Median time to import rainbownum and build the inputs, each time in a
    fresh interpreter (setup_probe.py); ``between`` is called before each."""
    probe = checkout.HERE / "setup_probe.py"
    times = []
    for _ in range(SETUP_RUNS):
        between()
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            cwd=checkout.ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def tail(values):
    """(value, percentile) at the highest percentile with ten values above
    it; the maximum when there are ten values or fewer."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(wl, passes, scales, setup):
    """The end-to-end metrics, with every time scaled to the nominal host
    speed of hostspeed.py.

    ``scales[k]`` scales the latencies of ``passes[k]``; ``setup`` is the
    set-up time and its scale.  An instance's latency is its median over
    the passes; wall_s is the sum of those latencies, one pass of the
    workload.  Returns (metrics, notes), the notes holding the unscaled
    times for people.
    """
    def per_instance(scaled):
        return [statistics.median((s if scaled else 1) * p.latencies[i]
                                  for p, s in zip(passes, scales) if i < len(p.latencies))
                for i in range(len(wl.instances))]

    latency, raw = per_instance(True), per_instance(False)
    repeats = min(sum(i < len(p.latencies) for p in passes) for i in range(len(wl.instances)))
    tail_s, tail_pct = tail(latency)
    setup_s, setup_scale = setup
    metrics = {
        "setup_s": (setup_s * setup_scale, "s"),
        "wall_s": (sum(latency), "s"),
        "answer_p50_ms": (statistics.median(latency) * 1000, "ms"),
        "answer_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"unscaled {setup_s:.6g} s",
        "wall_s": (f"unscaled {sum(raw):.6g} s; host speed scale "
                   f"{min(scales):.3g} to {max(scales):.3g} over the passes"),
        "answer_p50_ms": f"unscaled {statistics.median(raw) * 1000:.6g} ms",
        "answer_tail_ms": (f"p{tail_pct:.1f} of {len(latency)} instances, "
                           f"each the median of at least {repeats} repeats"),
    }
    return metrics, notes


def main(argv=None) -> int:
    args = _args(argv)
    checkout.use_src()
    import layers
    import workloads

    with checkout.work_dir(f"{args.workload}-{args.seed}") as work:
        wl = workloads.build(args.workload, args.seed, work)
        if args.trace:
            values, passes, absent, props = layers.traced_run(wl, args.seconds)
            metrics = {k: (v, layers.unit(k)) for k, v in values.items()}
            notes = {}
        else:
            meter = hostspeed.Meter(wl.routine)
            deadline = time.perf_counter() + args.seconds
            passes, scales = [], []
            while not passes or time.perf_counter() < deadline:
                since = len(meter.samples)
                passes.append(workloads.run_pass(wl, deadline if passes else None, meter.tick))
                scales.append(meter.scale(since))
    if not args.trace:
        since = len(meter.samples)
        setup_s = setup_seconds(args.workload, args.seed, meter.tick)
        metrics, notes = end_to_end(wl, passes, scales, (setup_s, meter.scale(since)))

    attempted = sum(len(p.latencies) for p in passes)
    errors = [e for p in passes for e in p.errors]
    for error in errors[:MAX_ERRORS_SHOWN]:
        print(f"wrong answer: {error}", file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}: {len(wl.instances)} instances, "
          f"{len(passes)} passes")
    for name, (value, unit) in metrics.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    print(f"  error_rate = {len(errors) / attempted:.6g}   ({len(errors)} of {attempted} calls)")
    if args.trace:
        print(f"  input properties: {json.dumps(props)}")
        if absent:
            print(f"  absent (metrics left out): {', '.join(absent)}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
