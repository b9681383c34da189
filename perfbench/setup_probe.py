"""Time one benchmark set-up in a fresh interpreter: import rainbownum from
the checkout and build a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds taken.  run.py starts it several times and reports the
median as setup_s.
"""

import sys
import time

start = time.perf_counter()

import checkout  # noqa: E402

checkout.use_src()

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.perf_counter() - start)
