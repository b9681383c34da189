"""How fast the host runs Python right now, from a fixed reference routine.

The benchmark's host is shared: its speed drifts by up to 1.7x for minutes at
a time, on both CPUs, and drags every timing with it.  A run therefore times a
fixed routine of its own every ``EVERY_S`` seconds between the program's calls
and scales the program's times by how fast that routine ran:

    scaled time = measured time * nominal / (median routine time around it)

that is, the time the call would take on a host where the routine takes its
``nominal`` time.  "Around it" is the pass of the workload the call was
part of, since the host's speed changes within a run too.  A change to rainbownum moves the measured time and not the
routine, so it moves the scaled time by the same share.

The routines are plain Python that does not touch rainbownum.  Code of
different kinds slows by different shares when the host does, so each
workload is scaled by the routine that resembles its hot loop: ``dfs``, a
backtracking search over a fixed 3-uniform hypergraph (the search oracle),
and ``pairs``, an n^2 scan of pairs with dict lookups (``find_rainbow``).
"""

from __future__ import annotations

import random
import statistics
import time

EVERY_S = 0.2

_rng = random.Random(7)
_DFS_N, _DFS_R = 12, 4
_DFS_PAIRS = [[] for _ in range(_DFS_N)]  # edges of a fixed hypergraph, by last vertex
for _ in range(30):
    _a, _b, _c = sorted(_rng.sample(range(_DFS_N), 3))
    _DFS_PAIRS[_c].append((_a, _b))
_PAIRS_N = 150
_PAIRS_COLOR = [_rng.randrange(3) for _ in range(_PAIRS_N)]


def dfs() -> int:
    """Rainbow-free colourings of a fixed 3-uniform hypergraph on 12 vertices
    with at most 4 colours, counted by backtracking over restricted-growth
    strings."""
    n, r, by_last = _DFS_N, _DFS_R, _DFS_PAIRS
    colors = [0] * n
    found = 0

    def extend(i, used):
        nonlocal found
        if i == n:
            found += 1
            return
        for col in range(used + 1 if used < r else r):
            ok = True
            for a, b in by_last[i]:
                ca, cb = colors[a], colors[b]
                if ca != cb and ca != col and cb != col:
                    ok = False
                    break
            if ok:
                colors[i] = col
                extend(i + 1, used + 1 if col == used else used)

    extend(0, 0)
    return found


def pairs() -> int:
    """Rainbow solutions of x + 2y + 3z = 0 over Z_150 under a fixed
    colouring, found pair by pair."""
    n, color = _PAIRS_N, _PAIRS_COLOR
    by_value = {}
    for z in range(n):
        by_value.setdefault(3 * z % n, []).append(z)
    found = 0
    for x in range(n):
        cx = color[x]
        for y in range(n):
            cy = color[y]
            if cy != cx:
                for z in by_value.get((-x - 2 * y) % n, ()):
                    if color[z] != cx and color[z] != cy:
                        found += 1
    return found


# each routine's nominal time: about its median on the 2-core VM the
# benchmark was written on (Python 3.11.7)
ROUTINES = {"dfs": (dfs, 0.003), "pairs": (pairs, 0.004)}


class Meter:
    """Timings of one routine taken through a run, at most one per ``EVERY_S``."""

    def __init__(self, routine: str):
        self.routine, self.nominal = ROUTINES[routine]
        self.samples: list[float] = []
        self._last = float("-inf")

    def tick(self) -> None:
        """Time the routine if ``EVERY_S`` has gone by since the last time."""
        if time.perf_counter() - self._last < EVERY_S:
            return
        start = time.perf_counter()
        self.routine()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def scale(self, since: int = 0) -> float:
        """The nominal time over the median routine time from sample
        ``since`` on, reaching back to take at least three samples."""
        return self.nominal / statistics.median(self.samples[max(0, min(since, len(self.samples) - 3)):])
