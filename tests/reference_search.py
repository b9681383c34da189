"""Plain reference versions of the oracle's search helpers.

These are the straightforward implementations that ``rainbownum.search``
replaced with faster ones.  They are kept here, outside the package, so the
tests can check the fast versions against them: same element order, same
first coloring.
"""

from __future__ import annotations


def element_order(n, edges):
    """Greedy assignment order: repeatedly pick the element that completes
    the most edges inside the prefix (ties: higher degree, then smaller
    value), recounting every candidate's completed edges at every step."""
    incident: list[list] = [[] for _ in range(n)]
    for e in edges:
        for x in e:
            incident[x].append(e)
    order: list[int] = []
    in_prefix = [False] * n
    for _ in range(n):
        best, best_key = -1, None
        for x in range(n):
            if in_prefix[x]:
                continue
            completed = sum(
                all(y == x or in_prefix[y] for y in e) for e in incident[x]
            )
            key = (completed, len(incident[x]), -x)
            if best_key is None or key > best_key:
                best, best_key = x, key
        order.append(best)
        in_prefix[best] = True
    return order


def dfs_first(n, r, by_pos):
    """First valid coloring (colors by position), or None.

    Restricted-growth enumeration; a color is rejected only when it
    tricolors an edge completed at its position, and a branch is cut only
    when fewer positions remain than colors still to open.
    """
    colors = [0] * n

    def rec(i: int, used: int) -> bool:
        if i == n:
            return used == r
        if used + (n - i) < r:
            return False
        cap = used + 1 if used < r else r
        pairs = by_pos[i]
        for col in range(cap):
            ok = True
            for ju, jv in pairs:
                cu, cv = colors[ju], colors[jv]
                if cu != cv and cu != col and cv != col:
                    ok = False
                    break
            if ok:
                colors[i] = col
                if rec(i + 1, used + 1 if col == used else used):
                    return True
        return False

    return colors if rec(0, 0) else None
