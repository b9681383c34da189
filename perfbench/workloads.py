"""The benchmark's three workloads: seeded inputs, the public calls that answer
them, and a check on every answer.

Every call goes through a public entry point and looks it up on its module at
call time (``search.rainbow_number_brute``, ``cli.main``, ...), so the traced
run can wrap those attributes from outside.  Nothing here touches a private
name of the program.

A seed changes the inputs but not the work.  In deep and scan each equation
is multiplied by a random unit and its coefficients are permuted, which
leaves its solution hypergraph, and so the search, unchanged; the moduli and
coefficient shapes are fixed per workload.  In verify the seed translates a
witness (see ``_verify``).  That keeps the spread between seeds down to
timing noise, so a run on any seed can be compared with a run on any other.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from typing import Callable

from rainbownum import Equation, SearchConfig, cli, coloring, constructions, formulas, search

import checkout

NAMES = ("deep", "scan", "verify")
TABLES = checkout.HERE / "tables.json"

# the hostspeed routine most like each workload's hot loop
ROUTINE = {"deep": "dfs", "scan": "dfs", "verify": "pairs"}

# deep: the oracle at n = 20-21, where the DFS at r = 4 to 6 does almost all the
# work; each instance takes about a second, so a run repeats each several times.
DEEP = [(21, (1, 1, -2)), (20, (1, 2, 4)), (21, (1, 1, 1)), (20, (1, 1, -2)), (20, (1, 1, 1))]
DEEP_CAP = 24

# scan: coefficient shapes with zeros, non-units, no unit at even or
# 3-divisible n, zero sums, and b = 0 and b != 0; each is scanned over SCAN_N.
SCAN_POOL = [
    (1, 1, 1, 0), (1, 1, 1, 1), (1, 1, -2, 0), (1, 1, -2, 1), (1, 2, 4, 0),
    (1, 2, 3, 0), (1, 2, 3, 5), (1, -1, 0, 0), (1, 1, 0, 1), (2, 2, 2, 0),
    (2, 2, 2, 1), (2, 4, 6, 0), (3, 3, 3, 0), (3, 6, 9, 3), (6, 6, 6, 0),
    (2, 3, 5, 0), (1, 3, 9, 0), (2, -2, 4, 0), (1, 5, -6, 2), (3, 5, 7, 1),
    (4, 4, -8, 0), (1, 1, 2, 0), (0, 2, 4, 0), (6, 10, 15, 1),
]
SCAN_N = range(2, 17)
# 2*3*5*7*11*13: a multiplier prime to it is a unit modulo every n in SCAN_N
SCAN_UNIT_MODULUS = 30030

# verify: closed forms and constructions far beyond the oracle.
VERIFY_TWO_POWER = 10
VERIFY_PRIMES = (997, 1009)
VERIFY_PRODUCT = (101, 4)  # Z_101 x Z_{2^4}
VERIFY_DRAW = 1905


@dataclass
class Instance:
    """One answer the workload asks for.

    ``call`` is the timed public call.  ``check`` runs untimed right after it
    and returns an error message, or None when the answer is right; it may
    also store the answer for a later instance of the same pass.
    """

    label: str
    eq: Equation
    call: Callable[[], object]
    check: Callable[[object], str | None]
    oracle: bool = False


@dataclass
class Workload:
    name: str
    seed: int
    instances: list[Instance]
    routine: str  # the hostspeed routine its times are scaled by


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(wl: Workload, deadline: float | None = None,
             between: Callable[[], None] | None = None) -> PassResult:
    """Answer every instance once, in order, timing each public call.

    With a ``deadline`` (a ``time.perf_counter()`` value) the pass stops
    before the first instance that would start after it, so its latencies
    cover a prefix of the instances.  ``between`` is called, untimed, before
    each instance.
    """
    out = PassResult()
    for inst in wl.instances:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if between is not None:
            between()
        start = time.perf_counter()
        try:
            answer = inst.call()
        except Exception as exc:  # an unexpected exception is a wrong answer
            out.latencies.append(time.perf_counter() - start)
            out.errors.append(f"{inst.label}: {type(exc).__name__}: {exc}")
            continue
        out.latencies.append(time.perf_counter() - start)
        try:
            error = inst.check(answer)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            out.errors.append(f"{inst.label}: {error}")
    return out


def _units(n: int) -> list[int]:
    return [u for u in range(1, n) if gcd(u, n) == 1]


def _disguise(rng: random.Random, n: int, coeffs, b: int) -> Equation:
    """A unit multiple of the equation with permuted coefficients: a new
    input with the same solution hypergraph."""
    u = rng.choice(_units(n))
    a1, a2, a3 = rng.sample(list(coeffs), 3)
    return Equation(n, u * a1, u * a2, u * a3, u * b)


def _quiet(fn, *args):
    """Call fn with stdout and stderr captured; return (result, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        result = fn(*args)
    return result, buf.getvalue()


def _third_entries(eq: Equation) -> dict:
    """x3 values by a3*x3 mod n, so solutions are found in O(n^2 + count)."""
    by_value = defaultdict(list)
    for z in range(eq.n):
        by_value[eq.a3 * z % eq.n].append(z)
    return by_value


def has_rainbow(assign, eq: Equation) -> bool:
    """Rainbow test that does not use the program."""
    n, a1, a2, b = eq.n, eq.a1, eq.a2, eq.b
    by_value = _third_entries(eq)
    for x in range(n):
        cx = assign[x]
        rest = b - a1 * x
        for y in range(n):
            cy = assign[y]
            if cy == cx:
                continue
            for z in by_value[(rest - a2 * y) % n]:
                cz = assign[z]
                if cz != cx and cz != cy:
                    return True
    return False


def load_tables() -> dict:
    with open(TABLES, encoding="utf-8") as fh:
        return json.load(fh)


def build(name: str, seed: int, work_dir: Path = checkout.WORK) -> Workload:
    """The workload's instances for this seed; same seed, same inputs."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    make = {"deep": _deep, "scan": _scan, "verify": _verify}[name]
    return Workload(name, seed, make(rng, work_dir), ROUTINE[name])


def _deep(rng, work_dir):
    expected = {(row["n"], tuple(row["coeffs"])): row["rb"] for row in load_tables()["deep"]}
    out = []
    for n, coeffs in DEEP:
        eq = _disguise(rng, n, coeffs, 0)
        want = expected[(n, coeffs)]

        def call(eq=eq):
            return search.rainbow_number_brute(eq.n, eq, SearchConfig(n_cap=DEEP_CAP))

        def check(res, eq=eq, want=want):
            if res.value != want:
                return f"rb = {res.value}, table says {want}"
            if res.value > 3:
                w = res.witness
                if w is None or w.n != eq.n or w.r != res.value - 1:
                    return "witness missing or without value - 1 colors"
                if not coloring.find_rainbow(w, eq).rainbow_free:
                    return "witness has a rainbow solution"
            return None

        out.append(Instance(f"rb {eq}", eq, call, check, oracle=True))
    return out


def _scan(rng, work_dir):
    table = load_tables()["scan"]
    if [tuple(c) for c in table["pool"]] != SCAN_POOL or table["n"] != list(SCAN_N):
        raise RuntimeError("tables.json does not match the scan pool; rerun build_tables.py")
    multipliers = [u for u in range(1, SCAN_UNIT_MODULUS) if gcd(u, SCAN_UNIT_MODULUS) == 1]
    out = []
    for k in rng.sample(range(len(SCAN_POOL)), len(SCAN_POOL)):
        *coeffs, b = SCAN_POOL[k]
        u = rng.choice(multipliers)
        a1, a2, a3 = (u * a for a in rng.sample(coeffs, 3))
        b *= u
        for n in SCAN_N:
            path = work_dir / f"scan-{k}-{n}.csv"
            argv = ["scan", f"--modulus-min={n}", f"--modulus-max={n}",
                    f"--coeffs={a1},{a2},{a3}", f"--rhs={b}", "--method=both",
                    f"--out={path}"]
            want = table["rb"][k][n - SCAN_N.start]

            def call(argv=argv):
                return _quiet(cli.main, argv)[0]

            def check(code, path=path, want=want):
                if code != 0:
                    return f"exit code {code}"
                with open(path, newline="", encoding="utf-8") as fh:
                    rows = list(csv.DictReader(fh))
                if len(rows) != 1 or rows[0]["status"] != "ok":
                    return f"unexpected CSV rows {rows}"
                row = rows[0]
                if row["rb_brute"] != str(want):
                    return f"rb_brute = {row['rb_brute']}, table says {want}"
                if row["rb_formula"] and (row["match"] != "true" or row["rb_formula"] != str(want)):
                    return f"formula {row['rb_formula']} (match = {row['match']})"
                return None

            eq = Equation(n, a1, a2, a3, b)
            out.append(Instance(f"scan {eq}", eq, call, check, oracle=True))
    return out


def _verify(rng, work_dir):
    # The coefficients are fixed: the time of find_rainbow depends on their
    # size (products past 2**30 take CPython's slower multi-digit path), so a
    # seeded draw would change the work.  The seed picks the translation k of
    # the Theorem 5 witness, a relabelling of Z_p that leaves the work as is.
    fixed = random.Random(VERIFY_DRAW)
    out = []
    verified = {}

    def rainbow_free(w, eq):
        key = (eq, w.assign)
        if key not in verified:
            verified[key] = not has_rainbow(w.assign, eq)
        return verified[key]

    def formula_instance(eq, want, path, stored=None):
        def call():
            return formulas.rb_formula(eq)

        def check(res):
            w = res.witness
            if res.value != want:
                return f"rb = {res.value}, theorem says {want}"
            if w is None or w.n != eq.n or w.r != want - 1:
                return "witness missing or without value - 1 colors"
            if not rainbow_free(w, eq):
                return "witness has a rainbow solution"
            coloring.save_coloring(stored(w) if stored else w, path)
            return None

        return Instance(f"rb {eq}", eq, call, check)

    def check_instance(eq, path, characterize=None):
        argv = ["check-coloring", f"--file={path}", f"--coeffs={eq.a1},{eq.a2},{eq.a3}",
                f"--rhs={eq.b}"]
        if characterize:
            argv.append(f"--characterize={characterize}")

        def call():
            return _quiet(cli.main, argv)

        def check(result):
            code, text = result
            if code != 0 or "RainbowFree for" not in text:
                return f"exit code {code}: {text.strip()}"
            if characterize and "rainbow-free = True; agrees with search = True" not in text:
                return f"characterization disagrees: {text.strip()}"
            return None

        return Instance(f"check-coloring {eq} {characterize or ''}".strip(), eq, call, check)

    # 2^10, odd coefficients, any b: rb = 12 (recursive witness)
    n = 2 ** VERIFY_TWO_POWER
    eq = Equation(n, *(fixed.randrange(1, n, 2) for _ in range(3)), fixed.randrange(n))
    path = work_dir / f"verify-{n}.json"
    out += [formula_instance(eq, VERIFY_TWO_POWER + 2, path), check_instance(eq, path)]

    # primes, equal coefficients, b = 0: rb = 4 (symmetric interval witness);
    # the first is translated to x -> c(x + k), rainbow-free for x1+x2+x3 = -3k
    p_thm5, p_thm3 = VERIFY_PRIMES
    k = rng.randrange(p_thm5)
    path5, path3 = work_dir / f"verify-{p_thm5}.json", work_dir / f"verify-{p_thm3}.json"
    out.append(formula_instance(Equation(p_thm5, *[fixed.randrange(1, p_thm5)] * 3, 0), 4,
                                path5, stored=lambda w: w.translate(k)))
    out.append(formula_instance(Equation(p_thm3, *[fixed.randrange(1, p_thm3)] * 3, 0), 4, path3))
    out.append(check_instance(Equation(p_thm5, 1, 1, 1, -3 * k), path5, "thm5"))
    out.append(check_instance(Equation(p_thm3, 1, 1, 1, 0), path3, "thm3:-1"))

    # product construction for Z_p x Z_{2^a}, equal unit coefficients, b = 0
    p, alpha = VERIFY_PRODUCT
    n = p * 2 ** alpha
    eq = Equation(n, *[fixed.choice(_units(n))] * 3, 0)
    path = work_dir / f"verify-{n}.json"

    def call():
        cp = constructions.symmetric_interval_coloring(p)
        ct = constructions.two_power_coloring(alpha)
        return constructions.product_coloring(cp, ct, eq)

    def check(w):
        if w.n != n or w.r != 3 + (alpha + 1) - 1:
            return f"product coloring has {w.r} colors"
        if not rainbow_free(w, eq):
            return "product coloring has a rainbow solution"
        coloring.save_coloring(w, path)
        return None

    out.append(Instance(f"product {eq}", eq, call, check))
    out.append(check_instance(eq, path))
    return out


def solution_edges(eq: Equation) -> frozenset:
    """The solution hypergraph, computed here rather than by the program."""
    n, a1, a2, b = eq.n, eq.a1, eq.a2, eq.b
    by_value = _third_entries(eq)
    return frozenset(
        tuple(sorted((x, y, z)))
        for x in range(n) for y in range(n) if x != y
        for z in by_value[(b - a1 * x - a2 * y) % n] if z != x and z != y
    )


def _affine_class(n: int, edges: frozenset):
    """Canonical form of an edge set under the maps x -> d*x + k, d a unit."""
    return min(
        tuple(sorted(tuple(sorted((d * x + k) % n for x in e)) for e in edges))
        for d in _units(n) for k in range(n)
    )


def input_properties(wl: Workload) -> dict:
    """Properties of the inputs that decide which later optimizations apply.

    repeat_share counts oracle calls whose hypergraph equals one met earlier
    in the pass; repeat_share_affine counts those equal up to x -> d*x + k.
    """
    insts = wl.instances
    oracle = [i.eq for i in insts if i.oracle]
    graphs = [solution_edges(eq) for eq in oracle]
    classes = {}
    for eq, g in zip(oracle, graphs):
        if (eq.n, g) not in classes:
            classes[(eq.n, g)] = _affine_class(eq.n, g) if g else ()
    seen_graphs = len({(eq.n, g) for eq, g in zip(oracle, graphs)})
    seen_classes = len({(n, c) for (n, _), c in classes.items()})
    share = (lambda k: k / len(oracle)) if oracle else (lambda k: 0.0)
    return {
        "instances": len(insts),
        "oracle_calls": len(oracle),
        "n_min": min(i.eq.n for i in insts),
        "n_max": max(i.eq.n for i in insts),
        "n_le8_share": sum(i.eq.n <= 8 for i in insts) / len(insts),
        "no_unit_share": sum(
            all(gcd(a, i.eq.n) != 1 for a in i.eq.coeffs) for i in insts
        ) / len(insts),
        "repeat_share": share(len(oracle) - seen_graphs),
        "repeat_share_affine": share(len(oracle) - seen_classes),
    }
