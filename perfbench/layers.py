"""The traced run: per-layer times and counts, measured from outside.

For one pass at a time, the traced run replaces module attributes of
rainbownum with timing wrappers (each module's own reference, so a call from
``cli`` into ``search`` is seen too) and puts the originals back afterwards.
A wrapper keeps a stack of open spans, so each span knows how much of its
time its children took; ``cli.overhead_ms`` is the CLI's self time.  Traced
and untraced passes alternate; ``trace.overhead`` compares the two.

Three measurements run after the timed passes, each on a pass of its own:

* DFS node counts.  ``sys.setprofile`` counts calls of the recursion nested in
  ``search._dfs_first``.  That pass is several times slower, so it yields
  counts only.  The counts repeat exactly across runs and seeds.
* ``search.parallel_speedup``: sequential over parallel search time of the
  deep workload's largest instance.
* repeat shares of the workload's oracle inputs (``workloads.input_properties``).

Private names (``_element_order``, ``_pairs_by_position``, ``_dfs_first``) and
the ``parallel``/``threads`` options may disappear in later versions.  What
cannot be found is reported as absent and its metrics are left out; nothing
here edits the program.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import Counter, defaultdict
from math import gcd
from types import CodeType

from rainbownum import Equation, NotCoveredError, SearchConfig
from rainbownum import cli, constructions, formulas, search

import workloads

R_BUCKETS = ("r3", "r4", "r5", "r6plus")
BUILDERS = ("symmetric_interval_coloring", "two_power_coloring", "product_coloring")
# find_rainbow as called by each layer; all of them add up to coloring.find_rainbow
FIND_RAINBOW_SPANS = {
    search: "search.reverify",
    formulas: "formulas.verify",
    constructions: "constructions.verify",
    cli: "cli.check",
}


def unit(metric: str) -> str:
    if metric.endswith("_ms") or ".ms" in metric or "_ms." in metric:
        return "ms"
    if "share" in metric or metric in ("search.parallel_speedup", "trace.overhead"):
        return "ratio"
    return "count"


def _bucket(r) -> str:
    if not isinstance(r, int):
        return "unknown"
    return f"r{r}" if r < 6 else "r6plus"


class Tracer:
    """Spans and counts for one traced pass."""

    def __init__(self):
        self.total = defaultdict(float)   # seconds inside each span name
        self.child = defaultdict(float)   # of which inside child spans
        self.calls = Counter()
        self.counts = Counter()
        self.installed: set[str] = set()
        self.absent: set[str] = set()
        self._open: list[float] = []       # child seconds of each open span
        self._oracle_rs: list[list] = []   # r values searched per open oracle call
        self._restore = []

    def wrap(self, module, attr, name, before=None, after=None):
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.add(f"{module.__name__}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            span = name
            if before is not None:
                span = before(args, kwargs) or name
            tracer._open.append(0.0)
            start = time.perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                dt = time.perf_counter() - start
                child = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1] += dt
                tracer.total[span] += dt
                tracer.child[span] += child
                tracer.calls[span] += 1
                if after is not None:
                    after(args, kwargs, result, exc)

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, fn))
        self.installed.add(name)

    def install(self):
        for module in (search, cli):
            self.wrap(module, "rainbow_number_brute", "search.oracle",
                      self._oracle_enter, self._oracle_exit)
        self.wrap(search, "build_hypergraph", "search.hypergraph")
        self.wrap(search, "_element_order", "search.order")
        self.wrap(search, "_pairs_by_position", "search.pairs")
        self.wrap(search, "_dfs_first", "search.dfs", self._dfs_enter)
        self.wrap(formulas, "rb_formula", "formulas", after=self._formula_exit)
        for module, span in FIND_RAINBOW_SPANS.items():
            self.wrap(module, "find_rainbow", span, after=self._scan_exit)
        for module in (constructions, formulas):
            for builder in BUILDERS:
                if module is constructions or hasattr(module, builder):
                    self.wrap(module, builder, f"constructions.{builder}")
        for check in ("thm3_rainbow_free", "thm5_rainbow_free"):
            self.wrap(cli, check, "characterize")
        self.wrap(cli, "main", "cli")

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _oracle_enter(self, args, kwargs):
        self._oracle_rs.append([])

    def _oracle_exit(self, args, kwargs, result, exc):
        rs = self._oracle_rs.pop()
        if exc is None:
            self.counts["wasted"] += sum(
                1 for r in rs if isinstance(r, int) and r > result.value
            )

    def _dfs_enter(self, args, kwargs):
        r = kwargs.get("r", args[1] if len(args) > 1 else None)
        if self._oracle_rs:
            self._oracle_rs[-1].append(r)
        return f"search.dfs.{_bucket(r)}"

    def _formula_exit(self, args, kwargs, result, exc):
        if isinstance(exc, NotCoveredError):
            self.counts["not_covered"] += 1

    def _scan_exit(self, args, kwargs, result, exc):
        # computed work of a scan that finds no rainbow: n^2 pairs when some
        # coefficient is a unit, n^3 triples otherwise
        if exc is None and result.rainbow_free:
            eq = args[1] if len(args) > 1 else kwargs["eq"]
            unit = any(gcd(a, eq.n) == 1 for a in eq.coeffs)
            self.counts["pairs_scanned"] += eq.n ** 2 if unit else eq.n ** 3

    def metrics(self) -> dict:
        m = {}
        ms = lambda span: self.total[span] * 1000  # noqa: E731
        self_ms = lambda span: (self.total[span] - self.child[span]) * 1000  # noqa: E731
        on = self.installed
        if "search.oracle" in on:
            m["search.oracle_calls"] = self.calls["search.oracle"]
            m["search.oracle_ms"] = ms("search.oracle")
            m["search.self_ms"] = self_ms("search.oracle")
        for key in ("hypergraph", "order", "pairs", "reverify"):
            span = f"search.{key}"
            if span in on:
                m[f"{span}_ms"] = ms(span)
                m[f"{span}_calls"] = self.calls[span]
        if "search.dfs" in on:
            spans = [s for s in self.total if s.startswith("search.dfs.")]
            m["search.dfs_ms"] = sum(ms(s) for s in spans)
            if "search.dfs.unknown" not in spans:
                for b in R_BUCKETS:
                    m[f"search.dfs_ms.{b}"] = ms(f"search.dfs.{b}")
                    m[f"search.dfs_calls.{b}"] = self.calls[f"search.dfs.{b}"]
                if "search.oracle" in on:
                    m["search.wasted_searches"] = self.counts["wasted"]
        if "formulas" in on:
            calls = self.calls["formulas"]
            m["formulas.ms"] = ms("formulas")
            m["formulas.calls"] = calls
            m["formulas.not_covered_share"] = self.counts["not_covered"] / calls if calls else 0.0
        if "formulas.verify" in on:
            m["formulas.verify_ms"] = ms("formulas.verify")
        builders = [f"constructions.{b}" for b in BUILDERS if f"constructions.{b}" in on]
        m["constructions.ms"] = sum(ms(s) for s in builders)
        for span in builders:
            m[f"constructions.ms.{span.split('.', 1)[1]}"] = ms(span)
        if "constructions.verify" in on:
            m["constructions.verify_ms"] = ms("constructions.verify")
        scans = [s for s in FIND_RAINBOW_SPANS.values() if s in on]
        m["coloring.find_rainbow_ms"] = sum(ms(s) for s in scans)
        m["coloring.find_rainbow_calls"] = sum(self.calls[s] for s in scans)
        m["coloring.pairs_scanned"] = self.counts["pairs_scanned"]
        if "characterize" in on:
            m["characterize.ms"] = ms("characterize")
            m["characterize.calls"] = self.calls["characterize"]
        if "cli" in on:
            m["cli.ms"] = ms("cli")
            m["cli.calls"] = self.calls["cli"]
            m["cli.overhead_ms"] = self_ms("cli")
        return m


def count_dfs_nodes(run):
    """Run ``run()`` with calls of the DFS recursion counted per color count.

    Returns (counts by r bucket, run's result), or (None, run's result) when
    the program has no ``_dfs_first`` with a nested ``rec``.
    """
    dfs = getattr(search, "_dfs_first", None)
    code = getattr(dfs, "__code__", None)
    rec = None
    if code is not None:
        rec = next((c for c in code.co_consts
                    if isinstance(c, CodeType) and c.co_name == "rec"), None)
    if rec is None:
        return None, run()
    nodes = Counter()
    bucket = ["unknown"]

    def profile(frame, event, arg):
        if event == "call":
            f_code = frame.f_code
            if f_code is rec:
                nodes[bucket[0]] += 1
            elif f_code is code:
                bucket[0] = _bucket(frame.f_locals.get("r"))

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return nodes, result


def parallel_speedup():
    """Sequential over parallel time of rb for the largest deep instance, or
    None when SearchConfig no longer takes the parallel options."""
    n, coeffs = workloads.DEEP[0]
    eq = Equation(n, *coeffs, 0)
    try:
        parallel = SearchConfig(n_cap=n, parallel=True, threads=len(os.sched_getaffinity(0)))
    except TypeError:
        return None
    times, values = [], []
    for cfg in (SearchConfig(n_cap=n), parallel):
        start = time.perf_counter()
        values.append(search.rainbow_number_brute(n, eq, cfg).value)
        times.append(time.perf_counter() - start)
    if values[0] != values[1]:
        raise RuntimeError(f"parallel search answered {values[1]}, sequential {values[0]}")
    return times[0] / times[1]


def traced_run(wl: workloads.Workload, seconds: float):
    """Per-layer metrics of the workload.

    Returns (metrics, passes, absent names, input properties); passes holds
    every PassResult, so their errors count like those of an untraced run.
    """
    untraced, traced, per_pass = [], [], []
    absent: set[str] = set()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(workloads.run_pass(wl))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(workloads.run_pass(wl))
        finally:
            tracer.uninstall()
        per_pass.append(tracer.metrics())
        absent |= tracer.absent

    keys = {k for m in per_pass for k in m}
    metrics = {k: statistics.median(m[k] for m in per_pass if k in m) for k in sorted(keys)}
    metrics["trace.overhead"] = (statistics.median(p.wall for p in traced)
                                 / statistics.median(p.wall for p in untraced) - 1)
    passes = untraced + traced

    if any(inst.oracle for inst in wl.instances):
        nodes, counted = count_dfs_nodes(lambda: workloads.run_pass(wl))
        passes.append(counted)
    else:
        nodes = Counter()  # no oracle call, so no DFS node
    if nodes is None:
        absent.add("search._dfs_first.<locals>.rec")
    else:
        metrics["search.dfs_nodes"] = sum(nodes.values())
        if "unknown" not in nodes:
            for b in R_BUCKETS:
                metrics[f"search.dfs_nodes.{b}"] = nodes[b]

    speedup = parallel_speedup()
    if speedup is None:
        absent.add("SearchConfig(parallel, threads)")
    else:
        metrics["search.parallel_speedup"] = speedup

    props = workloads.input_properties(wl)
    metrics["search.repeat_share"] = props["repeat_share"]
    metrics["search.repeat_share_affine"] = props["repeat_share_affine"]
    props["not_covered_share"] = metrics.get("formulas.not_covered_share")
    return metrics, passes, sorted(absent), props
