"""Command-line interface.

Exit codes: 0 success, 1 usage error or malformed input file, 2 no
covering closed form / no such coloring, 3 search cap exceeded, 4
formula-vs-oracle (or characterization-vs-search) mismatch, 130 Ctrl-C.
A mismatch is a discovered inconsistency and is always loud.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time

from . import constructions, formulas
from .characterize import thm3_rainbow_free, thm5_rainbow_free
from .coloring import find_rainbow, load_coloring, save_coloring
from .equation import Equation
from .errors import (
    BadModulusError,
    BadWitnessError,
    CapExceededError,
    NotApplicableError,
    NotCoveredError,
)
from .search import SearchConfig, exists_rainbow_free, rainbow_number_brute

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_COVERED = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4
EXIT_INTERRUPTED = 130


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    commands: dict[str, _Parser]  # the top-level parser's subparsers by name

    # argparse exits with status 2 on its own; route through _UsageError so
    # the exit-code protocol stays ours
    def error(self, message):
        raise _UsageError(message)


def _parse_coeffs(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(
            f"--coeffs wants exactly three comma-separated integers, got {text!r}"
        )
    try:
        a1, a2, a3 = (int(p) for p in parts)
    except ValueError:
        raise _UsageError(f"--coeffs entries must be integers, got {text!r}") from None
    return a1, a2, a3


def _config(args) -> SearchConfig:
    try:
        return SearchConfig(n_cap=args.n_cap)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _equation(args, n: int) -> Equation:
    a1, a2, a3 = _parse_coeffs(args.coeffs)
    if n < 2:
        raise _UsageError(f"--modulus must be >= 2, got {n}")
    return Equation(n, a1, a2, a3, args.rhs)


def _answers(eq: Equation, method: str, cfg: SearchConfig) -> dict:
    """Run what --method asks for: {method: (outcome, elapsed ms)}, the outcome
    an RbResult or the NotCoveredError or CapExceededError that refused."""
    answers = {}
    for name in ("formula", "brute") if method == "both" else (method,):
        t0 = time.perf_counter()
        try:
            if name == "formula":
                outcome = formulas.rb_formula(eq)
            else:
                outcome = rainbow_number_brute(eq.n, eq, cfg)
        except (NotCoveredError, CapExceededError) as exc:
            outcome = exc
        answers[name] = outcome, (time.perf_counter() - t0) * 1000
    return answers


def _verdict(answers: dict) -> str | None:
    """Formula against oracle; None unless both ran and the oracle answered."""
    if len(answers) < 2:
        return None
    formula, brute = answers["formula"][0], answers["brute"][0]
    if isinstance(formula, NotCoveredError):
        return "SKIPPED (formula not covered)"
    if isinstance(brute, CapExceededError):
        return None
    return "MATCH" if formula.value == brute.value else "MISMATCH"


def cmd_rb(args) -> int:
    eq = _equation(args, args.modulus)
    answers = _answers(eq, args.method, _config(args))
    brute = answers.get("brute", (None,))[0]
    if isinstance(brute, CapExceededError):
        raise brute
    verdict = _verdict(answers)

    if not args.json:
        print(f"rb(Z_{eq.n}, {eq})")
    for method, (outcome, ms) in answers.items():
        refused = isinstance(outcome, NotCoveredError)
        if args.json:
            print(json.dumps({
                "n": eq.n, "coefficients": list(eq.coeffs), "rhs": eq.b,
                "method": method, "rb_value": None if refused else outcome.value,
                "provenance": None if refused else outcome.provenance,
                "elapsed_ms": round(ms, 3),
                "status": "not-covered" if refused else "ok",
                "reason": outcome.reason if refused else None}))
        elif refused:
            print(f"{method}: not covered ({outcome.reason})")
        else:
            print(f"{method + ':':<8} rb = {outcome.value}   [{outcome.provenance}]")
    if verdict is not None and not args.json:
        print(f"verdict: {verdict}")

    if verdict == "MISMATCH":
        print("error: formula and oracle disagree", file=sys.stderr)
        return EXIT_MISMATCH
    if args.method == "formula" and isinstance(answers["formula"][0], NotCoveredError):
        return EXIT_NOT_COVERED
    return EXIT_OK


def cmd_witness(args) -> int:
    eq = _equation(args, args.modulus)
    try:
        coloring = exists_rainbow_free(eq.n, eq, args.num_colors, _config(args))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if coloring is None:
        print(
            f"no rainbow-free exact {args.num_colors}-coloring of Z_{eq.n} "
            f"exists for {eq}"
        )
        return EXIT_NOT_COVERED
    save_coloring(coloring, args.out)
    print(f"wrote rainbow-free exact {coloring.r}-coloring of Z_{eq.n} to {args.out}")
    return EXIT_OK


def _characterize(spec: str, coloring, eq: Equation) -> bool:
    """The rainbow-free verdict of the --characterize theorem on coloring."""
    one = 1 % eq.n
    if spec == "thm5":
        if eq.coeffs != (one, one, one):
            raise _UsageError("--characterize thm5 applies to coefficients 1,1,1")
        return thm5_rainbow_free(coloring, eq.b)
    if not spec.startswith("thm3:"):
        raise _UsageError(f"--characterize must be 'thm3:<c>' or 'thm5', got {spec!r}")
    try:
        c = int(spec[5:])
    except ValueError:
        raise _UsageError(
            f"--characterize thm3 wants an integer parameter, got {spec!r}"
        ) from None
    if eq.coeffs != (one, one, -c % eq.n) or eq.b != 0:
        raise _UsageError(
            f"--characterize thm3:{c} applies to coefficients 1,1,{-c} with --rhs 0"
        )
    return thm3_rainbow_free(coloring, c)


def cmd_check_coloring(args) -> int:
    try:
        coloring = load_coloring(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: bad coloring file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    eq = _equation(args, coloring.n)
    report = find_rainbow(coloring, eq)
    if report.rainbow_free:
        print(f"RainbowFree for {eq}")
    else:
        s = report.witness
        cols = tuple([coloring.assign[x] for x in s])
        print(f"rainbow solution {s} with colors {cols} for {eq}")

    if args.characterize is None:
        return EXIT_OK

    try:
        verdict = _characterize(args.characterize, coloring, eq)
    except (ValueError, NotApplicableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    agrees = verdict == report.rainbow_free
    print(f"characterization {args.characterize}: rainbow-free = {verdict}; "
          f"agrees with search = {agrees}")
    if not agrees:
        print("error: characterization and search disagree", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_construct(args) -> int:
    kind = args.kind
    try:
        if kind == "symmetric-interval":
            if args.p is None:
                raise _UsageError("--kind symmetric-interval needs --p")
            coloring = constructions.symmetric_interval_coloring(args.p)
        elif kind == "two-power":
            if args.alpha is None:
                raise _UsageError("--kind two-power needs --alpha")
            coloring = constructions.two_power_coloring(args.alpha)
        elif kind == "z9":
            coloring = constructions.z9_coloring()
        else:
            if args.cp_file is None or args.ct_file is None or args.coeffs is None:
                raise _UsageError(
                    "--kind product needs --cp-file, --ct-file and --coeffs"
                )
            try:
                cp = load_coloring(args.cp_file)
                ct = load_coloring(args.ct_file)
            except (OSError, ValueError) as exc:
                print(f"error: bad coloring file: {exc}", file=sys.stderr)
                return EXIT_USAGE
            a1, a2, a3 = _parse_coeffs(args.coeffs)
            eq = Equation(cp.n * ct.n, a1, a2, a3, 0)
            coloring = constructions.product_coloring(cp, ct, eq)
    except (BadModulusError, BadWitnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_COVERED
    if args.out is None:
        print(json.dumps(coloring.to_json_dict()))
    else:
        save_coloring(coloring, args.out)
        print(f"wrote exact {coloring.r}-coloring of Z_{coloring.n} to {args.out}")
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.modulus_min < 2 or args.modulus_min > args.modulus_max:
        raise _UsageError(
            f"need 2 <= --modulus-min <= --modulus-max, got "
            f"{args.modulus_min}..{args.modulus_max}"
        )
    a1, a2, a3 = _parse_coeffs(args.coeffs)
    cfg = _config(args)
    mismatch = False
    rows = 0
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n", "a1", "a2", "a3", "b", "rb_formula", "rb_brute",
             "provenance", "match", "elapsed_ms", "status"]
        )
        for n in range(args.modulus_min, args.modulus_max + 1):
            eq = Equation(n, a1, a2, a3, args.rhs)
            answers = _answers(eq, args.method, cfg)
            verdict = _verdict(answers)
            mismatch = mismatch or verdict == "MISMATCH"
            found = {m: out for m, (out, _) in answers.items()
                     if not isinstance(out, Exception)}
            formula, brute = found.get("formula"), found.get("brute")
            writer.writerow([
                n, eq.a1, eq.a2, eq.a3, eq.b,
                "" if formula is None else formula.value,
                "" if brute is None else brute.value,
                "" if formula is None else formula.provenance,
                {"MATCH": "true", "MISMATCH": "false"}.get(verdict, ""),
                round(sum(ms for _, ms in answers.values()), 3),
                "cap-exceeded" if "brute" in answers and brute is None else "ok",
            ])
            fh.flush()
            rows += 1
    print(f"wrote {rows} rows to {args.out}")
    if mismatch:
        print("error: formula and oracle disagree on some rows", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _add_common(parser, modulus=True):
    if modulus:
        parser.add_argument("--modulus", type=int, required=True,
                            help="the n of Z_n")
    parser.add_argument("--coeffs", required=True,
                        help="a1,a2,a3 (negatives allowed; reduced mod n)")
    parser.add_argument("--rhs", type=int, default=0, help="right side b")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="rainbownum",
        description="Rainbow numbers of Z_n for a1*x1 + a2*x2 + a3*x3 = b",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    parser.commands = sub.choices

    rb = sub.add_parser("rb", help="compute rb(Z_n, eq)")
    _add_common(rb)
    rb.add_argument("--method", choices=["formula", "brute", "both"], default="both")
    rb.add_argument("--json", action="store_true", help="one JSON object per method")
    rb.add_argument("--n-cap", type=int, default=SearchConfig.n_cap)
    rb.set_defaults(func=cmd_rb)

    wit = sub.add_parser("witness", help="search for a rainbow-free exact coloring")
    _add_common(wit)
    wit.add_argument("--num-colors", type=int, required=True)
    wit.add_argument("--out", required=True)
    wit.add_argument("--n-cap", type=int, default=SearchConfig.n_cap)
    wit.set_defaults(func=cmd_witness)

    chk = sub.add_parser("check-coloring", help="test a coloring file for rainbows")
    chk.add_argument("--file", required=True)
    _add_common(chk, modulus=False)
    chk.add_argument("--characterize", default=None, metavar="thm3:<c>|thm5")
    chk.set_defaults(func=cmd_check_coloring)

    con = sub.add_parser("construct", help="materialize a witness coloring")
    con.add_argument("--kind", required=True,
                     choices=["symmetric-interval", "two-power", "product", "z9"])
    con.add_argument("--p", type=int, default=None)
    con.add_argument("--alpha", type=int, default=None)
    con.add_argument("--cp-file", default=None)
    con.add_argument("--ct-file", default=None)
    con.add_argument("--coeffs", default=None)
    con.add_argument("--out", default=None,
                     help="output path; omit to print the JSON document")
    con.set_defaults(func=cmd_construct)

    scn = sub.add_parser("scan", help="formula vs oracle over a modulus range")
    scn.add_argument("--modulus-min", type=int, required=True)
    scn.add_argument("--modulus-max", type=int, required=True)
    _add_common(scn, modulus=False)
    scn.add_argument("--method", choices=["formula", "brute", "both"], default="both")
    scn.add_argument("--out", required=True)
    scn.add_argument("--n-cap", type=int, default=SearchConfig.n_cap)
    scn.set_defaults(func=cmd_scan)

    return parser


@functools.cache
def _parser() -> _Parser:
    # Built on the first main call, then shared: parse_args returns a fresh
    # Namespace each time, no default is mutable, and the cmd_* handlers
    # look up formulas, search and the rest as module globals per call.
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        # A command's arguments all belong to its subparser, which the full
        # parser would only call after classifying them once more itself;
        # anything else (no arguments, -h, an unknown command) goes through
        # the full parser, for its help text and messages.
        command = parser.commands.get(argv[0]) if argv else None
        if command is not None:
            args = command.parse_args(argv[1:])
        else:
            args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_help()
            return EXIT_USAGE
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        # input files are reported where they are read; this is an --out path
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    raise SystemExit(main())
