"""Command-line front end.

One structured JSON object per input on stdout (``--pretty`` for indented
output); all values are canonical exact strings, never decimals.  Exit codes:
0 success, 1 input error, 2 self-check mismatch.

The five expression commands (tol, dupl, gdisc, disc, report) are read by a
hand parse of their fixed grammar: one expression, the exact option names
``--field V``, ``--mode V``, ``--output V``, ``--factored``,
``--assert-irreducible`` and ``--pretty`` in any order (a repeated option
keeps its last value), and an optional ``--`` right before the expression.
Every other argv goes to argparse unchanged: ``batch``, ``selfcheck``,
``-h``, ``--opt=V`` forms, abbreviated option names, an option value that
starts with '-', an unknown ``--mode``, a missing or second expression, a
``--`` not followed by exactly one token.  argparse is imported only then,
so its messages and exit codes are the CLI's.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from collections import Counter
from time import perf_counter
from types import SimpleNamespace
from typing import Optional

from .errors import TolerantError
from .field import FieldDescriptor, FieldElement, parse_field
from .invariants import (FactorFormula, InvariantReport, build_report, dupl,
                         gdisc, tol, tol_from_factorization, tol_irreducible,
                         tol_variant)
from .parsing import parse_polynomial, polynomial_text
from .resultant import discriminant
from .selfcheck import run_selfcheck

_VALUE_COMMANDS = ("tol", "dupl", "gdisc", "disc")
_EXPR_COMMANDS = _VALUE_COMMANDS + ("report",)

# The fixed grammar of the expression commands: option -> attribute.
_VALUE_OPTIONS = {"--field": "field", "--mode": "mode", "--output": "output"}
_FLAGS = {"--factored": "factored", "--assert-irreducible":
          "assert_irreducible", "--pretty": "pretty"}
_MODES = frozenset(m.value for m in FactorFormula)

# What argparse itself reads as a negative number, hence as a positional.
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


@functools.cache
def _build_parser():
    import argparse
    parser = argparse.ArgumentParser(
        prog="tolerant",
        description="Exact root-collision invariants of univariate "
                    "polynomials over Q, F_p, and F_p(t).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field(p):
        p.add_argument("--field", default="q", metavar="q|fp:P|fpt:P",
                       help="coefficient field (default q)")

    def add_output(p):
        p.add_argument("--output", metavar="PATH",
                       help="write the result to PATH instead of stdout")

    def add_expr_flags(p):
        p.add_argument("expr", help="polynomial expression")
        add_field(p)
        p.add_argument("--factored", action="store_true",
                       help="parse as unit * (g1)^m1 * ... and use the "
                            "factorization-based formulas")
        p.add_argument("--assert-irreducible", action="store_true",
                       help="treat the input as one irreducible factor; "
                            "report verifies the claim over fp:P and flags "
                            "it as trusted input elsewhere")
        p.add_argument("--mode", choices=[m.value for m in FactorFormula],
                       default=FactorFormula.CORRECTED.value,
                       help="which per-factor formula --factored evaluates")
        p.add_argument("--pretty", action="store_true",
                       help="indent JSON output")
        add_output(p)

    for name, blurb in (
            ("tol", "never-vanishing collision invariant"),
            ("dupl", "leading-coefficient-squared multiple of tol"),
            ("gdisc", "resultant-based signed variant of tol"),
            ("disc", "classical discriminant"),
            ("report", "all invariants as one JSON object")):
        p = sub.add_parser(name, help=blurb)
        add_expr_flags(p)

    p = sub.add_parser("batch", help="process one expression per line")
    p.add_argument("path", help="input file; '-' for stdin")
    add_field(p)
    p.add_argument("--pretty", action="store_true")
    add_output(p)

    p = sub.add_parser("selfcheck", help="randomized cross-method validation")
    add_field(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--max-degree", type=int, default=8)
    add_output(p)
    return parser


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _fail(exc: TolerantError) -> int:
    print(f"error[{exc.code}]: {exc}", file=sys.stderr)
    return 1


def report_to_dict(report: InvariantReport) -> dict:
    def value(v):
        return v.canonical_text() if isinstance(v, FieldElement) else v

    f = report.input
    return {
        "field": report.field.text(),
        "input": polynomial_text(f),
        "degree": None if f.is_zero() else f.degree,
        "tol": value(report.tol),
        "dupl": value(report.dupl),
        "gdisc": value(report.gdisc),
        "disc": value(report.disc),
        "separable": report.separable,
        "in_T": report.in_T,
        "homothety_exponent": report.homothety_exponent,
        "paths_agree": report.paths_agree,
        "trusted_input": report.trusted_input,
        "errors": [{"op": e.op, "code": e.code, "message": e.message}
                   for e in report.errors],
    }


def _value_command(args) -> int:
    field = parse_field(args.field)
    parsed = parse_polynomial(args.expr, field, factored=args.factored)
    # only disc and report read the expansion of a factored input
    if args.command == "disc":
        result = discriminant(parsed.expand() if args.factored else parsed)
    elif args.factored:
        base = tol_from_factorization(parsed, FactorFormula(args.mode))
        result = tol_variant(args.command, parsed.unit, parsed.degree(), base)
    elif args.assert_irreducible:
        base = tol_irreducible(parsed)
        result = tol_variant(args.command, parsed.leading_coefficient(),
                             parsed.degree, base)
    else:
        result = {"tol": tol, "dupl": dupl, "gdisc": gdisc}[args.command](
            parsed)
    _emit(result.canonical_text(), args.output)
    return 0


def _report_command(args) -> int:
    field = parse_field(args.field)
    parsed = parse_polynomial(args.expr, field, factored=args.factored)
    report = build_report(parsed.expand() if args.factored else parsed,
                          factorization=parsed if args.factored else None,
                          assert_irreducible=args.assert_irreducible)
    payload = report_to_dict(report)
    _emit(json.dumps(payload, indent=2 if args.pretty else None), args.output)
    return 0


def _batch_command(args) -> int:
    """One JSON object per input line on stdout, each indented under
    ``--pretty`` (a malformed line's object too), then one summary line on
    stderr: the number of objects, the count of each error code among their
    ``errors`` entries, and the total milliseconds."""
    start = perf_counter()
    default_field = parse_field(args.field)
    if args.path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    out = []
    codes = Counter()
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        field = default_field
        expr = line
        if line.startswith("@"):
            head, _, rest = line.partition(" ")
            try:
                field = parse_field(head[1:])
            except ValueError as exc:
                codes["FIELD_ERROR"] += 1
                out.append(_line_error(line, "FIELD_ERROR", str(exc), field))
                continue
            expr = rest.strip()
        try:
            f = parse_polynomial(expr, field)
        except TolerantError as exc:
            codes[exc.code] += 1
            out.append(_line_error(expr, exc.code, str(exc), field))
            continue
        report = build_report(f)
        codes.update(e.code for e in report.errors)
        out.append(report_to_dict(report))
    indent = 2 if args.pretty else None
    _emit("\n".join(json.dumps(obj, indent=indent) for obj in out),
          args.output)
    print(json.dumps({"lines": len(out), "errors": dict(sorted(codes.items())),
                      "ms": round((perf_counter() - start) * 1000, 3)}),
          file=sys.stderr)
    return 0


def _line_error(expr: str, code: str, message: str,
                field: FieldDescriptor) -> dict:
    return {
        "field": field.text(),
        "input": expr,
        "degree": None,
        "tol": None, "dupl": None, "gdisc": None, "disc": None,
        "separable": None, "in_T": None, "homothety_exponent": None,
        "paths_agree": None, "trusted_input": False,
        "errors": [{"op": "parse", "code": code, "message": message}],
    }


def _selfcheck_command(args) -> int:
    field = parse_field(args.field)
    summary = run_selfcheck(field, seed=args.seed, count=args.count,
                            max_degree=args.max_degree)
    _emit("\n".join(summary.lines()), args.output)
    return 0 if summary.ok else 2


def _expression_last(argv: list[str]) -> list[str]:
    """argparse takes every token that starts with '-' for an option, so an
    expression such as '-x^2+1' would be rejected.  -h is the only
    single-dash option, so such a token is moved behind '--'; argv that
    already holds '--' is left as it is."""
    if "--" in argv:
        return argv
    for i, arg in enumerate(argv):
        if (arg.startswith("-") and not arg.startswith("--")
                and arg not in ("-", "-h")
                and not _NEGATIVE_NUMBER.fullmatch(arg)):
            return argv[:i] + argv[i + 1:] + ["--", arg]
    return argv


def _fast_args(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse would build for an expression command, or
    None when argv leaves the fixed grammar (see the module docstring)."""
    if not argv or argv[0] not in _EXPR_COMMANDS:
        return None
    args = {"command": argv[0], "expr": None, "field": "q", "factored": False,
            "assert_irreducible": False, "mode": FactorFormula.CORRECTED.value,
            "pretty": False, "output": None}
    tokens = argv[1:]
    if "--" in tokens:
        cut = tokens.index("--")
        if cut != len(tokens) - 2:
            return None
        args["expr"] = tokens[-1]
        tokens = tokens[:cut]
    tokens = iter(tokens)
    for token in tokens:
        if token in _FLAGS:
            args[_FLAGS[token]] = True
        elif token in _VALUE_OPTIONS:
            value = next(tokens, "-")
            if value.startswith("-") or (token == "--mode"
                                         and value not in _MODES):
                return None
            args[_VALUE_OPTIONS[token]] = value
        elif token.startswith("-") or args["expr"] is not None:
            return None
        else:
            args["expr"] = token
    return None if args["expr"] is None else SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = _expression_last(sys.argv[1:] if argv is None else list(argv))
    args = _fast_args(argv) or _build_parser().parse_args(argv)
    try:
        if args.command in _VALUE_COMMANDS:
            return _value_command(args)
        if args.command == "report":
            return _report_command(args)
        if args.command == "batch":
            return _batch_command(args)
        return _selfcheck_command(args)
    except TolerantError as exc:
        return _fail(exc)
    except ValueError as exc:
        print(f"error[VALUE_ERROR]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # an unreadable batch input or an unwritable --output path
        print(f"error[IO_ERROR]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
