"""Command-line front end.

One structured JSON object per input on stdout (``--pretty`` for indented
output); all values are canonical exact strings, never decimals.  Exit codes:
0 success, 1 input error, 2 self-check mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Optional

from .errors import TolerantError
from .factor import Factorization
from .field import FieldDescriptor, FieldElement, parse_field
from .invariants import (FactorFormula, InvariantReport, build_report, dupl,
                         gdisc, tol, tol_from_factorization, tol_irreducible,
                         tol_variant)
from .parsing import parse_polynomial, polynomial_text
from .resultant import discriminant
from .selfcheck import run_selfcheck

_VALUE_COMMANDS = ("tol", "dupl", "gdisc", "disc")

# What argparse itself reads as a negative number, hence as a positional.
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
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
                       help="treat the input (or each supplied factor) as "
                            "irreducible; unverifiable assertions are "
                            "flagged as trusted input")
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


def _parse_input(args, field: FieldDescriptor):
    """(polynomial, factorization or None) for an expression command."""
    parsed = parse_polynomial(args.expr, field, factored=args.factored)
    if isinstance(parsed, Factorization):
        return parsed.expand(), parsed
    return parsed, None


def _value_command(args) -> int:
    field = parse_field(args.field)
    mode = FactorFormula(args.mode)
    f, fac = _parse_input(args, field)
    if args.command == "disc":
        result = discriminant(f)
    elif fac is not None:
        base = tol_from_factorization(fac, mode)
        result = tol_variant(args.command, f, base)
    elif args.assert_irreducible:
        base = tol_irreducible(f)
        result = tol_variant(args.command, f, base)
    else:
        result = {"tol": tol, "dupl": dupl, "gdisc": gdisc}[args.command](f)
    _emit(result.canonical_text(), args.output)
    return 0


def _report_command(args) -> int:
    field = parse_field(args.field)
    f, fac = _parse_input(args, field)
    report = build_report(f, factorization=fac,
                          assert_irreducible=args.assert_irreducible)
    payload = report_to_dict(report)
    _emit(json.dumps(payload, indent=2 if args.pretty else None), args.output)
    return 0


def _batch_command(args) -> int:
    default_field = parse_field(args.field)
    if args.path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    out = []
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
                out.append(json.dumps(_line_error(line, "FIELD_ERROR",
                                                  str(exc), field)))
                continue
            expr = rest.strip()
        try:
            f = parse_polynomial(expr, field)
        except TolerantError as exc:
            out.append(json.dumps(_line_error(expr, exc.code, str(exc),
                                              field)))
            continue
        report = build_report(f)
        out.append(json.dumps(report_to_dict(report),
                              indent=2 if args.pretty else None))
    _emit("\n".join(out) if out else "", args.output)
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


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_expression_last(argv))
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
