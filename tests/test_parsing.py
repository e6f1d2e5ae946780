"""Expression grammar, error offsets, factored form, and print round-trips."""

import functools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tolerant import (Factorization, Polynomial, factorization_text,
                      parse_field, parse_polynomial, polynomial_text,
                      prime_field, rational_function_field, rationals)
from tolerant import parsing
from tolerant.cli import _expression_last, _fast_args
from tolerant.errors import FieldLiteralError, InputTooLargeError, ParseError
from tolerant.parsing import MAX_DEGREE, MAX_NESTING

from conftest import linear_product, load_bench_corpus, readme_examples


def test_expanded_example_coefficients(Q):
    f = parse_polynomial("(x-2)^2*(x-3)", Q)
    assert [c.value for c in f.coeffs] == [-12, 16, -7, 1]


def test_precedence_and_unary_minus(Q):
    assert parse_polynomial("-x^2+2*x", Q) == \
        parse_polynomial("2*x - x^2", Q)
    assert parse_polynomial("-(x-1)^2", Q) == \
        -(parse_polynomial("x-1", Q) ** 2)
    assert parse_polynomial("2*x^3", Q).degree == 3   # ^ binds before *
    assert parse_polynomial("--x", Q) == Polynomial.x(Q)


def test_rational_literals(Q):
    f = parse_polynomial("3/4*x + 1/2", Q)
    assert f.coefficient(1).value == Fraction(3, 4)
    assert f.coefficient(0).value == Fraction(1, 2)
    g = parse_polynomial("(x-2)^2*(x+1/4)", Q)
    assert g.leading_coefficient().is_one()
    assert g(Q.from_fraction(Fraction(-1, 4))).is_zero()


def test_division_only_by_constants(Q):
    f = parse_polynomial("(x^2-1)/2", Q)
    assert f.leading_coefficient().value == Fraction(1, 2)
    with pytest.raises(ParseError) as e:
        parse_polynomial("x/(x-1)", Q)
    assert "constant" in str(e.value)


def test_t_literals_only_over_fpt():
    F5T = rational_function_field(5)
    f = parse_polynomial("x^5 - t", F5T)
    assert f.degree == 5
    assert f.constant_term() == -F5T.t()
    with pytest.raises(FieldLiteralError) as e:
        parse_polynomial("x - t", rationals())
    assert e.value.position == 4
    g = parse_polynomial("t^2*x + t/(t+1)", F5T)
    assert g.coefficient(1) == F5T.t() ** 2
    assert g.coefficient(0) == F5T.t() / (F5T.t() + F5T.one())


def test_residue_literals_reduce_mod_p(F7):
    f = parse_polynomial("10*x + 9", F7)
    assert f.coefficient(1).value == 3
    assert f.coefficient(0).value == 2
    with pytest.raises(FieldLiteralError):
        parse_polynomial("x/7", F7)       # 1/7 = 1/0 mod 7


ERROR_OFFSETS = [
    ("x^^2", 2),
    ("", 0),
    ("x +", 3),
    ("(x-2", 4),
    ("x^-1", 2),
    ("x y", 2),
    ("1/0", 2),
    ("$", 0),
    ("x^2 + 3/(x+1)", 8),
    ("x + 2*x^3/0", 10),
    ("x + t^2", 4),
    # NUMBER is ASCII digits only: any other digit is an unexpected character
    ("x^²+1", 2),
    ("x^٣+1", 2),
    ("x + ٣", 4),
]


@pytest.mark.parametrize("text,offset", ERROR_OFFSETS)
def test_error_offsets(Q, text, offset):
    with pytest.raises(ParseError) as e:
        parse_polynomial(text, Q)
    assert e.value.position == offset
    assert f"offset {offset}" in str(e.value)
    literal = text in ("1/0", "x + 2*x^3/0", "x + t^2")
    assert e.value.code == ("FIELD_LITERAL_ERROR" if literal
                            else "SYNTAX_ERROR")


@pytest.mark.parametrize("text,offset", ERROR_OFFSETS)
def test_error_offsets_move_with_text_before_the_error(Q, text, offset):
    # offsets are found by scanning the text again once an error is raised:
    # text put before the error moves the offset by exactly its length, and
    # U+2212 counts as one character, as '-' does
    with pytest.raises(ParseError) as e:
        parse_polynomial(text, Q)
    prefixes = ["x^2 \u2212 1 + ", "\u2212", "(\u22122)*"]
    if text:            # only whitespace is the empty input, at offset 0
        prefixes.append(" \t\n ")
    for prefix in prefixes:
        with pytest.raises(ParseError) as moved:
            parse_polynomial(prefix + text, Q)
        assert moved.value.position == offset + len(prefix), prefix + text
        assert moved.value.code == e.value.code


# an unexpected character, and a '(' left open, about 10000 characters into a
# long sum of monomials
_SUM_10K = " + ".join(f"{k}*x^{k}" for k in range(1, 1250))


@pytest.mark.parametrize("text,offset,message", [
    (_SUM_10K + " + 3*x $ + x^2", len(_SUM_10K) + 7, "character '$'"),
    (_SUM_10K + " + (x - 1 + 2*x^3 x", len(_SUM_10K) + 18, "expected ')'"),
    (_SUM_10K + " + (x - 1 + 2*x^3 ", len(_SUM_10K) + 18, "expected ')'"),
    # an unexpected character fails ahead of an earlier error
    ("1/0 + " + _SUM_10K + " # x", len(_SUM_10K) + 7, "character '#'"),
])
def test_error_offsets_deep_in_long_input(Q, text, offset, message):
    assert len(_SUM_10K) > 10_000
    with pytest.raises(ParseError) as e:
        parse_polynomial(text, Q)
    assert e.value.code == "SYNTAX_ERROR"
    assert e.value.position == offset
    assert message in str(e.value)


@pytest.mark.parametrize("text,offset,message", [
    ("x*(x-1)", 0, "nonconstant factors must be parenthesized"),
    ("(x+1)/(x-1)", 6, "cannot divide by a nonconstant factor"),
    ("2*(x+1)^2 (x-1)", 10, "'*'-separated product"),
    ("-\u2212(x+1)/-(x-1)", 8, "cannot divide by a nonconstant factor"),
])
def test_factored_error_offsets(Q, text, offset, message):
    for prefix in ("", "\t\u22121 * "):
        with pytest.raises(ParseError) as e:
            parse_polynomial(prefix + text, Q, factored=True)
        assert e.value.code == "SYNTAX_ERROR"
        assert e.value.position == offset + len(prefix)
        assert message in str(e.value)


def test_deep_nesting_is_a_syntax_error(Q, capsys):
    # 200 parentheses or 1200 unary minuses would exhaust the interpreter's
    # stack; the parser refuses them with its fixed nesting limit
    from tolerant.cli import main
    assert main(["tol", "--", "(" * 200 + "x^2+1" + ")" * 200]) == 1
    assert capsys.readouterr().err.startswith("error[SYNTAX_ERROR]: nesting")
    with pytest.raises(ParseError) as info:
        parse_polynomial("-" * 1200 + "x", Q)
    assert info.value.code == "SYNTAX_ERROR"
    assert info.value.position == MAX_NESTING      # the first '-' too deep
    depth = MAX_NESTING
    assert parse_polynomial("(" * depth + "x" + ")" * depth, Q) == \
        parse_polynomial("x", Q)


def test_integer_literals_past_the_digit_limit(Q, F7):
    # int() refuses more than 4300 digits by default; the parser splits them
    digits = "7" + "0123456789" * 700
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        value = int(digits)
    finally:
        sys.set_int_max_str_digits(limit)
    assert parse_polynomial(f"{digits}*x - 1", Q).coefficient(1).value == value
    assert parse_polynomial(digits, F7).constant_term().value == value % 7
    assert parse_polynomial(f"x^{'0' * 5000}7", Q).degree == 7


# an oversized power deep inside a long sum of monomials
_LONG_SUM_HEAD = " + ".join(f"{k}*x^{k}" for k in range(1, 300)) + " + x^"
_LONG_SUM = (_LONG_SUM_HEAD + "100001 + "
             + " + ".join(f"{k}*x^{k}" for k in range(300, 400)))


@pytest.mark.parametrize("text,field,offset", [
    ("x^1000000000+1", "fp:7", 2),
    ("x^100001", "q", 2),
    ("(x^2+1)^50001", "q", 8),
    ("x^60000*x^50000", "q", 8),
    ("t^100001*x+1", "fpt:3", 2),
    ("(x+t^50001)^2", "fpt:3", 12),
    ("t^50000*t^50001", "fpt:3", 8),
    ("2^100001*x", "q", 2),
    ("x^" + "9" * 5000, "q", 2),
    pytest.param(_LONG_SUM, "q", len(_LONG_SUM_HEAD), id="long-sum"),
    ("(x+t^2)^50001", "fpt:3", 8),
])
def test_degree_cap_is_input_too_large(text, field, offset):
    with pytest.raises(InputTooLargeError) as info:
        parse_polynomial(text, parse_field(field))
    assert info.value.code == "INPUT_TOO_LARGE"
    assert info.value.position == offset


def test_degree_cap_in_factored_mode(F3T):
    # a group, and the whole product in x or in t, are capped
    for text in ("(x+1)^100001", "(t)^100001 * (x+1)", "(x^50001+t)^2",
                 "(x+1)^50000*(x+2)^50000*(x+t)",
                 "(x+t^50000)*(x+t^50000+1)*t"):
        with pytest.raises(InputTooLargeError):
            parse_polynomial(text, F3T, factored=True)
    for text in ("(x^50000+t)^2", "(x+1)^50000*(x+2)^49999*(x+t)"):
        assert parse_polynomial(text, F3T,
                                factored=True).degree() == MAX_DEGREE
    fac = parse_polynomial("(x+t^50000)*(x+t^49999+1)*t", F3T, factored=True)
    assert fac.unit == F3T.t() and fac.degree() == 2


def test_degree_at_the_cap_parses(Q, F3T):
    assert parse_polynomial(f"x^{MAX_DEGREE}+1", Q).degree == MAX_DEGREE
    assert parse_polynomial("x^50000*x^50000", Q).degree == MAX_DEGREE
    f = parse_polynomial(f"t^{MAX_DEGREE}*x^{MAX_DEGREE}", F3T)
    assert f.degree == MAX_DEGREE
    assert f.leading_coefficient() == F3T.t() ** MAX_DEGREE
    assert parse_polynomial("2^100000 + 0^0", Q).constant_term() == \
        Q.from_int(2 ** 100000 + 1)


def test_unknown_name_rejected(Q):
    with pytest.raises(ParseError):
        parse_polynomial("y + 1", Q)


def test_factored_parse_basic(Q):
    fac = parse_polynomial("(x-2)^2*(x-3)", Q, factored=True)
    assert isinstance(fac, Factorization)
    assert fac.unit.is_one()
    assert sorted(m for _, m in fac.factors) == [1, 2]
    assert fac.expand() == parse_polynomial("(x-2)^2*(x-3)", Q)


def test_factored_parse_units_and_merging(Q):
    fac = parse_polynomial("3/4*(x-1)^2*(x-1)", Q, factored=True)
    assert fac.unit.value == Fraction(3, 4)
    assert fac.factors == ((parse_polynomial("x-1", Q), 3),)
    neg = parse_polynomial("-(x-1)^2", Q, factored=True)
    assert neg.unit.value == -1
    nonmonic = parse_polynomial("(2*x-2)^2", Q, factored=True)
    assert nonmonic.unit.value == 4          # lc^m folded into the unit
    assert nonmonic.factors[0][0].is_monic()


def test_factored_parse_division_and_zero_power(Q):
    fac = parse_polynomial("(x-1)^2/2", Q, factored=True)
    assert fac.unit.value == Fraction(1, 2)
    dropped = parse_polynomial("5*(x-1)^0", Q, factored=True)
    assert dropped.factors == ()
    assert dropped.unit.value == 5


def test_factored_parse_rejects_bare_nonconstant(Q):
    with pytest.raises(ParseError) as e:
        parse_polynomial("x*(x-1)", Q, factored=True)
    assert "parenthesized" in str(e.value)


def test_factored_zero_unit_rejected(Q):
    with pytest.raises(FieldLiteralError):
        parse_polynomial("0*(x-1)", Q, factored=True)


def test_polynomial_text_forms(Q, F7):
    f = parse_polynomial("(x-2)^2*(x-3)", Q)
    assert polynomial_text(f) == "x^3 - 7*x^2 + 16*x - 12"
    assert polynomial_text(Polynomial.zero(Q)) == "0"
    assert polynomial_text(Polynomial.from_ints(Q, [0, -1])) == "-x"
    g = Polynomial.from_ints(F7, [6, 0, 1])
    assert polynomial_text(g) == "x^2 + 6"
    F5T = rational_function_field(5)
    h = Polynomial.x(F5T) ** 10 - Polynomial.constant(F5T, F5T.t())
    assert polynomial_text(h) == "x^10 + 4*t"


# The text of every F_p(t) value and every x-polynomial goes through one
# term printer; these strings pin its output.
@pytest.mark.parametrize("p,num,den,text", [
    (5, (0,), (1,), "0"),
    (5, (3,), (1,), "3"),
    (5, (4,), (1,), "4"),
    (5, (1,), (1,), "1"),
    (5, (0, 1), (1,), "t"),
    (5, (4, 0, 1), (1,), "t^2 + 4"),
    (5, (1, 4, 0, 4), (1,), "4*t^3 + 4*t + 1"),
    (5, (1,), (0, 1), "(1)/(t)"),
    (5, (4,), (0, 0, 1), "(4)/(t^2)"),
    (5, (0, 0, 1), (1, 1), "(t^2)/(t + 1)"),
    (5, (2, 0, 1), (3, 4, 1), "(t^2 + 2)/(t^2 + 4*t + 3)"),
    (3, (2, 1, 2), (1, 0, 0, 2), "(t^2 + 2*t + 1)/(t^3 + 2)"),
    (10007, (10006, 1), (1,), "t + 10006"),
    (10007, (0, 10006), (10006, 0, 1), "(10006*t)/(t^2 + 10006)"),
])
def test_rational_function_value_text(p, num, den, text):
    F = rational_function_field(p)
    assert F.from_t_fraction(num, den).canonical_text() == text


@pytest.mark.parametrize("field,expr,text", [
    ("q", "0", "0"),
    ("q", "7", "7"),
    ("q", "-x", "-x"),
    ("q", "-1/2*x^3 + x - 7/3", "-1/2*x^3 + x - 7/3"),
    ("q", "(x-2)^2*(x-3)", "x^3 - 7*x^2 + 16*x - 12"),
    ("q", "x^5 - x^4/3 + 1", "x^5 - 1/3*x^4 + 1"),
    ("q", "-x^2 - 1", "-x^2 - 1"),
    ("fp:7", "x^3 + 6*x + 1", "x^3 + 6*x + 1"),
    ("fp:7", "-x^4 + 3*x^2 - 1", "6*x^4 + 3*x^2 + 6"),
    ("fp:7", "x/3 + 5", "5*x + 5"),
    ("fpt:3", "x^2 + t*x + 1", "x^2 + t*x + 1"),
    ("fpt:3", "(t+1)*x^3 - t^2*x + 2", "(t + 1)*x^3 + 2*t^2*x + 2"),
    ("fpt:3", "x^2/t + (t^2+2)/(t+1)", "(1)/(t)*x^2 + t + 2"),
    ("fpt:3", "-x + t", "2*x + t"),
    ("fpt:3", "(2*t^2 + t)*x^4 + x^2 - 1/(t^2)",
     "(2*t^2 + t)*x^4 + x^2 + (2)/(t^2)"),
])
def test_polynomial_text_table(field, expr, text):
    assert polynomial_text(parse_polynomial(expr, parse_field(field))) == text


def test_round_trip_fuzz_all_fields():
    rng = random.Random(9)
    Q = rationals()
    F7 = prime_field(7)
    F5T = rational_function_field(5)

    def rand_fpt(field):
        num = tuple(rng.randrange(5) for _ in range(rng.randint(1, 3)))
        den = tuple(rng.randrange(5) for _ in range(rng.randint(1, 2)))
        if not any(den):
            den = (1,)
        return field.from_t_fraction(num, den)

    for _ in range(120):
        which = rng.randrange(3)
        if which == 0:
            coeffs = [Q.from_fraction(Fraction(rng.randint(-9, 9),
                                               rng.randint(1, 9)))
                      for _ in range(rng.randint(1, 7))]
            f = Polynomial(Q, coeffs)
            field = Q
        elif which == 1:
            f = Polynomial(F7, [F7.from_int(rng.randrange(7))
                                for _ in range(rng.randint(1, 7))])
            field = F7
        else:
            f = Polynomial(F5T, [rand_fpt(F5T)
                                 for _ in range(rng.randint(1, 5))])
            field = F5T
        assert parse_polynomial(polynomial_text(f), field) == f


def test_factorization_text_round_trip(Q):
    fac = parse_polynomial("3*(x-1)^2*(x^2+1)", Q, factored=True)
    text = factorization_text(fac)
    again = parse_polynomial(text, Q, factored=True)
    assert again == fac
    lone_unit = parse_polynomial("7", Q, factored=True)
    assert factorization_text(lone_unit) == "7"
    assert parse_polynomial(factorization_text(lone_unit), Q,
                            factored=True) == lone_unit


# -- the term-map parser against Polynomial arithmetic -----------------------


def _random_coefficient(field, rng):
    """(text, value) of a nonzero coefficient; over F_p(t) also powers of t
    and a quotient of t-polynomials."""
    if field.kind.value == "q":
        num, den = rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 9)
        return f"{num}/{den}", field.from_fraction(Fraction(num, den))
    if field.kind.value == "fp":
        n = rng.randint(1, 60)
        while n % field.p == 0:
            n += 1
        return str(n), field.from_int(n)
    t, k = field.t(), rng.randint(1, 12)
    return rng.choice([
        (f"t^{k}", t ** k),
        (f"3*t^{k}", t ** k * 3),
        ("(t^2+1)/(t+2)", (t * t + 1) / (t + 2)),
        ("(t+4)", t + 4),
        ("2", field.from_int(2)),
    ])


def _random_term(field, rng, degree):
    """(text, expected Polynomial) of one signed term c*x^degree, written in
    one of several forms, some behind a chain of unary minus."""
    text, c = _random_coefficient(field, rng)
    x_text = "" if degree == 0 else ("x" if degree == 1 else f"x^{degree}")
    if not x_text:
        body = text
    else:
        split = rng.randint(0, degree)
        body = rng.choice([
            f"{text}*{x_text}",
            f"{x_text}*{text}",
            f"{text}*x^{split}*x^{degree - split}",
            f"({text})*{x_text}",
        ])
    minuses = rng.choice([0, 0, 1, 2, 3])
    zero = field.ops.from_int(0)
    expected = Polynomial.from_raw(field, [zero] * degree + [c.value])
    if minuses:
        body = "-" * minuses + f"({body})"
        expected = expected * Polynomial.constant(field, (-1) ** minuses)
    return body, expected


def _sum(field, pieces):
    """The text and the expected value of a sum of (sign, text, value)
    pieces."""
    minus = Polynomial.constant(field, -1)
    text = "".join(f" {sign} {body}" for sign, body, _ in pieces)
    total = Polynomial.zero(field)
    for sign, _, value in pieces:
        total = total + (value if sign == "+" else value * minus)
    return text[3:] if text.startswith(" + ") else text[1:], total


@pytest.mark.parametrize("name", ["q", "fp:7", "fpt:5"])
def test_term_maps_match_polynomial_arithmetic(name):
    field = parse_field(name)
    rng = random.Random(f"term-maps/{name}")
    flip = {"+": "-", "-": "+"}
    for trial in range(40):
        top = rng.randint(0, 200)
        degrees = [rng.randint(0, top) for _ in range(rng.randint(1, 25))]
        degrees += rng.sample(degrees, len(degrees) // 3)   # repeated degrees
        pieces = [(rng.choice("+-"), *_random_term(field, rng, d))
                  for d in degrees]
        if trial % 4 == 1:
            # the leading term cancels
            sign, body, lead = rng.choice("+-"), *_random_term(field, rng,
                                                               top + 1)
            pieces += [(sign, body, lead), (flip[sign], body, lead)]
        if trial % 4 == 2:
            # every term cancels, down to 0
            pieces += [(flip[sign], body, value)
                       for sign, body, value in pieces]
        rng.shuffle(pieces)
        text, expected = _sum(field, pieces)
        got = parse_polynomial(text, field)
        assert got == expected, text
        if trial % 4 == 2:
            assert got == Polynomial.zero(field)
        elif trial % 4 == 1:
            assert got.degree <= top


class _Nested:
    """Random nested expressions over one field, as (tokens, expected
    Polynomial) pairs: parenthesized sums and their powers, chains of unary
    minus and of '^', x^k and t^k, products of one-term and of multi-term
    values, and division by nonzero constants."""

    def __init__(self, field, rng):
        self.field, self.rng = field, rng
        self.over_t = field.kind.value == "fpt"

    def const(self, n):
        return Polynomial.constant(self.field, self.field.from_int(n))

    def divisor(self):
        """A nonzero constant that may follow '/'."""
        rng, p = self.rng, self.field.p or 0
        choices = ["n", "-n"] + (["t^k", "(t+1)"] if self.over_t else [])
        kind = rng.choice(choices)
        n = rng.randint(1, 30)
        while p and n % p == 0:
            n += 1
        if kind == "n":
            return [str(n)], self.const(n)
        if kind == "-n":
            return ["-", str(n)], -self.const(n)
        t = Polynomial.constant(self.field, self.field.t())
        if kind == "t^k":
            k = rng.randint(0, 4)
            return ["t", "^", str(k)], t ** k
        return ["(", "t", "+", "1", ")"], t + self.const(1)

    def atom(self, depth):
        rng = self.rng
        kinds = ["n", "x", "x^k"] + (["t", "t^k"] if self.over_t else [])
        if depth:
            kinds += ["(expr)"] * 2
        kind = rng.choice(kinds)
        if kind == "n":
            n = rng.randint(0, 40)
            return [str(n)], self.const(n), True
        if kind != "(expr)":
            value = (Polynomial.x(self.field) if kind[0] == "x" else
                     Polynomial.constant(self.field, self.field.t()))
            if kind in ("x", "t"):
                return [kind], value, True
            k = rng.randint(0, 6)
            return [kind[0], "^", str(k)], value ** k, True
        tokens, value = self.expr(depth - 1)
        return ["("] + tokens + [")"], value, False

    def unary(self, depth):
        rng = self.rng
        minus = rng.choice([0, 0, 0, 1, 2, 3])
        tokens, value, small = self.atom(depth)
        for _ in range(rng.choice([0, 0, 1, 1, 2])):
            k = rng.randint(0, 3 if small else 2)
            tokens, value = tokens + ["^", str(k)], value ** k
        if minus % 2:
            value = -value
        return ["-"] * minus + tokens, value

    def term(self, depth):
        tokens, value = self.unary(depth)
        for _ in range(self.rng.choice([0, 1, 1, 2, 3])):
            if self.rng.random() < 0.25:
                more, divisor = self.divisor()
                inverse = divisor.constant_term().inverse()
                tokens, value = tokens + ["/"] + more, value * inverse
            else:
                more, factor = self.unary(depth)
                tokens, value = tokens + ["*"] + more, value * factor
        return tokens, value

    def expr(self, depth):
        tokens, value = self.term(depth)
        for _ in range(self.rng.randint(0, 3)):
            sign = self.rng.choice("+-")
            more, rhs = self.term(depth)
            tokens = tokens + [sign] + more
            value = value + rhs if sign == "+" else value - rhs
        return tokens, value

    def text(self, tokens):
        """The tokens joined by random whitespace (none included), with
        U+2212 for some of the '-'."""
        rng = self.rng
        out = []
        for tok in tokens:
            if tok == "-" and rng.random() < 0.3:
                tok = "\u2212"
            out += [rng.choice(["", "", " ", "  ", "\t", "\n", " \n\t"]), tok]
        return "".join(out)


@pytest.mark.parametrize("name", ["q", "fp:7", "fpt:5"])
def test_nested_expressions_match_polynomial_arithmetic(name):
    field = parse_field(name)
    gen = _Nested(field, random.Random(f"nested/{name}"))
    for _ in range(150):
        tokens, expected = gen.expr(3)
        text = gen.text(tokens)
        assert parse_polynomial(text, field) == expected, text


def test_cancelled_terms_leave_nothing_behind(Q, F3T):
    # a term that cancels no longer counts for the divisor check, the size
    # caps or the factored form's constant pieces
    assert parse_polynomial("x/(x^3 - x^3 + 2)", Q) == \
        parse_polynomial("1/2*x", Q)
    assert parse_polynomial("(x^60000 - x^60000 + 1)*x^50000", Q).degree \
        == 50000
    assert parse_polynomial("(x+t^60000-t^60000)^100000", F3T).degree \
        == MAX_DEGREE
    fac = parse_polynomial("(x - x + 3)*(x+1)", Q, factored=True)
    assert fac.unit.value == 3 and fac.degree() == 1
    assert parse_polynomial("(x - x)*(x+1) + 4", Q) == \
        Polynomial.from_ints(Q, [4])


def _counting(monkeypatch, field):
    """Counters on the field's u_ring.mul and on _rings.ring_pow."""
    from tolerant import _rings, poly
    calls = {"mul": 0, "pow": 0}
    ops = field.ops

    def mul(a, b, _mul=ops.u_ring.mul):
        calls["mul"] += 1
        return _mul(a, b)

    def ring_pow(x, e, R, _pow=_rings.ring_pow):
        calls["pow"] += 1
        return _pow(x, e, R)

    monkeypatch.setitem(vars(field), "ops",
                        ops._replace(u_ring=ops.u_ring._replace(mul=mul)))
    monkeypatch.setattr(_rings, "ring_pow", ring_pow)
    monkeypatch.setattr(poly, "ring_pow", ring_pow)
    return calls


def test_sums_of_monomials_take_no_product_or_power(monkeypatch):
    rng = random.Random(4)
    Q = rationals()
    calls = _counting(monkeypatch, Q)
    text = " + ".join(f"{rng.randint(-99, 99) or 1}/{rng.randint(1, 9)}*x^{k}"
                      for k in range(2000, -1, -1))
    assert parse_polynomial(text, Q).degree == 2000
    assert calls == {"mul": 0, "pow": 0}
    assert parse_polynomial("(x+1)*(x+2)", Q) == \
        Polynomial.from_ints(Q, [2, 3, 1])
    assert calls == {"mul": 1, "pow": 0}

    F3T = rational_function_field(3)
    calls = _counting(monkeypatch, F3T)
    text = " + ".join(f"2*t^{k}*x^{k} - x^{k + 1}*(t^2+1)/(t+2)"
                      for k in range(50, -1, -1))
    f = parse_polynomial(text, F3T)
    assert calls == {"mul": 0, "pow": 0}
    t = F3T.t()
    assert f.leading_coefficient() == -(t * t + 1) / (t + 2)
    assert f.coefficient(50) == t ** 50 * 2 - (t * t + 1) / (t + 2)


@pytest.mark.parametrize("name", ["q", "fp:7", "fp:10007"])
def test_expanded_text_matches_sympy(name):
    # sympy is an optional, test-only oracle: the coefficients of sympy.Poly
    # over QQ or GF(p) of the same text
    sympy = pytest.importorskip("sympy")
    field = parse_field(name)
    x = sympy.Symbol("x")
    rng = random.Random(f"sympy/{name}")
    for _ in range(30):
        terms = []
        for _ in range(rng.randint(1, 30)):
            k = rng.randint(0, 60)
            c = str(rng.randint(1, 10 ** rng.randint(1, 30)))
            if field.p is None and rng.random() < 0.5:
                c += f"/{rng.randint(1, 10 ** 6)}"
            x_text = rng.choice([f"x^{k}", f"x^{k}", f"x^{k // 2}*x^{k - k // 2}"])
            body = rng.choice([f"{c}*{x_text}", f"{x_text}*{c}"])
            terms.append((rng.choice("+-"), body))
        text = "".join(f" {sign} {body}" for sign, body in terms).lstrip(" +")
        got = parse_polynomial(text, field)
        expr = sympy.sympify(text.replace("^", "**"), locals={"x": x})
        if field.p is None:
            oracle = sympy.Poly(expr, x, domain=sympy.QQ)
            want = [Fraction(int(c.p), int(c.q)) for c in oracle.all_coeffs()]
        else:
            oracle = sympy.Poly(expr, x, modulus=field.p)
            want = [int(c) % field.p for c in oracle.all_coeffs()]
        assert got.raw == tuple(reversed(want)) or (not got and want == [0]), \
            text


# -- the monomial scan against the grammar ------------------------------------

SCAN_FIELDS = ("q", "fp:7", "fp:10007", "fpt:3", "fpt:5")


def _outcome(parse):
    """("ok", value) or ("error", class, code, message, offset)."""
    try:
        return "ok", parse()
    except ParseError as e:
        return "error", type(e), e.code, str(e), e.position


def _check_scan(text, name, factored):
    """Where the scan takes the text its value is the grammar's; on every
    text parse_polynomial gives the grammar's value or the grammar's error."""
    field = parse_field(name)
    want = _outcome(lambda: parsing._grammar(text, field, factored))
    scan = parsing._Scan(field)
    plain = text.replace("−", "-")
    got = scan.factored(plain) if factored else scan.polynomial(plain)
    if got is not None:
        assert want == ("ok", got), (name, text)
    assert _outcome(lambda: parse_polynomial(text, field, factored)) == want, \
        (name, text)
    return got is not None


@st.composite
def _rarely(draw, common, rare):
    """common, and one time in 24 rare: a text draws many literals and
    exponents, and most texts should still be ones that the scan takes."""
    return draw(rare if draw(st.integers(0, 23)) == 0 else common)


_space = st.sampled_from(["", "", " ", "  ", "\t", "\n", " \n\t"])
_sign = st.sampled_from(["+", "+", "-", "-", "−"])
# Literals are units mod 3, 5 and 7 but for the rare ones.
_literal = _rarely(
    st.sampled_from([1, 2, 4, 8, 11, 13, 16, 17, 19, 22, 23, 26, 29])
    .map(str),
    st.sampled_from(["0", "7", "14", "3", "5", "10007", "20014", "007",
                     "9" * 599, "9" * 600, "1" * 601, "3" * 650]))
# Exponents of x and t, whose powers are built directly: at the cap, past it,
# and past it only in a product; literals of 600 digits and more.
_exponent = _rarely(
    st.integers(0, 12).map(str),
    st.sampled_from([str(MAX_DEGREE), str(MAX_DEGREE + 1), "50000", "50001",
                     "60000", "0" * 600 + "3", "0" * 601 + "3"]))
# Exponents of anything else, which may be computed: small, or past the cap.
_small_exponent = _rarely(st.integers(1, 4).map(str),
                          st.sampled_from(["0", str(MAX_DEGREE + 1)]))


@functools.cache
@st.composite
def _power(draw, var):
    """var, or var^e."""
    if draw(st.booleans()):
        return var
    return f"{var}{draw(_space)}^{draw(_space)}{draw(_exponent)}"


_t_monomial = st.one_of(_literal, _power("t"), st.tuples(
    _literal, _power("t")).map(lambda ct: f"{ct[0]}*{ct[1]}"))


@st.composite
def _t_sum(draw):
    """A signed sum of c*t^e monomials."""
    parts = draw(st.lists(st.tuples(_sign, _t_monomial), min_size=1,
                          max_size=4))
    text = "".join(f"{draw(_space)}{sign}{draw(_space)}{body}"
                   for sign, body in parts)
    return text.lstrip().removeprefix("+")


_COEFFICIENT_KINDS = {
    over_t: _rarely(st.sampled_from(kinds), st.just("t"))
    for over_t, kinds in ((True, ["n", "n", "n/d", "(t-sum)", "t"]),
                          (False, ["n", "n/d"]))}


@functools.cache
@st.composite
def _coefficient(draw, over_t):
    """An integer, a quotient of two, and over F_p(t) (or rarely off it) a
    parenthesized t-sum or a power of t."""
    kind = draw(_COEFFICIENT_KINDS[over_t])
    if kind == "n":
        return draw(_literal)
    if kind == "n/d":
        return f"{draw(_literal)}{draw(_space)}/{draw(_space)}{draw(_literal)}"
    if kind == "t":
        return draw(_power("t"))
    return f"({draw(_t_sum())})"


@functools.cache
@st.composite
def _monomial(draw, over_t):
    shape = draw(st.sampled_from(["c", "c*x", "c*x", "x"]))
    if shape == "c":
        return draw(_coefficient(over_t))
    if shape == "x":
        return draw(_power("x"))
    return f"{draw(_coefficient(over_t))}{draw(_space)}*{draw(_space)}" \
        f"{draw(_power('x'))}"


_cancel = _rarely(st.just(False), st.just(True))


@functools.cache
@st.composite
def _flat_sum(draw, over_t):
    """A signed sum of monomials, with repeated monomials (and so repeated
    degrees), and at times one that cancels to 0."""
    monomials = draw(st.lists(_monomial(over_t), min_size=1, max_size=6))
    monomials += draw(st.lists(st.sampled_from(monomials), max_size=3))
    signs = draw(st.lists(_sign, min_size=len(monomials),
                          max_size=len(monomials)))
    if draw(_cancel):
        # every monomial once with each sign
        monomials, signs = monomials * 2, signs + [
            "+" if s != "+" else "-" for s in signs]
    text = "".join(f"{draw(_space)}{sign}{draw(_space)}{body}"
                   for sign, body in zip(signs, monomials))
    return text.lstrip().removeprefix("+") + draw(_space)


# Groups the grammar reads in factored mode but the scan does not take, or
# does only below the caps; each has leading coefficient 1.
_ODD_GROUPS = ["(x + t^50000)", "(x+t^60000)", "(x^50000 + 1)", "(3)",
               "(x - x + 2)", "t", "(x+1)^0", "((x+1))", "(x+1)^2^2"]
_piece_sign = _rarely(st.sampled_from(["", "", "-", "−"]), st.just("--"))
_separator = _rarely(st.just("*"), st.just("/"))


@functools.cache
def _piece_body(over_t):
    """A constant or a parenthesized flat sum, rarely an odd group."""
    group = _flat_sum(over_t).map(lambda s: f"({s})")
    return _rarely(st.one_of(_literal, group, group),
                   st.sampled_from(_ODD_GROUPS))


@functools.cache
@st.composite
def _factored(draw, over_t):
    """A '*'-product of signed constants and parenthesized sums, each with
    at times an exponent; rarely a '/' between them, or a piece that the
    scan does not take."""
    pieces = []
    for _ in range(draw(st.integers(1, 5))):
        body = draw(_piece_body(over_t))
        if draw(st.booleans()):
            # a group's power is not built, but its leading coefficient's is
            big = body in _ODD_GROUPS and draw(st.booleans())
            body += f"{draw(_space)}^{draw(_space)}" + draw(
                st.sampled_from(["50000", "50001", "100001"]) if big
                else _small_exponent)
        sign = draw(_piece_sign)
        pieces.append(sign + draw(_space) + body)
    text = pieces[0]
    for piece in pieces[1:]:
        sep = draw(_separator)
        text += f"{draw(_space)}{sep}{draw(_space)}{piece}"
    return text


# Tokens put into a text to make a near miss of the scan's shapes.
_FOREIGN = ["(", ")", "*", "^", "x", "t", "2", "+", "-", "/", "$", "y", " ",
            "^2", "*x", "(x+1)", "²"]


@st.composite
def _near_miss(draw, texts, edits=("insert", "delete", "wrap", "power")):
    """A text, or one time in two an edit of it."""
    text = draw(texts)
    edit = draw(st.sampled_from(["none"] * len(edits) + list(edits)))
    if edit == "none" or not text:
        return text
    at = draw(st.integers(0, len(text)))
    if edit == "insert":
        return text[:at] + draw(st.sampled_from(_FOREIGN)) + text[at:]
    if edit == "delete":
        return text[:at] + text[at + 1:]
    if edit == "wrap":
        return f"({text})"
    return f"{text}^{draw(_small_exponent)}"


@functools.cache
def _scan_texts(name):
    """(field name, text, factored mode): flat sums in either mode, and
    factored products, which are not wrapped: the grammar would build
    their groups' powers."""
    over_t = name.startswith("fpt")
    return st.tuples(st.just(name), st.one_of(
        st.tuples(_near_miss(_flat_sum(over_t)), st.just(False)),
        st.tuples(_near_miss(_flat_sum(over_t)), st.just(True)),
        st.tuples(_near_miss(_factored(over_t), ("insert", "delete")),
                  st.just(True))))


@settings(max_examples=1000, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(SCAN_FIELDS).flatmap(_scan_texts))
def test_scan_reads_as_the_grammar_does(case):
    name, (text, factored) = case
    _check_scan(text, name, factored)


SCAN_CASES = [
    ("q", "\t−3/4*x^2\n+ x − 1 ", False, True),
    ("q", "0*x^7 + x^0 + 2*x^2 - 2*x^2 + 0/5", False, True),
    ("fp:7", "x^3 + 3*x^3 + 3*x^3 - 7", False, True),      # cancels to 0
    ("q", "+x + 1", False, False),                         # no unary '+'
    ("fpt:3", "(+t)*x + 1", False, False),
    ("q", "x + +1", False, False),
    ("q", "1/0", False, False),
    ("fp:7", "3/14*x + 1", False, False),
    ("fp:10007", "1/20014 + x", False, False),
    ("fpt:3", "x + 2/3", False, False),
    ("q", f"x^{MAX_DEGREE} - 1", False, True),
    ("q", f"x^{MAX_DEGREE + 1} - 1", False, False),
    ("fpt:3", f"(t^{MAX_DEGREE} + 1)*x^{MAX_DEGREE}", False, True),
    ("fpt:5", f"x + (2*t^{MAX_DEGREE + 1})", False, False),
    ("fpt:5", f"x - t^{MAX_DEGREE + 1}", False, False),
    ("q", "1" * 600 + "*x + " + "2" * 600, False, True),
    ("q", "1" * 601 + "*x + 1", False, False),
    ("fp:7", f"x^{'0' * 601}3", False, False),
    ("fpt:3", "x^16 + (-t - 1)*x^15 + (t^2 + t)*x + (t^4 - t^2)", False, True),
    ("fpt:5", "x^10-t", False, True),
    ("q", "(x+1)*(x+2)^2*(x+1)^3", True, True),
    ("q", "-(x+1)*-(x+2)", True, True),
    ("q", "-2^2*(x+1)", True, True),
    ("fp:7", "3 * (x^2 + 5*x + 1)^2 * 2", True, True),
    ("q", "0*(x+1)", True, False),
    ("fp:7", "7*(x+1)", True, False),
    ("q", "(3)*(x+1)", True, False),
    ("q", "(x - x + 2)*(x+1)", True, False),
    ("fp:7", "(7*x + 1)*(x+1)", True, False),
    ("q", "(x+1)^0*(x+2)", True, False),
    ("q", "(x+1)*(x+2)*", True, False),
    ("fpt:3", "(x + t^50000)^2", True, True),
    ("fpt:3", "(x + t^60000)^2", True, False),
    ("fpt:3", "(x + t^40000)*(x^2 + t^60000)", True, True),
    ("fpt:3", "(x + t^40000)*(x^2 + t^60001)", True, False),
    ("fpt:3", "(x + 1)^50000*(x^2 + (t^2))^25000", True, True),
    ("fpt:3", "(x + 1)^50000*(x^2 + (t^3))^25001", True, False),
    ("q", "(x+1)^50000*(x+2)^50001", True, False),
]


@pytest.mark.parametrize("name,text,factored,taken", SCAN_CASES)
def test_scan_cases(name, text, factored, taken):
    assert _check_scan(text, name, factored) == taken


def _grammar_spy(monkeypatch):
    """A list that gets each text the grammar is entered on."""
    entered = []

    def spy(text, field, factored=False, _grammar=parsing._grammar):
        entered.append(text)
        return _grammar(text, field, factored)

    monkeypatch.setattr(parsing, "_grammar", spy)
    return entered


def test_gated_texts_take_the_scan(monkeypatch):
    corpus = load_bench_corpus(monkeypatch)
    cases = [(item.expr, parse_field(item.field.name), item.factored)
             for workload in ("report-mixed", "factored-highdeg")
             for seed in range(3)
             for item in corpus.build_corpus(workload, seed)]
    want = [parsing._grammar(*case) for case in cases]
    entered = _grammar_spy(monkeypatch)
    for case, value in zip(cases, want):
        assert parse_polynomial(*case) == value, case[0]
        assert not entered, case[0]


# README examples the scan leaves to the grammar: a product that is not
# factored input, and texts past MAX_DEGREE.
README_GRAMMAR_TEXTS = ("(x-2)^2*(x-3)", "x^1000000000+1",
                        "(x+1)^100000*(x+2)^100000")


def test_readme_examples_take_the_scan(monkeypatch):
    examples = [_fast_args(_expression_last(argv))
                for argv in readme_examples()]
    assert len(examples) >= 5
    for args in examples:
        field = parse_field(args.field)
        want = _outcome(lambda: parsing._grammar(args.expr, field,
                                                 args.factored))
        entered = _grammar_spy(monkeypatch)
        got = _outcome(lambda: parse_polynomial(args.expr, field,
                                                args.factored))
        monkeypatch.undo()
        assert got == want, args.expr
        assert bool(entered) == (args.expr in README_GRAMMAR_TEXTS), args.expr


# Near misses of the scan's shapes, each failing only at its end: a flat sum
# that ends in ')', a long run of spaces before a misplaced '*', and a
# factored product whose last group is not closed.
_NEAR_MISSES = [
    ("q", " + ".join(f"{k}*x^{k}" for k in range(20000)) + ")", False),
    ("q", "x +" + " " * 10 ** 5 + "*2", False),
    ("fpt:3", "(x+t)*" * 1999 + "(x+t", True),
]

_LINEAR_GUARD = """
import json, sys
from tolerant import parse_field, parse_polynomial
from tolerant.errors import ParseError
for name, text, factored in json.load(sys.stdin):
    try:
        parse_polynomial(text, parse_field(name), factored)
    except ParseError as e:
        print(e.code, e.position, e)
"""


def test_near_miss_long_texts_fail_in_linear_time():
    # a scan that backtracks or rescans could take minutes on these
    env = dict(os.environ,
               PYTHONPATH=str(Path(parsing.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _LINEAR_GUARD], env=env,
                          input=json.dumps(_NEAR_MISSES), capture_output=True,
                          text=True, timeout=5)
    assert proc.returncode == 0, proc.stderr
    want = []
    for name, text, factored in _NEAR_MISSES:
        with pytest.raises(ParseError) as e:
            parsing._grammar(text, parse_field(name), factored)
        want.append(f"{e.value.code} {e.value.position} {e.value}")
    assert proc.stdout.splitlines() == want
