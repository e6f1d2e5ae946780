"""Expression grammar, error offsets, factored form, and print round-trips."""

import random
from fractions import Fraction

import pytest

from tolerant import (Factorization, Polynomial, factorization_text,
                      parse_polynomial, polynomial_text, prime_field,
                      rational_function_field, rationals)
from tolerant.errors import FieldLiteralError, ParseError
from tolerant.parsing import MAX_NESTING

from conftest import linear_product


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


@pytest.mark.parametrize("text,offset", [
    ("x^^2", 2),
    ("", 0),
    ("x +", 3),
    ("(x-2", 4),
    ("x^-1", 2),
    ("x y", 2),
    ("1/0", 2),
    ("$", 0),
])
def test_error_offsets(Q, text, offset):
    with pytest.raises(ParseError) as e:
        parse_polynomial(text, Q)
    assert e.value.position == offset
    assert f"offset {offset}" in str(e.value)


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
