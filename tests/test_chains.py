"""The squarefree decomposition and gdisc's gcd chain on the numerator ring.

Both chains run on primitive associates in Z[x], F_p[x] or F_p[t][x] and
rebuild field values once at the end.  The field-level chains they replaced
are kept in conftest as oracles (``oracle_squarefree``, ``oracle_gdisc``);
a derandomized hypothesis test holds the two to the same Factorizations and
the same gdisc on eight fields, and a guard test shows that a report and
tol take no field-level division or gcd.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tolerant import (FieldKind, Polynomial, gdisc, inversion_criterion,
                      parse_field, parse_polynomial, squarefree_decomposition)
from tolerant.cli import main
from tolerant.factor import _squarefree_with_gcd
from tolerant.resultant import discriminant_and_gcd

from conftest import oracle_gdisc, oracle_squarefree

FIELDS = ("q", "fp:2", "fp:3", "fp:7", "fp:10007", "fpt:2", "fpt:3", "fpt:5")
MAX_DEGREE = 24
T_DENOMINATORS = ((1,), (0, 1), (1, 1), (2, 0, 1))      # 1, t, t+1, t^2+2


def coefficient(draw, F):
    """A small value of F; over Q with a denominator, over F_p(t) with a
    t-denominator."""
    if F.kind is FieldKind.RATIONALS:
        return F.from_fraction(Fraction(draw(st.integers(-5, 5)),
                                        draw(st.integers(1, 4))))
    if F.kind is FieldKind.PRIME_FIELD:
        return F.from_int(draw(st.integers(0, F.p - 1)))
    num = draw(st.lists(st.integers(0, F.p - 1), max_size=3))
    return F.from_t_fraction(num, draw(st.sampled_from(T_DENOMINATORS)))


@st.composite
def piece(draw, F):
    """A monic factor of degree 1-3, in characteristic p sometimes g(x^p) or
    g(x^(p^2)), or x itself (a zero constant term)."""
    if draw(st.integers(0, 7)) == 0:
        return Polynomial.x(F)
    degree = draw(st.integers(1, 3))
    coeffs = [coefficient(draw, F) for _ in range(degree)] + [F.one()]
    coeffs[0] = coeffs[0] or F.from_int(-1)
    g = Polynomial(F, coeffs)
    if F.p and draw(st.booleans()):
        g = g.substitute_power(F.p ** draw(st.integers(1, 2 if F.p < 5 else 1)))
    return g


@st.composite
def product(draw, name):
    """lc * prod g_i^m_i, multiplicities 1-3, p and p + 1, lc != 1 allowed,
    of degree 2 to MAX_DEGREE."""
    F = parse_field(name)
    lc = coefficient(draw, F)
    f = Polynomial.constant(F, lc if lc else F.from_int(3 if F.p != 3 else 2))
    multiplicities = [1, 2, 3] + ([F.p, F.p + 1] if F.p and F.p < 8 else [])
    for _ in range(draw(st.integers(1, 4))):
        g = draw(piece(F))
        m = draw(st.sampled_from(multiplicities))
        if f.degree + m * g.degree <= MAX_DEGREE:
            f = f * g ** m
    if f.degree < 2:
        f = f * Polynomial.x(F) ** 2
    return f


def boxed_inversion(fac):
    """The inversion criterion in boxed field arithmetic:
    prod sep_i(0)^(2 m_i (n - m_i p^(e_i))) == (prod sep_i(0)^(m_i))^(2n-2)."""
    field, n = fac.field, fac.degree()
    lhs = ratio = field.one()
    for _, sep, e, m in fac.parts:
        c0 = sep.constant_term()
        lhs = lhs * c0 ** (2 * m * (n - m * field.char_exponent ** e))
        ratio = ratio * c0 ** m
    return lhs == ratio ** (2 * n - 2)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(FIELDS).flatmap(product))
def test_numerator_chains_match_the_field_chains(f):
    """The numerator-ring squarefree decomposition, from its own gcd(f, f')
    and from the one that the PRS of (f, f') hands a report, equals the
    field-level one; gdisc equals the field-level chain's value; and the
    inversion test on the numerator ring gives the boxed criterion's
    answer."""
    fac = oracle_squarefree(f)
    assert squarefree_decomposition(f) == fac
    assert _squarefree_with_gcd(f, discriminant_and_gcd(f)[1]) == fac
    assert gdisc(f) == oracle_gdisc(f)
    if f.constant_term():
        assert inversion_criterion(fac) == boxed_inversion(fac)


CHAIN_CASES = [
    ("q", "(x-1/2)^2*(x+3)"), ("q", "7/3*(x^2-1/5)^3*(x+1)"),
    ("q", "x^3*(x-1)^2"), ("fp:2", "(x^2+x+1)^2*(x+1)^3"),
    ("fp:3", "(x-1)^3*(x+1)^4"), ("fp:7", "3*(x^7-2)*(x+1)^8"),
    ("fp:10007", "5*(x-2)^3*(x^2+1)^2"), ("fpt:2", "(x^2+t)^3*(x+t)^4"),
    ("fpt:3", "(x-1/t)^2*(x+t)"), ("fpt:3", "t*(x^9-t)^2*(x^3+t)"),
    ("fpt:3", "(x-1/(t+1))^4*x^2"), ("fpt:5", "(x^5-t)^6*(x-t)^2/t"),
]


@pytest.mark.parametrize("field,text", CHAIN_CASES)
def test_numerator_chains_on_fixed_cases(field, text):
    """As above, on t-denominators such as (x-1/t)^2*(x+t), multiplicities
    p and p + 1, parts g(x^(p^k)) and zero constant terms."""
    f = parse_polynomial(text, parse_field(field))
    fac = oracle_squarefree(f)
    assert squarefree_decomposition(f) == fac
    assert gdisc(f) == oracle_gdisc(f)
    if f.constant_term():
        assert inversion_criterion(fac) == boxed_inversion(fac)


@pytest.mark.parametrize("field,text", CHAIN_CASES)
def test_report_and_tol_take_no_field_division_or_gcd(
        capsys, monkeypatch, field, text):
    """With ``Polynomial.__divmod__`` and ``Polynomial.gcd`` refusing to
    run, report and tol on repeated-root inputs of each field print what
    they print without the patch: every gcd and division of their chains
    runs on the numerator ring."""
    def run(command):
        code = main([command, "--field", field, "--", text])
        return code, capsys.readouterr()

    expected = {command: run(command) for command in ("report", "tol")}
    assert '"separable": false' in expected["report"][1].out

    def refuse(*args):
        raise AssertionError("a field-level division or gcd ran")

    monkeypatch.setattr(Polynomial, "__divmod__", refuse)
    monkeypatch.setattr(Polynomial, "gcd", refuse)
    for command, outcome in expected.items():
        assert run(command) == outcome
