"""Dense polynomial arithmetic, Hasse calculus, and structure maps."""

import math
import random
from fractions import Fraction

import pytest

from tolerant import (FieldElement, FieldKind, Polynomial, RootMultiset,
                      poly_from_roots, prime_field, rational_function_field,
                      rationals)
from tolerant.errors import (ConstantInputError, DuplicateRootsError,
                             FieldMismatchError, UnsupportedFieldError,
                             ZeroConstantTermError, ZeroScaleError)

from conftest import linear_product, t_fraction_pool


def rand_poly(field, rng, max_deg, span=9):
    """Small integer coefficients; over F_p(t), values of t_fraction_pool,
    several with a t-denominator."""
    if field.kind is FieldKind.RATIONAL_FUNCTION_FIELD:
        pool = t_fraction_pool(field)
        coeffs = [rng.choice(pool) for _ in range(rng.randint(0, max_deg) + 1)]
    else:
        coeffs = [field.from_int(rng.randint(-span, span))
                  for _ in range(rng.randint(0, max_deg) + 1)]
    return Polynomial(field, coeffs)


def rand_scalar(field, rng, ints):
    """One of `ints` in the field; over F_p(t), a nonzero pool value."""
    if field.kind is FieldKind.RATIONAL_FUNCTION_FIELD:
        return rng.choice(t_fraction_pool(field)[1:])
    return field.from_int(rng.choice(ints))


def test_normalization_strips_trailing_zeros(Q):
    f = Polynomial(Q, [Q.from_int(1), Q.zero(), Q.zero()])
    assert f.degree == 0
    assert len(f.coeffs) == 1
    z = Polynomial(Q, [Q.zero()])
    assert z.is_zero() and not z
    assert z.degree == float("-inf")


def test_mul_matches_naive_convolution(Q):
    rng = random.Random(0)
    for _ in range(100):
        f, g = rand_poly(Q, rng, 6), rand_poly(Q, rng, 6)
        h = f * g
        fa = [c.value for c in f.coeffs]
        ga = [c.value for c in g.coeffs]
        conv = [Fraction(0)] * (len(fa) + len(ga) - 1 if fa and ga else 0)
        for i, a in enumerate(fa):
            for j, b in enumerate(ga):
                conv[i + j] += a * b
        while conv and not conv[-1]:
            conv.pop()
        assert [c.value for c in h.coeffs] == (conv or [])


def test_divmod_property(F7, F3T):
    rng = random.Random(1)
    for field, rounds in ((F7, 200), (F3T, 40)):
        for _ in range(rounds):
            g = rand_poly(field, rng, 5)
            if g.is_zero():
                continue
            f = rand_poly(field, rng, 8)
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.is_zero() or r.degree < g.degree


def test_exact_div_raises_on_remainder(Q):
    f = linear_product(Q, [(1, 1), (2, 1)])
    g = linear_product(Q, [(3, 1)])
    with pytest.raises(ArithmeticError):
        f.exact_div(g)
    assert f.exact_div(linear_product(Q, [(1, 1)])) == linear_product(Q, [(2, 1)])


def test_gcd_is_monic_and_divides(F7, F3T):
    rng = random.Random(2)
    for field, rounds in ((F7, 100), (F3T, 30)):
        for _ in range(rounds):
            f, g = rand_poly(field, rng, 6), rand_poly(field, rng, 6)
            d = f.gcd(g)
            if f.is_zero() and g.is_zero():
                assert d.is_zero()
                continue
            assert d.is_monic()
            if f:
                assert (f % d).is_zero()
            if g:
                assert (g % d).is_zero()


def test_gcd_known_common_factor(Q):
    common = linear_product(Q, [(5, 1)])
    f = common * linear_product(Q, [(1, 2)])
    g = common * linear_product(Q, [(2, 1)], lc=3)
    assert f.gcd(g) == common


def test_evaluation_horner_vs_powers(Q):
    rng = random.Random(3)
    for _ in range(50):
        f = rand_poly(Q, rng, 6)
        a = Q.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        naive = Q.zero()
        for i, c in enumerate(f.coeffs):
            naive = naive + c * a ** i
        assert f(a) == naive


def test_pow_square_multiply(F7):
    f = Polynomial.from_ints(F7, [1, 1])     # x + 1
    acc = Polynomial.one(F7)
    for e in range(8):
        assert f ** e == acc
        acc = acc * f


def test_taylor_shift_is_translation(Q, F7, F3T):
    rng = random.Random(4)
    for field, rounds in ((Q, 50), (F7, 50), (F3T, 15)):
        for _ in range(rounds):
            f = rand_poly(field, rng, 6)
            a = rand_scalar(field, rng, range(-6, 7))
            g = f.taylor_shift(a)
            for v in range(-3, 4):
                x0 = field.from_int(v)
                assert g(x0) == f(x0 + a)
            assert g.taylor_shift(-a) == f


def test_taylor_shift_group_law(Q, F7, F3T):
    rng = random.Random(14)
    for field, rounds in ((Q, 40), (F7, 40), (F3T, 15)):
        for _ in range(rounds):
            f = rand_poly(field, rng, 6)
            a = rand_scalar(field, rng, range(-6, 7))
            b = rand_scalar(field, rng, range(-6, 7))
            assert f.taylor_shift(a).taylor_shift(b) == f.taylor_shift(a + b)


def test_taylor_coefficients_are_hasse_values(Q, F7):
    # f(x + a) = sum_i D^i f(a) x^i, any characteristic
    rng = random.Random(5)
    for field in (Q, F7):
        for _ in range(50):
            f = rand_poly(field, rng, 7)
            a = field.from_int(rng.randint(-6, 6))
            shifted = f.taylor_shift(a)
            n = max(f.degree, 0) if f else 0
            for i in range(n + 1):
                assert shifted.coefficient(i) == f.hasse_derivative(i)(a)


def test_hasse_derivative_monomial_rule(Q):
    # D^r x^n = C(n, r) x^(n-r)
    for n in range(8):
        xn = Polynomial.x(Q) ** n
        for r in range(10):
            d = xn.hasse_derivative(r)
            if r > n:
                assert d.is_zero()
            else:
                expected = (Polynomial.x(Q) ** (n - r)).scale(
                    Q.from_int(math.comb(n, r)))
                assert d == expected


def test_hasse_derivative_char_p_survives_where_derivative_dies():
    F5T = rational_function_field(5)
    f = Polynomial.x(F5T) ** 5 - Polynomial.constant(F5T, F5T.t())
    assert f.derivative().is_zero()
    assert f.hasse_derivative(5) == Polynomial.one(F5T)


def test_hasse_derivative_composition(Q, F7, F3T):
    # D^r after D^s is C(r+s, r) D^(r+s); holds even where r! vanishes
    rng = random.Random(16)
    for field, rounds in ((Q, 25), (F7, 25), (F3T, 10)):
        for _ in range(rounds):
            f = rand_poly(field, rng, 8)
            for r in range(4):
                for s in range(4):
                    lhs = f.hasse_derivative(s).hasse_derivative(r)
                    rhs = f.hasse_derivative(r + s).scale(
                        field.from_int(math.comb(r + s, r)))
                    assert lhs == rhs


def test_derivative_product_rule(Q):
    rng = random.Random(6)
    for _ in range(30):
        f, g = rand_poly(Q, rng, 5), rand_poly(Q, rng, 5)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()


def test_reciprocal_reverses_coefficients(Q):
    f = Polynomial.from_ints(Q, [-12, 16, -7, 1])
    r = f.reciprocal()
    assert [c.value for c in r.coeffs] == [1, -7, 16, -12]
    assert r.reciprocal() == f
    with pytest.raises(ZeroConstantTermError):
        Polynomial.x(Q).reciprocal()


def test_homothety_scales_the_variable(Q):
    rng = random.Random(7)
    for _ in range(50):
        f = rand_poly(Q, rng, 6)
        a = Q.from_int(rng.choice([1, 2, 3, -1, -2]))
        g = f.homothety(a)
        for v in range(-3, 4):
            x0 = Q.from_int(v)
            assert g(x0) == f(a * x0)
    with pytest.raises(ZeroScaleError):
        Polynomial.x(Q).homothety(Q.zero())


def test_homothety_group_law(Q, F7, F3T):
    rng = random.Random(15)
    scales = [1, 2, 3, 5, -1, -2]           # units in Q and F_7
    for field, rounds in ((Q, 40), (F7, 40), (F3T, 15)):
        for _ in range(rounds):
            f = rand_poly(field, rng, 6)
            a = rand_scalar(field, rng, scales)
            b = rand_scalar(field, rng, scales)
            assert f.homothety(a).homothety(b) == f.homothety(a * b)


def test_is_separable(Q, F7):
    assert linear_product(Q, [(1, 1), (2, 1)]).is_separable()
    assert not linear_product(Q, [(1, 2)]).is_separable()
    F5T = rational_function_field(5)
    insep = Polynomial.x(F5T) ** 5 - Polynomial.constant(F5T, F5T.t())
    assert not insep.is_separable()
    with pytest.raises(ConstantInputError):
        Polynomial.one(Q).is_separable()


def test_substitute_power_and_desubstitute():
    F5T = rational_function_field(5)
    t = Polynomial.constant(F5T, F5T.t())
    g = Polynomial.x(F5T) ** 2 - t          # separable
    f = g.substitute_power(5)               # x^10 - t
    assert f.degree == 10
    sep, e = f.desubstitute()
    assert sep == g and e == 1
    # already separable: identity with e = 0
    sep2, e2 = g.desubstitute()
    assert sep2 == g and e2 == 0
    # char 0 never compresses
    Q = rationals()
    h = Polynomial.x(Q) ** 4 + Polynomial.one(Q)
    assert h.desubstitute() == (h, 0)


def test_desubstitute_iterates():
    F5T = rational_function_field(5)
    t = Polynomial.constant(F5T, F5T.t())
    g = Polynomial.x(F5T) - t
    f = g.substitute_power(25)              # x^25 - t, e = 2
    sep, e = f.desubstitute()
    assert sep == g and e == 2


def test_frobenius_twist_powers_coefficients():
    F5T = rational_function_field(5)
    t = F5T.t()
    f = Polynomial(F5T, [t, F5T.one(), t + F5T.one()])
    tw = f.frobenius_twist(1)
    assert tw.coefficient(0) == t ** 5
    assert tw.coefficient(1) == F5T.one()
    assert tw.coefficient(2) == (t + F5T.one()) ** 5
    assert f.frobenius_twist(0) == f
    with pytest.raises(UnsupportedFieldError):
        Polynomial.x(rationals()).frobenius_twist(1)


def test_field_mismatch_between_polynomials(Q, F7):
    with pytest.raises(FieldMismatchError):
        _ = Polynomial.x(Q) + Polynomial.x(F7)
    f = Polynomial.from_ints(Q, [1, 2, 1])
    c = F7.from_int(3)
    for scalar_op in (f.scale, f, f.taylor_shift, f.homothety):
        with pytest.raises(FieldMismatchError):
            scalar_op(c)


def test_arithmetic_runs_on_raw_values(Q, F7, F3T, monkeypatch):
    # Polynomial keeps the fields' raw values and calls field.ops on them:
    # the hot operations build no FieldElement and call none of its operators
    rng = random.Random(17)
    cases = []
    for field in (Q, F7, F3T):
        f, g = rand_poly(field, rng, 6), rand_poly(field, rng, 4)
        cases.append((f, g if g else Polynomial.x(field),
                      rand_scalar(field, rng, range(1, 6))))
    calls = []
    for name in ("__init__", "__add__", "__radd__", "__neg__", "__sub__",
                 "__rsub__", "__mul__", "__rmul__", "__truediv__",
                 "__rtruediv__", "__pow__", "__eq__", "__bool__", "inverse"):
        def counted(*args, _name=name, _method=getattr(FieldElement, name)):
            calls.append(_name)
            return _method(*args)
        monkeypatch.setattr(FieldElement, name, counted)
    for f, g, a in cases:
        f * g
        divmod(f, g)
        f.gcd(g)
        f.hasse_derivative(2)
        f.taylor_shift(a)
    assert calls == []


def test_root_multiset_validation(Q):
    r1, r2 = Q.from_int(1), Q.from_int(2)
    rm = RootMultiset(((r1, 2), (r2, 1)), Q.one())
    assert rm.total_degree() == 3
    f = poly_from_roots(rm, Q)
    assert f == linear_product(Q, [(1, 2), (2, 1)])
    with pytest.raises(DuplicateRootsError):
        RootMultiset(((r1, 1), (r1, 2)), Q.one())
    with pytest.raises(ZeroScaleError):
        RootMultiset(((r1, 1),), Q.zero())
    with pytest.raises(ValueError):
        RootMultiset(((r1, 0),), Q.one())


def test_int_coercion_in_scalar_positions(Q):
    f = Polynomial.from_ints(Q, [1, 2, 1])
    assert f(1) == Q.from_int(4)
    assert (2 * f).coefficient(0) == Q.from_int(2)
    assert (f * 3).coefficient(2) == Q.from_int(3)
