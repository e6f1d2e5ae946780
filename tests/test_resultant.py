"""Sylvester resultants and discriminants against root-product oracles."""

import random
from fractions import Fraction

import pytest

from tolerant import (Polynomial, UPolynomial, prime_field,
                      rational_function_field, rationals)
from tolerant.errors import ConstantInputError, ZeroInputError
from tolerant.resultant import discriminant, resultant_in_u, sylvester_resultant

from conftest import linear_product, t_fraction_pool


def oracle_res_fraction(froots, flc, g):
    """lc(f)^deg(g) * prod g(r)^m with plain Fraction arithmetic."""
    acc = Fraction(flc) ** max(g.degree, 0)
    for r, m in froots:
        gr = Fraction(0)
        for i, c in enumerate(g.coeffs):
            gr += c.value * Fraction(r) ** i
        acc *= gr ** m
    return acc


def test_resultant_matches_root_product_oracle(Q):
    rng = random.Random(0)
    for _ in range(100):
        roots = []
        seen = set()
        for _ in range(rng.randint(1, 3)):
            r = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            if r in seen:
                continue
            seen.add(r)
            roots.append((r, rng.randint(1, 2)))
        lc = rng.choice([1, 2, 3, -1])
        f = linear_product(Q, roots, lc=lc)
        g = Polynomial(Q, [Q.from_int(rng.randint(-5, 5))
                           for _ in range(rng.randint(1, 4))])
        if g.is_zero():
            continue
        expected = oracle_res_fraction(roots, lc, g)
        assert sylvester_resultant(f, g).value == expected
    # F_3(t): roots and coefficients with t-denominators, so the determinant
    # clears rows to F_3[t]; the oracle is lc^deg(g) * prod g(r)^m in boxed
    # field arithmetic
    F3T = rational_function_field(3)
    pool = t_fraction_pool(F3T)
    x = Polynomial.x(F3T)
    for _ in range(30):
        roots = {}
        for _ in range(rng.randint(1, 3)):
            roots[rng.choice(pool)] = rng.randint(1, 2)
        lc = rng.choice(pool[1:])
        f = Polynomial.constant(F3T, lc)
        for r, m in roots.items():
            f = f * (x - Polynomial.constant(F3T, r)) ** m
        g = Polynomial(F3T, [rng.choice(pool) for _ in range(rng.randint(1, 4))])
        if g.is_zero():
            continue
        expected = lc ** g.degree
        for r, m in roots.items():
            expected = expected * g(r) ** m
        assert sylvester_resultant(f, g) == expected


def test_resultant_multiplicative_in_second_argument(F7):
    rng = random.Random(1)
    for _ in range(60):
        def rnd(maxd):
            while True:
                h = Polynomial(F7, [F7.from_int(rng.randrange(7))
                                    for _ in range(rng.randint(1, maxd + 1))])
                if not h.is_zero():
                    return h
        f, g, h = rnd(4), rnd(3), rnd(3)
        assert sylvester_resultant(f, g * h) == \
            sylvester_resultant(f, g) * sylvester_resultant(f, h)


def test_resultant_swap_sign(F7):
    rng = random.Random(2)
    for _ in range(60):
        f = Polynomial(F7, [F7.from_int(rng.randrange(7)) for _ in range(4)])
        g = Polynomial(F7, [F7.from_int(rng.randrange(7)) for _ in range(3)])
        if f.is_zero() or g.is_zero():
            continue
        lhs = sylvester_resultant(f, g)
        rhs = sylvester_resultant(g, f)
        m, n = max(f.degree, 0), max(g.degree, 0)
        assert lhs == (rhs if (m * n) % 2 == 0 else -rhs)


def test_resultant_constant_conventions(Q):
    f = linear_product(Q, [(1, 1), (2, 1)])      # degree 2
    c = Polynomial.constant(Q, Q.from_int(3))
    assert sylvester_resultant(f, c).value == 9   # c^deg f
    assert sylvester_resultant(c, f).value == 9   # c^deg g
    assert sylvester_resultant(c, c).value == 1   # both degree 0
    with pytest.raises(ZeroInputError):
        sylvester_resultant(f, Polynomial.zero(Q))


def test_resultant_shared_root_vanishes(Q):
    f = linear_product(Q, [(1, 1), (2, 1)])
    g = linear_product(Q, [(2, 1), (5, 1)])
    assert not sylvester_resultant(f, g)


def test_resultant_known_small_cases(Q):
    x = Polynomial.x(Q)
    two = Polynomial.constant(Q, Q.from_int(2))
    three = Polynomial.constant(Q, Q.from_int(3))
    assert sylvester_resultant(x - two, x - three).value == -1
    f = x * x + Polynomial.one(Q)
    assert sylvester_resultant(f, f.derivative()).value == 4


def test_discriminant_quadratic_and_cubic_formulas(Q):
    rng = random.Random(3)
    for _ in range(80):
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        if a == 0:
            continue
        f = Polynomial.from_ints(Q, [c, b, a])
        assert discriminant(f).value == Fraction(b * b - 4 * a * c)
    for _ in range(80):
        p_, q_ = rng.randint(-9, 9), rng.randint(-9, 9)
        f = Polynomial.from_ints(Q, [q_, p_, 0, 1])
        assert discriminant(f).value == Fraction(-4 * p_ ** 3 - 27 * q_ ** 2)


def test_discriminant_vanishes_iff_repeated_root(Q):
    assert not discriminant(linear_product(Q, [(2, 2), (3, 1)]))
    assert discriminant(linear_product(Q, [(2, 1), (3, 1)]))
    with pytest.raises(ConstantInputError):
        discriminant(Polynomial.one(Q))


def test_discriminant_degree_one_is_one(Q):
    assert discriminant(linear_product(Q, [(4, 1)], lc=7)).is_one()


def test_discriminant_product_law(Q):
    # disc(fg) = disc(f) disc(g) res(f,g)^2 for coprime f, g
    rng = random.Random(9)
    done = 0
    while done < 40:
        f = Polynomial.from_ints(
            Q, [rng.randint(-6, 6) for _ in range(rng.randint(2, 5))])
        g = Polynomial.from_ints(
            Q, [rng.randint(-6, 6) for _ in range(rng.randint(2, 5))])
        if f.degree < 1 or g.degree < 1 or f.gcd(g).degree > 0:
            continue
        lhs = discriminant(f * g)
        rhs = discriminant(f) * discriminant(g) * sylvester_resultant(f, g) ** 2
        assert lhs == rhs
        done += 1


def test_discriminant_of_degree_200_binomial(Q):
    # disc(x^n + a) = (-1)^C(n,2) * n^n * a^(n-1), with a non-integer a
    n, a = 200, Fraction(-3, 2)
    f = Polynomial(Q, [Q.from_fraction(a)] + [Q.zero()] * (n - 1) + [Q.one()])
    sign = -1 if n * (n - 1) // 2 % 2 else 1
    assert discriminant(f).value == sign * n ** n * a ** (n - 1)


def test_discriminant_zero_derivative_char_p():
    from tolerant import rational_function_field
    F5T = rational_function_field(5)
    f = Polynomial.x(F5T) ** 5 - Polynomial.constant(F5T, F5T.t())
    assert f.derivative().is_zero()
    assert discriminant(f).is_zero()


def test_upolynomial_accessors(Q):
    x = Polynomial.x(Q)
    one = Polynomial.one(Q)
    G = UPolynomial(Q, [x * x, one, x])       # x^2 + u + u^2 x
    assert G.u_degree == 2
    assert G.x_degree == 2
    assert G.x_coefficient(0) == (Q.zero(), Q.one())     # constant-in-x: u
    assert G.x_coefficient(1) == (Q.zero(), Q.zero(), Q.one())
    assert G.x_coefficient(2) == (Q.one(),)
    u0 = Q.from_int(3)
    assert G.evaluate(u0) == x * x + x.scale(Q.from_int(9)) + \
        Polynomial.constant(Q, Q.from_int(3))


def test_resultant_in_u_matches_specialization(Q, F7):
    # res_x(f, G)(u0) = res_x(f, G(u0)) whenever specializing keeps deg_x;
    # over F_3(t) the coefficients carry t-denominators such as 1/(t+1)
    rng = random.Random(4)
    F3T = rational_function_field(3)
    pool = t_fraction_pool(F3T)
    with_denominator = 0
    for field, rounds in ((Q, 40), (F7, 40), (F3T, 15)):
        if field is F3T:
            def coeff():
                return rng.choice(pool)
            u_values = (F3T.one(), F3T.from_int(2), F3T.t())
        else:
            def coeff():
                return field.from_int(rng.randint(-6, 6))
            u_values = tuple(field.from_int(v) for v in (1, 2, 3))
        for _ in range(rounds):
            f = Polynomial(field, [coeff() for _ in range(rng.randint(3, 5))])
            if f.is_zero() or f.degree < 2:
                continue
            n = f.degree
            G = UPolynomial(field, [f.hasse_derivative(i)
                                    for i in range(1, n + 1)])
            R = resultant_in_u(f, G)
            for u0 in u_values:
                spec = G.evaluate(u0)
                if spec.degree != G.x_degree:
                    continue
                assert R(u0) == sylvester_resultant(f, spec)
                if field is F3T and any(c.value[1] != (1,) for c in f.coeffs):
                    with_denominator += 1
    assert with_denominator > 0


def test_resultant_in_u_constant_in_x_shortcut():
    from tolerant import rational_function_field
    F5T = rational_function_field(5)
    f = Polynomial.x(F5T) ** 5 - Polynomial.constant(F5T, F5T.t())
    G = UPolynomial(F5T, [f.hasse_derivative(i) for i in range(1, 6)])
    assert G.x_degree == 0                    # every x-derivative collapses
    R = resultant_in_u(f, G)
    # G = u^4, so res = (u^4)^5
    assert R == Polynomial.x(F5T) ** 20
