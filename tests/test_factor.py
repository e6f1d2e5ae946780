"""Squarefree decomposition, prime-field factorization, multiplicity profiles."""

import random
from fractions import Fraction

import pytest

from tolerant import (Factorization, FieldKind, Polynomial,
                      factor_prime_field, gdisc, is_irreducible_prime_field,
                      multiplicity_profile, parse_field, prime_field,
                      rational_function_field, rationals,
                      squarefree_decomposition, tol)
from tolerant.invariants import tol_variant
from tolerant.errors import (ConstantInputError, InvalidFactorizationError,
                             UnsupportedFieldError)

from conftest import linear_product, t_fraction_pool


def test_factorization_validates_shape(Q):
    x = Polynomial.x(Q)
    one = Polynomial.one(Q)
    with pytest.raises(InvalidFactorizationError):
        Factorization(Q.zero(), ((x, 1),))          # zero unit
    with pytest.raises(InvalidFactorizationError):
        Factorization(Q.one(), ((x, 0),))           # multiplicity < 1
    with pytest.raises(InvalidFactorizationError):
        Factorization(Q.one(), ((x.scale(Q.from_int(2)), 1),))  # not monic
    with pytest.raises(InvalidFactorizationError):
        Factorization(Q.one(), ((one, 1),))         # constant factor


def test_expand_and_coprimality(Q):
    x = Polynomial.x(Q)
    two = Polynomial.constant(Q, Q.from_int(2))
    fac = Factorization(Q.from_int(3), ((x - two, 2), (x, 1)))
    assert fac.expand() == linear_product(Q, [(2, 2), (0, 1)], lc=3)
    assert fac.degree() == 3
    assert fac.pairwise_coprime()
    shared = Factorization(Q.one(), ((x - two, 1), ((x - two) * x, 1)))
    assert not shared.pairwise_coprime()


@pytest.mark.parametrize("field", [rationals(), prime_field(7),
                                   rational_function_field(3)],
                         ids=["q", "fp7", "fpt3"])
def test_pairwise_coprime_agrees_with_gcd(field):
    # the resultant test against the field gcd, on random monic factors;
    # every third factorization gets a shared factor h on two of its entries
    rng = random.Random(f"coprime/{field.text()}")
    pool = [field.from_int(c) for c in range(-3, 4)]
    if field.kind is FieldKind.RATIONAL_FUNCTION_FIELD:
        pool += t_fraction_pool(field)

    def rand_monic(degree):
        coeffs = [rng.choice(pool) for _ in range(degree)]
        return Polynomial(field, coeffs + [field.one()])

    shared = 0
    for k in range(60):
        factors = [rand_monic(rng.randint(1, 3))
                   for _ in range(rng.randint(2, 4))]
        if k % 3 == 0:
            h = rand_monic(rng.randint(1, 2))
            factors[0] = factors[0] * h
            factors[-1] = factors[-1] * h
        fac = Factorization(field.one(), tuple((g, 1) for g in factors))
        by_gcd = all(factors[i].gcd(factors[j]).degree == 0
                     for i in range(len(factors))
                     for j in range(i + 1, len(factors)))
        assert fac.pairwise_coprime() == by_gcd
        shared += not by_gcd
    assert 20 <= shared < 60


def test_squarefree_char0_yun(Q):
    f = linear_product(Q, [(1, 1), (2, 2), (3, 3)], lc=4)
    fac = squarefree_decomposition(f)
    assert fac.unit == Q.from_int(4)
    assert fac.expand() == f
    assert sorted((g.degree, m) for g, m in fac.factors) == [(1, 1), (1, 2), (1, 3)]
    for g, _ in fac.factors:
        assert g.is_monic() and g.is_separable()
    assert fac.pairwise_coprime()


def test_squarefree_char0_squarefree_input_is_single_part(Q):
    f = linear_product(Q, [(1, 1), (5, 1)])
    fac = squarefree_decomposition(f)
    assert len(fac.factors) == 1
    assert fac.factors[0] == (f, 1)


def test_squarefree_charp_multiplicity_divisible_by_p():
    F5 = prime_field(5)
    f = linear_product(F5, [(1, 5), (2, 1)])
    fac = squarefree_decomposition(f)
    assert fac.expand() == f
    assert sorted((g.degree, m) for g, m in fac.factors) == [(1, 1), (1, 5)]


def test_squarefree_charp_pth_power():
    F5 = prime_field(5)
    f = linear_product(F5, [(1, 1), (3, 1)]) ** 5
    fac = squarefree_decomposition(f)
    assert fac.expand() == f
    assert all(m == 5 for _, m in fac.factors)


def test_squarefree_fpt_clean_case():
    F5T = rational_function_field(5)
    t = Polynomial.constant(F5T, F5T.t())
    x = Polynomial.x(F5T)
    f = (x * x - t) * (x - Polynomial.one(F5T)) ** 2
    fac = squarefree_decomposition(f)
    assert fac.expand() == f
    assert fac.pairwise_coprime()


def test_squarefree_fpt_pth_power_unsupported():
    F5T = rational_function_field(5)
    t = Polynomial.constant(F5T, F5T.t())
    f = Polynomial.x(F5T) ** 5 - t       # no p-th root of t in F_5(t)
    assert squarefree_decomposition(f).factors == ((f, 1),)
    sq = squarefree_decomposition(f ** 2)
    assert sq.factors == ((f, 2),)
    assert sq.expand() == f ** 2
    assert multiplicity_profile(f) == [(5, 1)]
    assert multiplicity_profile(f ** 2) == [(10, 1)]
    # checked against the u-resultant elimination
    for g in (f, f ** 2):
        assert gdisc(g) == tol_variant("gdisc", g.leading_coefficient(),
                                       g.degree, tol(g))
    assert tol(f).is_one() and tol(f ** 2).is_one()


def test_squarefree_rejects_constants(Q):
    with pytest.raises(ConstantInputError):
        squarefree_decomposition(Polynomial.one(Q))


def test_factor_prime_field_reconstructs_and_is_irreducible():
    rng = random.Random(0)
    F = prime_field(13)
    for _ in range(40):
        f = Polynomial(F, [F.from_int(rng.randrange(13))
                           for _ in range(rng.randint(2, 8))])
        if f.is_zero() or f.degree < 1:
            continue
        fac = factor_prime_field(f, seed=7)
        assert fac.expand() == f
        assert fac.pairwise_coprime()
        for g, m in fac.factors:
            assert g.is_monic() and m >= 1
            assert is_irreducible_prime_field(g)


def test_factor_prime_field_deterministic_under_seed():
    F = prime_field(101)
    rng = random.Random(1)
    f = Polynomial(F, [F.from_int(rng.randrange(101)) for _ in range(9)])
    a = factor_prime_field(f, seed=5)
    b = factor_prime_field(f, seed=5)
    assert a == b


def test_factor_prime_field_rejects_other_fields(Q):
    with pytest.raises(UnsupportedFieldError):
        factor_prime_field(Polynomial.x(Q))


@pytest.mark.parametrize("p,coeffs,expect", [
    (3, [1, 0, 1], True),     # x^2 + 1, -1 not a square mod 3
    (5, [1, 0, 1], False),    # 2^2 = -1 mod 5
    (2, [1, 1, 0, 1], True),  # x^3 + x + 1 has no roots over F_2
    (2, [1, 0, 1], False),    # (x+1)^2
    (7, [3, 1], True),        # linear
])
def test_is_irreducible_known_cases(p, coeffs, expect):
    F = prime_field(p)
    assert is_irreducible_prime_field(Polynomial.from_ints(F, coeffs)) is expect


def test_is_irreducible_agrees_with_factorization():
    rng = random.Random(2)
    F = prime_field(7)
    for _ in range(60):
        f = Polynomial(F, [F.from_int(rng.randrange(7))
                           for _ in range(rng.randint(2, 6))])
        if f.is_zero() or f.degree < 1:
            continue
        fac = factor_prime_field(f.monic(), seed=0)
        single = len(fac.factors) == 1 and fac.factors[0][1] == 1
        assert is_irreducible_prime_field(f.monic()) is single


def test_multiplicity_profile_char0(Q):
    f = linear_product(Q, [(2, 2), (3, 1)])
    assert multiplicity_profile(f) == [(2, 1), (1, 1)]
    g = linear_product(Q, [(1, 3), (2, 3), (4, 1)])
    assert multiplicity_profile(g) == [(3, 2), (1, 1)]


def test_multiplicity_profile_inseparable():
    F5T = rational_function_field(5)
    t = Polynomial.constant(F5T, F5T.t())
    x = Polynomial.x(F5T)
    f = x ** 10 - t                  # (x^2 - t) desubstituted, e = 1
    fac = Factorization(F5T.one(), ((f, 1),))
    assert multiplicity_profile(f, fac) == [(5, 2)]
    sq = Factorization(F5T.one(), ((f, 2),))
    assert multiplicity_profile(sq.expand(), sq) == [(10, 2)]


def test_multiplicity_profile_prime_field_via_internal_factorization():
    F = prime_field(7)
    f = linear_product(F, [(1, 2), (2, 2), (3, 1)])
    assert multiplicity_profile(f) == [(2, 2), (1, 1)]


def _mixed_fpt_input(K, rng, max_degree):
    """lc * prod g_i(x^(p^e_i))^m_i with g_i separable and the factors
    pairwise coprime, and the closure multiplicity profile it implies."""
    p = K.p
    x = Polynomial.x(K)
    factors, counts, degree = [], {}, 0
    while not factors or rng.random() < 0.7:
        d, e, m = rng.randint(1, 2), rng.randint(0, 1), rng.randint(1, 3)
        if degree + d * p ** e * m > max_degree:
            continue
        g = x ** d + Polynomial(K, [K.from_t_fraction(
            [rng.randrange(p) for _ in range(2)]) for _ in range(d)])
        if not g.is_separable():
            continue
        h = g.substitute_power(p ** e)
        if any(h.gcd(other).degree > 0 for other, _ in factors):
            continue
        factors.append((h, m))
        counts[m * p ** e] = counts.get(m * p ** e, 0) + d
        degree += d * p ** e * m
    lc = K.from_t_fraction([rng.randrange(1, p), 1])
    f = Factorization(lc, tuple(factors)).expand()
    return f, sorted(counts.items(), key=lambda mc: -mc[0])


@pytest.mark.parametrize("p", [3, 5])
def test_squarefree_fpt_mixed_inseparable_checked_by_u_resultant(p):
    K = rational_function_field(p)
    rng = random.Random(p)
    inseparable = 0
    for _ in range(10):
        f, profile = _mixed_fpt_input(K, rng, max_degree=7)
        fac = squarefree_decomposition(f)
        assert fac.expand() == f
        assert fac.pairwise_coprime()
        for g, _ in fac.factors:
            sep, e = g.desubstitute()
            assert sep.is_separable()
            inseparable += e > 0
        assert multiplicity_profile(f) == profile
        if f.degree >= 2:
            assert gdisc(f) == tol_variant("gdisc", f.leading_coefficient(),
                                           f.degree, tol(f))
    assert inseparable


def _random_factor(field, rng, degree):
    """A random polynomial of the given degree, not monic: over Q with
    non-integral coefficients, over F_p with residues."""
    if field.kind is FieldKind.RATIONALS:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                  for _ in range(degree)]
        coeffs.append(Fraction(rng.choice([-1, 1]) * rng.randint(1, 5),
                               rng.randint(1, 6)))
        return Polynomial(field, [field.from_fraction(c) for c in coeffs])
    coeffs = [rng.randrange(field.p) for _ in range(degree)]
    return Polynomial.from_ints(field, coeffs + [rng.randrange(1, field.p)])


@pytest.mark.parametrize("name", ["q", "fp:2", "fp:3", "fp:7"])
def test_gcd_and_squarefree_parts_match_sympy(name):
    # sympy is an optional, test-only oracle: Poly.gcd and Poly.sqf_list
    # over QQ or GF(p), on products with shared factors and repeated parts
    # (multiples of p among the multiplicities over F_p)
    sympy = pytest.importorskip("sympy")
    field = parse_field(name)
    x = sympy.Symbol("x")
    domain = ({"domain": sympy.QQ} if field.kind is FieldKind.RATIONALS
              else {"modulus": field.p})

    def to_sympy(f):
        coeffs = [sympy.Rational(c.numerator, c.denominator)
                  if isinstance(c, Fraction) else c for c in f.raw]
        return sympy.Poly(coeffs[::-1], x, **domain)

    def from_sympy(g):
        coeffs = g.all_coeffs()[::-1]
        if field.kind is FieldKind.RATIONALS:
            return Polynomial(field, [field.from_fraction(
                Fraction(int(c.p), int(c.q))) for c in coeffs])
        return Polynomial.from_ints(field, [int(c) for c in coeffs])

    rng = random.Random(f"sympy-sqf/{name}")
    for _ in range(12):
        pieces = [_random_factor(field, rng, rng.randint(1, 3))
                  for _ in range(3)]
        exponents = [rng.choice([1, 2, 3, field.char_exponent,
                                 field.char_exponent + 1])
                     for _ in pieces]
        f, g = pieces[0] ** exponents[0], pieces[1] * pieces[0] ** 2
        for piece, m in zip(pieces[1:], exponents[1:]):
            f = f * piece ** m
        g = g * _random_factor(field, rng, rng.randint(0, 3))
        assert f.gcd(g) == from_sympy(to_sympy(f).gcd(to_sympy(g))).monic()

        fac = squarefree_decomposition(f)
        lead, parts = to_sympy(f).sqf_list()
        assert fac.unit == from_sympy(
            sympy.Poly(lead, x, **domain)).leading_coefficient()
        assert {m: h for h, m in fac.factors} == {
            m: from_sympy(part).monic() for part, m in parts}


@pytest.mark.parametrize("p", [2, 3, 7, 10007])
def test_prime_field_factorization_matches_sympy(p):
    # sympy's Poly.factor_list over GF(p) is the oracle, on products of
    # random factors with repeated ones (multiplicities p and p + 1 too,
    # where p is small enough)
    sympy = pytest.importorskip("sympy")
    field = prime_field(p)
    x = sympy.Symbol("x")
    rng = random.Random(f"sympy-factor/{p}")
    exponents = [1, 2, 3] + ([p, p + 1] if p <= 7 else [])

    def key(pairs):
        return sorted((tuple(int(c) % p for c in coeffs), m)
                      for coeffs, m in pairs)

    for _ in range(10):
        f = _random_factor(field, rng, 0)
        for _ in range(3):
            g = _random_factor(field, rng, rng.randint(1, 3))
            f = f * g ** rng.choice(exponents)
        fac = factor_prime_field(f, seed=rng.randrange(100))
        lead, parts = sympy.Poly(f.raw[::-1], x, modulus=p).factor_list()
        assert fac.unit == field.from_int(int(lead))
        assert key((g.raw, m) for g, m in fac.factors) == key(
            (part.monic().all_coeffs()[::-1], m) for part, m in parts)


@pytest.mark.parametrize("p", [2, 3, 7, 10007])
def test_is_irreducible_matches_sympy(p):
    # sympy's Poly.is_irreducible over GF(p) is the oracle, on random
    # polynomials of degree 1-16 (non-monic, and with f(0) = 0 too), on
    # irreducibles of each degree, their squares and cubes, products of two
    # irreducibles of one degree, and x^k
    sympy = pytest.importorskip("sympy")
    field = prime_field(p)
    x = sympy.Symbol("x")
    rng = random.Random(f"sympy-irreducible/{p}")

    def oracle(f):
        return sympy.Poly(f.raw[::-1], x, modulus=p).is_irreducible

    def irreducible(degree):
        while True:
            g = _random_factor(field, rng, degree).monic()
            if oracle(g):
                return g

    cases = []
    for n in range(1, 17):
        f = _random_factor(field, rng, n)
        cases += [f, f * Polynomial.x(field), Polynomial.x(field) ** n,
                  irreducible(n)]
    for n in range(1, 6):
        g = irreducible(n)
        cases += [g ** 2, g ** 3]
        if (p, n) == (2, 2):
            continue                # x^2 + x + 1 is F_2's one quadratic
        h = g
        while h == g:
            h = irreducible(n)
        cases.append(g * h)
    for f in cases:
        assert is_irreducible_prime_field(f) is oracle(f), f
