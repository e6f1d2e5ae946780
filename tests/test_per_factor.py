"""The per-factor formula on the numerator ring, against the boxed product.

``tol_from_factorization`` evaluates each mode as one product of powers in
the field's numerator ring (``_rings.power_product``) and builds one field
element at the end.  ``boxed_tol`` below evaluates the same formulas as a
running product of field elements: one ``FieldElement`` power and product
per term, and a ``sylvester_resultant`` of the twisted parts per pair.  It
is the oracle, on seeded factorizations over Q with non-integer
coefficients, over F_p, and over F_p(t) with t-denominators and mixed
inseparability exponents, in all three modes.
"""

import random
from fractions import Fraction

import pytest

from tolerant import Polynomial, prime_field, rational_function_field, rationals
from tolerant._rings import (fp_poly_ring, int_ring, mod_ring, power_product,
                             ring_pow)
from tolerant.errors import (InseparableInSeparableModeError,
                             InvalidFactorizationError, TolerantError,
                             ZeroDiscriminantFactorError)
from tolerant.factor import Factorization
from tolerant.invariants import FactorFormula, tol_from_factorization
from tolerant.resultant import discriminant, sylvester_resultant

from conftest import frobenius_twist


def boxed_tol(fac, mode=FactorFormula.CORRECTED):
    """The per-factor formula as a running product of field elements."""
    if mode is not FactorFormula.CORRECTED and not fac.pairwise_coprime():
        raise InvalidFactorizationError("factors are not pairwise coprime")
    field = fac.field
    if not fac.factors:
        return field.one()
    q = field.char_exponent
    parts = fac.parts
    acc = fac.unit ** (2 * fac.degree() - 2)
    if mode is FactorFormula.PAPER_SEPARABLE:
        for g, sep, e, m in parts:
            if e > 0 or not g.is_separable():
                raise InseparableInSeparableModeError("inseparable factor")
        big_n = sum(m for _, _, _, m in parts)
        for i, (g_i, _, _, m_i) in enumerate(parts):
            acc = acc * discriminant(g_i) ** (m_i * (2 * m_i - big_n))
            for g_j, _, _, m_j in parts[i + 1:]:
                acc = acc * discriminant(g_i * g_j) ** (m_i * m_j)
        return acc
    if mode is FactorFormula.PAPER_GENERAL:
        weights = [m * q ** e for _, _, e, m in parts]
        big_n = sum(weights)
        for i, (_, sep_i, e_i, m_i) in enumerate(parts):
            d = discriminant(sep_i)
            if not d:
                raise ZeroDiscriminantFactorError("zero part discriminant")
            acc = acc * d ** (weights[i] * (2 * weights[i] - big_n))
            for j in range(i + 1, len(parts)):
                _, sep_j, e_j, m_j = parts[j]
                cross = discriminant(sep_i * sep_j)
                if not cross:
                    raise ZeroDiscriminantFactorError("zero cross discriminant")
                acc = acc * cross ** (m_i * m_j * q ** (e_i + e_j))
        return acc
    for i, (_, sep_i, e_i, m_i) in enumerate(parts):
        for _, sep_j, e_j, m_j in parts[i + 1:]:
            big_e = max(e_i, e_j)
            r = sylvester_resultant(frobenius_twist(sep_i, big_e - e_i),
                                    frobenius_twist(sep_j, big_e - e_j))
            if not r:
                raise InvalidFactorizationError("factors share a root")
            acc = acc * r ** (2 * m_i * m_j * q ** min(e_i, e_j))
    for _, sep, e, m in parts:
        d = discriminant(sep)
        if not d:
            raise ZeroDiscriminantFactorError("zero part discriminant")
        acc = acc * d ** (m * m * q ** e)
    return acc


def outcome(fn, *args):
    """The value, or the class of the TolerantError raised."""
    try:
        return fn(*args)
    except TolerantError as exc:
        return type(exc)


# -- seeded factorizations ----------------------------------------------------


def rational(rng):
    return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 5, 7]))


def t_fraction(F, rng):
    """A small F_p(t) value, with a t-denominator two times in three."""
    p = F.p

    def t_poly(top):
        return [rng.randrange(p) for _ in range(rng.randint(0, top))] + [1]

    num = F.from_t_fraction([rng.randrange(p) for _ in range(3)])
    if rng.randrange(3):
        return num / F.from_t_fraction(t_poly(2))
    return num


def random_factorization(F, rng, coefficient, max_e=0, top=3):
    """2-4 monic factors g(x^(p^e)) of degree 1-top in g, multiplicities
    1-3, e in [0, max_e] mixed, and a random unit; duplicates are dropped."""
    factors, seen = [], set()
    for _ in range(rng.randint(2, 4)):
        coeffs = [coefficient(rng) for _ in range(rng.randint(1, top))]
        g = Polynomial(F, [F.from_int(0) + c for c in coeffs] + [F.one()])
        g = g.substitute_power(F.char_exponent ** rng.randint(0, max_e))
        if tuple(g.raw) not in seen:
            seen.add(tuple(g.raw))
            factors.append((g, rng.randint(1, 3)))
    unit = F.from_int(0)
    while not unit:
        unit = F.from_int(0) + coefficient(rng)
    return Factorization(unit, tuple(factors))


def q_factorizations():
    F, rng = rationals(), random.Random(31)
    return [random_factorization(F, rng, rational) for _ in range(25)]


def fp_factorizations():
    out, rng = [], random.Random(32)
    for p in (2, 3, 5, 7, 10007):
        F = prime_field(p)
        out += [random_factorization(F, rng, lambda r: r.randrange(p),
                                     max_e=1 if p < 10 else 0)
                for _ in range(8)]
    return out


def fpt_factorizations():
    out, rng = [], random.Random(33)
    for p, max_e in ((2, 2), (3, 1), (5, 0)):
        F = rational_function_field(p)
        out += [random_factorization(F, rng, lambda r: t_fraction(F, r),
                                     max_e, top=2)
                for _ in range(10)]
    return out


MODES = list(FactorFormula)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("make", [q_factorizations, fp_factorizations,
                                  fpt_factorizations],
                         ids=["q", "fp", "fpt"])
def test_power_product_matches_the_boxed_product(make, mode):
    facs = make()
    for fac in facs:
        assert outcome(tol_from_factorization, fac, mode) == outcome(
            boxed_tol, fac, mode), (fac, mode)


def test_seeded_factorizations_cover_the_cases():
    """The draws above reach what the evaluation has to get right: cleared
    denominators d != 1 over Q and F_p(t), mixed e in one F_p(t)
    factorization, and values as well as errors in every mode."""
    q_facs, fpt_facs = q_factorizations(), fpt_factorizations()
    assert any(v.denominator != 1 for fac in q_facs
               for g, _ in fac.factors for v in g.raw)
    assert sum(any(v[1] != (1,) for g, _ in fac.factors for v in g.raw)
               for fac in fpt_facs) >= 10
    assert sum(len({e for _, _, e, _ in fac.parts}) > 1
               for fac in fpt_facs) >= 5
    everything = q_facs + fp_factorizations() + fpt_facs
    for mode in MODES:
        results = [outcome(tol_from_factorization, fac, mode)
                   for fac in everything]
        assert sum(not isinstance(r, type) for r in results) >= 20, mode
    assert any(isinstance(r, type) for r in
               (outcome(tol_from_factorization, fac) for fac in everything))


def test_errors_keep_their_order():
    """All cross resultants run before any discriminant: a factorization
    that is not coprime and has a part with repeated roots over F_p(t)
    raises InvalidFactorizationError, and only the part with repeated roots
    raises ZeroDiscriminantFactorError."""
    F = rational_function_field(3)
    x, t = Polynomial.x(F), Polynomial.constant(F, F.t())
    repeated = (x - t) ** 2                 # its own desubstituted part
    shared = x - t
    unit = F.one()
    with pytest.raises(InvalidFactorizationError):
        tol_from_factorization(Factorization(unit, ((repeated, 1),
                                                    (shared, 1))))
    with pytest.raises(ZeroDiscriminantFactorError):
        tol_from_factorization(Factorization(unit, ((repeated, 1),
                                                    (x + t, 2))))


# -- the kernel ---------------------------------------------------------------


RINGS = [("Z", int_ring(), lambda r: r.randint(-50, 50)),
         ("F_7", mod_ring(7), lambda r: r.randrange(7)),
         ("F_3[t]", fp_poly_ring(3),
          lambda r: tuple([r.randrange(3) for _ in range(r.randint(0, 3))]
                          + [r.randint(1, 2)]))]


def naive_power_product(terms, R):
    acc = R.one
    for x, e in terms:
        acc = R.mul(acc, ring_pow(x, e, R))
    return acc


@pytest.mark.parametrize("name,R,draw", RINGS, ids=[r[0] for r in RINGS])
def test_power_product_kernel(name, R, draw):
    rng = random.Random(34)
    x = draw(rng)
    assert power_product([], R) == R.one
    assert power_product([(x, 0)], R) == R.one
    assert power_product([(R.zero, 0)], R) == R.one      # x^0 = 1, even 0^0
    assert power_product([(R.zero, 3), (x, 2)], R) == R.zero
    for e in (1, 2, 7, 8):
        assert power_product([(x, e)], R) == ring_pow(x, e, R)
    for _ in range(12):
        terms = [(draw(rng), rng.choice([0, 1, rng.randrange(1 << 9, 1 << 11)]))
                 for _ in range(rng.randint(1, 5))]
        assert power_product(terms, R) == naive_power_product(terms, R)
    wide = [(draw(rng), 1 << 9), (draw(rng), (1 << 10) - 1), (R.one, 5)]
    assert power_product(wide, R) == naive_power_product(wide, R)
