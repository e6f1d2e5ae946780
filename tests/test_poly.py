"""Dense polynomial arithmetic, Hasse calculus, and structure maps."""

import math
import random
from fractions import Fraction

import pytest

from tolerant import (FieldElement, FieldKind, Polynomial, RootMultiset,
                      parse_field, parse_polynomial, poly_from_roots,
                      rational_function_field, rationals)
from tolerant import parsing
from tolerant.errors import (ConstantInputError, DuplicateRootsError,
                             FieldMismatchError, UnsupportedFieldError,
                             ZeroConstantTermError, ZeroScaleError)
from tolerant.poly import binomial_mod
from tolerant.resultant import resultant_in_u

from conftest import (frobenius_twist, linear_product, naive_product,
                      t_fraction_pool)


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


def wide_poly(field, rng, max_deg):
    """Up to max_deg + 1 coefficients, about a third of them zero.  Over Q
    they carry mixed signs and numerators and denominators of up to 300
    digits; over F_p(t) random t-fractions with nontrivial denominators."""
    def coeff():
        if rng.random() < 0.3:
            return field.zero()
        if field.kind is FieldKind.RATIONALS:
            big = 10 ** rng.choice((1, 30, 300))
            return field.from_fraction(Fraction(rng.randint(-big, big),
                                                rng.randint(1, big)))
        if field.kind is FieldKind.PRIME_FIELD:
            return field.from_int(rng.randrange(field.p))
        num = [rng.randrange(field.p) for _ in range(rng.randint(1, 5))]
        den = [rng.randrange(field.p) for _ in range(rng.randint(1, 4))]
        return field.from_t_fraction(num, den if any(den) else (1,))
    length = rng.randint(0, max_deg) + 1
    return Polynomial(field, [coeff() for _ in range(length)])


def test_mul_matches_naive_convolution(Q):
    rng = random.Random(0)
    for _ in range(100):
        f, g = rand_poly(Q, rng, 6), rand_poly(Q, rng, 6)
        assert f * g == naive_product(f, g)


def sparse_poly(field, rng, length, nonzero):
    """Length ``length`` with ``nonzero`` nonzero coefficients, the top one
    among them, each drawn like those of ``wide_poly``."""
    coeffs = [field.zero()] * length
    for i in rng.sample(range(length - 1), nonzero - 1) + [length - 1]:
        while not coeffs[i]:
            coeffs[i] = wide_poly(field, rng, 0).constant_term()
    return Polynomial(field, coeffs)


@pytest.mark.parametrize("name", ["q", "fp:7", "fp:2147483647", "fpt:3"])
def test_kronecker_product_matches_naive_convolution(name):
    field = parse_field(name)
    rng = random.Random(f"kron/{name}")
    zero, one = Polynomial.zero(field), Polynomial.one(field)
    for _ in range(60):
        f, g = wide_poly(field, rng, 12), wide_poly(field, rng, 12)
        # the zero polynomial and length-1 operands are among the draws;
        # also put them in explicitly, on either side
        for a, b in ((f, g), (g, f), (f, zero), (zero, g), (f, one),
                     (g.scale(field.from_int(3)), f), (f, f)):
            h = a * b
            assert h == naive_product(a, b)
            assert h.degree == a.degree + b.degree
    # sparse operands, below the density bounds of every field's product,
    # take its schoolbook loop; long dense ones its Kronecker product
    for _ in range(3):
        sparse = [sparse_poly(field, rng, rng.randint(2, 40), 2),
                  sparse_poly(field, rng, 40, rng.randint(3, 9)),
                  sparse_poly(field, rng, 60, 11)]
        dense = wide_poly(field, rng, 40)
        pairs = [(a, b) for a in sparse for b in sparse + [dense]]
        pairs += [(dense, sparse[0]), (dense, wide_poly(field, rng, 30))]
        for a, b in pairs:
            assert a * b == naive_product(a, b)


@pytest.mark.parametrize("name", ["q", "fp:7", "fpt:3"])
def test_products_take_one_u_ring_product(name, monkeypatch):
    # a product of two nonconstant polynomials is one call of the field's
    # u_ring.mul, the product the u-resultant runs on too
    field = parse_field(name)
    calls = []

    def counted(a, b, _mul=field.ops.u_ring.mul):
        calls.append(1)
        return _mul(a, b)

    u_ring = field.ops.u_ring._replace(mul=counted)
    monkeypatch.setitem(vars(field), "ops", field.ops._replace(u_ring=u_ring))
    rng = random.Random(f"u_ring/{name}")
    x = Polynomial.x(field)
    for _ in range(20):
        f = wide_poly(field, rng, 20) + x ** rng.randint(1, 25)
        g = sparse_poly(field, rng, rng.randint(2, 30), 2)
        for a, b in ((f, g), (g, f), (f, f), (g, g)):
            calls.clear()
            assert a * b == naive_product(a, b)
            assert calls == [1]
    # and the elimination multiplies in the same ring
    calls.clear()
    h = x ** 3 + x + Polynomial.one(field)
    resultant_in_u(h, [h.derivative(), h.hasse_derivative(2)])
    assert calls


@pytest.mark.parametrize("name", ["q", "fp:7", "fpt:3"])
def test_monomial_powers_are_built_directly(name):
    field = parse_field(name)
    rng = random.Random(f"monomial/{name}")
    x = Polynomial.x(field)
    for _ in range(30):
        c = wide_poly(field, rng, 0)
        d, e = rng.randint(0, 4), rng.randint(0, 6)
        monomial = c * x ** d
        expected = Polynomial.one(field)
        for _ in range(e):
            expected = naive_product(expected, monomial)
        assert monomial ** e == expected
    assert (x ** 100000).raw[-1] == field.ops.from_int(1)
    assert (x ** 100000).degree == 100000
    if name == "fpt:3":
        t = Polynomial.constant(field, field.t())
        assert (t ** 5000).leading_coefficient() == field.from_t_fraction(
            (0,) * 5000 + (1,))


def nonmonic_poly(field, rng, degree):
    """Degree-``degree`` operand whose leading coefficient is not 1: over Q
    every coefficient may be non-integral and the leading one is; over
    F_p(t) the leading one is a t-fraction with a non-monic numerator."""
    if field.kind is FieldKind.RATIONALS:
        coeffs = [field.from_fraction(Fraction(rng.randint(-9, 9),
                                               rng.randint(1, 6)))
                  for _ in range(degree)]
        lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7),
                        rng.randint(2, 6))
        if lead.denominator == 1:
            lead /= 5
        return Polynomial(field, coeffs + [field.from_fraction(lead)])
    if field.kind is FieldKind.PRIME_FIELD:
        coeffs = [rng.randrange(field.p) for _ in range(degree)]
        return Polynomial.from_ints(field,
                                    coeffs + [rng.randrange(2, field.p)])
    pool = t_fraction_pool(field)
    lead = field.from_t_fraction(
        [rng.randrange(field.p), rng.randrange(field.p), field.p - 1],
        [rng.randrange(1, field.p), 1])
    return Polynomial(field, [rng.choice(pool) for _ in range(degree)]
                      + [lead])


def test_divmod_property(Q, F7, F3T):
    rng = random.Random(1)
    for field, rounds in ((Q, 40), (F7, 200), (F3T, 40)):
        for _ in range(rounds):
            g = rand_poly(field, rng, 5)
            if g.is_zero():
                continue
            f = rand_poly(field, rng, 8)
            pairs = [(f, g), (f, g.monic()),
                     (nonmonic_poly(field, rng, rng.randint(0, 9)),
                      nonmonic_poly(field, rng, rng.randint(0, 5)))]
            for a, b in pairs:
                q, r = divmod(a, b)
                assert q * b + r == a
                assert r.is_zero() or r.degree < b.degree


@pytest.mark.parametrize("name", ["q", "fp:7", "fpt:3"])
def test_gcd_is_monic_divides_both_and_extracts_a_common_factor(name):
    field = parse_field(name)
    rng = random.Random(f"gcd/{name}")
    coprime = 0
    for _ in range(30):
        a, b, c = (nonmonic_poly(field, rng, rng.randint(0, 4))
                   for _ in range(3))
        d = (a * c).gcd(b * c)
        assert d.is_monic()
        assert ((a * c) % d).is_zero() and ((b * c) % d).is_zero()
        if a.gcd(b).degree == 0:
            assert d == c.monic()
            coprime += 1
    assert coprime >= 20


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


def test_hasse_derivative_of_sparse_input(F7, F3T):
    # D^r x^n = C(n, r) x^(n-r) term by term, where C(n, r) mod p vanishes
    # at the top (x^49 over F_7) or everywhere (D^r x^49 for 0 < r < 49)
    for field in (F7, F3T):
        terms = {49: 1, 8: 3, 1: 5, 0: 2}
        f = Polynomial.from_ints(field, [terms.get(i, 0) for i in range(50)])
        for r in range(52):
            expected = Polynomial.from_ints(
                field, [terms.get(i, 0) * math.comb(i, r)
                        for i in range(r, 50)])
            assert f.hasse_derivative(r) == expected


@pytest.mark.parametrize("p", [2, 3, 7])
def test_binomials_mod_p_by_lucas(p):
    # every 0 <= k <= n < 3p^3 against C(n, k) over Z, reduced mod p; the
    # rows over Z come by Pascal's rule, far cheaper than math.comb per entry
    row = [1]
    for n in range(3 * p ** 3):
        assert [binomial_mod(n, k, p) for k in range(n + 1)] == [
            c % p for c in row], n
        last, row = row, [a + b for a, b in zip([0] + row, row + [0])]
    assert last == [math.comb(n, k) for k in range(n + 1)]


def test_hasse_derivative_across_the_characteristic(F7, F3T):
    # dense input of degree 3p^2, every order: below p the binomial is
    # C(n mod p, r), from p on the full product of Lucas' theorem
    for field in (F7, F3T):
        n = 3 * field.p ** 2
        f = Polynomial.from_ints(field, range(1, n + 2))
        for r in range(n + 2):
            expected = Polynomial.from_ints(
                field, [(i + 1) * math.comb(i, r) for i in range(r, n + 1)])
            assert f.hasse_derivative(r) == expected


def test_hasse_derivative_scales_fractions_by_binomials(Q, F3T):
    # coefficients with denominators (Fractions over Q, t-denominators over
    # F_3(t)), every order: each raw coefficient is the canonical value of
    # the boxed product c_n * C(n, r), and a binomial that vanishes mod 3
    # leaves the canonical zero inside, and none at the top
    rng = random.Random(23)
    for field in (Q, F3T):
        pool = ([field.from_fraction(Fraction(a, b)) for a in (-5, 1, 3, 7)
                 for b in (1, 2, 9)] if field is Q
                else t_fraction_pool(field)[1:])
        for _ in range(20):
            coeffs = [rng.choice(pool) for _ in range(rng.randint(1, 10))]
            f = Polynomial(field, coeffs)
            for r in range(len(coeffs) + 1):
                expected = Polynomial(field, [
                    c * field.from_int(math.comb(n, r))
                    for n, c in enumerate(coeffs) if n >= r])
                assert f.hasse_derivative(r).raw == expected.raw
    t = F3T.t()
    f = Polynomial(F3T, [F3T.one(), 1 / t, F3T.zero(), t / (t + 1), F3T.one()])
    zero = ((), (1,))
    assert f.derivative().raw == (((1,), (0, 1)), zero, zero, ((1,), (1,)))


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
    tw = frobenius_twist(f, 1)
    assert tw.coefficient(0) == t ** 5
    assert tw.coefficient(1) == F5T.one()
    assert tw.coefficient(2) == (t + F5T.one()) ** 5
    assert frobenius_twist(f, 0) == f
    with pytest.raises(UnsupportedFieldError):
        frobenius_twist(Polynomial.x(rationals()), 1)


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


@pytest.mark.parametrize("name", ["q", "fp:7", "fpt:3"])
def test_scaled_monomials_take_one_field_product(name, monkeypatch):
    # x^k is built with no field product, and c*x^k with one: the zero
    # coefficients below x^k are not multiplied by c.  The text 2*x^k takes
    # none, by the scan and by the grammar, which multiplies by no ops.one.
    field = parse_field(name)
    calls = []

    def counted(a, b, _mul=field.ops.mul):
        calls.append(1)
        return _mul(a, b)

    c = field.from_int(2)
    if name == "fpt:3":
        c = c / (field.t() + 1)
    zero = field.ops.from_int(0)
    monkeypatch.setitem(vars(field), "ops", field.ops._replace(mul=counted))
    x = Polynomial.x(field)
    for k in (1, 2, 31, 1000):
        calls.clear()
        power = x ** k
        assert calls == []
        assert (Polynomial.constant(field, c) * power).raw == (zero,) * k + (
            c.value,)
        assert calls == [1]
        calls.clear()
        for parse in (parse_polynomial, parsing._grammar):
            assert parse(f"2*x^{k}", field).raw == (zero,) * k + (
                field.ops.from_int(2),)
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
