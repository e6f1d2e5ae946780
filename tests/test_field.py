"""Field descriptors and exact element arithmetic over Q, F_p, F_p(t)."""

import math
import random
from fractions import Fraction

import pytest

from tolerant import (FieldKind, Polynomial, parse_field, prime_field,
                      rational_function_field, rationals)
from tolerant.errors import (DivisionByZeroError, FieldMismatchError,
                             TolerantError, UnsupportedFieldError)
from tolerant._rings import padd, pstrip
from tolerant.field import _fpt_reduce, is_prime

from conftest import frobenius_power, naive_pmul


def test_is_prime_small_and_carmichael():
    primes = {2, 3, 5, 7, 11, 13, 101, 2 ** 31 - 1}
    for n in primes:
        assert is_prime(n)
    for n in [0, 1, 4, 9, 561, 1105, 29341, 2 ** 16]:
        assert not is_prime(n)


def test_parse_field_accepts_the_three_kinds():
    assert parse_field("q").kind is FieldKind.RATIONALS
    f7 = parse_field("fp:7")
    assert f7.kind is FieldKind.PRIME_FIELD and f7.p == 7
    f5t = parse_field("fpt:5")
    assert f5t.kind is FieldKind.RATIONAL_FUNCTION_FIELD and f5t.p == 5


@pytest.mark.parametrize("bad", ["fp:6", "fp:1", "fpt:91", "fp:", "zz", "fp:0",
                                 "fp:2147483648"])
def test_parse_field_rejects_bad_descriptors(bad):
    with pytest.raises((TolerantError, ValueError)):
        parse_field(bad)


def test_one_ops_table_per_field_survives_pickling():
    import pickle
    assert parse_field("fp:7").ops is prime_field(7).ops
    assert rationals().ops is not prime_field(7).ops
    K = rational_function_field(5)
    back = pickle.loads(pickle.dumps(K))
    assert back == K and back.ops is K.ops


def test_characteristic_and_perfection():
    assert rationals().characteristic == 0
    assert rationals().char_exponent == 1
    assert rationals().is_perfect
    assert prime_field(7).characteristic == 7
    assert prime_field(7).is_perfect
    assert rational_function_field(5).characteristic == 5
    assert not rational_function_field(5).is_perfect


def test_rational_arithmetic_matches_fraction():
    Q = rationals()
    rng = random.Random(0)
    for _ in range(200):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        fa, fb = Q.from_fraction(a), Q.from_fraction(b)
        assert (fa + fb).value == a + b
        assert (fa - fb).value == a - b
        assert (fa * fb).value == a * b
        if b:
            assert (fa / fb).value == a / b
        assert (-fa).value == -a
        assert (fa ** 3).value == a ** 3


def test_prime_field_inverses_and_negative_powers():
    F = prime_field(101)
    for n in range(1, 101):
        a = F.from_int(n)
        assert (a * a.inverse()).is_one()
        assert (a ** -2) == (a.inverse() ** 2)
    with pytest.raises(DivisionByZeroError):
        F.zero().inverse()


def test_division_by_zero_is_also_zerodivisionerror():
    F = prime_field(7)
    with pytest.raises(ZeroDivisionError):
        F.one() / F.zero()


def test_field_mismatch_rejected():
    a = prime_field(7).one()
    b = prime_field(11).one()
    with pytest.raises(FieldMismatchError):
        _ = a + b


def test_fpt_reduction_is_canonical():
    K = rational_function_field(5)
    t = K.t()
    one = K.one()
    # (t^2 - 1)/(t - 1) = t + 1
    num = t * t - one
    den = t - one
    q = num / den
    assert q == t + one
    assert q.canonical_text() == "t + 1"
    # denominator is forced monic: 1/(2t) = 3/t over F_5 (2*3=6=1)
    r = one / (K.from_int(2) * t)
    assert r.canonical_text() == "(3)/(t)"


def test_fpt_reduce_short_path_matches_full_reduction():
    # a denominator of 1 returns at once; the pair must be the one the full
    # reduction (gcd, division, monic denominator) gives for num*d / d,
    # d of positive degree and often not monic
    p = 3
    rng = random.Random(6)
    for _ in range(200):
        num = pstrip([rng.randrange(p) for _ in range(rng.randint(0, 8))])
        d = pstrip([rng.randrange(p) for _ in range(rng.randint(2, 5))])
        if len(d) < 2:
            continue
        full = _fpt_reduce(naive_pmul(num, d, p), d, p)
        assert _fpt_reduce(num, (1,), p) == full
        assert full == (num, (1,))


@pytest.mark.parametrize("p", [3, 7])
def test_fpt_sum_matches_the_general_formula(p):
    # a sum over equal denominators adds the numerators and reduces once;
    # it must give the pair an/ad + bn/bd = (an*bd + bn*ad)/(ad*bd) does
    add = rational_function_field(p).ops.add
    rng = random.Random(f"fpt-add/{p}")
    dens = [(1,), (0, 1), (1, 1), (2, 0, 1), (1, 2, 0, 1)]    # monic

    def value(d):
        """A reduced value whose denominator is exactly d."""
        while True:
            num = pstrip([rng.randrange(p) for _ in range(rng.randint(0, 5))])
            v = _fpt_reduce(num, d, p)
            if v[1] == d:
                return v

    shared = 0
    for _ in range(400):
        ad = rng.choice(dens)
        bd = ad if rng.random() < 0.5 else rng.choice(dens)
        (an, _), (bn, _) = a, b = value(ad), value(bd)
        general = _fpt_reduce(
            padd(naive_pmul(an, bd, p), naive_pmul(bn, ad, p), p),
            naive_pmul(ad, bd, p), p)
        assert add(a, b) == general
        shared += ad == bd != (1,)
    assert shared >= 100


def test_fpt_arithmetic_field_axioms_fuzz():
    K = rational_function_field(3)
    rng = random.Random(4)

    def rand():
        num = tuple(rng.randrange(3) for _ in range(rng.randint(1, 3)))
        den = tuple(rng.randrange(3) for _ in range(rng.randint(1, 3)))
        if not any(den):
            den = (1,)
        return K.from_t_fraction(num, den)

    for _ in range(100):
        a, b, c = rand(), rand(), rand()
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert (a - b) + b == a
        if b:
            assert (a / b) * b == a


def test_frobenius_power():
    F = prime_field(5)
    for n in range(5):
        a = F.from_int(n)
        assert frobenius_power(a, 1) == a ** 5 == a    # Fermat
    K = rational_function_field(5)
    t = K.t()
    assert frobenius_power(t, 1) == t ** 5
    assert frobenius_power(t + K.one(), 1) == t ** 5 + K.one()  # freshman's dream


def test_frobenius_power_is_a_ring_homomorphism():
    K = rational_function_field(5)
    rng = random.Random(17)

    def rand():
        num = tuple(rng.randrange(5) for _ in range(rng.randint(1, 3)))
        den = tuple(rng.randrange(5) for _ in range(rng.randint(1, 3)))
        if not any(den):
            den = (1,)
        return K.from_t_fraction(num, den)

    for _ in range(40):
        a, b = rand(), rand()
        e = rng.randint(1, 2)
        assert frobenius_power(a * b, e) == \
            frobenius_power(a, e) * frobenius_power(b, e)
        assert frobenius_power(a + b, e) == \
            frobenius_power(a, e) + frobenius_power(b, e)
    F = prime_field(13)
    for n in range(13):
        c = F.from_int(n)
        assert frobenius_power(c, 1) == c


def test_frobenius_char_zero_unsupported():
    with pytest.raises(UnsupportedFieldError):
        frobenius_power(rationals().one(), 1)


def test_canonical_text_forms():
    Q = rationals()
    assert Q.from_fraction(Fraction(-3, 4)).canonical_text() == "-3/4"
    assert Q.from_int(5).canonical_text() == "5"
    F = prime_field(7)
    assert F.from_int(-1).canonical_text() == "6"
    K = rational_function_field(5)
    assert K.t().canonical_text() == "t"
    assert (K.t() ** 5 * K.from_int(4)).canonical_text() == "4*t^5"
    assert K.zero().canonical_text() == "0"
    frac = (K.t() + K.one()) / (K.t() + K.from_int(2))
    assert frac.canonical_text() == "(t + 1)/(t + 2)"


def test_from_fraction_reduces_mod_p():
    F = prime_field(7)
    # 1/2 = 4 mod 7
    assert F.from_fraction(Fraction(1, 2)).value == 4
    with pytest.raises(TolerantError):
        prime_field(2).from_fraction(Fraction(1, 2))


def _cleared_cases():
    """(field, lists of values) per field: zeros, a one-element and an
    empty list; non-integral values over Q, t-denominators over F_3(t)."""
    Q, F7, F3T = rationals(), prime_field(7), rational_function_field(3)
    q = [Q.from_fraction(Fraction(n, d))
         for n, d in ((3, 4), (0, 1), (-5, 6), (2, 1), (7, 10), (1, 12))]
    fp = [F7.from_int(n) for n in (3, 0, 6, 1)]
    t, one = F3T.t(), F3T.one()
    fpt = [one / (t + one), F3T.zero(), t / (t + one), (t + one + one) / t,
           t * t, one / (t * t + one)]
    return [(F, [vs, vs[2:3], vs[1:2], []]) for F, vs in
            ((Q, q), (F7, fp), (F3T, fpt))]


def _t_lcm(dens, p):
    """Monic lcm of F_p[t] tuples, by gcds of F_p[x] polynomials."""
    F = prime_field(p)
    acc = Polynomial.one(F)
    for d in dens:
        d = Polynomial.from_raw(F, d)
        acc = (acc * d).exact_div(acc.gcd(d))
    return acc.monic().raw


@pytest.mark.parametrize("F,lists", _cleared_cases(),
                         ids=["q", "fp:7", "fpt:3"])
def test_cleared_gives_numerators_over_the_lcm_of_the_denominators(F, lists):
    """``FieldOps.cleared(values)`` is (numerators, d): d the lcm of the
    values' denominators, monic over F_p[t], and rebuild(num_i, d) = v_i.
    Over F_p, d is 1 and the numerators are the values themselves."""
    ops = F.ops
    for values in lists:
        raw = [v.value for v in values]
        nums, d = ops.cleared(raw)
        if F.kind is FieldKind.RATIONALS:
            assert d == math.lcm(*(v.denominator for v in raw))
        elif F.kind is FieldKind.PRIME_FIELD:
            assert d == 1 and list(nums) == raw
        else:
            assert d == _t_lcm([den for _, den in raw], F.p) and d[-1] == 1
        assert len(nums) == len(raw)
        assert [ops.rebuild(n, d) for n in nums] == raw
