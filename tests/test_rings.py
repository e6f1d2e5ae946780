"""Kernel checks: tuple polynomial helpers, the Bareiss determinant against
a cofactor-expansion oracle, and the subresultant resultant against Bareiss
on the Sylvester matrix, over every ring the package uses."""

import random
import struct
from fractions import Fraction
from types import SimpleNamespace

import pytest

from tolerant import _rings, rationals
from tolerant._rings import (KRON_MUL_MIN, PMUL_KRON_MIN, PMUL_WIDE_KRON_MIN,
                             TMUL_KRON_MIN, TMUL_KRON_SPREAD,
                             InexactDivision, bareiss_det, fp_poly_ring,
                             fp_resultant, fpt_u_ring, int_ring, kron_mul,
                             kron_poly_ring, kron_tmul, mod_ring, naive_det,
                             pdivmod, pgcd, plcm, pmod, pmonic, pmul,
                             ppow_mod, primitive_gcd, pseudo_divmod, pstrip,
                             ring_pow, subresultant, tuple_poly_ring)

from conftest import naive_pmul, naive_tmul


def rand_tuple(rng, p, max_deg):
    return pstrip(tuple(rng.randrange(p) for _ in range(rng.randint(0, max_deg + 1))))


def test_pstrip_removes_leading_zeros():
    assert pstrip((1, 2, 0, 0)) == (1, 2)
    assert pstrip((0, 0)) == ()
    assert pstrip(()) == ()


def test_pdivmod_property_mod_p():
    rng = random.Random(1)
    p = 13
    for _ in range(200):
        g = rand_tuple(rng, p, 5)
        if not g:
            continue
        f = rand_tuple(rng, p, 9)
        q, r = pdivmod(f, g, p)
        assert pstrip(tuple((a + b) % p for a, b in
                            zip(pmul(q, g, p) + (0,) * 12, r + (0,) * 12))) == f
        assert len(r) < len(g) or r == ()


def test_pgcd_divides_both_and_is_monic():
    rng = random.Random(2)
    p = 7
    for _ in range(100):
        f, g = rand_tuple(rng, p, 6), rand_tuple(rng, p, 6)
        d = pgcd(f, g, p)
        if f == () and g == ():
            assert d == ()
            continue
        assert d[-1] == 1
        if f:
            assert pmod(f, d, p) == ()
        if g:
            assert pmod(g, d, p) == ()


def test_plcm_divisible_by_both():
    rng = random.Random(3)
    p = 5
    for _ in range(100):
        f, g = rand_tuple(rng, p, 4), rand_tuple(rng, p, 4)
        m = plcm(f, g, p)
        if not f or not g:
            assert m == ()
            continue
        assert m[-1] == 1
        assert pmod(m, pmonic(f, p), p) == ()
        assert pmod(m, pmonic(g, p), p) == ()


def test_plcm_with_one_or_itself():
    p = 5
    for f in ((1,), (2, 1), (3, 0, 2)):
        monic = pmonic(f, p)
        assert plcm(f, (1,), p) == plcm((1,), f, p) == monic
        assert plcm(f, f, p) == monic


def test_kron_mul_matches_convolution():
    # signed coefficients of 1 to 3000 bits, and values at the slot limits
    rng = random.Random(31)

    def conv(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    cases = []
    for _ in range(300):
        bits = rng.choice((1, 8, 64, 3000))
        a, b = ([rng.randint(-2 ** bits, 2 ** bits)
                 for _ in range(rng.randint(1, 10))] for _ in range(2))
        cases.append((a, b))
    for w in (1, 2, 3):
        m = 2 ** (8 * w)
        cases += [([m] * 9, [-m] * 9), ([-m] * 9, [-m] * 9),
                  ([m - 1, 0, 1 - m], [1 - m]), ([0, 0, 1], [m, 0, m])]
    for a, b in cases:
        assert kron_mul(a, b) == conv(a, b)
        assert kron_mul(a, a) == conv(a, a)


def test_kron_tmul_matches_convolution():
    rng = random.Random(32)
    for p in (2, 3, 2 ** 31 - 1):
        for _ in range(100):
            a, b = ([rand_tuple(rng, p, 5) for _ in range(rng.randint(1, 6))]
                    for _ in range(2))
            a[-1], b[-1] = a[-1] or (1,), b[-1] or (p - 1,)
            assert tuple(kron_tmul(a, b, p)) == naive_tmul(a, b, p)


def sparse_tuple(rng, p, length, nonzero):
    """A length-``length`` F_p[t] tuple with exactly ``nonzero`` nonzero
    entries, the last among them; ``p - 1`` often, so that product
    coefficients reach the slot bound."""
    out = [0] * length
    for i in rng.sample(range(length - 1), nonzero - 1) + [length - 1]:
        out[i] = p - 1 if rng.random() < 0.3 else rng.randrange(1, p)
    return tuple(out)


PMUL_PRIMES = [2, 3, 7, 17, 257, 10007, 65537, 2 ** 31 - 1, 2 ** 61 - 1]


def slot_edges(p, longest=600):
    """Shorter-operand lengths up to ``longest`` on each side of every slot
    bound: (p-1)^2 * len below and at or above 2^8, 2^16, 2^24, 2^32, 2^40
    and 2^64, where the slots widen from 1, 2, 3, 4 and 5 bytes and the
    packing leaves the machine word."""
    out = set()
    for bits in (8, 16, 24, 32, 40, 64):
        edge = -(-2 ** bits // (p - 1) ** 2)   # least length reaching 2^bits
        out.update(n for n in (edge - 1, edge) if 1 <= n <= longest)
    return sorted(out)


@pytest.mark.parametrize("p", PMUL_PRIMES)
def test_pmul_matches_schoolbook_across_the_crossover(p):
    # shorter-operand nonzero counts 1..64 put the product on both sides of
    # PMUL_KRON_MIN and PMUL_WIDE_KRON_MIN: dense operands, interior zeros,
    # monomials, squares
    assert 1 < PMUL_KRON_MIN <= PMUL_WIDE_KRON_MIN <= 64
    rng = random.Random(f"pmul/{p}")
    for s in range(1, 65):
        dense = sparse_tuple(rng, p, s, s)
        spread = sparse_tuple(rng, p, 3 * s, s)
        longer = sparse_tuple(rng, p, s + rng.randint(0, 80), s)
        top = (p - 1,) * s                  # every coefficient at the bound
        monomial = (0,) * rng.randint(0, 40) + (rng.randrange(1, p),)
        for a, b in ((dense, longer), (longer, dense), (spread, longer),
                     (spread, dense), (top, top), (monomial, spread),
                     (dense, monomial)):
            assert pmul(a, b, p) == naive_pmul(a, b, p), (p, s, a, b)
        for a in (dense, spread, top):
            assert pmul(a, a, p) == naive_pmul(a, a, p)
        # F_p[t] has no zero divisors: only a zero operand gives ()
        assert pmul(dense, (), p) == pmul((), spread, p) == ()


@pytest.mark.parametrize("p", PMUL_PRIMES)
def test_pmul_at_every_slot_width(p, monkeypatch):
    # lengths that put (p-1)^2 * len on each side of every slot bound, with
    # every coefficient at p - 1 (the largest product coefficients) or
    # random.  Which packing ran is recorded: struct-packed standard slots
    # below p = 2^30, exact-width slots one coefficient at a time from
    # p = 2^31 - 1 on, and for p = 10007 and 65537 also at 600 entries,
    # where 5- and 6-byte slots rounded up to 8 would pass ROUND_UP_BYTES
    packed, exact = [], []
    real_unpack, real_exact = struct.unpack, _rings._pmul_exact

    def unpack(fmt, data):
        packed.append(fmt)
        return real_unpack(fmt, data)

    def exact_width(*args):
        exact.append(args[-1])
        return real_exact(*args)

    monkeypatch.setattr(_rings, "struct",
                        SimpleNamespace(pack=struct.pack, unpack=unpack))
    monkeypatch.setattr(_rings, "_pmul_exact", exact_width)
    rng = random.Random(f"pmul-slots/{p}")
    for n in slot_edges(p) + [1, 2, PMUL_KRON_MIN, PMUL_WIDE_KRON_MIN, 600]:
        top = (p - 1,) * n
        other = sparse_tuple(rng, p, n + rng.randint(0, 3), n)
        for a, b in ((top, top), (top, other), (other, top)):
            assert pmul(a, b, p) == naive_pmul(a, b, p), (p, n)
    assert bool(packed) is (p < 2 ** 30)
    assert bool(exact) is (p in (10007, 65537) or p > 2 ** 30)
    if p < 2 ** 30:                 # only long products of 5 or 6 bytes
        assert set(exact) <= {5, 6}


@pytest.mark.parametrize("p", PMUL_PRIMES)
def test_pmul_unit_constant_and_list_operands(p):
    # a unit or constant operand scales the other one, on either side; list
    # operands give the same tuple as tuples do
    rng = random.Random(f"pmul-lists/{p}")
    for n in (1, 3, PMUL_KRON_MIN, 40):
        a = sparse_tuple(rng, p, n, n)
        c = (rng.randrange(2, p) if p > 2 else 1,)
        for x, y in ((a, (1,)), ((1,), a), (a, c), (c, a)):
            got = pmul(x, y, p)
            assert type(got) is tuple and got == naive_pmul(x, y, p)
        b = sparse_tuple(rng, p, n + 2, n)
        for x, y in ((list(a), list(b)), (list(a), b), (a, list(b))):
            got = pmul(x, y, p)
            assert type(got) is tuple and got == naive_pmul(a, b, p)
        assert pmul([], list(a), p) == ()


# The u-ring of Q, Z[u]; below, p = 0 stands for it next to the u-ring of
# F_p(t).
Q_U_RING = rationals().ops.u_ring


def u_ring(p):
    """The u-ring of F_p(t), or of Q for p = 0, built on each call, so that
    it takes a patched ``_rings.kron_mul``."""
    if p:
        return fpt_u_ring(p)
    return kron_poly_ring(int_ring(), _rings.kron_mul, KRON_MUL_MIN)


def least_kron(p):
    """The nonzero u-coefficients each operand needs for a Kronecker
    product in the u-ring of F_p(t), or of Q for p = 0."""
    return TMUL_KRON_MIN if p else KRON_MUL_MIN


def u_poly(rng, p, length, nonzero, t_len):
    """An element of the u-ring of F_p(t), or of Q for p = 0, of u-length
    ``length`` with ``nonzero`` nonzero u-coefficients, the last among them:
    F_p[t] tuples of t-length 1 to ``t_len``, or signed ints of up to
    20 * ``t_len`` bits."""
    out = [() if p else 0] * length
    for i in rng.sample(range(length - 1), nonzero - 1) + [length - 1]:
        if p:
            out[i] = rand_tuple(rng, p, t_len - 1) or (rng.randrange(1, p),)
        else:
            out[i] = rng.choice((-1, 1)) * rng.randint(1, 2 ** (20 * t_len))
    return tuple(out)


def naive_umul(a, b, p):
    """a * b by the schoolbook convolution in the u-ring of F_p(t), or of Q
    for p = 0."""
    if p:
        return naive_tmul(a, b, p)
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return pstrip(out)


@pytest.mark.parametrize("p", [2, 3, 7, 10007, 0])
def test_fpt_u_ring_product_matches_schoolbook(p):
    # the u-ring of F_p(t), and for p = 0 that of Q, against the plain ring
    # and the oracle, with operands on both sides of the least nonzero count
    # (TMUL_KRON_MIN, for Q KRON_MUL_MIN) and of TMUL_KRON_SPREAD
    R = u_ring(p)
    plain = tuple_poly_ring(fp_poly_ring(p) if p else int_ring())
    rng = random.Random(f"tmul/{p}")
    least = least_kron(p)
    edge = least * TMUL_KRON_SPREAD
    # (u-length, nonzero u-coefficients): dense at every length up to 8,
    # sparse at the spread bound and one past it, long and very sparse, and
    # dense just below and at the least count
    shapes = [(n, n) for n in range(1, 9)] + [
        (edge, least), (edge + 1, least), (20, 16), (40, 4), (30, 2),
        (least - 1, least - 1), (least, least)]
    for length, nonzero in shapes:
        for _ in range(4):
            a = u_poly(rng, p, length, nonzero, rng.choice((1, 3, 20)))
            n = rng.randint(1, 2 * least + 6)
            b = u_poly(rng, p, n, rng.randint(1, n), 3)
            for x, y in ((a, a), (a, b), (b, a)):
                assert R.mul(x, y) == plain.mul(x, y) == naive_umul(x, y, p)
    unit = ((1,),) if p else (1,)
    assert R.mul((), unit) == R.mul(unit, ()) == ()


@pytest.mark.parametrize("p", [3, 0])
def test_fpt_u_ring_takes_both_paths(p, monkeypatch):
    # the product is one Kronecker product exactly when both operands have
    # at least TMUL_KRON_MIN (over Q, KRON_MUL_MIN) nonzero u-coefficients,
    # one in TMUL_KRON_SPREAD or more; kron_tmul packs into one kron_mul,
    # which is counted
    calls = []

    def counted(a, b):
        calls.append(1)
        return kron_mul(a, b)

    monkeypatch.setattr(_rings, "kron_mul", counted)
    R = u_ring(p)
    rng = random.Random(7)
    least = least_kron(p)
    edge = least * TMUL_KRON_SPREAD
    dense = u_poly(rng, p, least, least, 3)
    for a, b, kron in (
            (dense, dense, True),
            (dense, u_poly(rng, p, edge, least, 3), True),
            (dense, u_poly(rng, p, edge + 1, least, 3), False),
            (dense, u_poly(rng, p, least + 2, least - 1, 3), False)):
        calls.clear()
        assert R.mul(a, b) == naive_umul(a, b, p)
        assert calls == ([1] if kron else [])


def test_ppow_mod_matches_repeated_multiplication():
    p = 11
    f = (3, 1)          # x + 3
    m = (1, 0, 0, 1)    # x^3 + 1
    acc = (1,)
    for e in range(10):
        assert ppow_mod(f, e, m, p) == acc
        acc = pmod(pmul(acc, f, p), m, p)


def rand_matrix(rng, n, gen):
    return [[gen() for _ in range(n)] for _ in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bareiss_matches_cofactor_over_z(n):
    rng = random.Random(10 + n)
    R = int_ring()
    for _ in range(20):
        rows = rand_matrix(rng, n, lambda: rng.randint(-9, 9))
        assert bareiss_det([r[:] for r in rows], R) == naive_det(rows, R)


def test_bareiss_matches_cofactor_mod_p():
    rng = random.Random(20)
    R = mod_ring(101)
    for n in range(1, 6):
        for _ in range(15):
            rows = rand_matrix(rng, n, lambda: rng.randrange(101))
            assert bareiss_det([r[:] for r in rows], R) == naive_det(rows, R)


def test_bareiss_matches_cofactor_over_fp_polys():
    rng = random.Random(30)
    p = 5
    R = fp_poly_ring(p)
    for n in range(1, 5):
        for _ in range(10):
            rows = rand_matrix(rng, n, lambda: rand_tuple(rng, p, 2))
            assert bareiss_det([r[:] for r in rows], R) == naive_det(rows, R)


def test_bareiss_matches_cofactor_over_int_polys():
    rng = random.Random(40)
    R = Q_U_RING
    for n in range(1, 5):
        for _ in range(10):
            rows = rand_matrix(
                rng, n,
                lambda: pstrip(tuple(rng.randint(-4, 4)
                                     for _ in range(rng.randint(0, 3)))))
            assert bareiss_det([r[:] for r in rows], R) == naive_det(rows, R)


def test_bareiss_matches_cofactor_over_nested_tuples():
    rng = random.Random(50)
    inner = mod_ring(3)
    R = tuple_poly_ring(inner)
    for n in range(1, 4):
        for _ in range(10):
            rows = rand_matrix(
                rng, n,
                lambda: pstrip(tuple(rng.randrange(3)
                                     for _ in range(rng.randint(0, 3)))))
            assert bareiss_det([r[:] for r in rows], R) == naive_det(rows, R)


def test_bareiss_singular_and_permutation_sign():
    R = int_ring()
    assert bareiss_det([[1, 2], [2, 4]], R) == 0
    assert bareiss_det([[0, 1], [1, 0]], R) == -1
    assert bareiss_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]], R) == -1
    # zero row ends elimination early
    assert bareiss_det([[1, 2, 3], [0, 0, 0], [4, 5, 6]], R) == 0


def test_bareiss_vandermonde_closed_form():
    R = int_ring()
    xs = [2, 3, 5, 7]
    rows = [[x ** j for j in range(len(xs))] for x in xs]
    expected = 1
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            expected *= xs[j] - xs[i]
    assert bareiss_det(rows, R) == expected


def test_int_poly_ring_exact_division_guard():
    R = Q_U_RING
    with pytest.raises(InexactDivision):
        R.exact_div((1, 1), (2,))   # (x + 1) / 2 not integral


# -- the subresultant kernel against Bareiss on the Sylvester matrix ---------


def sylvester(a, b, R):
    """Sylvester matrix, deg(b) rows of a above deg(a) rows of b; each row
    holds coefficients highest degree first."""
    da, db = len(a) - 1, len(b) - 1
    size = da + db
    rows = []
    for coeffs, shifts in ((a, db), (b, da)):
        for i in range(shifts):
            row = [R.zero] * size
            for j, c in enumerate(reversed(coeffs)):
                row[i + j] = c
            rows.append(row)
    return rows


def poly_mul(a, b, R):
    out = [R.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = R.add(out[i + j], R.mul(x, y))
    return out


def int_tuple(rng, lo, hi, max_len):
    return pstrip(tuple(rng.randint(lo, hi) for _ in range(rng.randint(0, max_len))))


def nested_tuple(rng):
    """An F_3[t][u] element: up to two u-coefficients in F_3[t]."""
    out = [rand_tuple(rng, 3, 1) for _ in range(rng.randint(0, 2))]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def wide_nested_tuple(rng):
    """An F_3[t][u] element with up to four u-coefficients, mostly nonzero,
    so that products in ``fpt_u_ring`` fall on both sides of its bounds."""
    return pstrip([rand_tuple(rng, 3, 1) for _ in range(rng.randint(0, 4))])


# (ring, random element, a fixed non-unit for leading coefficients); these are
# the numerator rings and u-rings of Q, F_p and F_p(t) in ``FieldOps``.
KERNEL_RINGS = {
    "Z": (int_ring(), lambda rng: rng.randint(-5, 5), 2),
    "F_101": (mod_ring(101), lambda rng: rng.randrange(101), 3),
    "F_3[t]": (fp_poly_ring(3), lambda rng: rand_tuple(rng, 3, 2), (1, 1)),
    "Z[u]": (Q_U_RING, lambda rng: int_tuple(rng, -3, 3, 3), (2, 1)),
    "F_7[u]": (fp_poly_ring(7), lambda rng: rand_tuple(rng, 7, 2), (0, 1)),
    "F_3[t][u]": (tuple_poly_ring(fp_poly_ring(3)), nested_tuple,
                  ((1,), (0, 1))),
    "F_3(t) u-ring": (fpt_u_ring(3), wide_nested_tuple,
                      ((1,), (0, 1), (1, 1))),
}


def rand_poly(rng, ring, degree, support=None):
    """Degree-``degree`` coefficient list over ``ring`` (a KERNEL_RINGS
    entry) whose leading coefficient is the non-unit times a nonzero value;
    lower terms only at the degrees in ``support``."""
    R, gen, weight = ring
    coeffs = [R.zero] * degree
    for i in range(degree) if support is None else support:
        coeffs[i] = gen(rng)
    lead = R.zero
    while not lead:
        lead = gen(rng)
    return coeffs + [R.mul(weight, lead)]


def remainder_degrees(a, b):
    """Degrees of the Euclidean remainder sequence of two integer lists over
    Q, starting with deg a >= deg b."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    out = [len(a) - 1, len(b) - 1]
    while len(b) > 1:
        r = a[:]
        while len(r) >= len(b):
            c = r[-1] / b[-1]
            shift = len(r) - len(b)
            for j, y in enumerate(b):
                r[shift + j] -= c * y
            r.pop()
            while r and not r[-1]:
                r.pop()
        if not r:
            break
        a, b = b, r
        out.append(len(b) - 1)
    return out


def kernel_cases(rng, ring):
    """Operand pairs covering every branch of the kernel's sign and scale
    rules."""
    R = ring[0]
    # dense, every pair of degrees up to 4: constants, both degrees odd,
    # deg a < deg b
    cases = [(rand_poly(rng, ring, da), rand_poly(rng, ring, db))
             for da in range(5) for db in range(5)]
    # sparse operands give degree gaps inside the remainder sequence:
    # 7,5,3,2,..; 9,6,4,3,..; swapped 5,7; and 7,3,1,0 or 7,3,0, which ends
    # on a constant after a gap
    for (da, sa), (db, sb) in [((7, range(3)), (5, range(2))),
                               ((9, range(3)), (6, range(2))),
                               ((5, range(2)), (7, range(3))),
                               ((7, (0,)), (3, (1,)))]:
        for _ in range(2):
            cases.append((rand_poly(rng, ring, da, sa),
                          rand_poly(rng, ring, db, sb)))
    # a shared factor of degree 1 or 2: the resultant is zero
    for dc, da, db in [(1, 2, 3), (2, 1, 1), (1, 3, 0)]:
        c = rand_poly(rng, ring, dc)
        cases.append((poly_mul(c, rand_poly(rng, ring, da), R),
                      poly_mul(c, rand_poly(rng, ring, db), R)))
    return cases


@pytest.mark.parametrize("name", list(KERNEL_RINGS))
def test_subresultant_matches_bareiss_on_sylvester(name):
    R = KERNEL_RINGS[name][0]
    rng = random.Random(60 + list(KERNEL_RINGS).index(name))
    zeros = 0
    for a, b in kernel_cases(rng, KERNEL_RINGS[name]):
        expected = bareiss_det(sylvester(a, b, R), R)
        assert subresultant(a, b, R)[0] == expected, (name, a, b)
        zeros += not expected
    assert zeros >= 3


def test_kernel_cases_cover_gaps_and_sign_rules():
    cases = kernel_cases(random.Random(60), KERNEL_RINGS["Z"])
    inner_gaps = 0
    for a, b in cases:
        if len(a) >= len(b) > 1:
            degrees = remainder_degrees(a, b)
            inner_gaps += any(x - y >= 2 for x, y in zip(degrees[1:], degrees[2:]))
    assert inner_gaps >= 4
    assert any(len(a) < len(b) and len(a) % 2 == 0 and len(b) % 2 == 0
               for a, b in cases)                  # swapped, both degrees odd
    assert any(len(a) % 2 == 0 and len(b) % 2 == 0 and len(a) > len(b)
               for a, b in cases)
    assert any(len(a) == 1 and len(b) > 1 for a, b in cases)
    assert any(len(b) == 1 and len(a) > 1 for a, b in cases)


def test_subresultant_constants_and_swap_sign():
    R = int_ring()
    assert subresultant([3], [5], R)[0] == 1
    assert subresultant([3], [1, 2, 1], R)[0] == 9     # 3^deg b
    assert subresultant([1, 0, 1], [-2], R)[0] == 4    # (-2)^deg a
    a, b = [1, 2, 0, 3], [5, 0, 1, 0, 2, 7]
    assert subresultant(a, b, R)[0] == -subresultant(b, a, R)[0]  # 3 * 5 odd
    assert subresultant([-6, 1], [-1, 0, 1], R)[0] == 35  # x-6, x^2-1: 36-1


# -- the F_p kernel: Euclid over the field ----------------------------------

FP_KERNEL_PRIMES = [2, 3, 10007, 2 ** 31 - 1]


def fp_kernel_ring(p):
    """A KERNEL_RINGS-style entry for F_p: residues, leading coefficients
    scaled by 2 (by 1 over F_2)."""
    return mod_ring(p), lambda rng: rng.randrange(p), 2 % p or 1


@pytest.mark.parametrize("p", FP_KERNEL_PRIMES)
def test_fp_resultant_matches_bareiss_on_sylvester(p):
    # every kernel case: all degree pairs up to 4 (constants, deg a < deg b,
    # both degrees odd), degree gaps, and shared factors (zero resultants);
    # the PRS over F_p agrees too
    ring = fp_kernel_ring(p)
    R = ring[0]
    rng = random.Random(f"fp-kernel/{p}")
    zeros = 0
    for a, b in kernel_cases(rng, ring):
        expected = bareiss_det(sylvester(a, b, R), R)
        assert fp_resultant(a, b, p)[0] == expected, (p, a, b)
        assert subresultant(a, b, R)[0] == expected
        zeros += not expected
    assert zeros >= 3


@pytest.mark.parametrize("p", FP_KERNEL_PRIMES)
def test_fp_resultant_constants_and_sign_rule(p):
    c, d = 3 % p or 1, 5 % p or 1
    assert fp_resultant([c], [d], p) == (1, [d])
    assert fp_resultant([c], [1, 2 % p, 1], p)[0] == c * c % p   # c^deg b
    assert fp_resultant([1, 0, 1], [d], p)[0] == d * d % p       # d^deg a
    rng = random.Random(f"fp-sign/{p}")
    ring = fp_kernel_ring(p)
    for da, db in ((1, 3), (3, 5), (2, 3), (1, 4), (0, 3)):
        a, b = rand_poly(rng, ring, da), rand_poly(rng, ring, db)
        # deg a < deg b: res(a, b) = (-1)^(deg a * deg b) res(b, a)
        sign = -1 if da * db % 2 else 1
        assert fp_resultant(a, b, p)[0] == sign * fp_resultant(b, a, p)[0] % p
        assert fp_resultant(a, b, p)[0] == bareiss_det(sylvester(a, b, ring[0]),
                                                       ring[0])
    # x - 6 and x^2 - 1: (6^2 - 1) = 35
    assert fp_resultant([-6 % p, 1], [p - 1, 0, 1], p)[0] == 35 % p


@pytest.mark.parametrize("p", FP_KERNEL_PRIMES)
def test_fp_resultant_ends_on_an_associate_of_the_gcd(p):
    """On a zero resultant Euclid ends on the gcd up to a unit; on a nonzero
    one, on a nonzero constant."""
    ring = fp_kernel_ring(p)
    R = ring[0]
    rng = random.Random(f"fp-gcd/{p}")
    shared = 0
    for _ in range(40):
        a0, b0 = (rand_poly(rng, ring, rng.randint(0, 4)) for _ in range(2))
        res0, last0 = fp_resultant(a0, b0, p)
        assert res0 == bareiss_det(sylvester(a0, b0, R), R)
        if not res0:
            continue
        assert len(last0) == 1 and last0[0]
        c = rand_poly(rng, ring, rng.randint(1, 3))
        res, last = fp_resultant(poly_mul(c, a0, R), poly_mul(c, b0, R), p)
        assert not res and associates(last, c, R), (p, a0, b0, c)
        shared += 1
    assert shared >= 15


# the numerator rings of Q, F_p and F_p(t), whose remainder sequences give
# Polynomial.gcd over Q and gdisc's g_1 on every field
GCD_RINGS = ["Z", "F_101", "F_3[t]"]


@pytest.mark.parametrize("name", GCD_RINGS)
def test_pseudo_divmod_identity(name):
    ring = KERNEL_RINGS[name]
    R = ring[0]
    rng = random.Random(70 + GCD_RINGS.index(name))
    for _ in range(60):
        db = rng.randint(0, 4)
        # sparse dividends: steps over zero leading coefficients count nothing
        support = rng.sample(range(db + 6), rng.randint(0, db + 6))
        a = rand_poly(rng, ring, db + 6, support)
        b = rand_poly(rng, ring, db)
        q, r, e = pseudo_divmod(a, b, R)
        assert len(r) == db and 0 <= e <= len(a) - len(b) + 1
        lhs = [R.mul(ring_pow(b[-1], e, R), c) for c in a]
        rhs = poly_mul(q, b, R)
        for i, c in enumerate(r):
            rhs[i] = R.add(rhs[i], c)
        assert pstrip(lhs) == pstrip(rhs), (name, a, b)


def associates(f, g, R):
    """f and g differ by a factor of the fraction field: lc(g) f = lc(f) g."""
    return (len(f) == len(g)
            and [R.mul(g[-1], c) for c in f] == [R.mul(f[-1], c) for c in g])


@pytest.mark.parametrize("name", GCD_RINGS)
def test_subresultant_ends_on_an_associate_of_the_gcd(name):
    """On a zero resultant the remainder sequence ends on the gcd over the
    fraction field, up to a factor; on a nonzero one it ends on a nonzero
    constant, and the resultant is the Sylvester determinant."""
    ring = KERNEL_RINGS[name]
    R = ring[0]
    rng = random.Random(80 + GCD_RINGS.index(name))
    shared = 0
    for _ in range(40):
        a0, b0 = (rand_poly(rng, ring, rng.randint(0, 4)) for _ in range(2))
        res0, last0 = subresultant(a0, b0, R)
        assert res0 == bareiss_det(sylvester(a0, b0, R), R)
        if not res0:
            continue                # a0, b0 share a factor: no known gcd
        assert len(last0) == 1 and last0[0]
        c = rand_poly(rng, ring, rng.randint(1, 3))
        res, last = subresultant(poly_mul(c, a0, R), poly_mul(c, b0, R), R)
        assert not res and associates(last, c, R), (name, a0, b0, c)
        shared += 1
    assert shared >= 20


def test_primitive_gcd_is_an_associate_of_the_gcd():
    """Euclid on primitive pseudo-remainders over F_3[t] ends on the shared
    factor c, up to a factor in F_3(t), and on a constant for coprime
    operands."""
    ring = KERNEL_RINGS["F_3[t]"]
    R = ring[0]
    rng = random.Random(90)
    shared = 0
    for _ in range(40):
        a0, b0 = (rand_poly(rng, ring, rng.randint(0, 4)) for _ in range(2))
        if not subresultant(a0, b0, R)[0]:
            continue
        assert len(primitive_gcd(a0, b0, R, 3)) == 1
        c = rand_poly(rng, ring, rng.randint(1, 3))
        last = primitive_gcd(poly_mul(c, a0, R), poly_mul(c, b0, R), R, 3)
        assert associates(last, c, R), (a0, b0, c)
        shared += 1
    assert shared >= 20


def test_ring_pow():
    assert ring_pow(3, 0, int_ring()) == 1
    assert ring_pow(-2, 7, int_ring()) == -128
    assert ring_pow((1, 1), 3, fp_poly_ring(2)) == (1, 1, 1, 1)
