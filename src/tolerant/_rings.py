"""Internal exact-arithmetic kernels on raw Python values.

Field-generic code reaches raw values through a ``FieldOps`` call per
operation, which is too slow inside a resultant loop, so everything
performance-critical runs here on plain ints and tuples:

* ``pXXX`` functions: dense polynomials over F_p as tuples of residues,
  lowest degree first, normalized (no trailing zeros, ``()`` is zero).  These
  double as F_p[t] scalars for the rational function field and as F_p[x]
  values for factorization.  ``pmul`` returns a unit or constant operand's
  product without multiplying, and is otherwise one big-int product by
  Kronecker substitution from ``PMUL_KRON_MIN`` = 6 nonzero entries in the
  shorter operand on (``PMUL_WIDE_KRON_MIN`` = 8 when a slot needs more
  than 8 bytes), and the schoolbook loop below.  Slots of up to 8 bytes
  are packed and read back by ``struct`` at C speed, not one coefficient
  at a time.
* ``Ring`` bundles: a minimal integral-domain interface (add/sub/mul/exact
  division, and scaling by an int in the numerator rings) over some raw
  element type whose zero is falsy.  ``int_ring`` covers Z, ``mod_ring(p)``
  F_p, ``fp_poly_ring(p)`` F_p[t] (on ``pmul``), and ``tuple_poly_ring``
  dense R[y] for any base ``Ring`` R.
  ``kron_poly_ring`` is such an R[y] whose products go through a Kronecker
  product once both operands are dense enough: at least one entry in
  ``TMUL_KRON_SPREAD`` nonzero, and ``KRON_MUL_MIN`` = 12 nonzero entries
  for Z[u] on ``kron_mul`` (its own count: it is ``kron_mul``'s fixed cost,
  not ``pmul``'s), ``TMUL_KRON_MIN`` for F_p[t][u] on ``kron_tmul``
  (``fpt_u_ring``).  The polynomial rings Z[y], F_p[y] and
  F_p[t][y] are the u-rings of ``FieldOps``, and their ``mul`` is the one
  product of each, for ``Polynomial`` products and u-resultants alike.
* ``kron_mul`` and ``kron_tmul``: products in Z[y] and F_p[t][y] by
  Kronecker substitution.
* ``ring_pow`` and ``power_product``: a power by square and multiply, and
  a product of powers prod x_i^(e_i) by one squaring chain shared by all
  its terms (Straus).  ``tol_from_factorization`` evaluates its numerator
  and its denominator each as one ``power_product``.
* ``pseudo_divmod``: lc(b)^e * a = q * b + r over any ``Ring``, the
  ``Polynomial`` division over Q and F_p(t), on cleared numerators (over
  F_p that is ``pdivmod``), and the divisibility test and remainder of
  gdisc's chain.  ``primitive_gcd`` runs Euclid on primitive
  pseudo-remainders in F_p[t][x], the gcd of F_p(t), which the squarefree
  decomposition and gdisc's chain call on F_p[t][x] directly.
* ``subresultant``: res(a, b) over any ``Ring`` by the subresultant PRS,
  the resultant kernel of Z, F_p[t] and the u-rings, and ``fp_resultant``:
  res(a, b) over F_p by Euclid over the field, the kernel of F_p.  Each
  field's ``FieldOps.resultant`` is one of the two.  Both also return the
  last nonzero remainder, an associate of gcd(a, b) over the fraction
  field: ``Polynomial.gcd`` over Q and gdisc's g_1 = gcd(f, f') come from
  it.
* ``bareiss_det`` and ``naive_det``: exact determinants, kept as test
  oracles for the kernel.
"""

from __future__ import annotations

import operator
import struct
from typing import Any, Callable, NamedTuple, Sequence


def pstrip(c: list) -> tuple:
    """Drop trailing zeros; canonical zero is the empty tuple."""
    n = len(c)
    while n and not c[n - 1]:
        n -= 1
    return tuple(c[:n])


def padd(a: tuple, b: tuple, p: int) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return pstrip(out)


def psub(a: tuple, b: tuple, p: int) -> tuple:
    out = list(a) + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return pstrip(out)


def pneg(a: tuple, p: int) -> tuple:
    return tuple((-x) % p for x in a)


# Nonzero entries the shorter ``pmul`` operand needs before one big-int
# product beats the schoolbook loop.  Measured on random dense operands at
# p = 2, 3, 17, 257, 10007 and 65537 (CPython 3.11, x86-64): with slots of
# at most 8 bytes, which ``struct`` fills and reads at C speed, the product
# breaks even at 5 entries when both operands are that long and wins by
# 20-30 % at 6; with the other operand four times longer it wins from 3.  Slots wider than 8 bytes, which only p above about 2^30 needs at
# such lengths, are packed one coefficient at a time; there the product
# breaks even at 7 entries and wins from 8 (at p = 2^31 - 1).  Z[u] keeps
# its own count, ``KRON_MUL_MIN``.
PMUL_KRON_MIN = 6
PMUL_WIDE_KRON_MIN = 8

# The struct codes of the standard slot widths, and the standard width that
# holds w <= 8 bytes for each w.  A product whose width is not standard
# packs into the next standard one while the product stays within
# ``ROUND_UP_BYTES`` (with p = 10007, up to about 512 entries per operand),
# and in exact-width slots beyond: past that size the larger big-int
# product cost more than the packing saved (measured from 5 to 8 bytes).
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_STANDARD_WIDTH = (0, 1, 2, 4, 4, 8, 8, 8, 8)
ROUND_UP_BYTES = 8192


def pmul(a: tuple, b: tuple, p: int) -> tuple:
    """a * b in F_p[y] for tuples of residues in [0, p).

    A unit or constant operand scales the other one.  Otherwise it is
    Kronecker substitution with unsigned slots once the shorter operand has
    ``PMUL_KRON_MIN`` nonzero entries (``PMUL_WIDE_KRON_MIN`` for slots
    wider than 8 bytes), and the schoolbook loop below that.  A product
    coefficient is a sum of at most min(len a, len b) terms, each at most
    (p-1)^2, so slots of w bytes holding that bound never carry into each
    other.  Slots of 1, 2, 4 or 8 bytes are packed and read back by one
    ``struct`` call each; a square packs once."""
    la, lb = len(a), len(b)
    if la < lb:
        a, b, la, lb = b, a, lb, la
    if lb < 2:
        if not lb:
            return ()
        c = b[0]
        return tuple(a) if c == 1 else tuple([x * c % p for x in a])
    n = la + lb - 1
    # from p = 2^30 on, slots exceed 8 bytes at 16 entries at the latest,
    # so the wide count applies there without the slot width
    least = PMUL_KRON_MIN if p < 1 << 30 else PMUL_WIDE_KRON_MIN
    if lb >= least:
        nonzero = lb - b.count(0)
        if nonzero >= least:
            w = (((p - 1) ** 2 * lb).bit_length() + 7) // 8
            if w <= 8 and (w in _SLOT_CODES
                           or n * _STANDARD_WIDTH[w] <= ROUND_UP_BYTES):
                w = _STANDARD_WIDTH[w]
                fmt = "<%d" + _SLOT_CODES[w]
                packed = int.from_bytes(struct.pack(fmt % la, *a), "little")
                product = packed * (packed if b is a else int.from_bytes(
                    struct.pack(fmt % lb, *b), "little"))
                return pstrip([c % p for c in struct.unpack(
                    fmt % n, product.to_bytes(n * w, "little"))])
            if nonzero >= PMUL_WIDE_KRON_MIN:
                return _pmul_exact(a, b, p, n, w)
    out = [0] * n
    for i, x in enumerate(b):
        if x:
            for j, y in enumerate(a, i):
                if y:
                    out[j] += x * y
    return pstrip([c % p for c in out])


def _pmul_exact(a: Sequence, b: Sequence, p: int, n: int, w: int) -> tuple:
    """``pmul``'s Kronecker product in slots of exactly w bytes, each packed
    and read back one coefficient at a time: for slots wider than 8 bytes,
    and for long products whose width is not standard."""

    def pack(c: Sequence) -> int:
        return int.from_bytes(b"".join([x.to_bytes(w, "little") for x in c]),
                              "little")

    packed = pack(a)
    product = packed * (packed if b is a else pack(b))
    digits = product.to_bytes(n * w, "little")
    return pstrip([int.from_bytes(digits[i:i + w], "little") % p
                   for i in range(0, n * w, w)])


def pmul_ground(a: tuple, c: int, p: int) -> tuple:
    c %= p
    if not c:
        return ()
    return tuple(x * c % p for x in a)


def pdivmod(a: tuple, b: tuple, p: int) -> tuple[tuple, tuple]:
    """Euclidean division in F_p[y]; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    da = len(a) - 1
    if da < db:
        return (), a
    rem = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        c = rem[k + db] % p
        if c:
            c = c * inv % p
            q[k] = c
            for j in range(db + 1):
                rem[k + j] = (rem[k + j] - c * b[j]) % p
    return pstrip(q), pstrip(rem[:db])


def pmod(a: tuple, b: tuple, p: int) -> tuple:
    return pdivmod(a, b, p)[1]


def pgcd(a: tuple, b: tuple, p: int) -> tuple:
    """Monic gcd in F_p[y]; pgcd(0,0) = 0."""
    while b:
        a, b = b, pmod(a, b, p)
    return pmonic(a, p)


def plcm(a: tuple, b: tuple, p: int) -> tuple:
    """Monic least common multiple in F_p[t]; lcm with 0 is 0."""
    if not a or not b:
        return ()
    if b == (1,) or a == b:             # lcm(a, 1) = lcm(a, a) = a, no gcd
        return pmonic(a, p)
    if a == (1,):
        return pmonic(b, p)
    q = pdivmod(a, pgcd(a, b, p), p)[0]
    return pmonic(pmul(q, b, p), p)


def pmonic(a: tuple, p: int) -> tuple:
    if not a or a[-1] == 1:
        return a
    return pmul_ground(a, pow(a[-1], -1, p), p)


def ppow_mod(base: tuple, e: int, mod: tuple, p: int) -> tuple:
    """base**e reduced mod ``mod`` in F_p[y]; square and multiply."""
    result = (1,)
    base = pmod(base, mod, p)
    while e:
        if e & 1:
            result = pmod(pmul(result, base, p), mod, p)
        base = pmod(pmul(base, base, p), mod, p)
        e >>= 1
    return result


def pstretch(a: tuple, k: int) -> tuple:
    """Substitute y^k for y: spread coefficients k apart."""
    if not a or k == 1:
        return a
    out = [0] * ((len(a) - 1) * k + 1)
    for i, c in enumerate(a):
        out[i * k] = c
    return tuple(out)


def kron_mul(a: list, b: list) -> list:
    """a * b in Z[y] for nonempty int lists, lowest degree first, by
    Kronecker substitution (von zur Gathen & Gerhard, *Modern Computer
    Algebra*, 8.4): each operand becomes one int with its coefficients in
    slots of w bytes, the two ints are multiplied once, and the product's
    slots are read back as its coefficients.

    A product coefficient is a sum of at most min(len a, len b) terms, so
    |c| <= bound below < 2^(8w-1) = half.  Every value is stored as
    c + half, which lies in [0, 2^(8w)): no slot carries into the next and
    signs need no borrows, so the product is exact.  A square (b is a)
    packs once, and CPython squares faster than it multiplies."""
    n = len(a) + len(b) - 1
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    w = bound.bit_length() // 8 + 1
    half = 1 << (8 * w - 1)
    lift = bytes(w - 1) + b"\x80"           # one slot holding `half`

    def pack(c: list) -> int:
        digits = b"".join([(x + half).to_bytes(w, "little") for x in c])
        return (int.from_bytes(digits, "little")
                - int.from_bytes(lift * len(c), "little"))

    packed = pack(a)
    product = (packed * (packed if b is a else pack(b))
               + int.from_bytes(lift * n, "little"))
    digits = product.to_bytes(n * w, "little")
    return [int.from_bytes(digits[i:i + w], "little") - half
            for i in range(0, n * w, w)]


def kron_tmul(a: list, b: list, p: int) -> list:
    """a * b in F_p[t][y] for nonempty lists of F_p[t] tuples.  Two-level
    packing: each y-coefficient fills a y-slot of T t-slots, and T is one
    less than the longest t-tuples of a and b together, so no product
    coefficient spills into the next y-slot; one ``kron_mul`` then does
    the whole product."""
    T = max(map(len, a)) + max(map(len, b)) - 1
    pad = (0,) * T

    def flat(c: list) -> list:
        return [x for v in c for x in v + pad[len(v):]]

    flat_a = flat(a)
    product = kron_mul(flat_a, flat_a if b is a else flat(b))
    return [pstrip([c % p for c in product[i:i + T]])
            for i in range(0, (len(a) + len(b) - 1) * T, T)]


class Ring(NamedTuple):
    """Integral-domain operations over one raw element type; its zero is
    the one falsy element (0 or the empty tuple), so ``not x`` tests it.
    ``times_int(x, n)`` is x times the image of the int n, in the numerator
    rings of the fields (Z, F_p and F_p[t]); the polynomial rings over them
    leave it out."""

    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    sub: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    neg: Callable[[Any], Any]
    exact_div: Callable[[Any, Any], Any]
    times_int: Callable[[Any, int], Any] = None


class InexactDivision(ArithmeticError):
    """Internal bug guard: a division that must be exact was not."""


def int_ring() -> Ring:
    def exact_div(a: int, b: int) -> int:
        q, r = divmod(a, b)
        if r:
            raise InexactDivision(f"{a} / {b}")
        return q

    return Ring(0, 1, operator.add, operator.sub, operator.mul, operator.neg,
                exact_div, operator.mul)


def mod_ring(p: int) -> Ring:
    """F_p as residues; its resultants are ``fp_resultant``'s, not the
    generic PRS's."""
    def exact_div(a: int, b: int) -> int:
        return a * pow(b, -1, p) % p

    def mul(a: int, b: int) -> int:
        return a * b % p

    return Ring(0, 1,
                lambda a, b: (a + b) % p,
                lambda a, b: (a - b) % p,
                mul,
                lambda a: (-a) % p,
                exact_div, mul)


def fp_poly_ring(p: int) -> Ring:
    """F_p[t] as tuples of residues (a Ring view over the pXXX helpers)."""

    def exact_div(a: tuple, b: tuple) -> tuple:
        q, r = pdivmod(a, b, p)
        if r:
            raise InexactDivision("remainder in F_p[t] division")
        return q

    return Ring((), (1,),
                lambda a, b: padd(a, b, p),
                lambda a, b: psub(a, b, p),
                lambda a, b: pmul(a, b, p),
                lambda a: pneg(a, p),
                exact_div,
                lambda a, n: pmul_ground(a, n, p))


def tuple_poly_ring(R: Ring) -> Ring:
    """Dense R[y] as tuples of R elements, lowest degree first."""
    r_zero, r_add, r_sub, r_mul, r_neg = R.zero, R.add, R.sub, R.mul, R.neg
    r_div = R.exact_div

    def strip(c: list) -> tuple:
        n = len(c)
        while n and not c[n - 1]:
            n -= 1
        return tuple(c[:n])

    def add(a: tuple, b: tuple) -> tuple:
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] = r_add(out[i], x)
        return strip(out)

    def sub(a: tuple, b: tuple) -> tuple:
        out = list(a) + [r_zero] * (len(b) - len(a))
        for i, x in enumerate(b):
            out[i] = r_sub(out[i], x)
        return strip(out)

    def mul(a: tuple, b: tuple) -> tuple:
        if not a or not b:
            return ()
        out = [r_zero] * (len(a) + len(b) - 1)
        nonzero_b = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in nonzero_b:
                    out[i + j] = r_add(out[i + j], r_mul(x, y))
        return strip(out)

    def neg(a: tuple) -> tuple:
        return tuple(r_neg(x) for x in a)

    def exact_div(a: tuple, b: tuple) -> tuple:
        # Synthetic division; every leading-coefficient division is exact
        # when b divides a: the resultant kernel guarantees it, and in the
        # squarefree decomposition and gdisc's chain Gauss's lemma does,
        # for a primitive b that divides a over the fraction field.  The
        # remainder check raises on any other b.
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if not a:
            return ()
        da, db = len(a) - 1, len(b) - 1
        if da < db:
            raise InexactDivision("degree dropped below divisor")
        lead = b[-1]
        low = [(j, y) for j, y in enumerate(b[:db]) if y]
        rem = list(a)
        q = [r_zero] * (da - db + 1)
        for k in range(da - db, -1, -1):
            c = rem[k + db]
            if c:
                c = r_div(c, lead)
                q[k] = c
                for j, y in low:
                    rem[k + j] = r_sub(rem[k + j], r_mul(c, y))
                rem[k + db] = r_zero
        if any(rem[:db]):
            raise InexactDivision("nonzero remainder")
        return strip(q)

    return Ring((), (R.one,), add, sub, mul, neg, exact_div)


# A product in F_p[t][u] is one Kronecker product when each operand has at
# least TMUL_KRON_MIN nonzero u-coefficients, at least one in
# TMUL_KRON_SPREAD of its u-coefficients.  Below either bound the schoolbook
# loop, which skips zero coefficients, does less work: packing every zero
# slot costs more than the pairs of nonzero entries it replaces.  The bounds
# were measured on the sparse u-polynomials gdisc built when it still
# eliminated over u (over F_3(t), of length near 1000 with 2-35 % of their
# entries nonzero).  In Z[u] the least count is KRON_MUL_MIN instead:
# kron_mul's fixed cost of a few microseconds per call made it slower than
# the schoolbook loop on random equal-length operands of 3 to 8 entries, and
# it is no slower from 12 on.  The product serves ``Polynomial`` products
# (parsed powers, ``Factorization.expand``, gdisc's ``_split``) and
# ``gdisc_by_elimination``.
TMUL_KRON_MIN = 3
TMUL_KRON_SPREAD = 4
KRON_MUL_MIN = 12


def kron_poly_ring(R: Ring, kron: Callable[[Sequence, Sequence], list],
                   least: int) -> Ring:
    """``tuple_poly_ring(R)`` whose product is ``kron`` once both operands
    have ``least`` nonzero entries, at least one in ``TMUL_KRON_SPREAD``,
    and the schoolbook loop below them: Z[u] with ``kron_mul`` from
    ``KRON_MUL_MIN``, and ``fpt_u_ring``.  Operands may be lists or tuples;
    the product is a tuple."""
    ring = tuple_poly_ring(R)
    schoolbook, zero = ring.mul, R.zero

    def dense(c: Sequence) -> bool:
        nonzero = len(c) - c.count(zero)
        return nonzero >= least and nonzero * TMUL_KRON_SPREAD >= len(c)

    def mul(a: Sequence, b: Sequence) -> tuple:
        if dense(a) and dense(b):
            return tuple(kron(a, b))
        return schoolbook(a, b)

    return ring._replace(mul=mul)


def fpt_u_ring(p: int) -> Ring:
    """F_p[t][u], the u-ring of F_p(t), with dense products by
    ``kron_tmul``."""
    return kron_poly_ring(fp_poly_ring(p), lambda a, b: kron_tmul(a, b, p),
                          TMUL_KRON_MIN)


def ring_pow(x, e: int, R):
    """x**e for e >= 0, by left-to-right square and multiply; R is any table
    with ``mul`` and ``one``: a ``Ring``, or a field's ``FieldOps``."""
    if not e:
        return R.one
    mul, result = R.mul, x
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


def power_product(terms, R):
    """prod x**e over the (x, e) pairs of ``terms``, each e >= 0, by Straus's
    shared squaring chain (E. G. Straus, "Addition chains of vectors", 1964;
    von zur Gathen & Gerhard, *Modern Computer Algebra*, 4.3): one chain as
    long as the largest exponent's bit length, which at each bit multiplies
    in every x whose e has that bit set.  That is one squaring per bit for
    the whole product instead of one per bit and term, and no product of
    finished powers.  Terms with e = 0 or x = one are skipped; R is as for
    ``ring_pow``."""
    terms = [(x, e) for x, e in terms if e and x != R.one]
    if len(terms) < 2:
        return ring_pow(*terms[0], R) if terms else R.one
    mul, result = R.mul, None
    for bit in reversed(range(max(e for _, e in terms).bit_length())):
        if result is not None:
            result = mul(result, result)
        for x, e in terms:
            if e >> bit & 1:
                result = x if result is None else mul(result, x)
    return result


def pseudo_divmod(a: list, b: list, R: Ring) -> tuple[list, list, int]:
    """(q, r, e) with lc(b)^e * a = q * b + r and deg r < deg b, over the
    integral domain R, for coefficient lists with deg a >= deg b and a
    nonzero last entry of b; r has deg b entries, zeros not stripped.

    Each step that meets a nonzero leading coefficient scales a and q by
    lc(b) (when lc(b) is not 1) and counts it in e, so e <= deg a - deg b
    + 1 and steps over zero coefficients cost nothing."""
    mul, sub, one = R.mul, R.sub, R.one
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    low = [(j, y) for j, y in enumerate(b[:db]) if y]
    r, q, e = list(a), [R.zero] * (da - db + 1), 0
    for k in range(da - db, -1, -1):
        c = r[k + db]
        if not c:
            continue
        if lb != one:
            e += 1
            for i in range(k + db):
                if r[i]:
                    r[i] = mul(lb, r[i])
            for i in range(k + 1, da - db + 1):
                if q[i]:
                    q[i] = mul(lb, q[i])
        q[k] = c
        for j, y in low:
            r[k + j] = sub(r[k + j], mul(c, y))
    return q, r[:db], e


def primitive_part(c: list, p: int) -> list:
    """F_p[t] coefficients ``c`` divided by their content, the monic gcd of
    all of them (returned as they are when it is 1).  The gcd starts from
    the shortest coefficients, where each step costs least and a content
    of 1, as on an input that is primitive already, shows soonest."""
    g = ()
    for v in sorted(filter(None, c), key=len):
        g = pgcd(g, v, p)
        if g == (1,):
            return c
    return [pdivmod(v, g, p)[0] for v in c]


def primitive_gcd(a: list, b: list, R: Ring, p: int) -> list:
    """An associate of gcd(a, b) over F_p(t), for lists of F_p[t] tuples
    (R is F_p[t]) with nonzero last entries: Euclid whose remainders are
    the pseudo-remainders over their content (the primitive PRS; Brown,
    JACM 1971), so no F_p(t) fraction is formed between steps and no
    content accumulates in the coefficients."""
    a, b = primitive_part(a, p), primitive_part(b, p)
    if len(a) < len(b):
        a, b = b, a
    while True:
        r = pstrip(pseudo_divmod(a, b, R)[1])
        if not r:
            return b
        a, b = b, primitive_part(r, p)


def subresultant(a: list, b: list, R: Ring) -> tuple[Any, list]:
    """(res(a, b), the last nonzero remainder) over the integral domain R,
    by the subresultant PRS.

    ``a`` and ``b`` are coefficient lists, lowest degree first, with a
    nonzero last entry; res(a, b) is lc(a)^deg(b) * prod b(r) over the roots
    r of a, the Sylvester determinant with the deg(b) rows of a on top.  The
    last nonzero remainder of the sequence is an associate of gcd(a, b) over
    the fraction field of R: a constant when the resultant is nonzero, else
    the gcd up to a factor.
    This is Cohen's Algorithm 3.3.7 (after Collins and Brown-Traub) without
    content removal: every division below is exact in R, and each remainder
    coefficient is, up to sign, a minor of the Sylvester matrix.  Values
    stay as small as under Bareiss elimination of that matrix, while the
    work is O(deg a * deg b) ring operations instead of O((deg a + deg b)^3).
    """
    mul, sub, div, one = R.mul, R.sub, R.exact_div, R.one
    da, db = len(a) - 1, len(b) - 1
    negate = False
    if da < db:
        a, b, da, db = b, a, db, da
        negate = bool(da & db & 1)        # res(b, a) = (-1)^(da*db) res(a, b)
    if db == 0:
        return ring_pow(b[0], da, R), b
    g = h = one
    while True:
        delta = da - db
        if da & db & 1:
            negate = not negate
        # pseudo-remainder: lc(b)^(delta+1) * a reduced by b; inline, since
        # a pseudo_divmod call per step makes small PRSs 1.5x slower
        lb = b[-1]
        r = list(a)
        for k in range(da, db - 1, -1):
            c = r[k]
            if lb != one:
                for i in range(k):
                    if r[i]:
                        r[i] = mul(lb, r[i])
            if c:
                for j in range(db):
                    if b[j]:
                        r[k - db + j] = sub(r[k - db + j], mul(c, b[j]))
        n = db
        while n and not r[n - 1]:
            n -= 1
        if n == 0:
            return R.zero, b
        scale = mul(g, ring_pow(h, delta, R))
        a, da = b, db
        b = r[:n] if scale == one else [div(c, scale) for c in r[:n]]
        db = n - 1
        g = lb
        if delta == 1:
            h = g
        elif delta > 1:
            h = div(ring_pow(g, delta, R), ring_pow(h, delta - 1, R))
        if db == 0:
            res = b[0]
            if da > 1:
                res = div(ring_pow(res, da, R), ring_pow(h, da - 1, R))
            return (R.neg(res) if negate else res), b


def fp_resultant(a: Sequence, b: Sequence, p: int) -> tuple[int, Sequence]:
    """(res(a, b), the last nonzero remainder) over F_p, by Euclid's
    algorithm over the field (von zur Gathen & Gerhard, *Modern Computer
    Algebra*, 6.3 and 11.2): ``subresultant``'s contract for residue lists.

    With a = q * b + r and deg r = d_r, res(a, b) = (-1)^(deg a * deg b) *
    lc(b)^(deg a - d_r) * res(b, r), and res(a, c) = c^(deg a) for a
    constant c.  Each step takes one inverse, of lc(b), and reduces a by b
    one row at a time, all rows in one pass when the degrees differ by 0 or
    1, which is nearly every step; the factors go into one residue."""
    da, db = len(a) - 1, len(b) - 1
    acc = 1
    if da < db:
        a, b, da, db = b, a, db, da
        if da & db & 1:
            acc = -1
    while db:
        lb = b[-1]
        inv = 1 if lb == 1 else pow(lb, -1, p)
        if da == db:
            c = a[da] * inv % p
            r = [(x - c * y) % p for x, y in zip(a, b)]
        elif da == db + 1:
            # a - (c1 y + c0) b, both quotient digits known up front
            c1 = a[da] * inv % p
            c0 = (a[db] - c1 * b[db - 1]) * inv % p
            r = [(a[0] - c0 * b[0]) % p]
            r += [(x - c1 * y1 - c0 * y0) % p
                  for x, y1, y0 in zip(a[1:db], b, b[1:db])]
        else:
            ninv, low, r = p - inv, b[:db], list(a)
            for k in range(da, db - 1, -1):
                c = r[k] * ninv % p
                if c:
                    r[k - db:k] = [(x + c * y) % p
                                   for x, y in zip(r[k - db:k], low)]
        dr = db
        while dr and not r[dr - 1]:
            dr -= 1
        if not dr:
            return 0, b
        dr -= 1
        if da & db & 1:
            acc = -acc
        if lb != 1:
            acc = acc * (lb if da - dr == 1 else pow(lb, da - dr, p)) % p
        a, b, da, db = b, r[:dr + 1], db, dr
    return acc * pow(b[0], da, p) % p, b


def bareiss_det(rows: list[list], R: Ring):
    """Exact determinant of a square matrix over an integral domain by
    one-step Bareiss elimination; test oracle for ``subresultant``."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = R.one
    for k in range(n):
        piv_row = next((i for i in range(k, n) if m[i][k]), -1)
        if piv_row < 0:
            return R.zero
        if piv_row != k:
            m[k], m[piv_row] = m[piv_row], m[k]
            sign = -sign
        piv = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = R.exact_div(
                    R.sub(R.mul(piv, m[i][j]), R.mul(m[i][k], m[k][j])), prev)
        prev = piv
    det = m[n - 1][n - 1] if n else R.one
    return R.neg(det) if sign < 0 else det


def naive_det(rows: list[list], R: Ring):
    """Cofactor-expansion determinant; test oracle for bareiss_det."""
    n = len(rows)
    if n == 0:
        return R.one
    if n == 1:
        return rows[0][0]
    acc = R.zero
    for j in range(n):
        a = rows[0][j]
        if not a:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = R.mul(a, naive_det(minor, R))
        acc = R.sub(acc, term) if j % 2 else R.add(acc, term)
    return acc
