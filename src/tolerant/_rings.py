"""Internal exact-arithmetic kernels on raw Python values.

Field-generic code reaches raw values through a ``FieldOps`` call per
operation, which is too slow inside a resultant loop, so everything
performance-critical runs here on plain ints and tuples:

* ``pXXX`` functions: dense polynomials over F_p as tuples of residues,
  lowest degree first, normalized (no trailing zeros, ``()`` is zero).  These
  double as F_p[t] scalars for the rational function field and as F_p[x]
  values for factorization.
* ``Ring`` bundles: a minimal integral-domain interface (add/sub/mul/exact
  division/zero test) over some raw element type.  ``int_ring`` covers Z,
  ``mod_ring(p)`` covers F_p, ``tuple_poly_ring`` covers dense R[y] for any
  base ``Ring`` R, so F_p[t][u] is ``tuple_poly_ring(fp_poly_ring(p))``.
* ``subresultant``: res(a, b) over any ``Ring`` by the subresultant PRS, the
  kernel behind every resultant in the package.
* ``bareiss_det`` and ``naive_det``: exact determinants, kept as test
  oracles for the kernel.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple


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


def pmul(a: tuple, b: tuple, p: int) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return pstrip([c % p for c in out])


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


class Ring(NamedTuple):
    """Integral-domain operations over one raw element type."""

    zero: Any
    one: Any
    add: Callable[[Any, Any], Any]
    sub: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]
    neg: Callable[[Any], Any]
    exact_div: Callable[[Any, Any], Any]
    is_zero: Callable[[Any], bool]


class InexactDivision(ArithmeticError):
    """Internal bug guard: a division that must be exact was not."""


def int_ring() -> Ring:
    def exact_div(a: int, b: int) -> int:
        q, r = divmod(a, b)
        if r:
            raise InexactDivision(f"{a} / {b}")
        return q

    return Ring(0, 1,
                lambda a, b: a + b,
                lambda a, b: a - b,
                lambda a, b: a * b,
                lambda a: -a,
                exact_div,
                lambda a: not a)


def mod_ring(p: int) -> Ring:
    def exact_div(a: int, b: int) -> int:
        return a * pow(b, -1, p) % p

    return Ring(0, 1,
                lambda a, b: (a + b) % p,
                lambda a, b: (a - b) % p,
                lambda a, b: a * b % p,
                lambda a: (-a) % p,
                exact_div,
                lambda a: not a)


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
                lambda a: not a)


def int_poly_ring() -> Ring:
    """Z[y] as int tuples, with the convolution and synthetic division
    inlined (no per-coefficient callable indirection)."""

    def add(a: tuple, b: tuple) -> tuple:
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        n = len(out)
        while n and not out[n - 1]:
            n -= 1
        return tuple(out[:n])

    def sub(a: tuple, b: tuple) -> tuple:
        out = list(a) + [0] * (len(b) - len(a))
        for i, x in enumerate(b):
            out[i] -= x
        n = len(out)
        while n and not out[n - 1]:
            n -= 1
        return tuple(out[:n])

    def mul(a: tuple, b: tuple) -> tuple:
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] += x * y
        n = len(out)
        while n and not out[n - 1]:
            n -= 1
        return tuple(out[:n])

    def exact_div(a: tuple, b: tuple) -> tuple:
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if not a:
            return ()
        da, db = len(a) - 1, len(b) - 1
        if da < db:
            raise InexactDivision("degree dropped below divisor")
        lead = b[-1]
        rem = list(a)
        q = [0] * (da - db + 1)
        for k in range(da - db, -1, -1):
            c = rem[k + db]
            if c:
                c, r = divmod(c, lead)
                if r:
                    raise InexactDivision("leading coefficient division")
                q[k] = c
                for j in range(db):
                    y = b[j]
                    if y:
                        rem[k + j] -= c * y
        if any(rem[:db]):
            raise InexactDivision("nonzero remainder")
        n = len(q)
        while n and not q[n - 1]:
            n -= 1
        return tuple(q[:n])

    return Ring((), (1,), add, sub, mul,
                lambda a: tuple(-x for x in a),
                exact_div,
                lambda a: not a)


def tuple_poly_ring(R: Ring) -> Ring:
    """Dense R[y] as tuples of R elements, lowest degree first."""
    r_zero, r_add, r_sub, r_mul, r_neg = R.zero, R.add, R.sub, R.mul, R.neg
    r_div, r_is_zero = R.exact_div, R.is_zero

    def strip(c: list) -> tuple:
        n = len(c)
        while n and r_is_zero(c[n - 1]):
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
        for i, x in enumerate(a):
            if not r_is_zero(x):
                for j, y in enumerate(b):
                    if not r_is_zero(y):
                        out[i + j] = r_add(out[i + j], r_mul(x, y))
        return strip(out)

    def neg(a: tuple) -> tuple:
        return tuple(r_neg(x) for x in a)

    def exact_div(a: tuple, b: tuple) -> tuple:
        # Synthetic division; every leading-coefficient division is exact
        # when b divides a, which the resultant kernel guarantees.  The
        # remainder check stays on as a bug guard.
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        if not a:
            return ()
        da, db = len(a) - 1, len(b) - 1
        if da < db:
            raise InexactDivision("degree dropped below divisor")
        lead = b[-1]
        rem = list(a)
        q = [r_zero] * (da - db + 1)
        for k in range(da - db, -1, -1):
            c = rem[k + db]
            if not r_is_zero(c):
                c = r_div(c, lead)
                q[k] = c
                for j in range(db):
                    y = b[j]
                    if not r_is_zero(y):
                        rem[k + j] = r_sub(rem[k + j], r_mul(c, y))
                rem[k + db] = r_zero
        if any(not r_is_zero(c) for c in rem[:db]):
            raise InexactDivision("nonzero remainder")
        return strip(q)

    return Ring((), (R.one,), add, sub, mul, neg, exact_div,
                lambda a: not a)


def ring_pow(x, e: int, R: Ring):
    """x**e in R for e >= 0, by square and multiply."""
    result = R.one
    while e:
        if e & 1:
            result = R.mul(result, x)
        e >>= 1
        if e:
            x = R.mul(x, x)
    return result


def subresultant(a: list, b: list, R: Ring):
    """res(a, b) over the integral domain R by the subresultant PRS.

    ``a`` and ``b`` are coefficient lists, lowest degree first, with a
    nonzero last entry; the result is lc(a)^deg(b) * prod b(r) over the roots
    r of a, the Sylvester determinant with the deg(b) rows of a on top.
    This is Cohen's Algorithm 3.3.7 (after Collins and Brown-Traub) without
    content removal: every division below is exact in R, and each remainder
    coefficient is, up to sign, a minor of the Sylvester matrix.  Values
    stay as small as under Bareiss elimination of that matrix, while the
    work is O(deg a * deg b) ring operations instead of O((deg a + deg b)^3).
    """
    mul, sub, div, is_zero, one = R.mul, R.sub, R.exact_div, R.is_zero, R.one
    da, db = len(a) - 1, len(b) - 1
    negate = False
    if da < db:
        a, b, da, db = b, a, db, da
        negate = bool(da & db & 1)        # res(b, a) = (-1)^(da*db) res(a, b)
    if db == 0:
        return ring_pow(b[0], da, R)
    g = h = one
    while True:
        delta = da - db
        if da & db & 1:
            negate = not negate
        # pseudo-remainder: lc(b)^(delta+1) * a reduced by b
        lb = b[-1]
        r = list(a)
        for k in range(da, db - 1, -1):
            c = r[k]
            if lb != one:
                for i in range(k):
                    if not is_zero(r[i]):
                        r[i] = mul(lb, r[i])
            if not is_zero(c):
                for j in range(db):
                    if not is_zero(b[j]):
                        r[k - db + j] = sub(r[k - db + j], mul(c, b[j]))
        n = db
        while n and is_zero(r[n - 1]):
            n -= 1
        if n == 0:
            return R.zero
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
            return R.neg(res) if negate else res


def bareiss_det(rows: list[list], R: Ring):
    """Exact determinant of a square matrix over an integral domain by
    one-step Bareiss elimination; test oracle for ``subresultant``."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = R.one
    for k in range(n):
        piv_row = next((i for i in range(k, n) if not R.is_zero(m[i][k])), -1)
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
        if R.is_zero(a):
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = R.mul(a, naive_det(minor, R))
        acc = R.sub(acc, term) if j % 2 else R.add(acc, term)
    return acc
