"""Resultants over a field and over the ring of u-polynomials.

Every entry point reduces to one call of the numerator ring's resultant
kernel, ``FieldOps.resultant``, on coefficients cleared to that ring by one
``FieldOps.cleared`` call per operand.  Each numerator ring has one
kernel: Euclid over the field for F_p (``_rings.fp_resultant``), the
subresultant PRS (``_rings.subresultant``) for Z and F_p[t]; the
u-resultant runs the PRS on the field's u-ring.  Each entry point unscales
the resultant by one ``power_product`` of the denominators and rebuilds one
field value.  The discriminant stays on the numerator ring throughout
(``numerator_discriminant``): f' is taken on the cleared numerators, and
the sign, the power of lc and the power of the denominator go into that
one rebuild.  ``discriminant_and_gcd`` also hands over the gcd that the
remainder sequence of (f, f') ends on.  Convention: res(f, g) = lc(f)^deg(g)
* prod g(r) over the roots r of f, the Sylvester determinant with the
deg(g) rows of f on top.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ._rings import power_product, pstrip, ring_pow, subresultant
from .errors import ConstantInputError, FieldMismatchError, ZeroInputError
from .field import FieldElement, FieldOps, monic_rebuilt
from .poly import Polynomial


def sylvester_resultant(f: Polynomial, g: Polynomial) -> FieldElement:
    """res(f, g) = lc(f)^deg(g) * prod g(r) over the roots r of f.  Both
    operands are cleared, F = f * d_f and G = g * d_g, the kernel runs once
    on F and G, and res(f, g) = res(F, G) / (d_f^deg g * d_g^deg f) is
    rebuilt once."""
    if f.field != g.field:
        raise FieldMismatchError("resultant arguments over different fields")
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("resultant of the zero polynomial")
    field, ops = f.field, f.field.ops
    fc, d_f = ops.cleared(f.raw)
    gc, d_g = ops.cleared(g.raw)
    res = ops.resultant(fc, gc)[0]
    if not res:
        return field.zero()
    scale = power_product(((d_f, g.degree), (d_g, f.degree)), ops.ring)
    return FieldElement(field, ops.rebuild(res, scale))


def numerator_discriminant(
        num: Sequence, ops: FieldOps) -> tuple[Any, int, Optional[Sequence]]:
    """(r, k, last) for f = num / d with ``num`` its cleared numerators in
    ``ops.ring`` (any d) and n = deg f >= 1: disc(f) = r * lc(num)^k /
    d^(2n-2).

    f' = num' / d with num' taken on the numerators, each scaled by its
    degree as an int, so the kernel runs once on (num, num').  res(f, f')
    reads f' at its exact degree m, below n - 1 when p divides n, and
    disc(f) = (-1)^C(n,2) * lc(f)^(n-2-m) * res(f, f'); with lc(f) =
    lc(num) / d and res(f, f') = res(num, num') / d^(n+m) that is the form
    above, with r = (-1)^C(n,2) * res(num, num') and k = n - 2 - m >= -1.
    r is 0 when f has a repeated root; ``last`` is then the last nonzero
    remainder of the kernel, an associate of gcd(f, f'), and None when f'
    is 0."""
    ring, n = ops.ring, len(num) - 1
    times = ring.times_int
    deriv = pstrip([times(c, i) for i, c in enumerate(num[1:], 1)])
    if not deriv:
        return ring.zero, 0, None
    res, last = ops.resultant(num, deriv)
    if not res:
        return res, 0, last
    return (ring.neg(res) if n * (n - 1) // 2 % 2 else res,
            n - 1 - len(deriv), None)


def _discriminant(f: Polynomial) -> tuple[FieldElement, Optional[Sequence]]:
    """disc(f) from ``numerator_discriminant``, rebuilt once, and when it is
    0 and f' != 0 the kernel's last nonzero remainder, cleared (else
    None)."""
    if f.degree < 1:
        raise ConstantInputError("discriminant needs degree >= 1")
    ops = f.field.ops
    num, d = ops.cleared(f.raw)
    r, k, last = numerator_discriminant(num, ops)
    if not r:
        return f.field.zero(), last
    ring, lc, den = ops.ring, num[-1], [(d, 2 * f.degree - 2)]
    if k < 0:
        den.append((lc, -k))
    elif k:
        r = ring.mul(r, ring_pow(lc, k, ring))
    return FieldElement(f.field, ops.rebuild(r, power_product(den, ring))), None


def discriminant_and_gcd(f: Polynomial) -> tuple[FieldElement, Polynomial]:
    """(disc(f), monic gcd(f, f')) from the one kernel call on (f, f'): the
    gcd is 1 when disc(f) != 0, and f.monic() when f' = 0."""
    disc, last = _discriminant(f)
    if disc or last is None:            # separable, or f' = 0
        return disc, Polynomial.one(f.field) if disc else f.monic()
    return disc, Polynomial.from_raw(f.field, monic_rebuilt(last, f.field.ops))


def discriminant(f: Polynomial) -> FieldElement:
    """disc(f) = lc^(2n-2) * prod_{i<j} (r_i - r_j)^2; zero when f' = 0."""
    return _discriminant(f)[0]


def resultant_in_u(f: Polynomial, G: Sequence[Polynomial]) -> Polynomial:
    """res_x(f, G), eliminating x from G = sum_i u^i G[i]; the result is a
    polynomial in u.

    The x-degree of G is the largest degree of its entries, exact after
    characteristic-p collapse.  When G is constant in x the resultant is
    that constant raised to deg f.
    """
    if any(c.field != f.field for c in G):
        raise FieldMismatchError("resultant arguments over different fields")
    if f.is_zero() or all(c.is_zero() for c in G):
        raise ZeroInputError("resultant of the zero input")
    if f.degree < 1:
        raise ConstantInputError("resultant in u needs deg f >= 1")
    field, ops = f.field, f.field.ops
    d, w, zero = max(c.degree for c in G), len(G), ops.from_int(0)
    fc, d_f = ops.cleared(f.raw)
    f_entries = [(c,) if c else () for c in fc]
    # entry j is the u-vector of the x^j coefficient of G, cleared
    gc, d_g = ops.cleared([c.raw[j] if j < len(c.raw) else zero
                           for j in range(d + 1) for c in G])
    g_entries = [pstrip(gc[j * w:(j + 1) * w]) for j in range(d + 1)]
    res = subresultant(f_entries, g_entries, ops.u_ring)[0]
    scale = power_product(((d_f, d), (d_g, f.degree)), ops.ring)
    return Polynomial.from_raw(field, [ops.rebuild(c, scale) for c in res])
