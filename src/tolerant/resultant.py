"""Resultants over a field and over the ring of u-polynomials.

Every entry point reduces to one call of the subresultant kernel
(``_rings.subresultant``).  Each operand's raw coefficients are cleared
to the field's numerator ring (integers, residues, or F_p[t] tuples; see
``FieldOps``) with one lcm of their denominators, and the resultant is
unscaled at the end.  ``discriminant_and_gcd`` also hands over the gcd that
the remainder sequence of (f, f') ends on.  Convention:
res(f, g) = lc(f)^deg(g) * prod g(r) over the roots r of f, the Sylvester
determinant with the deg(g) rows of f on top.
"""

from __future__ import annotations

from typing import Sequence

from ._rings import pstrip, ring_pow, subresultant
from .errors import ConstantInputError, FieldMismatchError, ZeroInputError
from .field import FieldElement, cleared, common_den, monic_rebuilt
from .poly import Polynomial


def _scale(d_f, m: int, d_g, n: int, ring):
    """d_f^m * d_g^n, since res(F/d_f, G/d_g) = res(F, G) / (d_f^m * d_g^n)
    for m = deg G and n = deg F."""
    return ring.mul(ring_pow(d_f, m, ring), ring_pow(d_g, n, ring))


def sylvester_resultant(f: Polynomial, g: Polynomial) -> FieldElement:
    """res(f, g) = lc(f)^deg(g) * prod g(r) over the roots r of f."""
    if f.field != g.field:
        raise FieldMismatchError("resultant arguments over different fields")
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("resultant of the zero polynomial")
    ops = f.field.ops
    fc, d_f = cleared(f.raw, ops)
    gc, d_g = cleared(g.raw, ops)
    res = subresultant(fc, gc, ops.ring)[0]
    scale = _scale(d_f, g.degree, d_g, f.degree, ops.ring)
    return FieldElement(f.field, ops.rebuild(res, scale))


def _discriminant(f: Polynomial) -> tuple[FieldElement, list | None]:
    """disc(f) from the subresultant PRS of (f, f'), and when it is 0 and
    f' != 0 the sequence's last nonzero remainder, cleared (else None).
    res(f, f') reads f' at its exact degree, which is below n - 1 when p
    divides n, so disc(f) = (-1)^C(n,2) * lc^(n-2-deg f') * res(f, f')."""
    n = f.degree
    if n < 1:
        raise ConstantInputError("discriminant needs degree >= 1")
    field, ops = f.field, f.field.ops
    df = f.derivative()
    if df.is_zero():
        return field.zero(), None
    fc, d_f = cleared(f.raw, ops)
    gc, d_g = cleared(df.raw, ops)
    res, last = subresultant(fc, gc, ops.ring)
    if not res:
        return field.zero(), last
    scale = _scale(d_f, df.degree, d_g, n, ops.ring)
    value = (FieldElement(field, ops.rebuild(res, scale))
             * f.leading_coefficient() ** (n - 2 - df.degree))
    return (-value if (n * (n - 1) // 2) % 2 else value), None


def discriminant_and_gcd(f: Polynomial) -> tuple[FieldElement, Polynomial]:
    """(disc(f), monic gcd(f, f')) from the one subresultant PRS of (f, f'):
    the gcd is 1 when disc(f) != 0, and f.monic() when f' = 0."""
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
    field = f.field
    ops = field.ops
    d = max(c.degree for c in G)
    fc, d_f = cleared(f.raw, ops)
    f_entries = [(c,) if c else () for c in fc]
    # entry j is the u-vector of the x^j coefficient of G, cleared
    d_g = common_den((v for c in G for v in c.raw), ops)
    g_entries = [pstrip([ops.clear(c.raw[j], d_g) if j < len(c.raw)
                         else ops.ring.zero for c in G])
                 for j in range(d + 1)]
    res = subresultant(f_entries, g_entries, ops.u_ring)[0]
    scale = _scale(d_f, d, d_g, f.degree, ops.ring)
    return Polynomial.from_raw(field, [ops.rebuild(c, scale) for c in res])
