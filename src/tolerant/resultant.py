"""Resultants over a field and over the ring of u-polynomials.

Every entry point reduces to one call of the subresultant kernel
(``_rings.subresultant``) on coefficients cleared to the field's numerator
ring (integers, residues, or F_p[t] tuples) by one ``FieldOps.cleared``
call per operand, and unscales the resultant by one ``power_product`` of
the denominators; ``sylvester_resultant`` and the discriminant share that
step (``_resultant_and_last``).  ``discriminant_and_gcd`` also hands over
the gcd that the remainder sequence of (f, f') ends on.  Convention:
res(f, g) = lc(f)^deg(g) * prod g(r) over the roots r of f, the Sylvester
determinant with the deg(g) rows of f on top.
"""

from __future__ import annotations

from typing import Sequence

from ._rings import power_product, pstrip, subresultant
from .errors import ConstantInputError, FieldMismatchError, ZeroInputError
from .field import FieldElement, monic_rebuilt
from .poly import Polynomial


def _resultant_and_last(f: Polynomial,
                        g: Polynomial) -> tuple[FieldElement, list]:
    """(res(f, g), the last nonzero remainder of their PRS, cleared) for
    nonzero f and g: both operands are cleared, F = f * d_f and G = g * d_g,
    the PRS runs once on F and G, and res(f, g) = res(F, G) / (d_f^deg g *
    d_g^deg f) is rebuilt once."""
    field, ops = f.field, f.field.ops
    fc, d_f = ops.cleared(f.raw)
    gc, d_g = ops.cleared(g.raw)
    res, last = subresultant(fc, gc, ops.ring)
    if not res:
        return field.zero(), last
    scale = power_product(((d_f, g.degree), (d_g, f.degree)), ops.ring)
    return FieldElement(field, ops.rebuild(res, scale)), last


def sylvester_resultant(f: Polynomial, g: Polynomial) -> FieldElement:
    """res(f, g) = lc(f)^deg(g) * prod g(r) over the roots r of f."""
    if f.field != g.field:
        raise FieldMismatchError("resultant arguments over different fields")
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("resultant of the zero polynomial")
    return _resultant_and_last(f, g)[0]


def _discriminant(f: Polynomial) -> tuple[FieldElement, list | None]:
    """disc(f) from the subresultant PRS of (f, f'), and when it is 0 and
    f' != 0 the sequence's last nonzero remainder, cleared (else None).
    res(f, f') reads f' at its exact degree, which is below n - 1 when p
    divides n, so disc(f) = (-1)^C(n,2) * lc^(n-2-deg f') * res(f, f')."""
    n = f.degree
    if n < 1:
        raise ConstantInputError("discriminant needs degree >= 1")
    df = f.derivative()
    if df.is_zero():
        return f.field.zero(), None
    res, last = _resultant_and_last(f, df)
    if not res:
        return res, last
    value = res * f.leading_coefficient() ** (n - 2 - df.degree)
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
