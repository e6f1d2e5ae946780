"""Resultants over a field and over the ring of u-polynomials.

Both entry points reduce to one call of the subresultant kernel
(``_rings.subresultant``).  Each operand's raw coefficients are cleared
to the field's numerator ring (integers, residues, or F_p[t] tuples; see
``FieldOps``) with one lcm of their denominators, and the resultant is
unscaled at the end.  Convention:
res(f, g) = lc(f)^deg(g) * prod g(r) over the roots r of f, the Sylvester
determinant with the deg(g) rows of f on top.
"""

from __future__ import annotations

from typing import Iterable

from ._rings import pstrip, ring_pow, subresultant
from .errors import ConstantInputError, FieldMismatchError, ZeroInputError
from .field import FieldDescriptor, FieldElement
from .poly import Polynomial


class UPolynomial:
    """Polynomial in the auxiliary variable u with x-polynomial coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDescriptor, coeffs: Iterable[Polynomial]):
        coeffs = list(coeffs)
        for c in coeffs:
            if c.field != field:
                raise FieldMismatchError("u-coefficient from a different field")
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *_):
        raise AttributeError("UPolynomial is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def u_degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    @property
    def x_degree(self):
        """Exact x-degree; characteristic-p coefficient collapse is visible
        here because every x-coefficient is stored normalized."""
        return max((c.degree for c in self.coeffs), default=float("-inf"))

    def x_coefficient(self, j: int) -> tuple[FieldElement, ...]:
        """Coefficient of x^j, as a dense u-coefficient vector."""
        out = [c.coefficient(j) for c in self.coeffs]
        while out and not out[-1]:
            out.pop()
        return tuple(out)

    def evaluate(self, u0: FieldElement) -> Polynomial:
        """Specialize u to a field value, leaving a polynomial in x."""
        acc = Polynomial.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc.scale(u0) + c
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, UPolynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        return f"<UPolynomial of u-degree {self.u_degree}, x-degree {self.x_degree}>"


# -- resultants, cleared once per operand to the numerator ring --------------


def _den_lcm(values, ops):
    """lcm of the values' denominators, in the numerator ring."""
    d = ops.ring.one
    for v in values:
        d = ops.den_lcm(d, ops.den(v))
    return d


def _cleared(values, ops) -> tuple[list, object]:
    """(values * d, d) in the numerator ring, d = _den_lcm(values)."""
    d = _den_lcm(values, ops)
    return [ops.clear(v, d) for v in values], d


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
    field = f.field
    ops = field.ops
    fc, d_f = _cleared(f.raw, ops)
    gc, d_g = _cleared(g.raw, ops)
    res = subresultant(fc, gc, ops.ring)
    scale = _scale(d_f, g.degree, d_g, f.degree, ops.ring)
    return FieldElement(field, ops.rebuild(res, scale))


def resultant_in_u(f: Polynomial, G: UPolynomial) -> Polynomial:
    """res_x(f, G), eliminating x; the result is a polynomial in u.

    The x-degree of G is its exact degree after characteristic-p collapse.
    When G is constant in x the resultant is that constant raised to deg f.
    """
    if f.field != G.field:
        raise FieldMismatchError("resultant arguments over different fields")
    if f.is_zero() or G.is_zero():
        raise ZeroInputError("resultant of the zero input")
    if f.degree < 1:
        raise ConstantInputError("resultant in u needs deg f >= 1")
    field = f.field
    ops = field.ops
    d = G.x_degree
    fc, d_f = _cleared(f.raw, ops)
    f_entries = [() if ops.ring.is_zero(c) else (c,) for c in fc]
    # entry j is the u-vector of the x^j coefficient of G, cleared
    d_g = _den_lcm((v for c in G.coeffs for v in c.raw), ops)
    g_entries = [pstrip([ops.clear(c.raw[j], d_g) if j < len(c.raw)
                         else ops.ring.zero for c in G.coeffs])
                 for j in range(d + 1)]
    res = subresultant(f_entries, g_entries, ops.u_ring)
    scale = _scale(d_f, d, d_g, f.degree, ops.ring)
    return Polynomial.from_raw(field, [ops.rebuild(c, scale) for c in res])


def discriminant(f: Polynomial) -> FieldElement:
    """disc(f) = (-1)^C(n,2) res(f, f') / lc(f); zero when f' vanishes."""
    n = f.degree
    if n < 1:
        raise ConstantInputError("discriminant needs degree >= 1")
    df = f.derivative()
    if df.is_zero():
        return f.field.zero()
    res = sylvester_resultant(f, df)
    value = res / f.leading_coefficient()
    if (n * (n - 1) // 2) % 2:
        value = -value
    return value
