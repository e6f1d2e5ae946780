"""Sylvester resultants over a field and over the ring of u-polynomials.

Both entry points reduce to one exact determinant (``bareiss_det``).  Matrix
entries never carry boxed field elements into the elimination loop: rows are
cleared to the field's numerator ring (integers, residues, or F_p[t] tuples;
see ``FieldOps``) first and the determinant is unscaled at the end.  Row
convention: res(f, g) uses deg(g) rows of f above deg(f) rows of g, so
res(f, g) = lc(f)^deg(g) * prod g(r) over the roots of f.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable

from ._rings import bareiss_det
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


# -- the determinant, cleared row by row to the numerator ring ---------------


def _det(rows: list[list], field: FieldDescriptor, in_u: bool):
    """Exact determinant of a matrix of raw field values or, with ``in_u``,
    of u-vectors of raw values; the result is raw, a u-vector with ``in_u``.

    Each row is multiplied by the lcm of its entries' denominators, the
    integral matrix goes to ``bareiss_det`` over the field's numerator ring
    (or its u-ring), and the product of the row multipliers is divided out
    at the end."""
    ops = field.ops
    ring, den, den_lcm, clear = ops.ring, ops.den, ops.den_lcm, ops.clear
    raw = []
    scale = ring.one
    for row in rows:
        d = ring.one
        for c in chain.from_iterable(row) if in_u else row:
            d = den_lcm(d, den(c))
        scale = ring.mul(scale, d)
        raw.append([tuple(clear(c, d) for c in e) if in_u else clear(e, d)
                    for e in row])
    det = bareiss_det(raw, ops.u_ring if in_u else ring)
    if in_u:
        return [ops.rebuild(c, scale) for c in det]
    return ops.rebuild(det, scale)


# -- resultants --------------------------------------------------------------


def sylvester_resultant(f: Polynomial, g: Polynomial) -> FieldElement:
    """res(f, g) as the Sylvester determinant on exact degrees."""
    if f.field != g.field:
        raise FieldMismatchError("resultant arguments over different fields")
    if f.is_zero() or g.is_zero():
        raise ZeroInputError("resultant of the zero polynomial")
    field = f.field
    n, m = f.degree, g.degree
    if m == 0:
        return g.leading_coefficient() ** n
    if n == 0:
        return f.leading_coefficient() ** m
    size = n + m
    zero = field.zero().value
    fc = [c.value for c in reversed(f.coeffs)]
    gc = [c.value for c in reversed(g.coeffs)]
    rows = []
    for i in range(m):
        rows.append([zero] * i + fc + [zero] * (size - i - n - 1))
    for i in range(n):
        rows.append([zero] * i + gc + [zero] * (size - i - m - 1))
    return FieldElement(field, _det(rows, field, in_u=False))


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
    n = f.degree
    d = G.x_degree
    if d < 1:
        return Polynomial(field, G.x_coefficient(0)) ** n
    size = n + d
    empty = ()
    f_entries = [(c.value,) if c else empty for c in reversed(f.coeffs)]
    g_entries = [tuple(c.value for c in G.x_coefficient(j))
                 for j in range(d, -1, -1)]
    rows = []
    for i in range(d):
        rows.append([empty] * i + f_entries + [empty] * (size - i - n - 1))
    for i in range(n):
        rows.append([empty] * i + g_entries + [empty] * (size - i - d - 1))
    return Polynomial(field, [FieldElement(field, c)
                              for c in _det(rows, field, in_u=True)])


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
