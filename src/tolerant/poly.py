"""Dense univariate polynomials over one of the supported fields.

Coefficients are stored lowest degree first and normalized: the last entry is
nonzero, the zero polynomial is the empty tuple, and ``degree`` of zero is the
distinguished ``NEG_INFINITY`` marker (which compares below every int).

Beyond ring arithmetic this module carries every transform the invariant
formulas need: Hasse derivatives, Taylor shift f(x+a), homothety f(ax),
the reciprocal x^n f(1/x), separability, desubstitution f = f_sep(x^(p^e)),
and the coefficient-wise Frobenius twist.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, NamedTuple, Sequence, Union

from .errors import (ConstantInputError, DivisionByZeroError,
                     DuplicateRootsError, FieldMismatchError,
                     UnsupportedFieldError, ZeroConstantTermError,
                     ZeroScaleError)
from .field import FieldDescriptor, FieldElement

NEG_INFINITY = float("-inf")

Degree = Union[int, float]


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDescriptor, coeffs: Iterable[FieldElement]):
        coeffs = list(coeffs)
        for c in coeffs:
            if c.field != field:
                raise FieldMismatchError("coefficient from a different field")
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_ints(cls, field: FieldDescriptor, ints: Sequence[int]) -> "Polynomial":
        return cls(field, [field.from_int(n) for n in ints])

    @classmethod
    def constant(cls, field: FieldDescriptor, c) -> "Polynomial":
        if isinstance(c, int):
            c = field.from_int(c)
        return cls(field, [c])

    @classmethod
    def x(cls, field: FieldDescriptor) -> "Polynomial":
        return cls(field, [field.zero(), field.one()])

    @classmethod
    def zero(cls, field: FieldDescriptor) -> "Polynomial":
        return cls(field, [])

    @classmethod
    def one(cls, field: FieldDescriptor) -> "Polynomial":
        return cls.constant(field, 1)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> Degree:
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def leading_coefficient(self) -> FieldElement:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def constant_term(self) -> FieldElement:
        return self.coeffs[0] if self.coeffs else self.field.zero()

    def coefficient(self, i: int) -> FieldElement:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero()

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self) -> str:
        from .parsing import polynomial_text
        return f"<{polynomial_text(self)} over {self.field.text()}>"

    # -- ring arithmetic ----------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial) or other.field != self.field:
            raise FieldMismatchError("mixed-field polynomial arithmetic")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(self.field, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, [-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, FieldElement):
            return self.scale(other)
        if isinstance(other, int):
            return self.scale(self.field.from_int(other))
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial.zero(self.field)
        zero = self.field.zero()
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = out[i + j] + x * y
        return Polynomial(self.field, out)

    __rmul__ = __mul__

    def scale(self, c: FieldElement) -> "Polynomial":
        return Polynomial(self.field, [a * c for a in self.coeffs])

    def __pow__(self, e: int) -> "Polynomial":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers take nonnegative ints")
        result = Polynomial.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._check(other)
        if not other:
            raise DivisionByZeroError("polynomial division by zero")
        da, db = len(self.coeffs) - 1, len(other.coeffs) - 1
        if da < db:
            return Polynomial.zero(self.field), self
        inv = other.coeffs[-1].inverse()
        rem = list(self.coeffs)
        q = [self.field.zero()] * (da - db + 1)
        for k in range(da - db, -1, -1):
            c = rem[k + db]
            if c:
                c = c * inv
                q[k] = c
                for j in range(db + 1):
                    rem[k + j] = rem[k + j] - c * other.coeffs[j]
        return Polynomial(self.field, q), Polynomial(self.field, rem[:db])

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = divmod(self, other)
        if r:
            raise ArithmeticError("division expected to be exact")
        return q

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic generator of (self, other); gcd(0, 0) = 0."""
        self._check(other)
        a, b = self, other
        while b:
            a, b = b, a % b
        return a.monic() if a else a

    def monic(self) -> "Polynomial":
        if not self.coeffs:
            raise ValueError("cannot normalize the zero polynomial")
        if self.is_monic():
            return self
        return self.scale(self.coeffs[-1].inverse())

    def __call__(self, alpha: FieldElement) -> FieldElement:
        if isinstance(alpha, int):
            alpha = self.field.from_int(alpha)
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * alpha + c
        return acc

    # -- calculus-style transforms -------------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial(
            self.field,
            [c * i for i, c in enumerate(self.coeffs)][1:])

    def hasse_derivative(self, r: int) -> "Polynomial":
        """D^r: x^n -> C(n, r) x^(n-r), binomials taken over Z then mapped
        into the field so characteristic-p vanishing is exact."""
        if r < 0:
            raise ValueError("Hasse derivative order must be >= 0")
        if r == 0:
            return self
        out = []
        for i in range(r, len(self.coeffs)):
            out.append(self.coeffs[i] * self.field.from_int(comb(i, r)))
        return Polynomial(self.field, out)

    def taylor_shift(self, alpha: FieldElement) -> "Polynomial":
        """f(x + alpha), by Horner over the shifted variable."""
        if isinstance(alpha, int):
            alpha = self.field.from_int(alpha)
        if alpha.field != self.field:
            raise FieldMismatchError("shift amount from a different field")
        zero = self.field.zero()
        out: list[FieldElement] = []
        for c in reversed(self.coeffs):
            shifted = [zero] + out
            for i, v in enumerate(out):
                shifted[i] = shifted[i] + v * alpha
            if shifted:
                shifted[0] = shifted[0] + c
            else:
                shifted = [c]
            out = shifted
        return Polynomial(self.field, out)

    def homothety(self, alpha: FieldElement) -> "Polynomial":
        """f(alpha x): coefficient i scaled by alpha^i."""
        if isinstance(alpha, int):
            alpha = self.field.from_int(alpha)
        if not alpha:
            raise ZeroScaleError("homothety scale must be nonzero")
        out = []
        power = self.field.one()
        for i, c in enumerate(self.coeffs):
            if i:
                power = power * alpha
            out.append(c * power)
        return Polynomial(self.field, out)

    def reciprocal(self) -> "Polynomial":
        """x^(deg f) f(1/x); needs f(0) != 0 so the degree is preserved."""
        if not self.constant_term():
            raise ZeroConstantTermError("reciprocal needs f(0) != 0")
        return Polynomial(self.field, reversed(self.coeffs))

    def is_separable(self) -> bool:
        """No repeated roots over the closure: gcd(f, f') is constant."""
        if self.degree < 1:
            raise ConstantInputError("separability needs degree >= 1")
        return self.gcd(self.derivative()).degree == 0

    def substitute_power(self, k: int) -> "Polynomial":
        """f(x^k)."""
        if k < 1:
            raise ValueError("substitution power must be >= 1")
        if k == 1 or not self.coeffs:
            return self
        zero = self.field.zero()
        out = [zero] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return Polynomial(self.field, out)

    def desubstitute(self) -> "SeparableForm":
        """Largest e with f = g(x^(p^e)) and g' != 0.

        Over characteristic 0 this is (f, 0).  When f is irreducible, g is
        its separable part; for reducible f the extraction is still exact
        (the reconstruction invariant holds) but g need not be separable.
        """
        if self.degree < 1:
            raise ConstantInputError("desubstitution needs degree >= 1")
        p = self.field.characteristic
        if p == 0:
            return SeparableForm(self, 0)
        g, e = self, 0
        # g' = 0 over a field exactly when every exponent with a nonzero
        # coefficient is divisible by p.
        while not g.derivative():
            g = Polynomial(self.field, [g.coeffs[i] for i in range(0, len(g.coeffs), p)])
            e += 1
        return SeparableForm(g, e)

    def frobenius_twist(self, a: int) -> "Polynomial":
        """Coefficient-wise c -> c^(p^a); roots get raised to the p^a."""
        if a < 0:
            raise ValueError("negative twist exponent")
        if a == 0:
            return self
        if self.field.characteristic == 0:
            raise UnsupportedFieldError("Frobenius twist needs characteristic p")
        return Polynomial(self.field, [c.frobenius_power(a) for c in self.coeffs])


class SeparableForm(NamedTuple):
    """Result of desubstitution: input = f_sep(x^(p^e))."""

    f_sep: Polynomial
    e: int


@dataclass(frozen=True)
class RootMultiset:
    """Distinct base-field roots with multiplicities, plus the leading
    coefficient of the polynomial they came from."""

    entries: tuple[tuple[FieldElement, int], ...]
    leading: FieldElement

    def __post_init__(self):
        entries = tuple((r, int(m)) for r, m in self.entries)
        object.__setattr__(self, "entries", entries)
        if not self.leading:
            raise ZeroScaleError("leading coefficient must be nonzero")
        if any(m < 1 for _, m in entries):
            raise ValueError("multiplicities must be positive")
        seen = set()
        for r, _ in entries:
            if r in seen:
                raise DuplicateRootsError(f"repeated root {r}")
            seen.add(r)

    def total_degree(self) -> int:
        return sum(m for _, m in self.entries)


def poly_from_roots(rm: RootMultiset, field: FieldDescriptor) -> Polynomial:
    """Expand leading * prod (x - r)^m."""
    f = Polynomial.constant(field, rm.leading)
    x = Polynomial.x(field)
    for r, m in rm.entries:
        f = f * (x - Polynomial.constant(field, r)) ** m
    return f
