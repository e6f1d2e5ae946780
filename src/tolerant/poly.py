"""Dense univariate polynomials over one of the supported fields.

Coefficients are the field's raw values (``FieldOps``), stored lowest degree
first and normalized: the last entry is nonzero, the zero polynomial is the
empty tuple, and ``degree`` of zero is the distinguished ``NEG_INFINITY``
marker (which compares below every int).

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
    """Coefficients live in ``raw``: the field's own values (see ``FieldOps``),
    lowest degree first, and every operation runs on them through
    ``field.ops``.  ``coeffs`` is a boxed read-only view of the same tuple."""

    __slots__ = ("field", "raw")

    def __init__(self, field: FieldDescriptor, coeffs: Iterable[FieldElement]):
        coeffs = list(coeffs)
        if any(c.field != field for c in coeffs):
            raise FieldMismatchError("coefficient from a different field")
        self._store(field, [c.value for c in coeffs])

    def _store(self, field: FieldDescriptor, raw: list) -> None:
        while raw and not field.ops.nonzero(raw[-1]):
            raw.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "raw", tuple(raw))

    def __setattr__(self, *_):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_raw(cls, field: FieldDescriptor, raw: Sequence) -> "Polynomial":
        """From raw ``field.ops`` values, lowest degree first."""
        f = object.__new__(cls)
        f._store(field, list(raw))
        return f

    @classmethod
    def from_ints(cls, field: FieldDescriptor, ints: Sequence[int]) -> "Polynomial":
        return cls.from_raw(field, [field.ops.from_int(n) for n in ints])

    @classmethod
    def constant(cls, field: FieldDescriptor, c) -> "Polynomial":
        if isinstance(c, int):
            return cls.from_ints(field, [c])
        return cls(field, [c])

    @classmethod
    def x(cls, field: FieldDescriptor) -> "Polynomial":
        return cls.from_ints(field, [0, 1])

    @classmethod
    def zero(cls, field: FieldDescriptor) -> "Polynomial":
        return cls.from_raw(field, [])

    @classmethod
    def one(cls, field: FieldDescriptor) -> "Polynomial":
        return cls.from_ints(field, [1])

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, v) for v in self.raw)

    @property
    def degree(self) -> Degree:
        return len(self.raw) - 1 if self.raw else NEG_INFINITY

    def is_zero(self) -> bool:
        return not self.raw

    def __bool__(self) -> bool:
        return bool(self.raw)

    def leading_coefficient(self) -> FieldElement:
        if not self.raw:
            raise ValueError("zero polynomial has no leading coefficient")
        return FieldElement(self.field, self.raw[-1])

    def constant_term(self) -> FieldElement:
        return self.coefficient(0)

    def coefficient(self, i: int) -> FieldElement:
        if 0 <= i < len(self.raw):
            return FieldElement(self.field, self.raw[i])
        return self.field.zero()

    def is_monic(self) -> bool:
        return bool(self.raw) and self.raw[-1] == self.field.ops.from_int(1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.raw == other.raw

    def __hash__(self):
        return hash((self.field, self.raw))

    def __repr__(self) -> str:
        from .parsing import polynomial_text
        return f"<{polynomial_text(self)} over {self.field.text()}>"

    # -- ring arithmetic ----------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial) or other.field != self.field:
            raise FieldMismatchError("mixed-field polynomial arithmetic")

    def _scalar(self, c) -> object:
        """Raw value of a scalar argument: an int or an element of this field."""
        if isinstance(c, int):
            return self.field.ops.from_int(c)
        if not isinstance(c, FieldElement) or c.field != self.field:
            raise FieldMismatchError("scalar from a different field")
        return c.value

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        a, b = self.raw, other.raw
        if len(a) < len(b):
            a, b = b, a
        add = self.field.ops.add
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Polynomial.from_raw(self.field, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_raw(self.field, map(self.field.ops.neg, self.raw))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        a, b = self.raw, other.raw
        if not a or not b:
            return Polynomial.zero(self.field)
        ops = self.field.ops
        add, mul, nonzero = ops.add, ops.mul, ops.nonzero
        terms = [(j, y) for j, y in enumerate(b) if nonzero(y)]
        out = [ops.from_int(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if nonzero(x):
                for j, y in terms:
                    out[i + j] = add(out[i + j], mul(x, y))
        return Polynomial.from_raw(self.field, out)

    __rmul__ = __mul__

    def scale(self, c: FieldElement) -> "Polynomial":
        return self._times(self._scalar(c))

    def _times(self, v) -> "Polynomial":
        mul = self.field.ops.mul
        return Polynomial.from_raw(self.field, [mul(a, v) for a in self.raw])

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
        b = other.raw
        da, db = len(self.raw) - 1, len(b) - 1
        if da < db:
            return Polynomial.zero(self.field), self
        ops = self.field.ops
        add, mul, neg, nonzero = ops.add, ops.mul, ops.neg, ops.nonzero
        inv = ops.inverse(b[-1])
        rem = list(self.raw)
        q = [ops.from_int(0)] * (da - db + 1)
        for k in range(da - db, -1, -1):
            c = rem[k + db]
            if nonzero(c):
                c = mul(c, inv)
                q[k] = c
                c = neg(c)
                for j in range(db + 1):
                    rem[k + j] = add(rem[k + j], mul(c, b[j]))
        return (Polynomial.from_raw(self.field, q),
                Polynomial.from_raw(self.field, rem[:db]))

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
        if not self.raw:
            raise ValueError("cannot normalize the zero polynomial")
        if self.is_monic():
            return self
        return self._times(self.field.ops.inverse(self.raw[-1]))

    def __call__(self, alpha: FieldElement) -> FieldElement:
        a = self._scalar(alpha)
        ops = self.field.ops
        acc = ops.from_int(0)
        for c in reversed(self.raw):
            acc = ops.add(ops.mul(acc, a), c)
        return FieldElement(self.field, acc)

    # -- calculus-style transforms -------------------------------------------

    def derivative(self) -> "Polynomial":
        return self.hasse_derivative(1)

    def hasse_derivative(self, r: int) -> "Polynomial":
        """D^r: x^n -> C(n, r) x^(n-r), binomials taken over Z then mapped
        into the field so characteristic-p vanishing is exact."""
        if r < 0:
            raise ValueError("Hasse derivative order must be >= 0")
        if r == 0:
            return self
        ops = self.field.ops
        return Polynomial.from_raw(
            self.field, [ops.mul(self.raw[i], ops.from_int(comb(i, r)))
                         for i in range(r, len(self.raw))])

    def taylor_shift(self, alpha: FieldElement) -> "Polynomial":
        """f(x + alpha), by Horner over the shifted variable."""
        a = self._scalar(alpha)
        add, mul = self.field.ops.add, self.field.ops.mul
        out: list = []
        for c in reversed(self.raw):
            # out * (x + alpha) + c
            shifted = [c] + out
            for i, v in enumerate(out):
                shifted[i] = add(shifted[i], mul(v, a))
            out = shifted
        return Polynomial.from_raw(self.field, out)

    def homothety(self, alpha: FieldElement) -> "Polynomial":
        """f(alpha x): coefficient i scaled by alpha^i."""
        a = self._scalar(alpha)
        ops = self.field.ops
        if not ops.nonzero(a):
            raise ZeroScaleError("homothety scale must be nonzero")
        out = []
        power = ops.from_int(1)
        for c in self.raw:
            out.append(ops.mul(c, power))
            power = ops.mul(power, a)
        return Polynomial.from_raw(self.field, out)

    def reciprocal(self) -> "Polynomial":
        """x^(deg f) f(1/x); needs f(0) != 0 so the degree is preserved."""
        if not self.raw or not self.field.ops.nonzero(self.raw[0]):
            raise ZeroConstantTermError("reciprocal needs f(0) != 0")
        return Polynomial.from_raw(self.field, self.raw[::-1])

    def is_separable(self) -> bool:
        """No repeated roots over the closure: gcd(f, f') is constant."""
        if self.degree < 1:
            raise ConstantInputError("separability needs degree >= 1")
        return self.gcd(self.derivative()).degree == 0

    def substitute_power(self, k: int) -> "Polynomial":
        """f(x^k)."""
        if k < 1:
            raise ValueError("substitution power must be >= 1")
        if k == 1 or not self.raw:
            return self
        out = [self.field.ops.from_int(0)] * ((len(self.raw) - 1) * k + 1)
        out[::k] = self.raw
        return Polynomial.from_raw(self.field, out)

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
            g = Polynomial.from_raw(self.field, g.raw[::p])
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
