"""Dense univariate polynomials over one of the supported fields.

Coefficients are the field's raw values (``FieldOps``), stored lowest degree
first and normalized: the last entry is nonzero, the zero polynomial is the
empty tuple, and ``degree`` of zero is the distinguished ``NEG_INFINITY``
marker (which compares below every int).

A product clears each operand by one ``FieldOps.cleared`` call and
multiplies the numerator lists in the field's ``FieldOps.u_ring``, the ring
the u-resultant runs in too: a Kronecker substitution (one big-int
multiplication) for dense operands, the schoolbook loop for sparse ones.
Division and gcd run on the ``_rings`` kernels through ``FieldOps.divmod``
and ``FieldOps.gcd``: over F_p on residue tuples (``pdivmod``, ``pgcd``);
over Q and F_p(t) each operand is cleared once, pseudo-divided in the
numerator ring (Z or F_p[t]) and each result coefficient rebuilt once.  The
gcd over Q is the subresultant PRS of the cleared Z[x] numerators, over
F_p(t) Euclid on primitive pseudo-remainders in F_p[t][x].  Beyond ring
arithmetic this module carries every transform the invariant formulas
need: Hasse derivatives (binomials mod p by Lucas' theorem),
Taylor shift f(x+a), homothety f(ax), the reciprocal x^n f(1/x),
separability, and desubstitution f = f_sep(x^(p^e)).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import compress, count
from math import comb
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .errors import (ConstantInputError, DivisionByZeroError,
                     DuplicateRootsError, FieldMismatchError,
                     ZeroConstantTermError, ZeroScaleError)
from ._rings import ring_pow
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
        return bool(self.raw) and self.raw[-1] == self.field.ops.one

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
        """One product in the numerator ring, ``FieldOps.u_ring.mul``: each
        operand is cleared over the common denominator of its coefficients,
        the two numerator lists are multiplied, and each coefficient of the
        product is rebuilt over the product of the denominators.  A constant
        operand scales the other one."""
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        a, b = self.raw, other.raw
        if not a or not b:
            return Polynomial.zero(self.field)
        if len(b) == 1:
            return self._times(b[0])
        if len(a) == 1:
            return other._times(a[0])
        ops = self.field.ops
        num_a, d_a = ops.cleared(a)
        num_b, d_b = (num_a, d_a) if b is a else ops.cleared(b)
        scale, rebuild = ops.ring.mul(d_a, d_b), ops.rebuild
        product = ops.u_ring.mul(num_a, num_b)
        return Polynomial.from_raw(self.field,
                                   [rebuild(c, scale) for c in product])

    __rmul__ = __mul__

    def scale(self, c: FieldElement) -> "Polynomial":
        return self._times(self._scalar(c))

    def _times(self, v) -> "Polynomial":
        mul, nonzero = self.field.ops.mul, self.field.ops.nonzero
        return Polynomial.from_raw(
            self.field, [mul(a, v) if nonzero(a) else a for a in self.raw])

    def __pow__(self, e: int) -> "Polynomial":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers take nonnegative ints")
        raw, ops = self.raw, self.field.ops
        if raw and not any(map(ops.nonzero, raw[:-1])):
            # a monomial: (c x^d)^e = c^e x^(de), built directly
            c = raw[-1]
            power = c if c == ops.one else ring_pow(c, e, ops)
            zeros = [ops.from_int(0)] * ((len(raw) - 1) * e)
            return Polynomial.from_raw(self.field, zeros + [power])
        return ring_pow(self, e, SimpleNamespace(
            mul=operator.mul, one=Polynomial.one(self.field)))

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Euclidean division, ``FieldOps.divmod``: ``pdivmod`` over F_p, one
        pseudo-division of the cleared numerators over Q and F_p(t)."""
        self._check(other)
        if not other:
            raise DivisionByZeroError("polynomial division by zero")
        q, r = self.field.ops.divmod(self.raw, other.raw)
        return (Polynomial.from_raw(self.field, q),
                Polynomial.from_raw(self.field, r))

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        q, r = divmod(self, other)
        if r:
            raise ArithmeticError("division expected to be exact")
        return q

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic generator of (self, other); gcd(0, 0) = 0.  ``FieldOps.gcd``:
        the subresultant PRS of the cleared Z[x] numerators over Q, Euclid
        over F_p, and over F_p(t) Euclid on primitive pseudo-remainders of
        the cleared F_p[t][x] numerators."""
        self._check(other)
        if not self or not other:
            g = self or other
            return g.monic() if g else g
        return Polynomial.from_raw(self.field,
                                   self.field.ops.gcd(self.raw, other.raw))

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
        """D^r: x^n -> C(n, r) x^(n-r), binomials mapped into the field so
        characteristic-p vanishing is exact (``hasse_raw`` on the raw
        values, each scaled as an int by ``FieldOps.times_int``, with no
        field product)."""
        if r < 0:
            raise ValueError("Hasse derivative order must be >= 0")
        if r == 0:
            return self
        ops = self.field.ops
        return Polynomial.from_raw(self.field, hasse_raw(
            self.raw, r, self.field.p, ops.times_int, ops.nonzero))

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
        power = ops.one
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


def hasse_raw(raw: Sequence, r: int, p: Union[int, None],
              times: Callable[[object, int], object],
              nonzero: Callable[[object], bool] = bool) -> list:
    """The coefficients of D^r, r >= 1, of the polynomial with coefficients
    ``raw`` (lowest degree first), over a field of characteristic p (None
    over Q): entry i is ``times(raw[i + r], C(i + r, r))``, its zero top
    cut.  ``raw`` holds field values (``FieldOps.times_int`` and
    ``nonzero``) or numerator-ring values (``ring.times_int`` and bool).
    Over Q a binomial is taken over Z; in characteristic p, mod p by
    Lucas' theorem, so no binomial is larger than p.  A binomial is taken
    only where the coefficient is nonzero, so sparse input costs its number
    of terms, not its degree, in binomials."""
    out = list(raw[r:])
    if p is None or r < p:
        # r < p has one base-p digit, so Lucas' theorem leaves
        # C(n mod p, r); over Q, n < len(raw) and n % m is n
        m = p or len(raw)
        for i in compress(range(len(out)), map(nonzero, out)):
            out[i] = times(out[i], comb((i + r) % m, r))
    else:
        for i in compress(range(len(out)), map(nonzero, out)):
            out[i] = times(out[i], binomial_mod(i + r, r, p))
    if out and not nonzero(out[-1]):
        # binomials vanish mod p: cut the zero top in one step
        zeros = next(compress(count(), map(nonzero, reversed(out))),
                     len(out))
        del out[len(out) - zeros:]
    return out


def binomial_mod(n: int, k: int, p: int) -> int:
    """C(n, k) mod the prime p, for 0 <= k <= n, by Lucas' theorem: the
    product of the binomials of the base-p digits of n and k."""
    out = 1
    while k:
        n, n_digit = divmod(n, p)
        k, k_digit = divmod(k, p)
        if k_digit > n_digit:
            return 0
        out = out * comb(n_digit, k_digit) % p
    return out


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
