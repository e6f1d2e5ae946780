"""Coefficient fields: Q, F_p, and the rational function field F_p(t).

A :class:`FieldDescriptor` names one of the three supported fields; a
:class:`FieldElement` is an immutable exact value tagged with its descriptor.
Canonical forms make equality a plain value comparison:

* Q: ``fractions.Fraction`` (reduced, positive denominator),
* F_p: a residue in ``[0, p)``,
* F_p(t): a reduced fraction of dense F_p[t] tuples with monic denominator.

Each descriptor carries one :class:`FieldOps` table, built once per field,
with the raw arithmetic on those values and the field's integral view for
resultants; ``FieldElement`` operators, ``Polynomial`` and the resultant
code call it instead of branching per field.

Mixing elements of different descriptors raises ``FieldMismatchError``;
Python ints coerce into any field, ``Fraction`` only into Q.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Union

from . import _rings
from .errors import (DivisionByZeroError, FieldMismatchError,
                     UnsupportedFieldError)

MODULUS_CAP = 2 ** 31


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set is exact far beyond 2^31."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldKind(enum.Enum):
    RATIONALS = "q"
    PRIME_FIELD = "fp"
    RATIONAL_FUNCTION_FIELD = "fpt"


@dataclass(frozen=True)
class FieldDescriptor:
    """One of Q, F_p, F_p(t); immutable and hashable."""

    kind: FieldKind
    p: Union[int, None] = None
    ops: "FieldOps" = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind is FieldKind.RATIONALS:
            if self.p is not None:
                raise ValueError("rationals take no modulus")
        else:
            if self.p is None:
                raise ValueError(f"{self.kind.value} needs a prime modulus")
            if not 2 <= self.p < MODULUS_CAP:
                raise ValueError(f"modulus must be in [2, 2^31): {self.p}")
            if not is_prime(self.p):
                raise ValueError(f"modulus is not prime: {self.p}")
        object.__setattr__(self, "ops", _field_ops(self.kind, self.p))

    def __reduce__(self):
        # the ops table holds closures; a copy rebuilds it from (kind, p)
        return FieldDescriptor, (self.kind, self.p)

    @property
    def characteristic(self) -> int:
        return 0 if self.kind is FieldKind.RATIONALS else self.p

    @property
    def char_exponent(self) -> int:
        """p in positive characteristic, 1 over Q."""
        return 1 if self.kind is FieldKind.RATIONALS else self.p

    @property
    def is_perfect(self) -> bool:
        return self.kind is not FieldKind.RATIONAL_FUNCTION_FIELD

    # -- element constructors -------------------------------------------

    def zero(self) -> "FieldElement":
        return self.from_int(0)

    def one(self) -> "FieldElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "FieldElement":
        return FieldElement(self, self.ops.from_int(n))

    def from_fraction(self, q: Fraction) -> "FieldElement":
        return self.from_int(q.numerator) / self.from_int(q.denominator)

    def t(self) -> "FieldElement":
        """The indeterminate t of F_p(t)."""
        if self.kind is not FieldKind.RATIONAL_FUNCTION_FIELD:
            raise UnsupportedFieldError("t exists only in F_p(t)")
        return FieldElement(self, ((0, 1), (1,)))

    def from_t_fraction(self, num, den=(1,)) -> "FieldElement":
        """Build an F_p(t) element from dense t-coefficient sequences."""
        if self.kind is not FieldKind.RATIONAL_FUNCTION_FIELD:
            raise UnsupportedFieldError("t-fractions exist only in F_p(t)")
        p = self.p
        n = _rings.pstrip([c % p for c in num])
        d = _rings.pstrip([c % p for c in den])
        return FieldElement(self, _fpt_reduce(n, d, p))

    def text(self) -> str:
        """CLI syntax: ``q``, ``fp:<p>``, ``fpt:<p>``."""
        if self.kind is FieldKind.RATIONALS:
            return "q"
        return f"{self.kind.value}:{self.p}"

    def __repr__(self) -> str:
        return f"FieldDescriptor({self.text()!r})"


def rationals() -> FieldDescriptor:
    return FieldDescriptor(FieldKind.RATIONALS)


def prime_field(p: int) -> FieldDescriptor:
    return FieldDescriptor(FieldKind.PRIME_FIELD, p)


def rational_function_field(p: int) -> FieldDescriptor:
    return FieldDescriptor(FieldKind.RATIONAL_FUNCTION_FIELD, p)


def parse_field(text: str) -> FieldDescriptor:
    """Parse the CLI descriptor syntax ``q`` / ``fp:P`` / ``fpt:P``."""
    text = text.strip().lower()
    if text == "q":
        return rationals()
    for prefix, maker in (("fp:", prime_field), ("fpt:", rational_function_field)):
        if text.startswith(prefix):
            body = text[len(prefix):]
            if not body.isdigit():
                raise ValueError(f"bad modulus in field descriptor: {text!r}")
            return maker(int(body))
    raise ValueError(f"unknown field descriptor: {text!r} (use q, fp:P, fpt:P)")


def _fpt_reduce(num: tuple, den: tuple, p: int) -> tuple[tuple, tuple]:
    """Canonical F_p(t) fraction: reduced, monic denominator, 0 = ()/(1)."""
    if not den:
        raise DivisionByZeroError("zero denominator in F_p(t)")
    if not num:
        return (), (1,)
    g = _rings.pgcd(num, den, p)
    if len(g) > 1:
        num = _rings.pdivmod(num, g, p)[0]
        den = _rings.pdivmod(den, g, p)[0]
    if den[-1] != 1:
        inv = pow(den[-1], -1, p)
        num = _rings.pmul_ground(num, inv, p)
        den = _rings.pmul_ground(den, inv, p)
    return num, den


class FieldOps(NamedTuple):
    """Raw arithmetic of one field, and its integral view for resultants.

    ``ring`` is the numerator ring (Z, F_p or F_p[t]) and ``u_ring`` the
    polynomials in u over it.  ``den`` reads a value's denominator in
    ``ring`` and ``den_lcm`` combines two; ``clear(v, d)`` is v * d in
    ``ring`` for any multiple d of den(v); ``rebuild(num, scale)`` is the
    value num / scale.  F_p has the trivial denominator 1."""

    add: Callable[[Any, Any], Any]
    neg: Callable[[Any], Any]
    mul: Callable[[Any, Any], Any]
    inverse: Callable[[Any], Any]           # of a nonzero value
    nonzero: Callable[[Any], bool]
    from_int: Callable[[int], Any]
    text: Callable[[Any], str]
    ring: _rings.Ring
    u_ring: _rings.Ring
    den: Callable[[Any], Any]
    den_lcm: Callable[[Any, Any], Any]
    clear: Callable[[Any, Any], Any]
    rebuild: Callable[[Any, Any], Any]


def _int_text(n: int) -> str:
    """Decimal text of an int of any size: str() refuses ints past the
    interpreter's digit limit (640 at the least), so long ones are split."""
    if n < 0:
        return "-" + _int_text(-n)
    if n.bit_length() <= 2000:
        return str(n)
    k = n.bit_length() * 3 // 20            # about half of the digits
    hi, lo = divmod(n, 10 ** k)
    return _int_text(hi) + _int_text(lo).zfill(k)


def _q_text(v: Fraction) -> str:
    den = "" if v.denominator == 1 else "/" + _int_text(v.denominator)
    return _int_text(v.numerator) + den


def _q_ops() -> FieldOps:
    return FieldOps(
        add=operator.add, neg=operator.neg, mul=operator.mul,
        inverse=lambda v: 1 / v, nonzero=bool, from_int=Fraction, text=_q_text,
        ring=_rings.int_ring(), u_ring=_rings.int_poly_ring(),
        den=lambda v: v.denominator, den_lcm=math.lcm,
        clear=lambda v, d: v.numerator * (d // v.denominator),
        rebuild=Fraction)


def _fp_ops(p: int) -> FieldOps:
    ring = _rings.mod_ring(p)
    return FieldOps(
        add=ring.add, neg=ring.neg, mul=ring.mul,
        inverse=lambda v: pow(v, -1, p), nonzero=bool,
        from_int=lambda n: n % p, text=str,
        ring=ring, u_ring=_rings.fp_poly_ring(p),
        den=lambda v: 1, den_lcm=lambda a, b: 1,
        clear=lambda v, d: v, rebuild=lambda num, scale: num)


def _fpt_ops(p: int) -> FieldOps:
    """Values are reduced (numerator, monic denominator) pairs of F_p[t]."""
    pmul = _rings.pmul

    def add(a, b):
        (an, ad), (bn, bd) = a, b
        num = _rings.padd(pmul(an, bd, p), pmul(bn, ad, p), p)
        return _fpt_reduce(num, pmul(ad, bd, p), p)

    def from_int(n: int):
        n %= p
        return (n,) if n else (), (1,)

    def text(v) -> str:
        num, den = v
        if den == (1,):
            return t_poly_text(num)
        return f"({t_poly_text(num)})/({t_poly_text(den)})"

    ring = _rings.fp_poly_ring(p)
    return FieldOps(
        add=add, neg=lambda v: (_rings.pneg(v[0], p), v[1]),
        mul=lambda a, b: _fpt_reduce(pmul(a[0], b[0], p), pmul(a[1], b[1], p), p),
        inverse=lambda v: _fpt_reduce(v[1], v[0], p),
        nonzero=lambda v: bool(v[0]), from_int=from_int, text=text,
        ring=ring, u_ring=_rings.tuple_poly_ring(ring),
        den=lambda v: v[1], den_lcm=lambda a, b: _rings.plcm(a, b, p),
        clear=lambda v, d: pmul(v[0], _rings.pdivmod(d, v[1], p)[0], p),
        rebuild=lambda num, scale: _fpt_reduce(num, scale, p))


@functools.cache
def _field_ops(kind: FieldKind, p: Union[int, None]) -> FieldOps:
    if kind is FieldKind.RATIONALS:
        return _q_ops()
    if kind is FieldKind.PRIME_FIELD:
        return _fp_ops(p)
    return _fpt_ops(p)


def t_poly_text(coeffs: tuple) -> str:
    """Parseable text for a dense F_p polynomial, e.g. ``t^2 + 4*t + 3``."""
    if not coeffs:
        return "0"
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            terms.append(f"{head}t" + (f"^{i}" if i > 1 else ""))
    return " + ".join(terms)


class FieldElement:
    """Immutable exact scalar; arithmetic via operators, always canonical."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldDescriptor, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *_):
        raise AttributeError("FieldElement is immutable")

    # -- plumbing --------------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatchError(
                    f"{self.field.text()} vs {other.field.text()}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction) and self.field.kind is FieldKind.RATIONALS:
            return FieldElement(self.field, other)
        return NotImplemented

    def __bool__(self) -> bool:
        return self.field.ops.nonzero(self.value)

    def is_zero(self) -> bool:
        return not self

    def is_one(self) -> bool:
        return self == self.field.one()

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.ops.add(self.value, other.value))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field.ops.neg(self.value))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.ops.mul(self.value, other.value))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not self:
            raise DivisionByZeroError("inverse of zero")
        return FieldElement(self.field, self.field.ops.inverse(self.value))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise DivisionByZeroError("division by zero")
        return self * other.inverse()

    def __rtruediv__(self, other):
        coerced = self._coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return coerced / self

    def __pow__(self, e: int) -> "FieldElement":
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- characteristic-p structure ---------------------------------------

    def frobenius_power(self, a: int) -> "FieldElement":
        """c^(p^a), by repeated p-th powering."""
        if a < 0:
            raise ValueError("negative Frobenius exponent")
        if a == 0:
            return self
        if self.field.characteristic == 0:
            raise UnsupportedFieldError("Frobenius needs characteristic p")
        p = self.field.p
        if self.field.kind is FieldKind.PRIME_FIELD:
            return self            # a^p = a in F_p
        # (sum c_i t^i)^p = sum c_i t^(ip): coefficients are Frobenius-fixed
        num, den = self.value
        for _ in range(a):
            num = _rings.pstretch(num, p)
            den = _rings.pstretch(den, p)
        return FieldElement(self.field, (num, den))

    # -- text --------------------------------------------------------------

    def canonical_text(self) -> str:
        return self.field.ops.text(self.value)

    def __str__(self) -> str:
        return self.canonical_text()

    def __repr__(self) -> str:
        return f"<{self.canonical_text()} in {self.field.text()}>"
