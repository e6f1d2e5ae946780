"""Coefficient fields: Q, F_p, and the rational function field F_p(t).

A :class:`FieldDescriptor` names one of the three supported fields; a
:class:`FieldElement` is an immutable exact value tagged with its descriptor.
Canonical forms make equality a plain value comparison:

* Q: ``fractions.Fraction`` (reduced, positive denominator),
* F_p: a residue in ``[0, p)``,
* F_p(t): a reduced fraction of dense F_p[t] tuples with monic denominator.

Each descriptor carries one :class:`FieldOps` table, built once per field,
with the raw arithmetic on those values and the field's integral view:
``cleared`` and ``rebuild`` between values and its numerator ring, the
polynomial ring over that, whose product serves ``Polynomial`` products and
u-resultants alike, and the division and gcd of coefficient tuples on the
``_rings`` kernels.  ``FieldElement`` operators,
``Polynomial`` and the resultant code call it instead of branching per
field.

Mixing elements of different descriptors raises ``FieldMismatchError``;
Python ints coerce into any field, ``Fraction`` only into Q.
"""

from __future__ import annotations

import decimal
import enum
import functools
import math
import operator
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Sequence, Union

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
    if den == (1,):
        return num, den
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
    """Raw arithmetic of one field, and its integral view for products and
    resultants.

    ``ring`` is the numerator ring (Z, F_p or F_p[t]) and ``u_ring`` the
    polynomials over it, whose ``mul`` is the one product of coefficient
    lists: ``Polynomial`` products and u-resultants both run on it.
    ``cleared(values)`` takes a sequence of values to (values * d, d) in
    ``ring``, d the lcm of their denominators (monic over F_p[t]); over F_p
    it is (values, 1).  ``rebuild(num, scale)`` is the value num / scale.
    ``resultant(a, b)`` is the one resultant kernel of ``ring``, chosen
    here: Euclid over the field (``fp_resultant``) for F_p, the
    subresultant PRS for Z and F_p[t]; it takes two coefficient lists and
    returns (res, the last nonzero remainder).  ``times_int(v, n)`` is the
    value v times the int n, with no field product.

    ``primitive_gcd(a, b)`` is the normalized primitive gcd of two
    numerator lists in the polynomial ring over ``ring``, a nonzero, as a
    tuple: primitive, times the unit that makes its last entry canonical
    (positive over Z, with leading t-coefficient 1 over F_p[t], 1 over
    F_p).  It is the subresultant PRS's last remainder over its content for
    Z, ``_rings.primitive_gcd`` for F_p[t] (whose result is primitive
    already, so only its unit is normalized), ``pgcd`` for F_p.  An empty b
    gives gcd(a, 0), the normalized primitive associate of a, which is how
    the chains normalize a polynomial.  By Gauss's lemma a primitive
    divisor over the field divides in the numerator polynomial ring, so the
    squarefree decomposition and gdisc's gcd chain run on these and on
    ``u_ring.exact_div``.

    ``divmod(a, b)`` is Euclidean division of normalized coefficient tuples
    (b nonzero), and ``gcd(a, b)`` the monic gcd of two nonzero ones: one
    ``monic_rebuilt`` of ``primitive_gcd`` of their cleared numerators.
    Both return coefficient sequences, the remainder normalized."""

    add: Callable[[Any, Any], Any]
    neg: Callable[[Any], Any]
    mul: Callable[[Any, Any], Any]
    inverse: Callable[[Any], Any]           # of a nonzero value
    nonzero: Callable[[Any], bool]
    from_int: Callable[[int], Any]
    one: Any
    text: Callable[[Any], str]
    ring: _rings.Ring
    u_ring: _rings.Ring
    cleared: Callable[[Sequence], tuple[Sequence, Any]]
    rebuild: Callable[[Any, Any], Any]
    resultant: Callable[[Sequence, Sequence], tuple[Any, Sequence]]
    times_int: Callable[[Any, int], Any]
    primitive_gcd: Callable[[Sequence, Sequence], tuple]
    divmod: Callable[[Sequence, Sequence], tuple[Sequence, Sequence]] = None
    gcd: Callable[[Sequence, Sequence], Sequence] = None


def monic_rebuilt(num: Sequence, ops: FieldOps) -> list:
    """The monic polynomial over the field that is a multiple of the
    numerator-ring coefficients ``num`` (last entry nonzero)."""
    lead = num[-1]
    return [ops.rebuild(c, lead) for c in num]


def _with_gcd(ops: FieldOps) -> FieldOps:
    """``ops`` with its field gcd: ``primitive_gcd`` of the cleared
    numerators, made monic by one ``monic_rebuilt``."""
    cleared, primitive_gcd = ops.cleared, ops.primitive_gcd

    def gcd(a: Sequence, b: Sequence) -> list:
        return monic_rebuilt(primitive_gcd(cleared(a)[0], cleared(b)[0]), ops)

    return ops._replace(gcd=gcd)


def _with_division(ops: FieldOps) -> FieldOps:
    """``ops`` with the division of Q or F_p(t): it clears each operand
    once, pseudo-divides once in the numerator ring, and rebuilds each
    coefficient of the quotient and remainder once: lc(B)^e * A = Q * B + R
    for a = A / d_a and b = B / d_b gives a = (Q * d_b / s) * b + R / s
    with s = lc(B)^e * d_a."""
    ring, rebuild, cleared = ops.ring, ops.rebuild, ops.cleared

    def divmod_(a: Sequence, b: Sequence) -> tuple[Sequence, Sequence]:
        if len(a) < len(b):
            return (), a
        num_a, d_a = cleared(a)
        num_b, d_b = cleared(b)
        q, r, e = _rings.pseudo_divmod(num_a, num_b, ring)
        scale = ring.mul(d_a, _rings.ring_pow(num_b[-1], e, ring))
        return ([rebuild(ring.mul(c, d_b), scale) for c in q],
                [rebuild(c, scale) for c in _rings.pstrip(r)])

    return ops._replace(divmod=divmod_)


def _int_text(n: int) -> str:
    """Decimal text of an int of any size: str() refuses ints past the
    interpreter's digit limit (640 at the least) and is quadratic, so a long
    one is rebuilt as an exact Decimal, whose products are subquadratic."""
    if n.bit_length() <= 2000:
        return str(n)
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        return str(_int_decimal(n))


def _int_decimal(n: int) -> decimal.Decimal:
    """n as a Decimal, by binary splitting: D(hi) * 2^k + D(lo)."""
    if n < 0:
        return -_int_decimal(-n)
    if n.bit_length() <= 2000:
        return decimal.Decimal(n)
    k = n.bit_length() // 2
    return (_int_decimal(n >> k) * decimal.Decimal(2) ** k
            + _int_decimal(n & ((1 << k) - 1)))


def _q_text(v: Fraction) -> str:
    den = "" if v.denominator == 1 else "/" + _int_text(v.denominator)
    return _int_text(v.numerator) + den


def _q_cleared(values: Sequence[Fraction]) -> tuple[list, int]:
    # pairwise lcms: faster than math.lcm(*dens) on long lists, and its
    # unpacked generator raised report-mixed's peak RSS by 3 %
    d = 1
    for v in values:
        d = math.lcm(d, v.denominator)
    return [v.numerator * (d // v.denominator) for v in values], d


def _z_primitive(c: Sequence) -> tuple:
    """c over its content, with a positive last entry."""
    g = math.gcd(*c)
    if c[-1] < 0:
        g = -g
    return tuple(c) if g == 1 else tuple([x // g for x in c])


def _q_ops() -> FieldOps:
    ring = _rings.int_ring()

    def primitive_gcd(a: Sequence, b: Sequence) -> tuple:
        # the last nonzero remainder of the subresultant PRS in Z[x]
        return _z_primitive(_rings.subresultant(a, b, ring)[1] if b else a)

    return FieldOps(
        add=operator.add, neg=operator.neg, mul=operator.mul,
        inverse=lambda v: 1 / v, nonzero=bool, from_int=Fraction,
        one=Fraction(1), text=_q_text,
        ring=ring, u_ring=_rings.kron_poly_ring(ring, _rings.kron_mul,
                                                _rings.KRON_MUL_MIN),
        cleared=_q_cleared, rebuild=Fraction,
        resultant=lambda a, b: _rings.subresultant(a, b, ring),
        times_int=operator.mul,
        primitive_gcd=primitive_gcd)


def _fp_ops(p: int) -> FieldOps:
    ring = _rings.mod_ring(p)
    return FieldOps(
        add=ring.add, neg=ring.neg, mul=ring.mul,
        inverse=lambda v: pow(v, -1, p), nonzero=bool,
        from_int=lambda n: n % p, one=1, text=str,
        ring=ring, u_ring=_rings.fp_poly_ring(p),
        cleared=lambda values: (values, 1),
        rebuild=lambda num, scale: num if scale == 1 else ring.exact_div(
            num, scale),
        resultant=lambda a, b: _rings.fp_resultant(a, b, p),
        times_int=ring.times_int,
        primitive_gcd=lambda a, b: tuple(_rings.pgcd(a, b, p)),
        divmod=lambda a, b: _rings.pdivmod(a, b, p))


def _fpt_ops(p: int) -> FieldOps:
    """Values are reduced (numerator, monic denominator) pairs of F_p[t]."""
    pmul = _rings.pmul

    def add(a, b):
        (an, ad), (bn, bd) = a, b
        if ad == bd:
            return _fpt_reduce(_rings.padd(an, bn, p), ad, p)
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

    def cleared(values):
        d = (1,)
        for _, den in values:
            d = _rings.plcm(d, den, p)
        return [num if den == d else pmul(num, _rings.pdivmod(d, den, p)[0], p)
                for num, den in values], d

    ring = _rings.fp_poly_ring(p)

    def times_int(v, n: int):
        # n is a unit of F_p or zero, so num * n / den stays reduced
        return (ring.times_int(v[0], n), v[1]) if n % p else ((), (1,))

    def unit_normal(c: Sequence) -> tuple:
        """c times the inverse of its leading t-coefficient."""
        u = c[-1][-1]
        if u == 1:
            return tuple(c)
        inv = pow(u, -1, p)
        return tuple([_rings.pmul_ground(v, inv, p) for v in c])

    def primitive_gcd(a: Sequence, b: Sequence) -> tuple:
        # not the subresultant PRS in F_p[t][x]: its exact divisions of long
        # F_p[t] tuples are schoolbook pdivmod, which made it slower
        if not b:
            return unit_normal(_rings.primitive_part(a, p))
        return unit_normal(_rings.primitive_gcd(a, b, ring, p))

    return FieldOps(
        add=add, neg=lambda v: (_rings.pneg(v[0], p), v[1]),
        mul=lambda a, b: _fpt_reduce(pmul(a[0], b[0], p), pmul(a[1], b[1], p), p),
        inverse=lambda v: _fpt_reduce(v[1], v[0], p),
        nonzero=lambda v: bool(v[0]), from_int=from_int, one=((1,), (1,)),
        text=text,
        ring=ring, u_ring=_rings.fpt_u_ring(p),
        cleared=cleared, rebuild=lambda num, scale: _fpt_reduce(num, scale, p),
        resultant=lambda a, b: _rings.subresultant(a, b, ring),
        times_int=times_int, primitive_gcd=primitive_gcd)


@functools.cache
def _field_ops(kind: FieldKind, p: Union[int, None]) -> FieldOps:
    """The ops table of (kind, p); the modulus is checked, and the table
    built, once per pair."""
    if kind is FieldKind.RATIONALS:
        if p is not None:
            raise ValueError("rationals take no modulus")
        return _with_gcd(_with_division(_q_ops()))
    if p is None:
        raise ValueError(f"{kind.value} needs a prime modulus")
    if not 2 <= p < MODULUS_CAP:
        raise ValueError(f"modulus must be in [2, 2^31): {p}")
    if not is_prime(p):
        raise ValueError(f"modulus is not prime: {p}")
    if kind is FieldKind.PRIME_FIELD:
        return _with_gcd(_fp_ops(p))
    return _with_gcd(_with_division(_fpt_ops(p)))


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
        return FieldElement(self.field,
                            _rings.ring_pow(self.value, e, self.field.ops))

    # -- text --------------------------------------------------------------

    def canonical_text(self) -> str:
        return self.field.ops.text(self.value)

    def __str__(self) -> str:
        return self.canonical_text()

    def __repr__(self) -> str:
        return f"<{self.canonical_text()} in {self.field.text()}>"
