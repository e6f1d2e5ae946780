"""Squarefree decomposition, prime-field factorization, and the closure
multiplicity profile.

Squarefree decomposition runs Yun's recursion in characteristic 0 and the
p-th-power-aware variant in characteristic p.  Both run on the numerator
ring: f is cleared once to the primitive associate F of its numerators in
Z[x], F_p[x] or F_p[t][x], every gcd is the normalized primitive gcd
``FieldOps.primitive_gcd``, and every division is an exact division in
``FieldOps.u_ring``, which Gauss's lemma makes exact for a primitive
divisor.  Each part is rebuilt monic over the field once, at the end.

A remaining part c with c' = 0 is c = C(x^p); C is decomposed recursively
and no p-th root of a coefficient is taken.  Over F_p, Frobenius fixes
every coefficient, so C(x^p) = C(x)^p and each part P of C returns as P
with multiplicity m*p: the parts stay squarefree.  Over F_p(t), which is not perfect, each part P
returns as P(x^p) with multiplicity m.  Either way every part has the shape
g(x^(p^e)) with g separable, and the parts are pairwise coprime, which is
what the per-factor formulas and the multiplicity profile consume.

Full irreducible factorization is provided for F_p only; over Q and F_p(t)
callers supply a Factorization, which the report verifies by re-expansion
and by the resultants and discriminants of the per-factor formula.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from ._rings import (padd, pdivmod, pgcd, pmod, pmonic, pmul, ppow_mod,
                     pstrip, psub)
from .errors import (ConstantInputError, FieldMismatchError,
                     InvalidFactorizationError, UnsupportedFieldError)
from .field import FieldDescriptor, FieldElement, FieldKind, monic_rebuilt
from .poly import Polynomial, hasse_raw
from .resultant import sylvester_resultant


@dataclass(frozen=True)
class Factorization:
    """unit * prod g_i^m_i with monic nonconstant pairwise-coprime g_i."""

    unit: FieldElement
    factors: tuple[tuple[Polynomial, int], ...]

    def __post_init__(self):
        factors = tuple((g, int(m)) for g, m in self.factors)
        object.__setattr__(self, "factors", factors)
        if not self.unit:
            raise InvalidFactorizationError("unit must be nonzero")
        for g, m in factors:
            if g.field != self.unit.field:
                raise FieldMismatchError("factor from a different field")
            if m < 1:
                raise InvalidFactorizationError("multiplicities must be >= 1")
            if g.degree < 1:
                raise InvalidFactorizationError("factors must be nonconstant")
            if not g.is_monic():
                raise InvalidFactorizationError("factors must be monic")

    @property
    def field(self) -> FieldDescriptor:
        return self.unit.field

    def expand(self) -> Polynomial:
        f = Polynomial.constant(self.field, self.unit)
        for g, m in self.factors:
            f = f * g ** m
        return f

    def pairwise_coprime(self) -> bool:
        """No two factors share a root: for nonconstant g_i, g_j that is
        res(g_i, g_j) != 0, taken by the fraction-free PRS."""
        fs = self.factors
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                if not sylvester_resultant(fs[i][0], fs[j][0]):
                    return False
        return True

    def degree(self) -> int:
        return sum(g.degree * m for g, m in self.factors)

    @cached_property
    def parts(self) -> tuple[tuple[Polynomial, Polynomial, int, int], ...]:
        """(g, g_sep, e, m) per factor g^m, with g = g_sep(x^(p^e)) and
        g_sep' != 0 (e = 0 over Q); each factor is desubstituted once."""
        return tuple((g, *g.desubstitute(), m) for g, m in self.factors)


def _canonical(factors: dict[int, list[Polynomial]] | list, field,
               unit: FieldElement) -> Factorization:
    if isinstance(factors, dict):
        flat = [(g, m) for m, gs in factors.items() for g in gs]
    else:
        flat = list(factors)
    flat.sort(key=lambda gm: (gm[0].degree, _int_key(gm[0]), gm[1]))
    return Factorization(unit, tuple(flat))


def _int_key(g: Polynomial):
    if g.field.kind is FieldKind.RATIONALS:
        return tuple((v.numerator, v.denominator) for v in g.raw)
    return g.raw


def _derivative(c: Sequence, field: FieldDescriptor) -> list:
    """The derivative of the numerator list c."""
    return hasse_raw(c, 1, field.p, field.ops.ring.times_int)


def _sqf_char0(F: Sequence, C: Sequence,
               field: FieldDescriptor) -> dict[int, list[tuple]]:
    """Yun's algorithm on the numerator ring: F primitive, C = gcd(F, F')
    primitive, every division exact by Gauss's lemma."""
    ops = field.ops
    div, sub = ops.u_ring.exact_div, ops.u_ring.sub
    out: dict[int, list[tuple]] = {}
    w = div(F, C)
    z = sub(div(_derivative(F, field), C), _derivative(w, field))
    i = 1
    while len(w) > 1:
        g = ops.primitive_gcd(w, z)
        if len(g) > 1:
            out.setdefault(i, []).append(g)
        w = div(w, g)
        z = sub(div(z, g), _derivative(w, field))
        i += 1
    return out


def _sqf_charp(F: Sequence, C: Sequence,
               field: FieldDescriptor) -> dict[int, list[tuple]]:
    """Characteristic-p recursion on the numerator ring, F and C = gcd(F, F')
    primitive.  The part left after the loop has zero derivative, so it is
    C(x^p); C is decomposed in turn (the module docstring says how its
    parts return)."""
    ops, p = field.ops, field.p
    div, zero = ops.u_ring.exact_div, ops.ring.zero
    out: dict[int, list[tuple]] = {}
    w = div(F, C)
    i = 1
    while len(w) > 1:
        y = ops.primitive_gcd(w, C)
        z = div(w, y)
        if len(z) > 1:
            out.setdefault(i, []).append(z)
        C = div(C, y)
        w = y
        i += 1
    if len(C) > 1:
        if _derivative(C, field):
            raise ArithmeticError("the part left has a nonzero derivative")
        G = C[::p]
        inner = _sqf_charp(G, ops.primitive_gcd(G, _derivative(G, field)),
                           field)
        for m, gs in inner.items():
            if field.is_perfect:
                out.setdefault(m * p, []).extend(gs)
                continue
            for g in gs:                    # g(x^p)
                stretched = [zero] * ((len(g) - 1) * p + 1)
                stretched[::p] = g
                out.setdefault(m, []).append(tuple(stretched))
    return out


def squarefree_decomposition(f: Polynomial) -> Factorization:
    """Pairwise-coprime parts g_m with f = lc * prod g_m^m, each of the
    shape g(x^(p^e)) with g separable (e = 0 except over F_p(t)).  Its first
    gcd is c = gcd(f, f'); ``build_report`` hands over the one that ended
    its PRS of (f, f'), which also gave disc and gdisc's width 1."""
    if f.degree < 1:
        raise ConstantInputError("squarefree decomposition needs degree >= 1")
    ops = f.field.ops
    F = ops.primitive_gcd(ops.cleared(f.raw)[0], ())
    return _decomposed(f, F, ops.primitive_gcd(F, _derivative(F, f.field)))


def _squarefree_with_gcd(f: Polynomial, c: Polynomial) -> Factorization:
    """squarefree_decomposition of f, given c = gcd(f, f') (monic, so its
    cleared numerators are primitive with a canonical leading
    coefficient)."""
    if c.degree < 1:
        return _decomposed(f, None, ())
    ops = f.field.ops
    return _decomposed(f, ops.primitive_gcd(ops.cleared(f.raw)[0], ()),
                       ops.cleared(c.raw)[0])


def _decomposed(f: Polynomial, F: Optional[Sequence],
                C: Sequence) -> Factorization:
    """The decomposition of f from F, the primitive numerators of f, and C
    = gcd(F, F').  When C is a constant, f is separable and its one part is
    f.monic(), what both loops would return after their exact divisions by
    1; it is returned at once.  Otherwise the loops run on the numerator
    ring and each part is rebuilt monic over the field once."""
    field = f.field
    if len(C) < 2:
        parts = {1: [f.monic()]}
    else:
        sqf = _sqf_char0 if field.characteristic == 0 else _sqf_charp
        parts = {m: [Polynomial.from_raw(field, monic_rebuilt(g, field.ops))
                     for g in gs]
                 for m, gs in sqf(F, C, field).items()}
    return _canonical(parts, field, f.leading_coefficient())


# -- factorization over F_p ---------------------------------------------------

_X = (0, 1)


def _ddf(f_t: tuple, p: int) -> Iterator[tuple[int, tuple]]:
    """Distinct-degree split of a monic squarefree tuple, block by block:
    (d, product of all irreducible factors of degree d), d ascending.  It is
    also the irreducibility test, for which f_t need not be squarefree: the
    first block has d = deg f_t exactly when f_t is irreducible."""
    rem = f_t
    r = pmod(_X, rem, p)
    d = 0
    while len(rem) - 1 > 2 * d:
        d += 1
        r = ppow_mod(r, p, rem, p)
        g = pgcd(psub(r, _X, p), rem, p)
        if len(g) > 1:
            yield d, g
            rem = pdivmod(rem, g, p)[0]
            r = pmod(r, rem, p)
    if len(rem) > 1:
        yield len(rem) - 1, rem


def _edf(f_t: tuple, d: int, p: int, rng: random.Random) -> list[tuple]:
    """Cantor-Zassenhaus equal-degree split: f_t is a product of distinct
    irreducibles, all of degree d."""
    n = len(f_t) - 1
    if n == d:
        return [f_t]
    half = (p ** d - 1) // 2
    while True:
        r = pstrip([rng.randrange(p) for _ in range(n)])
        if len(r) < 2:
            continue
        if p > 2:
            s = ppow_mod(r, half, f_t, p)
            g = pgcd(psub(s, (1,), p), f_t, p)
        else:
            acc = s = pmod(r, f_t, p)
            for _ in range(d - 1):
                s = pmod(pmul(s, s, p), f_t, p)
                acc = padd(acc, s, p)
            g = pgcd(acc, f_t, p)
        if 0 < len(g) - 1 < n:
            rest = pdivmod(f_t, g, p)[0]
            return _edf(g, d, p, rng) + _edf(rest, d, p, rng)


def factor_prime_field(f: Polynomial, seed: int = 0) -> Factorization:
    """Monic irreducible factorization over F_p; the seed drives the
    equal-degree splitting so failures replay exactly."""
    if f.field.kind is not FieldKind.PRIME_FIELD:
        raise UnsupportedFieldError("irreducible factorization runs over F_p only")
    if f.degree < 1:
        raise ConstantInputError("factorization needs degree >= 1")
    p = f.field.p
    rng = random.Random(seed)
    sqf = squarefree_decomposition(f)
    flat: list[tuple[Polynomial, int]] = []
    for part, m in sqf.factors:
        for d, prod in _ddf(part.raw, p):
            for irr in _edf(prod, d, p, rng):
                flat.append((Polynomial.from_raw(f.field, irr), m))
    return _canonical(flat, f.field, f.leading_coefficient())


def is_irreducible_prime_field(f: Polynomial) -> bool:
    """Whether f is irreducible over F_p: the distinct-degree split of monic
    f is the one block (n, f).  A reducible f has an irreducible factor of
    some degree d <= n/2, where ``_ddf``'s gcd fires first, so the split
    stops at its first block; an irreducible f has no root in F_(p^d) for
    d < n, so no gcd fires.  f need not be squarefree."""
    if f.field.kind is not FieldKind.PRIME_FIELD:
        raise UnsupportedFieldError("irreducibility test runs over F_p only")
    n = f.degree
    if n < 1:
        raise ConstantInputError("irreducibility needs degree >= 1")
    return next(_ddf(pmonic(f.raw, f.field.p), f.field.p))[0] == n


# -- closure multiplicities ----------------------------------------------------


def multiplicity_profile(
        f: Polynomial,
        factorization: Optional[Factorization] = None) -> list[tuple[int, int]]:
    """(multiplicity over the closure, count of distinct roots carrying it),
    sorted by multiplicity descending; the weighted sum is deg f.

    The profile is read off ``Factorization.parts`` of the caller's
    factorization, else of the squarefree decomposition: a factor
    g_sep(x^(p^e)) of multiplicity m contributes deg(g_sep) distinct roots
    of multiplicity m*p^e, provided g_sep is separable and the factors are
    pairwise coprime.
    """
    if f.degree < 1:
        raise ConstantInputError("multiplicity profile needs degree >= 1")
    if factorization is None:
        factorization = squarefree_decomposition(f)
    q = f.field.char_exponent
    counts: dict[int, int] = {}
    for _, g_sep, e, m in factorization.parts:
        mult = m * q ** e
        counts[mult] = counts.get(mult, 0) + g_sep.degree
    return sorted(counts.items(), key=lambda mc: -mc[0])
