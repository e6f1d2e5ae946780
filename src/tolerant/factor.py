"""Squarefree decomposition, prime-field factorization, and the closure
multiplicity profile.

Squarefree decomposition runs Yun's recursion in characteristic 0 and the
p-th-power-aware variant in characteristic p.  A remaining part c with
c' = 0 is c = C(x^p); C is decomposed recursively and no p-th root of a
coefficient is taken.  Over F_p, Frobenius fixes every coefficient, so
C(x^p) = C(x)^p and each part P of C returns as P with multiplicity m*p: the
parts stay squarefree.  Over F_p(t), which is not perfect, each part P
returns as P(x^p) with multiplicity m.  Either way every part has the shape
g(x^(p^e)) with g separable, and the parts are pairwise coprime, which is
what the per-factor formulas and the multiplicity profile consume.

Full irreducible factorization is provided for F_p only; over Q and F_p(t)
callers supply a Factorization and the invariant formulas validate it by
re-expansion and pairwise coprimality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ._rings import (padd, pdivmod, pgcd, pmod, pmonic, pmul, ppow_mod,
                     pstrip, psub)
from .errors import (ConstantInputError, FieldMismatchError,
                     InvalidFactorizationError, UnsupportedFieldError)
from .field import FieldDescriptor, FieldElement, FieldKind
from .poly import Polynomial


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
        fs = self.factors
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                if fs[i][0].gcd(fs[j][0]).degree != 0:
                    return False
        return True

    def degree(self) -> int:
        return sum(g.degree * m for g, m in self.factors)


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


def _sqf_char0(f: Polynomial) -> dict[int, list[Polynomial]]:
    """Yun's algorithm on a monic input."""
    out: dict[int, list[Polynomial]] = {}
    df = f.derivative()
    c = f.gcd(df)
    w = f.exact_div(c)
    z = df.exact_div(c) - w.derivative()
    i = 1
    while w.degree > 0:
        g = w.gcd(z)
        if g.degree > 0:
            out.setdefault(i, []).append(g)
        w = w.exact_div(g)
        z = z.exact_div(g) - w.derivative()
        i += 1
    return out


def _sqf_charp(f: Polynomial) -> dict[int, list[Polynomial]]:
    """Characteristic-p recursion on a monic input.  The part left after
    the loop has zero derivative, so it is C(x^p); C is decomposed in turn
    (see the module docstring for how its parts come back)."""
    p = f.field.characteristic
    out: dict[int, list[Polynomial]] = {}
    c = f.gcd(f.derivative())
    w = f.exact_div(c)
    i = 1
    while w.degree > 0:
        y = w.gcd(c)
        z = w.exact_div(y)
        if z.degree > 0:
            out.setdefault(i, []).append(z)
        c = c.exact_div(y)
        w = y
        i += 1
    if c.degree > 0:
        inner = _sqf_charp(Polynomial.from_raw(f.field, c.raw[::p]))
        for m, gs in inner.items():
            if f.field.is_perfect:
                out.setdefault(m * p, []).extend(gs)
            else:
                out.setdefault(m, []).extend(g.substitute_power(p) for g in gs)
    return out


def squarefree_decomposition(f: Polynomial) -> Factorization:
    """Pairwise-coprime parts g_m with f = lc * prod g_m^m, each of the
    shape g(x^(p^e)) with g separable (e = 0 except over F_p(t))."""
    if f.degree < 1:
        raise ConstantInputError("squarefree decomposition needs degree >= 1")
    monic = f.monic()
    if f.field.characteristic == 0:
        parts = _sqf_char0(monic)
    else:
        parts = _sqf_charp(monic)
    return _canonical(parts, f.field, f.leading_coefficient())


# -- factorization over F_p ---------------------------------------------------

_X = (0, 1)


def _ddf(f_t: tuple, p: int) -> list[tuple[int, tuple]]:
    """Distinct-degree split of a monic squarefree tuple: (d, product of all
    irreducible factors of degree d)."""
    out = []
    rem = f_t
    r = pmod(_X, rem, p)
    d = 0
    while len(rem) - 1 > 2 * d:
        d += 1
        r = ppow_mod(r, p, rem, p)
        g = pgcd(psub(r, _X, p), rem, p)
        if len(g) > 1:
            out.append((d, g))
            rem = pdivmod(rem, g, p)[0]
            r = pmod(r, rem, p)
    if len(rem) > 1:
        out.append((len(rem) - 1, rem))
    return out


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
    """Rabin's test: x^(p^n) = x mod f and, for each prime q | n,
    gcd(x^(p^(n/q)) - x, f) is constant."""
    if f.field.kind is not FieldKind.PRIME_FIELD:
        raise UnsupportedFieldError("irreducibility test runs over F_p only")
    n = f.degree
    if n < 1:
        raise ConstantInputError("irreducibility needs degree >= 1")
    if n == 1:
        return True
    p = f.field.p
    f_t = pmonic(f.raw, p)
    powers = {}
    r = pmod(_X, f_t, p)
    for m in range(1, n + 1):
        r = ppow_mod(r, p, f_t, p)
        powers[m] = r
    if psub(powers[n], _X, p):
        return False
    for q in _prime_divisors(n):
        g = pgcd(psub(powers[n // q], _X, p), f_t, p)
        if len(g) > 1:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- closure multiplicities ----------------------------------------------------


def multiplicity_profile(
        f: Polynomial,
        factorization: Optional[Factorization] = None) -> list[tuple[int, int]]:
    """(multiplicity over the closure, count of distinct roots carrying it),
    sorted by multiplicity descending; the weighted sum is deg f.

    Without a caller factorization this derives the profile from the
    squarefree decomposition; in characteristic p each part is desubstituted
    so a factor g_sep(x^(p^e)) of multiplicity m contributes deg(g_sep)
    distinct roots of multiplicity m*p^e.  With a factorization the same
    analysis runs per supplied factor (factors are taken as irreducible).
    """
    if f.degree < 1:
        raise ConstantInputError("multiplicity profile needs degree >= 1")
    p = f.field.characteristic
    counts: dict[int, int] = {}
    if factorization is None:
        entries = squarefree_decomposition(f).factors
    else:
        entries = factorization.factors
    for g, m in entries:
        if p == 0:
            counts[m] = counts.get(m, 0) + g.degree
        else:
            g_sep, e = g.desubstitute()
            mult = m * p ** e
            counts[mult] = counts.get(mult, 0) + g_sep.degree
    return sorted(counts.items(), key=lambda mc: -mc[0])
