"""Randomized cross-validation of the invariant paths.

Instances are built from known factorizations (random irreducibles over F_p,
rational-rooted products over Q), so every alternative route has its inputs
available and all comparisons are exact.  Everything is driven by one seeded
generator: a failing seed replays verbatim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Optional

from .errors import UnsupportedFieldError
from .factor import Factorization, is_irreducible_prime_field
from .field import FieldDescriptor, FieldElement, FieldKind
from .invariants import (FactorFormula, dupl, gdisc, gdisc_by_elimination,
                         in_T, homothety_exponent, inversion_criterion, tol,
                         tol_from_factorization, tol_from_roots)
from .parsing import polynomial_text
from .poly import Polynomial, RootMultiset, poly_from_roots
from .resultant import discriminant


@dataclass
class SelfcheckSummary:
    field: FieldDescriptor
    seed: int
    count: int
    max_degree: int
    passed: dict = dc_field(default_factory=dict)
    failed: dict = dc_field(default_factory=dict)
    first_counterexample: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failed

    def record(self, name: str, good: bool, detail: str) -> None:
        bucket = self.passed if good else self.failed
        bucket[name] = bucket.get(name, 0) + 1
        if not good and self.first_counterexample is None:
            self.first_counterexample = detail

    def lines(self) -> list[str]:
        out = [f"selfcheck field={self.field.text()} seed={self.seed} "
               f"count={self.count} max-degree={self.max_degree}"]
        for name in sorted(set(self.passed) | set(self.failed)):
            ok_n = self.passed.get(name, 0)
            bad_n = self.failed.get(name, 0)
            status = "FAIL" if bad_n else "ok"
            out.append(f"  {status:4} {name}: {ok_n} passed, {bad_n} failed")
        if self.first_counterexample is not None:
            out.append(f"first counterexample: {self.first_counterexample}")
        out.append("result: " + ("PASS" if self.ok else "FAIL"))
        return out


def _random_irreducible(field: FieldDescriptor, rng: random.Random,
                        degree: int) -> Polynomial:
    p = field.p
    while True:
        g = Polynomial.from_ints(
            field, [rng.randrange(p) for _ in range(degree)] + [1])
        if degree == 1 or is_irreducible_prime_field(g):
            return g


def _instance_fp(field: FieldDescriptor, rng: random.Random, max_degree: int):
    p = field.p
    remaining = max(1, max_degree)
    factors: list[tuple[Polynomial, int]] = []
    while remaining >= 1:
        d = rng.randint(1, min(3, remaining))
        m = rng.randint(1, min(3, remaining // d))
        g = _random_irreducible(field, rng, d)
        if any(g == h for h, _ in factors):
            if len(factors) >= p:
                break
            continue
        factors.append((g, m))
        remaining -= d * m
        if rng.random() < 0.35:
            break
    unit = field.from_int(rng.randrange(1, p))
    fac = Factorization(unit, tuple(factors))
    return fac.expand(), fac, None


def _instance_q(field: FieldDescriptor, rng: random.Random, max_degree: int):
    remaining = max(1, max_degree)
    roots: dict[Fraction, int] = {}
    while remaining >= 1:
        m = rng.randint(1, min(3, remaining))
        r = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if r in roots:
            if len(roots) > 20:
                break
            continue
        roots[r] = m
        remaining -= m
        if rng.random() < 0.35:
            break
    lc = Fraction(rng.choice([n for n in range(-9, 10) if n]),
                  rng.randint(1, 3))
    unit = field.from_fraction(lc)
    entries = tuple((field.from_fraction(r), m) for r, m in roots.items())
    rm = RootMultiset(entries, unit)
    x = Polynomial.x(field)
    factors = tuple((x - Polynomial.constant(field, r), m)
                    for r, m in entries)
    fac = Factorization(unit, factors)
    return poly_from_roots(rm, field), fac, rm


def _random_element(field: FieldDescriptor, rng: random.Random) -> FieldElement:
    if field.kind is FieldKind.PRIME_FIELD:
        return field.from_int(rng.randrange(field.p))
    return field.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))


def _check_instance(f: Polynomial, fac: Factorization,
                    rm: Optional[RootMultiset], rng: random.Random,
                    summary: SelfcheckSummary) -> None:
    field = f.field
    name = polynomial_text(f)
    t = tol(f)

    def check(label: str, good: bool, got, want) -> None:
        summary.record(label, good,
                       f"{label} on {name}: got {got}, expected {want}")

    check("tol-nonzero", bool(t), t, "a nonzero value")

    alt = tol_from_factorization(fac, FactorFormula.CORRECTED)
    check("corrected-path", alt == t, alt, t)

    separable_factors = all(g.is_separable() for g, _ in fac.factors)
    if separable_factors:
        sep = tol_from_factorization(fac, FactorFormula.PAPER_SEPARABLE)
        check("separable-mode", sep == t, sep, t)
        gen = tol_from_factorization(fac, FactorFormula.PAPER_GENERAL)
        check("general-mode", gen == t, gen, t)

    if rm is not None:
        oracle = tol_from_roots(rm, f.degree)
        check("roots-oracle", oracle == t, oracle, t)

    if f.degree >= 1 and f.is_separable():
        d = discriminant(f)
        check("disc-when-separable", d == t, d, t)

    if f.degree >= 2:
        g = gdisc(f)
        signed = -t if (f.degree * (f.degree - 1) // 2) % 2 else t
        check("sign-law", g == signed, g, signed)
        # the paper's elimination, which no report runs
        e = gdisc_by_elimination(f)
        check("elimination", e == g, e, g)

    lc = f.leading_coefficient()
    dp = dupl(f)
    check("duplicant-relation", dp == lc * lc * t, dp, lc * lc * t)

    alpha = _random_element(field, rng)
    shifted = tol(f.taylor_shift(alpha))
    check("translation-invariance", shifted == t, shifted, t)

    while not alpha:
        alpha = _random_element(field, rng)
    h = homothety_exponent(f, fac)
    scaled = tol(f.homothety(alpha))
    want = alpha ** h * t
    check("homothety-law", scaled == want, scaled, want)

    if f.constant_term():
        crit = inversion_criterion(fac)
        direct = in_T(f)
        check("inversion-criterion", crit == direct, crit, direct)


def run_selfcheck(field: FieldDescriptor, seed: int = 0, count: int = 100,
                  max_degree: int = 8) -> SelfcheckSummary:
    """Deterministic (field, seed, count, max_degree) -> summary."""
    if field.kind is FieldKind.RATIONAL_FUNCTION_FIELD:
        raise UnsupportedFieldError(
            "selfcheck generators cover q and fp fields; F_p(t) inputs "
            "are exercised through explicit factored expressions")
    summary = SelfcheckSummary(field, seed, count, max_degree)
    rng = random.Random(seed)
    make = (_instance_fp if field.kind is FieldKind.PRIME_FIELD
            else _instance_q)
    for _ in range(count):
        f, fac, rm = make(field, rng, max_degree)
        _check_instance(f, fac, rm, rng, summary)
    return summary
