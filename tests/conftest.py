"""Shared fixtures and small builders used across the suite."""

import importlib.util
import shlex
import sys
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import pytest

from tolerant import (FieldDescriptor, FieldElement, FieldKind, Polynomial,
                      UnsupportedFieldError, field as field_module,
                      prime_field, rational_function_field, rationals)
from tolerant._rings import pstretch, pstrip
from tolerant.factor import Factorization, _canonical
from tolerant.invariants import _nonzero_levels, tol_variant
from tolerant.resultant import discriminant_and_gcd, sylvester_resultant


@pytest.fixture(scope="session")
def Q() -> FieldDescriptor:
    return rationals()


@pytest.fixture(scope="session")
def F7() -> FieldDescriptor:
    return prime_field(7)


@pytest.fixture(scope="session")
def F101() -> FieldDescriptor:
    return prime_field(101)


@pytest.fixture(scope="session")
def F5T() -> FieldDescriptor:
    return rational_function_field(5)


@pytest.fixture(scope="session")
def F3T() -> FieldDescriptor:
    return rational_function_field(3)


def t_fraction_pool(F):
    """Small F_p(t) values, several with a t-denominator; 0 included."""
    t = F.t()
    one = F.one()
    return [F.zero(), one, t, t + one, one / (t + one), t / (t + one),
            (t + one + one) / t]


def naive_product(f, g):
    """f * g by the schoolbook convolution in boxed field arithmetic: the
    oracle for the Kronecker product behind ``Polynomial.__mul__``."""
    F = f.field
    if not f or not g:
        return Polynomial.zero(F)
    out = [F.zero()] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return Polynomial(F, out)


def frobenius_power(c, a):
    """c^(p^a), by repeated p-th powering: on F_p the identity, on F_p(t)
    t -> t^p in numerator and denominator, whose coefficients Frobenius
    fixes."""
    if a < 0:
        raise ValueError("negative Frobenius exponent")
    if a == 0:
        return c
    F = c.field
    if F.characteristic == 0:
        raise UnsupportedFieldError("Frobenius needs characteristic p")
    if F.kind is FieldKind.PRIME_FIELD:
        return c
    num, den = c.value
    for _ in range(a):
        num, den = pstretch(num, F.p), pstretch(den, F.p)
    return FieldElement(F, (num, den))


def frobenius_twist(f, a):
    """Coefficient-wise c -> c^(p^a); roots get raised to the p^a."""
    return Polynomial(f.field, [frobenius_power(c, a) for c in f.coeffs])


def naive_pmul(a, b, p):
    """a * b in F_p[t] (tuples of residues, lowest degree first) by the
    schoolbook convolution: the oracle for ``_rings.pmul`` on both sides of
    its crossover."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return pstrip([c % p for c in out])


def naive_tmul(a, b, p):
    """a * b in F_p[t][u] (tuples of F_p[t] tuples) by the schoolbook
    convolution over ``naive_pmul``: the oracle for ``_rings.kron_tmul`` and
    the u-ring of F_p(t)."""
    if not a or not b:
        return ()
    out = [()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = pstrip([(c + d) % p for c, d in zip_longest(
                out[i + j], naive_pmul(x, y, p), fillvalue=0)])
    return pstrip(out)


def linear_product(field, pairs, lc=1):
    """lc * prod (x - r)^m; roots given as ints or Fractions."""
    if isinstance(lc, Fraction):
        f = Polynomial.constant(field, field.from_fraction(lc))
    else:
        f = Polynomial.constant(field, field.from_int(lc))
    x = Polynomial.x(field)
    for r, m in pairs:
        if isinstance(r, Fraction):
            rc = field.from_fraction(r)
        else:
            rc = field.from_int(r)
        f = f * (x - Polynomial.constant(field, rc)) ** m
    return f


def fraction_tol(pairs, lc, n):
    """Oracle: lc^(2n-2) * prod (r_i - r_j)^(2 m_i m_j) in plain Fractions."""
    acc = Fraction(lc) ** (2 * n - 2)
    for i in range(len(pairs)):
        ri, mi = pairs[i]
        for j in range(i + 1, len(pairs)):
            rj, mj = pairs[j]
            acc *= (Fraction(ri) - Fraction(rj)) ** (2 * mi * mj)
    return acc


# -- the benchmark corpus and the README's examples ---------------------------

REPO = Path(__file__).resolve().parent.parent
EXPR_COMMANDS = ("tol", "dupl", "gdisc", "disc", "report")


def load_bench_corpus(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_corpus", REPO / "bench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def readme_examples():
    """The expression-command lines of the README: each '$ tolerant ...'
    example and each inline `tolerant`-less call such as `tol ... "x^2-1"`."""
    text = (REPO / "README.md").read_text()
    calls = [shlex.split(line[len("$ tolerant "):])
             for line in text.splitlines() if line.startswith("$ tolerant ")]
    calls += [shlex.split(chunk) for chunk in text.split("`")[1::2]
              if chunk.split(" ")[0] in EXPR_COMMANDS and '"' in chunk]
    return [argv for argv in calls if argv[0] in EXPR_COMMANDS]


# -- the field's ops table, patched -------------------------------------------


def patch_field_ops(monkeypatch, **wrappers):
    """Every FieldDescriptor built from here on (by ``parse_field`` too)
    carries its ops table with each named entry replaced by
    ``wrappers[name](real entry, FieldDescriptor(kind, p))``; the
    descriptor is built when the entry asks for it, as a call
    ``field()``.  The table's ``gcd`` keeps the real ``primitive_gcd``, so
    ``Polynomial.gcd`` is left as it is."""
    real = field_module._field_ops

    def patched(kind, p):
        ops = real(kind, p)
        return ops._replace(**{
            name: wrap(getattr(ops, name), lambda: FieldDescriptor(kind, p))
            for name, wrap in wrappers.items()})

    monkeypatch.setattr(field_module, "_field_ops", patched)


# -- the squarefree decomposition and gdisc's chain on field polynomials ------
#
# The Polynomial-level chains that the numerator-ring ones in
# ``tolerant.factor`` and ``tolerant.invariants`` replaced, kept as they
# were: every gcd made monic, every division a field division.  They are the
# oracles of the differential tests.


def _sqf_char0(f: Polynomial, c: Polynomial) -> dict[int, list[Polynomial]]:
    """Yun's algorithm on a monic input, with c = gcd(f, f')."""
    out: dict[int, list[Polynomial]] = {}
    df = f.derivative()
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


def _sqf_charp(f: Polynomial, c: Polynomial) -> dict[int, list[Polynomial]]:
    """Characteristic-p recursion on monic f, c = gcd(f, f').  The part
    left after the loop has zero derivative, so it is C(x^p); C is
    decomposed in turn (the module docstring says how its parts return)."""
    p = f.field.characteristic
    out: dict[int, list[Polynomial]] = {}
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
        C = Polynomial.from_raw(f.field, c.raw[::p])
        inner = _sqf_charp(C, C.gcd(C.derivative()))
        for m, gs in inner.items():
            if f.field.is_perfect:
                out.setdefault(m * p, []).extend(gs)
            else:
                out.setdefault(m, []).extend(g.substitute_power(p) for g in gs)
    return out


def oracle_squarefree(f: Polynomial) -> Factorization:
    """The squarefree decomposition by the field-level loops."""
    c = f.gcd(f.derivative())
    sqf = _sqf_char0 if f.field.characteristic == 0 else _sqf_charp
    parts = {1: [f.monic()]} if c.degree < 1 else sqf(f.monic(), c)
    return _canonical(parts, f.field, f.leading_coefficient())


def _gdisc_from(f: Polynomial, disc: FieldElement,
                g_j: Polynomial) -> FieldElement:
    """gdisc of f, n >= 2, from (disc, g_j = g_1) of discriminant_and_gcd."""
    n, p = f.degree, f.field.p
    lc = f.leading_coefficient()
    if disc:
        return tol_variant("gdisc", lc, n, disc)    # disc = tol, separable f
    radical, one = p is None or n < p, Polynomial.one(f.field)
    a = g = f.monic()
    chain = []                      # (j, h_j, D^j f, g_j) for j = 1..M
    for j in range(1, n + 1) if radical else _nonzero_levels(f):
        d = r = f.hasse_derivative(j)
        if j > 1 and radical:       # g_(j-1) | h_(j-1): squarefree
            g_j = g.gcd(d) if h % g else one
        elif j > 1:                 # no drop where g_(j-1) | D^j f
            r = d % g if d else d
            g_j = g.gcd(r) if r else g
        g_j = g_j.monic()
        if not radical and r:
            r.exact_div(g_j)        # so g_j | D^j f
        h = g.exact_div(g_j) if g_j != g else one
        chain.append((j, h, d, g_j))
        g = g_j
        if g.degree < 1:
            break
    else:
        raise ArithmeticError("gcd chain did not reach a constant")
    k, tc = 0, lc ** (n - 2)
    for m, h, d, g_m in chain:
        if radical:             # q_m = rad_m^m, rad_m = h_m / h_(m+1)
            e, q = m, h.exact_div(chain[m][1] if m < len(chain) else one)
        elif h.degree > 0:      # q_m = a_m / a_(m+1)
            e, (a, q) = 1, _split(a, g_m)
        else:
            continue
        if q.degree > 0:
            v = sylvester_resultant(q, d) if d else None
            if not v:
                raise ArithmeticError("res(q_m, D^m f) vanished")
            k += (m - 1) * e * q.degree
            tc = tc * v ** e
    return -tc if (k // 2) % 2 else tc          # (-1)^(k/2) * tc, k even


def _split(a: Polynomial, c: Polynomial) -> tuple[Polynomial, Polynomial]:
    """(the part of a on the roots of c, the rest of a), for monic a and c:
    divide by c while exact, then by gcd(rest, c), which must shrink."""
    part = Polynomial.one(a.field)
    while c.degree > 0 and a.degree > 0:
        q, r = divmod(a, c)
        if not r:
            part, a = part * c, q
            continue
        c_next = a.gcd(c).monic()
        if c_next.degree >= c.degree:
            raise ArithmeticError("gcd(rest, c) did not shrink")
        c.exact_div(c_next)
        c = c_next
    return part, a


def oracle_gdisc(f: Polynomial) -> FieldElement:
    """gdisc by the field-level chain, from the PRS of (f, f')."""
    return _gdisc_from(f, *discriminant_and_gcd(f))
