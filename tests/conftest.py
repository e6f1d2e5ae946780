"""Shared fixtures and small builders used across the suite."""

import importlib.util
import shlex
import sys
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path

import pytest

from tolerant import (FieldDescriptor, FieldElement, FieldKind, Polynomial,
                      UnsupportedFieldError, prime_field,
                      rational_function_field, rationals)
from tolerant._rings import pstretch, pstrip


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
