"""Shared fixtures and small builders used across the suite."""

from fractions import Fraction

import pytest

from tolerant import (FieldDescriptor, Polynomial, prime_field,
                      rational_function_field, rationals)


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
