"""`report` output pinned byte for byte, and the work one report does: one
scalar PRS of res(f, f') at width 1, on repeated roots one scalar resultant
per root multiplicity for gdisc, no u-resultant, no irreducible
factorization, and within the per-factor formula one resultant per pair of
parts and one discriminant per part, which are also the checks of a
caller's factorization.

The cases cover Q, F_7, F_3(t) and F_5(t): the zero polynomial, a nonzero
constant, degree 1, f(0) = 0, repeated roots, inseparable inputs, and caller
factorizations that are valid, invalid, or come from --assert-irreducible.
"""

import json

import pytest

from tolerant import (Polynomial, _rings, factor, invariants,
                      multiplicity_profile, parse_field, parse_polynomial)
from tolerant.cli import main

from conftest import patch_field_ops

GOLDEN = [
    ('q', (), '0',
     '{"field": "q", "input": "0", "degree": null, "tol": null, "dupl": null, "gdisc": null, "disc": null, "separable": null, "in_T": "UNDEFINED", "homothety_exponent": null, "paths_agree": null, "trusted_input": false, "errors": [{"op": "tol", "code": "ZERO_POLYNOMIAL", "message": "tol of the zero polynomial"}, {"op": "dupl", "code": "ZERO_POLYNOMIAL", "message": "dupl of the zero polynomial"}, {"op": "gdisc", "code": "ZERO_POLYNOMIAL", "message": "gdisc of the zero polynomial"}, {"op": "disc", "code": "CONSTANT_INPUT", "message": "discriminant needs degree >= 1"}, {"op": "separable", "code": "CONSTANT_INPUT", "message": "separability needs degree >= 1"}, {"op": "homothety_exponent", "code": "ZERO_POLYNOMIAL", "message": "homothety exponent of the zero polynomial"}]}'),
    ('q', (), '5',
     '{"field": "q", "input": "5", "degree": 0, "tol": "1", "dupl": "25", "gdisc": null, "disc": null, "separable": null, "in_T": true, "homothety_exponent": 0, "paths_agree": null, "trusted_input": false, "errors": [{"op": "gdisc", "code": "DEGREE_TOO_SMALL", "message": "gdisc needs degree >= 2"}, {"op": "disc", "code": "CONSTANT_INPUT", "message": "discriminant needs degree >= 1"}, {"op": "separable", "code": "CONSTANT_INPUT", "message": "separability needs degree >= 1"}]}'),
    ('q', (), '3*x+1',
     '{"field": "q", "input": "3*x + 1", "degree": 1, "tol": "1", "dupl": "9", "gdisc": null, "disc": "1", "separable": true, "in_T": true, "homothety_exponent": 0, "paths_agree": true, "trusted_input": false, "errors": [{"op": "gdisc", "code": "DEGREE_TOO_SMALL", "message": "gdisc needs degree >= 2"}]}'),
    ('q', (), 'x^2-x',
     '{"field": "q", "input": "x^2 - x", "degree": 2, "tol": "1", "dupl": "1", "gdisc": "-1", "disc": "1", "separable": true, "in_T": "UNDEFINED", "homothety_exponent": 2, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('q', (), 'x^2+1',
     '{"field": "q", "input": "x^2 + 1", "degree": 2, "tol": "-4", "dupl": "-4", "gdisc": "4", "disc": "-4", "separable": true, "in_T": true, "homothety_exponent": 2, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('q', (), '-x^2+1',
     '{"field": "q", "input": "-x^2 + 1", "degree": 2, "tol": "4", "dupl": "4", "gdisc": "-4", "disc": "4", "separable": true, "in_T": true, "homothety_exponent": 2, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('q', (), '(x-2)^2*(x-3)',
     '{"field": "q", "input": "x^3 - 7*x^2 + 16*x - 12", "degree": 3, "tol": "1", "dupl": "1", "gdisc": "-1", "disc": "REPEATED_ROOT", "separable": false, "in_T": false, "homothety_exponent": 8, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('q', (), '(x-1)^3*(x+2)^2',
     '{"field": "q", "input": "x^5 + x^4 - 5*x^3 - x^2 + 8*x - 4", "degree": 5, "tol": "531441", "dupl": "531441", "gdisc": "531441", "disc": "REPEATED_ROOT", "separable": false, "in_T": false, "homothety_exponent": 28, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('q', (), 'x^4-x^3-x+1',
     '{"field": "q", "input": "x^4 - x^3 - x + 1", "degree": 4, "tol": "-243", "dupl": "-243", "gdisc": "-243", "disc": "REPEATED_ROOT", "separable": false, "in_T": true, "homothety_exponent": 14, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('q', (), '2*x^3-3*x+1/2',
     '{"field": "q", "input": "2*x^3 - 3*x + 1/2", "degree": 3, "tol": "189", "dupl": "756", "gdisc": "-189", "disc": "189", "separable": true, "in_T": true, "homothety_exponent": 6, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('q', ('--factored',), '2*(x-1)^2*(x+3)',
     '{"field": "q", "input": "2*x^3 + 2*x^2 - 10*x + 6", "degree": 3, "tol": "4096", "dupl": "16384", "gdisc": "-4096", "disc": "REPEATED_ROOT", "separable": false, "in_T": true, "homothety_exponent": 8, "paths_agree": true, "trusted_input": true, "errors": []}'),
    ('q', ('--factored',), '(x-1)*(x^2-1)',
     '{"field": "q", "input": "x^3 - x^2 - x + 1", "degree": 3, "tol": "16", "dupl": "16", "gdisc": "-16", "disc": "REPEATED_ROOT", "separable": false, "in_T": true, "homothety_exponent": 8, "paths_agree": true, "trusted_input": false, "errors": [{"op": "factorization", "code": "INVALID_FACTORIZATION", "message": "factors are not pairwise coprime"}]}'),
    ('q', ('--assert-irreducible',), 'x^2+1',
     '{"field": "q", "input": "x^2 + 1", "degree": 2, "tol": "-4", "dupl": "-4", "gdisc": "4", "disc": "-4", "separable": true, "in_T": true, "homothety_exponent": 2, "paths_agree": true, "trusted_input": true, "errors": []}'),
    ('q', ('--assert-irreducible',), '(x-1)^2',
     '{"field": "q", "input": "x^2 - 2*x + 1", "degree": 2, "tol": "1", "dupl": "1", "gdisc": "-1", "disc": "REPEATED_ROOT", "separable": false, "in_T": true, "homothety_exponent": 4, "paths_agree": true, "trusted_input": false, "errors": [{"op": "factorization", "code": "INVALID_FACTORIZATION", "message": "a desubstituted part has repeated roots"}]}'),
    ('fp:7', (), '0',
     '{"field": "fp:7", "input": "0", "degree": null, "tol": null, "dupl": null, "gdisc": null, "disc": null, "separable": null, "in_T": "UNDEFINED", "homothety_exponent": null, "paths_agree": null, "trusted_input": false, "errors": [{"op": "tol", "code": "ZERO_POLYNOMIAL", "message": "tol of the zero polynomial"}, {"op": "dupl", "code": "ZERO_POLYNOMIAL", "message": "dupl of the zero polynomial"}, {"op": "gdisc", "code": "ZERO_POLYNOMIAL", "message": "gdisc of the zero polynomial"}, {"op": "disc", "code": "CONSTANT_INPUT", "message": "discriminant needs degree >= 1"}, {"op": "separable", "code": "CONSTANT_INPUT", "message": "separability needs degree >= 1"}, {"op": "homothety_exponent", "code": "ZERO_POLYNOMIAL", "message": "homothety exponent of the zero polynomial"}]}'),
    ('fp:7', (), 'x^3+x+1',
     '{"field": "fp:7", "input": "x^3 + x + 1", "degree": 3, "tol": "4", "dupl": "4", "gdisc": "3", "disc": "4", "separable": true, "in_T": true, "homothety_exponent": 6, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('fp:7', (), '(x-1)^2*(x-2)',
     '{"field": "fp:7", "input": "x^3 + 3*x^2 + 5*x + 5", "degree": 3, "tol": "1", "dupl": "1", "gdisc": "6", "disc": "REPEATED_ROOT", "separable": false, "in_T": true, "homothety_exponent": 8, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('fp:7', (), 'x^7-1',
     '{"field": "fp:7", "input": "x^7 + 6", "degree": 7, "tol": "1", "dupl": "1", "gdisc": "6", "disc": "REPEATED_ROOT", "separable": false, "in_T": true, "homothety_exponent": 84, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('fp:7', (), '3*x^4+2*x+5',
     '{"field": "fp:7", "input": "3*x^4 + 2*x + 5", "degree": 4, "tol": "1", "dupl": "2", "gdisc": "1", "disc": "1", "separable": true, "in_T": true, "homothety_exponent": 12, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('fp:7', (), 'x^3-x',
     '{"field": "fp:7", "input": "x^3 + 6*x", "degree": 3, "tol": "4", "dupl": "4", "gdisc": "3", "disc": "4", "separable": true, "in_T": "UNDEFINED", "homothety_exponent": 6, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('fp:7', ('--factored',), '(x-1)^2*(x^2+1)',
     '{"field": "fp:7", "input": "x^4 + 5*x^3 + 2*x^2 + 5*x + 1", "degree": 4, "tol": "6", "dupl": "6", "gdisc": "6", "disc": "REPEATED_ROOT", "separable": false, "in_T": true, "homothety_exponent": 14, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('fp:7', ('--factored',), '(x^2-1)',
     '{"field": "fp:7", "input": "x^2 + 6", "degree": 2, "tol": "4", "dupl": "4", "gdisc": "3", "disc": "4", "separable": true, "in_T": true, "homothety_exponent": 2, "paths_agree": true, "trusted_input": false, "errors": [{"op": "factorization", "code": "INVALID_FACTORIZATION", "message": "factor of degree 2 is reducible"}]}'),
    ('fp:7', ('--assert-irreducible',), 'x^2+1',
     '{"field": "fp:7", "input": "x^2 + 1", "degree": 2, "tol": "3", "dupl": "3", "gdisc": "4", "disc": "3", "separable": true, "in_T": true, "homothety_exponent": 2, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('fpt:3', (), 'x^3-t',
     '{"field": "fpt:3", "input": "x^3 + 2*t", "degree": 3, "tol": "1", "dupl": "1", "gdisc": "2", "disc": "REPEATED_ROOT", "separable": false, "in_T": false, "homothety_exponent": 12, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('fpt:3', (), '(x-t)^2*(x+1)',
     '{"field": "fpt:3", "input": "x^3 + (t + 1)*x^2 + (t^2 + t)*x + t^2", "degree": 3, "tol": "t^4 + t^3 + t + 1", "dupl": "t^4 + t^3 + t + 1", "gdisc": "2*t^4 + 2*t^3 + 2*t + 2", "disc": "REPEATED_ROOT", "separable": false, "in_T": false, "homothety_exponent": 8, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('fpt:3', (), 'x^2+t*x+1',
     '{"field": "fpt:3", "input": "x^2 + t*x + 1", "degree": 2, "tol": "t^2 + 2", "dupl": "t^2 + 2", "gdisc": "2*t^2 + 1", "disc": "t^2 + 2", "separable": true, "in_T": true, "homothety_exponent": 2, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('fpt:3', (), '(x^3-t)*(x-1)^2',
     '{"field": "fpt:3", "input": "x^5 + x^4 + x^3 + 2*t*x^2 + 2*t*x + 2*t", "degree": 5, "tol": "t^4 + 2*t^3 + 2*t + 1", "dupl": "t^4 + 2*t^3 + 2*t + 1", "gdisc": "t^4 + 2*t^3 + 2*t + 1", "disc": "REPEATED_ROOT", "separable": false, "in_T": false, "homothety_exponent": 28, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('fpt:3', (), 't*x^4+x+t^2',
     '{"field": "fpt:3", "input": "t*x^4 + x + t^2", "degree": 4, "tol": "t^9", "dupl": "t^11", "gdisc": "t^9", "disc": "t^9", "separable": true, "in_T": true, "homothety_exponent": 12, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('fpt:3', ('--factored',), '(x^3-t)*(x-1)',
     '{"field": "fpt:3", "input": "x^4 + 2*x^3 + 2*t*x + t", "degree": 4, "tol": "t^2 + t + 1", "dupl": "t^2 + t + 1", "gdisc": "t^2 + t + 1", "disc": "REPEATED_ROOT", "separable": false, "in_T": false, "homothety_exponent": 18, "paths_agree": true, "trusted_input": true, "errors": []}'),
    ('fpt:5', (), 'x^5-t',
     '{"field": "fpt:5", "input": "x^5 + 4*t", "degree": 5, "tol": "1", "dupl": "1", "gdisc": "1", "disc": "REPEATED_ROOT", "separable": false, "in_T": false, "homothety_exponent": 40, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('fpt:5', ('--assert-irreducible',), 'x^5-t',
     '{"field": "fpt:5", "input": "x^5 + 4*t", "degree": 5, "tol": "1", "dupl": "1", "gdisc": "1", "disc": "REPEATED_ROOT", "separable": false, "in_T": false, "homothety_exponent": 40, "paths_agree": true, "trusted_input": true, "errors": []}'),
    ('fpt:5', ('--factored',), '(x^5-t)*(x-1)',
     '{"field": "fpt:5", "input": "x^6 + 4*x^5 + 4*t*x + t", "degree": 6, "tol": "t^2 + 3*t + 1", "dupl": "t^2 + 3*t + 1", "gdisc": "4*t^2 + 2*t + 4", "disc": "REPEATED_ROOT", "separable": false, "in_T": false, "homothety_exponent": 50, "paths_agree": true, "trusted_input": true, "errors": []}'),
    ('fpt:5', (), 'x^2-t',
     '{"field": "fpt:5", "input": "x^2 + 4*t", "degree": 2, "tol": "4*t", "dupl": "4*t", "gdisc": "t", "disc": "4*t", "separable": true, "in_T": true, "homothety_exponent": 2, "paths_agree": true, "trusted_input": false, "errors": []}'),
    ('fpt:5', (), 'x^5+t*x',
     '{"field": "fpt:5", "input": "x^5 + t*x", "degree": 5, "tol": "t^5", "dupl": "t^5", "gdisc": "t^5", "disc": "t^5", "separable": true, "in_T": "UNDEFINED", "homothety_exponent": 20, "paths_agree": true, "trusted_input": false, "errors": []}'),
]


@pytest.mark.parametrize("field,flags,expr,expected", GOLDEN,
                         ids=[f"{c[0]}:{c[2]}{''.join(c[1])}" for c in GOLDEN])
def test_report_golden(capsys, monkeypatch, field, flags, expr, expected):
    calls = {"discriminant_and_gcd": 0, "resultant_in_u": 0}
    in_prs = []                 # inside the PRS of (f, f') or disc(f)

    def recorded(name, real):
        def wrapper(*args):
            calls[name] += 1
            in_prs.append(name)
            try:
                return real(*args)
            finally:
                in_prs.pop()
        return wrapper

    for name in calls:
        monkeypatch.setattr(invariants, name,
                            recorded(name, getattr(invariants, name)))

    def no_factoring(*args):
        raise AssertionError("report ran the irreducible factorization")

    monkeypatch.setattr(factor, "factor_prime_field", no_factoring)
    monkeypatch.setattr(invariants, "factor_prime_field", no_factoring,
                        raising=False)
    coprime_checks = []
    monkeypatch.setattr(factor.Factorization, "pairwise_coprime",
                        lambda self: coprime_checks.append(self))
    # [resultants, discriminants] taken outside tol_from_factorization, and
    # per call of it [parts, resultants, discriminants, returned].  Outside,
    # a resultant is a call of ``FieldOps.resultant`` that is not part of
    # the PRS of (f, f') or of disc(f): one of gdisc's.  Inside, it
    # is a call of the numerator ring's kernel (``FieldOps.resultant``:
    # ``_rings.fp_resultant`` over F_p, ``_rings.subresultant`` over Q and
    # F_p(t)) on the cleared numerators of a pair of parts, and a
    # discriminant is a ``numerator_discriminant`` call on a part's cleared
    # numerators; the one kernel call that runs within it is its own.
    outside = [0, 0]
    formula_calls = []
    inside = []
    in_discriminant = []

    def counting(slot, real):
        def wrapper(*args):
            if inside:
                formula_calls[-1][slot + 1] += 1
            else:
                outside[slot] += 1
            in_prs.append(slot)
            try:
                return real(*args)
            finally:
                in_prs.pop()
        return wrapper

    def counting_gdisc_resultant(real, field):
        def wrapper(a, b):
            if not inside and not in_prs:
                outside[0] += 1
            return real(a, b)
        return wrapper

    def counting_kernel(real):
        def wrapper(*args):
            if inside and not in_discriminant:
                formula_calls[-1][1] += 1
            return real(*args)
        return wrapper

    def counting_part_discriminant(*args):
        formula_calls[-1][2] += 1
        in_discriminant.append(True)
        try:
            return real_part_discriminant(*args)
        finally:
            in_discriminant.pop()

    real_tol = invariants.tol_from_factorization
    real_part_discriminant = invariants.numerator_discriminant

    def counting_tol(fac, *args):
        formula_calls.append([len(fac.factors), 0, 0, False])
        inside.append(fac)
        try:
            value = real_tol(fac, *args)
        finally:
            inside.pop()
        formula_calls[-1][3] = True
        return value

    monkeypatch.setattr(invariants, "tol_from_factorization", counting_tol)
    patch_field_ops(monkeypatch, resultant=counting_gdisc_resultant)
    for kernel in ("subresultant", "fp_resultant"):
        monkeypatch.setattr(_rings, kernel,
                            counting_kernel(getattr(_rings, kernel)))
    monkeypatch.setattr(invariants, "numerator_discriminant",
                        counting_part_discriminant)
    monkeypatch.setattr(invariants, "discriminant",
                        counting(1, invariants.discriminant))
    assert main(["report", "--field", field, *flags, "--", expr]) == 0
    assert capsys.readouterr().out == expected + "\n"
    report = json.loads(expected)
    # A report runs no u-resultant.  gdisc runs only where it is defined:
    # once at width 1 (res(f, f'), which is 0 when f' = 0), and on repeated
    # roots one scalar resultant res(q_m, D^m f) per root multiplicity m.
    multiplicities = 0
    if report["gdisc"] is not None and not report["separable"]:
        f = parse_polynomial(expr, parse_field(field))
        multiplicities = len(multiplicity_profile(f))
    assert calls == {"discriminant_and_gcd": int(report["gdisc"] is not None),
                     "resultant_in_u": 0}
    # Coprimality and separability are checked by the formula's own cross
    # resultants and part discriminants, on the squarefree decomposition
    # and on a caller's factorization alike.  Outside the formula the
    # report takes gdisc's resultants, and disc(f) only where gdisc is
    # undefined; elsewhere disc is gdisc's width-1 value.
    assert coprime_checks == []
    assert outside == [multiplicities, int(report["gdisc"] is None)]
    for k, resultants, discriminants, returned in formula_calls:
        pairs = k * (k - 1) // 2
        if returned:
            assert (resultants, discriminants) == (pairs, k)
        else:       # stopped at a zero; all resultants come first
            assert resultants <= pairs and discriminants <= k
            assert discriminants == 0 or resultants == pairs
    # one formula call, and one more after a caller factorization that the
    # formula's own checks rejected; one that fails only the irreducibility
    # test keeps the tol of that call
    rejected = any(e["op"] == "factorization"
                   and not e["message"].endswith("is reducible")
                   for e in report["errors"])
    expected_calls = 1 + rejected if report["degree"] else 0
    assert len(formula_calls) == expected_calls


@pytest.mark.parametrize(
    "field,flags,expr",
    [c[:3] for c in GOLDEN if (json.loads(c[3])["degree"] or 0) >= 2],
    ids=[f"{c[0]}:{c[2]}{''.join(c[1])}" for c in GOLDEN
         if (json.loads(c[3])["degree"] or 0) >= 2])
def test_report_runs_the_prs_of_f_and_its_derivative_once(
        capsys, monkeypatch, field, flags, expr):
    """From degree 2 on, one ``discriminant_and_gcd`` call serves disc,
    gdisc's width 1 and the squarefree decomposition, which never takes
    gcd(f, f') again: no call of the numerator ring's gcd
    (``FieldOps.primitive_gcd``) gets the cleared numerators of f or of
    f.monic() with their derivative.  (When f' = 0 there is no PRS to
    repeat: gcd(g, 0) is g made primitive, and gdisc's chain takes it where
    D^j f vanishes.)"""
    f = parse_polynomial(expr, parse_field(field))
    ops = f.field.ops

    def numerators(g):
        return tuple(ops.cleared(g.raw)[0])

    def derivative(num):
        g = Polynomial.from_raw(f.field, [ops.rebuild(c, ops.ring.one)
                                          for c in num])
        return numerators(g.derivative())

    pairs = [(num, derivative(num))
             for num in map(numerators, (f, f.monic())) if derivative(num)]
    shared, gcds = [], []
    real_shared = invariants.discriminant_and_gcd

    def counting_shared(g):
        shared.append(g)
        return real_shared(g)

    def recording_gcd(real, field):
        def entry(a, b):
            gcds.append((tuple(a), tuple(b)))
            return real(a, b)
        return entry

    monkeypatch.setattr(invariants, "discriminant_and_gcd", counting_shared)
    patch_field_ops(monkeypatch, primitive_gcd=recording_gcd)
    assert main(["report", "--field", field, *flags, "--", expr]) == 0
    capsys.readouterr()
    assert shared == [f]
    assert not any(pair in pairs or pair[::-1] in pairs for pair in gcds)
