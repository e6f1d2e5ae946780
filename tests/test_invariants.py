"""Collision invariants: resultant route, root products, per-factor formulas,
scaling laws, and the aggregated report."""

import random
from fractions import Fraction

import pytest

from tolerant import (Factorization, FactorFormula, Polynomial, RootMultiset,
                      build_report, dupl, gdisc, homothety_exponent, in_T,
                      invariants, parse_field, parse_polynomial, prime_field,
                      rational_function_field, rationals,
                      squarefree_decomposition, tol, tol_from_factorization,
                      tol_from_roots, tol_irreducible)
from tolerant.errors import (DegreeMismatchError, DegreeTooSmallError,
                             InseparableInSeparableModeError,
                             InvalidFactorizationError, ZeroPolynomialError)
from tolerant.factor import multiplicity_profile
from tolerant.invariants import REPEATED_ROOT, UNDEFINED, tol_variant
from tolerant.resultant import discriminant, resultant_in_u

from conftest import fraction_tol, linear_product, patch_field_ops


def rand_root_pairs(rng, max_roots=4, max_mult=3):
    pairs = []
    seen = set()
    for _ in range(rng.randint(1, max_roots)):
        r = Fraction(rng.randint(-8, 8), rng.randint(1, 3))
        if r in seen:
            continue
        seen.add(r)
        pairs.append((r, rng.randint(1, max_mult)))
    return pairs


def test_tol_matches_fraction_oracle_fuzz(Q):
    rng = random.Random(0)
    for _ in range(120):
        pairs = rand_root_pairs(rng)
        lc = rng.choice([1, 2, 3, -2, Fraction(1, 2)])
        f = linear_product(Q, pairs, lc=lc)
        n = f.degree
        expected = fraction_tol(pairs, lc, n)
        assert tol(f).value == expected
        rm = RootMultiset(
            tuple((Q.from_fraction(Fraction(r)), m) for r, m in pairs),
            Q.from_fraction(Fraction(lc)))
        assert tol_from_roots(rm, n).value == expected


def test_tol_never_zero_even_with_repeated_roots(Q):
    rng = random.Random(1)
    for _ in range(60):
        f = linear_product(Q, rand_root_pairs(rng))
        assert tol(f)
    assert not discriminant(linear_product(Q, [(2, 2), (3, 1)]))


def test_tol_of_constants_and_linears_is_one(Q, F7):
    for field in (Q, F7):
        assert tol(Polynomial.constant(field, field.from_int(5))).is_one()
        assert tol(Polynomial.x(field)).is_one()
        assert tol(linear_product(field, [(3, 1)], lc=4)).is_one()
    with pytest.raises(ZeroPolynomialError):
        tol(Polynomial.zero(Q))


def test_tol_equals_disc_for_separable(Q, F7):
    rng = random.Random(2)
    for field in (Q, F7):
        span = 9 if field.characteristic == 0 else 6
        for _ in range(60):
            f = Polynomial(field, [field.from_int(rng.randint(-span, span))
                                   for _ in range(rng.randint(3, 6))])
            if f.is_zero() or f.degree < 2 or not f.is_separable():
                continue
            assert tol(f) == discriminant(f)


def test_gdisc_sign_law(Q, F7):
    rng = random.Random(3)
    for field in (Q, F7):
        for _ in range(60):
            pairs = [(rng.randint(-6, 6), rng.randint(1, 3))]
            while len(pairs) < 3:
                r = rng.randint(-6, 6)
                if all(r != q for q, _ in pairs):
                    pairs.append((r, rng.randint(1, 3)))
            f = linear_product(field, pairs)
            n = f.degree
            sign = -1 if (n * (n - 1) // 2) % 2 else 1
            g = gdisc(f)
            t_ = tol(f)
            assert g == (t_ if sign > 0 else -t_)


def test_gdisc_examples(Q):
    assert gdisc(parse_polynomial("x^2-1", Q)).value == -4
    assert gdisc(parse_polynomial("(x-2)^2*(x-3)", Q)).value == -1
    F5T = rational_function_field(5)
    assert gdisc(parse_polynomial("x^5-t", F5T)).is_one()
    with pytest.raises(DegreeTooSmallError):
        gdisc(Polynomial.x(Q))


def g_width(f, w):
    """G_w = sum_{i=1..w} u^(i-1) D^i f as its u-coefficients; G_n is the
    paper's G."""
    return [f.hasse_derivative(i) for i in range(1, w + 1)]


def full_width_gdisc(f):
    """The paper's gdisc, eliminating against the full G = G_n: the oracle
    for the width gdisc cuts G at."""
    n = f.degree
    G = g_width(f, n)
    R = resultant_in_u(f, G)
    k, tc = next((i, c) for i, c in enumerate(R.coeffs) if c)
    x_degree = max(c.degree for c in G)
    value = tc * f.leading_coefficient() ** (n - 2 - x_degree)
    return -value if (k // 2) % 2 else value


def width_cases():
    """Fixed inputs of degree <= 12, and seeded ones of degree <= 10, on Q,
    F_3, F_7, F_2(t), F_3(t) and F_5(t): separable (also where p divides n),
    repeated roots up to M = n and at M = p and p + 1, inseparable parts,
    and f' = 0; each with a test id."""
    fixed = [
        ("q", "x^3+x+1"), ("q", "(x+1)^3*(x-2)"), ("q", "(x^2+1)^2*(x-3)^4"),
        ("q", "3*(x-1/2)^5*(x+2)"), ("fp:7", "x^7-1"), ("fp:7", "(x^2+1)^7"),
        ("fp:7", "x^7+x+1"), ("fp:7", "(x-1)^2*(x-2)^3*(x^2+3)"),
        ("fpt:3", "x^3-t"), ("fpt:3", "(x^3-t)^2"), ("fpt:3", "x^3+t*x+1"),
        ("fpt:3", "(x^3-t)*(x-1)^2"), ("fpt:3", "(x^9-t)*(x+t)"),
        ("fpt:5", "x^5-t"), ("fpt:5", "(x^5-t)*(x-1)^3"),
        ("fpt:5", "t*x^5+x+1"), ("fpt:5", "(x^2-t)^2*(x+t^2)"),
        # G_M of x-degree 9 where deg f' = 3: lc^(n-2-d) needs d of G_M
        ("fpt:3", "t*x^12+x^4"),
        # M near n, where gdisc splits f into many blocks; in characteristic
        # p the chain's degree can jump over several j at once
        ("q", "(x-1)^6"), ("q", "(x+2)^5*(x-1)"), ("q", "2*(x-1/3)^4*(x+1)^3"),
        ("q", "(x^2+1)^4"), ("q", "(x^2-2)^2*(x+1)^4"),
        ("fp:3", "(x-1)^3"), ("fp:3", "(x-1)^4*(x+1)^2"), ("fp:3", "(x^2+1)^3"),
        ("fp:3", "(x-1)^6*(x+1)"),
        ("fp:7", "(x-3)^7"), ("fp:7", "(x-3)^6*(x+1)"), ("fp:7", "(x^2+1)^4"),
        ("fp:7", "(x-1)^8"),
        ("fpt:3", "(x^3-t)^2*(x+1)"), ("fpt:3", "x^9+t"), ("fpt:3", "(x-t)^7"),
        ("fpt:3", "(x^3-t)^2*(x^3+t)"), ("fpt:3", "t*(x+t)^4*(x-1)^2"),
        ("fpt:5", "(x^5-t)*(x-1)^4"), ("fpt:5", "(x-t)^6*(x+1)"),
        ("fpt:5", "(x^2-t)^4"),
        # multiplicities p and p + 1, where the blocks h_j are not radicals
        # and gdisc takes its split form; F_2 and F_2(t)
        ("fp:3", "(x-1)^3*(x+1)^4"), ("fpt:2", "(x^2+t)^3*(x+t)^4"),
        ("fpt:2", "(x^2+t*x+1)^2*(x+t)^3"), ("fpt:5", "(x-t)^5*(x^5-t)"),
        ("fp:7", "(x-1)^8*(x+2)^3"),
        # quadratics: the full-width G = [f', D^2 f] has entries of
        # x-degree 1 and 0 with different denominators, cleared together
        ("q", "1/2*x^2+1/3*x+5/7"), ("q", "1/2*(x-1/3)^2"),
        ("fpt:3", "x^2/t+x/(t+1)+t"), ("fpt:3", "(x-1/(t+1))^2/t"),
    ]
    cases = [(f"{name}:{text}", parse_polynomial(text, parse_field(name)))
             for name, text in fixed]
    rng = random.Random(11)
    pieces = {
        "q": ["x-1", "x+2", "x-1/3", "x^2+1", "x^2-x+3"],
        "fp:7": ["x-1", "x+2", "x^2+1", "x^7-3", "x^2+x+3"],
        "fpt:3": ["x-t", "x+1", "x^3-t", "x^2+t*x+1", "x^3+t*x+t"],
        "fpt:5": ["x-t", "x+2", "x^5-t", "x^2-t", "t*x+1"],
    }
    for name in pieces:
        field = parse_field(name)
        for i in range(10):
            f = Polynomial.constant(field, field.from_int(rng.randint(1, 4)))
            for text in rng.sample(pieces[name], rng.randint(1, 3)):
                g = parse_polynomial(text, field)
                m = rng.randint(1, 3)
                if f.degree + m * g.degree <= 10:
                    f = f * g ** m
            if f.degree >= 2:
                cases.append((f"{name}:seeded-{i}", f))
    return cases


WIDTH_CASES = width_cases()


@pytest.mark.parametrize("f", [f for _, f in WIDTH_CASES],
                         ids=[case_id for case_id, _ in WIDTH_CASES])
def test_gdisc_matches_the_full_width_elimination(f):
    value = gdisc(f)
    assert value == full_width_gdisc(f)
    assert value == invariants.gdisc_by_elimination(f)
    assert value == tol_variant("gdisc", f.leading_coefficient(), f.degree,
                                tol(f))


@pytest.mark.parametrize("f", [f for _, f in WIDTH_CASES],
                         ids=[case_id for case_id, _ in WIDTH_CASES])
def test_elimination_vanishes_exactly_below_the_largest_multiplicity(f):
    M = multiplicity_profile(f)[0][0]
    assert not resultant_in_u(f, g_width(f, M)).is_zero()
    if M > 1:
        G = g_width(f, M - 1)       # zero in x when f' = 0
        assert not any(G) or resultant_in_u(f, G).is_zero()


@pytest.mark.parametrize("field,text,calls", [
    ("q", "x^3+x+1", [(3, "width 1")]),
    # radical form: rad_1 = x-2 against D^1 f, rad_3 = x+1 against D^3 f
    ("q", "(x+1)^3*(x-2)", [(4, "width 1"), (1, 3), (1, 1)]),
    ("q", "(x-1)^2*(x+1)^2", [(4, "width 1"), (2, 2)]),
    # split form (n >= p), f' = 0: q_3 = x^3+t, q_6 = (x^3-t)^2, and
    # D^6 f = 2 is a constant
    ("fpt:3", "(x^3-t)^2*(x^3+t)", [(9, "width 1"), (3, 3), (6, 0)]),
    # split form: q_2 = (x-1)^2, q_3 = x^3-t
    ("fpt:3", "(x^3-t)*(x-1)^2", [(5, "width 1"), (2, 3), (3, 2)])])
def test_gdisc_takes_one_scalar_resultant_per_multiplicity(
        monkeypatch, field, text, calls):
    """The width-1 call is the scalar PRS of ``discriminant_and_gcd(f)``, as
    (deg f, "width 1"); on repeated roots there follows one call of the
    resultant kernel (``FieldOps.resultant``) per root multiplicity m, as
    (deg q_m, deg D^m f) with q_m in its radical or split form, and no
    ``resultant_in_u``."""
    seen, width_one = [], []
    real_1 = invariants.discriminant_and_gcd

    def counting_r(real_r, field):
        def wrapper(q, d):
            if not width_one:           # the width-1 PRS counts as one
                seen.append((len(q) - 1, len(d) - 1))
            return real_r(q, d)
        return wrapper

    def counting_1(f):
        seen.append((f.degree, "width 1"))
        width_one.append(f)
        try:
            return real_1(f)
        finally:
            width_one.pop()

    def no_u(*args):
        raise AssertionError("gdisc ran the u-resultant")

    patch_field_ops(monkeypatch, resultant=counting_r)
    monkeypatch.setattr(invariants, "discriminant_and_gcd", counting_1)
    monkeypatch.setattr(invariants, "resultant_in_u", no_u)
    f = parse_polynomial(text, parse_field(field))
    gdisc(f)
    assert seen == calls
    assert len(calls) - 1 == (0 if f.is_separable()
                              else len(multiplicity_profile(f)))


_REAL_GCD = Polynomial.gcd


def wrong_gcd(a, b, choice, rng):
    """One of seven kinds of result for gcd(a, b), by choice: the true gcd
    d, d not monic, 1, a itself, d times a factor of a / d, a proper factor
    of d, and d times a linear non-divisor."""
    real = _REAL_GCD
    d = real(a, b)
    F, x = a.field, Polynomial.x(a.field)
    if choice == 0:
        return d
    if choice == 1:
        return d.scale(F.from_int(2)) if F.characteristic != 2 else d
    if choice == 2:
        return Polynomial.one(F)
    if choice == 3:
        return a                        # no drop
    if choice == 4:                     # d times a factor of a / d
        q = a.exact_div(d)
        return d * real(q, q.derivative() + x)
    if choice == 5:                     # a proper factor of d, if any
        return real(d, d.derivative()) if d.degree > 0 else d
    return d * (x + Polynomial.constant(F, rng.randrange(1, 5)))


def as_polynomial(num, F):
    """The polynomial over F whose coefficients are the numerator-ring
    values ``num``."""
    ops = F.ops
    return Polynomial.from_raw(F, [ops.rebuild(c, ops.ring.one) for c in num])


def numerator_gcd(answer):
    """A ``FieldOps.primitive_gcd`` entry that answers with ``answer(a, b)``
    on the field polynomials of its numerator lists a and b, cleared back to
    the numerator ring; gcd(a, 0), the primitive associate of a, stays the
    real entry's."""
    def wrap(real, field):
        def entry(a, b):
            if not b:
                return real(a, b)
            F = field()
            d = answer(as_polynomial(a, F), as_polynomial(b, F))
            return tuple(F.ops.cleared(d.raw)[0])
        return entry
    return wrap


def rebuilt(f):
    """f over a descriptor built now, so that it carries a patched ops
    table (``patch_field_ops``)."""
    return Polynomial.from_raw(parse_field(f.field.text()), f.raw)


def test_gdisc_builds_no_vanishing_hasse_derivative(monkeypatch):
    """x^2401 + 1 over F_7 has f' = 0 and one root of multiplicity 2401:
    D^j f = 0 for every 0 < j < 2401, and the split form skips those levels
    by Lucas' theorem instead of building each D^j f (``hasse_raw`` on the
    numerator ring)."""
    f = parse_polynomial("x^2401+1", parse_field("fp:7"))
    orders = []
    real = invariants.hasse_raw

    def counting(raw, r, *args):
        orders.append(r)
        return real(raw, r, *args)

    monkeypatch.setattr(invariants, "hasse_raw", counting)
    assert gdisc(f) == 1
    assert len(orders) <= 4 and max(orders) == 2401


def test_wrong_gcds_give_the_value_or_an_arithmetic_error(monkeypatch):
    """gdisc checks its gcd chain instead of trusting it: with gcds that
    return wrong divisors, non-divisors, non-monic or constant results,
    every run gives the true value or raises ArithmeticError.  That holds for
    g_1, which the width-1 PRS hands over, as for every later gcd, which the
    chain takes from ``FieldOps.primitive_gcd`` on the numerator ring.  Each
    run records the kinds of result it drew: a run that drew only true gcds
    and scalar multiples of them (kinds 0 and 1) must give the true value,
    and every kind is drawn."""
    cases = [(case_id, f) for case_id, f in WIDTH_CASES
             if f.degree <= 8 and not f.is_separable()]
    expected = {case_id: gdisc(f) for case_id, f in cases}
    rng = random.Random(12)
    drawn = []                          # kinds drawn in the current run

    def wrong(a, b):
        drawn.append(rng.randrange(7))
        return wrong_gcd(a, b, drawn[-1], rng)

    real_disc_gcd = invariants.discriminant_and_gcd

    def wrong_g1(f):
        d, g_1 = real_disc_gcd(f)
        return d, (g_1 if d else wrong(f.monic(), f.derivative()))

    patch_field_ops(monkeypatch, primitive_gcd=numerator_gcd(wrong))
    monkeypatch.setattr(invariants, "discriminant_and_gcd", wrong_g1)
    cases = [(case_id, rebuilt(f)) for case_id, f in cases]
    kinds, runs = set(), {"true": 0, "value": 0, "error": 0}
    for _ in range(6):
        for case_id, f in cases:
            drawn.clear()
            try:
                value = gdisc(f)
            except ArithmeticError:
                assert not set(drawn) <= {0, 1}, (case_id, drawn)
                runs["error"] += 1
            else:
                assert value == expected[case_id], (case_id, drawn)
                runs["value"] += 1
            kinds.update(drawn)
            runs["true"] += set(drawn) <= {0, 1}
    assert kinds == set(range(7))
    assert all(runs.values()), runs


@pytest.mark.parametrize("field,text", [
    ("fp:7", "(x-1)^8*(x+2)^3"), ("fpt:3", "(x^3-t)^2"),
    ("fpt:3", "(x^3-t)^2*(x^3+t)"), ("q", "(x-1)^2*(x+1)^2")])
def test_scalar_multiple_gcds_scale_no_value(monkeypatch, field, text):
    """A gcd d of positive degree that equals one of its arguments made
    monic comes back as 2 * d, from ``FieldOps.primitive_gcd`` (cleared to
    the numerator ring) and as g_1 of the width-1 PRS.  That passes every
    divisibility check, and unless gdisc normalizes it, it leaves a
    constant part 2 whose resultant scales the value.  gdisc gives the true
    value or an ArithmeticError."""
    f = parse_polynomial(text, parse_field(field))
    truth = tol_variant("gdisc", f.leading_coefficient(), f.degree, tol(f))
    real_disc_gcd = invariants.discriminant_and_gcd

    def scaled(a, b):
        d = _REAL_GCD(a, b)
        if d.degree > 0 and any(c and d == c.monic() for c in (a, b)):
            return d.scale(f.field.from_int(2))
        return d

    def scaled_g1(g):
        disc, g_1 = real_disc_gcd(g)
        return disc, (g_1 if disc else scaled(g.monic(), g.derivative()))

    patch_field_ops(monkeypatch, primitive_gcd=numerator_gcd(scaled))
    monkeypatch.setattr(invariants, "discriminant_and_gcd", scaled_g1)
    try:
        value = gdisc(rebuilt(f))
    except ArithmeticError:
        return
    assert value == truth


def test_wrong_width_one_results_never_agree_on_a_wrong_tol(monkeypatch):
    """build_report hands the one PRS of (f, f'), (disc, g_1), to disc,
    gdisc and the squarefree decomposition.  With each kind of wrong g_1,
    the report raises (ArithmeticError from an inexact division, or
    InvalidFactorizationError on parts that are not monic), or its gdisc
    keeps the true value and paths_agree is true only on the true tol.  A wrong nonzero disc on separable input
    makes gdisc wrong and paths_agree false."""
    cases = [(case_id, f) for case_id, f in WIDTH_CASES if f.degree <= 8]
    truth = {case_id: (tol(f), gdisc(f)) for case_id, f in cases}
    real_disc_gcd = invariants.discriminant_and_gcd
    rng = random.Random(13)
    outcomes = {"raised": 0, "right": 0, "caught": 0}
    for choice in range(7):
        def wrong_g1(f):
            d, g_1 = real_disc_gcd(f)
            return d, (g_1 if d
                       else wrong_gcd(f.monic(), f.derivative(), choice, rng))

        monkeypatch.setattr(invariants, "discriminant_and_gcd", wrong_g1)
        for case_id, f in cases:
            t, g = truth[case_id]
            try:
                report = build_report(f)
            except (ArithmeticError, InvalidFactorizationError):
                outcomes["raised"] += 1
                continue
            assert report.gdisc in (None, g), (choice, case_id)
            if report.tol == t:
                outcomes["right"] += 1
            else:
                assert report.paths_agree is not True, (choice, case_id)
                outcomes["caught"] += 1
    assert min(outcomes.values()) > 0, outcomes

    def wrong_disc(f):
        d, g_1 = real_disc_gcd(f)
        return d * f.field.from_int(2), g_1

    monkeypatch.setattr(invariants, "discriminant_and_gcd", wrong_disc)
    separable = [f for _, f in cases if f.is_separable()]
    assert len(separable) > 5
    for f in separable:
        report = build_report(f)
        assert report.paths_agree is False or report.errors, f


def test_elimination_shares_no_step_with_the_width_one_prs(monkeypatch):
    """gdisc_by_elimination walks its own gcd chain from g_0 = f.monic(),
    so the (disc, g_1) of the PRS of (f, f') that gdisc starts from does
    not reach it: with a wrong nonzero disc, and then with each kind of
    wrong g_1, it still equals the sign law on tol computed before."""
    cases = [f for _, f in WIDTH_CASES if f.degree <= 8]
    truth = [tol_variant("gdisc", f.leading_coefficient(), f.degree, tol(f))
             for f in cases]
    real_disc_gcd = invariants.discriminant_and_gcd
    rng = random.Random(14)

    def wrong_disc(f):
        d, g_1 = real_disc_gcd(f)
        # a nonzero value other than d; F_2 has none besides 1
        return next((w for w in (d * 2, d + 1, d + 2) if w and w != d),
                    d), g_1

    def wrong_g1(choice):
        def patched(f):
            d, g_1 = real_disc_gcd(f)
            return d, wrong_gcd(f.monic(), f.derivative(), choice, rng)
        return patched

    for patch in [wrong_disc] + [wrong_g1(choice) for choice in range(1, 7)]:
        monkeypatch.setattr(invariants, "discriminant_and_gcd", patch)
        for f, value in zip(cases, truth):
            assert invariants.gdisc_by_elimination(f) == value, str(f)
    # the wrong disc does reach gdisc, which starts from that PRS
    monkeypatch.setattr(invariants, "discriminant_and_gcd", wrong_disc)
    assert any(gdisc(f) != value for f, value in zip(cases, truth)
               if f.is_separable())


def test_dupl_is_lc_squared_times_tol(Q):
    rng = random.Random(4)
    for _ in range(100):
        pairs = rand_root_pairs(rng)
        lc = rng.choice([1, 2, 3, -2, Fraction(3, 4)])
        f = linear_product(Q, pairs, lc=lc)
        a = f.leading_coefficient()
        assert dupl(f) == a * a * tol(f)
    monic = linear_product(Q, [(2, 2), (3, 1)])
    assert dupl(monic) == tol(monic)


def test_tol_from_roots_validation(Q):
    rm = RootMultiset(((Q.from_int(1), 2),), Q.one())
    with pytest.raises(DegreeMismatchError):
        tol_from_roots(rm, 3)
    assert tol_from_roots(rm, 2).is_one()
    # single root, non-monic: lc^(2n-2)
    rm5 = RootMultiset(((Q.from_int(9), 3),), Q.from_int(2))
    assert tol_from_roots(rm5, 3).value == 16


def test_tol_irreducible_matches_resultant_route(F7):
    # any separable polynomial qualifies (irreducibility not required)
    rng = random.Random(5)
    for _ in range(40):
        f = Polynomial(F7, [F7.from_int(rng.randrange(7))
                            for _ in range(rng.randint(3, 6))])
        if f.is_zero() or f.degree < 1 or not f.is_separable():
            continue
        assert tol_irreducible(f) == tol(f)


def test_tol_irreducible_inseparable_cases():
    F5T = rational_function_field(5)
    for text, expect in [("x^5-t", "1"), ("x^10-t", "4*t^5")]:
        f = parse_polynomial(text, F5T)
        assert tol_irreducible(f).canonical_text() == expect
        assert tol(f).canonical_text() == expect


def test_tol_from_factorization_corrected_matches_resultant(F7):
    from tolerant import factor_prime_field
    rng = random.Random(6)
    for _ in range(50):
        f = Polynomial(F7, [F7.from_int(rng.randrange(7))
                            for _ in range(rng.randint(3, 7))])
        if f.is_zero() or f.degree < 1:
            continue
        fac = factor_prime_field(f, seed=3)
        assert tol_from_factorization(fac, FactorFormula.CORRECTED) == tol(f)


def test_separable_mode_agrees_when_all_factors_separable(Q):
    rng = random.Random(7)
    x = Polynomial.x(Q)
    irr = parse_polynomial("x^2+1", Q)
    for _ in range(40):
        parts = {}
        for r in rng.sample(range(-5, 6), rng.randint(1, 3)):
            parts[x - Polynomial.constant(Q, Q.from_int(r))] = rng.randint(1, 3)
        if rng.random() < 0.5:
            parts[irr] = rng.randint(1, 2)
        fac = Factorization(Q.from_int(rng.choice([1, 2, -3])),
                            tuple(parts.items()))
        sep = tol_from_factorization(fac, FactorFormula.PAPER_SEPARABLE)
        cor = tol_from_factorization(fac, FactorFormula.CORRECTED)
        gen = tol_from_factorization(fac, FactorFormula.PAPER_GENERAL)
        ref = tol(fac.expand())
        assert sep == cor == gen == ref


def test_separable_mode_rejects_inseparable_factor():
    F5T = rational_function_field(5)
    f = parse_polynomial("x^5-t", F5T)
    fac = Factorization(F5T.one(), ((f, 1),))
    with pytest.raises(InseparableInSeparableModeError):
        tol_from_factorization(fac, FactorFormula.PAPER_SEPARABLE)


def test_general_mode_disagrees_on_mixed_inseparability():
    # the uncorrected closed form overshoots the cross-term exponent
    F5T = rational_function_field(5)
    fac = parse_polynomial("(x^5-t)*(x-1)", F5T, factored=True)
    cor = tol_from_factorization(fac, FactorFormula.CORRECTED)
    gen = tol_from_factorization(fac, FactorFormula.PAPER_GENERAL)
    t = F5T.t()
    one = F5T.one()
    assert cor == (t - one) ** 2
    assert gen == (t - one) ** 10
    assert cor == tol(fac.expand())


def test_corrected_single_factor_reduces_to_shortcut():
    F5T = rational_function_field(5)
    f = parse_polynomial("x^10-t", F5T)
    fac = Factorization(F5T.one(), ((f, 1),))
    assert tol_from_factorization(fac, FactorFormula.CORRECTED) == \
        tol_irreducible(f) == tol(f)


def test_general_mode_at_single_factor():
    # even with one distinct factor the uncorrected form overshoots when
    # that factor is inseparable: its within-factor exponent comes out as
    # m^2 p^(2e) where the defining product needs m^2 p^e
    F5T = rational_function_field(5)
    t = F5T.t()
    four = F5T.from_int(4)
    f = parse_polynomial("x^10-t", F5T)
    fac = Factorization(F5T.one(), ((f, 1),))
    assert tol_from_factorization(fac, FactorFormula.CORRECTED) == \
        tol(f) == four * t ** 5
    assert tol_from_factorization(fac, FactorFormula.PAPER_GENERAL) == \
        four * t ** 25
    # a separable single factor agrees regardless of multiplicity
    g = parse_polynomial("x^2-t", F5T)
    fac3 = Factorization(F5T.one(), ((g, 3),))
    gen = tol_from_factorization(fac3, FactorFormula.PAPER_GENERAL)
    cor = tol_from_factorization(fac3, FactorFormula.CORRECTED)
    assert gen == cor == tol(fac3.expand()) == four * t ** 9


def test_factorization_coprimality_enforced(Q):
    x = Polynomial.x(Q)
    one = Polynomial.one(Q)
    fac = Factorization(Q.one(), ((x - one, 1), ((x - one) * x, 1)))
    with pytest.raises(InvalidFactorizationError):
        tol_from_factorization(fac)


def test_empty_factorization_is_one_like_constants(Q):
    # consistent with tol(f) = 1 for deg f <= 1
    fac = Factorization(Q.from_int(3), ())
    assert tol_from_factorization(fac).is_one()
    assert tol(fac.expand()).is_one()


def test_translation_invariance(Q, F101):
    rng = random.Random(8)
    for field in (Q, F101):
        span = 9 if field.characteristic == 0 else 100
        for _ in range(50):
            f = Polynomial(field, [field.from_int(rng.randint(-span, span))
                                   for _ in range(rng.randint(3, 6))])
            if f.is_zero() or f.degree < 2:
                continue
            a = field.from_int(rng.randint(-span, span))
            assert tol(f.taylor_shift(a)) == tol(f)


def test_homothety_law(Q):
    rng = random.Random(9)
    for _ in range(40):
        pairs = rand_root_pairs(rng)
        f = linear_product(Q, pairs, lc=rng.choice([1, 2, -1]))
        if f.degree < 1:
            continue
        a = Q.from_int(rng.choice([2, 3, -2, 5]))
        h = homothety_exponent(f)
        assert tol(f.homothety(a)) == a ** h * tol(f)


def test_homothety_exponent_values(Q):
    f = parse_polynomial("(x-2)^2*(x-3)", Q)
    assert homothety_exponent(f) == 8
    sep = parse_polynomial("(x-1)*(x-2)*(x-5)", Q)
    assert homothety_exponent(sep) == 6      # n(n-1) for separable cubics
    assert homothety_exponent(Polynomial.x(Q)) == 0
    assert homothety_exponent(linear_product(Q, [(1, 4)])) == 4 * 4 - 8 + 16


def test_homothety_exponent_inseparable_with_factorization():
    F5T = rational_function_field(5)
    f = parse_polynomial("x^10-t", F5T)
    fac = Factorization(F5T.one(), ((f, 1),))
    # n = 10, two closure roots of multiplicity 5: 100 - 20 + 2*25
    assert homothety_exponent(f, fac) == 130
    t0 = F5T.from_int(2)
    assert tol(f.homothety(t0)) == t0 ** 130 * tol(f)


@pytest.mark.parametrize("factored", [False, True])
def test_report_desubstitutes_each_part_once(monkeypatch, factored):
    # tol, in_T and the homothety exponent read the same Factorization.parts
    F3T = rational_function_field(3)
    text = "(x^3-t)*(x-1)^2*(x^2+t)"
    f = parse_polynomial(text, F3T)
    fac = parse_polynomial(text, F3T, factored=True) if factored else None
    parts = len((fac or squarefree_decomposition(f)).factors)
    calls = []
    real = Polynomial.desubstitute
    monkeypatch.setattr(Polynomial, "desubstitute",
                        lambda self: calls.append(self) or real(self))
    rep = build_report(f, factorization=fac)
    assert rep.errors == [] and rep.paths_agree is True
    assert isinstance(rep.homothety_exponent, int) and rep.in_T is not None
    assert len(calls) == parts == 3


def test_report_markers_and_paths(Q):
    rep = build_report(parse_polynomial("(x-2)^2*(x-3)", Q))
    assert rep.tol.is_one()
    assert rep.dupl.is_one()
    assert rep.gdisc.value == -1
    assert rep.disc == REPEATED_ROOT
    assert rep.separable is False
    assert rep.in_T is False
    assert rep.homothety_exponent == 8
    assert rep.paths_agree is True
    assert rep.trusted_input is False
    assert rep.errors == []


def test_report_undefined_in_T_when_constant_term_zero(Q):
    # the marker itself carries the precondition failure; no error record
    rep = build_report(parse_polynomial("x^2-x", Q))
    assert rep.in_T == UNDEFINED
    assert rep.errors == []


def test_report_separable_case(Q):
    rep = build_report(parse_polynomial("x^2+1", Q))
    assert rep.tol.value == -4
    assert rep.disc.value == -4
    assert rep.separable is True
    assert rep.in_T is True


def test_report_trusted_input_semantics(F7):
    # prime-field factorizations are verified, hence never "trusted"
    f = linear_product(F7, [(1, 2), (2, 1)])
    fac = Factorization(F7.one(), tuple(
        (Polynomial.x(F7) - Polynomial.constant(F7, F7.from_int(r)), m)
        for r, m in [(1, 2), (2, 1)]))
    rep = build_report(f, factorization=fac)
    assert rep.trusted_input is False
    assert rep.paths_agree is True

    # an unverifiable irreducibility assertion over F_p(t) is trusted
    F5T = rational_function_field(5)
    g = parse_polynomial("x^5-t", F5T)
    rep2 = build_report(g, assert_irreducible=True)
    assert rep2.trusted_input is True
    assert rep2.tol.is_one()


def test_report_invalid_factorization_recorded_not_raised(Q):
    # report never crashes: the bad claim becomes an error record and the
    # computation falls back to an internal factorization
    x = Polynomial.x(Q)
    one = Polynomial.one(Q)
    bad = Factorization(Q.one(), ((x - one, 1), (x, 1)))   # expands wrong
    rep = build_report(parse_polynomial("x^2+1", Q), factorization=bad)
    assert any(e.code == "INVALID_FACTORIZATION" for e in rep.errors)
    assert rep.trusted_input is False
    assert rep.paths_agree is True          # internal fallback still compared


def test_report_homothety_unavailable_without_factorization():
    F5T = rational_function_field(5)
    f = parse_polynomial("x^5-t", F5T)   # one closure root of multiplicity 5
    rep = build_report(f)
    assert rep.homothety_exponent == 5 * 5 - 2 * 5 + 25 == 40
    assert rep.tol.is_one()
    assert rep.gdisc == tol_variant("gdisc", f.leading_coefficient(), f.degree,
                                    rep.tol)   # u-resultant
    assert rep.paths_agree is True
    t0 = F5T.from_int(2)
    assert tol(f.homothety(t0)) == t0 ** 40 * tol(f)
