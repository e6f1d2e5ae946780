"""Sylvester resultants and discriminants against root-product oracles."""

import json
import random
from fractions import Fraction

import pytest

from tolerant import (Polynomial, RootMultiset, build_report, parse_field,
                      parse_polynomial, poly_from_roots, polynomial_text,
                      prime_field, rational_function_field, rationals, tol,
                      tol_from_roots)
from tolerant.cli import main
from tolerant.errors import (ConstantInputError, FieldMismatchError,
                             ZeroInputError)
from tolerant.field import FieldElement, monic_rebuilt
from tolerant.resultant import (discriminant, discriminant_and_gcd,
                                numerator_discriminant, resultant_in_u,
                                sylvester_resultant)

from conftest import linear_product, t_fraction_pool


def oracle_res_fraction(froots, flc, g):
    """lc(f)^deg(g) * prod g(r)^m with plain Fraction arithmetic."""
    acc = Fraction(flc) ** max(g.degree, 0)
    for r, m in froots:
        gr = Fraction(0)
        for i, c in enumerate(g.coeffs):
            gr += c.value * Fraction(r) ** i
        acc *= gr ** m
    return acc


def test_resultant_matches_root_product_oracle(Q):
    rng = random.Random(0)
    for _ in range(100):
        roots = []
        seen = set()
        for _ in range(rng.randint(1, 3)):
            r = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            if r in seen:
                continue
            seen.add(r)
            roots.append((r, rng.randint(1, 2)))
        lc = rng.choice([1, 2, 3, -1])
        f = linear_product(Q, roots, lc=lc)
        g = Polynomial(Q, [Q.from_int(rng.randint(-5, 5))
                           for _ in range(rng.randint(1, 4))])
        if g.is_zero():
            continue
        expected = oracle_res_fraction(roots, lc, g)
        assert sylvester_resultant(f, g).value == expected
    # F_3(t): roots and coefficients with t-denominators, so the determinant
    # clears rows to F_3[t]; the oracle is lc^deg(g) * prod g(r)^m in boxed
    # field arithmetic
    F3T = rational_function_field(3)
    pool = t_fraction_pool(F3T)
    x = Polynomial.x(F3T)
    for _ in range(30):
        roots = {}
        for _ in range(rng.randint(1, 3)):
            roots[rng.choice(pool)] = rng.randint(1, 2)
        lc = rng.choice(pool[1:])
        f = Polynomial.constant(F3T, lc)
        for r, m in roots.items():
            f = f * (x - Polynomial.constant(F3T, r)) ** m
        g = Polynomial(F3T, [rng.choice(pool) for _ in range(rng.randint(1, 4))])
        if g.is_zero():
            continue
        expected = lc ** g.degree
        for r, m in roots.items():
            expected = expected * g(r) ** m
        assert sylvester_resultant(f, g) == expected


def test_resultant_multiplicative_in_second_argument(F7):
    rng = random.Random(1)
    for _ in range(60):
        def rnd(maxd):
            while True:
                h = Polynomial(F7, [F7.from_int(rng.randrange(7))
                                    for _ in range(rng.randint(1, maxd + 1))])
                if not h.is_zero():
                    return h
        f, g, h = rnd(4), rnd(3), rnd(3)
        assert sylvester_resultant(f, g * h) == \
            sylvester_resultant(f, g) * sylvester_resultant(f, h)


def test_resultant_swap_sign(F7):
    rng = random.Random(2)
    for _ in range(60):
        f = Polynomial(F7, [F7.from_int(rng.randrange(7)) for _ in range(4)])
        g = Polynomial(F7, [F7.from_int(rng.randrange(7)) for _ in range(3)])
        if f.is_zero() or g.is_zero():
            continue
        lhs = sylvester_resultant(f, g)
        rhs = sylvester_resultant(g, f)
        m, n = max(f.degree, 0), max(g.degree, 0)
        assert lhs == (rhs if (m * n) % 2 == 0 else -rhs)


def test_resultant_constant_conventions(Q):
    f = linear_product(Q, [(1, 1), (2, 1)])      # degree 2
    c = Polynomial.constant(Q, Q.from_int(3))
    assert sylvester_resultant(f, c).value == 9   # c^deg f
    assert sylvester_resultant(c, f).value == 9   # c^deg g
    assert sylvester_resultant(c, c).value == 1   # both degree 0
    with pytest.raises(ZeroInputError):
        sylvester_resultant(f, Polynomial.zero(Q))


def test_resultant_shared_root_vanishes(Q):
    f = linear_product(Q, [(1, 1), (2, 1)])
    g = linear_product(Q, [(2, 1), (5, 1)])
    assert not sylvester_resultant(f, g)


def test_resultant_known_small_cases(Q):
    x = Polynomial.x(Q)
    two = Polynomial.constant(Q, Q.from_int(2))
    three = Polynomial.constant(Q, Q.from_int(3))
    assert sylvester_resultant(x - two, x - three).value == -1
    f = x * x + Polynomial.one(Q)
    assert sylvester_resultant(f, f.derivative()).value == 4


def test_discriminant_quadratic_and_cubic_formulas(Q):
    rng = random.Random(3)
    for _ in range(80):
        a, b, c = (rng.randint(-9, 9) for _ in range(3))
        if a == 0:
            continue
        f = Polynomial.from_ints(Q, [c, b, a])
        assert discriminant(f).value == Fraction(b * b - 4 * a * c)
    for _ in range(80):
        p_, q_ = rng.randint(-9, 9), rng.randint(-9, 9)
        f = Polynomial.from_ints(Q, [q_, p_, 0, 1])
        assert discriminant(f).value == Fraction(-4 * p_ ** 3 - 27 * q_ ** 2)


def test_discriminant_vanishes_iff_repeated_root(Q):
    assert not discriminant(linear_product(Q, [(2, 2), (3, 1)]))
    assert discriminant(linear_product(Q, [(2, 1), (3, 1)]))
    with pytest.raises(ConstantInputError):
        discriminant(Polynomial.one(Q))


def test_discriminant_degree_one_is_one(Q):
    assert discriminant(linear_product(Q, [(4, 1)], lc=7)).is_one()


def test_discriminant_product_law(Q):
    # disc(fg) = disc(f) disc(g) res(f,g)^2 for coprime f, g
    rng = random.Random(9)
    done = 0
    while done < 40:
        f = Polynomial.from_ints(
            Q, [rng.randint(-6, 6) for _ in range(rng.randint(2, 5))])
        g = Polynomial.from_ints(
            Q, [rng.randint(-6, 6) for _ in range(rng.randint(2, 5))])
        if f.degree < 1 or g.degree < 1 or f.gcd(g).degree > 0:
            continue
        lhs = discriminant(f * g)
        rhs = discriminant(f) * discriminant(g) * sylvester_resultant(f, g) ** 2
        assert lhs == rhs
        done += 1


def test_discriminant_of_degree_200_binomial(Q):
    # disc(x^n + a) = (-1)^C(n,2) * n^n * a^(n-1), with a non-integer a
    n, a = 200, Fraction(-3, 2)
    f = Polynomial(Q, [Q.from_fraction(a)] + [Q.zero()] * (n - 1) + [Q.one()])
    sign = -1 if n * (n - 1) // 2 % 2 else 1
    assert discriminant(f).value == sign * n ** n * a ** (n - 1)


def test_discriminant_zero_derivative_char_p():
    from tolerant import rational_function_field
    F5T = rational_function_field(5)
    f = Polynomial.x(F5T) ** 5 - Polynomial.constant(F5T, F5T.t())
    assert f.derivative().is_zero()
    assert discriminant(f).is_zero()


def evaluate_u(G, u0):
    """G = sum_i u^i G[i] at u = u0, a polynomial in x."""
    acc = Polynomial.zero(G[0].field)
    for c in reversed(G):
        acc = acc.scale(u0) + c
    return acc


def test_resultant_in_u_checks_its_inputs(Q, F7):
    x = Polynomial.x(Q)
    with pytest.raises(FieldMismatchError):
        resultant_in_u(x * x, [x, Polynomial.x(F7)])
    with pytest.raises(ZeroInputError):
        resultant_in_u(x * x, [Polynomial.zero(Q), Polynomial.zero(Q)])
    with pytest.raises(ZeroInputError):
        resultant_in_u(Polynomial.zero(Q), [x])
    with pytest.raises(ConstantInputError):
        resultant_in_u(Polynomial.one(Q), [x])
    # x-degree is the largest entry degree, here 2 of u^2 x^2
    one = Polynomial.one(Q)
    R = resultant_in_u(x - one.scale(Q.from_int(2)), [x, one, x * x])
    assert R == Polynomial.from_ints(Q, [2, 1, 4])       # G(2, u)


def test_resultant_in_u_matches_specialization(Q, F7):
    # res_x(f, G)(u0) = res_x(f, G(u0)) whenever specializing keeps deg_x;
    # over F_3(t) the coefficients carry t-denominators such as 1/(t+1)
    rng = random.Random(4)
    F3T = rational_function_field(3)
    pool = t_fraction_pool(F3T)
    with_denominator = 0
    for field, rounds in ((Q, 40), (F7, 40), (F3T, 15)):
        if field is F3T:
            def coeff():
                return rng.choice(pool)
            u_values = (F3T.one(), F3T.from_int(2), F3T.t())
        else:
            def coeff():
                return field.from_int(rng.randint(-6, 6))
            u_values = tuple(field.from_int(v) for v in (1, 2, 3))
        for _ in range(rounds):
            f = Polynomial(field, [coeff() for _ in range(rng.randint(3, 5))])
            if f.is_zero() or f.degree < 2:
                continue
            n = f.degree
            G = [f.hasse_derivative(i) for i in range(1, n + 1)]
            R = resultant_in_u(f, G)
            for u0 in u_values:
                spec = evaluate_u(G, u0)
                if spec.degree != max(c.degree for c in G):
                    continue
                assert R(u0) == sylvester_resultant(f, spec)
                if field is F3T and any(c.value[1] != (1,) for c in f.coeffs):
                    with_denominator += 1
    assert with_denominator > 0


def test_resultant_in_u_clears_a_width_one_g_like_the_scalar_resultant(
        Q, F3T):
    """With G = [g], res_x(f, G) is res(f, g), constant in u, also where
    the coefficients of f and g have different denominators: over Q
    non-integral ones, over F_3(t) t-denominators such as 1/(t+1)."""
    rng = random.Random(18)
    pool = t_fraction_pool(F3T)
    for field, coeff in (
            (Q, lambda: Q.from_fraction(Fraction(rng.randint(-6, 6),
                                                 rng.randint(1, 4)))),
            (F3T, lambda: rng.choice(pool))):
        checked = 0
        for _ in range(30):
            f = Polynomial(field, [coeff() for _ in range(rng.randint(2, 6))])
            g = Polynomial(field, [coeff() for _ in range(rng.randint(1, 5))])
            if f.degree < 1 or g.is_zero():
                continue
            R = resultant_in_u(f, [g])
            assert R.degree <= 0
            assert (R.coeffs[0] if R else field.zero()) == \
                sylvester_resultant(f, g), (str(f), str(g))
            checked += 1
        assert checked > 15


def test_resultant_in_u_constant_in_x_shortcut():
    from tolerant import rational_function_field
    F5T = rational_function_field(5)
    f = Polynomial.x(F5T) ** 5 - Polynomial.constant(F5T, F5T.t())
    G = [f.hasse_derivative(i) for i in range(1, 6)]
    assert max(c.degree for c in G) == 0      # every x-derivative collapses
    R = resultant_in_u(f, G)
    # G = u^4, so res = (u^4)^5
    assert R == Polynomial.x(F5T) ** 20


@pytest.mark.parametrize("name", ["q", "fp:7", "fp:10007"])
def test_resultant_in_u_matches_sympy(name):
    # sympy is an optional, test-only oracle: sympy.resultant over QQ[u] or
    # GF(p)[u], against G = sum_i u^(i-1) D^i f at full width and at width 1
    sympy = pytest.importorskip("sympy")
    field = parse_field(name)
    x, u = sympy.symbols("x u")
    domain = {"domain": sympy.QQ} if field.p is None else {"modulus": field.p}

    def to_sympy(c):
        v = c.value
        return sympy.Rational(v.numerator, v.denominator) \
            if field.p is None else sympy.Integer(v)

    def expr(poly):
        return sum(to_sympy(c) * x ** i for i, c in enumerate(poly.coeffs))

    rng = random.Random(f"sympy-resultant/{name}")
    for _ in range(12):
        f = Polynomial.constant(field, field.from_int(rng.randint(1, 5)))
        while f.degree < 2:
            for _ in range(rng.randint(1, 3)):
                g = Polynomial(field, [field.from_fraction(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
                    for _ in range(rng.randint(2, 3))] + [field.one()])
                m = rng.randint(1, 3)
                if f.degree + m * g.degree <= 6:
                    f = f * g ** m
        n = f.degree
        for w in (n, 1):
            parts = [f.hasse_derivative(i) for i in range(1, w + 1)]
            if not any(parts):
                continue
            got = resultant_in_u(f, parts)
            G_expr = sum(u ** i * expr(p) for i, p in enumerate(parts))
            want = sympy.resultant(sympy.Poly(expr(f), x, u, **domain),
                                   sympy.Poly(G_expr, x, u, **domain))
            want = sympy.Poly(want.as_expr(), u, **domain).all_coeffs()[::-1]
            want_raw = [Fraction(int(c.p), int(c.q)) if field.p is None
                        else int(c) % field.p for c in want]
            assert list(got.raw) == (want_raw if any(want_raw) else []), \
                (str(f), w)


def test_discriminant_and_gcd_returns_the_gcd_of_its_prs(Q, F5T):
    f = linear_product(Q, [(2, 3), (3, 1), (-1, 2)], lc=5)
    d, g = discriminant_and_gcd(f)
    assert not d and g == linear_product(Q, [(2, 2), (-1, 1)])
    d, g = discriminant_and_gcd(linear_product(Q, [(2, 1), (3, 1)], lc=5))
    assert d.value == 25 and g == Polynomial.one(Q)
    f = Polynomial.x(F5T) ** 10 - Polynomial.constant(F5T, F5T.t())
    f = f.scale(F5T.t())                    # f' = 0: (0, f.monic())
    assert discriminant_and_gcd(f) == (F5T.zero(), f.monic())


@pytest.mark.parametrize("field,expr,value", [
    # p | n, so deg f' < n - 1 and res(f, f') needs lc^(n-2-deg f')
    ("fp:7", "2*x^7+x^5+1", "4"), ("fpt:3", "t*x^3+x^2+1", "2")])
def test_disc_when_p_divides_the_degree(capsys, field, expr, value):
    assert main(["disc", "--field", field, "--", expr]) == 0
    assert capsys.readouterr().out.strip() == value
    f = parse_polynomial(expr, parse_field(field))
    assert discriminant(f) == tol(f)


def p_divides_n_cases():
    """Separable, lc != 1, p | n: 2*(x^3-x) over F_3, whose f' = 6x^2 - 2 = 1
    is a constant, and 2*(x-1)*(x-2)*(x-t) over F_3(t), where deg f' = 1.
    Over F_3, lc^(n-1-deg f') = 2^2 = 1, so res(f, f') / lc gives the same
    value; over F_3(t) that power is 2, and only lc^(n-2-deg f') gives tol."""
    F3, F3T = prime_field(3), rational_function_field(3)
    return [
        (F3, RootMultiset(tuple((F3.from_int(r), 1) for r in range(3)),
                          F3.from_int(2))),
        (F3T, RootMultiset(((F3T.from_int(1), 1), (F3T.from_int(2), 1),
                            (F3T.t(), 1)), F3T.from_int(2))),
    ]


@pytest.mark.parametrize("field,rm", p_divides_n_cases(),
                         ids=["fp:3", "fpt:3"])
def test_disc_is_tol_on_separable_input_when_p_divides_n(capsys, field, rm):
    f = poly_from_roots(rm, field)
    assert f.derivative().degree < f.degree - 1
    assert discriminant(f) == tol_from_roots(rm, f.degree)
    report = build_report(f)
    assert report.disc == report.tol and report.separable
    assert main(["report", "--field", field.text(), "--",
                 polynomial_text(f)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["disc"] == doc["tol"] and doc["separable"] is True


@pytest.mark.parametrize("name", ["q", "fp:5", "fp:7", "fp:10007"])
def test_discriminant_matches_sympy(name):
    # sympy is an optional, test-only oracle.  Its discriminant divides
    # res(f, f') by lc once as well, so the degrees here keep p from dividing
    # n, where that is right.
    sympy = pytest.importorskip("sympy")
    field = parse_field(name)
    x = sympy.symbols("x")
    domain = {"domain": sympy.QQ} if field.p is None else {"modulus": field.p}
    rng = random.Random(f"sympy-discriminant/{name}")
    checked = 0
    while checked < 25:
        n = rng.randint(1, 9)
        if field.p is not None and n % field.p == 0:
            continue
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(n)] + [Fraction(rng.choice([-3, -1, 2, 5]))]
        if field.p is not None and coeffs[-1].numerator % field.p == 0:
            continue
        f = Polynomial(field, [field.from_fraction(c) for c in coeffs])
        expr = sum(sympy.Rational(c.value.numerator, c.value.denominator)
                   * x ** i if field.p is None else int(c.value) * x ** i
                   for i, c in enumerate(f.coeffs))
        want = sympy.Poly(expr, x, **domain).discriminant()
        got = discriminant(f).value
        assert disc_from_terms(f)[0].value == got
        if field.p is None:
            assert got == Fraction(int(want.p), int(want.q)), str(f)
        else:
            assert got == int(want) % field.p, str(f)
        checked += 1


def disc_from_terms(f):
    """(disc(f), last) read off ``numerator_discriminant`` in boxed field
    arithmetic: r * lc(num)^k / d^(2n-2) for f = num / d."""
    field, ops = f.field, f.field.ops
    num, d = ops.cleared(f.raw)
    r, k, last = numerator_discriminant(num, ops)

    def box(v):
        return FieldElement(field, ops.rebuild(v, ops.ring.one))

    return box(r) * box(num[-1]) ** k / box(d) ** (2 * f.degree - 2), last


def root_pool(field, rng):
    """Distinct roots to draw from: residues, fractions, or F_p(t) values
    with t-denominators."""
    if field.kind.value == "fpt":
        t = field.t()
        pool = t_fraction_pool(field) + [t * t + 1, (t * t + t) / (t + 2),
                                         field.from_int(2) / t]
        return list(dict.fromkeys(pool))
    if field.p is not None:
        return [field.from_int(r) for r in range(min(field.p, 12))]
    return [field.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            for _ in range(12)]


@pytest.mark.parametrize("name", ["q", "fp:2", "fp:3", "fp:7", "fp:10007",
                                  "fpt:3", "fpt:5"])
def test_numerator_discriminant_matches_root_products(name):
    # disc(f) = lc^(2n-2) * prod_{i<j} (r_i - r_j)^2 on distinct roots, with
    # lc != 1 and degrees that p divides (deg f' < n - 1), and over F_p(t)
    # roots and lc with t-denominators; on repeated roots r = 0 and the
    # kernel's last remainder is an associate of gcd(f, f')
    field = parse_field(name)
    rng = random.Random(f"numerator-disc/{name}")
    pool = root_pool(field, rng)
    lcs = [c for c in pool if c and c != field.one()] or [field.one()]
    p_divides = 0
    for _ in range(40):
        roots = rng.sample(pool, rng.randint(1, min(len(pool), 7)))
        roots = list(dict.fromkeys(roots))
        lc = rng.choice(lcs)
        rm = RootMultiset(tuple((r, 1) for r in roots), lc)
        f = poly_from_roots(rm, field)
        n = f.degree
        expected = lc ** (2 * n - 2)
        for i, r in enumerate(roots):
            for s in roots[i + 1:]:
                expected = expected * (r - s) ** 2
        got, last = disc_from_terms(f)
        assert got == expected == discriminant(f), (name, str(f))
        assert last is None
        p_divides += bool(field.p) and n % field.p == 0 and n > 1
        g = f * poly_from_roots(RootMultiset(((roots[0], 1),), field.one()),
                                field)
        zero, last = disc_from_terms(g)
        assert not zero
        gcd = g.gcd(g.derivative())
        if g.derivative():
            assert Polynomial.from_raw(field, monic_rebuilt(last, field.ops)) \
                == gcd
    assert p_divides >= (3 if field.p and field.p <= 7 else 0)
