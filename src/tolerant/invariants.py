"""Root-collision invariants of univariate polynomials.

tol is computed factorization-first: the squarefree decomposition of f has
parts g(x^(p^e))^m with g separable, and the CORRECTED per-factor formula
turns it into the collision product, evaluated as one product of powers on
the field's numerator ring.  That route works uniformly over Q, F_p, and
F_p(t), including inseparable inputs.  gdisc reads the paper's
elimination off its leading terms: one scalar resultant res(q_m, D^m f) per
root multiplicity m, where q_m, the part of f on the roots of multiplicity
exactly m, comes from a gcd chain of f with its Hasse derivatives.  Width 1,
res(f, f'), is one scalar PRS that runs first and settles separable f, and
ends on g_1 = gcd(f, f'), the first link of that chain.  The paper's
elimination itself, eliminating x from f and the weighted sum of its Hasse
derivatives, stays as ``gdisc_by_elimination``, the check path, on a gcd
chain of its own that shares no step with that PRS.  gdisc's chain runs on
primitive polynomials over the numerator ring, as the squarefree
decomposition does; the elimination keeps ``Polynomial`` arithmetic, so
the check path shares no step with the chain it checks either.

Alternative routes (root products, and the per-factor formulas of the paper
next to the corrected one) are implemented independently so the paths can
cross-validate each other; tol_irreducible is the corrected formula on a
single factor.  `build_report` computes each quantity once and
runs gdisc as its one independent check.

`FactorFormula.PAPER_GENERAL` evaluates the uncorrected per-factor closed
form, which disagrees with the defining root product on inputs mixing
different inseparability exponents; `CORRECTED` is the repaired form.
Keeping both makes the discrepancy checkable instead of silently patched.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass, field as dc_field
from itertools import islice
from typing import Iterator, Optional, Sequence, Union

from ._rings import (InexactDivision, power_product, pseudo_divmod,
                     pstretch, pstrip, ring_pow)
from .errors import (DegreeMismatchError, DegreeTooSmallError,
                     InseparableInSeparableModeError,
                     InvalidFactorizationError, TolerantError,
                     ZeroConstantTermError, ZeroDiscriminantFactorError,
                     ZeroPolynomialError)
from .factor import (Factorization, _squarefree_with_gcd,
                     is_irreducible_prime_field, multiplicity_profile,
                     squarefree_decomposition)
from .field import FieldDescriptor, FieldElement, FieldKind
from .poly import Polynomial, RootMultiset, binomial_mod, hasse_raw
from .resultant import (discriminant, discriminant_and_gcd,
                        numerator_discriminant, resultant_in_u)

REPEATED_ROOT = "REPEATED_ROOT"
UNDEFINED = "UNDEFINED"


class FactorFormula(enum.Enum):
    """Which per-factor formula tol_from_factorization evaluates."""

    PAPER_SEPARABLE = "paper-separable"
    PAPER_GENERAL = "paper-general"
    CORRECTED = "corrected"


def gdisc(f: Polynomial) -> FieldElement:
    """Resultant-route collision invariant, normalized so that
    gdisc(f) = (-1)^C(n,2) * tol(f) holds identically.

    The paper reads it off the lowest u-coefficient of res_x(f, G) (see
    gdisc_by_elimination): a root r of multiplicity m has D^i f(r) = 0 for
    i < m and D^m f(r) != 0, so G(r, u) = u^(m-1) (D^m f(r) + O(u)).
    Grouped by multiplicity, that coefficient needs no u:

        gdisc = (-1)^(k/2) * lc^(n-2) * prod_m res(q_m, D^m f),
        k = sum_m (m - 1) deg q_m,

    q_m the monic part of f on its roots of multiplicity exactly m, at full
    multiplicity.  Width 1 runs first: on separable f, gdisc = (-1)^C(n,2)
    * disc(f) from the one PRS of ``discriminant_and_gcd``.  Otherwise that
    PRS ends on g_1 = gcd(f, f') (g_0 when f' = 0), and the chain g_0 =
    f.monic(), g_j = gcd(g_(j-1), D^j f) runs to the first constant g_M; the
    roots of g_j are those of multiplicity > j, in any characteristic.

    - Radical form, over Q and for n < p, where the Hasse binomials C(m, j),
      j <= m, are nonzero: the blocks h_j = g_(j-1) / g_j are the radicals
      of the roots of multiplicity >= j, so q_m = rad_m^m with rad_m =
      h_m / h_(m+1).  A g_(j-1) dividing h_(j-1) is squarefree: g_j = 1.
    - Split form, any field: where deg g_j drops, a_(j+1) is the part of
      a_j on the roots of g_j (a_1 = f.monic()) and q_j = a_j / a_(j+1).
      A level j > 1 where Lucas' theorem shows D^j f = 0 has no drop and
      is skipped without building D^j f (``_nonzero_levels``).

    The chain runs on the numerator ring (Z, F_p or F_p[t]), on primitive
    associates of these polynomials (see ``_gdisc_from``).  The value rests
    on no gcd.  gdisc normalizes every gcd result it receives itself, g_1
    included: each is made primitive with a canonical leading coefficient
    (``FieldOps.primitive_gcd`` of it and 0), and each resultant is divided
    by the power of its q_m's leading coefficient, so a scalar multiple
    leaves no constant part to scale the value.  Every division is exact in the numerator
    polynomial ring or raises ``InexactDivision`` (Gauss's lemma makes it
    exact for a primitive divisor that divides over the field), and every
    res(q_m, D^m f) is checked nonzero.  Radical: f.monic() = prod_m
    rad_m^m, and a root r in rad_i has D^i f(r) = 0 unless i >= m_r, so it
    sits once in rad_(m_r).  Split: each g_j is checked to divide D^j f, so
    a root of q_j has multiplicity >= j, capped at j by D^j f(r) != 0.  A
    wrong gcd thus gives the same value or an ArithmeticError.  gdisc's
    chain is its own, so it stays independent of tol's factorization;
    ``build_report`` hands it the pair of its one PRS."""
    _check_gdisc_input(f)
    return _gdisc_from(f, *discriminant_and_gcd(f))


def _check_gdisc_input(f: Polynomial) -> None:
    if f.is_zero():
        raise ZeroPolynomialError("gdisc of the zero polynomial")
    if f.degree < 2:
        raise DegreeTooSmallError("gdisc needs degree >= 2")


def _gdisc_from(f: Polynomial, disc: FieldElement,
                g_j: Polynomial) -> FieldElement:
    """gdisc of f, n >= 2, from (disc, g_j = g_1) of discriminant_and_gcd.

    The chain runs on the numerator ring (Z, F_p or F_p[t]): F = d * f is
    f cleared, D^j F = d * D^j f its Hasse derivatives, and every g_j, h_j,
    a_j and q_m is a primitive associate of the monic one over the field
    (``FieldOps.primitive_gcd``, with 0 to normalize one polynomial),
    divided exactly in ``u_ring``.  Each res(q_m, D^m f) is res(Q_m, D^m F)
    / (lc(Q_m)^(deg D^m F) * d^(deg Q_m)), for Q_m the associate: its
    numerator goes into one power product and its scale into another, and
    the value is rebuilt once."""
    n, p = f.degree, f.field.p
    if disc:
        return tol_variant("gdisc", f.leading_coefficient(), n, disc)
    field, ops = f.field, f.field.ops
    ring, div = ops.ring, ops.u_ring.exact_div
    F, d = ops.cleared(f.raw)
    radical, one = p is None or n < p, (ring.one,)
    g_j = ops.cleared(g_j.raw)[0]
    a = g = ops.primitive_gcd(F, ())
    chain = []                      # (j, h_j, D^j F, g_j) for j = 1..M
    for j in range(1, n + 1) if radical else _nonzero_levels(f):
        D = r = hasse_raw(F, j, p, ring.times_int)
        if j > 1 and radical:       # g_(j-1) | h_(j-1): squarefree
            try:
                div(h, g)
                g_j = one
            except InexactDivision:
                g_j = ops.primitive_gcd(g, D)
        elif j > 1:                 # no drop where g_(j-1) | D^j f
            if len(D) >= len(g):    # r = the pseudo-remainder of D by g
                r = pstrip(pseudo_divmod(D, g, ring)[1])
            g_j = ops.primitive_gcd(g, r) if r else g
        g_j = ops.primitive_gcd(g_j, ())      # normalized
        if not radical and r:
            div(r, g_j)             # so g_j | D^j f
        h = div(g, g_j) if g_j != g else one
        chain.append((j, h, D, g_j))
        g = g_j
        if len(g) < 2:
            break
    else:
        raise ArithmeticError("gcd chain did not reach a constant")
    # gdisc = (-1)^(k/2) * lc^(n-2) * prod_m res(q_m, D^m f)^e, lc = F_n / d
    k, d_exp, nums, dens = 0, n - 2, [(F[-1], n - 2)], []
    for m, h, D, g_m in chain:
        if radical:             # q_m = rad_m^m, rad_m = h_m / h_(m+1)
            e, q = m, div(h, chain[m][1] if m < len(chain) else one)
        elif len(h) > 1:        # q_m = a_m / a_(m+1)
            e, (a, q) = 1, _split(a, g_m, ops)
        else:
            continue
        if len(q) > 1:
            v = ops.resultant(q, D)[0] if D else None
            if not v:
                raise ArithmeticError("res(q_m, D^m f) vanished")
            k += (m - 1) * e * (len(q) - 1)
            nums.append((v, e))
            dens.append((q[-1], e * (len(D) - 1)))
            d_exp += e * (len(q) - 1)
    dens.append((d, d_exp))
    tc = FieldElement(field, ops.rebuild(power_product(nums, ring),
                                         power_product(dens, ring)))
    return -tc if (k // 2) % 2 else tc          # (-1)^(k/2) * tc, k even


def _nonzero_levels(f: Polynomial) -> Iterator[int]:
    """The levels j = 1..deg f of the split form: 1, and each j > 1 with
    D^j f != 0.  By Lucas' theorem D^j x^i = C(i, j) x^(i-j) vanishes mod p
    unless every base-p digit of j is at most that of i, so the levels
    where no term of f survives are skipped without building D^j f: a
    level with D^j f = 0 has no drop, since gcd(g_(j-1), 0) = g_(j-1)."""
    p = f.field.p
    support = [i for i, c in enumerate(f.raw) if f.field.ops.nonzero(c)]
    yield 1
    for j in range(2, f.degree + 1):
        if any(binomial_mod(i, j, p)
               for i in islice(support, bisect_left(support, j), None)):
            yield j


def _split(a: Sequence, c: Sequence, ops) -> tuple[tuple, tuple]:
    """(the part of a on the roots of c, the rest of a), for primitive
    numerator lists a and c: divide by c while exact, then by the primitive
    gcd(rest, c), which must shrink."""
    div, mul = ops.u_ring.exact_div, ops.u_ring.mul
    part = (ops.ring.one,)
    while len(c) > 1 and len(a) > 1:
        try:
            a, part = div(a, c), mul(part, c)
            continue
        except InexactDivision:     # c does not divide a
            pass
        c_next = ops.primitive_gcd(ops.primitive_gcd(a, c), ())
        if len(c_next) >= len(c):
            raise ArithmeticError("gcd(rest, c) did not shrink")
        div(c, c_next)
        c = c_next
    return part, a


def gdisc_by_elimination(f: Polynomial) -> FieldElement:
    """gdisc by the paper's elimination, the check path that tests and
    ``selfcheck`` compare gdisc with; no report runs it.

    res_x(f, G_w), G_w = sum_{i=1..w} u^(i-1) D^i f, is lc^d * prod_r
    G_w(r, u)^(m_r) with d the x-degree of G_w.  For w >= M, the largest
    root multiplicity, the product's trailing coefficient tc sits at
    u-valuation k = sum_r m_r (m_r - 1) and gdisc = (-1)^(k/2) * lc^(n-2) *
    tc (see gdisc); for w < M it vanishes, so a nonzero product certifies
    w >= M.  The chain g_0 = f.monic(), g_j = gcd(g_(j-1), D^j f) by
    ``Polynomial.gcd`` splits f.monic() into the blocks h_j = g_(j-1) / g_j
    where the degree drops, and for monic h_j the product is prod_j
    res_x(h_j, G_M mod h_j), one small elimination per block.  h_j divides
    D^i f for i < j, so the leading u-coefficients of G_M mod h_j that
    vanish are counted and dropped, each adding deg h_j to k.  Every
    division is checked exact and a vanishing block raises.  The chain is
    its own from j = 1 on and separable f is one block of width 1, so no
    step shares the PRS of (f, f') that gdisc starts from."""
    _check_gdisc_input(f)
    n = f.degree
    lc = f.leading_coefficient()
    g, blocks, derivatives = f.monic(), [], []
    # g_j = gcd(g_(j-1), D^j f) keeps the roots of multiplicity > j
    for j in range(1, n + 1):
        derivatives.append(f.hasse_derivative(j))
        g_j = g.gcd(derivatives[-1])
        if g_j.degree < g.degree:
            blocks.append((g.exact_div(g_j) if g_j.degree > 0 else g).monic())
            g = g_j
        if g.degree < 1:
            break
    else:
        raise ArithmeticError("gcd chain did not reach a constant")
    k, tc = 0, lc ** (n - 2)
    for h in blocks:
        # G_M mod h, less its s leading u-coefficients that reduce to zero
        reduced = [d % h for d in derivatives]
        s = next((i for i, r in enumerate(reduced) if r), None)
        R = None if s is None else resultant_in_u(h, reduced[s:])
        if not R:
            raise ArithmeticError("u-resultant vanished; this cannot happen")
        v, c = _trailing(R)
        k += s * h.degree + v
        tc = tc * c
    return -tc if (k // 2) % 2 else tc          # (-1)^(k/2) * tc, k even


def _trailing(R: Polynomial) -> tuple[int, FieldElement]:
    """u-valuation and trailing coefficient of a nonzero R."""
    return next((i, c) for i, c in enumerate(R.coeffs) if c)


def tol(f: Polynomial) -> FieldElement:
    """The never-vanishing collision product
    lc^(2n-2) * prod over distinct closure roots (r_i - r_j)^(2 m_i m_j),
    from the squarefree decomposition through the CORRECTED per-factor
    formula; 1 for degree <= 1 (empty product)."""
    if f.is_zero():
        raise ZeroPolynomialError("tol of the zero polynomial")
    if f.degree <= 1:
        return f.field.one()
    return tol_from_factorization(squarefree_decomposition(f))


def tol_variant(name: str, lc: FieldElement, n: int,
                value: FieldElement) -> FieldElement:
    """Map value = tol(f), for f of leading coefficient lc and degree n, to
    the named relative: tol itself, dupl = lc^2 * tol, or gdisc =
    (-1)^C(n,2) * tol (the sign law), which like gdisc needs n >= 2."""
    if name == "tol":
        return value
    if name == "dupl":
        return lc * lc * value
    if n < 2:
        raise DegreeTooSmallError("gdisc needs degree >= 2")
    return -value if (n * (n - 1) // 2) % 2 else value


def dupl(f: Polynomial) -> FieldElement:
    """lc^2 * tol(f); coincides with tol on monic inputs."""
    if f.is_zero():
        raise ZeroPolynomialError("dupl of the zero polynomial")
    return tol_variant("dupl", f.leading_coefficient(), f.degree, tol(f))


def tol_from_roots(rm: RootMultiset, n: int) -> FieldElement:
    """Defining product, for inputs whose roots all lie in the base field;
    the independent oracle for the resultant route."""
    if rm.total_degree() != n:
        raise DegreeMismatchError(
            f"multiplicities sum to {rm.total_degree()}, degree says {n}")
    acc = rm.leading ** (2 * n - 2)
    entries = rm.entries
    for i in range(len(entries)):
        ri, mi = entries[i]
        for j in range(i + 1, len(entries)):
            rj, mj = entries[j]
            acc = acc * (ri - rj) ** (2 * mi * mj)
    return acc


def tol_irreducible(f: Polynomial) -> FieldElement:
    """tol of f taken as irreducible: the CORRECTED formula on the
    one-factor factorization lc * f.monic(), that is a^(2n-2) *
    disc(g)^(p^e) for f = a * g(x^(p^e)).  Valid whenever the desubstituted
    part g is separable (irreducibility is sufficient but not necessary);
    else ZeroDiscriminantFactorError."""
    if f.is_zero():
        raise ZeroPolynomialError("tol of the zero polynomial")
    if f.degree < 1:
        return f.field.one()
    return tol_from_factorization(_one_factor(f))


def _one_factor(f: Polynomial) -> Factorization:
    """f as one irreducible factor, for f of degree >= 1."""
    return Factorization(f.leading_coefficient(), ((f.monic(), 1),))


def tol_from_factorization(
        fac: Factorization,
        mode: FactorFormula = FactorFormula.CORRECTED) -> FieldElement:
    """Per-factor evaluation over a pairwise-coprime monic factorization.

    PAPER_SEPARABLE: all factors separable, N = sum m_i,
        lc^(2n-2) * prod disc(f_i)^(m_i (2 m_i - N))
                  * prod_{i<j} disc(f_i f_j)^(m_i m_j);
        that is PAPER_GENERAL at every e_i = 0, and runs as its loop once
        the factors pass the separability check.
    PAPER_GENERAL: uncorrected inseparable variant, N = sum m_i p^(e_i),
        with within-terms disc(sep_i)^(m_i p^(e_i) (2 m_i p^(e_i) - N)) and
        cross-terms disc(sep_i sep_j)^(m_i m_j p^(e_i + e_j)).  Overshoots
        the defining product whenever some e_i >= 1, already at a single
        distinct factor; kept unchanged so the disagreement stays
        observable.
    CORRECTED: lc^(2n-2) * prod disc(sep_i)^(m_i^2 p^(e_i))
        * prod_{i<j} res(twist(sep_i, E-e_i), twist(sep_j, E-e_j))
              ^(2 m_i m_j p^(min(e_i,e_j)))  with E = max(e_i, e_j);
        agrees with PAPER_SEPARABLE when every e_i = 0.

    Every mode is one product of powers, evaluated in the field's numerator
    ring (Z, F_p or F_p[t]) and built into a field element once, by
    ``FieldOps.rebuild``.  A term v^e puts num(v)^e into the numerator and
    den(v)^e into the denominator, the two swapped when e < 0.  Each side
    is one ``_rings.power_product``: a single squaring chain for all its
    terms.  CORRECTED clears each desubstituted part once, sep_i = N_i /
    d_i, and each Frobenius twist of it that a pair needs, twist(N_i) /
    d_i^(p^a).  Each pair runs the ring's resultant kernel
    (``FieldOps.resultant``) once, on the cleared numerators.  Its
    resultant goes into the numerator, and its scale, each part's
    denominator raised to the other part's degree, into the denominator as
    powers of d_i and d_j.  Each part's discriminant comes from N_i the
    same way (``numerator_discriminant``), with no field value in between
    where d_i = 1: its kernel resultant goes straight into the numerator.
    Elsewhere it is reduced over its power of d_i by one rebuild first.

    The PAPER modes check coprimality first, by
    ``Factorization.pairwise_coprime``; PAPER_SEPARABLE then checks that
    every factor is separable (InseparableInSeparableModeError).  CORRECTED
    is its own check: it takes each cross resultant once, before any
    discriminant.  The roots of twist(sep_i, E-e_i) are the p^E-th powers
    of those of f_i and Frobenius is injective, so a zero resultant means
    f_i and f_j share a root (InvalidFactorizationError, at the first such
    pair); a zero disc(sep_i) means a desubstituted part with repeated
    roots (ZeroDiscriminantFactorError, at the first such part).  No power
    is taken before every check has passed.
    """
    if mode is not FactorFormula.CORRECTED:
        _check_coprime(fac)
    if mode is FactorFormula.PAPER_SEPARABLE and any(
            e > 0 or not g.is_separable() for g, _, e, _ in fac.parts):
        raise InseparableInSeparableModeError(
            "separable-mode formula on an inseparable factor")
    field = fac.field
    if not fac.factors:
        return field.one()
    ops, q, parts = field.ops, field.char_exponent, fac.parts
    ring = ops.ring
    nums, dens = [], []         # (numerator-ring value, exponent >= 0)

    def put(v, e: int) -> None:
        """v^e for a raw field value v."""
        (num,), den = ops.cleared((v,))
        if e < 0:
            num, den, e = den, num, -e
        nums.append((num, e))
        dens.append((den, e))

    put(fac.unit.value, 2 * fac.degree() - 2)

    if mode is not FactorFormula.CORRECTED:
        weights = [m * q ** e for _, _, e, m in parts]
        big_n = sum(weights)
        for i, (_, sep_i, e_i, m_i) in enumerate(parts):
            d = discriminant(sep_i)
            if not d:
                raise ZeroDiscriminantFactorError(
                    "zero discriminant of a desubstituted part")
            put(d.value, weights[i] * (2 * weights[i] - big_n))
            for j in range(i + 1, len(parts)):
                _, sep_j, e_j, m_j = parts[j]
                cross = discriminant(sep_i * sep_j)
                if not cross:
                    raise ZeroDiscriminantFactorError(
                        "zero cross discriminant (parts share a root after "
                        "desubstitution)")
                put(cross.value, m_i * m_j * q ** (e_i + e_j))

    else:
        stretch = field.kind is FieldKind.RATIONAL_FUNCTION_FIELD
        clear, twists = {}, {}      # i -> (N_i, d_i); (i, a) -> N_i twisted
        den_exp = [0] * len(parts)

        def twisted(i: int, a: int) -> list:
            """The numerator of twist(sep_i, a) = twist(N_i) / d_i^(q^a)."""
            if i not in clear:
                clear[i] = ops.cleared(parts[i][1].raw)
            if not (a and stretch):     # F_p fixes every coefficient
                return clear[i][0]
            if (i, a) not in twists:
                twists[i, a] = [pstretch(c, q ** a) for c in clear[i][0]]
            return twists[i, a]

        for i, (_, sep_i, e_i, m_i) in enumerate(parts):
            for j in range(i + 1, len(parts)):
                _, sep_j, e_j, m_j = parts[j]
                a_i, a_j = max(e_i, e_j) - e_i, max(e_i, e_j) - e_j
                r = ops.resultant(twisted(i, a_i), twisted(j, a_j))[0]
                if not r:
                    raise InvalidFactorizationError(
                        "factors are not pairwise coprime")
                w = 2 * m_i * m_j * q ** min(e_i, e_j)
                nums.append((r, w))
                den_exp[i] += w * sep_j.degree * q ** a_i
                den_exp[j] += w * sep_i.degree * q ** a_j
        for i, (_, sep, e, m) in enumerate(parts):
            r, k, _ = numerator_discriminant(twisted(i, 0), ops)
            if not r:
                raise ZeroDiscriminantFactorError(
                    "zero discriminant of a desubstituted part")
            # sep is monic, so lc(N_i) = d_i: disc(sep) = r / d_i^(2n-2-k),
            # reduced first where d_i != 1, since a large w would raise the
            # factors r and d_i share in both products
            w, d_i = m * m * q ** e, clear[i][1]
            if d_i == ring.one:
                nums.append((r, w))
            else:
                put(ops.rebuild(r, ring_pow(d_i, 2 * sep.degree - 2 - k,
                                            ring)), w)
        dens += [(clear[i][1], x) for i, x in enumerate(den_exp) if x]

    return FieldElement(field, ops.rebuild(power_product(nums, ring),
                                           power_product(dens, ring)))


def _check_coprime(fac: Factorization) -> None:
    if not fac.pairwise_coprime():
        raise InvalidFactorizationError("factors are not pairwise coprime")


def homothety_exponent(f: Polynomial,
                       factorization: Optional[Factorization] = None) -> int:
    """Exponent h with tol(f(ax)) = a^h tol(f): n^2 - 2n + sum of squared
    closure multiplicities."""
    if f.is_zero():
        raise ZeroPolynomialError("homothety exponent of the zero polynomial")
    n = f.degree
    if n < 1:
        return 0
    profile = multiplicity_profile(f, factorization)
    return n * n - 2 * n + sum(count * m * m for m, count in profile)


def in_T(f: Polynomial) -> bool:
    """Inversion invariance: tol is unchanged by coefficient reversal."""
    if f.is_zero() or not f.constant_term():
        raise ZeroConstantTermError("inversion invariance needs f(0) != 0")
    return tol(f) == tol(f.reciprocal())


def inversion_criterion(fac: Factorization) -> bool:
    """Root-free inversion test on a factorization of f:
    prod sep_i(0)^(2 m_i (n - m_i p^(e_i)))  ==  (a_0/a_n)^(2n-2),
    where a_0/a_n is the constant-coefficient ratio of the monic product."""
    _check_coprime(fac)
    return _inversion_test(fac)


def _inversion_test(fac: Factorization) -> bool:
    """inversion_criterion on a factorization known to be coprime, as one
    equality of two power products on the numerator ring: with the
    exponents folded, prod sep_i(0)^(2 m_i (n - m_i p^(e_i)) - m_i (2n - 2))
    = 1, each sep_i(0) = num_i / den_i cleared once, num_i going to the
    left and den_i to the right (swapped for a negative exponent)."""
    field = fac.field
    ops, n, q = field.ops, fac.degree(), field.char_exponent
    lhs, rhs = [], []
    for _, sep, e, m in fac.parts:
        c0 = sep.raw[0]
        if not ops.nonzero(c0):
            raise ZeroConstantTermError("a factor vanishes at 0")
        (num,), den = ops.cleared((c0,))
        x = 2 * m * (n - m * q ** e) - m * (2 * n - 2)
        if x < 0:
            num, den, x = den, num, -x
        lhs.append((num, x))
        rhs.append((den, x))
    return power_product(lhs, ops.ring) == power_product(rhs, ops.ring)


# -- aggregate report ---------------------------------------------------------


@dataclass(frozen=True)
class ErrorRecord:
    op: str
    code: str
    message: str


Marker = str
ReportValue = Union[FieldElement, Marker, bool, int, None]


@dataclass
class InvariantReport:
    input: Polynomial
    field: FieldDescriptor
    tol: Optional[FieldElement] = None
    dupl: Optional[FieldElement] = None
    gdisc: Optional[FieldElement] = None
    disc: ReportValue = None
    separable: Optional[bool] = None
    in_T: ReportValue = None
    homothety_exponent: ReportValue = None
    paths_agree: Optional[bool] = None
    trusted_input: bool = False
    errors: list[ErrorRecord] = dc_field(default_factory=list)


def _verified_tol(f: Polynomial, fac: Factorization) -> FieldElement:
    """tol from a caller's factorization of f, checked on the way: it must
    re-expand to f, and the cross resultants and part discriminants of
    tol_from_factorization must be nonzero (coprimality, and separability of
    the desubstituted parts).  That is all the formula needs."""
    if fac.expand() != f:
        raise InvalidFactorizationError(
            "factorization does not re-expand to the input")
    try:
        return tol_from_factorization(fac)
    except ZeroDiscriminantFactorError:
        raise InvalidFactorizationError(
            "a desubstituted part has repeated roots") from None


def _claim_unverified(fac: Factorization) -> bool:
    """Whether the caller's claim that each factor is irreducible stays
    unverified: over F_p each one is tested (InvalidFactorizationError if
    reducible); over Q and F_p(t) the claim is taken on trust."""
    if fac.field.kind is not FieldKind.PRIME_FIELD:
        return True
    for g, _ in fac.factors:
        if not is_irreducible_prime_field(g):
            raise InvalidFactorizationError(
                f"factor of degree {g.degree} is reducible")
    return False


def build_report(f: Polynomial,
                 factorization: Optional[Factorization] = None,
                 assert_irreducible: bool = False) -> InvariantReport:
    """Every computable invariant of f, with structured error records in
    place of exceptions and explicit markers for unmet preconditions.

    Each quantity is computed once.  tol comes from one call of
    tol_from_factorization: on the caller's factorization, whose
    coprimality and separability that call checks on the way (see
    _verified_tol), else on the squarefree decomposition.  A caller's
    factorization that fails only the F_p irreducibility test keeps its tol;
    the rest of the report then reads the squarefree decomposition.  No
    separate coprimality test runs.  dupl, the sign law and in_T are derived
    from tol.  gdisc takes one scalar resultant at width 1, which settles
    separable input, and on repeated roots one scalar resultant per root
    multiplicity over its own gcd chain (see gdisc); no u-resultant runs.
    paths_agree compares gdisc with (-1)^C(n,2) * tol.  The PRS of (f, f')
    runs once; its disc and g_1 = gcd(f, f') serve disc, gdisc's width 1
    and the decomposition, and gdisc checks g_1 by exact division: a wrong
    g_1 fakes no agreement."""
    report = InvariantReport(input=f, field=f.field)

    def attempt(op, fn):
        try:
            return fn()
        except TolerantError as exc:
            report.errors.append(ErrorRecord(op, exc.code, str(exc)))
            return None

    fac = factorization
    if fac is None and assert_irreducible and not f.is_zero() and f.degree >= 1:
        fac = _one_factor(f)
    t = fac_error = None    # fac_error goes after in_T, where reports list it
    if fac is not None:
        try:
            t = _verified_tol(f, fac)
            report.trusted_input = _claim_unverified(fac)
        except TolerantError as exc:
            fac_error = ErrorRecord("factorization", exc.code, str(exc))
            fac = None
    disc, g_1 = discriminant_and_gcd(f) if f.degree >= 2 else (None, None)
    if fac is None and f.degree >= 1:
        fac = (squarefree_decomposition(f) if g_1 is None
               else _squarefree_with_gcd(f, g_1))

    # Without a factorization f is zero or constant, and the library
    # functions give the value or record the precondition error.
    if t is None:
        t = attempt("tol", lambda: tol(f) if fac is None
                    else tol_from_factorization(fac))
    report.tol = t
    report.dupl = attempt("dupl", lambda: dupl(f) if t is None
                          else tol_variant("dupl", f.leading_coefficient(),
                                           f.degree, t))
    report.gdisc = attempt("gdisc", lambda: gdisc(f) if g_1 is None
                           else _gdisc_from(f, disc, g_1))
    d = attempt("disc", lambda: discriminant(f) if g_1 is None else disc)
    if d is None:
        report.separable = attempt("separable", lambda: f.is_separable())
    else:
        report.disc = d if d else REPEATED_ROOT
        report.separable = bool(d)
    if f.is_zero() or not f.constant_term():
        report.in_T = UNDEFINED
    else:
        report.in_T = attempt("in_T", lambda: in_T(f) if fac is None
                              else _inversion_test(fac))
    if fac_error is not None:
        report.errors.append(fac_error)
    report.homothety_exponent = attempt(
        "homothety_exponent", lambda: homothety_exponent(f, fac))

    if fac is not None and t is not None:
        if f.degree < 2:
            report.paths_agree = t.is_one()      # the empty product
        elif report.gdisc is not None:
            report.paths_agree = report.gdisc == tol_variant(
                "gdisc", f.leading_coefficient(), f.degree, t)
    return report
