"""Seeded benchmark inputs whose invariants are known from their construction.

Every input is lc * prod (factor)^m, built from closure roots chosen up front,
so the oracle values follow from the roots without calling ``tolerant``:

* a factor ``x^q - a`` with q a power of p (always q = 1 over Q) has the one
  closure root a^(1/q), of multiplicity m*q;
* a binomial ``x^(k q) - a`` with k > 1 prime to p has k closure roots, each
  of multiplicity m*q.  Its roots are not in the field, so a binomial must be
  the only factor of its input.

For two closure roots alpha^(q_a) = a and beta^(q_b) = b with q_a >= q_b,
(alpha - beta)^(q_a) = a - b^(q_a/q_b), which keeps the root product
lc^(2n-2) * prod (r_i - r_j)^(2 M_i M_j) inside the coefficient field.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

REPEATED_ROOT = "REPEATED_ROOT"
UNDEFINED = "UNDEFINED"


# -- F_p[t] arithmetic on dense tuples, low degree first ------------------------


def _strip(c: list) -> tuple:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _tadd(a: tuple, b: tuple, p: int, sign: int = 1) -> tuple:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + sign * c) % p
    return _strip(out)


def _tmul(a: tuple, b: tuple, p: int) -> tuple:
    """Product in F_p[t]; long operands go through one big-integer multiply
    (Kronecker substitution), which keeps high-degree oracles fast."""
    if not a or not b:
        return ()
    if min(len(a), len(b)) < 24:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _strip([c % p for c in out])
    width = ((min(len(a), len(b)) * (p - 1) ** 2).bit_length() + 7) // 8

    def pack(c: tuple) -> int:
        return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in c),
                              "little")

    size = len(a) + len(b) - 1
    raw = (pack(a) * pack(b)).to_bytes(size * width, "little")
    return _strip([int.from_bytes(raw[i * width:(i + 1) * width], "little") % p
                   for i in range(size)])


def _tpow(a: tuple, e: int, p: int) -> tuple:
    out, base = (1,), a
    while e:
        if e & 1:
            out = _tmul(out, base, p)
        e >>= 1
        if e:
            base = _tmul(base, base, p)
    return out


# -- field values with operators --------------------------------------------------


class ModP:
    """Residue modulo p."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        return other if isinstance(other, ModP) else ModP(other, self.p)

    def __add__(self, other):
        return ModP(self.v + self._lift(other).v, self.p)

    def __sub__(self, other):
        return ModP(self.v - self._lift(other).v, self.p)

    def __neg__(self):
        return ModP(-self.v, self.p)

    def __mul__(self, other):
        return ModP(self.v * self._lift(other).v, self.p)

    def __truediv__(self, other):
        return ModP(self.v * pow(self._lift(other).v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, e: int):
        return ModP(pow(self.v, e, self.p), self.p)

    def __bool__(self):
        return bool(self.v)

    def __eq__(self, other):
        if not isinstance(other, (ModP, int)):
            return NotImplemented
        return self.v == self._lift(other).v

    def __repr__(self):
        return str(self.v)


class RatT:
    """Element of F_p(t) as an unreduced fraction of F_p[t] tuples; equality
    cross-multiplies, so no gcd is ever needed."""

    __slots__ = ("num", "den", "p")

    def __init__(self, num: tuple, den: tuple, p: int):
        if not den:
            raise ZeroDivisionError("zero denominator in F_p(t)")
        self.num, self.den, self.p = num, den, p

    def _lift(self, other):
        if isinstance(other, RatT):
            return other
        c = other % self.p
        return RatT((c,) if c else (), (1,), self.p)

    def _combine(self, other, sign: int):
        o, p = self._lift(other), self.p
        if self.den == o.den:
            return RatT(_tadd(self.num, o.num, p, sign), self.den, p)
        return RatT(_tadd(_tmul(self.num, o.den, p), _tmul(o.num, self.den, p),
                          p, sign), _tmul(self.den, o.den, p), p)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return RatT(_tadd((), self.num, self.p, -1), self.den, self.p)

    def __mul__(self, other):
        o, p = self._lift(other), self.p
        return RatT(_tmul(self.num, o.num, p), _tmul(self.den, o.den, p), p)

    def __truediv__(self, other):
        o, p = self._lift(other), self.p
        return RatT(_tmul(self.num, o.den, p), _tmul(self.den, o.num, p), p)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return (1 / self) ** (-e)
        return RatT(_tpow(self.num, e, self.p), _tpow(self.den, e, self.p),
                    self.p)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, (RatT, int)):
            return NotImplemented
        o, p = self._lift(other), self.p
        return _tmul(self.num, o.den, p) == _tmul(o.num, self.den, p)

    def poly(self) -> tuple:
        """The value as an F_p[t] tuple; the denominator must be constant."""
        if len(self.den) != 1:
            raise ValueError("not a polynomial in t")
        inv = pow(self.den[0], -1, self.p)
        return tuple(c * inv % self.p for c in self.num)

    def __repr__(self):
        return f"{list(self.num)}/{list(self.den)}"


# -- the three benchmark fields ----------------------------------------------------


def _signed(v: int, p: int) -> int:
    return v - p if v > p // 2 else v


def _t_text(coeffs: tuple, p: int) -> str:
    """Signed text of a nonzero F_p[t] tuple, highest power first."""
    out = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = _signed(coeffs[i], p)
        if not c:
            continue
        mag = abs(c)
        tp = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
        body = str(mag) if not tp else (tp if mag == 1 else f"{mag}*{tp}")
        if out:
            out.append((" - " if c < 0 else " + ") + body)
        else:
            out.append(("-" if c < 0 else "") + body)
    return "".join(out)


class Field:
    """One coefficient field: its CLI name, element constructor, the signed
    text of a coefficient in an input expression, and the reader of the
    canonical value text the CLI prints."""

    def __init__(self, name: str):
        self.name = name
        kind, _, modulus = name.partition(":")
        self.kind = kind
        self.p = int(modulus) if modulus else 0

    def of(self, n):
        if self.kind == "q":
            return Fraction(n)
        if self.kind == "fp":
            return ModP(n, self.p)
        return RatT(((n % self.p,) if n % self.p else ()), (1,), self.p)

    def poly_t(self, coeffs) -> RatT:
        return RatT(_strip([c % self.p for c in coeffs]), (1,), self.p)

    def coefficient(self, c) -> tuple[bool, str, bool]:
        """(negative, magnitude text, magnitude is one) of a nonzero value."""
        if self.kind == "q":
            return c < 0, str(abs(c)), abs(c) == 1
        if self.kind == "fp":
            s = _signed(c.v, self.p)
            return s < 0, str(abs(s)), abs(s) == 1
        poly = c.poly()
        if len(poly) == 1:
            s = _signed(poly[0], self.p)
            return s < 0, str(abs(s)), abs(s) == 1
        return False, f"({_t_text(poly, self.p)})", False

    def parse_value(self, text: str):
        """Read the canonical text the CLI prints for a field value."""
        if self.kind == "q":
            return Fraction(text)
        if self.kind == "fp":
            return ModP(int(text), self.p)
        if text.startswith("("):
            num, den = text[1:-1].split(")/(")
            return RatT(self._t_parse(num), self._t_parse(den), self.p)
        return RatT(self._t_parse(text), (1,), self.p)

    def _t_parse(self, text: str) -> tuple:
        out: dict[int, int] = {}
        for term in text.split(" + "):
            head, star, tail = term.partition("*")
            coeff, mono = (int(head), tail) if star else (
                (1, head) if head.startswith("t") else (int(head), ""))
            power = 0 if not mono else (int(mono[2:]) if "^" in mono else 1)
            out[power] = coeff
        top = max(out)
        return _strip([out.get(i, 0) % self.p for i in range(top + 1)])


FIELDS = {name: Field(name) for name in ("q", "fp:10007", "fpt:3")}


# -- instances and their oracle values -------------------------------------------


@dataclass(frozen=True)
class Factor:
    """prod_j (x^(k q) - a_j), raised to the m-th power in the instance."""

    radicands: tuple
    q: int = 1
    m: int = 1
    k: int = 1


@dataclass(frozen=True)
class Instance:
    field: Field
    lc: object
    factors: tuple

    @property
    def degree(self) -> int:
        return sum(len(f.radicands) * f.k * f.q * f.m for f in self.factors)


def _poly_mul(a: list, b: list, zero) -> list:
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return out


def factor_coeffs(F: Field, f: Factor) -> list:
    """Monic dense coefficients, low degree first, of one factor (without m)."""
    zero, one = F.of(0), F.of(1)
    out = [one]
    for a in f.radicands:
        out = _poly_mul(out, [-a] + [zero] * (f.k * f.q - 1) + [one], zero)
    return out


def expand(inst: Instance) -> list:
    F = inst.field
    zero = F.of(0)
    out = [inst.lc]
    for f in inst.factors:
        g = factor_coeffs(F, f)
        for _ in range(f.m):
            out = _poly_mul(out, g, zero)
    return out


def tol_oracle(inst: Instance):
    """lc^(2n-2) * prod over closure root pairs (r_i - r_j)^(2 M_i M_j);
    raises ValueError when two closure roots coincide."""
    n = inst.degree
    acc = inst.lc ** (2 * n - 2)
    if any(f.k > 1 for f in inst.factors):
        if len(inst.factors) != 1 or len(inst.factors[0].radicands) != 1:
            raise ValueError("a binomial factor must stand alone")
        f = inst.factors[0]
        (a,) = f.radicands
        if not a:
            raise ValueError("binomial radicand must be nonzero")
        # disc(x^k - b) = (-1)^C(k,2) k^k (-b)^(k-1) with b^q = a, raised
        # to the squared multiplicity (m q)^2.
        d0 = inst.field.of((-1) ** (comb(f.k, 2) + f.k - 1) * f.k ** f.k)
        return acc * d0 ** (f.m * f.m * f.q * f.q) * a ** (
            (f.k - 1) * f.m * f.m * f.q)
    roots = [(a, f.q, f.m) for f in inst.factors for a in f.radicands]
    for i, (a, qa, ma) in enumerate(roots):
        for b, qb, mb in roots[i + 1:]:
            if qa >= qb:
                diff = a - b ** (qa // qb)
                e = 2 * ma * mb * qb
            else:
                diff = b - a ** (qb // qa)
                e = 2 * ma * mb * qa
            if not diff:
                raise ValueError("two closure roots coincide")
            acc = acc * diff ** e
    return acc


def _reciprocal(inst: Instance) -> Instance:
    """x^n f(1/x): each (x^(kq) - a)^m becomes (-a)^m (x^(kq) - 1/a)^m."""
    lc = inst.lc
    factors = []
    for f in inst.factors:
        for a in f.radicands:
            lc = lc * (-a) ** f.m
        factors.append(Factor(tuple(1 / a for a in f.radicands), f.q, f.m, f.k))
    return Instance(inst.field, lc, tuple(factors))


def oracle(inst: Instance, with_in_t: bool = True) -> dict:
    """Expected report values; field values stay exact objects.  in_T costs
    a second root product and is left None unless asked for."""
    n = inst.degree
    t = tol_oracle(inst)
    separable = all(f.q == 1 and f.m == 1 for f in inst.factors)
    if not with_in_t:
        in_t = None
    elif any(not a for f in inst.factors for a in f.radicands):
        in_t = UNDEFINED
    else:
        in_t = tol_oracle(_reciprocal(inst)) == t
    return {
        "degree": n,
        "tol": t,
        "dupl": inst.lc * inst.lc * t,
        "gdisc": -t if comb(n, 2) % 2 else t,
        "disc": t if separable else REPEATED_ROOT,
        "separable": separable,
        "in_T": in_t,
        "homothety_exponent": n * n - 2 * n + sum(
            len(f.radicands) * f.k * (f.m * f.q) ** 2 for f in inst.factors),
    }


# -- expression text ---------------------------------------------------------------


def poly_text(F: Field, coeffs: list) -> str:
    out = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        neg, mag, unit = F.coefficient(c)
        xp = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        body = mag if not xp else (xp if unit else f"{mag}*{xp}")
        if out:
            out.append((" - " if neg else " + ") + body)
        else:
            out.append(("-" if neg else "") + body)
    return "".join(out)


def factored_text(inst: Instance) -> str:
    F = inst.field
    neg, mag, unit = F.coefficient(inst.lc)
    pieces = [] if unit else [mag]
    for f in inst.factors:
        body = f"({poly_text(F, factor_coeffs(F, f))})"
        pieces.append(body if f.m == 1 else f"{body}^{f.m}")
    return ("-" if neg else "") + " * ".join(pieces)


# -- seeded generation ------------------------------------------------------------


# Multiplicity scale of the repeated and inseparable patterns by degree.  The
# cost of an F_3(t) disc swings tenfold with the pattern (degree 32 at scale 4
# takes ~7 s, at scale 3 ~0.4 s), so each scale was picked by measured cost.
SCALE = {16: 2, 24: 3, 32: 3, 48: 4}


def _root_pattern(shape: str, n: int) -> list[tuple[int, int]]:
    """(q, m) per closure root; fixed by shape and degree, not by the seed, so
    every seed gets inputs of the same structure.  An entry heavier than what
    is left of n becomes a simple root."""
    cycle = {
        "separable": [(1, 1)],
        "repeated": [(1, 2), (1, 1), (1, 3), (1, 1)],
        "inseparable": [(3, 1), (1, 1), (9, 1), (1, 2), (3, 2), (1, 1)],
    }[shape]
    scale = SCALE.get(n, 1)     # high degrees: heavier roots, not more roots
    out, left, i = [], n, 0
    while left:
        q, m = cycle[i % len(cycle)]
        m *= 1 if shape == "separable" else scale
        if q * m > left:
            q, m = 1, 1
        out.append((q, m))
        left -= q * m
        i += 1
    return out


def _radicands(F: Field, rng: random.Random, count: int) -> list:
    """`count` distinct random roots (or p^e-th powers of roots), drawn from
    a pool that grows with `count`."""
    if F.kind == "q":
        # Magnitudes from span/2 to span, a half-integer at every third place:
        # the coefficient sizes, which set the cost over Q, are about the same
        # for every seed.
        span = max(6, count)
        band = [k for k in range(-span, span + 1) if 2 * abs(k) >= span]
        return [Fraction(2 * k + (1 if k > 0 else -1), 2) if i % 3 == 2
                else Fraction(k) for i, k in enumerate(rng.sample(band, count))]
    if F.kind == "fp":
        return [ModP(v, F.p) for v in rng.sample(range(F.p), count)]
    # Up to two constants at fixed places, then linear polynomials until they
    # run out, then quadratics, and so on: the t-degree of every place, which
    # sets the cost over F_p(t), is the same for every seed.
    consts = rng.sample(range(1, F.p), min(2, count // 3))
    out, d = [], 1
    while len(out) < count - len(consts):
        pool = [c for c in itertools.product(range(F.p), repeat=d + 1) if c[-1]]
        out += rng.sample(pool, min(len(pool), count - len(consts) - len(out)))
        d += 1
    out = [F.poly_t(c) for c in out]
    for place, c in zip((1, 4), consts):
        out.insert(place, F.poly_t([c]))
    return out


def _lc(F: Field, rng: random.Random):
    if F.kind == "q":
        return Fraction(rng.choice([1, -1, 2, -2, 3, -3]))
    return F.of(rng.randrange(1, F.p))


def make_instance(F: Field, rng: random.Random, shape: str, n: int,
                  zero_root: bool = False, group: int = 1) -> Instance:
    """A random instance of the given shape and degree.  Roots with equal
    (q, m) are grouped `group` to a factor; `zero_root` puts a root at 0."""
    if shape == "binomial":
        k, q = (n // F.p, F.p) if n % F.p == 0 else (n, 1)
        (a,) = _radicands(F, rng, 1)
        return Instance(F, _lc(F, rng), (Factor((a,), q, 1, k),))
    pattern = _root_pattern(shape, n)
    for _ in range(1000):
        radicands = _radicands(F, rng, len(pattern))
        if zero_root:
            radicands[0] = F.of(0)
        factors, run = [], {}
        for (q, m), a in zip(pattern, radicands):
            run.setdefault((q, m), []).append(a)
            if len(run[(q, m)]) == group:
                factors.append(Factor(tuple(run.pop((q, m))), q, m))
        factors += [Factor(tuple(rs), q, m) for (q, m), rs in run.items()]
        inst = Instance(F, _lc(F, rng), tuple(factors))
        try:
            tol_oracle(inst)
        except ValueError:
            continue
        return inst
    raise RuntimeError(f"no {shape} instance of degree {n} over {F.name}")


@dataclass(frozen=True)
class Item:
    """One CLI invocation and what it must print."""

    command: str
    field: Field
    factored: bool
    shape: str
    degree: int
    expr: str
    expect: dict

    def argv(self) -> list[str]:
        flags = ["--factored"] if self.factored else []
        return [self.command, "--field", self.field.name, *flags, "--", self.expr]


# Per workload: rows of (field, shapes, degrees, copies per shape and degree,
# commands).  Each command is (name, factored input, highest degree it runs
# at); every command of a row runs on the same instances.
REPORT = (("report", False, 99),)
TOL = (("tol", False, 99),)
FACTORED = (("tol", True, 99), ("disc", False, 32))
# Copy counts set each field's share of the pass time, which every --trace 0
# run prints as pass_share.<field>.  On a 2-core x86 VM: report-mixed q
# 0.37-0.39, fp:10007 0.29-0.31, fpt:3 0.30-0.33; tol-ladder q 0.40, fp:10007
# 0.17, fpt:3 0.42; factored-highdeg q 0.31, fp:10007 0.20, fpt:3 0.49.  A
# pass lasts 4-7 s.  tol-ladder is not in BENCHMARK.json: its few inputs of
# 1-3 s each leave its figures at the mercy of the machine's slow spells.
WORKLOADS = {
    "report-mixed": [
        ("q", ("separable", "repeated"), (2, 3), 3, REPORT),
        ("q", ("separable", "repeated"), (4,), 4, REPORT),
        ("q", ("separable", "repeated"), (5, 6, 7), 1, REPORT),
        ("q", ("separable", "repeated"), (8,), 3, REPORT),
        ("fp:10007", ("separable", "repeated"), (2, 3), 3, REPORT),
        ("fp:10007", ("separable", "repeated"), (4, 8), 4, REPORT),
        ("fp:10007", ("separable", "repeated"), (5, 6, 7), 1, REPORT),
        ("fpt:3", ("repeated", "inseparable"), (2, 3, 4, 6), 1, REPORT),
        ("fpt:3", ("repeated", "inseparable"), (5,), 2, REPORT),
        # No separable input whose degree is a multiple of 3: there the
        # program's disc is off by a power of lc (see
        # test_disc_when_p_divides_the_degree), and a workload must not fail.
        # Extra copies at degree 5 keep F_3(t) near a third of the pass.
        ("fpt:3", ("separable",), (2, 4), 1, REPORT),
        ("fpt:3", ("separable",), (5,), 3, REPORT),
        ("fpt:3", ("binomial",), (2, 6), 1, REPORT),
    ],
    "tol-ladder": [
        ("q", ("separable", "repeated"), (4, 8), 2, TOL),
        ("q", ("separable", "repeated"), (12,), 1, TOL),
        ("fp:10007", ("separable", "repeated"), (4, 8), 2, TOL),
        ("fp:10007", ("separable", "repeated"), (12,), 1, TOL),
        ("fpt:3", ("separable", "repeated", "inseparable"), (4, 6), 1, TOL),
        # An inseparable input of degree 8 takes ~2.7 s, as long as the rest
        # of the pass; the repeated one at 8 already costs that much.
        ("fpt:3", ("separable", "repeated"), (8,), 1, TOL),
    ],
    "factored-highdeg": [
        ("q", ("separable", "repeated"), (16, 24, 32, 48), 2, FACTORED),
        ("fp:10007", ("separable", "repeated"), (16, 24, 32, 48), 3, FACTORED),
        # One copy: the F_3(t) disc inputs, whose cost swings up to twofold
        # between seeds, then fill the ten places above the tail percentile
        # with the Q disc inputs at 32, and the percentile falls among the
        # 100-160 ms inputs below them.
        ("fpt:3", ("repeated", "inseparable"), (16, 24, 32, 48), 1, FACTORED),
    ],
}


def build_corpus(workload: str, seed: int) -> list[Item]:
    """The workload's inputs for one seed."""
    rng = random.Random(f"{workload}/{seed}")
    items = []
    for field, shapes, degrees, copies, commands in WORKLOADS[workload]:
        F = FIELDS[field]
        reports = commands == REPORT
        for n in degrees:
            for shape in shapes:
                for c in range(copies):
                    zero_root = reports and shape != "binomial" and (n + c) % 3 == 0
                    factored = any(f for _, f, _ in commands)
                    inst = make_instance(F, rng, shape, n, zero_root,
                                         group=3 if factored else 1)
                    expect = oracle(inst, with_in_t=reports)
                    for command, factored, top in commands:
                        if n > top:
                            continue
                        expr = (factored_text(inst) if factored
                                else poly_text(F, expand(inst)))
                        items.append(Item(command, F, factored, shape, n, expr,
                                          expect))
    # Shuffled, so that the inputs of each rung are spread over the pass and
    # a slow spell of the machine does not land on one rung only.
    rng.shuffle(items)
    return items
