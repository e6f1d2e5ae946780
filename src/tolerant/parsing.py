"""Expression parsing and canonical printing.

Grammar (whitespace-insensitive, U+2212 accepted for '-'):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | atom ('^' NUMBER)*
    atom   := NUMBER | 'x' | 't' | '(' expr ')'

NUMBER is a run of the ASCII digits 0-9.  One compiled regex splits the
text into token strings: a NUMBER, or any other single non-space
character; whitespace between tokens is skipped.  The grammar walks that
list by index, and no token carries its offset: an error re-scans the text
to find the offset of the token it names.  Any character outside the
grammar, including a non-ASCII digit, is an unexpected character, and the
first one in the text is the error reported, ahead of any other.

Exponents are nonnegative integer literals.  An exponent above
``MAX_DEGREE``, or a power, product, factored group or factored product
whose degree in x or (over F_p(t)) in t would be, is refused with
``INPUT_TOO_LARGE`` before it is built.  Integer literals may have any
number of digits.  '/' forms coefficients: the divisor must be constant in
x and nonzero in the target field (so `1/2` over F_2 is rejected as a
field-literal error, not a syntax error).  The variable t only exists over
F_p(t).

Factored mode accepts `unit * (g1)^m1 * (g2)^m2 * ...`: any number of
'*'-separated constant pieces and parenthesized nonconstant groups; groups
are normalized monic with their leading coefficients folded into the unit,
and textually repeated groups have their multiplicities merged.

Cost model: a monomial-level scan reads the common texts first, one
small compiled pattern per monomial.  It takes a plain sum of signed
monomials ``c*x^e``, where c is an integer literal, a quotient of two, or
over F_p(t) a power of t or a parenthesized sum of ``c*t^e``; in factored
mode also a '*'-product of integer constants and parenthesized such sums,
each with at most one '^m'.  It builds each coefficient once in the
field's raw form.  It returns None on any other text, and on every text the
grammar would refuse or cap (a divisor or unit that is 0 in the field, a
constant group, '^0', a literal of more than 600 digits, a degree past
``MAX_DEGREE``), and the grammar then reads the text: so every value is the
grammar's, and every error comes from the grammar.

In the grammar every intermediate value is a sparse term map
``{x-degree: nonzero raw field value}``, turned into a ``Polynomial`` once per
input (once per group in factored mode).  A sum merges maps term by term, a
unary minus negates the entries, a product or quotient with a one-term side
shifts and scales the other map, and ``x^e`` and ``t^e`` are built directly,
so parsing is linear in the number of terms.  Only a product of two
multi-term values, or a power of a multi-term value, runs ``Polynomial``
arithmetic, whose product is the field's ``u_ring.mul``.  Factored groups
from either reader are merged in a dict keyed on their monic raw
coefficients, so a product of k groups takes k dict lookups, not O(k^2)
comparisons.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice

from . import _rings
from .errors import FieldLiteralError, InputTooLargeError, ParseError
from .factor import Factorization
from .field import FieldDescriptor, FieldElement, FieldKind
from .poly import Polynomial

# A NUMBER, or one non-space character; [0-9], since \d would match every
# Unicode decimal digit.
_TOKEN = re.compile(r"[0-9]+|\S")
# A character that is neither whitespace nor part of a token of the grammar.
_UNEXPECTED = re.compile(r"[^0-9xt+\-*/^()\s]")

# Each '(' and each unary '-' opens one level of recursion in the parser;
# deeper input is refused before it can exhaust the interpreter's stack.
MAX_NESTING = 64

# Largest exponent, and largest degree in x or t of any value the parser
# builds; a dense list of this length still takes a fraction of a second.
MAX_DEGREE = 100_000


def _int_value(digits: str) -> int:
    """The int of a digit string of any length.  int() refuses strings past
    the interpreter's digit limit (640 at the least), so long ones are split
    in halves."""
    if len(digits) <= 600:
        return int(digits)
    k = len(digits) // 2
    return _int_value(digits[:-k]) * 10 ** k + _int_value(digits[-k:])


def _polynomial(field: FieldDescriptor, terms: dict) -> Polynomial:
    """The Polynomial of a term map ``{x-degree: raw value}``."""
    raw = [field.ops.from_int(0)] * (max(terms, default=-1) + 1)
    for d, c in terms.items():
        raw[d] = c
    return Polynomial.from_raw(field, raw)


class _Product:
    """unit * prod g^m of a factored text, built piece by piece by either
    reader.  The unit is a raw value, and the monic groups are merged in a
    dict keyed on their raw coefficients, in order of first occurrence."""

    def __init__(self, field: FieldDescriptor):
        self.field = field
        self.unit = field.ops.one
        self.groups: dict[tuple, int] = {}

    def times(self, c) -> None:
        self.unit = self.field.ops.mul(self.unit, c)

    def group(self, terms: dict, mult: int) -> None:
        """times g^mult, for the nonconstant g of a term map: lc(g)^mult
        goes to the unit and monic(g) to the groups."""
        ops = self.field.ops
        g = _polynomial(self.field, terms)
        self.times(_rings.ring_pow(g.raw[-1], mult, ops))
        if mult:
            key = g.monic().raw
            self.groups[key] = self.groups.get(key, 0) + mult

    def factorization(self) -> Factorization:
        field = self.field
        return Factorization(
            FieldElement(field, self.unit),
            tuple((Polynomial.from_raw(field, g), m)
                  for g, m in self.groups.items()))


class _Parser:
    """Recursive descent over the token strings, the last of which is ""
    for the end of input.  A token is a NUMBER exactly when
    "0" <= token < ":", the characters around the ASCII digits.  Every
    grammar method returns a term map ``{x-degree: nonzero raw value}`` that
    no other value shares, so a sum may merge into its left operand in
    place."""

    def __init__(self, text: str, field: FieldDescriptor):
        self.field = field
        self.ops = field.ops
        # F_p(t)'s t, whose powers are built directly
        self.t = (field.t().value
                  if field.kind is FieldKind.RATIONAL_FUNCTION_FIELD else None)
        # U+2212 is one character, as '-' is, so no offset moves
        self.text = text.replace("−", "-")
        self.tokens = _TOKEN.findall(self.text)
        self.tokens.append("")
        self.i = 0
        self.depth = 0

    def fail(self, message: str, at: int, error=ParseError):
        """Raise `error` at the offset of token `at`, or a ParseError at the
        text's first unexpected character if it has one."""
        bad = _UNEXPECTED.search(self.text)
        if bad:
            raise ParseError(f"unexpected character {bad.group()!r}",
                             bad.start())
        starts = (m.start() for m in _TOKEN.finditer(self.text))
        raise error(message, next(islice(starts, at, None), len(self.text)))

    def check_size(self, size: int, at: int) -> None:
        if size > MAX_DEGREE:
            self.fail(f"exponent or degree above the cap of {MAX_DEGREE}", at,
                      InputTooLargeError)

    def nested(self, parse, at: int):
        """parse() one level deeper, past the '(' or unary '-' at token
        `at`."""
        if self.depth == MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels", at)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def group(self, at: int) -> dict:
        """'(' expr ')', the '(' being token `at`, the one just read."""
        value = self.nested(self.expr, at)
        if self.tokens[self.i] != ")":
            self.fail("expected ')'", self.i)
        self.i += 1
        return value

    def exponent(self, base: dict) -> int:
        """The NUMBER after a '^' that raises `base`, refused when the
        exponent or the power's degree would pass MAX_DEGREE."""
        i = self.i
        digits = self.tokens[i]
        if not "0" <= digits < ":":
            self.fail("exponent must be a nonnegative integer literal", i)
        self.i = i + 1
        e = _int_value(digits)
        self.check_size(max(1, *self.degrees(base)) * e, i)
        return e

    # -- term maps ----------------------------------------------------------

    def degrees(self, terms: dict) -> tuple[int, int]:
        """(degree in x, largest degree in t of a numerator or denominator)
        of a term map; a power multiplies both and a product adds them.
        Off F_p(t) the t-degree is 0."""
        t_degree = 0
        if self.t is not None:
            t_degree = max((len(part) - 1 for v in terms.values()
                            for part in v), default=0)
        return max(terms, default=0), t_degree

    def terms(self, f: Polynomial) -> dict:
        nonzero = self.ops.nonzero
        return {d: c for d, c in enumerate(f.raw) if nonzero(c)}

    def shifted(self, terms: dict, d: int, c) -> dict:
        """terms * c x^d, for a nonzero c."""
        mul = self.ops.mul
        return {k + d: mul(v, c) for k, v in terms.items()}

    def product(self, a: dict, b: dict, at: int) -> dict:
        """a * b, whose second factor starts at token `at`; a Polynomial
        product only when both have several terms."""
        if len(a) == 1 == len(b):
            (d, c), = a.items()
            (k, v), = b.items()
            size = d + k
            if self.t is not None:
                size = max(size, max(map(len, c)) + max(map(len, v)) - 2)
            self.check_size(size, at)
            # x and x^e carry ops.one itself: c*x^e takes no product
            one = self.ops.one
            return {d + k: v if c is one else c if v is one
                    else self.ops.mul(c, v)}
        self.check_size(max(map(sum, zip(self.degrees(a), self.degrees(b)))),
                        at)
        if len(a) < len(b):
            a, b = b, a
        if len(b) > 1:
            return self.terms(_polynomial(self.field, a)
                              * _polynomial(self.field, b))
        if not b:
            return {}
        (d, c), = b.items()
        return self.shifted(a, d, c)

    def raised(self, terms: dict, e: int) -> dict:
        """terms ** e; a Polynomial power only for several terms."""
        if len(terms) > 1:
            return self.terms(_polynomial(self.field, terms) ** e)
        if not terms:
            return {} if e else {0: self.ops.one}
        (d, c), = terms.items()
        if c == self.t:
            c = ((0,) * e + (1,), (1,))
        elif c != self.ops.one:
            c = _rings.ring_pow(c, e, self.ops)
        return {d * e: c}

    # -- grammar ------------------------------------------------------------

    def expr(self) -> dict:
        value = self.term()
        tokens = self.tokens
        add, neg, nonzero = self.ops.add, self.ops.neg, self.ops.nonzero
        while True:
            op = tokens[self.i]
            if op != "+" and op != "-":
                return value
            self.i += 1
            for d, c in self.term().items():
                if op == "-":
                    c = neg(c)
                if d in value:
                    c = add(value[d], c)
                    if not nonzero(c):
                        del value[d]
                        continue
                value[d] = c

    def term(self) -> dict:
        value = self.unary()
        tokens = self.tokens
        while True:
            op = tokens[self.i]
            if op != "*" and op != "/":
                return value
            at = self.i = self.i + 1
            rhs = self.unary()
            if op == "*":
                value = self.product(value, rhs, at)
                continue
            if max(rhs, default=0) > 0:
                self.fail("divisor must be constant in x", at)
            if not rhs:
                self.fail(f"division by zero in {self.field.text()}", at,
                          FieldLiteralError)
            value = self.shifted(value, 0, self.ops.inverse(rhs[0]))

    def unary(self) -> dict:
        """'-' unary | atom ('^' NUMBER)*, with x^NUMBER and t^NUMBER built
        in one step."""
        tokens, i = self.tokens, self.i
        tok = tokens[i]
        self.i = i + 1
        if tok == "-":
            neg = self.ops.neg
            return {d: neg(c) for d, c in self.nested(self.unary, i).items()}
        if "0" <= tok < ":":
            c = self.ops.from_int(_int_value(tok))
            value = {0: c} if self.ops.nonzero(c) else {}
        elif tok == "x" or tok == "t":
            if tok == "t" and self.t is None:
                self.fail(f"t is not an element of {self.field.text()}", i,
                          FieldLiteralError)
            digits = tokens[i + 2] if tokens[i + 1] == "^" else ""
            if "0" <= digits < ":":
                e = _int_value(digits)
                self.check_size(e, i + 2)
                self.i = i + 3
                value = ({e: self.ops.one} if tok == "x"
                         else self.raised({0: self.t}, e))
            else:
                value = {1: self.ops.one} if tok == "x" else {0: self.t}
        elif tok == "(":
            value = self.group(i)
        else:
            self.fail(f"unexpected {tok!r}" if tok else
                      "unexpected end of input", i)
        while tokens[self.i] == "^":
            self.i += 1
            value = self.raised(value, self.exponent(value))
        return value

    def expect_end(self):
        tok = self.tokens[self.i]
        if tok:
            self.fail(f"unexpected {tok!r}", self.i)

    # -- factored form --------------------------------------------------------

    def factored(self) -> Factorization:
        ops = self.ops
        product = _Product(self.field)
        invert_next = False
        size = (0, 0)           # degrees in x and t of the whole product
        while True:
            start = self.i
            piece, mult, negate = self.factored_piece()
            size = tuple(s + d * mult for s, d in zip(size, self.degrees(piece)))
            self.check_size(max(size), start)
            if negate:
                product.unit = ops.neg(product.unit)
            if max(piece, default=0) < 1:
                c = _rings.ring_pow(piece.get(0, ops.from_int(0)), mult, ops)
                if invert_next:
                    if not ops.nonzero(c):
                        self.fail(f"division by zero in {self.field.text()}",
                                  start, FieldLiteralError)
                    c = ops.inverse(c)
                product.times(c)
            else:
                if invert_next:
                    self.fail("cannot divide by a nonconstant factor", start)
                product.group(piece, mult)
            sep = self.tokens[self.i]
            if not sep:
                break
            if sep != "*" and sep != "/":
                self.fail("factored input must be a '*'-separated product "
                          "of parenthesized groups", self.i)
            self.i += 1
            invert_next = sep == "/"
        if not ops.nonzero(product.unit):
            self.fail("unit of a factorization must be nonzero", self.i,
                      FieldLiteralError)
        return product.factorization()

    def factored_piece(self) -> tuple[dict, int, bool]:
        """One product item: a constant, or '(' expr ')' ['^' NUMBER].
        The sign of the whole item is returned separately so that it lands
        on the unit exactly once (- (x-1)^2 means -((x-1)^2))."""
        negate = False
        while self.tokens[self.i] == "-":
            self.i += 1
            negate = not negate
        at = self.i
        if self.tokens[at] == "(":
            self.i += 1
            value = self.group(at)
            mult = 1
            if self.tokens[self.i] == "^":
                self.i += 1
                mult = self.exponent(value)
            return value, mult, negate
        value = self.unary()            # an atom and its powers: no '-' here
        if max(value, default=0) > 0:
            self.fail("nonconstant factors must be parenthesized", at)
        return value, 1, negate


# -- the monomial scan ----------------------------------------------------------

# A literal of at most 600 digits, which int() reads in one call; the digits
# of a longer one are left to a match that cannot take them, so its text goes
# to the grammar.
_N = r"([0-9]{1,600})"
# One signed monomial of a plain sum and the whitespace after it: a
# coefficient (an integer, a quotient of two, a parenthesized t-sum or a
# power of t), alone or times a power of x; or a power of x alone.  Groups:
# sign, numerator, denominator, t-sum, t, t-exponent, '*x' with its
# exponent, the exponent of a lone x.
_MONOMIAL = re.compile(rf"""\s*(?:([+-])\s*)?(?:
    (?:{_N}(?:\s*/\s*{_N})?|\(([^()]*)\)|(t)(?:\s*\^\s*{_N})?)
    (\s*\*\s*x(?:\s*\^\s*{_N})?)?
  |x(?:\s*\^\s*{_N})?)\s*""", re.X)
# One signed monomial c*t^e of a t-sum.  Groups: sign, c, '*t' with its
# exponent, the exponent of a lone t.
_T_MONOMIAL = re.compile(rf"""\s*(?:([+-])\s*)?(?:
    {_N}(\s*\*\s*t(?:\s*\^\s*{_N})?)?|t(?:\s*\^\s*{_N})?)\s*""", re.X)
# The head of a factored piece: its sign, and an integer or a '('.
_PIECE = re.compile(rf"\s*(?:(-)\s*)?(?:{_N}|\()")
# What follows a factored piece: its exponent, then '*' or the end.
_TAIL = re.compile(rf"\s*(?:\^\s*{_N}\s*)?(\*|\Z)")


class _Scan:
    """The monomial-level reader of plain sums of signed monomials, and of
    factored products of integers and parenthesized such sums.  Each
    coefficient is built once, in the field's raw form.  A reader returns
    None on any other text, and on every text on which the grammar would
    raise or cap: a divisor or unit that is 0 in the field, a constant
    group, a '^0' on a piece, or a degree past MAX_DEGREE."""

    def __init__(self, field: FieldDescriptor):
        self.field = field
        self.ops = field.ops
        self.kind = field.kind
        self.p = field.p

    def number(self, num: str, den, sign):
        """The raw value of the signed literal num, or num/den; None for a
        divisor that is 0 in the field."""
        n = -int(num) if sign == "-" else int(num)
        if self.kind is FieldKind.RATIONALS:
            if den is None:
                return Fraction(n)
            d = int(den)
            return Fraction(n, d) if d else None
        p = self.p
        if den is not None:
            d = int(den) % p
            if not d:
                return None
            n *= pow(d, -1, p)
        n %= p
        if self.kind is FieldKind.PRIME_FIELD:
            return n
        return (n,) if n else (), (1,)

    def t_sum(self, text: str, sign):
        """The raw value of a signed sum of c*t^e, None off F_p(t)."""
        if self.kind is not FieldKind.RATIONAL_FUNCTION_FIELD:
            return None
        match = _T_MONOMIAL.match
        coeffs: dict[int, int] = {}
        pos = 0
        while True:
            m = match(text, pos)
            if m is None or (m[1] == "+" if not pos else m[1] is None):
                return None
            t_sign, c, times_t, t_exp, lone_exp = m.groups()
            if c is None:
                c, e = 1, int(lone_exp) if lone_exp else 1
            else:
                c = int(c)
                e = (int(t_exp) if t_exp else 1) if times_t else 0
            if e > MAX_DEGREE:
                return None
            if (t_sign == "-") != (sign == "-"):
                c = -c
            coeffs[e] = coeffs.get(e, 0) + c
            pos = m.end()
            if pos == len(text):
                break
        p = self.p
        dense = [0] * (max(coeffs) + 1)
        for e, c in coeffs.items():
            dense[e] = c % p
        return _rings.pstrip(dense), (1,)

    def t_power(self, t_exp, sign):
        """The raw value of the signed t^e, None off F_p(t)."""
        if self.kind is not FieldKind.RATIONAL_FUNCTION_FIELD:
            return None
        e = int(t_exp) if t_exp else 1
        if e > MAX_DEGREE:
            return None
        return (0,) * e + ((self.p - 1 if sign == "-" else 1),), (1,)

    def terms(self, text: str, pos: int):
        """(term map, end) of the signed monomials from `pos` on, end being
        the offset of the first text that does not continue the sum; None
        when no monomial is read or one is refused."""
        ops = self.ops
        add, nonzero = ops.add, ops.nonzero
        match = _MONOMIAL.match
        terms: dict = {}
        start = pos
        while True:
            m = match(text, pos)
            if m is None:
                break
            sign, num, den, t_sum, t, t_exp, times_x, x_exp, lone_exp = \
                m.groups()
            # a sum has no unary '+', and a sign between its monomials
            if (sign == "+") if pos == start else (sign is None):
                break
            if num is not None:
                c = self.number(num, den, sign)
            elif t_sum is not None:
                c = self.t_sum(t_sum, sign)
            elif t is not None:
                c = self.t_power(t_exp, sign)
            else:
                c = ops.neg(ops.one) if sign == "-" else ops.one
                times_x, x_exp = True, lone_exp
            if c is None:
                return None
            d = (int(x_exp) if x_exp else 1) if times_x else 0
            if d > MAX_DEGREE:
                return None
            pos = m.end()
            if d in terms:
                c = add(terms[d], c)
                if not nonzero(c):
                    del terms[d]
                    continue
            if nonzero(c):
                terms[d] = c
        return None if pos == start else (terms, pos)

    def polynomial(self, text: str):
        read = self.terms(text, 0)
        if read is None or read[1] != len(text):
            return None
        return _polynomial(self.field, read[0])

    def factored(self, text: str):
        ops = self.ops
        product = _Product(self.field)
        over_t = self.kind is FieldKind.RATIONAL_FUNCTION_FIELD
        size_x = size_t = 0        # degrees in x and t of the whole product
        pos = 0
        while True:
            m = _PIECE.match(text, pos)
            if m is None:
                return None
            minus, num = m.groups()
            pos = m.end()
            if num is None:
                read = self.terms(text, pos)
                if read is None:
                    return None
                terms, pos = read
                if text[pos:pos + 1] != ")" or max(terms, default=0) < 1:
                    return None
                pos += 1
            tail = _TAIL.match(text, pos)
            if tail is None:
                return None
            exp, star = tail.groups()
            mult = 1 if exp is None else int(exp)
            if not mult:
                return None
            if num is None:
                x_deg = max(terms)
                t_deg = max(len(c[0]) for c in terms.values()) - 1 if over_t \
                    else 0
                size_x += x_deg * mult
                size_t += t_deg * mult
                if max(size_x, size_t) > MAX_DEGREE:
                    return None
                product.group(terms, mult)
            else:
                c = self.number(num, None, None)
                if mult > MAX_DEGREE or not ops.nonzero(c):
                    return None
                product.times(_rings.ring_pow(c, mult, ops))
            if minus:
                product.unit = ops.neg(product.unit)
            if not star:
                return product.factorization()
            pos = tail.end()


def parse_polynomial(text: str, field: FieldDescriptor, factored: bool = False):
    """Parse to a Polynomial, or to a Factorization in factored mode: by
    the monomial scan where it takes the text, else by the grammar."""
    text = text.replace("−", "-")
    scan = _Scan(field)
    value = scan.factored(text) if factored else scan.polynomial(text)
    return _grammar(text, field, factored) if value is None else value


def _grammar(text: str, field: FieldDescriptor, factored: bool = False):
    """Parse by the grammar alone."""
    parser = _Parser(text, field)
    if not parser.tokens[0]:
        raise ParseError("empty input", 0)
    if factored:
        return parser.factored()
    terms = parser.expr()
    parser.expect_end()
    return _polynomial(field, terms)


# -- printing -----------------------------------------------------------------


def polynomial_text(f: Polynomial, var: str = "x") -> str:
    """Canonical, re-parseable text, highest degree first.  A coefficient's
    leading '-' becomes the joining sign, and a multi-term coefficient is
    parenthesized before its power of x."""
    ops = f.field.ops
    terms = []
    for i in range(len(f.raw) - 1, -1, -1):
        if not ops.nonzero(f.raw[i]):
            continue
        body = ops.text(f.raw[i])
        sign = "-" if body.startswith("-") else "+"
        body = body.removeprefix("-")
        if i:
            xp = var if i == 1 else f"{var}^{i}"
            if " " in body and not body.startswith("("):
                body = f"({body})"
            body = xp if body == "1" else f"{body}*{xp}"
        terms.append(f" {sign} {body}")
    text = "".join(terms)                   # " - 2*x^2 + 3"
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def factorization_text(fac: Factorization) -> str:
    """Canonical factored form `unit * (g1)^m1 * ...`."""
    pieces = []
    if not fac.factors or not fac.unit.is_one():
        text = polynomial_text(Polynomial.constant(fac.field, fac.unit))
        if " " in text:
            text = f"({text})"
        pieces.append(text)
    for g, m in fac.factors:
        body = f"({polynomial_text(g)})"
        pieces.append(body if m == 1 else f"{body}^{m}")
    return " * ".join(pieces)
