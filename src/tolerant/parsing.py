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

Cost model: every intermediate value is a sparse term map
``{x-degree: nonzero raw field value}``, turned into a ``Polynomial`` once per
input (once per group in factored mode).  A sum merges maps term by term, a
unary minus negates the entries, a product or quotient with a one-term side
shifts and scales the other map, and ``x^e`` and ``t^e`` are built directly,
so parsing is linear in the number of terms.  Only a product of two
multi-term values, or a power of a multi-term value, runs ``Polynomial``
arithmetic, whose product is the field's ``u_ring.mul``.
"""

from __future__ import annotations

import re
from itertools import islice

from . import _rings
from .errors import FieldLiteralError, InputTooLargeError, ParseError
from .factor import Factorization
from .field import FieldDescriptor, FieldKind
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

    def polynomial(self, terms: dict) -> Polynomial:
        raw = [self.ops.from_int(0)] * (max(terms, default=-1) + 1)
        for d, c in terms.items():
            raw[d] = c
        return Polynomial.from_raw(self.field, raw)

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
            return {d + k: self.ops.mul(c, v)}
        self.check_size(max(map(sum, zip(self.degrees(a), self.degrees(b)))),
                        at)
        if len(a) < len(b):
            a, b = b, a
        if len(b) > 1:
            return self.terms(self.polynomial(a) * self.polynomial(b))
        if not b:
            return {}
        (d, c), = b.items()
        return self.shifted(a, d, c)

    def raised(self, terms: dict, e: int) -> dict:
        """terms ** e; a Polynomial power only for several terms."""
        if len(terms) > 1:
            return self.terms(self.polynomial(terms) ** e)
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
        unit = self.field.one()
        factors: list[tuple[Polynomial, int]] = []
        invert_next = False
        size = (0, 0)           # degrees in x and t of the whole product
        while True:
            start = self.i
            piece, mult, negate = self.factored_piece()
            size = tuple(s + d * mult for s, d in zip(size, self.degrees(piece)))
            self.check_size(max(size), start)
            piece = self.polynomial(piece)
            if negate:
                unit = -unit
            if piece.degree < 1:
                c = piece.constant_term() ** mult
                if invert_next:
                    if not c:
                        self.fail(f"division by zero in {self.field.text()}",
                                  start, FieldLiteralError)
                    c = c.inverse()
                unit = unit * c
            else:
                if invert_next:
                    self.fail("cannot divide by a nonconstant factor", start)
                unit = unit * piece.leading_coefficient() ** mult
                if mult > 0:
                    monic = piece.monic()
                    for k, (g, m) in enumerate(factors):
                        if g == monic:
                            factors[k] = (g, m + mult)
                            break
                    else:
                        factors.append((monic, mult))
            sep = self.tokens[self.i]
            if not sep:
                break
            if sep != "*" and sep != "/":
                self.fail("factored input must be a '*'-separated product "
                          "of parenthesized groups", self.i)
            self.i += 1
            invert_next = sep == "/"
        if not unit:
            self.fail("unit of a factorization must be nonzero", self.i,
                      FieldLiteralError)
        return Factorization(unit, tuple(factors))

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


def parse_polynomial(text: str, field: FieldDescriptor, factored: bool = False):
    """Parse to a Polynomial, or to a Factorization in factored mode."""
    parser = _Parser(text, field)
    if not parser.tokens[0]:
        raise ParseError("empty input", 0)
    if factored:
        return parser.factored()
    terms = parser.expr()
    parser.expect_end()
    return parser.polynomial(terms)


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
