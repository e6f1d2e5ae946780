"""Expression parsing and canonical printing.

Grammar (whitespace-insensitive, U+2212 accepted for '-'):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' NUMBER)*
    atom   := NUMBER | 'x' | 't' | '(' expr ')'

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

from . import _rings
from .errors import FieldLiteralError, InputTooLargeError, ParseError
from .factor import Factorization
from .field import FieldDescriptor, FieldKind
from .poly import Polynomial

_OPS = set("+-*/^()")

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


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self):
        return f"_Token({self.kind}, {self.text!r}, {self.pos})"


def _tokenize(text: str) -> list[_Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("NUMBER", text[i:j], i))
            i = j
            continue
        if ch in ("x", "t"):
            out.append(_Token("NAME", ch, i))
            i += 1
            continue
        if ch in _OPS:
            out.append(_Token("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("END", "", n))
    return out


class _Parser:
    """Recursive descent over the tokens.  Every grammar method returns a
    term map ``{x-degree: nonzero raw value}`` that no other value shares,
    so a sum may merge into its left operand in place."""

    def __init__(self, text: str, field: FieldDescriptor):
        self.field = field
        self.ops = field.ops
        # F_p(t)'s t, whose powers are built directly
        self.t = (field.t().value
                  if field.kind is FieldKind.RATIONAL_FUNCTION_FIELD else None)
        self.tokens = _tokenize(text.replace("−", "-"))
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept_op(self, *ops: str):
        tok = self.peek()
        if tok.kind == "OP" and tok.text in ops:
            return self.advance()
        return None

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.pos)

    def nested(self, parse):
        """parse() one level deeper, just past a '(' or a unary '-'."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             self.tokens[self.i - 1].pos)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def exponent(self, base: dict) -> int:
        """The NUMBER after a '^' that raises `base`, refused when the
        exponent or the power's degree would pass MAX_DEGREE."""
        num = self.peek()
        if num.kind != "NUMBER":
            self.fail("exponent must be a nonnegative integer literal")
        self.advance()
        e = _int_value(num.text)
        self.check_size(max(1, *self.degrees(base)) * e, num.pos)
        return e

    def check_size(self, size: int, pos: int) -> None:
        if size > MAX_DEGREE:
            raise InputTooLargeError(
                f"exponent or degree above the cap of {MAX_DEGREE}", pos)

    def group(self) -> dict:
        """'(' expr ')', the '(' being the next token."""
        self.advance()
        value = self.nested(self.expr)
        if not self.accept_op(")"):
            self.fail("expected ')'")
        return value

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

    def product(self, a: dict, b: dict) -> dict:
        """a * b; a Polynomial product only when both have several terms."""
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
        add, neg, nonzero = self.ops.add, self.ops.neg, self.ops.nonzero
        while True:
            tok = self.accept_op("+", "-")
            if tok is None:
                return value
            minus = tok.text == "-"
            for d, c in self.term().items():
                if minus:
                    c = neg(c)
                if d in value:
                    c = add(value[d], c)
                    if not nonzero(c):
                        del value[d]
                        continue
                value[d] = c

    def term(self) -> dict:
        value = self.unary()
        while True:
            tok = self.accept_op("*", "/")
            if tok is None:
                return value
            rhs_pos = self.peek().pos
            rhs = self.unary()
            if tok.text == "*":
                self.check_size(max(map(sum, zip(self.degrees(value),
                                                 self.degrees(rhs)))), rhs_pos)
                value = self.product(value, rhs)
                continue
            if max(rhs, default=0) > 0:
                raise ParseError("divisor must be constant in x", rhs_pos)
            if not rhs:
                raise FieldLiteralError(
                    f"division by zero in {self.field.text()}", rhs_pos)
            value = self.shifted(value, 0, self.ops.inverse(rhs[0]))

    def unary(self) -> dict:
        if self.accept_op("-"):
            neg = self.ops.neg
            return {d: neg(c) for d, c in self.nested(self.unary).items()}
        return self.power()

    def power(self) -> dict:
        value = self.atom()
        while self.accept_op("^"):
            value = self.raised(value, self.exponent(value))
        return value

    def atom(self) -> dict:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            c = self.ops.from_int(_int_value(tok.text))
            return {0: c} if self.ops.nonzero(c) else {}
        if tok.kind == "NAME":
            self.advance()
            if tok.text == "x":
                return {1: self.ops.one}
            if self.t is None:
                raise FieldLiteralError(
                    f"t is not an element of {self.field.text()}", tok.pos)
            return {0: self.t}
        if tok.kind == "OP" and tok.text == "(":
            return self.group()
        self.fail(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input")

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)

    # -- factored form --------------------------------------------------------

    def factored(self) -> Factorization:
        unit = self.field.one()
        factors: list[tuple[Polynomial, int]] = []
        invert_next = False
        size = (0, 0)           # degrees in x and t of the whole product
        while True:
            start = self.peek().pos
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
                        raise FieldLiteralError(
                            f"division by zero in {self.field.text()}", start)
                    c = c.inverse()
                unit = unit * c
            else:
                if invert_next:
                    raise ParseError("cannot divide by a nonconstant factor",
                                     start)
                unit = unit * piece.leading_coefficient() ** mult
                if mult > 0:
                    monic = piece.monic()
                    for k, (g, m) in enumerate(factors):
                        if g == monic:
                            factors[k] = (g, m + mult)
                            break
                    else:
                        factors.append((monic, mult))
            tok = self.peek()
            if tok.kind == "END":
                break
            sep = self.accept_op("*", "/")
            if sep is None:
                raise ParseError("factored input must be a '*'-separated "
                                 "product of parenthesized groups", tok.pos)
            invert_next = sep.text == "/"
        if not unit:
            raise FieldLiteralError("unit of a factorization must be nonzero",
                                    self.peek().pos)
        return Factorization(unit, tuple(factors))

    def factored_piece(self) -> tuple[dict, int, bool]:
        """One product item: a constant, or '(' expr ')' ['^' NUMBER].
        The sign of the whole item is returned separately so that it lands
        on the unit exactly once (- (x-1)^2 means -((x-1)^2))."""
        negate = False
        while self.accept_op("-"):
            negate = not negate
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "(":
            value = self.group()
            mult = 1
            if self.accept_op("^"):
                mult = self.exponent(value)
            return value, mult, negate
        value = self.power()
        if max(value, default=0) > 0:
            raise ParseError("nonconstant factors must be parenthesized",
                             tok.pos)
        return value, 1, negate


def parse_polynomial(text: str, field: FieldDescriptor, factored: bool = False):
    """Parse to a Polynomial, or to a Factorization in factored mode."""
    parser = _Parser(text, field)
    if parser.peek().kind == "END":
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
