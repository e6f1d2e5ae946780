"""Expression parsing and canonical printing.

Grammar (whitespace-insensitive, U+2212 accepted for '-'):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' NUMBER)*
    atom   := NUMBER | 'x' | 't' | '(' expr ')'

Exponents are nonnegative integer literals.  '/' forms coefficients: the
divisor must be constant in x and nonzero in the target field (so `1/2`
over F_2 is rejected as a field-literal error, not a syntax error).  The
variable t only exists over F_p(t).

Factored mode accepts `unit * (g1)^m1 * (g2)^m2 * ...`: any number of
'*'-separated constant pieces and parenthesized nonconstant groups; groups
are normalized monic with their leading coefficients folded into the unit,
and textually repeated groups have their multiplicities merged.
"""

from __future__ import annotations

from .errors import FieldLiteralError, ParseError
from .factor import Factorization
from .field import FieldDescriptor, FieldKind
from .poly import Polynomial

_OPS = set("+-*/^()")

# Each '(' and each unary '-' opens one level of recursion in the parser;
# deeper input is refused before it can exhaust the interpreter's stack.
MAX_NESTING = 64


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
    def __init__(self, text: str, field: FieldDescriptor):
        self.field = field
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

    def group(self) -> Polynomial:
        """'(' expr ')', the '(' being the next token."""
        self.advance()
        value = self.nested(self.expr)
        if not self.accept_op(")"):
            self.fail("expected ')'")
        return value

    # -- grammar ------------------------------------------------------------

    def expr(self) -> Polynomial:
        value = self.term()
        while True:
            tok = self.accept_op("+", "-")
            if tok is None:
                return value
            rhs = self.term()
            value = value + rhs if tok.text == "+" else value - rhs

    def term(self) -> Polynomial:
        value = self.unary()
        while True:
            tok = self.accept_op("*", "/")
            if tok is None:
                return value
            rhs_pos = self.peek().pos
            rhs = self.unary()
            if tok.text == "*":
                value = value * rhs
                continue
            if rhs.degree > 0:
                raise ParseError("divisor must be constant in x", rhs_pos)
            c = rhs.constant_term()
            if not c:
                raise FieldLiteralError(
                    f"division by zero in {self.field.text()}", rhs_pos)
            value = value.scale(c.inverse())

    def unary(self) -> Polynomial:
        if self.accept_op("-"):
            return -self.nested(self.unary)
        return self.power()

    def power(self) -> Polynomial:
        value = self.atom()
        while True:
            tok = self.accept_op("^")
            if tok is None:
                return value
            num = self.peek()
            if num.kind != "NUMBER":
                self.fail("exponent must be a nonnegative integer literal")
            self.advance()
            value = value ** int(num.text)

    def atom(self) -> Polynomial:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Polynomial.constant(self.field, int(tok.text))
        if tok.kind == "NAME":
            self.advance()
            if tok.text == "x":
                return Polynomial.x(self.field)
            if self.field.kind is not FieldKind.RATIONAL_FUNCTION_FIELD:
                raise FieldLiteralError(
                    f"t is not an element of {self.field.text()}", tok.pos)
            return Polynomial.constant(self.field, self.field.t())
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
        while True:
            start = self.peek().pos
            piece, mult, negate = self.factored_piece()
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

    def factored_piece(self) -> tuple[Polynomial, int, bool]:
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
                num = self.peek()
                if num.kind != "NUMBER":
                    self.fail("exponent must be a nonnegative integer literal")
                self.advance()
                mult = int(num.text)
            return value, mult, negate
        value = self.power()
        if value.degree > 0:
            raise ParseError("nonconstant factors must be parenthesized",
                             tok.pos)
        return value, 1, negate


def parse_polynomial(text: str, field: FieldDescriptor, factored: bool = False):
    """Parse to a Polynomial, or to a Factorization in factored mode."""
    parser = _Parser(text, field)
    if parser.peek().kind == "END":
        raise ParseError("empty input", 0)
    if factored:
        result = parser.factored()
    else:
        result = parser.expr()
        parser.expect_end()
    return result


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
