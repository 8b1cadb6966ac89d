"""Text grammar for exact values, used by the CLI and serialisation.

    expr   := rational | expr (+|-|*|/) expr | sqrt(expr)
            | root(poly, index) | (expr)
    poly   := comma-separated ascending integer coefficients
    index  := 0-based position in the ascending list of real roots

Rationals are written p/q or as plain integers, whose digits are ASCII
0-9.  Every AlgReal serialises back into this grammar (rationals as p/q,
irrationals as root(...)), so values round-trip exactly.
"""

import re
from fractions import Fraction

from . import algebraic, polys
from .algebraic import AlgReal
from .errors import BoundExceededError, ParseError, brief, read_int

#: deepest nesting of "(", "sqrt(" and unary "-" that parse() accepts; it
#: keeps the recursive descent far from Python's recursion limit
_MAX_DEPTH = 100

#: an integer literal is ASCII digits: \d would also take the digits of
#: other scripts, which int() reads
_TOKEN = re.compile(r"\s*(sqrt|root|[0-9]+|[()+\-*/,])")


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character at {pos!r}: {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of expression")
        self.i += 1
        return t

    def expect(self, tok):
        t = self.next()
        if t != tok:
            raise ParseError(f"expected {tok!r}, got {t!r}")

    def parse_expr(self):
        v = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.parse_term()
            v = algebraic.add(v, rhs) if op == "+" else algebraic.sub(v, rhs)
        return v

    def parse_term(self):
        v = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.next()
            rhs = self.parse_factor()
            v = algebraic.mul(v, rhs) if op == "*" else algebraic.div(v, rhs)
        return v

    def parse_factor(self):
        t = self.peek()
        if t in ("-", "(", "sqrt"):
            if self.depth == _MAX_DEPTH:
                raise BoundExceededError(
                    f"expression nested deeper than {_MAX_DEPTH} levels")
            self.depth += 1
            self.next()
            if t == "-":
                v = algebraic.neg(self.parse_factor())
            elif t == "(":
                v = self.parse_expr()
                self.expect(")")
            else:
                self.expect("(")
                v = self.parse_expr()
                self.expect(")")
                v = algebraic.sqrt_nonneg(v)
            self.depth -= 1
            return v
        if t == "root":
            self.next()
            self.expect("(")
            coeffs = [self.parse_int()]
            while self.peek() == ",":
                self.next()
                coeffs.append(self.parse_int())
            self.expect(")")
            if len(coeffs) < 2:
                raise ParseError("root() needs coefficients and an index")
            index = coeffs.pop()
            return AlgReal.from_root(coeffs, index)
        if t is not None and t.isdigit():
            return AlgReal(Fraction(self.parse_int()))
        # at the end of the input, next() raises its own message
        raise ParseError(f"unexpected token {self.next()!r}")

    def parse_int(self):
        sign = 1
        while self.peek() == "-":
            self.next()
            sign = -sign
        t = self.next()
        if not t.isdigit():
            raise ParseError(f"expected integer, got {t!r}")
        return sign * read_int(t)


def parse(text):
    """Parse an expression string into an exact AlgReal."""
    p = _Parser(_tokenize(text))
    v = p.parse_expr()
    if p.peek() is not None:
        raise ParseError(f"trailing input: {p.tokens[p.i:]}")
    return v


def from_json(value):
    """An exact value from a JSON entry: an expression string or an integer."""
    if isinstance(value, str):
        return parse(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return AlgReal(value)
    raise ParseError(f"expected an expression string or an integer, got {brief(value)}")


def _digits(n):
    """str(n); BoundExceededError past Python's limit on the digits of an
    int converted to a string."""
    try:
        return str(n)
    except ValueError:
        raise BoundExceededError(
            f"an integer of {n.bit_length()} bits is too long to print") from None


def to_expr(value):
    """Serialise an AlgReal into the grammar (round-trips through parse)."""
    value = algebraic.as_algreal(value)
    if value.is_rational:
        r = value.as_rational()
        num = _digits(r.numerator)
        return num if r.denominator == 1 else f"{num}/{_digits(r.denominator)}"
    # the roots of the (squarefree) minimal polynomial below the value are
    # those in (-B, lo], lo being the isolating interval's lower end
    p = value.min_poly
    index = polys.count_roots_halfopen(p, -polys.root_bound(p), value.interval[0])
    coeffs = ",".join(_digits(c) for c in p)
    return f"root({coeffs},{index})"
