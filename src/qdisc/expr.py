"""Expression parsing for the command line.

The grammar covers integers, the symbols ``z``, ``zs`` (the adjoint
generator), ``q``, ``s``, and the operators ``+ - * / ^`` with parentheses.
Products are kept in written order and normal-ordered only at evaluation;
division is by scalars only (it exists so the canonical coefficient
strings, which are reduced fractions in ``s``, read back in).  Integers
and exponents are literals in the ASCII digits 0-9, exponents
nonnegative.  A power of one term c, c z^j or c zs^k is written down in
closed form; any other base is multiplied out.  Sums and products of any
length evaluate without recursion; parentheses and unary minus may nest
at most ``MAX_NESTING`` levels deep.
"""

from __future__ import annotations

import operator

from .qpoly import NCPoly, nc_mul
from .scalar import QScalar

# Each level of nesting costs the recursive-descent parser up to five
# frames; this bound keeps a parse inside the interpreter's default
# recursion limit of 1000.
MAX_NESTING = 150


class ParseError(ValueError):
    """Syntax error; carries the offending position in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ValueError):
    """The expression parsed but does not denote an algebra element."""


_SYMBOLS = ("zs", "z", "q", "s")
_OPS = "+-*/^()"
# str.isdigit also takes superscripts and other scripts' digits, which int() rejects or reads
_DIGITS = "0123456789"


def tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word not in _SYMBOLS:
                raise ParseError(f"unknown symbol {word!r}", i)
            tokens.append(("sym", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nest(self, tok) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", tok[2])

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            found = "end of input" if tok[0] == "end" else repr(tok[1])
            raise ParseError(f"expected {kind!r}, found {found}", tok[2])
        return tok

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.parse_term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def parse_term(self):
        node = self.parse_factor()
        while self.peek()[0] in ("*", "/"):
            op = self.take()[0]
            rhs = self.parse_factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def parse_factor(self):
        if self.peek()[0] == "-":
            self.nest(self.take())
            node = ("neg", self.parse_factor())
            self.depth -= 1
            return node
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.peek()
            if tok[0] == "-":
                raise ParseError("exponents must be nonnegative integers", tok[2])
            tok = self.expect("int")
            return ("pow", base, tok[1])
        return base

    def parse_atom(self):
        tok = self.take()
        if tok[0] == "int":
            return ("int", tok[1])
        if tok[0] == "sym":
            return ("sym", tok[1])
        if tok[0] == "(":
            self.nest(tok)
            node = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return node
        if tok[0] == "end":
            raise ParseError("unexpected end of input", tok[2])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])


def parse(text: str):
    """Parse to an AST of nested tuples; evaluation is separate."""
    p = _Parser(text)
    node = p.parse_expr()
    end = p.take()
    if end[0] != "end":
        raise ParseError(f"trailing input {end[1]!r}", end[2])
    return node


_SYM_VALUES = {
    "z": lambda: NCPoly.monomial(1, 0),
    "zs": lambda: NCPoly.monomial(0, 1),
    "q": lambda: NCPoly.scalar(QScalar.q_power(1)),
    "s": lambda: NCPoly.scalar(QScalar.s_power(1)),
}


def _as_scalar(f: NCPoly, what: str) -> QScalar:
    if any(key != (0, 0) for key in f.terms):
        raise EvalError(f"{what} must be a scalar, got {f}")
    return f.coefficient(0, 0)


def _divide(f: NCPoly, g: NCPoly) -> NCPoly:
    denom = _as_scalar(g, "divisor")
    if denom.is_zero():
        raise EvalError("division by zero")
    return f.scale(QScalar.from_int(1) / denom)


_BINARY = {"add": operator.add, "sub": operator.sub, "mul": nc_mul, "div": _divide}


def to_ncpoly(node) -> NCPoly:
    """Evaluate an AST in the quantum disc algebra, products in written order."""
    kind = node[0]
    if kind == "int":
        return NCPoly.scalar(QScalar.from_int(node[1]))
    if kind == "sym":
        return _SYM_VALUES[node[1]]()
    if kind in _BINARY:
        # the parser nests a chain such as z + z + ... + z to the left:
        # walk down it and fold back up, so its length costs no recursion
        chain = []
        while node[0] in _BINARY:
            chain.append(node)
            node = node[1]
        out = to_ncpoly(node)
        for op, _, rhs in reversed(chain):
            out = _BINARY[op](out, to_ncpoly(rhs))
        return out
    if kind == "neg":
        return -to_ncpoly(node[1])
    if kind == "pow":
        base, n = to_ncpoly(node[1]), node[2]
        if len(base.terms) == 1:
            ((j, k), c), = base.terms.items()
            if not (j and k):  # c z^j or c zs^k: its powers commute
                return NCPoly({(j * n, k * n): c**n})
        out = NCPoly.one()
        for _ in range(n):
            out = nc_mul(out, base)
        return out
    raise EvalError(f"malformed AST node {node!r}")


def parse_ncpoly(text: str) -> NCPoly:
    return to_ncpoly(parse(text))


def parse_scalar(text: str) -> QScalar:
    return _as_scalar(parse_ncpoly(text), "expression")
