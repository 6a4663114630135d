"""Tiny recursive-descent parser for potential expressions on [0, 1].

Grammar: numbers, the variable x, + - * /, parentheses and the functions
sin, cos, exp.  Compiles to a plain float -> float callable; expressions
nested deeper than MAX_DEPTH are rejected.
"""

from __future__ import annotations

import math
import re
from typing import Callable


class PotentialParseError(ValueError):
    """The potential expression is not valid under the supported grammar."""


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[()+\-*/]))"
)

_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
}

Expr = Callable[[float], float]
Node = tuple[Expr, int]  # a compiled callable and the depth of its tree

# Deepest compiled tree, and deepest bracket nesting, that is accepted.
# Parsing takes five Python frames per bracket level and evaluation one per
# tree level, so accepted input stays well inside the default recursion limit.
MAX_DEPTH = 100

_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise PotentialParseError(f"unexpected character {text[pos]!r} at {pos}")
        tokens.append(m.group(m.lastgroup))
        pos = m.end()
    tokens.append("<eof>")
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def take(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.take() != tok:
            raise PotentialParseError(f"expected {tok!r} near token {self.pos}")

    @staticmethod
    def node(fn: Expr, *children: Node) -> Node:
        depth = 1 + max((d for _, d in children), default=0)
        if depth > MAX_DEPTH:
            raise PotentialParseError(_TOO_DEEP)
        return fn, depth

    def expression(self) -> Node:
        node = self.term()
        while self.peek() in "+-":
            op = self.take()
            rhs = self.term()
            a, b = node[0], rhs[0]
            if op == "+":
                node = self.node(lambda x, a=a, b=b: a(x) + b(x), node, rhs)
            else:
                node = self.node(lambda x, a=a, b=b: a(x) - b(x), node, rhs)
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek() in "*/":
            op = self.take()
            rhs = self.unary()
            a, b = node[0], rhs[0]
            if op == "*":
                node = self.node(lambda x, a=a, b=b: a(x) * b(x), node, rhs)
            else:
                node = self.node(lambda x, a=a, b=b: a(x) / b(x), node, rhs)
        return node

    def unary(self) -> Node:
        # a run of signs is read in a loop, so its length costs no recursion
        negate = False
        while self.peek() in ("-", "+"):
            negate ^= self.take() == "-"
        node = self.primary()
        if negate:
            a = node[0]
            return self.node(lambda x, a=a: -a(x), node)
        return node

    def bracketed(self) -> Node:
        """The expression after an opening bracket, up to its closing one."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise PotentialParseError(_TOO_DEEP)
        node = self.expression()
        self.expect(")")
        self.nesting -= 1
        return node

    def primary(self) -> Node:
        tok = self.take()
        if tok == "(":
            return self.bracketed()
        if tok == "x":
            return self.node(lambda x: x)
        if tok in _FUNCTIONS:
            fn = _FUNCTIONS[tok]
            self.expect("(")
            inner = self.bracketed()
            a = inner[0]
            return self.node(lambda x, a=a, f=fn: f(a(x)), inner)
        try:
            value = float(tok)
        except ValueError:
            raise PotentialParseError(f"unknown name or token {tok!r}") from None
        return self.node(lambda x, v=value: v)


def parse_potential(text: str) -> Expr:
    """Compile a potential expression like "x*(1-x)" or "4" to a callable."""
    if not text.strip():
        raise PotentialParseError("empty potential expression")
    parser = _Parser(_tokenize(text))
    node, _ = parser.expression()
    if parser.peek() != "<eof>":
        raise PotentialParseError(f"trailing input from token {parser.pos}")
    return node
