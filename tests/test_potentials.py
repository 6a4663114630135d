import math
import operator
import struct

import pytest
from hypothesis import given, settings, strategies as st

from toruszeta.potentials import MAX_DEPTH, PotentialParseError, parse_potential


def test_constants():
    assert parse_potential("0")(0.3) == 0.0
    assert parse_potential("4")(0.7) == 4.0
    assert parse_potential("2.5e-1")(0.0) == 0.25


def test_variable_and_arithmetic():
    f = parse_potential("x*(1-x)")
    assert abs(f(0.25) - 0.1875) < 1e-15
    g = parse_potential("1+2*x-x/2")
    assert abs(g(1.0) - 2.5) < 1e-15
    for padded in ("x*(1-x) ", " x*(1-x)\n", "x*(1-x)\t\n "):  # surrounding whitespace
        assert parse_potential(padded)(0.25) == f(0.25)


def test_unary_minus_and_parens():
    f = parse_potential("-(x-1)*(x+1)")
    assert abs(f(0.5) - 0.75) < 1e-15
    assert parse_potential("--3")(0.0) == 3.0


def test_functions():
    f = parse_potential("sin(x)+cos(x)*exp(-x)")
    x = 0.4
    assert abs(f(x) - (math.sin(x) + math.cos(x) * math.exp(-x))) < 1e-15


def test_precedence():
    assert parse_potential("1+2*3")(0.0) == 7.0
    assert parse_potential("(1+2)*3")(0.0) == 9.0
    assert parse_potential("8/4/2")(0.0) == 1.0  # left associative


def test_parse_errors():
    for bad in ("", "x+", "(x", "x)", "foo(x)", "1 2", "x**2", "y",
                # Python spellings outside the grammar
                "0x10", "1_0", "1j", "True", "None", "x.real", "x//2", "x%2", "not x",
                "x<1", "x if x else x", "sin(x,x)", "sin(x=1)", "[x]", "lambda: 1",
                "__import__('os')", "sin", "(x)(x)", "1 (x)", "x # c",
                # refused at its root, although the tree below is too deep to unparse
                "not " + "+".join(["x"] * 900)):
        with pytest.raises(PotentialParseError):
            parse_potential(bad)


def test_depth_limit():
    nested = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
    assert parse_potential(nested)(0.25) == 0.25
    chain = "+".join(["x"] * MAX_DEPTH)  # MAX_DEPTH - 1 sums above a leaf
    assert parse_potential(chain)(0.5) == MAX_DEPTH / 2
    assert parse_potential("-" * 3001 + "x")(0.5) == -0.5  # a sign run is one node
    for bad in ("(" + nested + ")", chain + "+x+x"):
        with pytest.raises(PotentialParseError, match="nests deeper than"):
            parse_potential(bad)


# Random potentials from the grammar, checked bit for bit against a direct
# evaluation of the tree they were drawn from.  Numbers are read by float(),
# so "007" is 7.0, "1e400" and 400 ones are inf, and 2^53 + 1 rounds to 2^53.
_NUMBERS = ["0", "3", "12", "007", "5.", ".5", "2.5e-1", "1E+2", "1e400",
            "9007199254740993", "1" * 400]
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_UNARY = {"neg": operator.neg, "sin": math.sin, "cos": math.cos, "exp": math.exp}
_SPACE = st.sampled_from(["", "", " ", "  ", "\n", "\t"])
_NEGATE = st.sampled_from(["-", "+-", "-+", "---", "+-+-+-"])  # an odd count of minus signs
_KEEP = st.sampled_from(["", "", "+", "--", "-+-", "+--+"])  # an even count


def _trees(depth):
    leaf = st.sampled_from(["x", *_NUMBERS])
    if not depth:
        return leaf
    sub = _trees(depth - 1)
    return st.one_of(leaf, st.tuples(st.sampled_from(sorted(_BINARY)), sub, sub),
                     st.tuples(st.sampled_from(sorted(_UNARY)), sub))


def _binding(node):
    """1 for + and -, 2 for * and /, 3 for a leaf, a sign or a call."""
    if isinstance(node, str) or len(node) == 2:
        return 3
    return 1 if node[0] in "+-" else 2


def _render(draw, node, least):
    """node's text in an operand position that binds at least as tightly as least."""
    if isinstance(node, str):
        text = node
    elif len(node) == 3:
        op, left, right = node
        b = _binding(node)
        text = (_render(draw, left, b) + draw(_SPACE) + op + draw(_SPACE)
                + _render(draw, right, b + 1))
    elif node[0] == "neg":
        text = draw(_NEGATE) + draw(_SPACE) + _render(draw, node[1], 3)
    else:
        text = node[0] + draw(_SPACE) + "(" + _render(draw, node[1], 0) + ")"
    if _binding(node) < least or draw(st.booleans()):
        text = "(" + draw(_SPACE) + text + draw(_SPACE) + ")"
    return draw(_KEEP) + text


def _evaluate(node, x):
    if node == "x":
        return x
    if isinstance(node, str):
        return float(node)
    op, *args = node
    values = [_evaluate(arg, x) for arg in args]
    return (_BINARY if len(args) == 2 else _UNARY)[op](*values)


def _outcome(f, x):
    try:
        return struct.pack("<d", f(x))
    except (ArithmeticError, ValueError) as exc:  # 1/0, exp(1000), sin(inf)
        return type(exc)


@st.composite
def _potentials(draw):
    tree = draw(_trees(5))
    return tree, draw(_SPACE) + _render(draw, tree, 0) + draw(_SPACE)


@settings(max_examples=300, deadline=None)
@given(_potentials())
def test_parse_matches_the_tree_bit_for_bit(drawn):
    tree, text = drawn
    f = parse_potential(text)
    for x in (0.0, 0.37, 1.0):
        assert _outcome(f, x) == _outcome(lambda x: _evaluate(tree, x), x), text
