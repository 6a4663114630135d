import math

import pytest

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
    for bad in ("", "x+", "(x", "x)", "foo(x)", "1 2", "x**2", "y"):
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
