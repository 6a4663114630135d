"""Potential expressions on [0, 1]: numbers, x, + - * /, brackets and sin, cos,
exp, parsed by Python's `ast` under an allow-list and compiled to one function."""

import ast
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

_FUNCTIONS: dict[str, Callable[[float], float]] = {"sin": math.sin, "cos": math.cos, "exp": math.exp}

# Deepest expression tree, and deepest bracket nesting, that is accepted.  The
# check walks at most MAX_DEPTH tree levels; the compiled function is one frame.
MAX_DEPTH = 100

_TOO_DEEP = f"expression nests deeper than {MAX_DEPTH} levels"


def _python_source(text: str) -> str:
    """The potential spelt as Python, one _TOKEN token at a time.

    Signs where an operand is due fold into one minus or none, so a long run
    costs the Python parser no recursion.  Each number is spelt as the repr of
    its float(), so Python reads the same double and never an exact integer.
    Bracket nesting is counted here, since brackets leave no node in the tree.
    """
    out: list[str] = []
    pos = nesting = 0
    operand_next, negate = True, False
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise PotentialParseError(f"unexpected character {text[pos]!r} at {pos}")
        pos, tok = m.end(), m.group(m.lastgroup)
        if operand_next and tok in ("+", "-"):
            negate ^= tok == "-"
            continue
        if negate:
            out.append("-")
            negate = False
        if m.lastgroup == "num":
            tok = repr(float(tok)).replace("inf", "1e999")
        nesting += (tok == "(") - (tok == ")")
        if nesting > MAX_DEPTH:
            raise PotentialParseError(_TOO_DEEP)
        out.append(tok)
        operand_next = tok in ("(", "+", "-", "*", "/")
    return " ".join(out)


def _check(node: ast.expr, source: str, level: int = 1) -> None:
    """Refuse a node outside the grammar, or a level deeper than MAX_DEPTH."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
        children = [node.left, node.right]
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        children = [node.operand]
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords):
        children = node.args
    elif (isinstance(node, ast.Name) and node.id == "x"
          or isinstance(node, ast.Constant) and type(node.value) is float):
        children = []
    else:  # the source text, since ast.unparse recurses through the whole node
        shown = ast.get_source_segment(source, node)
        raise PotentialParseError(f"not in the potential grammar: {shown!r}")
    if level > MAX_DEPTH:
        raise PotentialParseError(_TOO_DEEP)
    for child in children:
        _check(child, source, level + 1)


def parse_potential(text: str) -> Callable[[float], float]:
    """Compile a potential expression like "x*(1-x)" or "4" to a callable."""
    if not text.strip():
        raise PotentialParseError("empty potential expression")
    source = "lambda x: " + _python_source(text)
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise PotentialParseError(f"invalid potential expression: {exc.msg}") from None
    except (RecursionError, MemoryError):  # a chain of thousands of operators
        raise PotentialParseError(_TOO_DEEP) from None
    _check(tree.body.body, source)
    return eval(compile(tree, "<potential>", "eval"), {"__builtins__": {}, **_FUNCTIONS})
