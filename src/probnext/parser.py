"""Concrete syntax: an operator-precedence parser and a minimal-paren printer.

Grammar (whitespace-insensitive)::

    formula := iff
    iff     := imp ("<->" imp)*        (left associative)
    imp     := or ("->" or)*           (right associative)
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "!" unary | "X" unary
             | "L[" rational "]" unary | "M[" rational "]" unary | atom
    atom    := "p" digits | "T" | "F" | "(" formula ")"
    rational := digits "/" digits | digits
    digits  := [0-9]+                  (ASCII digits only)

Derived connectives are desugared during parsing; `render` emits only the
core grammar, so `parse(render(f)) == f` holds structurally.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .formula import (
    And,
    AtLeast,
    BOTTOM,
    Formula,
    IndexOutOfRange,
    Next,
    Not,
    Prop,
    TOP,
    iff,
    implies,
    lor,
)


class FormulaSyntaxError(ValueError):
    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(f"at position {position}: expected {expected}, found {found}")


# [0-9], not \d: \d matches every Unicode digit, which int() would read.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<prop>p[0-9]+)|(?P<lbound>[LM]\[\s*[0-9]+(?:\s*/\s*[0-9]+)?\s*\])"
    r"|(?P<op><->|->|[!&|XTF()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise FormulaSyntaxError(at, "a token", repr(stripped[0]))
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _fail(token, expected: str):
    kind, value, pos = token
    found = "end of input" if kind == "end" else repr(value)
    raise FormulaSyntaxError(pos, expected, found)


def _bound_prefix(value: str, pos: int) -> list:
    """The prefixes an `L[r]` or `M[r]` token stands for: the AtLeast
    bound, and for `M[r]`, which is `L[1-r]` of the negation, a Not."""
    num, _, den = value[2:-1].replace(" ", "").partition("/")
    n, d = int(num), int(den or 1)
    if d == 0:
        raise FormulaSyntaxError(pos, "a nonzero denominator", repr(value))
    if n > d:
        raise IndexOutOfRange(
            f"at position {pos}: probability index {Fraction(n, d)} outside [0, 1]"
        )
    if value[0] == "L":
        return [Fraction(n, d)]
    return [Fraction(d - n, d), Not]


# Binary connectives by binding power; "->" alone is right associative.
_BINARY = {"<->": (1, iff), "->": (2, implies), "|": (3, lor), "&": (4, And)}
_OPEN = (0, None, None)


def parse(text: str) -> Formula:
    tokens = _tokenize(text)
    # The pending operators, innermost last.  A prefix (Not, Next, or the
    # Fraction bound of an AtLeast) waits for its operand; a triple
    # (power, connective, left) for its right operand; _OPEN for the ")"
    # of a parenthesis, or, at the bottom, for the end of the input.
    stack = [_OPEN]
    i = 0
    while True:
        token = kind, value, pos = tokens[i]
        i += 1
        if kind == "prop":
            f = Prop(int(value[1:]))
        elif value == "T":
            f = TOP
        elif value == "F":
            f = BOTTOM
        else:
            if value == "!":
                stack.append(Not)
            elif value == "X":
                stack.append(Next)
            elif value == "(":
                stack.append(_OPEN)
            elif kind == "lbound":
                stack += _bound_prefix(value, pos)
            else:
                _fail(token, "a formula")
            continue
        while True:  # f is a complete operand
            while stack[-1].__class__ is not tuple:
                prefix = stack.pop()
                f = AtLeast(prefix, f) if prefix.__class__ is Fraction else prefix(f)
            token = tokens[i]
            i += 1
            power, connective = _BINARY.get(token[1], (0, None))
            # Close the operators that bind at least as tightly as this one
            # (all of them before a ")" or the end); "->" leaves its equals.
            floor = power + (connective is implies) or 1
            while stack[-1][0] >= floor:
                _, build, left = stack.pop()
                f = build(left, f)
            if power:
                stack.append((power, connective, f))
                break
            stack.pop()
            if not stack:
                if token[0] != "end":
                    _fail(token, "end of input")
                return f
            if token[1] != ")":
                _fail(token, "')'")


def _render_bound(bound: Fraction) -> str:
    if bound.denominator == 1:
        return str(bound.numerator)
    return f"{bound.numerator}/{bound.denominator}"


def _render_operand(f: Formula) -> str:
    # Conjunctions are the only construct that needs parentheses under a
    # unary operator or on the right of "&".
    if isinstance(f, And):
        return f"({render(f)})"
    return render(f)


def render(f: Formula) -> str:
    if isinstance(f, Prop):
        return f"p{f.index}"
    if isinstance(f, Not):
        return f"!{_render_operand(f.body)}"
    if isinstance(f, Next):
        return f"X {_render_operand(f.body)}"
    if isinstance(f, AtLeast):
        return f"L[{_render_bound(f.bound)}] {_render_operand(f.body)}"
    if isinstance(f, And):
        # "&" parses left associative, so only the right operand needs parens.
        left = render(f.left) if isinstance(f.left, And) else _render_operand(f.left)
        return f"{left} & {_render_operand(f.right)}"
    raise TypeError(f"not a formula: {f!r}")
