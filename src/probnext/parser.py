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

One `findall` reads the tokens as strings, and any other non-space character
as a one-character stray token.  Only a failed parse scans again, for token
positions: a stray token anywhere is then the error, before any grammar or
bound error that the parse met first.

Derived connectives are desugared during parsing; `render` emits only the
core grammar, so `parse(render(f)) == f` holds structurally.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .formula import BOTTOM, TOP, And, AtLeast, Formula, IndexOutOfRange, Next, Not, Prop
from .formula import and_, at_least, iff, implies, lor, next_, not_, prop


class FormulaSyntaxError(ValueError):
    def __init__(self, position: int, expected: str, found: str):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(f"at position {position}: expected {expected}, found {found}")


# [0-9], not \d: \d matches every Unicode digit, which int() would read.
# The last alternative makes every other non-space character a stray token.
_TOKEN_RE = re.compile(
    r"(p[0-9]+|[LM]\[\s*[0-9]+(?:\s*/\s*[0-9]+)?\s*\]|<->|->|[!&|XTF()]|\S)"
)


def _position(text: str, index: int) -> tuple:
    """Where token `index` of `text` starts, and the token ("" for the end);
    but a stray token anywhere in `text` raises its error instead."""
    found = len(text), ""
    for j, m in enumerate(_TOKEN_RE.finditer(text)):
        token = m[0]
        if len(token) == 1 and token not in "!&|XTF()":
            raise FormulaSyntaxError(m.start(), "a token", repr(token))
        if j == index:
            found = m.start(), token
    return found


def _fail(text: str, index: int, expected: str):
    pos, token = _position(text, index)
    raise FormulaSyntaxError(pos, expected, repr(token) if token else "end of input")


# Binary connectives by binding power; "->" alone is right associative.
_BINARY = {"<->": (1, iff), "->": (2, implies), "|": (3, lor), "&": (4, and_)}
_OPEN = (0, None, None)
_PREFIXES = {"!": not_, "X": next_, "(": _OPEN}
_ATOMS = {"T": TOP, "F": BOTTOM}


def parse(text: str) -> Formula:
    tokens = [*_TOKEN_RE.findall(text), ""]  # "" is the end
    # The pending operators, innermost last.  A prefix (a builder, or a bound
    # as its denominator, numerator and `at_least`) waits for its operand; a
    # triple (power, connective, left) for its right operand; _OPEN for the
    # ")" of a parenthesis, or, at the bottom, for the end of the input.
    stack = [_OPEN]
    i = 0
    try:
        while True:
            token = tokens[i]
            i += 1
            first = token[:1]
            if first == "p":
                f = prop(int(token[1:]))
            elif prefix := _PREFIXES.get(first):
                stack.append(prefix)
                continue
            elif first == "L" or first == "M":
                num, _, den = token[2:-1].partition("/")
                n, d = int(num), int(den or 1)  # int() strips the spaces
                if not d:
                    _fail(text, i - 1, "a nonzero denominator")
                if n > d:
                    raise IndexOutOfRange(
                        f"at position {_position(text, i - 1)[0]}: "
                        f"probability index {Fraction(n, d)} outside [0, 1]"
                    )
                g = gcd(n, d)
                n, d = n // g, d // g
                # M[r] is L[1-r] of the negation
                stack += (d, n, at_least) if first == "L" else (d, d - n, at_least, not_)
                continue
            elif first in _ATOMS:
                f = _ATOMS[first]
            else:
                _fail(text, i - 1, "a formula")
            while True:  # f is a complete operand
                while stack[-1].__class__ is not tuple:
                    build = stack.pop()
                    # an AtLeast's numerator lies on top of its denominator
                    f = at_least(stack.pop(), stack.pop(), f) if build is at_least else build(f)
                token = tokens[i]
                i += 1
                power, connective = _BINARY.get(token, (0, None))
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
                    if token:
                        _fail(text, i - 1, "end of input")
                    return f
                if token != ")":
                    _fail(text, i - 1, "')'")
    except ValueError as exc:
        # int() of a stray "p", "L" or "M", or of a numeral past its digit limit
        if exc.__class__ is ValueError:
            _position(text, 0)  # a stray token is the error before it
        raise


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
