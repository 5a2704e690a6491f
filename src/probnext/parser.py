"""Concrete syntax: a recursive-descent parser and a minimal-paren printer.

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
    at_most,
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


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<prop>p\d+)|(?P<lbound>[LM]\[\s*\d+(?:\s*/\s*\d+)?\s*\])"
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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str):
        kind, value, pos = self.peek()
        found = "end of input" if kind == "end" else repr(value)
        raise FormulaSyntaxError(pos, expected, found)

    def parse(self) -> Formula:
        f = self.iff()
        if self.peek()[0] != "end":
            self.fail("end of input")
        return f

    def iff(self) -> Formula:
        f = self.imp()
        while self.peek()[1] == "<->":
            self.advance()
            f = iff(f, self.imp())
        return f

    def imp(self) -> Formula:
        parts = [self.lor()]
        while self.peek()[1] == "->":
            self.advance()
            parts.append(self.lor())
        f = parts[-1]
        for left in reversed(parts[:-1]):
            f = implies(left, f)
        return f

    def lor(self) -> Formula:
        f = self.land()
        while self.peek()[1] == "|":
            self.advance()
            f = lor(f, self.land())
        return f

    def land(self) -> Formula:
        f = self.unary()
        while self.peek()[1] == "&":
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if value == "!":
            self.advance()
            return Not(self.unary())
        if value == "X":
            self.advance()
            return Next(self.unary())
        if kind == "lbound":
            self.advance()
            inner = value[2:-1].replace(" ", "")
            if "/" in inner:
                num, den = inner.split("/")
                if int(den) == 0:
                    raise FormulaSyntaxError(pos, "a nonzero denominator", repr(value))
                bound = Fraction(int(num), int(den))
            else:
                bound = Fraction(int(inner))
            if not 0 <= bound <= 1:
                raise IndexOutOfRange(
                    f"at position {pos}: probability index {bound} outside [0, 1]"
                )
            body = self.unary()
            if value[0] == "L":
                return AtLeast(bound, body)
            return at_most(bound, body)
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "prop":
            self.advance()
            return Prop(int(value[1:]))
        if value == "T":
            self.advance()
            return TOP
        if value == "F":
            self.advance()
            return BOTTOM
        if value == "(":
            self.advance()
            f = self.iff()
            if self.peek()[1] != ")":
                self.fail("')'")
            self.advance()
            return f
        self.fail("a formula")


def parse(text: str) -> Formula:
    return _Parser(text).parse()


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
