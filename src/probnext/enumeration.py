"""Deterministic enumerations of rationals in [0, 1] and of all formulas.

The rational enumeration is 0, 1, then the Calkin-Wilf sequence's values
below 1, ranked and unranked in closed form.  The formula enumeration
orders formulas by a weighted symbol count and breaks ties
lexicographically over the prefix (Polish) spelling with the symbol
order  not < and < atleast < next < p0 < p1 < ...

Weights (documented contract; a plain symbol count would leave each
size class infinite and no size-then-lex bijection with the naturals
would exist):

    weight(p_i)          = i + 1
    weight(!f) = weight(X f) = 1 + weight(f)
    weight(f & g)        = 1 + weight(f) + weight(g)
    weight(L[r] f)       = 1 + rational_index(r) + weight(f)

Both enumerations are total bijections and are deterministic across
runs and platforms.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from .formula import And, AtLeast, Formula, Next, Not, Prop


class ExtensionLimitExceeded(RuntimeError):
    """A query needs more enumeration or construction work than allowed."""


# Largest weight class materialized; admits every formula index below 586 605.
_MAX_CLASS_SIZE = 10**6


def enum_rational(i: int) -> Fraction:
    """The i-th rational of the fixed enumeration of Q in [0, 1]; for i >= 2,
    node 2(i-1) of the Calkin-Wilf tree, whose left children are the values
    below 1 in breadth-first order."""
    if i < 0:
        raise ValueError("index must be a natural")
    if i < 2:
        return Fraction(i)
    a = b = 1
    for bit in bin(2 * (i - 1))[3:]:  # the path from the root 1/1
        if bit == "0":  # left child a/(a+b), else right child (a+b)/b
            b += a
        else:
            a += b
    return Fraction(a, b)


def rational_index(r) -> int:
    """Position of r in the fixed enumeration (inverse of enum_rational):
    climbs the Calkin-Wilf tree to the root in one run of equal steps per
    continued-fraction term of r, collecting the node's binary digits."""
    r = Fraction(r)
    if not 0 <= r <= 1:
        raise ValueError(f"{r} outside [0, 1]")
    if r.denominator == 1:
        return r.numerator
    a, b = r.numerator, r.denominator
    node, depth = 0, 0
    while a != b:
        if a < b:  # a run of left children: zero bits
            k = (b - 1) // a
            b -= k * a
        else:  # a run of right children: one bits
            k = (a - 1) // b
            a -= k * b
            node |= ((1 << k) - 1) << depth
        depth += k
    return (node | (1 << depth)) // 2 + 1


def weight(f: Formula) -> int:
    if isinstance(f, Prop):
        return f.index + 1
    if isinstance(f, (Not, Next)):
        return 1 + weight(f.body)
    if isinstance(f, And):
        return 1 + weight(f.left) + weight(f.right)
    if isinstance(f, AtLeast):
        return 1 + rational_index(f.bound) + weight(f.body)
    raise TypeError(f"not a formula: {f!r}")


def sort_key(f: Formula) -> tuple[int, ...]:
    """Flattened prefix spelling used for the lexicographic tie break."""
    out: list[int] = []

    def emit(g: Formula) -> None:
        if isinstance(g, Not):
            out.append(0)
            emit(g.body)
        elif isinstance(g, And):
            out.append(1)
            emit(g.left)
            emit(g.right)
        elif isinstance(g, AtLeast):
            out.append(2)
            out.append(rational_index(g.bound))
            emit(g.body)
        elif isinstance(g, Next):
            out.append(3)
            emit(g.body)
        else:
            out.append(4 + g.index)

    emit(f)
    return tuple(out)


_CLASSES: dict[int, list[Formula]] = {}
_COUNTS: dict[int, int] = {}


def class_count(n: int) -> int:
    """Number of formulas of weight n, computed without materializing them."""
    if n < 1:
        return 0
    if n not in _COUNTS:
        total = 1  # the proposition p_{n-1}
        total += 2 * class_count(n - 1)  # negation and next
        total += sum(class_count(m) for m in range(1, n))  # probability bounds
        total += sum(class_count(k) * class_count(n - 1 - k) for k in range(1, n - 1))
        _COUNTS[n] = total
    return _COUNTS[n]


def _weight_class(n: int) -> list[Formula]:
    if n < 1:
        return []
    if n not in _CLASSES:
        out: list[Formula] = [Prop(n - 1)]
        for sub in _weight_class(n - 1):
            out.append(Not(sub))
            out.append(Next(sub))
        for j in range(n - 1):
            r = enum_rational(j)
            for sub in _weight_class(n - 1 - j):
                out.append(AtLeast(r, sub))
        for k in range(1, n - 1):
            rights = _weight_class(n - 1 - k)
            for a in _weight_class(k):
                for b in rights:
                    out.append(And(a, b))
        out.sort(key=sort_key)
        _CLASSES[n] = out
    return _CLASSES[n]


def _class_size(n: int) -> int:
    """class_count(n), refused above the materialization cap."""
    c = class_count(n)
    if c > _MAX_CLASS_SIZE:
        raise ExtensionLimitExceeded(
            f"weight class {n} holds {c} formulas, more than {_MAX_CLASS_SIZE}"
        )
    return c


def enum_formula(i: int) -> Formula:
    """The i-th formula of the fixed enumeration."""
    if i < 0:
        raise ValueError("index must be a natural")
    n = 1
    while True:
        c = _class_size(n)
        if i < c:
            return _weight_class(n)[i]
        i -= c
        n += 1


def formula_index(f: Formula) -> int:
    """Position of f in the fixed enumeration (inverse of enum_formula)."""
    w = weight(f)
    # the classes grow with the weight: refuse an oversized w on the way to it
    base = sum(_class_size(n) for n in range(1, w + 1)) - class_count(w)
    cls = _weight_class(w)
    lo = bisect_left(cls, sort_key(f), key=sort_key)
    if lo >= len(cls) or cls[lo] != f:
        raise ValueError(f"formula not found in its weight class: {f!r}")
    return base + lo
