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
runs and platforms.  Formulas are ranked and unranked by counting the
spellings that complete each prefix of their own, with no weight class
built; weights above 64 (indices from about 2*10^44) are refused.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .formula import And, AtLeast, Formula, Next, Not, Prop, prefix


class ExtensionLimitExceeded(RuntimeError):
    """A query needs more enumeration or construction work than allowed."""


# Heaviest formula ranked or unranked; bounds the spelling counts cached below.
_WEIGHT_LIMIT = 64


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
    node, depth = 0, 0
    for k, right in _runs(r):
        if right:  # right children are one bits, left children zero bits
            node |= ((1 << k) - 1) << depth
        depth += k
    return (node | (1 << depth)) // 2 + 1


def _runs(r: Fraction):
    """The runs of equal steps that climb the Calkin-Wilf tree from r to the
    root 1/1, one per continued-fraction term: (length, whether right)."""
    a, b = r.numerator, r.denominator
    while 0 < a != b:  # 0 is not in the tree
        if a < b:  # a run of left children
            k = (b - 1) // a
            b -= k * a
            yield k, False
        else:  # a run of right children
            k = (a - 1) // b
            a -= k * b
            yield k, True


def weight(f: Formula) -> int:
    total = 0
    for g in prefix(f):
        if isinstance(g, Prop):
            total += g.index + 1
        elif isinstance(g, AtLeast):
            # a bound at depth d of the tree has an index of at least 2^(d-1):
            # refuse a deep one before spelling that integer
            if sum(k for k, _ in _runs(g.bound)) > _WEIGHT_LIMIT:
                raise ExtensionLimitExceeded(f"bound {g.bound} is past the weight limit")
            total += 1 + rational_index(g.bound)
        else:
            total += 1
    return total


def spelling(f: Formula) -> tuple:
    """The prefix spelling of f as symbol codes in the order of the tie
    break, each bound followed by its Fraction, not by its rank: distinct
    formulas spell differently, and no bound's rank is computed."""
    out: list = []
    for g in prefix(f):
        if isinstance(g, Not):
            out.append(0)
        elif isinstance(g, And):
            out.append(1)
        elif isinstance(g, AtLeast):
            out += 2, g.bound
        elif isinstance(g, Next):
            out.append(3)
        else:
            out.append(4 + g.index)
    return tuple(out)


def sort_key(f: Formula) -> tuple[int, ...]:
    """Flattened prefix spelling used for the lexicographic tie break: the
    spelling with each bound replaced by its rational_index."""
    return tuple(rational_index(s) if isinstance(s, Fraction) else s for s in spelling(f))


def _symbols(slots: int, w: int):
    """The symbols that may come next, in sort_key order, when `slots` formulas
    of total weight `w` remain, each with the slots and weight left after
    it; every open slot needs weight at least 1."""
    rest = w - 1
    if rest >= slots:
        yield (0,), slots, rest  # !
    if rest > slots:
        yield (1,), slots + 1, rest  # &
    for j in range(rest - slots + 1):
        yield (2, j), slots, rest - j  # L[r_j]
    if rest >= slots:
        yield (3,), slots, rest  # X
    for i in range(rest - slots + 2):
        if slots > 1 or i == rest:  # the last formula takes all the weight left
            yield (4 + i,), slots - 1, rest - i  # p_i


@lru_cache(maxsize=None)  # one entry per (slots, weight) pair up to the limit
def _spellings(slots: int, w: int) -> int:
    """Number of spellings of `slots` formulas of total weight `w`."""
    return sum(_spellings(s, v) for _, s, v in _symbols(slots, w)) if slots else 1


def class_count(n: int) -> int:
    """Number of formulas of weight n; refused above the weight limit."""
    if n > _WEIGHT_LIMIT:
        raise ExtensionLimitExceeded(f"weight {n} is above the limit {_WEIGHT_LIMIT}")
    return _spellings(1, n) if n >= 1 else 0


def enum_formula(i: int) -> Formula:
    """The i-th formula of the fixed enumeration: each symbol of its
    spelling is picked by subtracting the counts of the smaller choices."""
    if i < 0:
        raise ValueError("index must be a natural")
    spelling, slots, w = [], 1, 1
    while i >= (c := class_count(w)):
        i -= c
        w += 1
    while slots:
        for sym, slots_after, w_after in _symbols(slots, w):
            c = _spellings(slots_after, w_after)
            if i < c:
                break
            i -= c
        spelling.append(sym)
        slots, w = slots_after, w_after
    stack: list[Formula] = []  # build from the right, as in reverse Polish
    for sym in reversed(spelling):
        if sym[0] >= 4:
            stack.append(Prop(sym[0] - 4))
        elif sym[0] == 1:
            stack.append(And(stack.pop(), stack.pop()))
        elif sym[0] == 2:
            stack.append(AtLeast(enum_rational(sym[1]), stack.pop()))
        else:
            stack.append((Not if sym[0] == 0 else Next)(stack.pop()))
    return stack.pop()


def formula_index(f: Formula) -> int:
    """Position of f in the fixed enumeration (inverse of enum_formula): the
    lighter classes plus the counts of the smaller choices along sort_key(f)."""
    n = weight(f)  # class_count(n) refuses a weight above the limit
    i = sum(class_count(m) for m in range(1, n + 1)) - class_count(n)
    key, slots, w = iter(sort_key(f)), 1, n
    while slots:
        code = next(key)
        target = (code, next(key)) if code == 2 else (code,)  # L[r_j]: 2, j
        for sym, slots_after, w_after in _symbols(slots, w):
            if sym == target:
                break
            i += _spellings(slots_after, w_after)
        slots, w = slots_after, w_after
    return i
