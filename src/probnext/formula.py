"""Abstract syntax for probability-next formulas.

The core grammar has five constructors: propositional variables,
negation, conjunction, the probability bound operator ("the probability
of the body is at least r") and the next-time operator.  Everything
else (disjunction, implication, the dual "at most" operator, the
constants) is desugared into this core by the parser.

The core is hash-consed: equal formulas are one node, so equality is
identity and a node hashes by identity too.  `prefix` walks a formula's
nodes in its prefix (Polish) spelling, with no recursion, for the
traversals that only read the spelling.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from math import lcm
from typing import NamedTuple


class IndexOutOfRange(ValueError):
    """Probability index outside [0, 1]."""


# The unique table: one live node per class and fields.  Its values are
# weak, so a node that nothing else references leaves it.
_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class Formula:
    """An immutable, interned node; its fields are its subclass's slots."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle go back through the table
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"


def _interned(cls, *fields) -> Formula:
    """The node of class `cls` with these validated fields."""
    key = (cls, *fields)  # children hash in O(1) and compare by identity
    node = _TABLE.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            object.__setattr__(node, name, value)
        _TABLE[key] = node
    return node


class Prop(Formula):
    __slots__ = ("index",)

    def __new__(cls, index: int):
        if index < 0:
            raise ValueError("proposition ids are naturals")
        return _interned(cls, index)


class Not(Formula):
    __slots__ = ("body",)

    def __new__(cls, body: Formula):
        return _interned(cls, body)


class And(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        return _interned(cls, left, right)


class AtLeast(Formula):
    """Probability of `body` is at least `bound`."""

    __slots__ = ("bound", "body")

    def __new__(cls, bound: Fraction, body: Formula):
        bound = Fraction(bound)
        if not 0 <= bound <= 1:
            raise IndexOutOfRange(f"probability index {bound} outside [0, 1]")
        return _interned(cls, bound, body)


class Next(Formula):
    __slots__ = ("body",)

    def __new__(cls, body: Formula):
        return _interned(cls, body)


# Fixed encodings of the constants; the bottom constant must be expressible
# in the core grammar so that the L_0-bottom axiom has a concrete instance.
BOTTOM = And(Prop(0), Not(Prop(0)))
TOP = Not(BOTTOM)


def lor(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))


def implies(a: Formula, b: Formula) -> Formula:
    return Not(And(a, Not(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return And(implies(a, b), implies(b, a))


def at_most(bound, body: Formula) -> Formula:
    """The dual operator: probability of `body` is at most `bound`."""
    return AtLeast(1 - Fraction(bound), Not(body))


def conj(formulas) -> Formula:
    """Left fold of a non-empty iterable into a conjunction; TOP if empty."""
    it = iter(formulas)
    try:
        acc = next(it)
    except StopIteration:
        return TOP
    for f in it:
        acc = And(acc, f)
    return acc


def prob_depth(f: Formula) -> int:
    """Nesting depth of probability operators; negation and next are
    transparent."""
    if isinstance(f, Prop):
        return 0
    if isinstance(f, (Not, Next)):
        return prob_depth(f.body)
    if isinstance(f, And):
        return max(prob_depth(f.left), prob_depth(f.right))
    if isinstance(f, AtLeast):
        return prob_depth(f.body) + 1
    raise TypeError(f"not a formula: {f!r}")


def dyn_depth(f: Formula) -> int:
    """Nesting depth of next operators; negation and probability bounds are
    transparent."""
    if isinstance(f, Prop):
        return 0
    if isinstance(f, (Not, AtLeast)):
        return dyn_depth(f.body)
    if isinstance(f, And):
        return max(dyn_depth(f.left), dyn_depth(f.right))
    if isinstance(f, Next):
        return dyn_depth(f.body) + 1
    raise TypeError(f"not a formula: {f!r}")


def prefix(f: Formula):
    """The nodes of f in prefix (Polish) order: each node before its
    children, left before right.  A stack, not recursion, so no nesting
    depth is too deep; TypeError on a node that is not a formula."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack += g.right, g.left
        elif isinstance(g, (Not, Next, AtLeast)):
            stack.append(g.body)
        elif not isinstance(g, Prop):
            raise TypeError(f"not a formula: {g!r}")
        yield g


def props_of(f: Formula) -> frozenset[int]:
    return frozenset(g.index for g in prefix(f) if isinstance(g, Prop))


class LanguageProfile(NamedTuple):
    """Finite-language parameters of a formula: occurring propositions,
    index accuracy (lcm of denominators), depth bounds and the index grid."""

    props: frozenset[int]
    accuracy: int
    prob_depth_bound: int
    dyn_depth_bound: int
    index_set: tuple[Fraction, ...]


def profile(f: Formula) -> LanguageProfile:
    denoms = {g.bound.denominator for g in prefix(f) if isinstance(g, AtLeast)}
    q = lcm(*denoms) if denoms else 1
    return LanguageProfile(
        props=props_of(f),
        accuracy=q,
        prob_depth_bound=prob_depth(f),
        dyn_depth_bound=dyn_depth(f),
        index_set=tuple(Fraction(m, q) for m in range(q + 1)),
    )
