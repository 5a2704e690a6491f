"""Abstract syntax for probability-next formulas.

The core grammar has five constructors: propositional variables,
negation, conjunction, the probability bound operator ("the probability
of the body is at least r") and the next-time operator.  Everything
else (disjunction, implication, the dual "at most" operator, the
constants) is desugared into this core by the parser.

The core is hash-consed: equal formulas are one node, equality is
identity, and each node stores its hash, computed from its children's.
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

    __slots__ = ("_hash", "__weakref__")

    def __hash__(self):
        return self._hash

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
        # A fixed tag stands for the class: a name's hash varies per process.
        object.__setattr__(node, "_hash", hash((cls._tag, *fields)))
        _TABLE[key] = node
    return node


class Prop(Formula):
    __slots__ = ("index",)
    _tag = 1

    def __new__(cls, index: int):
        if index < 0:
            raise ValueError("proposition ids are naturals")
        return _interned(cls, index)


class Not(Formula):
    __slots__ = ("body",)
    _tag = 2

    def __new__(cls, body: Formula):
        return _interned(cls, body)


class And(Formula):
    __slots__ = ("left", "right")
    _tag = 3

    def __new__(cls, left: Formula, right: Formula):
        return _interned(cls, left, right)


class AtLeast(Formula):
    """Probability of `body` is at least `bound`."""

    __slots__ = ("bound", "body")
    _tag = 4

    def __new__(cls, bound: Fraction, body: Formula):
        bound = Fraction(bound)
        if not 0 <= bound <= 1:
            raise IndexOutOfRange(f"probability index {bound} outside [0, 1]")
        return _interned(cls, bound, body)


class Next(Formula):
    __slots__ = ("body",)
    _tag = 5

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


def props_of(f: Formula) -> frozenset[int]:
    if isinstance(f, Prop):
        return frozenset((f.index,))
    if isinstance(f, (Not, Next, AtLeast)):
        return props_of(f.body)
    if isinstance(f, And):
        return props_of(f.left) | props_of(f.right)
    raise TypeError(f"not a formula: {f!r}")


def _index_denominators(f: Formula) -> set[int]:
    if isinstance(f, Prop):
        return set()
    if isinstance(f, (Not, Next)):
        return _index_denominators(f.body)
    if isinstance(f, And):
        return _index_denominators(f.left) | _index_denominators(f.right)
    if isinstance(f, AtLeast):
        return {f.bound.denominator} | _index_denominators(f.body)
    raise TypeError(f"not a formula: {f!r}")


class LanguageProfile(NamedTuple):
    """Finite-language parameters of a formula: occurring propositions,
    index accuracy (lcm of denominators), depth bounds and the index grid."""

    props: frozenset[int]
    accuracy: int
    prob_depth_bound: int
    dyn_depth_bound: int
    index_set: tuple[Fraction, ...]


def profile(f: Formula) -> LanguageProfile:
    denoms = _index_denominators(f)
    q = lcm(*denoms) if denoms else 1
    return LanguageProfile(
        props=props_of(f),
        accuracy=q,
        prob_depth_bound=prob_depth(f),
        dyn_depth_bound=dyn_depth(f),
        index_set=tuple(Fraction(m, q) for m in range(q + 1)),
    )
