"""Abstract syntax for probability-next formulas.

The core grammar has five constructors: propositional variables,
negation, conjunction, the probability bound operator ("the probability
of the body is at least r") and the next-time operator.  Everything
else (disjunction, implication, the dual "at most" operator, the
constants) is desugared into this core by the parser.

The core is hash-consed (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006): equal formulas are one node, so equality is
identity and a node hashes by identity too.  The unique table holds
its nodes weakly, so a node that nothing else references leaves it.
The parser and the derived connectives build through `prop`, `not_`,
`and_`, `at_least` and `next_`, which probe the table first and call the
constructor only on a miss: `at_least` takes its bound as reduced ints.
`prefix` walks a formula's nodes in its prefix (Polish) spelling, and
the depths walk a stack of nodes, with no recursion, so no nesting is
too deep for them.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from math import lcm
from typing import NamedTuple


class IndexOutOfRange(ValueError):
    """Probability index outside [0, 1]."""


# The unique table: one live node per key, the key being the class and
# fields, with an AtLeast bound keyed by its numerator and denominator
# (ints hash in C, a Fraction in Python).  The value is an _Entry, a weak
# reference to the node that carries its key, so a hit is C calls only.
# All entries share one callback, which drops a dead node's entry; a
# closure per entry would make every entry larger.
_TABLE: dict = {}


class _Entry(weakref.ref):
    __slots__ = ("key",)


def _drop(entry: _Entry) -> None:
    # A constructor that ran between the node's death and this callback
    # has stored a new entry under the key; only the dead one goes.
    if _TABLE.get(entry.key) is entry:
        del _TABLE[entry.key]


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


def _interned(cls, key: tuple, *fields) -> Formula:
    """The live node under `key`, else a new node of class `cls` with
    these validated fields, entered under `key`."""
    entry = _TABLE.get(key)
    if entry is not None:
        node = entry()
        if node is not None:
            return node
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(node, name, value)
    entry = _Entry(node, _drop)
    entry.key = key  # children hash in O(1) and compare by identity
    _TABLE[key] = entry
    return node


class Prop(Formula):
    __slots__ = ("index",)

    def __new__(cls, index: int):
        if index < 0:
            raise ValueError("proposition ids are naturals")
        return _interned(cls, (cls, index), index)


class Not(Formula):
    __slots__ = ("body",)

    def __new__(cls, body: Formula):
        return _interned(cls, (cls, body), body)


class And(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        return _interned(cls, (cls, left, right), left, right)


class AtLeast(Formula):
    """Probability of `body` is at least `bound`."""

    __slots__ = ("bound", "body")

    def __new__(cls, bound: Fraction, body: Formula):
        if bound.__class__ is not Fraction:
            bound = Fraction(bound)
        num, den = bound.as_integer_ratio()
        if not 0 <= num <= den:
            raise IndexOutOfRange(f"probability index {bound} outside [0, 1]")
        return _interned(cls, (cls, num, den, body), bound, body)


class Next(Formula):
    __slots__ = ("body",)

    def __new__(cls, body: Formula):
        return _interned(cls, (cls, body), body)


# Fixed encodings of the constants; the bottom constant must be expressible
# in the core grammar so that the L_0-bottom axiom has a concrete instance.
BOTTOM = And(Prop(0), Not(Prop(0)))
TOP = Not(BOTTOM)


def prop(index: int) -> Prop:
    entry = _TABLE.get((Prop, index))
    return entry and entry() or Prop(index)


def not_(body: Formula) -> Not:
    entry = _TABLE.get((Not, body))
    return entry and entry() or Not(body)


def and_(left: Formula, right: Formula) -> And:
    entry = _TABLE.get((And, left, right))
    return entry and entry() or And(left, right)


def at_least(num: int, den: int, body: Formula) -> AtLeast:
    entry = _TABLE.get((AtLeast, num, den, body))
    return entry and entry() or AtLeast(Fraction(num, den), body)


def next_(body: Formula) -> Next:
    entry = _TABLE.get((Next, body))
    return entry and entry() or Next(body)


def lor(a: Formula, b: Formula) -> Formula:
    return not_(and_(not_(a), not_(b)))


def implies(a: Formula, b: Formula) -> Formula:
    return not_(and_(a, not_(b)))


def iff(a: Formula, b: Formula) -> Formula:
    return and_(implies(a, b), implies(b, a))


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


def _depth(f: Formula, counted: type) -> int:
    """Most `counted` nodes on one path from f down to a proposition.  A
    stack of (node, depth), not recursion, so no nesting is too deep."""
    deepest = 0
    stack = [(f, 0)]
    while stack:
        g, depth = stack.pop()
        if isinstance(g, And):
            stack += (g.right, depth), (g.left, depth)
        elif isinstance(g, (Not, Next, AtLeast)):
            stack.append((g.body, depth + isinstance(g, counted)))
        elif isinstance(g, Prop):
            deepest = max(deepest, depth)
        else:
            raise TypeError(f"not a formula: {g!r}")
    return deepest


def prob_depth(f: Formula) -> int:
    """Nesting depth of probability operators; negation and next are
    transparent."""
    return _depth(f, AtLeast)


def dyn_depth(f: Formula) -> int:
    """Nesting depth of next operators; negation and probability bounds are
    transparent."""
    return _depth(f, Next)


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
