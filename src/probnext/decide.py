"""The decision procedure.

Pipeline: expand the formula into a pruned DNF of literals (polarity, time
step, atom), where a next-operator raises the step of the atoms below it,
group each disjunct's literals by step (`group_steps`), and decide every
step independently.  An atom is an interned node: a proposition, or a
bound in `push_next` normal form, so bounds equal up to moving
next-operators through ! and & are one atom.  A bound L[r] b is over its
column, b up to one leading ! (L[r] !c bounds 1 - m(c)).  The DNF settles
L[0] b as true and !L[0] b as false.  A world's valuation is independent
of its kernel, so a step is decided by its signed bounds (polarity, bound
atom) alone, in one call of `world_sat` cached per set of them (a step
with none holds at once): by carving the state space into cells over the
distinct columns and solving an exact linear system over the satisfiable
cells' masses.  A cell is a choice of inside or outside for each column,
and its witnessing disjunct is the first satisfiable disjunct of its DNF.
The satisfiable cells of a column set are found once, by one walk over the
columns in the order of their prefix spellings (`enumeration.spelling`)
that merges each prefix's DNF with the DNF of one column or of its
negation, keeps only the satisfiable disjuncts of the merge, as `conjoin`
does, and cuts every prefix left with none.  In a `work_budget` block, the
meter of `canonical`'s membership queries, each node the walk pops costs
one unit and each LP its cell count, up to the block's budget.  A cell
table, which each step over the same columns reuses, keeps the cells'
witnessing disjuncts, as tuples, the all-ones row of the masses' sum, and
each column's cells once, as the bits of an int.  A step is first tried on
one cell with mass 1, the smallest vertex of its LP: ANDing one bitset per
bound, the inside or the outside of its column, gives the cells that
satisfy every bound alone, and the lowest of them is the answer.  Only a
step that no one cell satisfies reaches the simplex: its LP reads each
bound's 0/1 indicator row off its column's bitset, and
`linarith.solve_rows` states the masses' non-negativity in bulk, builds
the tableau and solves it, with no `LinearSystem` built, and returns the
nonzero masses: the inhabited cells.
Either answer depends on the bounds alone, never on what was decided
before.

A SAT answer can be turned into an explicit finite model whose root
world the model checker accepts.  One search serves the verdict and the
witness: `_first_plans` finds the first satisfiable disjunct's plans (the
true propositions and inhabited cells of each step), and keeps them for a
bounded number of recent formulas, so `witness` after `sat_status` builds
from them without expanding the formula again.  A formula no longer kept
only repeats the same search, which finds the same plans.  Each inhabited
cell's sub-model is built from its witnessing disjunct's plans, straight
into the model.  `conjoin`
extends a pruned DNF by one more conjunct and keeps only its satisfiable
disjuncts, so a long conjunction that grows one conjunct at a time can be
kept as that list.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Optional

from .enumeration import ExtensionLimitExceeded, spelling
from .formula import And, AtLeast, Formula, Next, Not, Prop
from .linarith import Rel, solve_rows
from .models import FiniteDMM


# ---------------------------------------------------------------------------
# Next-operator normalization.  The DNF below reads next-operators as time
# stamps and normalizes each probability body with `push_next`, so bodies
# that are equal up to moving next-operators through ! and & share one
# column.


def push_next(f: Formula) -> Formula:
    """Equivalent formula in which every next-operator sits directly above a
    proposition, another next, or a probability atom (whose body is itself
    normalized).  Formulas equal by the laws  X !a = !X a  and
    X (a & b) = X a & X b,  such as X !p0 and !X p0, share one normal form.
    Subformulas that are already normal are returned as they are, not
    copied, so the caches keyed by formulas keep sharing them."""
    if isinstance(f, Prop):
        return f
    if isinstance(f, Not):
        body = push_next(f.body)
        return f if body is f.body else Not(body)
    if isinstance(f, And):
        left, right = push_next(f.left), push_next(f.right)
        return f if left is f.left and right is f.right else And(left, right)
    if isinstance(f, AtLeast):
        body = push_next(f.body)
        return f if body is f.body else AtLeast(f.bound, body)
    if isinstance(f, Next):
        body = push_next(f.body)
        if body is f.body and not isinstance(body, (Not, And)):
            return f
        return _shift(body)
    raise TypeError(f"not a formula: {f!r}")


def _shift(g: Formula) -> Formula:
    """Apply one next-operator to an already normalized formula."""
    if isinstance(g, Not):
        return Not(_shift(g.body))
    if isinstance(g, And):
        return And(_shift(g.left), _shift(g.right))
    return Next(g)


# ---------------------------------------------------------------------------
# DNF over time-stamped atoms
#
# An atom is an interned node: a `Prop`, or a bound `AtLeast` in `push_next`
# normal form; a literal is (polarity, step, atom); a disjunct is a
# frozenset of literals with no clashing pair.  Disjunct lists are kept as
# subset-minimal antichains: dropping a superset of another disjunct
# preserves logical equivalence of the disjunction.

Disjunct = frozenset


def _antichain(disjuncts) -> list[Disjunct]:
    # first-seen order, not a set's: a node hashes by its address, so a set's
    # order changes from run to run
    kept: list[Disjunct] = []
    for d in sorted(dict.fromkeys(disjuncts), key=len):
        if not any(k <= d for k in kept):
            kept.append(d)
    return kept


def _merge(left: list[Disjunct], right: list[Disjunct]) -> list[Disjunct]:
    out = []
    for a in left:
        for b in right:
            clash = any((not pol, step, atom) in a for pol, step, atom in b)
            if not clash:
                out.append(a | b)
    return _antichain(out) if len(out) > 1 else out  # one disjunct is an antichain


def _dnf(f: Formula, polarity: bool, step: int) -> list[Disjunct]:
    # The successor is a function, so X commutes with ! and &: a
    # next-operator only raises the time stamp of the atoms below it.
    if isinstance(f, Next):
        return _dnf(f.body, polarity, step + 1)
    if isinstance(f, Not):
        return _dnf(f.body, not polarity, step)
    if isinstance(f, And):
        left = _dnf(f.left, polarity, step)
        right = _dnf(f.right, polarity, step)
        return _merge(left, right) if polarity else _antichain(left + right)
    if isinstance(f, Prop):
        return [frozenset({(polarity, step, f)})]
    if isinstance(f, AtLeast):
        if f.bound == 0:  # L[0] b holds at every world
            return [frozenset()] if polarity else []
        return [frozenset({(polarity, step, push_next(f))})]
    raise TypeError(f"not a formula: {f!r}")


def to_disjuncts(f: Formula) -> list[Disjunct]:
    """Pruned DNF of f over time-stamped atoms whose bounds are in
    `push_next` normal form.  The order is the expansion's first-seen one,
    so it does not depend on hashing."""
    return _dnf(f, True, 0)


# ---------------------------------------------------------------------------
# Steps


def group_steps(disjunct: Disjunct) -> list[tuple]:
    """One (step, true proposition indices, bounds) per time index of the
    disjunct, in step order, the bounds one frozenset of (polarity, atom).
    A negative proposition needs nothing: a disjunct has no clashing pair,
    and the witness leaves every proposition it does not list false."""
    buckets: dict[int, tuple[list, list]] = {}
    for polarity, step, atom in disjunct:
        props, bounds = buckets.setdefault(step, ([], []))
        if not isinstance(atom, Prop):
            bounds.append((polarity, atom))
        elif polarity:
            props.append(atom.index)
    return [
        (step, props, frozenset(bounds)) for step, (props, bounds) in sorted(buckets.items())
    ]


# ---------------------------------------------------------------------------
# Per-world satisfiability over measure cells


class _CellTable(NamedTuple):
    """The LP data of the satisfiable cells over one set of columns, cell i
    being the i-th in increasing mask order: `disjuncts` holds each cell's
    witnessing disjunct as a tuple, `ones` the all-ones row ((0, 1), (1, 1),
    ...), and `columns` maps each column to (its index in spelling order,
    an int whose bit i is set when cell i lies inside the column), off which
    the simplex reads the column's row, sharing the entries of `ones`.  A
    witnessing disjunct is only iterated, by `group_steps`, and a tuple
    iterates its literals in the order of the frozenset it is made from, in
    about a sixth of the memory."""

    disjuncts: tuple[tuple, ...]
    ones: tuple
    columns: dict


# The meter of the innermost `work_budget` block, or None outside every
# block, where nothing is counted.
_meter: Optional[list] = None


@contextmanager
def work_budget(units: int) -> Iterator[list]:
    """Yield the block's meter [nodes, cells, units]: the walk charges 1 per
    popped node, `world_sat` an LP its cell count before it starts it, and
    the first charge past `units` raises `ExtensionLimitExceeded`, leaving
    the table or step being built uncached.  Cached work is free, so a
    query that answers from cleared memos answers the same once they are
    warm, and only one that raises from cleared memos may answer warm.  Of
    nested blocks the innermost holds, and the outer one is not charged."""
    global _meter
    outer, _meter = _meter, [0, 0, units]
    try:
        yield _meter
    finally:
        _meter = outer


def _charge(kind: int, amount: int) -> None:
    """Charge `amount` nodes (kind 0) or cells (1) to the innermost block."""
    if _meter is not None:
        _meter[kind] += amount
        if _meter[0] + _meter[1] > _meter[2]:
            raise ExtensionLimitExceeded("the query passed its work budget")


@lru_cache(maxsize=None)
def _cells(columns: frozenset) -> _CellTable:
    # Ordered by their spellings, which no interpreter run changes, so that
    # a column set always yields the same cells.
    bodies = sorted(columns, key=spelling) if len(columns) > 1 else [*columns]
    # each body's options: (bit, DNF of its negation or of itself)
    options = [[(0, _dnf(b, False, 0)), (1 << i, _dnf(b, True, 0))] for i, b in enumerate(bodies)]
    # A prefix keeps the satisfiable disjuncts of its merged DNF, and one
    # with none is cut: every disjunct below it is a superset of one of
    # them.  A leaf's first kept disjunct is its witnessing disjunct.
    cells = []
    stack = [(0, 0, [frozenset()])]  # (bodies chosen, mask, kept disjuncts)
    while stack:
        depth, mask, dnf = stack.pop()
        _charge(0, 1)
        if depth == len(bodies):
            cells.append((mask, tuple(dnf[0])))
            continue
        for bit, option_dnf in options[depth]:
            kept = list(_satisfiable(_merge(dnf, option_dnf)))
            if kept:
                stack.append((depth + 1, mask | bit, kept))
    cells.sort(key=lambda cell: cell[0])
    ones = tuple((i, 1) for i in range(len(cells)))
    # Every mask spelled in binary, w digits a cell, highest column first:
    # column i's digits over the cells are every w-th byte from w - 1 - i,
    # one slice that gives, reversed, its bitset, in time linear in the
    # cells, where summing 1 << j per cell is quadratic.
    w = len(bodies)
    digits = "".join([bin(m | 1 << w)[3:] for m, _ in cells]).encode()
    columns = {body: (i, int(digits[w - 1 - i :: w][::-1], 2)) for i, body in enumerate(bodies)}
    return _CellTable(tuple(d for _, d in cells), ones, columns)


_ONE = Fraction(1)


@lru_cache(maxsize=None)
def world_sat(bounds: frozenset) -> Optional[tuple]:
    """Decide a step by its signed bounds, of which there is at least one:
    the inhabited cells as (witnessing disjunct, mass), or None when they
    are unsatisfiable, reused at any step and beside any propositions.
    The lowest cell that satisfies every bound with mass 1 alone is the
    answer, when there is one; otherwise the simplex decides."""
    table = _cells(frozenset(_column(atom)[0] for _, atom in bounds))
    disjuncts = table.disjuncts
    # The cells whose 0/1 mass satisfies every bound: at mass 1 on one cell,
    # m(c) is 1 inside c and 0 outside, so L[r] c holds inside c and L[r] !c
    # outside it, r > 0 as the DNF settles L[0], and !L[r] flips the side.
    fits = (1 << len(disjuncts)) - 1
    for positive, atom in bounds:
        column, negated = _column(atom)
        inside = table.columns[column][1]
        fits &= inside if positive != negated else ~inside
    if fits:
        return ((disjuncts[(fits & -fits).bit_length() - 1], _ONE),)
    _charge(1, len(disjuncts))
    point = solve_rows(_cell_rows(table, bounds), range(len(disjuncts)))
    if point is None:
        return None
    return tuple((disjuncts[i], mass) for i, mass in point.items())


def _column(atom: AtLeast) -> tuple[Formula, bool]:
    """A bound atom's column, and whether it bounds the column's negation."""
    body = atom.body
    return (body.body, True) if isinstance(body, Not) else (body, False)


# ASCII binary digits to the bytes 0 and 1, of which only 1 is true
_ZERO_ONE = bytes.maketrans(b"01", b"\0\1")


def _cell_rows(table: _CellTable, bounds) -> list:
    """The LP of a step over the masses m_i of the table's cells, as rows
    for `solve_rows`, which states m_i >= 0 itself: sum(m_i) = 1, then one
    row per literal, sorted.  A row sums the masses of some cells, so it is
    their 0/1 indicator, already primitive with a positive lead: the entries
    of `ones` that the bits of the literal's column select, lowest first."""
    rows = [(table.ones, 1, Rel.EQ, True)]
    literals = []
    for positive, atom in bounds:
        column, negated = _column(atom)
        b, bits = table.columns[column]
        literals.append((b, atom.bound, negated, positive, bits))
    # With m(c) the mass of the cells inside column c, L[r] c reads
    # m(c) >= r and L[r] !c reads m(c) <= 1 - r; !L is strict the other way.
    # The first four keys tell every two literals apart.
    for b, r, negated, positive, bits in sorted(literals):
        # the bits spelled lowest first, one byte a cell: 1 selects the entry
        inside = tuple(compress(table.ones, bin(bits)[:1:-1].encode().translate(_ZERO_ONE)))
        relation = Rel.GE if positive else Rel.GT
        rows.append((inside, 1 - r if negated else r, relation, positive != negated))
    return rows


# ---------------------------------------------------------------------------
# Satisfiability, validity, witness extraction


class Verdict(NamedTuple):
    status: str  # "SAT" | "UNSAT"


def _plans(disjunct: Disjunct) -> Optional[dict[int, tuple]]:
    """The true propositions and the inhabited cells of every step of the
    disjunct, as {step: (props, cells)}, or None as soon as one step is
    unsatisfiable.  A step with no bounds inhabits no cell."""
    plans = {}
    for step, props, bounds in group_steps(disjunct):
        cells = world_sat(bounds) if bounds else ()
        if cells is None:
            return None
        plans[step] = props, cells
    return plans


def _satisfiable(disjuncts: Iterable[Disjunct]) -> Iterator[Disjunct]:
    """The disjuncts whose steps are all satisfiable, lazily."""
    return (d for d in disjuncts if _plans(d) is not None)


# Formulas whose search `_first_plans` remembers: enough for a witness query
# to follow its verdict's, with a bounded cost in memory.
_FIRST_PLANS_KEPT = 256


@lru_cache(maxsize=_FIRST_PLANS_KEPT)
def _first_plans(f: Formula) -> Optional[dict[int, tuple]]:
    """The plans of f's first satisfiable disjunct, as `_plans` gives them,
    or None when f is unsatisfiable: the search behind both the verdict and
    the witness.  The dict is shared by every caller and only read."""
    for d in to_disjuncts(f):
        plans = _plans(d)
        if plans is not None:
            return plans
    return None


@lru_cache(maxsize=None)
def sat_status(f: Formula) -> bool:
    """True iff f is satisfiable in some dynamic Markov model.  The plans its
    search finds are kept for `witness(f)`, for a bounded number of recent
    formulas."""
    return _first_plans(f) is not None


def clear_caches() -> None:
    """Forget every decided query: the `sat_status`, `_first_plans`,
    `world_sat` and cell table caches.  The verdicts and witnesses stay the
    same, only the work is redone."""
    sat_status.cache_clear()
    _first_plans.cache_clear()
    world_sat.cache_clear()
    _cells.cache_clear()


def conjoin(disjuncts: list[Disjunct], f: Formula) -> Iterator[Disjunct]:
    """The satisfiable disjuncts of the conjunction of f with a pruned DNF,
    lazily.  `[frozenset()]` is the DNF of the empty conjunction, and an
    empty result means the conjunction is unsatisfiable."""
    return _satisfiable(_merge(disjuncts, to_disjuncts(f)))


def sat(f: Formula) -> Verdict:
    """The verdict on f; `witness(f)` builds a model for a SAT one."""
    return Verdict("SAT" if sat_status(f) else "UNSAT")


def valid(f: Formula) -> bool:
    return not sat_status(Not(f))


def _build(model: FiniteDMM, plans: dict[int, tuple]) -> str:
    """Add to the model a sub-model satisfying a satisfiable disjunct, given
    by its plans, its worlds named in the order they are made, and return
    the world where the disjunct holds."""
    horizon = max(plans, default=0)
    chain = [f"w{len(model.worlds) + i}" for i in range(horizon + 1)]
    model.worlds.extend(chain)
    for i, w in enumerate(chain):
        model.successor[w] = chain[min(i + 1, horizon)]
        props, cells = plans.get(i, ((), ()))
        for p in props:
            model.valuation.setdefault(p, set()).add(w)
        # a world with no inhabited cell loops to itself
        row = {_build(model, _plans(d)): mass for d, mass in cells}
        model.kernel[w] = row or {w: _ONE}
    return chain[0]


def witness(f: Formula) -> Optional[tuple[FiniteDMM, str]]:
    """A finite model and root world satisfying f, or None when UNSAT.  It
    is built from the plans that the verdict's search found, when
    `sat_status(f)` ran recently; otherwise it repeats that search, and
    builds the same model."""
    plans = _first_plans(f)
    if plans is None:
        return None
    model = FiniteDMM([])
    return model, _build(model, plans)
