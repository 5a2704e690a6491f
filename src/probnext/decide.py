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
cells' masses.  A cell is a bitmask over the columns, kept with its
witnessing disjunct: the first satisfiable disjunct of its DNF.  The
satisfiable cells of a column set are found once, by one walk over the
columns in the order of their prefix spellings (`enumeration.spelling`)
that merges each prefix's DNF with the DNF of one column or of its
negation, keeps only the satisfiable disjuncts of the merge, as `conjoin`
does, and cuts every prefix left with none.  They are kept in a cell table
that each step over the same columns reuses.  The walk counts the nodes it
pops in `walk_nodes`, the cost meter of `canonical`'s membership queries.
A step's LP over the masses of its cells is stated as 0/1 indicator rows
over the cell masks: one per mass for its non-negativity, one for the
masses' sum and one per bound.  `linarith.solve_rows` builds its tableau
and solves it, with no `LinearSystem` built.

A SAT answer can be turned into an explicit finite model whose root
world the model checker accepts; each inhabited cell's sub-model is
built from its witnessing disjunct.  `conjoin` extends a pruned DNF by
one more conjunct and keeps only its satisfiable disjuncts, so a long
conjunction that grows one conjunct at a time can be kept as that list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional

from .enumeration import spelling
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
    return _antichain(out)


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


@dataclass(frozen=True, slots=True)
class _CellTable:
    """The satisfiable cells over one set of columns.  `column_of` maps each
    column to its index, in spelling order; `cells` holds (bitmask over the
    columns, the cell's witnessing disjunct) in increasing mask order."""

    column_of: dict
    cells: tuple[tuple[int, Disjunct], ...]


# Nodes the cell walk has popped since import, over every table it built:
# the cost meter of `canonical`'s membership queries.
walk_nodes = 0


@lru_cache(maxsize=None)
def _cells(columns: frozenset) -> _CellTable:
    # Ordered by their spellings, which no interpreter run changes, so that
    # a column set always yields the same cells.
    bodies = sorted(columns, key=spelling)
    # each body's options: (bit, DNF of its negation or of itself)
    options = [[(0, _dnf(b, False, 0)), (1 << i, _dnf(b, True, 0))] for i, b in enumerate(bodies)]
    # A prefix keeps the satisfiable disjuncts of its merged DNF, and one
    # with none is cut: every disjunct below it is a superset of one of
    # them.  A leaf's first kept disjunct is its witnessing disjunct.
    cells = []
    stack = [(0, 0, [frozenset()])]  # (bodies chosen, mask, kept disjuncts)
    global walk_nodes
    while stack:
        depth, mask, dnf = stack.pop()
        walk_nodes += 1
        if depth == len(bodies):
            cells.append((mask, dnf[0]))
            continue
        for bit, option_dnf in options[depth]:
            kept = list(_satisfiable_merge(dnf, option_dnf))
            if kept:
                stack.append((depth + 1, mask | bit, kept))
    cells.sort(key=lambda cell: cell[0])
    return _CellTable({b: i for i, b in enumerate(bodies)}, tuple(cells))


@lru_cache(maxsize=None)
def world_sat(bounds: frozenset) -> Optional[tuple]:
    """Decide a step by its signed bounds, of which there is at least one:
    the inhabited cells as (witnessing disjunct, mass), or None when they
    are unsatisfiable, reused at any step and beside any propositions."""
    table = _cells(frozenset(_column(atom)[0] for _, atom in bounds))
    point = solve_rows(_cell_rows(table, bounds))
    if point is None:
        return None
    return tuple((d, point[i]) for i, (_, d) in enumerate(table.cells) if point[i] > 0)


def _column(atom: AtLeast) -> tuple[Formula, bool]:
    """A bound atom's column, and whether it bounds the column's negation."""
    body = atom.body
    return (body.body, True) if isinstance(body, Not) else (body, False)


def _cell_rows(table: _CellTable, bounds) -> list:
    """The LP of a step over the masses m_i of the table's cells, as rows
    for `solve_rows`: m_i >= 0 for each cell, sum(m_i) = 1, then one row
    per literal, sorted.  A row sums the masses of some cells, so it is
    their 0/1 indicator, already primitive with a positive lead."""
    cells = table.cells
    zero = Fraction(0)
    rows = [(((i, 1),), zero, Rel.GE, True) for i in range(len(cells))]
    rows.append((tuple((i, 1) for i in range(len(cells))), Fraction(1), Rel.EQ, True))
    literals = []
    for positive, atom in bounds:
        column, negated = _column(atom)
        literals.append((table.column_of[column], atom.bound, negated, positive))
    # With m(c) the mass of the cells inside column c, L[r] c reads
    # m(c) >= r and L[r] !c reads m(c) <= 1 - r; !L is strict the other way.
    for b, r, negated, positive in sorted(literals):
        inside = tuple((i, 1) for i, (mask, _) in enumerate(cells) if mask >> b & 1)
        relation = Rel.GE if positive else Rel.GT
        rows.append((inside, 1 - r if negated else r, relation, positive != negated))
    return rows


# ---------------------------------------------------------------------------
# Satisfiability, validity, witness extraction


@dataclass(frozen=True)
class Verdict:
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


def _witnessing(disjuncts: list[Disjunct]) -> Optional[Disjunct]:
    """The first disjunct whose steps are all satisfiable, or None."""
    return next((d for d in disjuncts if _plans(d) is not None), None)


def _satisfiable_merge(left: list[Disjunct], right: list[Disjunct]) -> Iterator[Disjunct]:
    """The satisfiable disjuncts of the merge of two pruned DNFs, lazily."""
    return (d for d in _merge(left, right) if _plans(d) is not None)


@lru_cache(maxsize=None)
def sat_status(f: Formula) -> bool:
    """True iff f is satisfiable in some dynamic Markov model."""
    return _witnessing(to_disjuncts(f)) is not None


def clear_caches() -> None:
    """Forget every decided query: the `sat_status`, `world_sat` and cell
    table caches.  The verdicts stay the same, only the work is redone."""
    sat_status.cache_clear()
    world_sat.cache_clear()
    _cells.cache_clear()


def conjoin(disjuncts: list[Disjunct], f: Formula) -> Iterator[Disjunct]:
    """The satisfiable disjuncts of the conjunction of f with a pruned DNF,
    lazily.  `[frozenset()]` is the DNF of the empty conjunction, and an
    empty result means the conjunction is unsatisfiable."""
    return _satisfiable_merge(disjuncts, to_disjuncts(f))


def sat(f: Formula) -> Verdict:
    """The verdict on f; `witness(f)` builds a model for a SAT one."""
    return Verdict("SAT" if sat_status(f) else "UNSAT")


def valid(f: Formula) -> bool:
    return not sat_status(Not(f))


class _ModelBuilder:
    def __init__(self):
        self.counter = 0
        self.worlds: list[str] = []
        self.valuation: dict[int, set[str]] = {}
        self.kernel: dict[str, dict[str, Fraction]] = {}
        self.successor: dict[str, str] = {}

    def new_world(self) -> str:
        w = f"w{self.counter}"
        self.counter += 1
        self.worlds.append(w)
        return w

    def build(self, disjunct: Disjunct) -> str:
        """Add a sub-model satisfying a satisfiable disjunct at the returned
        world."""
        plans = _plans(disjunct)
        horizon = max(plans, default=0)
        chain = [self.new_world() for _ in range(horizon + 1)]
        for i, w in enumerate(chain):
            self.successor[w] = chain[i + 1] if i < horizon else w
            props, cells = plans.get(i, ((), ()))
            for p in props:
                self.valuation.setdefault(p, set()).add(w)
            # a world with no inhabited cell loops to itself
            row = {self.build(d): mass for d, mass in cells}
            self.kernel[w] = row or {w: Fraction(1)}
        return chain[0]

    def finish(self) -> FiniteDMM:
        return FiniteDMM(self.worlds, self.valuation, self.kernel, self.successor)


def witness(f: Formula) -> Optional[tuple[FiniteDMM, str]]:
    """A finite model and root world satisfying f, or None when UNSAT."""
    d = _witnessing(to_disjuncts(f))
    if d is None:
        return None
    builder = _ModelBuilder()
    root = builder.build(d)
    return builder.finish(), root
