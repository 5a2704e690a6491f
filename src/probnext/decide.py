"""The decision procedure.

Pipeline:  expand the formula as written into a pruned DNF over
time-stamped atoms (a next-operator raises the time stamp of the atoms
below it), group each disjunct's literals by time step, and decide every
step independently.  A step's probability literals are decided by
carving the state space into cells (one per subset of the distinct
operator bodies), recursively deciding each cell and solving an exact
linear system over the satisfiable cells' masses.

A SAT answer can be turned into an explicit finite model whose root
world the model checker accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import linarith
from .formula import And, AtLeast, Formula, Next, Not, Prop, conj
from .models import FiniteDMM
from .parser import render


# ---------------------------------------------------------------------------
# Next-operator normalization (a public helper; the pipeline below reads
# next-operators as time stamps instead)


def push_next(f: Formula) -> Formula:
    """Equivalent formula in which every next-operator sits directly above a
    proposition, another next, or a probability atom (whose body is itself
    normalized)."""
    if isinstance(f, Prop):
        return f
    if isinstance(f, Not):
        return Not(push_next(f.body))
    if isinstance(f, And):
        return And(push_next(f.left), push_next(f.right))
    if isinstance(f, AtLeast):
        return AtLeast(f.bound, push_next(f.body))
    if isinstance(f, Next):
        return _shift(push_next(f.body))
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
# An atom is ("p", step, prop_id) or ("L", step, bound, body); a literal is
# (polarity, atom); a disjunct is a frozenset of literals with no clashing
# pair.  Disjunct lists are kept as subset-minimal antichains: dropping a
# superset of another disjunct preserves logical equivalence of the
# disjunction.

Literal = tuple
Disjunct = frozenset


def _literal_key(lit: Literal):
    polarity, atom = lit
    if atom[0] == "p":
        return (atom[1], 0, atom[2], not polarity)
    return (atom[1], 1, atom[2], render(atom[3]), not polarity)


def _antichain(disjuncts) -> list[Disjunct]:
    ordered = sorted(set(disjuncts), key=len)
    kept: list[Disjunct] = []
    for d in ordered:
        if not any(k <= d for k in kept):
            kept.append(d)
    return kept


def _merge(left: list[Disjunct], right: list[Disjunct]) -> list[Disjunct]:
    out = []
    for a in left:
        for b in right:
            clash = any((not pol, atom) in a for pol, atom in b)
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
        return [frozenset({(polarity, ("p", step, f.index))})]
    if isinstance(f, AtLeast):
        return [frozenset({(polarity, ("L", step, f.bound, f.body))})]
    raise TypeError(f"not a formula: {f!r}")


def to_disjuncts(f: Formula) -> list[Disjunct]:
    """Pruned DNF of f over time-stamped atoms, in a deterministic order.

    Probability atoms keep their bodies as written; every cell formula
    built from them is decided by its own DNF.
    """
    return sorted(
        _dnf(f, True, 0), key=lambda d: sorted(map(_literal_key, d))
    )


# ---------------------------------------------------------------------------
# Step requirements


@dataclass(frozen=True)
class StepRequirement:
    step: int
    pos_props: frozenset[int] = frozenset()
    neg_props: frozenset[int] = frozenset()
    pos_bounds: tuple[tuple[Fraction, Formula], ...] = ()
    neg_bounds: tuple[tuple[Fraction, Formula], ...] = ()


def group_steps(disjunct: Disjunct) -> list[StepRequirement]:
    """One requirement per time index occurring in the disjunct."""
    buckets: dict[int, dict[str, list]] = {}
    for polarity, atom in disjunct:
        step = atom[1]
        b = buckets.setdefault(
            step, {"pp": [], "np": [], "pl": [], "nl": []}
        )
        if atom[0] == "p":
            b["pp" if polarity else "np"].append(atom[2])
        else:
            b["pl" if polarity else "nl"].append((atom[2], atom[3]))
    out = []
    for step in sorted(buckets):
        b = buckets[step]
        key = lambda pair: (pair[0], render(pair[1]))
        out.append(
            StepRequirement(
                step=step,
                pos_props=frozenset(b["pp"]),
                neg_props=frozenset(b["np"]),
                pos_bounds=tuple(sorted(set(b["pl"]), key=key)),
                neg_bounds=tuple(sorted(set(b["nl"]), key=key)),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Per-world satisfiability over measure cells


@dataclass(frozen=True)
class WorldPlan:
    """Witnessing data for one satisfiable step requirement: the valuation
    literals plus a rational mass for each inhabited cell formula."""

    pos_props: frozenset[int]
    cells: tuple[tuple[Formula, Fraction], ...]


def world_sat(req: StepRequirement) -> Optional[WorldPlan]:
    """Decide one step requirement; None means unsatisfiable.

    The current world's valuation is independent of its kernel, so the
    propositional part is a pure clash check.  The probability part is
    decided by the cell construction over the distinct operator bodies.
    """
    return _world_sat(req.pos_props, req.neg_props, req.pos_bounds, req.neg_bounds)


# Keyed without the step, so a requirement at one step reuses the plan
# found for the same literals at another.
@lru_cache(maxsize=None)
def _world_sat(pos_props, neg_props, pos_bounds, neg_bounds) -> Optional[WorldPlan]:
    if pos_props & neg_props:
        return None
    if not pos_bounds and not neg_bounds:
        return WorldPlan(pos_props, ())

    bodies = []
    for _, body in pos_bounds + neg_bounds:
        if body not in bodies:
            bodies.append(body)
    bodies.sort(key=render)

    sat_cells: list[tuple[int, Formula]] = []  # (bitmask over bodies, cell formula)
    for mask in range(1 << len(bodies)):
        parts = [
            b if mask & (1 << i) else Not(b) for i, b in enumerate(bodies)
        ]
        delta = conj(parts)
        if sat_status(delta):
            sat_cells.append((mask, delta))

    system = linarith.LinearSystem(num_vars=len(sat_cells))
    system.constraints.append(
        linarith.eq({i: Fraction(1) for i in range(len(sat_cells))}, Fraction(-1))
    )
    for i in range(len(sat_cells)):
        system.constraints.append(linarith.ge({i: Fraction(1)}))
    for bound, body in pos_bounds:
        b = bodies.index(body)
        coeffs = {
            i: Fraction(1) for i, (mask, _) in enumerate(sat_cells) if mask & (1 << b)
        }
        system.constraints.append(linarith.ge(coeffs, -bound))
    for bound, body in neg_bounds:
        b = bodies.index(body)
        coeffs = {
            i: Fraction(-1)
            for i, (mask, _) in enumerate(sat_cells)
            if mask & (1 << b)
        }
        system.constraints.append(linarith.gt(coeffs, bound))

    point = linarith.solve(system)
    if point is None:
        return None
    cells = tuple(
        (delta, point[i])
        for i, (_, delta) in enumerate(sat_cells)
        if point[i] > 0
    )
    return WorldPlan(pos_props, cells)


# ---------------------------------------------------------------------------
# Satisfiability, validity, witness extraction


@dataclass(frozen=True)
class Verdict:
    status: str  # "SAT" | "UNSAT"


@lru_cache(maxsize=None)
def sat_status(f: Formula) -> bool:
    """True iff f is satisfiable in some dynamic Markov model."""
    for disjunct in to_disjuncts(f):
        if all(world_sat(req) is not None for req in group_steps(disjunct)):
            return True
    return False


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

    def build_for(self, f: Formula) -> str:
        """Add a sub-model satisfying f at the returned world."""
        for disjunct in to_disjuncts(f):
            reqs = group_steps(disjunct)
            plans = {req.step: world_sat(req) for req in reqs}
            if all(plan is not None for plan in plans.values()):
                return self._build_trajectory(plans)
        raise AssertionError(f"witness requested for unsatisfiable formula: {f!r}")

    def _build_trajectory(self, plans: dict[int, WorldPlan]) -> str:
        horizon = max(plans, default=0)
        chain = [self.new_world() for _ in range(horizon + 1)]
        for i, w in enumerate(chain):
            self.successor[w] = chain[i + 1] if i + 1 <= horizon else w
            plan = plans.get(i)
            if plan is None:
                self.kernel[w] = {w: Fraction(1)}
                continue
            for p in plan.pos_props:
                self.valuation.setdefault(p, set()).add(w)
            if not plan.cells:
                self.kernel[w] = {w: Fraction(1)}
            else:
                row: dict[str, Fraction] = {}
                for delta, mass in plan.cells:
                    row[self.build_for(delta)] = mass
                self.kernel[w] = row
        return chain[0]

    def finish(self) -> FiniteDMM:
        return FiniteDMM(self.worlds, self.valuation, self.kernel, self.successor)


def witness(f: Formula) -> Optional[tuple[FiniteDMM, str]]:
    """A finite model and root world satisfying f, or None when UNSAT."""
    if not sat_status(f):
        return None
    builder = _ModelBuilder()
    root = builder.build_for(f)
    return builder.finish(), root
