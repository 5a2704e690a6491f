"""Computable canonical-model toolkit: staged saturated-set prefixes, the
disagreement ultrametric, kernel value bounds, the basis intersection
function and the satisfaction function.

A prefix is built by the staged completion procedure: stage l decides the
l-th enumerated formula by the derivability oracle, adding the formula or
its negation, with a special case for next-prefixed probability-bound
stacks where a strictly smaller witness bound is refuted as well (its
existence is guaranteed by the generalized Archimedean rule).

The stage set is kept only as its pruned DNF (`decide.conjoin`): each
stage merges the DNF of the formula or negation it adds, and drops the
disjuncts that become unsatisfiable, the rule by which the cell walk keeps
each prefix's DNF.  A special-case stage merges only its witness refutation,
which entails the negation beside it (L_r theta entails L_s theta for s < r,
and L and X keep entailment).  An entailment query merges only the DNF of
the negated query, so no traversal walks the whole stage set.

The construction is deterministic: the enumeration is fixed, and each
cell table orders its columns by their prefix spellings, never by a hash,
so a seed and a budget give the same prefix in every run.

Membership queries beyond the built budget are answered exactly whenever
the current stage set already entails the formula or its negation (this
provably agrees with the staged bit), and otherwise by actually running
the remaining stages one at a time -- but only within two limits: a cap
on the number of stages, because stage indices grow exponentially with
formula size, and a work budget over the whole query (`decide.work_budget`,
one unit per cell-walk node and per LP cell), because the stages past
about 1060 walk and solve ever larger cell tables.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple, Optional

from . import decide
from .decide import conjoin, sat_status
from .enumeration import (
    ExtensionLimitExceeded,
    enum_formula,
    enum_rational,
    formula_index,
)
from .formula import And, AtLeast, Formula, Next, Not
from .parser import parse, render


# Stages one membership query may run past the built budget, and units of
# work it may spend, fast path included (`decide.work_budget`), before it
# gives up, as `proof._TAUT_SPLITS` bounds the tautology check.  A walk
# node and an LP cell each take about 20 us: from budget 1000 of
# L[1/2] p0 & X p1, member(L[1] X !X p0) stops inside stage 1084 after
# about 0.35 s, 17 601 nodes and 15 168 cells (Python 3.11, 2 vCPU).
_MAX_EXTENSION = 4096
_MEMBER_WORK = 1 << 15


class InconsistentSeed(ValueError):
    pass


class Interval(NamedTuple):
    lower: Fraction
    upper: Fraction


class StageRecord(NamedTuple):
    index: int
    case: int  # 1 = derivable, 2 = negation added, 3 = negation + witness bound
    formula: Formula
    extra: Optional[Formula] = None


def _bound_stack_pattern(f: Formula):
    """Decompose ◯^n L_{r1} ... L_{rk} L_r theta with a maximal bound stack
    (theta not bound-rooted); returns (n, outer_indices, r, theta) or None."""
    steps = 0
    while isinstance(f, Next):
        steps += 1
        f = f.body
    indices = []
    while isinstance(f, AtLeast):
        indices.append(f.bound)
        f = f.body
    if not indices:
        return None
    return steps, tuple(indices[:-1]), indices[-1], f


def _rebuild_stack(steps: int, outer, bound: Fraction, theta: Formula) -> Formula:
    f = AtLeast(bound, theta)
    for r in reversed(outer):
        f = AtLeast(r, f)
    for _ in range(steps):
        f = Next(f)
    return f


class SaturatedPrefix:
    """Finite decided initial segment of a computable saturated set.

    `extend` runs as many stages as asked.  `member` runs at most
    `_MAX_EXTENSION` stages past the built budget, and stops as soon as its
    query, fast path included, spends more than `_MEMBER_WORK` units of
    walk nodes and LP cells; both raise `ExtensionLimitExceeded`, and
    `member_or` maps that to its default."""

    def __init__(self, seed: Formula):
        self.seed = seed
        self.budget = 0
        self.decided: list[bool] = []
        self.extras: list[Formula] = []
        self.stage_log: list[StageRecord] = []
        # the stage set as its pruned DNF: only its satisfiable disjuncts
        self._dnf = list(conjoin([frozenset()], seed))
        if not self._dnf:
            raise InconsistentSeed(render(seed))

    # -- staged construction ------------------------------------------------

    def _entails(self, f: Formula) -> bool:
        return next(conjoin(self._dnf, Not(f)), None) is None

    def extend(self, budget: int) -> "SaturatedPrefix":
        """Run the stages below `budget` that are not built yet.  A stage is
        recorded only once it is decided, so a stage that raises leaves the
        prefix as it was after the one before."""
        for l in range(self.budget, budget):
            f = enum_formula(l)
            refuting = list(conjoin(self._dnf, Not(f)))
            if not refuting:
                record, dnf = StageRecord(l, 1, f), list(conjoin(self._dnf, f))
            else:
                pattern = _bound_stack_pattern(f)
                if pattern is None:
                    record, dnf = StageRecord(l, 2, f), refuting
                else:
                    extra = Not(self._witness_refutation(*pattern))
                    record = StageRecord(l, 3, f, extra)
                    dnf = list(conjoin(self._dnf, extra))
            self.decided.append(record.case == 1)
            self.stage_log.append(record)
            if record.extra is not None:
                self.extras.append(record.extra)
            self._dnf = dnf
            self.budget = l + 1
        return self

    def _witness_refutation(self, steps, outer, r, theta) -> Formula:
        """First bound s (in rational-enumeration order) with s < r whose
        stack is not derivable; exists because the stage set is consistent
        and does not derive the r-stack."""
        for k in range(100_001):
            s = enum_rational(k)
            if s < r and not self._entails(_rebuild_stack(steps, outer, s, theta)):
                return _rebuild_stack(steps, outer, s, theta)
        raise AssertionError("no witness bound found; stage set broken")

    # -- queries ------------------------------------------------------------

    def stage_set(self, upto: Optional[int] = None) -> list[Formula]:
        """The stage set after `upto` stages (default: all built stages)."""
        out = [self.seed]
        for rec in self.stage_log[: upto if upto is not None else self.budget]:
            out.append(rec.formula if rec.case == 1 else Not(rec.formula))
            if rec.extra is not None:
                out.append(rec.extra)
        return out

    def member(self, f: Formula) -> bool:
        """Whether f belongs to the saturated set this prefix approximates."""
        with decide.work_budget(_MEMBER_WORK):
            # fast path: agreement with the staged bit is guaranteed whenever
            # the current stage set decides f
            if self._entails(f):
                return True
            if self._entails(Not(f)):
                return False
            # exact path: run the remaining stages up to the formula's index
            idx = formula_index(f)
            if idx - self.budget > _MAX_EXTENSION:
                raise ExtensionLimitExceeded(
                    f"index {idx} of {render(f)} exceeds the extension cap"
                )
            self.extend(idx + 1)
        return self.decided[idx]

    def member_or(self, f: Formula, default: bool = False) -> bool:
        """member(), with queries past the stage cap or the work budget
        mapped to default."""
        try:
            return self.member(f)
        except ExtensionLimitExceeded:
            return default


def lindenbaum(seed: Formula, budget: int) -> SaturatedPrefix:
    """Run the staged construction for `budget` stages from a consistent seed."""
    return SaturatedPrefix(seed).extend(budget)


class Distance(NamedTuple):
    """d_c query result: exact value, or only an upper bound at this budget."""

    exact: bool
    value: Fraction


def metric_dc(w1: SaturatedPrefix, w2: SaturatedPrefix, budget: int) -> Distance:
    """First-disagreement distance 2^-n0, scanning indices below `budget`."""
    if budget < 0:
        raise ValueError(f"budget must be at least 0, not {budget}")
    w1.extend(budget)
    w2.extend(budget)
    for n in range(budget):
        if w1.decided[n] != w2.decided[n]:
            return Distance(True, Fraction(1, 2**n))
    return Distance(False, Fraction(1, 2**budget))


def kernel_bounds(w: SaturatedPrefix, f: Formula, grid: int) -> Interval:
    """Rational-grid bracket of the canonical kernel value of [f] at w.

    Queries the prefix on the grid bounds m/grid; queries that cannot be
    decided within the stage cap and the work budget are treated as
    non-members, which can only widen the bracket (the true value always
    lies inside it).
    """
    if grid < 1:
        raise ValueError(f"grid must be at least 1, not {grid}")
    lower = Fraction(0)
    for m in range(grid, -1, -1):
        r = Fraction(m, grid)
        if w.member_or(AtLeast(r, f)):
            lower = r
            break
    upper = Fraction(1)
    for m in range(grid + 1):
        r = Fraction(m, grid)
        if w.member_or(Not(AtLeast(r, f))):
            upper = r
            break
    return Interval(lower, max(lower, upper))


class NotFoundWithinBound(RuntimeError):
    def __init__(self, bound: int):
        self.bound = bound
        super().__init__(f"no equivalent formula below index {bound}")


def basis_intersection(i: int, j: int, search_bound: int) -> int:
    """Least l below the bound with phi_l provably equivalent to
    phi_i & phi_j."""
    target = And(enum_formula(i), enum_formula(j))
    for l in range(search_bound):
        candidate = enum_formula(l)
        if not sat_status(And(candidate, Not(target))) and not sat_status(
            And(target, Not(candidate))
        ):
            return l
    raise NotFoundWithinBound(search_bound)


def sat_function(w: SaturatedPrefix, i: int) -> int:
    """Canonical-model satisfaction bit of the i-th formula at w."""
    return 1 if w.member(enum_formula(i)) else 0


# -- serialization ----------------------------------------------------------


def prefix_to_dict(w: SaturatedPrefix) -> dict:
    return {
        "seed": render(w.seed),
        "budget": w.budget,
        "decided": [1 if bit else 0 for bit in w.decided],
        "extras": [render(f) for f in w.extras],
    }


def prefix_from_dict(data: dict) -> SaturatedPrefix:
    """Rebuild by re-running the (deterministic) construction and checking
    the stored bits against it."""
    w = lindenbaum(parse(data["seed"]), data["budget"])
    stored = [bool(b) for b in data["decided"]]
    if stored != w.decided:
        raise ValueError("stored bits disagree with the deterministic rebuild")
    return w


def save_prefix(w: SaturatedPrefix, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(prefix_to_dict(w), fh, indent=2)


def load_prefix(path: str) -> SaturatedPrefix:
    with open(path) as fh:
        return prefix_from_dict(json.load(fh))
