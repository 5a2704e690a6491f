"""Exact-rational linear constraint systems and their solver.

A constraint reads  sum(coeff * var) + constant  R  0  with R one of
>=, > and =;  "<=" and "<" are represented by negating the coefficients
and the constant.  `solve` (and `feasible`) decide a system with a general
simplex under Bland's rule, handling strict rows with delta-rationals.
All arithmetic is closed over `fractions.Fraction` -- no floats anywhere.
(Fourier-Motzkin elimination, which this simplex replaced, is the oracle
the tests compare `solve` against.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional


class Rel(Enum):
    GE = ">= 0"
    GT = "> 0"
    EQ = "= 0"


@dataclass(frozen=True)
class Constraint:
    """sum(coeff * var) + constant  relation  0; zero coefficients are not
    stored, and the others are sorted by variable."""

    coeffs: tuple[tuple[int, Fraction], ...]
    constant: Fraction
    relation: Rel


@dataclass
class LinearSystem:
    constraints: list[Constraint] = field(default_factory=list)
    num_vars: int = 0


def _constraint(coeffs: dict[int, Fraction], constant, relation: Rel) -> Constraint:
    items = tuple(sorted((v, Fraction(c)) for v, c in coeffs.items() if c != 0))
    return Constraint(items, Fraction(constant), relation)


def ge(coeffs: dict[int, Fraction], constant=Fraction(0)) -> Constraint:
    return _constraint(coeffs, constant, Rel.GE)


def gt(coeffs: dict[int, Fraction], constant=Fraction(0)) -> Constraint:
    return _constraint(coeffs, constant, Rel.GT)


def eq(coeffs: dict[int, Fraction], constant=Fraction(0)) -> Constraint:
    return _constraint(coeffs, constant, Rel.EQ)


def _constant_holds(value: Fraction, relation: Rel) -> bool:
    """Whether `value relation 0` holds."""
    if relation is Rel.GE:
        return value >= 0
    if relation is Rel.GT:
        return value > 0
    return value == 0


# ---------------------------------------------------------------------------
# Exact general simplex, after Dutertre & de Moura, "A Fast Linear-Arithmetic
# Solver for DPLL(T)", CAV 2006.
#
# Values and bounds are delta-rationals: a pair (c, k) reads c + k*delta for
# an infinitesimal delta > 0, and tuple order is the order of those reals.
# A strict bound is a weak bound moved by one delta.


def _tableau(system: LinearSystem):
    """Bounds and slack rows for `solve`; None when a constant row fails or
    some variable's bounds cross.

    Every non-constant row, scaled so its leading coefficient is 1, bounds
    one variable: a single-variable row bounds that variable itself, and a
    longer row bounds a slack s = sum(a_j x_j).  Rows whose scaled
    coefficients agree share one slack, so the tableau has one row per
    distinct multi-variable term.
    """
    lower: dict = {}
    upper: dict = {}
    rows: dict = {}  # basic variable -> {nonbasic variable: coefficient}
    slack_of: dict = {}  # scaled coefficients -> slack variable (negative id)
    originals: set[int] = set()
    for c in system.constraints:
        coeffs = c.coeffs
        if not coeffs:
            if not _constant_holds(c.constant, c.relation):
                return None
            continue
        lead = coeffs[0][1]
        if len(coeffs) == 1:
            var = coeffs[0][0]
        else:
            key = tuple((v, a / lead) for v, a in coeffs)
            var = slack_of.get(key)
            if var is None:
                var = slack_of[key] = -1 - len(slack_of)
                rows[var] = dict(key)
        originals.update(v for v, _ in coeffs)
        bound = -c.constant / lead
        strict = 1 if c.relation is Rel.GT else 0
        if c.relation is Rel.EQ or lead > 0:
            lo = (bound, strict)
            if var not in lower or lower[var] < lo:
                lower[var] = lo
        if c.relation is Rel.EQ or lead < 0:
            hi = (bound, -strict)
            if var not in upper or upper[var] > hi:
                upper[var] = hi
    for var in lower.keys() & upper.keys():
        if lower[var] > upper[var]:
            return None
    return lower, upper, rows, originals


def _shift(value, step_c, step_k):
    return (value[0] + step_c, value[1] + step_k)


def _pivot(rows: dict, value: dict, s, x, target) -> None:
    """Move basic `s` onto `target` through nonbasic `x`, then swap the two
    in the basis."""
    row = rows.pop(s)
    a = row.pop(x)
    step_c = (target[0] - value[s][0]) / a
    step_k = (target[1] - value[s][1]) / a
    value[s] = target
    value[x] = _shift(value[x], step_c, step_k)
    inv = 1 / a
    new = {v: -b * inv for v, b in row.items()}
    new[s] = inv
    for r, other in rows.items():
        b = other.pop(x, None)
        if b is None:
            continue
        value[r] = _shift(value[r], b * step_c, b * step_k)
        for v, d in new.items():
            t = other.get(v, 0) + b * d
            if t:
                other[v] = t
            else:
                del other[v]
    rows[x] = new


def solve(system: LinearSystem) -> Optional[dict[int, Fraction]]:
    """A satisfying rational point, or None when infeasible.

    Bland's rule (smallest variable first, for both the leaving and the
    entering variable) guarantees termination.  Nonbasic variables stay at
    0 or at one of their bounds, so the point is a vertex: beyond the
    variables pinned by their own bounds, at most one nonzero variable per
    tableau row.  Delta is then fixed to the largest value in (0, 1] that
    keeps every bound, so the result is exact.
    """
    tableau = _tableau(system)
    if tableau is None:
        return None
    lower, upper, rows, originals = tableau

    zero = (Fraction(0), Fraction(0))
    value: dict = {}
    for var in originals:
        lo, hi = lower.get(var), upper.get(var)
        if lo is not None and lo > zero:
            value[var] = lo
        elif hi is not None and hi < zero:
            value[var] = hi
        else:
            value[var] = zero
    for s, row in rows.items():
        value[s] = (
            sum((a * value[x][0] for x, a in row.items()), Fraction(0)),
            sum((a * value[x][1] for x, a in row.items()), Fraction(0)),
        )

    while True:
        for s in sorted(rows):
            lo, hi = lower.get(s), upper.get(s)
            if lo is not None and value[s] < lo:
                target, rise = lo, True
                break
            if hi is not None and value[s] > hi:
                target, rise = hi, False
                break
        else:
            break
        row = rows[s]
        for x in sorted(row):
            if (row[x] > 0) == rise:  # x must increase
                hi = upper.get(x)
                if hi is None or value[x] < hi:
                    break
            else:
                lo = lower.get(x)
                if lo is None or value[x] > lo:
                    break
        else:
            return None  # s is stuck short of its bound: the rows conflict
        _pivot(rows, value, s, x, target)

    delta = Fraction(1)
    for var, (c, k) in value.items():
        lo, hi = lower.get(var), upper.get(var)
        if lo is not None and lo[1] > k:
            delta = min(delta, (c - lo[0]) / (lo[1] - k))
        if hi is not None and hi[1] < k:
            delta = min(delta, (hi[0] - c) / (k - hi[1]))
    return {var: value[var][0] + value[var][1] * delta for var in originals}


def feasible(system: LinearSystem) -> bool:
    """Decide whether a rational point satisfies every constraint."""
    return solve(system) is not None


def satisfies(system: LinearSystem, assignment: dict[int, Fraction]) -> bool:
    """Exact substitution check."""
    return all(
        _constant_holds(
            c.constant + sum((a * assignment[v] for v, a in c.coeffs), Fraction(0)),
            c.relation,
        )
        for c in system.constraints
    )
