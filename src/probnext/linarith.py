"""Exact-rational linear constraint systems and their solver.

A constraint reads  sum(coeff * var) + constant  R  0  with R one of
>=, > and =;  "<=" and "<" are represented by negating the coefficients
and the constant.  `solve` (and `feasible`) decide a system with a general
simplex under Bland's rule, handling strict rows with delta-rationals.
The simplex is fraction-free: its rows are integer vectors over a positive
integer denominator, and only values, bounds and delta are `Fraction`s.
`solve` is the general front end: it turns a `LinearSystem` into variable
bounds and slack rows.  A caller that already holds its rows as primitive
integer vectors, such as `decide`'s cell step, builds that tableau itself
with `tighten` and hands it to `solve_tableau`, the one pivot loop.
All arithmetic is exact over `int` and `fractions.Fraction` -- no floats
anywhere.  Coefficients may be `int`s or `Fraction`s.  (Fourier-Motzkin
elimination, and the `Fraction`-tableau simplex that the integer rows
replaced, are the oracles the tests compare `solve` against.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Optional


class Rel(Enum):
    GE = ">= 0"
    GT = "> 0"
    EQ = "= 0"


@dataclass(frozen=True)
class Constraint:
    """sum(coeff * var) + constant  relation  0; zero coefficients are not
    stored, and the others are sorted by variable."""

    coeffs: tuple[tuple[int, int | Fraction], ...]
    constant: Fraction
    relation: Rel


@dataclass
class LinearSystem:
    constraints: list[Constraint] = field(default_factory=list)
    num_vars: int = 0


def _constraint(coeffs: dict[int, int | Fraction], constant, relation: Rel) -> Constraint:
    """`int` coefficients stay `int`s; any other is made a `Fraction`."""
    items = (
        (v, c if type(c) is int else Fraction(c)) for v, c in coeffs.items() if c != 0
    )
    return Constraint(tuple(sorted(items)), Fraction(constant), relation)


def ge(coeffs: dict[int, Fraction], constant=Fraction(0)) -> Constraint:
    return _constraint(coeffs, constant, Rel.GE)


def gt(coeffs: dict[int, Fraction], constant=Fraction(0)) -> Constraint:
    return _constraint(coeffs, constant, Rel.GT)


def eq(coeffs: dict[int, Fraction], constant=Fraction(0)) -> Constraint:
    return _constraint(coeffs, constant, Rel.EQ)


def constant_holds(value: Fraction, relation: Rel) -> bool:
    """Whether `value relation 0` holds."""
    if relation is Rel.GE:
        return value >= 0
    if relation is Rel.GT:
        return value > 0
    return value == 0


# ---------------------------------------------------------------------------
# Exact general simplex, after Dutertre & de Moura, "A Fast Linear-Arithmetic
# Solver for DPLL(T)", CAV 2006, with fraction-free integer rows (Edmonds,
# J. Res. NBS 1967; Bareiss, Math. Comp. 1968).
#
# Values and bounds are delta-rationals: a pair (c, k) of Fractions reads
# c + k*delta for an infinitesimal delta > 0, and tuple order is the order of
# those reals.  A strict bound is a weak bound moved by a positive multiple of
# delta.  Both parts are always Fractions, so mixing them with the integer rows
# never divides one int by another.
#
# A tableau row  basic -> (den, {nonbasic: num})  reads
# basic = sum(num * nonbasic) / den  with integers num and den > 0 and no
# common factor, so Bland's rule reads signs off the numerators.

_ZERO = Fraction(0)


def _tableau(system: LinearSystem):
    """Bounds and slack rows of a system for `solve_tableau`; None when a
    constant row fails or some variable's bounds cross.

    A single-variable row bounds that variable itself.  A longer row,
    scaled by the lcm of its coefficient denominators and divided by their
    gcd, becomes a primitive integer vector p with a positive leading entry
    p_1, and bounds the slack s = sum(p_j x_j) below, or above when the
    scale is negative.  Rows equal up to a rational scale have one vector
    and share one slack, so the tableau has one row per distinct
    multi-variable term.  The slack is p_1 times the row scaled to a leading
    coefficient of 1, so a strict bound on it moves by p_1 deltas: every
    pivot, and the point, are those of the rows scaled to lead 1.
    """
    lower: dict = {}
    upper: dict = {}
    rows: dict = {}  # basic variable -> (den, {nonbasic variable: numerator})
    slack_of: dict = {}  # primitive integer row -> slack variable (negative id)
    originals: set[int] = set()
    for c in system.constraints:
        coeffs = c.coeffs
        if not coeffs:
            if not constant_holds(c.constant, c.relation):
                return None
            continue
        if len(coeffs) == 1:
            var, lead = coeffs[0]
            bound = c.constant / -lead if c.constant else _ZERO
            rising, unit = lead > 0, 1
        else:
            scale = lcm(*(a.denominator for _, a in coeffs))
            ints = [a.numerator * (scale // a.denominator) for _, a in coeffs]
            g = gcd(*ints)
            if ints[0] < 0:
                g = -g
            key = tuple((v, n // g) for (v, _), n in zip(coeffs, ints))
            var = slack_of.get(key)
            if var is None:
                var = slack_of[key] = -1 - len(slack_of)
                rows[var] = (1, dict(key))
            bound = c.constant * -scale / g
            rising, unit = g > 0, key[0][1]
        originals.update(v for v, _ in coeffs)
        if not tighten(lower, upper, var, bound, c.relation, rising, unit):
            return None
    return lower, upper, rows, originals


def tighten(lower: dict, upper: dict, var, bound, relation: Rel, rising: bool, unit=1):
    """Narrow the bounds of `var` by one row: var >= bound when `rising`,
    var <= bound when not, and both for an equality.  A strict row moves
    its bound `unit` deltas inward, and a bound only ever tightens.  False
    when the bounds of `var` cross."""
    strict = Fraction(unit) if relation is Rel.GT else _ZERO
    if relation is Rel.EQ or rising:
        lo = (bound, strict)
        if var not in lower or lower[var] < lo:
            lower[var] = lo
    if relation is Rel.EQ or not rising:
        hi = (bound, -strict)
        if var not in upper or upper[var] > hi:
            upper[var] = hi
    lo, hi = lower.get(var), upper.get(var)
    return lo is None or hi is None or lo <= hi


def _shift(value, step_c, step_k):
    return (value[0] + step_c, value[1] + step_k)


def _pivot(rows: dict, value: dict, s, x, target) -> None:
    """Move basic `s` onto `target` through nonbasic `x`, then swap the two
    in the basis."""
    d, row = rows.pop(s)
    n = row.pop(x)
    # s = (n x + sum(row)) / d, so  x = (d s - sum(row)) / n
    step_c = (target[0] - value[s][0]) * d / n
    step_k = (target[1] - value[s][1]) * d / n
    value[s] = target
    value[x] = _shift(value[x], step_c, step_k)
    sign = 1 if n > 0 else -1
    new = {v: -sign * b for v, b in row.items()}
    new[s] = sign * d
    den = sign * n  # the row of s had no common factor, so neither has this
    for r, (e, other) in rows.items():
        b = other.pop(x, None)
        if b is None:
            continue
        value[r] = _shift(value[r], b * step_c / e, b * step_k / e)
        # r = (sum(other) + b x) / e = (den sum(other) + b sum(new)) / (den e)
        if den != 1:
            for v in other:
                other[v] *= den
        for v, a in new.items():
            t = other.get(v, 0) + b * a
            if t:
                other[v] = t
            else:
                del other[v]
        g = gcd(e * den, *other.values())
        if g != 1:
            for v in other:
                other[v] //= g
        rows[r] = (e * den // g, other)
    rows[x] = (den, new)


def solve(system: LinearSystem) -> Optional[dict[int, Fraction]]:
    """A satisfying rational point, or None when infeasible."""
    tableau = _tableau(system)
    return None if tableau is None else solve_tableau(*tableau)


def solve_tableau(lower: dict, upper: dict, rows: dict, originals) -> Optional[dict]:
    """The point of a tableau built as `_tableau` builds one, or None when
    it is infeasible; the pivot loop of every front end.  It consumes `rows`.

    The tableau rows are integer vectors over a positive denominator, and a
    pivot updates them by integer cross-multiplication and one gcd per row;
    only values, bounds and delta are `Fraction`s.  Bland's rule (smallest
    variable first, for both the leaving and the entering variable)
    guarantees termination.  Nonbasic variables stay at 0 or at one of
    their bounds, so the point is a vertex: beyond the variables pinned by
    their own bounds, at most one nonzero variable per tableau row.  Delta
    is then fixed to the largest value in (0, 1] that keeps every bound, so
    the result is exact.
    """
    zero = (_ZERO, _ZERO)
    value: dict = {}
    for var in originals:
        lo, hi = lower.get(var), upper.get(var)
        if lo is not None and lo > zero:
            value[var] = lo
        elif hi is not None and hi < zero:
            value[var] = hi
        else:
            value[var] = zero
    moved = [var for var in originals if value[var] is not zero]
    for s, (_, row) in rows.items():  # every slack row starts with den 1
        c = k = _ZERO
        for x in moved:
            a = row.get(x)
            if a is not None:
                c += a * value[x][0]
                k += a * value[x][1]
        value[s] = (c, k)

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
        _, row = rows[s]
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
    point = {}
    for var in originals:
        c, k = value[var]
        point[var] = c + k * delta if k else c
    return point


def feasible(system: LinearSystem) -> bool:
    """Decide whether a rational point satisfies every constraint."""
    return solve(system) is not None


def satisfies(system: LinearSystem, assignment: dict[int, Fraction]) -> bool:
    """Exact substitution check."""
    return all(
        constant_holds(
            c.constant + sum((a * assignment[v] for v, a in c.coeffs), Fraction(0)),
            c.relation,
        )
        for c in system.constraints
    )
