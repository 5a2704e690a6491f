"""Exact-rational linear constraint systems and their solver.

A constraint reads  sum(coeff * var) + constant  R  0  with R one of
>=, > and =;  "<=" and "<" are represented by negating the coefficients
and the constant.  `solve` (and `feasible`) decide a system with a general
simplex under Bland's rule, handling strict rows with delta-rationals.
The simplex is fraction-free: its rows are integer vectors over a positive
integer denominator, and only values, bounds and delta are `Fraction`s.
Every front end states its problem as bounded rows: primitive integer
vectors, each with a bound, a relation and a direction.  One builder,
`_build`, turns them into a tableau, and only this module knows its format
and which slack stands for which row; one pivot loop, `_solve_tableau`,
solves it.  `solve` states one row per constraint of a `LinearSystem`, and
a caller that holds its rows already, such as `decide`'s cell step, hands
them to `solve_rows`.
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


def _constant_holds(value: Fraction, relation: Rel) -> bool:
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
    """The tableau of a system, one row per constraint.  The coefficients,
    scaled by the lcm of their denominators and divided by their gcd, become
    a primitive integer vector p with a positive lead p_1, and the constant,
    scaled alike and negated, bounds sum(p_j x_j) below, or above when the
    scale is negative; rows equal up to a rational scale share one vector,
    so one slack.  That sum is p_1 times the row scaled to lead 1, so every
    pivot, and the point, are those of the rows scaled to lead 1."""
    rows = []
    for c in system.constraints:
        coeffs = c.coeffs
        scale = lcm(*(a.denominator for _, a in coeffs))
        ints = [a.numerator * (scale // a.denominator) for _, a in coeffs]
        g = gcd(*ints) or 1  # no coefficient: the empty row
        if ints and ints[0] < 0:
            g = -g
        row = tuple((v, n // g) for (v, _), n in zip(coeffs, ints))
        rows.append((row, c.constant * -scale / g, c.relation, g > 0))
    return _build(rows)


def _build(rows) -> Optional[tuple]:
    """Bounds and slack rows for `_solve_tableau`, or None when a constant
    row fails or some variable's bounds cross.

    A row (p, bound, relation, rising) reads  sum(p_j x_j) >= bound  when
    rising and  <= bound  when not, strict for `Rel.GT`, and  = bound  for
    `Rel.EQ`; p = ((x_j, p_j), ...) is a primitive integer vector sorted by
    variable, with p_1 > 0.  An empty row is a constant check, and a
    one-variable row ((x, 1),) bounds x itself.  Each distinct longer row
    gets one slack s = sum(p_j x_j), numbered -1, -2, ... in row order, and
    a strict bound moves p_1 deltas inward.  A bound only ever tightens.
    """
    lower: dict = {}
    upper: dict = {}
    tableau: dict = {}  # basic variable -> (den, {nonbasic variable: numerator})
    slack_of: dict = {}  # row of two or more variables -> slack (negative id)
    originals: set[int] = set()
    for row, bound, relation, rising in rows:
        if not row:
            if not _constant_holds(-bound if rising else bound, relation):
                return None
            continue
        if len(row) == 1:
            var = row[0][0]
            originals.add(var)
        else:
            var = slack_of.get(row)
            if var is None:
                var = slack_of[row] = -1 - len(slack_of)
                tableau[var] = (1, dict(row))
                originals.update(v for v, _ in row)
        strict = Fraction(row[0][1]) if relation is Rel.GT else _ZERO
        if relation is Rel.EQ or rising:
            lo = (bound, strict)
            if var not in lower or lower[var] < lo:
                lower[var] = lo
        if relation is Rel.EQ or not rising:
            hi = (bound, -strict)
            if var not in upper or upper[var] > hi:
                upper[var] = hi
        if var in lower and var in upper and lower[var] > upper[var]:
            return None
    return lower, upper, tableau, originals


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
    return _solve_tableau(_tableau(system))


def solve_rows(rows) -> Optional[dict[int, Fraction]]:
    """A rational point satisfying rows as `_build` reads them, or None."""
    return _solve_tableau(_build(rows))


def _solve_tableau(tableau: Optional[tuple]) -> Optional[dict]:
    """The point of a tableau built by `_build`, or None when there is none
    or it is infeasible; the one pivot loop.  It consumes the slack rows.

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
    if tableau is None:
        return None
    lower, upper, rows, originals = tableau
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
        _constant_holds(
            c.constant + sum((a * assignment[v] for v, a in c.coeffs), Fraction(0)),
            c.relation,
        )
        for c in system.constraints
    )
