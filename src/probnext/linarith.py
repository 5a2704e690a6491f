"""Exact-rational linear constraint systems and their solver.

A constraint reads  sum(coeff * var) + constant  R  0  with R one of
>=, > and =;  "<=" and "<" are represented by negating the coefficients
and the constant.  `solve` (and `feasible`) decide a system with a general
simplex under Bland's rule, handling strict rows with delta-rationals.
The simplex runs on integers alone: its rows are integer vectors over a
positive integer denominator, its bounds are scaled once to integers, its
values are integer numerators, and delta is fixed by integer
cross-multiplication; a `Fraction` is made only for each nonzero
coordinate of the point.
Every front end states its problem as bounded rows: primitive integer
vectors, each with a bound, a relation and a direction.  One builder,
`_build`, turns them into a tableau, and only this module knows its format
and which slack stands for which row; one pivot loop, `_solve_tableau`,
solves it.  `solve` states one row per constraint of a `LinearSystem`, and
a caller that holds its rows already, such as `decide`'s cell step, whose
rows come from its cell table, hands them to `solve_rows` with the
variables that are at least 0, and gets the point's nonzero coordinates
back.
All arithmetic is exact over `int` and `fractions.Fraction` -- no floats
anywhere.  Coefficients may be `int`s or `Fraction`s.  (Fourier-Motzkin
elimination, the `Fraction`-tableau simplex that the integer rows
replaced, and the `Fraction`-valued pivot loop that the integer values
replaced, are the oracles the tests compare `solve` against.)
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional

from .record import MutableRecord


class Rel(Enum):
    GE = ">= 0"
    GT = "> 0"
    EQ = "= 0"


class Constraint(NamedTuple):
    """sum(coeff * var) + constant  relation  0; zero coefficients are not
    stored, and the others are sorted by variable."""

    coeffs: tuple[tuple[int, int | Fraction], ...]
    constant: Fraction
    relation: Rel


class LinearSystem(MutableRecord):
    _fields = ("constraints", "num_vars")

    def __init__(self, constraints: list[Constraint] | None = None, num_vars: int = 0):
        self.constraints = [] if constraints is None else constraints
        self.num_vars = num_vars


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
# J. Res. NBS 1967; Bareiss, Math. Comp. 1968) and integer values.
#
# Values and bounds are delta-rationals: a pair (c, k) reads c + k*delta for
# an infinitesimal delta > 0, and tuple order is the order of those reals.  A
# strict bound is a weak bound moved by a positive multiple of delta.  A
# tableau scales every bound once by the lcm of their denominators, so each
# bound, and each nonbasic value (always 0 or one of its bounds), is a pair of
# integers, `scale` times the delta-rational it stands for.  A positive scale
# keeps both the order of the pairs and every ratio that fixes delta, so the
# pivots, delta and the point are those of the unscaled values.
#
# A tableau row  basic -> (den, {nonbasic: num})  reads
# basic = sum(num * nonbasic) / den  with integers num and den > 0 and no
# common factor, so Bland's rule reads signs off the numerators.  A basic
# variable's value is kept as the integer pair sum(num * nonbasic value), its
# numerator over den.

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
    return _build(rows, ())


def _build(rows, nonnegative) -> Optional[tuple]:
    """Bounds and slack rows for `_solve_tableau`, with the scale of the
    bounds, or None when a constant row fails or some variable's bounds
    cross.

    The variables `nonnegative` are at least 0.  A row (p, bound, relation,
    rising) reads  sum(p_j x_j) >= bound  when rising and  <= bound  when
    not, strict for `Rel.GT`, and  = bound  for `Rel.EQ`; the bound is an
    `int` or a `Fraction`, and p = ((x_j, p_j), ...) is a primitive integer
    vector sorted by variable, with p_1 > 0.  An empty row is a constant
    check, and a one-variable row ((x, 1),) bounds x itself.  Each distinct
    longer row gets one slack s = sum(p_j x_j), numbered -1, -2, ... in row
    order, and a strict bound moves p_1 deltas inward.  A bound only ever
    tightens.  Every bound is stated times `scale`, the lcm of the rows'
    bound denominators, as a pair of integers.
    """
    scale = lcm(*(bound.denominator for _, bound, _, _ in rows))
    lower = dict.fromkeys(nonnegative, (0, 0))
    upper: dict = {}
    tableau: dict = {}  # basic variable -> (den, {nonbasic variable: numerator})
    slack_of: dict = {}  # row of two or more variables -> slack (negative id)
    originals = set(lower)
    for row, bound, relation, rising in rows:
        bound = bound.numerator * (scale // bound.denominator)
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
                originals.update(tableau[var][1])
        strict = scale * row[0][1] if relation is Rel.GT else 0
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
    return lower, upper, tableau, originals, scale


def _pivot(rows: dict, value: dict, s, x, target) -> None:
    """Move basic `s` onto `target` through nonbasic `x`, then swap the two
    in the basis."""
    d, row = rows.pop(s)
    n = row.pop(x)
    sign = 1 if n > 0 else -1
    den = sign * n  # the row of s had no common factor, so neither has x's
    xc, xk = value[x]
    sc, sk = value[s]
    # s = (n x + sum(row)) / d reaches target when x moves by (d target - N_s) / n,
    # with N_s = d s the numerator kept for s; x's numerator over den is then
    nc = den * xc + sign * (d * target[0] - sc)
    nk = den * xk + sign * (d * target[1] - sk)
    value[s] = target
    value[x] = (nc, nk)
    new = {v: -sign * b for v, b in row.items()}
    new[s] = sign * d
    for r, (e, other) in rows.items():
        b = other.pop(x, None)
        if b is None:
            continue
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
        # the numerator of r over e den is den (N_r - b x) + b N_x, exactly
        # divisible by g since the new row's values are integers
        rc, rk = value[r]
        value[r] = ((den * (rc - b * xc) + b * nc) // g, (den * (rk - b * xk) + b * nk) // g)
    rows[x] = (den, new)


def solve(system: LinearSystem) -> Optional[dict[int, Fraction]]:
    """A satisfying rational point, or None when infeasible: a value for
    every variable a constraint names."""
    tableau = _tableau(system)
    point = _solve_tableau(tableau)
    if point is None:
        return None
    return {var: point.get(var, _ZERO) for var in tableau[3]}


def solve_rows(rows, nonnegative) -> Optional[dict[int, Fraction]]:
    """The nonzero coordinates, in variable order, of a rational point whose
    variables `nonnegative` are at least 0 and which satisfies rows as
    `_build` reads them, or None when there is none."""
    return _solve_tableau(_build(rows, nonnegative))


def _solve_tableau(tableau: Optional[tuple]) -> Optional[dict]:
    """The nonzero coordinates, in variable order, of the point of a tableau
    built by `_build`, or None when there is none or it is infeasible; the
    one pivot loop.  It consumes the slack rows.

    The tableau rows are integer vectors over a positive denominator, and a
    pivot updates them by integer cross-multiplication and one gcd per row.
    The values are integers too: a nonbasic value is 0 or one of its scaled
    bounds, and a basic value is its numerator over its row's denominator,
    which a pivot refreshes in O(1) from the entering variable's.  So Bland's
    rule (smallest variable first, for both the leaving and the entering
    variable), which guarantees termination, and every bound check compare
    integer tuples.  The point is a vertex: beyond the variables pinned by
    their own bounds, at most one nonzero variable per tableau row.  Delta is
    then fixed, by integer cross-multiplication, to the largest value in
    (0, 1] that keeps every bound, so the result is exact; a `Fraction` is
    made only for each nonzero coordinate.
    """
    if tableau is None:
        return None
    lower, upper, rows, originals, scale = tableau
    zero = (0, 0)
    # an original starts at the bound nearest 0, or at 0 between its bounds
    # (they never cross); the slacks start basic
    value = dict.fromkeys(originals, zero)
    for var, lo in lower.items():
        if lo > zero and var not in rows:
            value[var] = lo
    for var, hi in upper.items():
        if hi < zero and var not in rows:
            value[var] = hi
    moved = [var for var in originals if value[var] is not zero]
    for s, (_, row) in rows.items():  # every slack row starts with den 1
        c = k = 0
        for x in moved:
            a = row.get(x)
            if a is not None:
                c += a * value[x][0]
                k += a * value[x][1]
        value[s] = (c, k)

    while True:
        for s in sorted(rows):
            d = rows[s][0]
            c, k = value[s]
            lo = lower.get(s)
            if lo is not None and (c, k) < (d * lo[0], d * lo[1]):
                target, rise = lo, True
                break
            hi = upper.get(s)
            if hi is not None and (c, k) > (d * hi[0], d * hi[1]):
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

    # delta = p / q, the least of 1 and every bound's room over its delta gap
    p = q = 1
    for bounds, below in ((lower, True), (upper, False)):
        for var, (bc, bk) in bounds.items():
            c, k = value[var]
            if var in rows:
                d = rows[var][0]
                bc, bk = d * bc, d * bk
            if below and bk > k:
                room, gap = c - bc, bk - k
            elif not below and bk < k:
                room, gap = bc - c, k - bk
            else:
                continue
            if room * q < p * gap:
                p, q = room, gap
    point = {}
    for var in sorted(originals):
        c, k = value[var]
        num = c * q + k * p
        if num:
            den = scale * q * (rows[var][0] if var in rows else 1)
            point[var] = Fraction(num, den)
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
