"""Shared test utilities: seeded random formulas and axiom-scheme instances,
and the replaced algorithms kept as differential oracles."""

from __future__ import annotations

import dataclasses
import importlib.util
import random
import re
import resource
from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import gcd, lcm
from pathlib import Path
from typing import Optional

from probnext import (
    BOTTOM,
    TOP,
    And,
    AtLeast,
    FormulaSyntaxError,
    IndexOutOfRange,
    Next,
    Not,
    Prop,
    at_most,
    conj,
    decide,
    iff,
    implies,
    lor,
    proof,
    push_next,
    render,
)
from probnext.canonical import (
    Distance,
    Interval,
    StageRecord,
    _bound_stack_pattern,
    _rebuild_stack,
)
from probnext.decide import Verdict, _CellTable
from probnext.enumeration import enum_formula, enum_rational, sort_key, spelling
from probnext.linarith import (
    Constraint,
    LinearSystem,
    Rel,
    eq,
    ge,
    gt,
    satisfies,
    solve,
    solve_rows,
)
from probnext.models import FiniteDMM
from probnext.proof import CheckResult, Derivation, Justification
from probnext.prokhorov import (
    FiniteMeasure,
    IncompatibleSupports,
    _dist,
    _integers,
    _merged_table,
    _pair,
)


def bench_inputs():
    """The benchmark's input generators, `bench/inputs.py`."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def lp_bounds_pool() -> list[str]:
    """The 1000 distinct texts of the lp-bounds workload's pool."""
    lp_bounds_text = bench_inputs().lp_bounds_text
    texts: dict = {}
    j = 0
    while len(texts) < 1000:
        texts.setdefault(lp_bounds_text(random.Random(f"lp-bounds/{j}")))
        j += 1
    return list(texts)


def cap_address_space():
    """Run in a child process before it starts: a 1 GiB address-space cap."""
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def random_formula(
    rng: random.Random,
    max_size: int = 20,
    max_prob_depth: int = 2,
    max_dyn_depth: int = 3,
    denom_bound: int = 4,
    n_props: int = 3,
):
    """Random formula within the given size, depth and denominator caps."""

    def go(size: int, pd: int, dd: int):
        opts = ["prop"]
        if size >= 2:
            opts.append("not")
            if dd > 0:
                opts.append("next")
            if pd > 0:
                opts.extend(["atleast", "atleast"])
        if size >= 3:
            opts.extend(["and", "and"])
        pick = rng.choice(opts)
        if pick == "prop":
            return Prop(rng.randrange(n_props))
        if pick == "not":
            return Not(go(size - 1, pd, dd))
        if pick == "next":
            return Next(go(size - 1, pd, dd - 1))
        if pick == "atleast":
            den = rng.randint(1, denom_bound)
            num = rng.randint(0, den)
            return AtLeast(Fraction(num, den), go(size - 1, pd - 1, dd))
        split = rng.randint(1, size - 2)
        return And(go(split, pd, dd), go(size - 1 - split, pd, dd))

    return go(rng.randint(3, max_size), max_prob_depth, max_dyn_depth)


def _small_body(rng: random.Random):
    return random_formula(
        rng, max_size=4, max_prob_depth=1, max_dyn_depth=1, denom_bound=3, n_props=2
    )


def random_bound_conjunction(rng: random.Random, max_literals: int = 5):
    """A conjunction of 1 to `max_literals` possibly negated probability
    bounds over small bodies, some of them negated, valid, unsatisfiable or
    repeated: the inputs on which cell columns merge or are fixed."""
    bodies = [_small_body(rng) for _ in range(3)]
    literals = []
    for _ in range(rng.randint(1, max_literals)):
        body = rng.choice(bodies)
        pick = rng.random()
        if pick < 0.1:
            body = lor(body, Not(body))
        elif pick < 0.2:
            body = And(body, Not(body))
        if rng.random() < 0.4:
            body = Not(body)
        literal = AtLeast(_bound(rng, 4), body)
        literals.append(Not(literal) if rng.random() < 0.4 else literal)
    return conj(literals)


def random_nested_bounds(rng: random.Random):
    """A conjunction of 2 to 4 possibly negated bounds on possibly negated
    bounds on p0 or p1: the inputs with cells whose DNF is consistent but
    whose LP is infeasible, such as L[1/3] p0 & !L[1/2] p0."""
    literals = []
    for _ in range(rng.randint(2, 4)):
        inner = AtLeast(_bound(rng, 4), Prop(rng.randrange(2)))
        if rng.random() < 0.4:
            inner = Not(inner)
        literal = AtLeast(_bound(rng, 4), inner)
        literals.append(Not(literal) if rng.random() < 0.4 else literal)
    return conj(literals)


def _bound(rng: random.Random, denom_bound: int = 6) -> Fraction:
    den = rng.randint(1, denom_bound)
    return Fraction(rng.randint(0, den), den)


def random_linear_system(rng: random.Random) -> LinearSystem:
    """Small random exact-rational constraint system."""
    n_vars = rng.randint(2, 4)
    builders = (ge, gt, eq)
    constraints = []
    for _ in range(rng.randint(3, 7)):
        coeffs = {
            v: Fraction(rng.randint(-3, 3))
            for v in range(n_vars)
            if rng.random() < 0.7
        }
        build = builders[rng.randrange(3) if rng.random() < 0.3 else rng.randrange(2)]
        constraints.append(
            build(coeffs, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        )
    return LinearSystem(constraints, num_vars=n_vars)


def _fractional_coefficient(rng: random.Random):
    """A nonzero rational with denominator 1 to 5; an integral one is an
    `int` half of the time, so rows mix `int` and `Fraction` coefficients."""
    a = Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 5))
    return int(a) if a.denominator == 1 and rng.random() < 0.5 else a


def random_fractional_system(rng: random.Random) -> LinearSystem:
    """Small random system whose coefficients have denominators 1 to 5.

    Some rows repeat an earlier row's coefficients times such a rational: a
    positive scale gives a row equal up to scale, a negative one bounds the
    shared slack from the other side."""
    n_vars = rng.randint(2, 4)
    builders = (ge, gt, eq)
    constraints = []
    for _ in range(rng.randint(3, 7)):
        build = builders[rng.randrange(3) if rng.random() < 0.3 else rng.randrange(2)]
        constant = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
        if constraints and rng.random() < 0.4:
            scale = _fractional_coefficient(rng)
            base = rng.choice(constraints)
            coeffs = {v: Fraction(a) * scale for v, a in base.coeffs}
        else:
            coeffs = {
                v: _fractional_coefficient(rng)
                for v in range(n_vars)
                if rng.random() < 0.7
            }
        constraints.append(build(coeffs, constant))
    return LinearSystem(constraints, num_vars=n_vars)


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination, the replaced decision path of `linarith`, kept
# as the oracle of `linarith.solve`.

_BUILD = {Rel.GE: ge, Rel.GT: gt, Rel.EQ: eq}


def _combination(parts, relation):
    """The constraint  sum(k * c) relation 0  over the pairs (k, c) in parts."""
    coeffs: dict = {}
    constant = Fraction(0)
    for k, c in parts:
        for v, a in c.coeffs:
            coeffs[v] = coeffs.get(v, 0) + k * a
        constant += k * c.constant
    return _BUILD[relation](coeffs, constant)


def system_variables(system: LinearSystem) -> set[int]:
    return {v for c in system.constraints for v, _ in c.coeffs}


def canonical(c):
    """c scaled so its leading coefficient has absolute value 1 (for dedup)."""
    if not c.coeffs:
        return c
    return _combination([(1 / abs(Fraction(c.coeffs[0][1])), c)], c.relation)


def tidy(constraints) -> list:
    """Drop constant-true constraints and duplicates up to positive scaling."""
    out, seen = [], set()
    for c in constraints:
        if not c.coeffs and satisfies(LinearSystem([c]), {}):
            continue
        key = canonical(c)
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


def eliminate(system: LinearSystem, var: int) -> LinearSystem:
    """Project `var` out; the result is feasible iff the input is."""
    with_var = [(Fraction(dict(c.coeffs).get(var, 0)), c) for c in system.constraints]
    for i, (a, e) in enumerate(with_var):
        if a and e.relation is Rel.EQ:  # substitute the equality's solution
            keep = [
                _combination([(1, c), (-b / a, e)], c.relation) if b else c
                for b, c in with_var[:i] + with_var[i + 1 :]
            ]
            return LinearSystem(tidy(keep), system.num_vars)
    keep = [c for a, c in with_var if not a]
    for a, lo in with_var:  # var >= -(rest of lo) / a, or strictly
        if a <= 0:
            continue
        for b, up in with_var:  # var <= (rest of up) / -b, or strictly
            if b < 0:
                strict = Rel.GT in (lo.relation, up.relation)
                relation = Rel.GT if strict else Rel.GE
                keep.append(_combination([(1 / a, lo), (-1 / b, up)], relation))
    return LinearSystem(tidy(keep), system.num_vars)


def fm_feasible(system: LinearSystem) -> bool:
    """Eliminate every variable, then check the constant rows that remain."""
    for v in sorted(system_variables(system)):
        system = eliminate(system, v)
    return satisfies(system, {})


# ---------------------------------------------------------------------------
# The simplex of `linarith` as it was before its rows became integer vectors:
# `Fraction` tableau entries, rows scaled to a leading coefficient of 1.  Kept
# as the oracle of the fraction-free `solve`, which must return the same point.


def _fraction_tableau(system: LinearSystem):
    lower: dict = {}
    upper: dict = {}
    rows: dict = {}  # basic variable -> {nonbasic variable: coefficient}
    slack_of: dict = {}  # scaled coefficients -> slack variable (negative id)
    originals: set[int] = set()
    for c in system.constraints:
        coeffs = [(v, Fraction(a)) for v, a in c.coeffs]
        constant = Fraction(c.constant)
        if not coeffs:
            if not satisfies(LinearSystem([c]), {}):
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
        bound = -constant / lead
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


def _fraction_pivot(rows: dict, value: dict, s, x, target) -> None:
    row = rows.pop(s)
    a = row.pop(x)
    step_c = (target[0] - value[s][0]) / a
    step_k = (target[1] - value[s][1]) / a
    value[s] = target
    value[x] = (value[x][0] + step_c, value[x][1] + step_k)
    inv = 1 / a
    new = {v: -b * inv for v, b in row.items()}
    new[s] = inv
    for r, other in rows.items():
        b = other.pop(x, None)
        if b is None:
            continue
        value[r] = (value[r][0] + b * step_c, value[r][1] + b * step_k)
        for v, d in new.items():
            t = other.get(v, 0) + b * d
            if t:
                other[v] = t
            else:
                del other[v]
    rows[x] = new


def fraction_simplex(system: LinearSystem):
    """The point the former `Fraction`-tableau simplex returns, or None when
    the system is infeasible.  Every coefficient is coerced to a `Fraction`
    on entry, so no division here ever has two `int` operands."""
    tableau = _fraction_tableau(system)
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
            if (row[x] > 0) == rise:
                hi = upper.get(x)
                if hi is None or value[x] < hi:
                    break
            else:
                lo = lower.get(x)
                if lo is None or value[x] > lo:
                    break
        else:
            return None
        _fraction_pivot(rows, value, s, x, target)
    delta = Fraction(1)
    for var, (c, k) in value.items():
        lo, hi = lower.get(var), upper.get(var)
        if lo is not None and lo[1] > k:
            delta = min(delta, (c - lo[0]) / (lo[1] - k))
        if hi is not None and hi[1] < k:
            delta = min(delta, (hi[0] - c) / (k - hi[1]))
    return {var: value[var][0] + value[var][1] * delta for var in originals}


# ---------------------------------------------------------------------------
# The simplex of `linarith` as it was while only its rows were integers: its
# values, bounds and delta were `Fraction`s, and the cell LP stated one row
# per mass for the masses' non-negativity.  Kept as the oracle of the
# integer-valued pivot loop, which must pivot alike and return the same point.


def fraction_valued_build(rows):
    """Bounds and slack rows for `fraction_valued_solve`, or None when a
    constant row fails or some variable's bounds cross.

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
            if not constant_holds(-bound if rising else bound, relation):
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


def _shift_pair(value, step_c, step_k):
    return (value[0] + step_c, value[1] + step_k)


def _fraction_valued_pivot(rows: dict, value: dict, s, x, target) -> None:
    """Move basic `s` onto `target` through nonbasic `x`, then swap the two
    in the basis."""
    d, row = rows.pop(s)
    n = row.pop(x)
    # s = (n x + sum(row)) / d, so  x = (d s - sum(row)) / n
    step_c = (target[0] - value[s][0]) * d / n
    step_k = (target[1] - value[s][1]) * d / n
    value[s] = target
    value[x] = _shift_pair(value[x], step_c, step_k)
    sign = 1 if n > 0 else -1
    new = {v: -sign * b for v, b in row.items()}
    new[s] = sign * d
    den = sign * n  # the row of s had no common factor, so neither has this
    for r, (e, other) in rows.items():
        b = other.pop(x, None)
        if b is None:
            continue
        value[r] = _shift_pair(value[r], b * step_c / e, b * step_k / e)
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


def fraction_valued_solve(tableau):
    """The point of a tableau built by `fraction_valued_build`, or None when
    there is none or it is infeasible.  It consumes the slack rows.

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
        _fraction_valued_pivot(rows, value, s, x, target)

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


def cell_rows_with_masses(table, bounds) -> list:
    """The LP of a step over the masses m_i of the table's cells, as rows
    for `fraction_valued_build`: m_i >= 0 for each cell, sum(m_i) = 1, then
    one row per literal, sorted.  A row sums the masses of some cells, so it
    is their 0/1 indicator, already primitive with a positive lead."""
    n = len(table.disjuncts)
    zero = Fraction(0)
    rows = [(((i, 1),), zero, Rel.GE, True) for i in range(n)]
    rows.append((tuple((i, 1) for i in range(n)), Fraction(1), Rel.EQ, True))
    literals = []
    for positive, atom in bounds:
        column, negated = bound_column(atom)
        b, bits = table.columns[column]
        literals.append((b, atom.bound, negated, positive, bit_indices(bits)))
    # With m(c) the mass of the cells inside column c, L[r] c reads
    # m(c) >= r and L[r] !c reads m(c) <= 1 - r; !L is strict the other way.
    for b, r, negated, positive, cells in sorted(literals):
        inside = tuple((i, 1) for i in cells)
        relation = Rel.GE if positive else Rel.GT
        rows.append((inside, 1 - r if negated else r, relation, positive != negated))
    return rows


def scale_bounds(tableau, scale):
    """A `fraction_valued_build` or `tableau_by_constraints` tableau stated
    as `linarith._build` states it: every bound times `scale`, and the
    scale.  None stays None."""
    if tableau is None:
        return None
    lower, upper, rows, originals = tableau

    def times(bounds):
        return {var: (c * scale, k * scale) for var, (c, k) in bounds.items()}

    return times(lower), times(upper), rows, originals, scale


def nonzero_coordinates(point):
    """The nonzero coordinates of a point as a list of (variable, value), in
    variable order; None stays None."""
    return None if point is None else [(v, x) for v, x in sorted(point.items()) if x]


# ---------------------------------------------------------------------------
# The tableau of `linarith` as the general front end built it straight from
# `Constraint`s, before every front end stated bounded rows for one builder.
# Kept, with the two helpers it called, as the oracle of the row builder: the
# tableau of a system, slack ids included, must not change.

_ZERO = Fraction(0)


def constant_holds(value: Fraction, relation: Rel) -> bool:
    """Whether `value relation 0` holds."""
    if relation is Rel.GE:
        return value >= 0
    if relation is Rel.GT:
        return value > 0
    return value == 0


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


def tableau_by_constraints(system: LinearSystem):
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


# The recursive-descent parser that parser.parse's precedence loop
# replaced, kept as its oracle: one method per grammar level.
# [0-9], not \d: \d matches every Unicode digit, which int() would read.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<prop>p[0-9]+)|(?P<lbound>[LM]\[\s*[0-9]+(?:\s*/\s*[0-9]+)?\s*\])"
    r"|(?P<op><->|->|[!&|XTF()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise FormulaSyntaxError(at, "a token", repr(stripped[0]))
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected: str):
        kind, value, pos = self.peek()
        found = "end of input" if kind == "end" else repr(value)
        raise FormulaSyntaxError(pos, expected, found)

    def parse(self) -> Formula:
        f = self.iff()
        if self.peek()[0] != "end":
            self.fail("end of input")
        return f

    def iff(self) -> Formula:
        f = self.imp()
        while self.peek()[1] == "<->":
            self.advance()
            f = iff(f, self.imp())
        return f

    def imp(self) -> Formula:
        parts = [self.lor()]
        while self.peek()[1] == "->":
            self.advance()
            parts.append(self.lor())
        f = parts[-1]
        for left in reversed(parts[:-1]):
            f = implies(left, f)
        return f

    def lor(self) -> Formula:
        f = self.land()
        while self.peek()[1] == "|":
            self.advance()
            f = lor(f, self.land())
        return f

    def land(self) -> Formula:
        f = self.unary()
        while self.peek()[1] == "&":
            self.advance()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, value, pos = self.peek()
        if value == "!":
            self.advance()
            return Not(self.unary())
        if value == "X":
            self.advance()
            return Next(self.unary())
        if kind == "lbound":
            self.advance()
            inner = value[2:-1].replace(" ", "")
            if "/" in inner:
                num, den = inner.split("/")
                if int(den) == 0:
                    raise FormulaSyntaxError(pos, "a nonzero denominator", repr(value))
                bound = Fraction(int(num), int(den))
            else:
                bound = Fraction(int(inner))
            if not 0 <= bound <= 1:
                raise IndexOutOfRange(
                    f"at position {pos}: probability index {bound} outside [0, 1]"
                )
            body = self.unary()
            if value[0] == "L":
                return AtLeast(bound, body)
            return at_most(bound, body)
        return self.atom()

    def atom(self) -> Formula:
        kind, value, pos = self.peek()
        if kind == "prop":
            self.advance()
            return Prop(int(value[1:]))
        if value == "T":
            self.advance()
            return TOP
        if value == "F":
            self.advance()
            return BOTTOM
        if value == "(":
            self.advance()
            f = self.iff()
            if self.peek()[1] != ")":
                self.fail("')'")
            self.advance()
            return f
        self.fail("a formula")


def parse_by_descent(text: str):
    return _Parser(text).parse()


def calkin_wilf_rationals():
    """The rational enumeration by Newman's successor q -> 1/(2*floor(q) - q + 1)
    on the Calkin-Wilf sequence: 0, 1, then every value below 1 in order.
    The slow oracle for the closed-form enum_rational and rational_index."""
    yield Fraction(0)
    yield Fraction(1)
    q = Fraction(1)
    while True:
        q = 1 / (2 * (q.numerator // q.denominator) - q + 1)
        if q < 1:
            yield q


def weight_classes(top: int) -> list[list]:
    """Every formula of weight at most `top`, one list per weight (the list
    of weight 0 is empty), each built in full and sorted by `sort_key`.  The
    former materializing enumeration, kept as the oracle of the counting
    `enum_formula` and `formula_index`."""
    classes: list[list] = [[]]
    for n in range(1, top + 1):
        out = [Prop(n - 1)]
        for sub in classes[n - 1]:
            out += [Not(sub), Next(sub)]
        for j in range(n - 1):
            r = enum_rational(j)
            out += [AtLeast(r, sub) for sub in classes[n - 1 - j]]
        for k in range(1, n - 1):
            out += [And(a, b) for a in classes[k] for b in classes[n - 1 - k]]
        out.sort(key=sort_key)
        classes.append(out)
    return classes


def lp_chain(k: int) -> str:
    """`L[1/(i+2)] (p_i | p_{i+1})` for i < k, joined with `!L[1/2] p0`: SAT,
    with one exact LP over up to 2^(k+1) cells."""
    bounds = [f"L[1/{i + 2}] (p{i} | p{i + 1})" for i in range(k)]
    return " & ".join(bounds + ["!L[1/2] p0"])


def independent_bounds(k: int) -> str:
    """`L[1/(i+2)] p_i` for i < k, joined with `!L[1/2] (p0 | ... | p_{k-1})`:
    UNSAT, with one exact LP over the 2^k cells of k independent columns."""
    bounds = [f"L[1/{i + 2}] p{i}" for i in range(k)]
    union = " | ".join(f"p{i}" for i in range(k))
    return " & ".join(bounds + [f"!L[1/2] ({union})"])


def push_then_dnf(f):
    """The former DNF of `decide`, kept as the oracle of `to_disjuncts`: move
    every next-operator down to the atoms with `push_next`, then strip the
    leading next-operators off each atom to read its time stamp.  Same
    literals and same pruning as `to_disjuncts(push_next(f))`: an atom is
    the proposition or the normalized bound below those next-operators,
    L[0] b is true and !L[0] b false.  The disjuncts are not in
    `to_disjuncts`'s order."""

    def strip_next(g):
        steps = 0
        while isinstance(g, Next):
            steps += 1
            g = g.body
        return steps, g

    def atom_of(g):
        steps, core = strip_next(g)
        if isinstance(core, (Prop, AtLeast)):
            return steps, core
        raise ValueError(f"not normalized: {g!r}")

    def antichain(disjuncts):
        kept = []
        for d in sorted(set(disjuncts), key=len):
            if not any(k <= d for k in kept):
                kept.append(d)
        return kept

    def dnf(g, polarity):
        if isinstance(g, Not):
            return dnf(g.body, not polarity)
        if isinstance(g, And):
            left, right = dnf(g.left, polarity), dnf(g.right, polarity)
            if not polarity:
                return antichain(left + right)
            return antichain(
                a | b
                for a in left
                for b in right
                if not any((not pol, step, atom) in a for pol, step, atom in b)
            )
        step, atom = atom_of(g)
        if isinstance(atom, AtLeast) and atom.bound == 0:
            return [frozenset()] if polarity else []
        return [frozenset({(polarity, step, atom)})]

    return dnf(push_next(f), True)


def merge_by_antichain(left, right):
    """The former `decide._merge`, kept as its oracle: every clash-free union
    of a left and a right disjunct, pruned by `decide._antichain` however
    many there are."""
    out = []
    for a in left:
        for b in right:
            if not any((not pol, step, atom) in a for pol, step, atom in b):
                out.append(a | b)
    return decide._antichain(out)


def witnessing(cell):
    """The disjunct of a cell formula that a witness is built from: the
    first satisfiable one of its DNF, or None."""
    return next(decide._satisfiable(decide.to_disjuncts(cell)), None)


# The witness path as it was while `decide` found the first satisfiable
# disjunct with a helper of its own and built the model in a builder that
# kept a counter, a world list and three maps, made into a `FiniteDMM` at
# the end.  Kept as the oracle of `decide._build`.


def first_witnessing(disjuncts):
    """The former `decide._witnessing`: the first disjunct whose steps are
    all satisfiable, or None."""
    return next((d for d in disjuncts if decide._plans(d) is not None), None)


class ModelBuilder:
    """The former `decide._ModelBuilder`."""

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

    def build(self, disjunct) -> str:
        """Add a sub-model satisfying a satisfiable disjunct at the returned
        world."""
        plans = decide._plans(disjunct)
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


def witness_by_builder(f):
    """The former `decide.witness`: a finite model and root world
    satisfying f, or None when f is unsatisfiable."""
    d = first_witnessing(decide.to_disjuncts(f))
    if d is None:
        return None
    builder = ModelBuilder()
    root = builder.build(d)
    return builder.finish(), root


def clash_free(disjunct) -> bool:
    """No atom of the disjunct occurs at one step with both polarities."""
    return not any(
        (not polarity, step, atom) in disjunct for polarity, step, atom in disjunct
    )


def bound_column(atom):
    """The column of a bound atom and whether the bound is over its
    negation: its body up to one leading `!`."""
    body = atom.body
    return (body.body, True) if isinstance(body, Not) else (body, False)


def world_sat_all_cells(bounds):
    """The former cell step of `decide.world_sat`, kept as its oracle: one
    column per distinct bound body, negated bodies included, and
    `sat_status` on every one of the 2^k cells.  Takes `world_sat`'s
    argument, the (polarity, bound atom) pairs, each bound read over its
    body as it stands, already in `push_next` normal form.  Returns the
    inhabited cells as (witnessing disjunct, mass), or None, as `world_sat`
    does."""
    bounds = tuple(bounds)
    columns = [atom.body for _, atom in bounds]
    bodies = sorted(set(columns), key=render)
    sat_cells = []  # (bitmask over bodies, cell formula)
    for mask in range(1 << len(bodies)):
        delta = conj(b if mask & (1 << i) else Not(b) for i, b in enumerate(bodies))
        if decide.sat_status(delta):
            sat_cells.append((mask, delta))
    n = len(sat_cells)
    system = LinearSystem(num_vars=n)
    system.constraints.append(eq({i: Fraction(1) for i in range(n)}, Fraction(-1)))
    system.constraints.extend(ge({i: Fraction(1)}) for i in range(n))
    for (positive, atom), body in zip(bounds, columns):
        b = bodies.index(body)
        inside = [i for i, (mask, _) in enumerate(sat_cells) if mask & (1 << b)]
        if positive:
            system.constraints.append(ge({i: Fraction(1) for i in inside}, -atom.bound))
        else:
            system.constraints.append(gt({i: Fraction(-1) for i in inside}, atom.bound))
    point = solve(system)
    if point is None:
        return None
    return tuple(
        (witnessing(delta), point[i]) for i, (_, delta) in enumerate(sat_cells) if point[i] > 0
    )


def world_sat_by_simplex(bounds):
    """The former `decide.world_sat`, kept as its oracle: the simplex on
    the cell LP of every step, with no one-cell check before it."""
    table = decide._cells(frozenset(bound_column(atom)[0] for _, atom in bounds))
    disjuncts = table.disjuncts
    point = solve_rows(decide._cell_rows(table, bounds), range(len(disjuncts)))
    if point is None:
        return None
    return tuple((disjuncts[i], mass) for i, mass in point.items())


def one_cell_points(system: LinearSystem) -> list[int]:
    """The variables of a `cell_system` whose 0/1 point, 1 on that cell's
    mass and 0 on every other, satisfies every constraint, by exact
    substitution: at that point a constraint's left side is its constant
    plus its coefficient of that cell."""
    tests = {Rel.GE: Fraction.__ge__, Rel.GT: Fraction.__gt__, Rel.EQ: Fraction.__eq__}
    rows = [(dict(c.coeffs), c.constant, tests[c.relation]) for c in system.constraints]
    return [
        i
        for i in range(system.num_vars)
        if all(holds(constant + coeffs.get(i, 0), 0) for coeffs, constant, holds in rows)
    ]


# The cell step as it was while a cell table kept each cell as its mask
# over the columns and its witnessing disjunct, and `_cell_rows` read each
# literal's row off the masks on every call.  Kept as the oracle of the
# table that states each column once, as its bitset.


@dataclasses.dataclass(frozen=True)
class MaskTable:
    """A cell table in the former layout: `column_of` maps each column to
    its index, in spelling order; `cells` holds (bitmask over the columns,
    the cell's witnessing disjunct) in increasing mask order."""

    column_of: dict
    cells: tuple


def cells_with_masks(columns) -> MaskTable:
    """The former `decide._cells`: the walk over the columns in spelling
    order that keeps each prefix's satisfiable disjuncts, and each leaf's
    first one, with the leaf's mask.  It charges a `decide.work_budget`
    block no node."""
    bodies = sorted(columns, key=spelling)
    options = [
        [(0, decide._dnf(b, False, 0)), (1 << i, decide._dnf(b, True, 0))]
        for i, b in enumerate(bodies)
    ]
    cells = []
    stack = [(0, 0, [frozenset()])]  # (bodies chosen, mask, kept disjuncts)
    while stack:
        depth, mask, dnf = stack.pop()
        if depth == len(bodies):
            cells.append((mask, dnf[0]))
            continue
        for bit, option_dnf in options[depth]:
            kept = list(decide._satisfiable(decide._merge(dnf, option_dnf)))
            if kept:
                stack.append((depth + 1, mask | bit, kept))
    cells.sort(key=lambda cell: cell[0])
    return MaskTable({b: i for i, b in enumerate(bodies)}, tuple(cells))


def cell_rows_by_masks(table: MaskTable, bounds) -> list:
    """The former `decide._cell_rows`: the all-ones row, then one row per
    literal, sorted, each built by scanning every cell's mask."""
    cells = table.cells
    ones = tuple((i, 1) for i in range(len(cells)))
    rows = [(ones, 1, Rel.EQ, True)]
    literals = []
    for positive, atom in bounds:
        column, negated = bound_column(atom)
        literals.append((table.column_of[column], atom.bound, negated, positive))
    for b, r, negated, positive in sorted(literals):
        relation = Rel.GE if positive else Rel.GT
        inside = tuple([entry for entry, (mask, _) in zip(ones, cells) if mask >> b & 1])
        rows.append((inside, 1 - r if negated else r, relation, positive != negated))
    return rows


def as_cell_table(table: MaskTable):
    """A mask table in the layout `decide._cells` keeps: the disjuncts in
    mask order, the all-ones row, and each column's index and bitset of the
    cells inside it, read off the masks."""
    ones = tuple((i, 1) for i in range(len(table.cells)))
    columns = {}
    for c, b in table.column_of.items():
        inside = [i for i, (mask, _) in enumerate(table.cells) if mask >> b & 1]
        columns[c] = b, sum(2**i for i in inside)
    return decide._CellTable(tuple(d for _, d in table.cells), ones, columns)


def bit_indices(bits: int) -> list[int]:
    """The cells a column's bitset holds, lowest first, one bit at a time."""
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def cells_by_conj(columns):
    """The former cell enumeration of `decide.world_sat`, kept as the oracle
    of `decide._cells`: the columns in spelling order, a valid one fixed
    to 1 and an unsatisfiable one to 0, and for each of the 2^k choices over
    the k contingent columns, in order, a fresh `conj` over every column
    and `sat_status` on it.  Returns a `decide._CellTable` that holds each
    cell's formula for its disjunct; `witnessed` maps them to the table
    `_cells` keeps."""
    bodies = sorted(columns, key=spelling)
    fixed = 0
    free = []
    for i, b in enumerate(bodies):
        if not decide.sat_status(Not(b)):
            fixed |= 1 << i
        elif decide.sat_status(b):
            free.append(i)
    sat_cells = []
    for choice in range(1 << len(free)):
        mask = fixed
        for j, i in enumerate(free):
            if choice & (1 << j):
                mask |= 1 << i
        delta = conj(b if mask & (1 << i) else Not(b) for i, b in enumerate(bodies))
        if decide.sat_status(delta):
            sat_cells.append((mask, delta))
    return as_cell_table(MaskTable({b: i for i, b in enumerate(bodies)}, tuple(sat_cells)))


def cells_by_walk(columns):
    """The former cell walk of `decide._cells`, kept as its oracle: the
    columns in spelling order, a valid column fixed to 1 and an
    unsatisfiable one to 0, a prefix cut only when its merged DNF is empty
    (a propositional clash), and each leaf checked for a satisfiable
    disjunct.  Returns the `decide._CellTable`."""
    bodies = sorted(columns, key=spelling)
    options = []
    for i, b in enumerate(bodies):
        without, within = decide._dnf(b, False, 0), decide._dnf(b, True, 0)
        if next(decide._satisfiable(without), None) is None:
            options.append([(1 << i, within)])
        elif next(decide._satisfiable(within), None) is not None:
            options.append([(0, without), (1 << i, within)])
        else:
            options.append([(0, without)])
    cells = []
    stack = [(1, bit, dnf) for bit, dnf in options[0]]
    while stack:
        depth, mask, dnf = stack.pop()
        if depth == len(bodies):
            d = next(decide._satisfiable(dnf), None)
            if d is not None:
                cells.append((mask, d))
            continue
        for bit, option_dnf in options[depth]:
            merged = decide._merge(dnf, option_dnf)
            if merged:
                stack.append((depth + 1, mask | bit, merged))
    cells.sort(key=lambda cell: cell[0])
    return as_cell_table(MaskTable({b: i for i, b in enumerate(bodies)}, tuple(cells)))


def witnessed(table):
    """A `cells_by_conj` table with each cell formula replaced by its
    witnessing disjunct."""
    return table._replace(disjuncts=tuple(map(witnessing, table.disjuncts)))


def cell_system(table, bounds) -> LinearSystem:
    """The former LP of `decide.world_sat` over a cell table, kept as the
    oracle of `decide._cell_rows`: `tableau_by_constraints` of this system
    is the tableau that `linarith` builds from the cell rows."""
    n = len(table.disjuncts)
    system = LinearSystem(num_vars=n)
    system.constraints.append(eq(dict.fromkeys(range(n), 1), -1))
    for i in range(n):
        system.constraints.append(ge({i: 1}))
    # L[r] reads  e - r >= 0  and  !L[r] reads  -(e - r) > 0,  where e is
    # m(c), or 1 - m(c) for a negated column.  The rows follow the columns,
    # whatever order the bounds iterate in.
    literals = []
    for positive, atom in bounds:
        c, negated = bound_column(atom)
        b, bits = table.columns[c]
        literals.append((b, atom.bound, negated, 1 if positive else -1, bit_indices(bits)))
    for b, bound, negated, polarity, inside in sorted(literals):
        sign, constant = (-1, 1 - bound) if negated else (1, -bound)
        relation = ge if polarity > 0 else gt
        coeffs = dict.fromkeys(inside, polarity * sign)
        system.constraints.append(relation(coeffs, polarity * constant))
    return system


def and_chain_lindenbaum(seed, budget: int):
    """The staged construction of `canonical` as it was while the stage set
    was one left-nested conjunction, which every entailment query handed
    whole to `sat_status`.  Kept as the oracle of the stage set kept as its
    pruned DNF; it reaches only as deep as the recursive traversals do.
    Returns the bits and the extras by stage index."""
    gamma = seed

    def entails(f):
        return not decide.sat_status(And(gamma, Not(f)))

    bits, extras = [], {}
    for l in range(budget):
        f = enum_formula(l)
        bits.append(entails(f))
        pattern = None if bits[-1] else _bound_stack_pattern(f)
        if pattern is not None:
            steps, outer, r, theta = pattern
            for s in map(enum_rational, range(100_001)):
                stack = _rebuild_stack(steps, outer, s, theta)
                if s < r and not entails(stack):
                    extras[l] = Not(stack)
                    break
        gamma = And(gamma, f if bits[-1] else Not(f))
        if l in extras:
            gamma = And(gamma, extras[l])
    return bits, extras


# the non-propositional schemes, which random_scheme_instance draws from
SCHEME_NAMES = tuple(name for name in proof.SCHEME_NAMES if name != "Taut")


def random_scheme_instance(rng: random.Random, name: str):
    """A random instance of one of the non-propositional axiom schemes."""
    a = _small_body(rng)
    b = _small_body(rng)
    if name == "FA1":
        return AtLeast(Fraction(0), And(a, Not(a)))
    if name == "FA2":
        while True:
            r, s = _bound(rng), _bound(rng)
            if r + s > 1:
                break
        return implies(AtLeast(r, Not(a)), Not(AtLeast(s, a)))
    if name in ("FA3", "FA4"):
        while True:
            r, s = _bound(rng), _bound(rng)
            if r + s <= 1:
                break
        c1 = AtLeast(r, And(a, b))
        c2 = AtLeast(s, And(a, Not(b)))
        concl = AtLeast(r + s, a)
        if name == "FA3":
            return implies(And(c1, c2), concl)
        return implies(And(Not(c1), Not(c2)), Not(concl))
    if name == "Mono":
        r = _bound(rng)
        return implies(
            AtLeast(Fraction(1), implies(a, b)),
            implies(AtLeast(r, a), AtLeast(r, b)),
        )
    if name == "Func":
        return iff(Next(Not(a)), Not(Next(a)))
    if name == "Conj":
        return iff(Next(And(a, b)), And(Next(a), Next(b)))
    raise ValueError(name)


def rewrite_bounds(rng: random.Random, f):
    """f with each probability bound replaced, with probability 1/2, by a
    random one: turns scheme instances into near misses of their side
    conditions."""
    if isinstance(f, Prop):
        return f
    if isinstance(f, And):
        return And(rewrite_bounds(rng, f.left), rewrite_bounds(rng, f.right))
    if isinstance(f, AtLeast):
        bound = _bound(rng) if rng.random() < 0.5 else f.bound
        return AtLeast(bound, rewrite_bounds(rng, f.body))
    return type(f)(rewrite_bounds(rng, f.body))


# The former hand-written recognizers of the axiom schemes, one isinstance
# chain per scheme, kept as the oracle of the template table in `proof`.


def _match_implies(f):
    # a -> b is encoded as !(a & !b)
    if isinstance(f, Not) and isinstance(f.body, And) and isinstance(f.body.right, Not):
        return f.body.left, f.body.right.body
    return None


def _match_iff(f):
    # a <-> b is encoded as (a -> b) & (b -> a)
    if not isinstance(f, And):
        return None
    fwd = _match_implies(f.left)
    bwd = _match_implies(f.right)
    if fwd and bwd and fwd == (bwd[1], bwd[0]):
        return fwd
    return None


def _is_fa1(f) -> bool:
    # L_0 applied to the canonical bottom shape (a & !a)
    return (
        isinstance(f, AtLeast)
        and f.bound == 0
        and isinstance(f.body, And)
        and isinstance(f.body.right, Not)
        and f.body.left == f.body.right.body
    )


def _is_fa2(f) -> bool:
    m = _match_implies(f)
    if not m:
        return False
    left, right = m
    if not (isinstance(left, AtLeast) and isinstance(left.body, Not)):
        return False
    if not (isinstance(right, Not) and isinstance(right.body, AtLeast)):
        return False
    return left.body.body == right.body.body and left.bound + right.body.bound > 1


def _split_additivity(f):
    # common shape of FA3 and FA4: (c1 & c2) -> concl
    m = _match_implies(f)
    if not m:
        return None
    left, right = m
    if not isinstance(left, And):
        return None
    return left.left, left.right, right


def _additivity_parts(c1, c2, concl) -> bool:
    # L_r(a & b), L_s(a & !b), L_{r+s} a  with r + s <= 1
    if not (
        isinstance(c1, AtLeast)
        and isinstance(c2, AtLeast)
        and isinstance(concl, AtLeast)
    ):
        return False
    if not (isinstance(c1.body, And) and isinstance(c2.body, And)):
        return False
    if not isinstance(c2.body.right, Not):
        return False
    same_a = c1.body.left == c2.body.left == concl.body
    same_b = c1.body.right == c2.body.right.body
    return (
        same_a
        and same_b
        and c1.bound + c2.bound <= 1
        and concl.bound == c1.bound + c2.bound
    )


def _is_fa3(f) -> bool:
    parts = _split_additivity(f)
    return parts is not None and _additivity_parts(*parts)


def _is_fa4(f) -> bool:
    parts = _split_additivity(f)
    if parts is None:
        return False
    c1, c2, concl = parts
    if not (isinstance(c1, Not) and isinstance(c2, Not) and isinstance(concl, Not)):
        return False
    return _additivity_parts(c1.body, c2.body, concl.body)


def _is_mono(f) -> bool:
    m = _match_implies(f)
    if not m:
        return False
    left, right = m
    if not (isinstance(left, AtLeast) and left.bound == 1):
        return False
    inner = _match_implies(left.body)
    outer = _match_implies(right)
    if not (inner and outer):
        return False
    a, b = inner
    la, lb = outer
    return (
        isinstance(la, AtLeast)
        and isinstance(lb, AtLeast)
        and la.bound == lb.bound
        and la.body == a
        and lb.body == b
    )


def _is_func(f) -> bool:
    m = _match_iff(f)
    if not m:
        return False
    left, right = m
    return (
        isinstance(left, Next)
        and isinstance(left.body, Not)
        and isinstance(right, Not)
        and isinstance(right.body, Next)
        and left.body.body == right.body.body
    )


def _is_conj(f) -> bool:
    m = _match_iff(f)
    if not m:
        return False
    left, right = m
    return (
        isinstance(left, Next)
        and isinstance(left.body, And)
        and isinstance(right, And)
        and isinstance(right.left, Next)
        and isinstance(right.right, Next)
        and left.body.left == right.left.body
        and left.body.right == right.right.body
    )


def _boolean_atoms(f, acc: list) -> None:
    # maximal subformulas that are not boolean combinations
    if isinstance(f, Not):
        _boolean_atoms(f.body, acc)
    elif isinstance(f, And):
        _boolean_atoms(f.left, acc)
        _boolean_atoms(f.right, acc)
    elif f not in acc:
        acc.append(f)


def _eval_boolean(f, env: dict) -> bool:
    if isinstance(f, Not):
        return not _eval_boolean(f.body, env)
    if isinstance(f, And):
        return _eval_boolean(f.left, env) and _eval_boolean(f.right, env)
    return env[f]


def truth_table_tautology(f) -> bool:
    """The former Taut recognizer, which evaluates f under all 2^k truth
    assignments of its k Boolean atoms, kept as the oracle of the bounded
    case split `proof.is_tautology`."""
    atoms: list = []
    _boolean_atoms(f, atoms)
    for values in product((False, True), repeat=len(atoms)):
        if not _eval_boolean(f, dict(zip(atoms, values))):
            return False
    return True


HAND_WRITTEN_SCHEMES = {
    "Taut": truth_table_tautology,
    "FA1": _is_fa1,
    "FA2": _is_fa2,
    "FA3": _is_fa3,
    "FA4": _is_fa4,
    "Mono": _is_mono,
    "Func": _is_func,
    "Conj": _is_conj,
}


def former_extension(model, f, cache=None) -> frozenset:
    """`FiniteDMM.extension` as it was while it built the set of all worlds
    afresh at every negation and summed each kernel row's `Fraction`s at
    every bound; kept as its oracle."""
    if cache is None:
        cache = {}
    if f in cache:
        return cache[f]
    if isinstance(f, Prop):
        result = frozenset(model.valuation.get(f.index, set()))
    elif isinstance(f, Not):
        result = frozenset(model.worlds) - former_extension(model, f.body, cache)
    elif isinstance(f, And):
        result = former_extension(model, f.left, cache) & former_extension(model, f.right, cache)
    elif isinstance(f, AtLeast):
        body = former_extension(model, f.body, cache)
        result = frozenset(
            w
            for w in model.worlds
            if sum((m for u, m in model.kernel.get(w, {}).items() if u in body), Fraction(0))
            >= f.bound
        )
    else:  # Next
        body = former_extension(model, f.body, cache)
        result = frozenset(w for w in model.worlds if model.successor[w] in body)
    cache[f] = result
    return result


def former_validate(model) -> list[str]:
    """`FiniteDMM.validate` as it was while it summed each kernel row's
    `Fraction`s; kept as the oracle of its diagnostics."""
    problems = []
    world_set = set(model.worlds)
    if len(world_set) != len(model.worlds):
        problems.append("duplicate world ids")
    for w in model.worlds:
        row = model.kernel.get(w)
        if row is None:
            problems.append(f"missing kernel row for {w}")
            continue
        mass = Fraction(0)
        for u, m in row.items():
            if u not in world_set:
                problems.append(f"kernel row {w} targets unknown world {u}")
            if m < 0:
                problems.append(f"negative mass {m} in row {w}")
            mass += m
        if mass != 1:
            problems.append(f"row mass {mass} != 1 in row {w}")
    for w in model.worlds:
        succ = model.successor.get(w)
        if succ is None:
            problems.append(f"missing successor for {w}")
        elif succ not in world_set:
            problems.append(f"successor of {w} is unknown world {succ}")
    for w in sorted(model.kernel.keys() - world_set):
        problems.append(f"kernel row for unknown world {w}")
    for w in sorted(model.successor.keys() - world_set):
        problems.append(f"successor given for unknown world {w}")
    for p, ws in model.valuation.items():
        for w in ws:
            if w not in world_set:
                problems.append(f"valuation of p{p} contains unknown world {w}")
    return problems


def former_random_model(seed: int, n_worlds: int, n_props: int, denom_bound: int):
    """`random_model` as it was while it scanned a list of `n_worlds` counts
    for every world, quadratic in the world count; kept as its oracle."""
    if n_worlds < 1:
        raise ValueError("need at least one world")
    rng = random.Random(seed)
    worlds = [f"w{i}" for i in range(n_worlds)]
    valuation = {
        p: {w for w in worlds if rng.random() < 0.5} for p in range(n_props)
    }
    kernel = {}
    for w in worlds:
        denom = rng.randint(1, denom_bound)
        counts = [0] * n_worlds
        for _ in range(denom):
            counts[rng.randrange(n_worlds)] += 1
        kernel[w] = {
            worlds[i]: Fraction(c, denom) for i, c in enumerate(counts) if c
        }
    successor = {w: rng.choice(worlds) for w in worlds}
    return FiniteDMM(worlds, valuation, kernel, successor)


ONE_WORLD = {"worlds": ["w0"], "kernel": {"w0": {"w0": "1"}}, "successor": {"w0": "w0"}}
TWO_POINTS = {"points": ["a", "b"], "weights": {"a": "1"}, "distance": {"a|b": "1"}}

# Model and measure files that once gave an internal error or were read as
# a different model or measure.
MALFORMED_MODELS = {
    "worlds-not-a-list": {"worlds": 5},
    "top-level-array": [ONE_WORLD],
    "kernel-row-a-list": dict(ONE_WORLD, kernel={"w0": ["w0"]}),
    "valuation-a-string": dict(ONE_WORLD, valuation={"p0": "w0"}),
    "valuation-key-pp1": dict(ONE_WORLD, valuation={"pp1": ["w0"]}),
    "valuation-key-p01-beside-p1": dict(ONE_WORLD, valuation={"p1": [], "p01": ["w0"]}),
    "successor-a-list": dict(ONE_WORLD, successor={"w0": ["w0"]}),
    "no-worlds": {"kernel": {}},
}
MALFORMED_MEASURES = {
    "points-a-string": dict(TWO_POINTS, points="ab"),
    "distance-key-without-bar": dict(TWO_POINTS, distance={"ab": "1"}),
    "distance-key-with-two-bars": dict(TWO_POINTS, distance={"a|b|c": "1"}),
    "weights-a-list": dict(TWO_POINTS, weights=["a"]),
    "distance-a-list": dict(TWO_POINTS, distance=[["a", "b", "1"]]),
    "top-level-array": [TWO_POINTS],
    "no-points": {"weights": {"a": "1"}},
}


def prokhorov_two_way(mu, nu) -> Fraction:
    """The former Prokhorov scan, which checks both conditions on every
    subset at every breakpoint, kept as the oracle of the one-direction
    `prokhorov`."""
    table = _merged_table(mu, nu)
    points = sorted(set(mu.support()) | set(nu.support()))
    breakpoints = sorted({_dist(table, a, b) for a, b in combinations(points, 2)})
    n = len(points)
    subsets = [
        [points[i] for i in range(n) if mask & (1 << i)] for mask in range(1, 1 << n)
    ]
    lows = [Fraction(0)] + breakpoints
    for k, lo in enumerate(lows):
        hi = breakpoints[k] if k < len(breakpoints) else None
        threshold = Fraction(0)
        for subset in subsets:
            enlarged = [
                x for x in points if min(_dist(table, x, a) for a in subset) <= lo
            ]
            gap = max(
                mu.mass(subset) - nu.mass(enlarged),
                nu.mass(subset) - mu.mass(enlarged),
            )
            threshold = max(threshold, gap)
        if hi is None or threshold <= hi:
            return max(threshold, lo)
    raise AssertionError("unreachable: last interval always admits the infimum")


def prokhorov_subset_scan(mu, nu) -> Fraction:
    """The former one-direction Prokhorov scan, which takes the worst gap
    `mu(A) - nu(A^lo)` over every subset A at every breakpoint, kept as the
    oracle of the max-flow `prokhorov`."""
    table = _merged_table(mu, nu)
    points = sorted(set(mu.support()) | set(nu.support()))
    breakpoints = sorted({_dist(table, a, b) for a, b in combinations(points, 2)})
    n = len(points)
    subsets = [
        [points[i] for i in range(n) if mask & (1 << i)] for mask in range(1, 1 << n)
    ]
    lows = [Fraction(0)] + breakpoints
    for k, lo in enumerate(lows):
        hi = breakpoints[k] if k < len(breakpoints) else None
        # for eps in (lo, hi]:  A^eps = { x | d(x, A) <= lo }
        threshold = Fraction(0)
        for subset in subsets:
            enlarged = [
                x for x in points if min(_dist(table, x, a) for a in subset) <= lo
            ]
            threshold = max(threshold, mu.mass(subset) - nu.mass(enlarged))
        if hi is None or threshold <= hi:
            return max(threshold, lo)
    raise AssertionError("unreachable: last interval always admits the infimum")


def _unsent(supply: list[int], demand: list[int], linked: list) -> int:
    """The supply that a maximum flow leaves unsent, from point i's supply to
    point j's demand along the uncapped edges i -> j of `linked[i]`: shortest
    augmenting paths (Edmonds-Karp), searched breadth-first from every point
    with supply left.  Node i < n is supply i, node n + j is demand j."""
    n = len(supply)
    spare, need = list(supply), list(demand)
    sources = [i for i in range(n) if spare[i] > 0]
    sinks = {j for j in range(n) if need[j] > 0}
    carried: list[dict[int, int]] = [{} for _ in range(n)]  # j: {i: flow > 0}
    while True:
        parent = dict.fromkeys(sources)
        queue = list(parent)
        for v in queue:
            # forward along an edge, or back along one that carries flow
            for w in [n + j for j in linked[v]] if v < n else list(carried[v - n]):
                if w not in parent:
                    parent[w] = v
                    queue.append(w)
                    if w - n in sinks:
                        break
            if queue[-1] - n in sinks:
                break
        else:
            return sum(spare)
        path = [queue[-1]]  # demand, supply, demand, ..., supply
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        ahead = [(i, j - n) for i, j in zip(path[1::2], path[0::2])]
        back = [(i, j - n) for i, j in zip(path[1::2], path[2::2])]
        first, last = path[-1], path[0] - n
        amount = min([spare[first], need[last]] + [carried[j][i] for i, j in back])
        for i, j in ahead:
            carried[j][i] = carried[j].get(i, 0) + amount
        for i, j in back:
            carried[j][i] -= amount
            if not carried[j][i]:
                del carried[j][i]
        spare[first] -= amount
        need[last] -= amount
        if not spare[first]:
            sources.remove(first)
        if not need[last]:
            sinks.remove(last)


def prokhorov_by_bisection(mu, nu) -> Fraction:
    """The former max-flow `prokhorov`, which binary-searches the intervals
    between pairwise distances with one Edmonds-Karp flow from zero per
    probe, kept as the oracle of the one growing flow."""
    table = _merged_table(mu, nu)
    points = sorted(set(mu.support()) | set(nu.support()))
    n = len(points)
    masses, mass_scale = _integers(
        [mu.weights.get(x, Fraction(0)) for x in points]
        + [nu.weights.get(x, Fraction(0)) for x in points]
    )
    supply, demand = masses[:n], masses[n:]
    if sum(supply) != sum(demand):  # the one-way gap stands for both only then
        raise ValueError("the measures have different total masses")
    flat, dist_scale = _integers([_dist(table, a, b) for a in points for b in points])
    lows = sorted({0}.union(flat))  # 0, then the pairwise distances
    rank = {lo: k for k, lo in enumerate(lows)}
    ranks = [[rank[d] for d in flat[i * n : (i + 1) * n]] for i in range(n)]

    @cache  # the search and the answer often ask for the same interval
    def gap(k: int) -> int:
        # for eps in (lows[k], lows[k + 1]]:  A^eps = { x | d(x, A) <= lows[k] }
        linked = [[j for j, r in enumerate(row) if r <= k] for row in ranks]
        return _unsent(supply, demand, linked)

    # the first interval that admits its gap; the last one always does, and
    # gap / mass_scale <= lows[k + 1] / dist_scale is compared in integers
    k = bisect_left(
        range(len(lows) - 1),
        True,
        key=lambda k: gap(k) * dist_scale <= lows[k + 1] * mass_scale,
    )
    return max(Fraction(gap(k), mass_scale), Fraction(lows[k], dist_scale))


def prokhorov_by_growing_flow(mu, nu) -> Fraction:
    """The former growing-flow `prokhorov`, which builds every level's edge
    list up front and finds each augmenting path of level 0 by its own
    search, kept as the oracle of the lazily built levels and the level-0
    matching."""
    table = _merged_table(mu, nu)
    points = sorted(set(mu.support()) | set(nu.support()))
    n = len(points)
    masses, mass_scale = _integers(
        [mu.weights.get(x, Fraction(0)) for x in points]
        + [nu.weights.get(x, Fraction(0)) for x in points]
    )
    spare, need = masses[:n], masses[n:]  # supply i and demand j left
    if sum(spare) != sum(need):  # the one-way gap stands for both only then
        raise ValueError("the measures have different total masses")
    pairs = list(combinations(range(n), 2))  # keyed as `_pair` keys them
    try:
        dists = [table[points[i], points[j]] for i, j in pairs]
    except KeyError:
        for i, j in pairs:  # the first missing pair raises
            _dist(table, points[i], points[j])
        raise
    flat, dist_scale = _integers(dists)
    lows = sorted({0}.union(flat))  # 0, then the pairwise distances
    rank = {lo: k for k, lo in enumerate(lows)}
    edges = [[] for _ in lows]  # level k: the edges i -> j with d(i, j) = lows[k]
    edges[rank[0]] = [(i, i) for i in range(n)]
    for (i, j), d in zip(pairs, flat):
        edges[rank[d]] += ((i, j), (j, i))

    # One maximum flow from supply i to demand j along the uncapped edges
    # i -> j of `linked[i]`, grown level by level: node i < n is supply i,
    # node n + j is demand j.  `parent` and `queue[:head]` are the last
    # breadth-first search of the residual graph from the supplies left;
    # once it fails, new edges only extend it, and it starts afresh only
    # after an augmenting path.
    linked: list[list[int]] = [[] for _ in range(n)]
    carried: list[dict[int, int]] = [{} for _ in range(n)]  # j: {i: flow > 0}
    parent = {i: None for i in range(n) if spare[i]}
    queue, head = list(parent), 0
    for k, level in enumerate(edges):
        found = None
        for i, j in level:
            linked[i].append(j)
            if i in parent and n + j not in parent:  # the search reaches j now
                parent[n + j] = i
                queue.append(n + j)
                if need[j]:
                    found = n + j
        while True:
            while found is None and head < len(queue):
                v = queue[head]
                head += 1
                if v >= n:  # back along the edges that carry flow into v
                    for i in carried[v - n]:
                        if i not in parent:
                            parent[i] = v
                            queue.append(i)
                    continue
                for j in linked[v]:  # forward along the edges out of v
                    if n + j not in parent:
                        parent[n + j] = v
                        if need[j]:
                            found = n + j
                            break
                        queue.append(n + j)
            if found is None:
                break
            path = [found]  # demand, supply, demand, ..., supply
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            ahead = [(i, j - n) for i, j in zip(path[1::2], path[0::2])]
            back = [(i, j - n) for i, j in zip(path[1::2], path[2::2])]
            first, last = path[-1], path[0] - n
            amount = min([spare[first], need[last]] + [carried[j][i] for i, j in back])
            for i, j in ahead:
                carried[j][i] = carried[j].get(i, 0) + amount
            for i, j in back:
                carried[j][i] -= amount
                if not carried[j][i]:
                    del carried[j][i]
            spare[first] -= amount
            need[last] -= amount
            parent = {i: None for i in range(n) if spare[i]}
            queue, head, found = list(parent), 0, None
        # for eps in (lows[k], lows[k + 1]]:  A^eps = { x | d(x, A) <= lows[k] },
        # and the worst gap is the supply left; the last interval always
        # admits it, and gap / mass_scale <= lows[k + 1] / dist_scale is
        # compared in integers
        gap = sum(spare)
        if k + 1 == len(lows) or gap * dist_scale <= lows[k + 1] * mass_scale:
            return max(Fraction(gap, mass_scale), Fraction(lows[k], dist_scale))


def triangle_scan(table: dict) -> list[str]:
    """The former triangle check of `FiniteMeasure.validate`, with three
    `Fraction` lookups per triple of named points, kept as the oracle of the
    integer index-matrix scan."""
    problems = []
    names = sorted({x for pair in table for x in pair})
    for x, y, z in combinations(names, 3):
        try:
            dxy = _dist(table, x, y)
            dxz = _dist(table, x, z)
            dyz = _dist(table, y, z)
        except IncompatibleSupports:
            continue
        if dxy > dxz + dyz or dxz > dxy + dyz or dyz > dxy + dxz:
            problems.append(f"triangle inequality fails on {x},{y},{z}")
    return problems


def random_distance_table(rng: random.Random) -> dict:
    """A random distance table over up to 12 names: some pairs missing, some
    keys reversed, some distances zero or negative, now and then a self
    distance, and triangle violations common."""
    names = [f"x{i}" for i in range(rng.randint(0, 12))]
    table = {}
    for a, b in combinations(names, 2):
        if rng.random() < 0.85:
            key = (a, b) if rng.random() < 0.5 else (b, a)
            table[key] = Fraction(rng.randint(-1, 9), rng.randint(1, 5))
    if names and rng.random() < 0.2:
        table[names[0], names[0]] = Fraction(1)
    return table


def random_metric_measures(rng: random.Random, n: int, line=None):
    """Two random probability measures on n named points of a random metric:
    the positions of points on a line, or the shortest paths of a random
    complete graph with rational edge lengths, as `line` is True or False,
    or by a coin flip when it is None.  Some weights are zero."""
    points = [f"x{i}" for i in range(n)]
    if line is None:
        line = rng.random() < 0.5
    if line:
        xs = [Fraction(rng.randint(0, 12), rng.randint(1, 4)) for _ in range(n)]
        xs = [x + Fraction(i, 100) for i, x in enumerate(xs)]  # distinct points
        d = [[abs(x - y) for y in xs] for x in xs]
    else:
        d = [[Fraction(0)] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            d[i][j] = d[j][i] = Fraction(rng.randint(1, 8), rng.randint(1, 6))
        for k in range(n):  # Floyd-Warshall closes the triangle inequality
            for i in range(n):
                for j in range(n):
                    d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    distance = {(points[i], points[j]): d[i][j] for i, j in combinations(range(n), 2)}

    def measure():
        raw = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(n)]
        raw[rng.randrange(n)] += 1
        weights = {p: Fraction(w, sum(raw)) for p, w in zip(points, raw)}
        return FiniteMeasure(points, weights, distance)

    return measure(), measure()


def distinct_distance_line(n: int):
    """Two probability measures, all of whose weights are positive, on n
    points of a line whose n(n-1)/2 distances are all distinct: point i sits
    at 2pi + (i^2 mod p) for a prime p >= n (Erdos and Turan's Sidon set),
    scaled into [0, 1]."""
    p = next(q for q in range(max(n, 2), 2 * n + 3) if all(q % r for r in range(2, q)))
    xs = [2 * p * i + i * i % p for i in range(n)]
    points = [f"x{i}" for i in range(n)]
    distance = {
        (points[i], points[j]): Fraction(xs[j] - xs[i], xs[-1] or 1)
        for i, j in combinations(range(n), 2)
    }

    def measure(raw):
        weights = {x: Fraction(w, sum(raw)) for x, w in zip(points, raw)}
        return FiniteMeasure(points, weights, distance)

    return (
        measure([1 + i % 7 for i in range(n)]),
        measure([1 + i * i % 5 for i in range(n)]),
    )


# ---------------------------------------------------------------------------
# The records as they were while each was a dataclass, kept as the oracles of
# their `repr`, `==` and hashing: the immutable ones are NamedTuples now, and
# the mutable ones `MutableRecord`s.  Each keeps the name its repr spells.


def _named(name: str):
    def rename(cls):
        cls.__name__ = cls.__qualname__ = name
        return cls

    return rename


@_named("FiniteDMM")
@dataclasses.dataclass
class DataclassFiniteDMM:
    worlds: list[str]
    valuation: dict[int, set[str]] = dataclasses.field(default_factory=dict)
    kernel: dict[str, dict[str, Fraction]] = dataclasses.field(default_factory=dict)
    successor: dict[str, str] = dataclasses.field(default_factory=dict)


@_named("FiniteMeasure")
@dataclasses.dataclass
class DataclassFiniteMeasure:
    points: list[str]
    weights: dict[str, Fraction]
    distance: dict[tuple[str, str], Fraction] = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        # one key per pair, in the order `_dist` looks it up
        table: dict[tuple[str, str], Fraction] = {}
        for (a, b), d in self.distance.items():
            if table.setdefault(_pair(a, b), d) != d:
                raise IncompatibleSupports(f"conflicting distances for {a}|{b}")
        self.distance = table


@_named("LinearSystem")
@dataclasses.dataclass
class DataclassLinearSystem:
    constraints: list = dataclasses.field(default_factory=list)
    num_vars: int = 0


@_named("Constraint")
@dataclasses.dataclass(frozen=True)
class DataclassConstraint:
    coeffs: tuple
    constant: Fraction
    relation: Rel


@_named("_CellTable")
@dataclasses.dataclass(frozen=True, slots=True)
class DataclassCellTable:
    disjuncts: tuple
    ones: tuple
    columns: dict


@_named("Verdict")
@dataclasses.dataclass(frozen=True)
class DataclassVerdict:
    status: str


@_named("Interval")
@dataclasses.dataclass(frozen=True)
class DataclassInterval:
    lower: Fraction
    upper: Fraction


@_named("StageRecord")
@dataclasses.dataclass(frozen=True)
class DataclassStageRecord:
    index: int
    case: int
    formula: object
    extra: Optional[object] = None


@_named("Distance")
@dataclasses.dataclass(frozen=True)
class DataclassDistance:
    exact: bool
    value: Fraction


@_named("Justification")
@dataclasses.dataclass(frozen=True)
class DataclassJustification:
    kind: str
    scheme: Optional[str] = None
    refs: tuple[int, ...] = ()


@_named("Derivation")
@dataclasses.dataclass(frozen=True)
class DataclassDerivation:
    steps: tuple
    hypotheses: Optional[frozenset] = None


@_named("CheckResult")
@dataclasses.dataclass(frozen=True)
class DataclassCheckResult:
    accepted: bool
    step: Optional[int] = None
    reason: Optional[str] = None


DATACLASS_OF = {
    FiniteDMM: DataclassFiniteDMM,
    FiniteMeasure: DataclassFiniteMeasure,
    LinearSystem: DataclassLinearSystem,
    Constraint: DataclassConstraint,
    _CellTable: DataclassCellTable,
    Verdict: DataclassVerdict,
    Interval: DataclassInterval,
    StageRecord: DataclassStageRecord,
    Distance: DataclassDistance,
    Justification: DataclassJustification,
    Derivation: DataclassDerivation,
    CheckResult: DataclassCheckResult,
}


def as_dataclass(value):
    """`value` with every record in it, itself or inside tuples and lists,
    made the dataclass it was."""
    former = DATACLASS_OF.get(type(value))
    if former is not None:
        return former(*[as_dataclass(getattr(value, name)) for name in value._fields])
    if type(value) in (tuple, list):
        return type(value)(map(as_dataclass, value))
    return value
