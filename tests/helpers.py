"""Shared test utilities: seeded random formulas and axiom-scheme instances,
and the replaced algorithms kept as differential oracles."""

from __future__ import annotations

import random
import resource
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from probnext import (
    And,
    AtLeast,
    Next,
    Not,
    Prop,
    conj,
    decide,
    iff,
    implies,
    lor,
    proof,
    push_next,
    render,
)
from probnext.canonical import _bound_stack_pattern, _rebuild_stack
from probnext.enumeration import enum_formula, enum_rational, sort_key, spelling
from probnext.linarith import LinearSystem, Rel, eq, ge, gt, satisfies, solve
from probnext.prokhorov import FiniteMeasure, IncompatibleSupports, _dist, _merged_table


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


def witnessing(cell):
    """The disjunct of a cell formula that a witness is built from: the
    first satisfiable one of its DNF, or None."""
    return decide._witnessing(decide.to_disjuncts(cell))


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


def cells_by_conj(columns):
    """The former cell enumeration of `decide.world_sat`, kept as the oracle
    of `decide._cells`: the columns in spelling order, a valid one fixed
    to 1 and an unsatisfiable one to 0, and for each of the 2^k choices over
    the k contingent columns, in order, a fresh `conj` over every column
    and `sat_status` on it.  Returns a `decide._CellTable` that holds each
    cell's formula; `witnessed` maps them to the table `_cells` keeps."""
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
    return decide._CellTable({b: i for i, b in enumerate(bodies)}, tuple(sat_cells))


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
        if decide._witnessing(without) is None:
            options.append([(1 << i, within)])
        elif decide._witnessing(within) is not None:
            options.append([(0, without), (1 << i, within)])
        else:
            options.append([(0, without)])
    cells = []
    stack = [(1, bit, dnf) for bit, dnf in options[0]]
    while stack:
        depth, mask, dnf = stack.pop()
        if depth == len(bodies):
            d = decide._witnessing(dnf)
            if d is not None:
                cells.append((mask, d))
            continue
        for bit, option_dnf in options[depth]:
            merged = decide._merge(dnf, option_dnf)
            if merged:
                stack.append((depth + 1, mask | bit, merged))
    cells.sort(key=lambda cell: cell[0])
    return decide._CellTable({b: i for i, b in enumerate(bodies)}, tuple(cells))


def witnessed(table):
    """A `cells_by_conj` table with each cell formula replaced by its
    witnessing disjunct."""
    cells = tuple((mask, witnessing(cell)) for mask, cell in table.cells)
    return decide._CellTable(table.column_of, cells)


def cell_system(table, bounds) -> LinearSystem:
    """The former LP of `decide.world_sat` over a cell table, kept as the
    oracle of `decide._cell_rows`: `tableau_by_constraints` of this system
    is the tableau that `linarith` builds from the cell rows."""
    sat_cells, column_of = table.cells, table.column_of
    system = LinearSystem(num_vars=len(sat_cells))
    system.constraints.append(eq(dict.fromkeys(range(len(sat_cells)), 1), -1))
    for i in range(len(sat_cells)):
        system.constraints.append(ge({i: 1}))
    # L[r] reads  e - r >= 0  and  !L[r] reads  -(e - r) > 0,  where e is
    # m(c), or 1 - m(c) for a negated column.  The rows follow the columns,
    # whatever order the bounds iterate in.
    literals = []
    for positive, atom in bounds:
        c, negated = bound_column(atom)
        literals.append((column_of[c], atom.bound, negated, 1 if positive else -1))
    for b, bound, negated, polarity in sorted(literals):
        sign, constant = (-1, 1 - bound) if negated else (1, -bound)
        relation = ge if polarity > 0 else gt
        inside = [i for i, (mask, _) in enumerate(sat_cells) if mask & (1 << b)]
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
