"""Shared test utilities: seeded random formulas and axiom-scheme instances,
and the replaced algorithms kept as differential oracles."""

from __future__ import annotations

import random
import resource
from fractions import Fraction
from itertools import combinations

from probnext import (
    And,
    AtLeast,
    Next,
    Not,
    Prop,
    iff,
    implies,
    proof,
    push_next,
    render,
)
from probnext.enumeration import enum_rational, sort_key
from probnext.linarith import LinearSystem, eq, ge, gt
from probnext.prokhorov import FiniteMeasure, _dist, _merged_table


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


def push_then_dnf(f):
    """The former DNF of `decide`, kept as the oracle of `to_disjuncts`: move
    every next-operator down to the atoms with `push_next`, then strip the
    leading next-operators off each atom to read its time stamp.  Same
    literals, same pruning and same order as `to_disjuncts(push_next(f))`."""

    def strip_next(g):
        steps = 0
        while isinstance(g, Next):
            steps += 1
            g = g.body
        return steps, g

    def atom_of(g):
        steps, core = strip_next(g)
        if isinstance(core, Prop):
            return ("p", steps, core.index)
        if isinstance(core, AtLeast):
            return ("L", steps, core.bound, core.body)
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
                if not any((not pol, atom) in a for pol, atom in b)
            )
        return [frozenset({(polarity, atom_of(g))})]

    def literal_key(lit):
        polarity, atom = lit
        if atom[0] == "p":
            return (atom[1], 0, atom[2], not polarity)
        return (atom[1], 1, atom[2], render(atom[3]), not polarity)

    disjuncts = dnf(push_next(f), True)
    return sorted(disjuncts, key=lambda d: sorted(map(literal_key, d)))


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


HAND_WRITTEN_SCHEMES = {
    "Taut": proof.is_tautology,
    "FA1": _is_fa1,
    "FA2": _is_fa2,
    "FA3": _is_fa3,
    "FA4": _is_fa4,
    "Mono": _is_mono,
    "Func": _is_func,
    "Conj": _is_conj,
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


def random_metric_measures(rng: random.Random, n: int):
    """Two random probability measures on n named points of a random metric:
    the positions of points on a line, or the shortest paths of a random
    complete graph with rational edge lengths.  Some weights are zero."""
    points = [f"x{i}" for i in range(n)]
    if rng.random() < 0.5:
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
