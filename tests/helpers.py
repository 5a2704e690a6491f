"""Shared test utilities: seeded random formulas and axiom-scheme instances."""

from __future__ import annotations

import random
from fractions import Fraction

from probnext import And, AtLeast, Next, Not, Prop, iff, implies, push_next, render
from probnext.enumeration import enum_rational, sort_key
from probnext.linarith import LinearSystem, eq, ge, gt


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


SCHEME_NAMES = ("FA1", "FA2", "FA3", "FA4", "Mono", "Func", "Conj")


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
