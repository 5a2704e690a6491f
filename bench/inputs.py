"""Seeded input generators for the benchmark workloads.

Every generator returns plain data (formula text, point lists, rationals) and
never touches `probnext`, so the program receives only the generated inputs.
Each input is a function of a string seed alone (`random.Random(str)` hashes
the string with SHA-512), so any entry can be regenerated by its index
without generating the ones before it.
"""

from __future__ import annotations

import random
from fractions import Fraction

# decide-mix: the acceptance-suite caps for random formulas.
MIX_MAX_SIZE = 20
MIX_MAX_PROB_DEPTH = 2
MIX_MAX_NEXT_DEPTH = 3
MIX_MAX_DEN = 4
MIX_PROPS = 3
MIX_DERIVES_SHARE = 1 / 3
SCHEMES = ("FA1", "FA2", "FA3", "FA4", "Mono", "Func", "Conj")

# lp-bounds: k probability bounds on disjunctions plus one negated bound.
LP_K = 4

# lindenbaum: construction budget, on the steep part of the stage curve.
LINDENBAUM_BUDGET = 50

# prokhorov: support sizes, cycled in this order.
PROKHOROV_SIZES = (6, 8, 10)


def _rational(rng: random.Random, max_den: int, lo: int = 0, hi_gap: int = 0) -> Fraction:
    den = rng.randint(max(1, lo + hi_gap), max_den)
    return Fraction(rng.randint(lo, den - hi_gap), den)


def _bound(r: Fraction) -> str:
    return f"L[{r.numerator}/{r.denominator}]"


def formula_text(
    rng: random.Random,
    max_size: int = MIX_MAX_SIZE,
    max_prob_depth: int = MIX_MAX_PROB_DEPTH,
    max_next_depth: int = MIX_MAX_NEXT_DEPTH,
    max_den: int = MIX_MAX_DEN,
    n_props: int = MIX_PROPS,
) -> str:
    """Random formula within the size, depth and denominator caps.

    Binary nodes are always parenthesised, so every result can be used as the
    operand of a unary operator.
    """

    def go(size: int, pd: int, dd: int) -> str:
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
            return f"p{rng.randrange(n_props)}"
        if pick == "not":
            return "!" + go(size - 1, pd, dd)
        if pick == "next":
            return "X " + go(size - 1, pd, dd - 1)
        if pick == "atleast":
            return _bound(_rational(rng, max_den)) + " " + go(size - 1, pd - 1, dd)
        split = rng.randint(1, size - 2)
        return f"({go(split, pd, dd)} & {go(size - 1 - split, pd, dd)})"

    return go(rng.randint(3, max_size), max_prob_depth, max_next_depth)


def scheme_text(rng: random.Random, name: str) -> str:
    """A random instance of one of the probabilistic or next-time axiom schemes."""

    def body() -> str:
        return formula_text(rng, 4, 1, 1, 3, 2)

    a, b = body(), body()
    if name == "FA1":
        return f"L[0] ({a} & !{a})"
    if name == "FA2":
        while True:
            r, s = _rational(rng, 6), _rational(rng, 6)
            if r + s > 1:
                return f"({_bound(r)} !{a} -> !{_bound(s)} {a})"
    if name in ("FA3", "FA4"):
        while True:
            r, s = _rational(rng, 6), _rational(rng, 6)
            if r + s <= 1:
                break
        neg = "!" if name == "FA4" else ""
        return (
            f"(({neg}{_bound(r)} ({a} & {b}) & {neg}{_bound(s)} ({a} & !{b}))"
            f" -> {neg}{_bound(r + s)} {a})"
        )
    if name == "Mono":
        r = _bound(_rational(rng, 6))
        return f"(L[1] ({a} -> {b}) -> ({r} {a} -> {r} {b}))"
    if name == "Func":
        return f"(X !{a} <-> !X {a})"
    if name == "Conj":
        return f"(X ({a} & {b}) <-> (X {a} & X {b}))"
    raise ValueError(name)


def mix_entry(index: int) -> tuple[str, str]:
    """Entry `index` of the decide-mix pool: ("sat", formula) or ("derives", axiom instance)."""
    rng = random.Random(f"decide-mix/{index}")
    if rng.random() < MIX_DERIVES_SHARE:
        return "derives", scheme_text(rng, rng.choice(SCHEMES))
    return "sat", formula_text(rng)


def lp_bounds_text(rng: random.Random, k: int = LP_K) -> str:
    """`L[r_i] (p_i | p_{i+1})` for i < k, and `!L[s] p_c` with c <= k.

    The bounds r_i, s are random with denominators 2..4.  Always
    satisfiable: the world where every prop but p_c holds gives each
    disjunction probability 1 and p_c probability 0 < s.
    """
    parts = [f"{_bound(_rational(rng, 4, 1, 1))} (p{i} | p{i + 1})" for i in range(k)]
    parts.append(f"!{_bound(_rational(rng, 4, 1, 1))} p{rng.randrange(k + 1)}")
    return " & ".join(parts)


def lindenbaum_seeds() -> list[str]:
    """The ROADMAP example seed and its three mirror images (props swapped,
    next-literal negated).

    Where the stage curve turns steep depends on the seed: from a cold start
    these four take 2.2-2.6 s to budget 50 with a median stage of about
    0.8 ms, while over the 35 bound/shape variants on p0, p1 the median
    stage ranges 0.46-0.97 ms, and seeds such as `L[1/2] X p1 & p0` or
    `L[2/3] p2 & X !p1` take minutes.
    """
    return ["L[1/2] p0 & X p1", "L[1/2] p0 & X !p1", "L[1/2] p1 & X p0", "L[1/2] p1 & X !p0"]


def prokhorov_instance(n: int, index: int) -> tuple[list[str], dict, dict, dict]:
    """Two measures on n points of a 1-D grid metric: (points, mu, nu, distance).

    Points sit at distinct positions of a grid with 2n cells on [0, 1];
    weights are random integers 1..6, normalised.
    """
    rng = random.Random(f"prokhorov/{n}/{index}")
    xs = sorted(rng.sample(range(2 * n), n))
    points = [f"x{i}" for i in range(n)]
    distance = {
        (points[i], points[j]): Fraction(xs[j] - xs[i], 2 * n)
        for i in range(n)
        for j in range(i + 1, n)
    }

    def weights() -> dict:
        raw = [rng.randint(1, 6) for _ in range(n)]
        return {p: Fraction(w, sum(raw)) for p, w in zip(points, raw)}

    return points, weights(), weights(), distance
