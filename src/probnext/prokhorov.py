"""Exact Prokhorov distances between finitely supported rational measures.

The distance between two measures over a finite rational metric space is

    inf { eps > 0 | mu(A) <= nu(A^eps) + eps  and  nu(A) <= mu(A^eps) + eps
                    for every subset A }

where A^eps = { x | d(x, A) < eps } (strict enlargement).  The infimum is
computed exactly: between consecutive pairwise distances the enlargement
operator is constant and every condition is linear in eps, so the answer is
either a pairwise distance or an achievable mass gap, and each candidate is
verified over all subsets of the joint support.  Only the first of the two
conditions is scanned: within one interval each worst gap is the total mass
minus the maximum flow between the measures along the pairs at distance at
most the interval's lower end (Gale's supply-demand theorem, 1957), and as
that graph is symmetric the two gaps are equal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .models import fraction_from_str, fraction_to_str


class IncompatibleSupports(ValueError):
    """The distance table does not cover the joint support."""


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _dist(table: dict, a: str, b: str) -> Fraction:
    if a == b:
        return Fraction(0)
    try:
        return table[_pair(a, b)]
    except KeyError:
        raise IncompatibleSupports(f"no distance for {a}|{b}") from None


@dataclass
class FiniteMeasure:
    """Finitely supported probability measure over named metric points."""

    points: list[str]
    weights: dict[str, Fraction]
    distance: dict[tuple[str, str], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        # one key per pair, in the order `_dist` looks it up
        table: dict[tuple[str, str], Fraction] = {}
        for (a, b), d in self.distance.items():
            if table.setdefault(_pair(a, b), d) != d:
                raise IncompatibleSupports(f"conflicting distances for {a}|{b}")
        self.distance = table

    def mass(self, subset) -> Fraction:
        return sum((self.weights.get(x, Fraction(0)) for x in subset), Fraction(0))

    def support(self) -> list[str]:
        return [x for x in self.points if self.weights.get(x, 0) > 0]

    def validate(self) -> list[str]:
        problems = []
        total = Fraction(0)
        for x, wt in self.weights.items():
            if wt < 0:
                problems.append(f"negative weight {wt} at {x}")
            total += wt
        if total != 1:
            problems.append(f"weights sum to {total} != 1")
        for (a, b), d in self.distance.items():
            if a == b:
                problems.append(f"self distance listed for {a}")
            elif d <= 0:
                problems.append(f"non-positive distance {d} for {a}|{b}")
        names = sorted({x for pair in self.distance for x in pair})
        for x, y, z in combinations(names, 3):
            try:
                dxy = _dist(self.distance, x, y)
                dxz = _dist(self.distance, x, z)
                dyz = _dist(self.distance, y, z)
            except IncompatibleSupports:
                continue
            if dxy > dxz + dyz or dxz > dxy + dyz or dyz > dxy + dxz:
                problems.append(f"triangle inequality fails on {x},{y},{z}")
        return problems


def _merged_table(mu: FiniteMeasure, nu: FiniteMeasure) -> dict:
    table = dict(mu.distance)
    for pair, d in nu.distance.items():
        if pair in table and table[pair] != d:
            raise IncompatibleSupports(f"conflicting distances for {pair}")
        table[pair] = d
    return table


def prokhorov(mu: FiniteMeasure, nu: FiniteMeasure) -> Fraction:
    """Exact Prokhorov distance of two measures sharing a distance table."""
    if sum(mu.weights.values()) != sum(nu.weights.values()):  # one-way scan needs it
        raise ValueError("the measures have different total masses")
    table = _merged_table(mu, nu)
    points = sorted(set(mu.support()) | set(nu.support()))
    breakpoints = sorted(
        {_dist(table, a, b) for a, b in combinations(points, 2)}
    )
    n = len(points)
    subsets = [
        [points[i] for i in range(n) if mask & (1 << i)]
        for mask in range(1, 1 << n)
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


def measure_to_dict(m: FiniteMeasure) -> dict:
    return {
        "points": list(m.points),
        "weights": {x: fraction_to_str(wt) for x, wt in sorted(m.weights.items())},
        "distance": {
            f"{a}|{b}": fraction_to_str(d) for (a, b), d in sorted(m.distance.items())
        },
    }


def measure_from_dict(data: dict) -> FiniteMeasure:
    weights = {x: fraction_from_str(s) for x, s in data.get("weights", {}).items()}
    distance = {}
    for key, s in data.get("distance", {}).items():
        a, _, b = key.partition("|")
        distance[a, b] = fraction_from_str(s)
    return FiniteMeasure(list(data["points"]), weights, distance)


def load_measure(path: str) -> FiniteMeasure:
    with open(path) as fh:
        return measure_from_dict(json.load(fh))


def save_measure(m: FiniteMeasure, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(measure_to_dict(m), fh, indent=2)
