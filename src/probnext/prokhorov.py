"""Exact Prokhorov distances between finitely supported rational measures.

The distance between two measures over a finite rational metric space is

    inf { eps > 0 | mu(A) <= nu(A^eps) + eps  and  nu(A) <= mu(A^eps) + eps
                    for every subset A }

where A^eps = { x | d(x, A) < eps } (strict enlargement).  Between
consecutive pairwise distances lo < hi, A^eps = { x | d(x, A) <= lo } for
every eps in (lo, hi], so the answer is a pairwise distance or a mass gap.
There the worst gap max_A mu(A) - nu(A^eps) is the mass that a maximum flow
from mu to nu along the pairs at most lo apart cannot move (Gale 1957;
Strassen 1965), and by symmetry the second condition's worst gap is the
same.  The gap does not grow from one interval to the next while hi does, so
the answer lies in the first interval that admits its gap.

The intervals are visited in increasing order, and their graphs only gain
edges, so one flow grows through all of them: a flow that is maximum at one
level is feasible at the next (the monotone case of parametric max flow;
Gallo, Grigoriadis & Tarjan 1989).  Level 0 links each point to itself
only, a matching, so moving the common mass min(mu(x), nu(x)) at each x is
its maximum flow.  The pairs are sorted by distance once, and a level's
edges are linked only when the flow reaches it; they extend the residual
search that failed, which starts afresh only after an augmenting path, of
O(n^2) on n support points, and a gap that falls to the level's distance
ends the flow.  Masses and distances are scaled to ints by one
`as_integer_ratio()` each and the lcm of their kind's denominators, so the
flow and the comparisons run on exact ints; the answer is one `Fraction`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import lcm

from .models import fraction_from_str, fraction_to_str, json_object, json_strings
from .record import MutableRecord


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


class FiniteMeasure(MutableRecord):
    """Finitely supported probability measure over named metric points."""

    _fields = ("points", "weights", "distance")

    def __init__(
        self,
        points: list[str],
        weights: dict[str, Fraction],
        distance: dict[tuple[str, str], Fraction] | None = None,
    ):
        self.points = points
        self.weights = weights
        # one key per pair, in the order `_dist` looks it up
        self.distance: dict[tuple[str, str], Fraction] = {}
        for (a, b), d in (distance or {}).items():
            if self.distance.setdefault(_pair(a, b), d) != d:
                raise IncompatibleSupports(f"conflicting distances for {a}|{b}")

    def mass(self, subset) -> Fraction:
        return sum((self.weights.get(x, Fraction(0)) for x in subset), Fraction(0))

    def support(self) -> list[str]:
        # an int and a Fraction both carry a numerator, with the weight's
        # sign: cheaper than a Fraction comparison
        return [x for x in self.points if self.weights.get(x, 0).numerator > 0]

    def validate(self, *, triangles: bool = True) -> list[str]:
        """Empty list when the measure is well formed, else diagnostics; the
        cubic triangle-inequality scan of the distance table is left out
        when `triangles` is false."""
        problems = []
        total = Fraction(0)
        listed = set(self.points)
        if len(listed) != len(self.points):
            problems.append("duplicate point names")
        # `measure_to_dict` spells a distance key a|b
        for x in sorted(listed.union(*self.distance)):
            if "|" in x:
                problems.append(f"point name {x!r} contains |")
        for x, wt in self.weights.items():
            if x not in listed:
                problems.append(f"weight on unlisted point {x}")
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
        return problems + _triangle_failures(self.distance) if triangles else problems


def _integers(values: list) -> tuple[list[int], int]:
    """The rationals `values` times the lcm of their denominators, and that
    lcm."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _triangle_failures(table: dict) -> list[str]:
    """One problem per triple of named points, in lexicographic order, whose
    three distances break the triangle inequality; a triple that lacks a
    distance is skipped.  The distances are scaled once to integers by the
    lcm of their denominators, which keeps the comparisons exact."""
    names = sorted({x for pair in table for x in pair})
    at = {x: i for i, x in enumerate(names)}
    n = len(names)
    d = [[None] * n for _ in range(n)]
    for (a, b), dab in zip(table, _integers(list(table.values()))[0]):
        d[at[a]][at[b]] = d[at[b]][at[a]] = dab
    problems = []
    for i, j in combinations(range(n), 2):
        dij = d[i][j]
        if dij is None:
            continue
        for k, dik, djk in zip(range(j + 1, n), d[i][j + 1 :], d[j][j + 1 :]):
            if dik is None or djk is None:
                continue
            if dij > dik + djk or dik > dij + djk or djk > dij + dik:
                problems.append(
                    f"triangle inequality fails on {names[i]},{names[j]},{names[k]}"
                )
    return problems


def _merged_table(mu: FiniteMeasure, nu: FiniteMeasure) -> dict:
    if mu.distance == nu.distance:  # C-speed, and identical values compare first
        return mu.distance
    table = dict(mu.distance)
    for pair, d in nu.distance.items():
        if pair in table and table[pair] != d:
            raise IncompatibleSupports(f"conflicting distances for {'|'.join(pair)}")
        table[pair] = d
    return table


def prokhorov(mu: FiniteMeasure, nu: FiniteMeasure) -> Fraction:
    """Exact Prokhorov distance of two measures sharing a distance table."""
    table = _merged_table(mu, nu)
    points = sorted(set(mu.support()) | set(nu.support()))
    n = len(points)
    ratios = [m.weights.get(x, 0).as_integer_ratio() for m in (mu, nu) for x in points]
    mass_scale = lcm(*[q for _, q in ratios])
    masses = [p * (mass_scale // q) for p, q in ratios]
    spare, need = masses[:n], masses[n:]  # supply i and demand j left
    if sum(spare) != sum(need):  # the one-way gap stands for both only then
        raise ValueError("the measures have different total masses")
    try:  # keyed as `_pair` keys them
        ratios = [table[pair].as_integer_ratio() for pair in combinations(points, 2)]
    except KeyError:
        for a, b in combinations(points, 2):  # the first missing pair raises
            _dist(table, a, b)
        raise
    dist_scale = lcm(*[q for _, q in ratios])
    flat = [p * (dist_scale // q) for p, q in ratios]
    pairs = list(combinations(range(n), 2))
    order = sorted(range(len(flat)), key=flat.__getitem__)  # pairs by distance

    # One maximum flow from supply i to demand j along the uncapped edges
    # i -> j of `linked[i]`, grown level by level: node i < n is supply i,
    # node n + j is demand j.  `parent` and `queue[:head]` are the last
    # breadth-first search of the residual graph from the supplies left;
    # once it fails, the next level's edges only extend it, and it starts
    # afresh only after an augmenting path.
    linked = [[i] for i in range(n)]  # level 0: the self-edges, a matching
    carried: list[dict[int, int]] = [{} for _ in range(n)]  # j: {i: flow > 0}
    for i, common in enumerate(map(min, spare, need)):  # its maximum flow
        if common:
            carried[i][i] = common
            spare[i] -= common
            need[i] -= common
    parent = {i: None for i in range(n) if spare[i]}
    queue, head = list(parent), 0
    gap = sum(spare)
    lo, at = 0, 0  # the level's distance, and its first pair in `order`
    while True:
        found = None
        while at < len(order) and flat[order[at]] <= lo:
            i, j = pairs[order[at]]
            at += 1
            for i, j in (i, j), (j, i):
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
            gap -= amount
            if gap * dist_scale <= lo * mass_scale:  # then this level admits lo
                return Fraction(lo, dist_scale)
            parent = {i: None for i in range(n) if spare[i]}
            queue, head, found = list(parent), 0, None
        # for eps in (lo, hi], hi the next distance:  A^eps = { x | d(x, A) <= lo },
        # and the worst gap is the supply left; the last interval always
        # admits it, and gap / mass_scale <= hi / dist_scale is compared in
        # integers.  A gap that fell to lo returned lo, so here it is the answer.
        if at == len(order) or gap * dist_scale <= flat[order[at]] * mass_scale:
            return Fraction(gap, mass_scale)
        lo = flat[order[at]]


def measure_to_dict(m: FiniteMeasure) -> dict:
    return {
        "points": list(m.points),
        "weights": {x: fraction_to_str(wt) for x, wt in sorted(m.weights.items())},
        "distance": {
            f"{a}|{b}": fraction_to_str(d) for (a, b), d in sorted(m.distance.items())
        },
    }


def measure_from_dict(data) -> FiniteMeasure:
    """The measure a JSON value spells; ValueError when its shape is wrong."""
    data = json_object(data, "a measure")
    weights = {
        x: fraction_from_str(s)
        for x, s in json_object(data.get("weights", {}), "weights").items()
    }
    distance = {}
    for key, s in json_object(data.get("distance", {}), "distance").items():
        a, sep, b = key.partition("|")
        if not sep or "|" in b:
            raise ValueError(f"distance key {key!r} is not a|b")
        distance[a, b] = fraction_from_str(s)
    points = json_strings(data.get("points"), "points")
    return FiniteMeasure(list(points), weights, distance)


def load_measure(path: str) -> FiniteMeasure:
    with open(path) as fh:
        return measure_from_dict(json.load(fh))


def save_measure(m: FiniteMeasure, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(measure_to_dict(m), fh, indent=2)
