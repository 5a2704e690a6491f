"""Finite dynamic Markov models: checking, validation, (de)serialization
and seeded random generation for refutation searches.

The state space is finite and the sigma-algebra is the full powerset, so
every measurability condition is automatic.  Kernel entries are exact
rationals and each row must sum to exactly 1.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from math import lcm

from .formula import And, AtLeast, Formula, Next, Not, Prop
from .record import MutableRecord


class UnknownWorld(KeyError):
    pass


class FiniteDMM(MutableRecord):
    _fields = ("worlds", "valuation", "kernel", "successor")

    def __init__(
        self,
        worlds: list[str],
        valuation: dict[int, set[str]] | None = None,
        kernel: dict[str, dict[str, Fraction]] | None = None,
        successor: dict[str, str] | None = None,
    ):
        self.worlds = worlds
        self.valuation = {} if valuation is None else valuation
        self.kernel = {} if kernel is None else kernel
        self.successor = {} if successor is None else successor

    def extension(self, f: Formula) -> frozenset[str]:
        """Worlds where f holds."""
        return self._extension(f, frozenset(self.worlds), {}, [])

    def _extension(
        self, f: Formula, everywhere: frozenset, cache: dict, rows: list
    ) -> frozenset[str]:
        """`rows` holds each world's scaled kernel row once the first bound
        has made them."""
        if f in cache:
            return cache[f]
        kind = type(f)
        if kind is Prop:
            result = frozenset(self.valuation.get(f.index, ()))
        elif kind is Not:
            result = everywhere - self._extension(f.body, everywhere, cache, rows)
        elif kind is And:
            left = self._extension(f.left, everywhere, cache, rows)
            result = left & self._extension(f.right, everywhere, cache, rows)
        elif kind is AtLeast:
            body = self._extension(f.body, everywhere, cache, rows)
            if not rows:
                rows.extend((w, *_scaled_row(self.kernel.get(w, {}))) for w in self.worlds)
            num, den = f.bound.as_integer_ratio()
            holds = []
            for w, row_den, entries in rows:
                mass = 0
                for u, n in entries:
                    if u in body:
                        mass += n
                if mass * den >= num * row_den:
                    holds.append(w)
            result = frozenset(holds)
        elif kind is Next:
            body = self._extension(f.body, everywhere, cache, rows)
            result = frozenset(w for w in self.worlds if self.successor[w] in body)
        else:
            raise TypeError(f"not a formula: {f!r}")
        cache[f] = result
        return result

    def check(self, world: str, f: Formula) -> bool:
        if world not in self.worlds:
            raise UnknownWorld(world)
        return world in self.extension(f)

    def validate(self) -> list[str]:
        """Empty list when the model is well formed, else diagnostics."""
        problems = []
        world_set = set(self.worlds)
        if len(world_set) != len(self.worlds):
            problems.append("duplicate world ids")
        for w in self.worlds:
            row = self.kernel.get(w)
            if row is None:
                problems.append(f"missing kernel row for {w}")
                continue
            den, entries = _scaled_row(row)
            total = 0
            for u, n in entries:
                if u not in world_set:
                    problems.append(f"kernel row {w} targets unknown world {u}")
                if n < 0:
                    problems.append(f"negative mass {row[u]} in row {w}")
                total += n
            if total != den:
                problems.append(f"row mass {Fraction(total, den)} != 1 in row {w}")
        for w in self.worlds:
            succ = self.successor.get(w)
            if succ is None:
                problems.append(f"missing successor for {w}")
            elif succ not in world_set:
                problems.append(f"successor of {w} is unknown world {succ}")
        for w in sorted(self.kernel.keys() - world_set):
            problems.append(f"kernel row for unknown world {w}")
        for w in sorted(self.successor.keys() - world_set):
            problems.append(f"successor given for unknown world {w}")
        for p, ws in self.valuation.items():
            for w in ws:
                if w not in world_set:
                    problems.append(f"valuation of p{p} contains unknown world {w}")
        return problems


def _scaled_row(row: dict[str, Fraction]) -> tuple[int, list[tuple[str, int]]]:
    """A kernel row over one denominator: the lcm `den` of its masses'
    denominators, and each entry as `(u, num)` with mass `num / den`."""
    # One call a mass: a Fraction's numerator and denominator are each a property.
    ratios = [(u, *m.as_integer_ratio()) for u, m in row.items()]
    den = lcm(*[d for _, _, d in ratios])
    return den, [(u, n * (den // d)) for u, n, d in ratios]


def random_model(seed: int, n_worlds: int, n_props: int, denom_bound: int) -> FiniteDMM:
    """Deterministic-in-seed random model that always validates."""
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
        counts: dict[int, int] = {}
        for _ in range(denom):
            i = rng.randrange(n_worlds)
            counts[i] = counts.get(i, 0) + 1
        kernel[w] = {worlds[i]: Fraction(counts[i], denom) for i in sorted(counts)}
    successor = {w: rng.choice(worlds) for w in worlds}
    return FiniteDMM(worlds, valuation, kernel, successor)


def fraction_to_str(x: Fraction) -> str:
    """The "num/den" spelling every JSON file of the package uses."""
    return f"{x.numerator}/{x.denominator}"


def fraction_from_str(s: str) -> Fraction:
    """Inverse of fraction_to_str (also reads "n" and a leading "-");
    ValueError if malformed."""
    if not isinstance(s, str):
        raise ValueError(f"fraction must be a string such as \"1/2\", not {s!r}")
    if not re.fullmatch("-?[0-9]+(/[0-9]+)?", s):
        raise ValueError(f"fraction {s!r} is not spelled num/den in ASCII digits")
    num, _, den = s.partition("/")
    den = int(den) if den else 1
    if den == 0:
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(int(num), den)


def model_to_dict(m: FiniteDMM) -> dict:
    return {
        "worlds": list(m.worlds),
        "valuation": {
            f"p{p}": sorted(ws) for p, ws in sorted(m.valuation.items()) if ws
        },
        "kernel": {
            w: {u: fraction_to_str(mass) for u, mass in sorted(row.items())}
            for w, row in m.kernel.items()
        },
        "successor": dict(m.successor),
    }


def json_object(value, what: str) -> dict:
    """`value` when it is a JSON object; ValueError otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def json_strings(value, what: str) -> list[str]:
    """`value` when it is a JSON list of strings; ValueError otherwise."""
    if not (isinstance(value, list) and all(isinstance(x, str) for x in value)):
        raise ValueError(f"{what} must be a list of strings")
    return value


def model_from_dict(data) -> FiniteDMM:
    """The model a JSON value spells; ValueError when its shape is wrong."""
    data = json_object(data, "a model")
    valuation: dict[int, set[str]] = {}
    for key, ws in json_object(data.get("valuation", {}), "valuation").items():
        if not re.fullmatch("p[0-9]+", key):
            raise ValueError(f"valuation key {key!r} is not p<digits>")
        p = int(key[1:])
        if p in valuation:
            raise ValueError(f"valuation lists p{p} twice")
        valuation[p] = set(json_strings(ws, f"valuation of {key}"))
    # Wide models repeat a few spellings, so each distinct one is parsed
    # once.  A mass that is not a string raises in `fraction_from_str`
    # before it could be used as a key.
    masses: dict[str, Fraction] = {}
    kernel = {}
    for w, row in json_object(data.get("kernel", {}), "kernel").items():
        kernel[w] = parsed = {}
        for u, s in json_object(row, f"kernel row {w}").items():
            if not isinstance(s, str) or s not in masses:
                masses[s] = fraction_from_str(s)
            parsed[u] = masses[s]
    successor = json_object(data.get("successor", {}), "successor")
    for w, u in successor.items():
        if not isinstance(u, str):
            raise ValueError(f"successor of {w} must be a string")
    return FiniteDMM(
        worlds=list(json_strings(data.get("worlds"), "worlds")),
        valuation=valuation,
        kernel=kernel,
        successor=dict(successor),
    )


def save_model(m: FiniteDMM, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(m), fh, indent=2)


def load_model(path: str) -> FiniteDMM:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
