import json
import random
from fractions import Fraction

import pytest

from probnext import (
    FiniteMeasure,
    IncompatibleSupports,
    measure_from_dict,
    measure_to_dict,
    prokhorov,
)


def F(a, b=1):
    return Fraction(a, b)


def _dirac(point: str, other: str, d: Fraction) -> FiniteMeasure:
    return FiniteMeasure([point, other], {point: F(1)}, {tuple(sorted((point, other))): d})


def test_identical_measures_have_distance_zero():
    mu = FiniteMeasure(
        ["a", "b"], {"a": F(1, 3), "b": F(2, 3)}, {("a", "b"): F(1, 2)}
    )
    assert prokhorov(mu, mu) == 0


def test_dirac_distance_is_min_of_metric_and_one():
    for d in (F(1, 4), F(1, 2), F(1), F(3, 2), F(7, 3)):
        mu = _dirac("a", "b", d)
        nu = _dirac("b", "a", d)
        assert prokhorov(mu, nu) == min(d, F(1))


def test_mass_gap_dominates_when_points_are_close():
    # same support distances, different masses: the answer is the mass gap
    table = {("a", "b"): F(1, 100)}
    mu = FiniteMeasure(["a", "b"], {"a": F(1)}, table)
    nu = FiniteMeasure(["a", "b"], {"a": F(1, 2), "b": F(1, 2)}, table)
    d = prokhorov(mu, nu)
    # for eps in (1/100, 1]: every enlargement is the whole space, so the
    # binding condition is mu({a}) <= nu({a}) + eps at eps = 1/2 ... but the
    # first interval already admits eps down to the distance breakpoint
    assert d == F(1, 100)


def test_mass_gap_exact_value_on_disjoint_supports():
    table = {("a", "b"): F(2)}
    mu = FiniteMeasure(["a", "b"], {"a": F(3, 4), "b": F(1, 4)}, table)
    nu = FiniteMeasure(["a", "b"], {"a": F(1, 4), "b": F(3, 4)}, table)
    # below eps = 2 nothing is enlarged, so the answer is the largest gap 1/2
    assert prokhorov(mu, nu) == F(1, 2)


def test_symmetry():
    rng = random.Random(8)
    table = {("a", "b"): F(1, 2), ("a", "c"): F(3, 4), ("b", "c"): F(2, 3)}
    for _ in range(20):
        cuts = sorted(rng.randint(0, 6) for _ in range(2))
        mu = FiniteMeasure(
            ["a", "b", "c"],
            {"a": F(cuts[0], 6), "b": F(cuts[1] - cuts[0], 6), "c": F(6 - cuts[1], 6)},
            table,
        )
        cuts = sorted(rng.randint(0, 6) for _ in range(2))
        nu = FiniteMeasure(
            ["a", "b", "c"],
            {"a": F(cuts[0], 6), "b": F(cuts[1] - cuts[0], 6), "c": F(6 - cuts[1], 6)},
            table,
        )
        assert prokhorov(mu, nu) == prokhorov(nu, mu)


def test_conflicting_distance_tables_rejected():
    mu = FiniteMeasure(["a", "b"], {"a": F(1)}, {("a", "b"): F(1, 2)})
    nu = FiniteMeasure(["a", "b"], {"b": F(1)}, {("a", "b"): F(1, 3)})
    with pytest.raises(IncompatibleSupports):
        prokhorov(mu, nu)


def test_missing_distance_rejected():
    mu = FiniteMeasure(["a"], {"a": F(1)}, {})
    nu = FiniteMeasure(["b"], {"b": F(1)}, {})
    with pytest.raises(IncompatibleSupports):
        prokhorov(mu, nu)


def test_validate():
    good = FiniteMeasure(["a", "b"], {"a": F(1, 2), "b": F(1, 2)}, {("a", "b"): F(1)})
    assert good.validate() == []
    bad = FiniteMeasure(["a", "b"], {"a": F(3, 4), "b": F(1, 2)}, {("a", "a"): F(0)})
    problems = bad.validate()
    assert any("sum" in p for p in problems)
    assert any("self distance" in p for p in problems)


def test_validate_triangle_inequality():
    table = {("a", "b"): F(1), ("a", "c"): F(1), ("b", "c"): F(5)}
    m = FiniteMeasure(["a", "b", "c"], {"a": F(1)}, table)
    # one line per failing triple, not one per pair of listed distances
    assert m.validate() == ["triangle inequality fails on a,b,c"]


def test_json_roundtrip():
    mu = FiniteMeasure(
        ["a", "b"], {"a": F(1, 3), "b": F(2, 3)}, {("a", "b"): F(5, 7)}
    )
    data = measure_to_dict(mu)
    json.dumps(data)
    back = measure_from_dict(data)
    assert back.points == mu.points
    assert back.weights == mu.weights
    assert back.distance == mu.distance
