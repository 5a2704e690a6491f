import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    MALFORMED_MEASURES,
    bench_inputs,
    distinct_distance_line,
    prokhorov_by_bisection,
    prokhorov_by_growing_flow,
    prokhorov_subset_scan,
    prokhorov_two_way,
    random_distance_table,
    random_metric_measures,
    triangle_scan,
)
import probnext
from probnext import (
    FiniteMeasure,
    IncompatibleSupports,
    load_measure,
    measure_from_dict,
    measure_to_dict,
    prokhorov,
    save_measure,
)
from probnext.models import fraction_to_str
from probnext.prokhorov import _triangle_failures


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


def test_measures_of_different_total_mass_rejected():
    # one direction's worst gap stands for both only when the totals agree
    table = {("a", "b"): F(2)}
    mu = FiniteMeasure(["a", "b"], {"a": F(1, 2)}, table)
    nu = FiniteMeasure(["a", "b"], {"b": F(1)}, table)
    with pytest.raises(ValueError):
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


def test_validate_reports_weights_on_unlisted_points():
    # support() drops an unlisted point, so its mass would vanish from one side
    m = FiniteMeasure(["a", "b"], {"a": F(1, 2), "z": F(1, 2)}, {("a", "b"): F(1)})
    assert m.validate() == ["weight on unlisted point z"]
    dirac = FiniteMeasure(["a", "b"], {"a": F(1)}, {("a", "b"): F(1)})
    for pair in ((m, dirac), (dirac, m)):
        with pytest.raises(ValueError):
            prokhorov(*pair)


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


@pytest.mark.parametrize("data", MALFORMED_MEASURES.values(), ids=MALFORMED_MEASURES)
def test_malformed_measure_dicts_are_refused(data):
    with pytest.raises(ValueError):
        measure_from_dict(data)


def test_triangle_check_agrees_with_the_triple_scan():
    rng = random.Random(12)
    failures = incomplete = 0
    for _ in range(400):
        m = FiniteMeasure([], {}, random_distance_table(rng))
        expected = triangle_scan(m.distance)
        problems = m.validate()
        assert problems[len(problems) - len(expected) :] == expected
        assert _triangle_failures(m.distance) == expected
        failures += len(expected)
        names = {x for pair in m.distance for x in pair}
        pairs = [(a, b) for a, b in m.distance if a != b]
        incomplete += len(names) >= 3 and len(pairs) < len(names) * (len(names) - 1) // 2
    assert failures > 1000 and incomplete > 100


def test_keys_are_normalized_whatever_their_order():
    # "x10" sorts before "x2", so the key below is the reverse of the lookup
    table = {("x2", "x10"): F(1, 3)}
    mu = FiniteMeasure(["x2", "x10"], {"x2": F(1)}, table)
    nu = FiniteMeasure(["x2", "x10"], {"x10": F(1)}, table)
    assert mu.distance == {("x10", "x2"): F(1, 3)}
    assert prokhorov(mu, nu) == F(1, 3)


def test_validate_sees_a_triangle_listed_in_reverse_order():
    table = {("a", "b"): F(1), ("a", "c"): F(1), ("c", "b"): F(5)}
    m = FiniteMeasure(["a", "b", "c"], {"a": F(1)}, table)
    assert m.validate() == ["triangle inequality fails on a,b,c"]


def test_a_pair_listed_both_ways_must_agree():
    same = FiniteMeasure(["a", "b"], {"a": F(1)}, {("a", "b"): F(1), ("b", "a"): F(1)})
    assert same.distance == {("a", "b"): F(1)}
    with pytest.raises(IncompatibleSupports):
        FiniteMeasure(["a", "b"], {"a": F(1)}, {("a", "b"): F(1), ("b", "a"): F(2)})
    data = {
        "points": ["a", "b"],
        "weights": {"a": "1"},
        "distance": {"a|b": "1", "b|a": "2"},
    }
    with pytest.raises(IncompatibleSupports):
        measure_from_dict(data)


def test_validate_reports_names_that_cannot_be_saved():
    # `measure_to_dict` writes a|b|c for this pair, which no loader can split
    weights = {"a": F(1, 2), "b|c": F(1, 2)}
    m = FiniteMeasure(["a", "b|c"], weights, {("a", "b|c"): F(1)})
    assert m.validate() == ["point name 'b|c' contains |"]
    with pytest.raises(ValueError):
        measure_from_dict(measure_to_dict(m))
    twice = FiniteMeasure(["a", "a"], {"a": F(1)}, {})
    assert twice.validate() == ["duplicate point names"]


def test_every_measure_that_validates_survives_json():
    rng = random.Random(14)
    names = ["a", "b", "c", "", "|", "a|b", "b|"]
    valid = refused = 0
    for _ in range(2000):
        points = rng.choices(names, k=rng.randint(1, 4))
        raw = [rng.randint(0, 3) for _ in points]
        raw[0] += 1
        weights = {x: F(w, sum(raw)) for x, w in zip(points, raw)}
        # distinct positions on a line, so every distance is positive
        at = {
            x: F(rng.randint(0, 12), rng.randint(1, 3)) + F(i, 100)
            for i, x in enumerate(names)
        }
        distance = {
            (a, b): abs(at[a] - at[b])
            for a, b in combinations(sorted(set(points)), 2)
            if rng.random() < 0.8
        }
        m = FiniteMeasure(points, weights, distance)
        problems = m.validate()
        if len(set(points)) < len(points) or any("|" in x for x in points):
            assert problems, m
            refused += 1
        if not problems:
            assert measure_from_dict(json.loads(json.dumps(measure_to_dict(m)))) == m
            valid += 1
    assert valid > 300 and refused > 300, (valid, refused)


def test_equal_tables_that_are_distinct_objects_answer_as_one(tmp_path):
    # two loads give equal tables of distinct objects, which the shortcut
    # compares value by value
    mu, nu = random_metric_measures(random.Random(17), 7)
    shared = prokhorov(mu, nu)
    save_measure(mu, tmp_path / "mu.json")
    save_measure(nu, tmp_path / "nu.json")
    mu2, nu2 = load_measure(tmp_path / "mu.json"), load_measure(tmp_path / "nu.json")
    assert mu2.distance == nu2.distance
    assert all(d is not nu2.distance[pair] for pair, d in mu2.distance.items())
    assert prokhorov(mu2, nu2) == prokhorov(nu2, mu2) == shared


def test_a_conflict_outside_the_joint_support_is_refused():
    points = ["a", "b", "c", "d"]
    table = {pair: F(1) for pair in combinations(points, 2)}
    mu = FiniteMeasure(points, {"a": F(1)}, table)
    nu = FiniteMeasure(points, {"b": F(1)}, {**table, ("c", "d"): F(2)})
    assert prokhorov(mu, mu) == 0
    for pair in (mu, nu), (nu, mu):
        with pytest.raises(IncompatibleSupports) as caught:
            prokhorov(*pair)
        assert str(caught.value) == "conflicting distances for c|d"


def test_a_missing_pair_names_the_first_one_missing():
    def measures(table):
        return (
            FiniteMeasure(["a", "b", "c"], {"a": F(1)}, table),
            FiniteMeasure(["a", "b", "c"], {"b": F(1, 2), "c": F(1, 2)}, table),
        )

    for table, missing in [
        ({("a", "c"): F(1), ("b", "c"): F(1)}, "a|b"),
        ({("a", "b"): F(1), ("b", "c"): F(1)}, "a|c"),
        ({("a", "b"): F(1), ("a", "c"): F(1)}, "b|c"),
        ({}, "a|b"),
    ]:
        for pair in (measures(table), measures(table)[::-1]):
            with pytest.raises(IncompatibleSupports) as caught:
                prokhorov(*pair)
            assert str(caught.value) == f"no distance for {missing}"


def test_one_direction_scan_agrees_with_the_two_way_oracle():
    rng = random.Random(10)
    for k in range(1000):
        # mostly small supports, every 25th of 6 or 7 points
        mu, nu = random_metric_measures(rng, 2 + k % 4 if k % 25 else 6 + k % 2)
        assert mu.validate() == [] and nu.validate() == []
        assert prokhorov(mu, nu) == prokhorov_two_way(mu, nu), (mu, nu)


@pytest.mark.parametrize("n", [6, 8])
def test_one_direction_scan_on_the_bench_instances(n):
    inputs = bench_inputs()
    for index in range(8):
        points, w1, w2, distance = inputs.prokhorov_instance(n, index)
        mu = FiniteMeasure(points, w1, distance)
        nu = FiniteMeasure(points, w2, distance)
        assert prokhorov(mu, nu) == prokhorov_two_way(mu, nu)


@pytest.mark.parametrize("line", [True, False], ids=["line", "shortest-paths"])
def test_max_flow_agrees_with_the_subset_scan(line):
    rng = random.Random(11 if line else 12)
    for k in range(500):
        # supports of 2 to 6 points, every 20th of 7 or 8
        n = 2 + k % 5 if k % 20 else 7 + k // 20 % 2
        mu, nu = random_metric_measures(rng, n, line)
        assert prokhorov(mu, nu) == prokhorov_subset_scan(mu, nu), (mu, nu)


@pytest.mark.parametrize("line", [True, False], ids=["line", "shortest-paths"])
def test_growing_flow_agrees_with_the_bisection(line):
    rng = random.Random(15 if line else 16)
    for k in range(500):
        # supports of 1 to 12 points, every 10th of 13 to 40
        n = 1 + k % 12 if k % 10 else 13 + k // 10 % 28
        mu, nu = random_metric_measures(rng, n, line)
        assert prokhorov(mu, nu) == prokhorov_by_bisection(mu, nu), (mu, nu)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_growing_flow_agrees_with_the_bisection_on_the_bench_instances(n):
    inputs = bench_inputs()
    for index in range(8):
        points, w1, w2, distance = inputs.prokhorov_instance(n, index)
        mu = FiniteMeasure(points, w1, distance)
        nu = FiniteMeasure(points, w2, distance)
        d = prokhorov(mu, nu)
        assert d == prokhorov_by_bisection(mu, nu), index
        assert d == prokhorov_by_growing_flow(mu, nu), index


def test_growing_flow_agrees_with_the_bisection_on_300_distinct_distances():
    # 44 851 levels, of which the flow grows through the first 500: the
    # levels past those are never linked, and the eager oracle links them all
    mu, nu = distinct_distance_line(300)
    assert len(set(mu.distance.values())) == 300 * 299 // 2
    d = prokhorov(mu, nu)
    assert d == prokhorov_by_bisection(mu, nu)
    assert d == prokhorov_by_growing_flow(mu, nu) == prokhorov_by_growing_flow(nu, mu)
    assert d == prokhorov(nu, mu)


@pytest.mark.parametrize("line", [True, False], ids=["line", "shortest-paths"])
def test_lazy_levels_agree_with_the_eager_growing_flow_and_the_bisection(line):
    # the level-0 matching, the levels linked as the flow reaches them and
    # the early answer at a level's own distance, against both former flows
    rng = random.Random(36 if line else 37)
    for k in range(1500):
        mu, nu = random_metric_measures(rng, 1 + k % 14, line)
        for a, b in (mu, nu), (nu, mu):
            d = prokhorov(a, b)
            assert d == prokhorov_by_growing_flow(a, b), (a, b)
            assert d == prokhorov_by_bisection(a, b), (a, b)


def _three_points(weights: dict) -> FiniteMeasure:
    table = {("a", "b"): F(1, 3), ("a", "c"): F(1, 2), ("b", "c"): F(1, 4)}
    return FiniteMeasure(["a", "b", "c"], weights, table)


@pytest.mark.parametrize(
    "weights, same",
    [
        ({"a": 1}, {"a": F(1)}),
        ({"a": 0, "b": 1}, {"b": F(1)}),
        ({"a": F(0), "b": F(1, 2), "c": F(1, 2)}, {"b": F(1, 2), "c": F(1, 2)}),
        ({"a": F(1, 2), "c": F(1, 2), "b": 0}, {"a": F(1, 2), "c": F(1, 2)}),
    ],
    ids=["int-weight", "int-zero", "fraction-zero", "zero-and-missing"],
)
def test_int_zero_and_missing_weights_answer_as_fractions(weights, same):
    # weights are scaled to integers without a Fraction: an int weight, an
    # explicit zero and a weight missing for a point of the joint support
    # each answer as the Fraction weights that mean the same
    others = [{"a": F(1)}, {"b": F(1)}, {"c": F(1)}, {"a": F(1, 4), "c": F(3, 4)}]
    for other in map(_three_points, others):
        for pair, same_pair in [
            ((_three_points(weights), other), (_three_points(same), other)),
            ((other, _three_points(weights)), (other, _three_points(same))),
        ]:
            assert prokhorov(*pair) == prokhorov(*same_pair)
            assert prokhorov(*pair) == prokhorov_by_growing_flow(*same_pair)


def test_int_distances_answer_as_fractions():
    mu = FiniteMeasure(["a", "b"], {"a": F(1)}, {("a", "b"): 2})
    nu = FiniteMeasure(["a", "b"], {"b": F(1)}, {("a", "b"): 2})
    d = prokhorov(mu, nu)
    assert type(d) is Fraction and d == 1


def test_an_empty_support_is_at_distance_zero():
    for points in ([], ["a"], ["a", "b"]):
        empty = FiniteMeasure(points, {x: F(0) for x in points}, {})
        d = prokhorov(empty, empty)
        assert type(d) is Fraction and d == 0


def test_one_point_support():
    dirac = FiniteMeasure(["a"], {"a": F(1)}, {})
    assert prokhorov(dirac, dirac) == 0
    # a second point without mass is outside the support: no distance needed
    wide = FiniteMeasure(["a", "b"], {"a": 1, "b": 0}, {})
    assert prokhorov(dirac, wide) == prokhorov(wide, dirac) == 0


def test_coprime_denominators_are_scaled_exactly():
    # The flows run on masses and distances scaled to integers; large
    # coprime denominators make both scales large and unrelated.
    p, q = 1000003, 999983  # primes
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(2, 6)
        points = [f"x{i}" for i in range(n)]
        xs = [F(rng.randint(0, 9), rng.choice((1, 7, p, q))) for _ in range(n)]
        xs = [x + F(i, 11) for i, x in enumerate(xs)]
        distance = {
            (points[i], points[j]): abs(xs[i] - xs[j])
            for i, j in combinations(range(n), 2)
        }

        def measure():
            small = [F(rng.randint(0, 1), rng.choice((5, p, q))) for _ in range(n - 1)]
            weights = dict(zip(points, small + [1 - sum(small)]))
            return FiniteMeasure(points, weights, distance)

        mu, nu = measure(), measure()
        d = prokhorov(mu, nu)
        assert type(d) is Fraction
        assert d == prokhorov_subset_scan(mu, nu), (mu, nu)


def test_bench_expected_values_are_reproduced():
    inputs = bench_inputs()
    bench = Path(__file__).resolve().parents[1] / "bench"
    expected = json.loads((bench / "expected" / "prokhorov.json").read_text())["values"]
    assert sum(map(len, expected.values())) == 24
    for n, values in expected.items():
        for index, value in enumerate(values):
            points, w1, w2, distance = inputs.prokhorov_instance(int(n), index)
            mu = FiniteMeasure(points, w1, distance)
            nu = FiniteMeasure(points, w2, distance)
            assert prokhorov(mu, nu) == Fraction(value), (n, index)


def _shifted_grid(n: int, step: Fraction) -> tuple[dict, dict]:
    """Uniform measures on points 0..n-2 and 1..n-1 of a grid with the step:
    below the step nothing is enlarged and the gap is 1/(n-1); past it every
    point reaches its neighbour, so the distance is min(step, 1/(n-1))."""
    points = [f"x{i}" for i in range(n)]
    distance = {
        f"{points[i]}|{points[j]}": str((j - i) * step)
        for i in range(n)
        for j in range(i + 1, n)
    }
    w = str(Fraction(1, n - 1))
    return tuple(
        {"points": points, "weights": dict.fromkeys(side, w), "distance": distance}
        for side in (points[:-1], points[1:])
    )


@pytest.mark.parametrize("step", [F(1, 100), F(1, 20)])
def test_fifty_points_answer_through_the_cli(tmp_path, step):
    # 2^50 subsets at the subset scan; the timeout only turns a hang into a failure
    mu, nu = _shifted_grid(50, step)
    m1, m2 = tmp_path / "mu.json", tmp_path / "nu.json"
    m1.write_text(json.dumps(mu))
    m2.write_text(json.dumps(nu))
    package_parent = os.path.dirname(os.path.dirname(probnext.__file__))
    env = dict(os.environ, PYTHONPATH=package_parent)
    done = subprocess.run(
        [sys.executable, "-m", "probnext.cli", "dist", "prokhorov", str(m1), str(m2)],
        capture_output=True, text=True, timeout=10, env=env,
    )
    want = min(step, F(1, 49))
    assert (done.returncode, done.stdout.strip()) == (0, fraction_to_str(want))
    assert prokhorov(measure_from_dict(mu), measure_from_dict(nu)) == want


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(0, 2**32), st.integers(1, 12))
def test_distance_laws_on_random_metrics(seed, n):
    mu, nu = random_metric_measures(random.Random(seed), n)
    d = prokhorov(mu, nu)
    assert 0 <= d <= 1
    assert d == prokhorov(nu, mu)
    assert prokhorov(mu, mu) == 0


def test_support_is_unchanged_on_random_measures_with_zero_weights():
    """`support` reads each weight's numerator, which an `int` and a
    `Fraction` both carry, and lists what the weight comparison listed."""
    rng = random.Random(2727)
    zeros = 0
    for _ in range(500):
        points = [f"x{i}" for i in range(rng.randint(1, 8))]
        weights = {}
        for x in points:
            if rng.random() < 0.8:
                num = rng.randint(-1, 3)
                weights[x] = num if rng.random() < 0.3 else Fraction(num, rng.randint(1, 5))
        mu = FiniteMeasure(points, weights)
        assert mu.support() == [x for x in points if weights.get(x, 0) > 0]
        zeros += 0 in weights.values()
    assert zeros > 100
