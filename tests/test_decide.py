import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import lp_chain, push_then_dnf, random_formula
import probnext
from probnext import (
    And,
    AtLeast,
    Next,
    Not,
    Prop,
    parse,
    push_next,
    random_model,
    sat,
    sat_status,
    valid,
    witness,
)
from probnext.decide import _world_sat, group_steps, to_disjuncts, world_sat


def _no_next_above_boolean(f):
    """Normalized formulas keep next-operators below negation/conjunction."""
    if isinstance(f, Next):
        return not isinstance(f.body, (Not, And)) and _no_next_above_boolean(f.body)
    if isinstance(f, Not):
        return _no_next_above_boolean(f.body)
    if isinstance(f, And):
        return _no_next_above_boolean(f.left) and _no_next_above_boolean(f.right)
    if isinstance(f, AtLeast):
        return _no_next_above_boolean(f.body)
    return True


def test_push_next_shape():
    f = parse("X (p0 & !X p1)")
    g = push_next(f)
    assert g == And(Next(Prop(0)), Not(Next(Next(Prop(1)))))
    assert _no_next_above_boolean(g)


def test_push_next_preserves_semantics_on_random_models():
    rng = random.Random(11)
    for i in range(60):
        f = random_formula(rng, max_size=12)
        g = push_next(f)
        assert _no_next_above_boolean(g)
        model = random_model(i, n_worlds=3, n_props=3, denom_bound=4)
        assert model.extension(f) == model.extension(g)


def test_disjuncts_of_a_formula_as_written():
    # next-operators above ! and & become time stamps; bodies stay as written
    f = parse("X !(p0 & L[1/2] X p1)")
    assert to_disjuncts(f) == [
        frozenset({(False, ("p", 1, 0))}),
        frozenset({(False, ("L", 1, Fraction(1, 2), Next(Prop(1))))}),
    ]


def test_disjuncts_agree_with_the_push_then_dnf_oracle():
    rng = random.Random(606)
    sat_count = 0
    for _ in range(500):
        f = random_formula(rng)
        expected = push_then_dnf(f)
        assert to_disjuncts(push_next(f)) == expected
        verdict = any(
            all(world_sat(req) is not None for req in group_steps(d))
            for d in expected
        )
        assert verdict == sat_status(f)
        sat_count += verdict
    assert 100 < sat_count < 500


def test_basic_verdicts():
    assert sat(parse("p0")).status == "SAT"
    assert sat(parse("p0 & !p0")).status == "UNSAT"
    assert valid(parse("p0 | !p0"))
    assert not valid(parse("p0"))


def test_probability_verdicts():
    assert sat(parse("L[1/2] p0 & L[1/2] !p0")).status == "SAT"
    assert sat(parse("L[2/3] p0 & L[2/3] !p0")).status == "UNSAT"
    assert sat(parse("L[1/2] p0 & !L[1/2] p0")).status == "UNSAT"
    # strict room below the upper bound exists
    assert sat(parse("L[1/2] p0 & !L[2/3] p0")).status == "SAT"
    assert valid(parse("L[1] (p0 -> p0)"))
    assert valid(parse("L[2/3] p0 -> L[1/3] p0"))
    assert not valid(parse("L[1/3] p0 -> L[2/3] p0"))


def test_nested_probability():
    assert sat(parse("L[1/2] L[1] p0 & L[1/2] !p0")).status == "SAT"
    assert valid(parse("L[1] L[0] p0"))


def test_next_interacts_with_probability():
    assert sat(parse("X L[1] p0 & X !p0")).status == "SAT"
    assert sat(parse("!X L[0] T")).status == "UNSAT"
    assert valid(parse("X (p0 & p1) <-> X p0 & X p1"))
    assert valid(parse("X !p0 <-> !X p0"))


def test_satisfying_random_model_implies_sat():
    """Brute-force refutation oracle: a formula holding somewhere is SAT."""
    rng = random.Random(303)
    agreed = 0
    for i in range(80):
        f = random_formula(rng, max_size=10)
        model = random_model(1000 + i, n_worlds=3, n_props=3, denom_bound=4)
        if model.extension(f):
            assert sat(f).status == "SAT"
            agreed += 1
    assert agreed > 10


def test_witness_is_checkable():
    rng = random.Random(404)
    produced = 0
    for _ in range(40):
        f = random_formula(rng, max_size=12)
        found = witness(f)
        if found is None:
            assert sat(f).status == "UNSAT"
            continue
        model, root = found
        assert model.validate() == []
        assert model.check(root, f)
        produced += 1
    assert produced > 10


def test_witness_none_for_unsat():
    assert witness(parse("p0 & !p0")) is None


def test_sat_verdict_and_its_witness():
    f = parse("L[1/2] p0 & X p1")
    assert sat(f).status == "SAT"
    model, root = witness(f)
    assert model.validate() == []
    assert model.check(root, f)


def test_duality_of_sat_and_valid():
    rng = random.Random(505)
    for _ in range(60):
        f = random_formula(rng, max_size=10)
        assert (sat(f).status == "SAT") == (not valid(Not(f)))


# Inputs on which Fourier-Motzkin elimination blew up: the LP chain at k = 5
# and four random benchmark formulas that missed every deadline.
FORMER_LP_CLIFF = [
    lp_chain(5),
    "(L[0/1] p2 & (L[2/3] X L[2/3] !(p2 & p2) & (L[2/3] p1 & L[1/1] (p0 & L[0/1] p2))))",
    "((L[2/3] p0 & L[1/1] (L[1/2] p0 & p1)) & (L[1/2] L[1/1] p1 & L[1/1] !p2))",
    "(((L[1/1] (!!p1 & p1) & L[1/1] !p0) & (p2 & L[1/3] p2)) & L[1/4] L[1/1] p0)",
    "(L[0/1] p1 & (L[1/1] p0 & (L[1/3] L[1/1] X p2 & L[0/1] L[1/2] p2)))",
]


@pytest.mark.parametrize(
    "text", FORMER_LP_CLIFF, ids=["chain5", "mix11768", "mix47157", "mix61233", "mix76050"]
)
def test_former_lp_cliff_is_sat_with_checked_witness(text):
    f = parse(text)
    model, root = witness(f)
    assert model.validate() == []
    assert model.check(root, f)
    # The command line must answer too; the generous timeout only turns a
    # hang into a failure.
    package_parent = os.path.dirname(os.path.dirname(probnext.__file__))
    env = dict(os.environ, PYTHONPATH=package_parent)
    done = subprocess.run(
        [sys.executable, "-m", "probnext.cli", "sat", text],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert (done.returncode, done.stdout.strip()) == (0, "SAT")


# Bodies that differ only in where a next-operator sits bound the same
# worlds, so they share one cell column: k such columns give 2^k cells.
@pytest.mark.parametrize(
    "text, cells",
    [
        ("L[1/2] X !p0 & L[1/2] !X p0", 2),
        ("L[1/2] X (p0 & p1) & L[1/3] (X p0 & X p1) & !L[2/3] X !p0", 4),
    ],
)
def test_bodies_equal_up_to_next_share_a_cell_column(text, cells):
    f = parse(text)
    _world_sat.cache_clear()
    sat_status.cache_clear()
    assert sat(f).status == "SAT"
    assert sat_status.cache_info().misses == 1 + cells  # f, then each cell
    model, root = witness(f)
    assert model.validate() == []
    assert model.check(root, f)
