import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import calkin_wilf_rationals, random_formula, weight_classes
from probnext import enum_formula, enum_rational, formula_index, rational_index
from probnext.enumeration import (
    _WEIGHT_LIMIT,
    ExtensionLimitExceeded,
    class_count,
    sort_key,
    weight,
)
from probnext import And, AtLeast, Next, Not, Prop, dyn_depth, prob_depth, profile, props_of


def test_rational_enumeration_prefix():
    expected = [
        Fraction(0),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(1, 4),
        Fraction(3, 5),
        Fraction(2, 5),
        Fraction(3, 4),
    ]
    assert [enum_rational(i) for i in range(len(expected))] == expected


def test_rational_enumeration_is_injective_in_unit_interval():
    values = [enum_rational(i) for i in range(300)]
    assert len(set(values)) == 300
    assert all(0 <= v <= 1 for v in values)
    assert all(v < 1 for v in values[2:])


def test_rational_index_inverts_enumeration():
    for i in range(300):
        assert rational_index(enum_rational(i)) == i
    assert rational_index(Fraction(1, 2)) == 2


def test_closed_form_agrees_with_the_calkin_wilf_walk():
    for i, q in enumerate(islice(calkin_wilf_rationals(), 100_000)):
        assert enum_rational(i) == q
        assert rational_index(q) == i


def _unit_interval_rationals():
    return st.integers(1, 10**4).flatmap(
        lambda d: st.builds(Fraction, st.integers(0, d), st.just(d))
    )


@settings(max_examples=300, deadline=None, database=None)
@given(_unit_interval_rationals())
def test_rational_index_roundtrip(q):
    assert enum_rational(rational_index(q)) == q


@settings(deadline=None, database=None)
@given(st.integers(2, 1000))
@example(1000)
def test_unit_fractions_rank_in_closed_form(d):
    i = rational_index(Fraction(1, d))
    assert i == 2 ** (d - 2) + 1
    assert enum_rational(i) == Fraction(1, d)


def test_rational_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        rational_index(Fraction(5, 4))


def test_spelling_walks_need_no_recursion():
    f = Prop(1)
    for _ in range(10**4):
        f = Not(f)
    assert weight(f) == 10**4 + 2
    assert sort_key(f) == (0,) * 10**4 + (5,)
    assert props_of(f) == frozenset({1})
    g = Prop(0)
    for _ in range(10**4):
        g = AtLeast(Fraction(1, 2), Next(g))
    assert (prob_depth(g), dyn_depth(g)) == (10**4, 10**4)
    both = profile(And(f, g))
    assert (both.prob_depth_bound, both.dyn_depth_bound) == (10**4, 10**4)


def test_weight_definition():
    assert weight(Prop(0)) == 1
    assert weight(Prop(4)) == 5
    assert weight(Not(Prop(0))) == 2
    assert weight(Next(Prop(0))) == 2
    assert weight(And(Prop(0), Prop(0))) == 3
    # bound weight contributes through the rational's enumeration index
    assert weight(AtLeast(Fraction(0), Prop(0))) == 2
    assert weight(AtLeast(Fraction(1, 2), Prop(0))) == 4


def test_rank_and_unrank_agree_with_the_materialized_classes():
    classes = weight_classes(8)
    for n, cls in enumerate(classes):
        assert class_count(n) == len(cls)
        assert all(weight(f) == n for f in cls)
        assert len({sort_key(f) for f in cls}) == len(cls)
    oracle = [f for cls in classes for f in cls]
    assert len(oracle) == 27_205
    for i, f in enumerate(oracle):
        assert enum_formula(i) == f
        assert formula_index(f) == i


def test_enumeration_is_a_bijection_on_an_initial_segment():
    seen = set()
    for i in range(600):
        f = enum_formula(i)
        assert f not in seen
        seen.add(f)
        assert formula_index(f) == i


def test_enumeration_starts_with_the_lightest_formulas():
    assert enum_formula(0) == Prop(0)
    # weight class 2 in lexicographic order: !p0, L[0] p0, X p0, p1
    assert [enum_formula(i) for i in range(1, 5)] == [
        Not(Prop(0)),
        AtLeast(Fraction(0), Prop(0)),
        Next(Prop(0)),
        Prop(1),
    ]


def test_formula_index_on_random_formulas():
    rng = random.Random(7)
    for _ in range(50):
        f = random_formula(rng, max_size=5, denom_bound=2, n_props=2)
        assert enum_formula(formula_index(f)) == f


def test_weights_up_to_the_limit_are_served_and_heavier_ones_refused():
    last = sum(class_count(n) for n in range(1, _WEIGHT_LIMIT + 1)) - 1
    # 586 605 starts weight class 11, past the former 10^6-formula class cap
    for i in (586_604, 586_605, 10**8, last):
        assert formula_index(enum_formula(i)) == i
    assert weight(enum_formula(last)) == _WEIGHT_LIMIT
    with pytest.raises(ExtensionLimitExceeded):
        enum_formula(last + 1)
    with pytest.raises(ExtensionLimitExceeded):
        formula_index(AtLeast(Fraction(1, 30), Prop(1)))  # weight 268 435 460


def test_enumeration_is_deterministic_across_orderings():
    # querying out of order must not change the fixed enumeration
    a = enum_formula(400)
    b = enum_formula(3)
    assert enum_formula(400) == a
    assert enum_formula(3) == b
