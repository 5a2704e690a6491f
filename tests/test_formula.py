import copy
import gc
import pickle
import time
import weakref
from fractions import Fraction

import pytest

from probnext import formula
from probnext import (
    And,
    AtLeast,
    BOTTOM,
    IndexOutOfRange,
    Next,
    Not,
    Prop,
    TOP,
    at_most,
    conj,
    dyn_depth,
    prob_depth,
    profile,
    props_of,
)


def test_constructors_are_hashable_and_comparable():
    f = And(Prop(0), Not(Prop(1)))
    assert f == And(Prop(0), Not(Prop(1)))
    assert hash(f) == hash(And(Prop(0), Not(Prop(1))))
    assert f != And(Not(Prop(1)), Prop(0))


def test_bound_is_normalized_to_fraction():
    f = AtLeast(Fraction(2, 4), Prop(0))
    assert f.bound == Fraction(1, 2)
    assert AtLeast(1, Prop(0)).bound == Fraction(1)


@pytest.mark.parametrize("bad", [Fraction(3, 2), Fraction(-1, 4), 2])
def test_bound_outside_unit_interval_rejected(bad):
    with pytest.raises(IndexOutOfRange):
        AtLeast(bad, Prop(0))


def test_negative_prop_index_rejected():
    with pytest.raises(ValueError):
        Prop(-1)


def test_at_most_desugars_to_dual():
    assert at_most(Fraction(1, 3), Prop(0)) == AtLeast(Fraction(2, 3), Not(Prop(0)))


def test_constants():
    assert BOTTOM == And(Prop(0), Not(Prop(0)))
    assert TOP == Not(BOTTOM)
    assert conj([]) == TOP


def test_conj_folds_left():
    a, b, c = Prop(0), Prop(1), Prop(2)
    assert conj([a, b, c]) == And(And(a, b), c)
    assert conj([a]) == a


def test_depths():
    f = AtLeast(Fraction(1, 2), Next(AtLeast(Fraction(1, 3), Prop(0))))
    assert prob_depth(f) == 2
    assert dyn_depth(f) == 1
    assert prob_depth(Next(Not(Prop(5)))) == 0
    assert dyn_depth(Next(Next(Prop(0)))) == 2


def test_prefix_spells_each_node_before_its_children_left_to_right():
    f = And(Not(Prop(0)), Next(AtLeast(Fraction(1, 2), Prop(1))))
    assert list(formula.prefix(f)) == [f, f.left, Prop(0), f.right, f.right.body, Prop(1)]
    with pytest.raises(TypeError):
        list(formula.prefix("p0"))


def test_props_of():
    f = And(Prop(2), Next(AtLeast(Fraction(1, 2), Prop(7))))
    assert props_of(f) == frozenset({2, 7})


def test_profile_accuracy_is_lcm_of_denominators():
    f = And(
        AtLeast(Fraction(1, 2), Prop(0)),
        AtLeast(Fraction(2, 3), Prop(1)),
    )
    prof = profile(f)
    assert prof.accuracy == 6
    assert prof.index_set == tuple(Fraction(m, 6) for m in range(7))
    assert prof.prob_depth_bound == 1
    assert prof.dyn_depth_bound == 0


# -- the hash-consed core ------------------------------------------------------

_NODES = [
    Prop(0),
    Not(Prop(1)),
    And(Prop(0), Next(Prop(1))),
    AtLeast(Fraction(1, 3), And(Prop(0), Next(Not(Prop(2))))),
    Next(AtLeast(Fraction(1, 2), Not(Prop(0)))),
]


def test_equal_constructions_are_one_node():
    p = Prop(0)
    assert Prop(0) is p
    assert And(p, Not(Prop(1))) is And(Prop(0), Not(Prop(1)))
    assert AtLeast(Fraction(2, 4), p) is AtLeast(Fraction(1, 2), p)
    assert AtLeast(1, p) is AtLeast(Fraction(1), p)
    assert AtLeast(0, p) is AtLeast(Fraction(0, 7), p)
    assert Not(p) is not Next(p)
    assert And(p, Prop(1)) is not And(Prop(1), p)


def test_repr_names_the_fields():
    assert repr(AtLeast(Fraction(1, 2), And(Prop(0), Next(Not(Prop(1)))))) == (
        "AtLeast(bound=Fraction(1, 2), body=And(left=Prop(index=0), "
        "right=Next(body=Not(body=Prop(index=1)))))"
    )


@pytest.mark.parametrize("f", _NODES, ids=repr)
def test_copy_and_pickle_return_the_same_node(f):
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f


@pytest.mark.parametrize(
    "build, error",
    [(lambda: Prop(-1), ValueError), (lambda: AtLeast(2, Prop(0)), IndexOutOfRange)],
    ids=["negative-prop", "bound-above-one"],
)
def test_rejected_nodes_leave_no_entry_in_the_table(build, error):
    before = set(formula._TABLE.keys())
    with pytest.raises(error):
        build()
    assert set(formula._TABLE.keys()) <= before


def test_unreferenced_nodes_leave_the_table():
    f = AtLeast(Fraction(1, 2), Next(Prop(987_654)))
    ref = weakref.ref(f)
    assert (Prop, 987_654) in formula._TABLE
    del f
    gc.collect()
    assert ref() is None
    assert (Prop, 987_654) not in formula._TABLE  # the whole chain went


@pytest.mark.parametrize("f", _NODES, ids=repr)
def test_nodes_are_read_only(f):
    for name in type(f).__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(f, name, Prop(3))
    for name in type(f).__slots__:
        with pytest.raises(AttributeError):
            delattr(f, name)


def test_deep_conjunctions_hash_and_compare_at_once():
    a = conj(Prop(i % 7) for i in range(10**5))
    b = conj(Prop(i % 7) for i in range(10**5))
    start = time.perf_counter()
    for _ in range(1000):
        assert hash(a) == hash(b)
        assert a == b
    assert time.perf_counter() - start < 1.0  # O(1) each; a walk would recurse
    assert a is b
    assert a != And(b, Prop(0))
