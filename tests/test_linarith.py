import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from probnext import parse, push_next
from probnext.decide import group_steps, to_disjuncts, world_sat
from probnext.linarith import LinearSystem, eq, feasible, ge, gt, satisfies, solve

from helpers import (
    canonical,
    eliminate,
    fm_feasible,
    lp_chain,
    random_formula,
    random_linear_system as _random_system,
    system_variables,
    tidy,
)


def F(a, b=1):
    return Fraction(a, b)


def test_constant_constraints():
    assert feasible(LinearSystem([ge({}, F(0))]))
    assert feasible(LinearSystem([gt({}, F(1))]))
    assert not feasible(LinearSystem([gt({}, F(0))]))
    assert not feasible(LinearSystem([ge({}, F(-1))]))
    assert not feasible(LinearSystem([eq({}, F(1))]))


def test_simple_interval():
    # 0 < x < 1
    system = LinearSystem([gt({0: F(1)}), gt({0: F(-1)}, F(1))], num_vars=1)
    assert feasible(system)
    point = solve(system)
    assert point is not None and F(0) < point[0] < F(1)


def test_strictness_matters():
    # x >= 1 and x <= 1 is feasible; x > 1 and x <= 1 is not
    weak = LinearSystem([ge({0: F(1)}, F(-1)), ge({0: F(-1)}, F(1))])
    strict = LinearSystem([gt({0: F(1)}, F(-1)), ge({0: F(-1)}, F(1))])
    assert feasible(weak)
    assert solve(weak) == {0: F(1)}
    assert not feasible(strict)
    assert solve(strict) is None


def test_equality_substitution():
    # x + y = 1, x - y = 0  =>  x = y = 1/2
    system = LinearSystem(
        [eq({0: F(1), 1: F(1)}, F(-1)), eq({0: F(1), 1: F(-1)})], num_vars=2
    )
    point = solve(system)
    assert point == {0: F(1, 2), 1: F(1, 2)}


def test_elimination_preserves_feasibility():
    # x >= 0, y >= 0, x + y <= 1, x + 2y > 3/2
    system = LinearSystem(
        [
            ge({0: F(1)}),
            ge({1: F(1)}),
            ge({0: F(-1), 1: F(-1)}, F(1)),
            gt({0: F(1), 1: F(2)}, F(-3, 2)),
        ],
        num_vars=2,
    )
    assert feasible(system)
    reduced = eliminate(system, 0)
    assert 0 not in system_variables(reduced)
    assert feasible(reduced)
    point = solve(system)
    assert satisfies(system, point)


def test_infeasible_after_combination():
    # x > y, y > z, z > x has no solution
    system = LinearSystem(
        [
            gt({0: F(1), 1: F(-1)}),
            gt({1: F(1), 2: F(-1)}),
            gt({2: F(1), 0: F(-1)}),
        ],
        num_vars=3,
    )
    assert not feasible(system)
    assert solve(system) is None


def test_exact_rational_arithmetic():
    # 3x = 1 forces the non-representable-in-floats value 1/3
    system = LinearSystem([eq({0: F(3)}, F(-1))], num_vars=1)
    assert solve(system) == {0: F(1, 3)}


def test_solutions_satisfy_on_random_systems():
    rng = random.Random(99)
    solved = 0
    for _ in range(2000):
        system = _random_system(rng)
        point = solve(system)
        assert (point is not None) == fm_feasible(system)
        if point is not None:
            full = {v: point.get(v, Fraction(0)) for v in range(system.num_vars)}
            assert satisfies(system, full)
            solved += 1
    assert solved > 200  # the generator produces plenty of feasible systems


@st.composite
def _systems(draw):
    n_vars = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.tuples(
                st.dictionaries(st.integers(0, n_vars - 1), st.integers(-3, 3)),
                st.fractions(-4, 4, max_denominator=3),
                st.sampled_from([ge, gt, eq]),
            ),
            min_size=1,
            max_size=7,
        )
    )
    return LinearSystem(
        [build({v: F(a) for v, a in coeffs.items()}, k) for coeffs, k, build in rows],
        num_vars=n_vars,
    )


@settings(max_examples=300, deadline=None, database=None)
@given(_systems())
def test_solve_agrees_with_elimination_oracle(system):
    point = solve(system)
    assert (point is None) == (not fm_feasible(system))
    if point is not None:
        assert satisfies(system, point)


def test_degenerate_cycling_prone_system():
    # Beale's example, on which the textbook simplex with Dantzig's rule
    # cycles through degenerate pivots at the origin.  Its optimum -1/20
    # becomes a bound on the objective row: reachable weakly, not strictly.
    rows = [
        ge({0: F(-1, 4), 1: F(60), 2: F(1, 25), 3: F(-9)}),
        ge({0: F(-1, 2), 1: F(90), 2: F(1, 50), 3: F(-3)}),
        ge({2: F(-1)}, F(1)),
    ] + [ge({v: F(1)}) for v in range(4)]
    objective = {0: F(3, 4), 1: F(-150), 2: F(1, 50), 3: F(-6)}
    at_optimum = LinearSystem(rows + [ge(objective, F(-1, 20))], num_vars=4)
    beyond = LinearSystem(rows + [gt(objective, F(-1, 20))], num_vars=4)
    point = solve(at_optimum)
    assert point is not None and satisfies(at_optimum, point)
    assert fm_feasible(at_optimum)
    assert solve(beyond) is None
    assert not fm_feasible(beyond)


def test_world_plans_are_vertices():
    # A plan puts mass on at most 1 + (number of probability literals)
    # cells, the small-model bound of Fagin, Halpern and Megiddo (1990).
    rng = random.Random(77)
    formulas = [parse(lp_chain(k)) for k in range(2, 7)]
    formulas += [random_formula(rng) for _ in range(300)]
    plans = 0
    for f in formulas:
        for disjunct in to_disjuncts(push_next(f)):
            for req in group_steps(disjunct):
                plan = world_sat(req)
                if plan is not None and plan.cells:
                    literals = len(req.pos_bounds) + len(req.neg_bounds)
                    assert len(plan.cells) <= 1 + literals
                    plans += 1
    assert plans > 100


def test_elimination_order_does_not_change_feasibility():
    rng = random.Random(5)
    for _ in range(60):
        system = _random_system(rng)
        expected = feasible(system)
        order = sorted(system_variables(system))
        rng.shuffle(order)
        reduced = system
        for v in order:
            reduced = eliminate(reduced, v)
        assert not system_variables(reduced)
        assert feasible(reduced) == expected


def test_canonical_dedup():
    c1 = ge({0: F(2)}, F(2))
    c2 = ge({0: F(1)}, F(1))
    assert canonical(c1) == canonical(c2)
    assert len(tidy([c1, c2, gt({}, F(5))])) == 1
