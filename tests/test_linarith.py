import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from probnext import decide, linarith, parse, push_next
from probnext.decide import group_steps, to_disjuncts, world_sat
from probnext.linarith import LinearSystem, Rel, eq, feasible, ge, gt, satisfies, solve

from helpers import (
    bound_column,
    canonical,
    cell_system,
    eliminate,
    fm_feasible,
    fraction_simplex,
    fraction_valued_solve,
    lp_chain,
    nonzero_coordinates,
    random_formula,
    random_fractional_system,
    random_linear_system as _random_system,
    scale_bounds,
    system_variables,
    tableau_by_constraints,
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
            for _, _, bounds in group_steps(disjunct):
                if not bounds:
                    continue  # a step with no bounds inhabits no cell
                cells = world_sat(bounds)
                if cells:
                    assert len(cells) <= 1 + len(bounds)
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


def _opposed_rows(system) -> bool:
    """Whether two rows have coefficients that are negative multiples of one
    another, so that they bound one shared slack from both sides."""
    vectors = [c.coeffs for c in system.constraints if len(c.coeffs) > 1]
    for i, a in enumerate(vectors):
        for b in vectors[i + 1 :]:
            if [v for v, _ in a] == [v for v, _ in b]:
                ratios = {Fraction(y) / Fraction(x) for (_, x), (_, y) in zip(a, b)}
                if len(ratios) == 1 and ratios.pop() < 0:
                    return True
    return False


@pytest.mark.parametrize("generator", [_random_system, random_fractional_system])
def test_solve_returns_the_fraction_simplex_point(generator):
    # The integer rows pivot exactly as the Fraction rows did, and the
    # integer values as the Fraction values did on the same tableau, so the
    # point is the same, not only the verdict; all agree with elimination.
    # `_solve_tableau` gives the point's nonzero coordinates alone, in
    # variable order.
    rng = random.Random(2024)
    solved = opposed = 0
    for _ in range(2000):
        system = generator(rng)
        point = solve(system)
        assert point == fraction_simplex(system)
        assert point == fraction_valued_solve(tableau_by_constraints(system))
        nonzero = linarith._solve_tableau(linarith._tableau(system))
        assert nonzero_coordinates(nonzero) == nonzero_coordinates(point)
        assert (point is not None) == fm_feasible(system)
        if point is not None:
            assert list(nonzero) == sorted(nonzero)
            assert all(type(value) is Fraction and value for value in nonzero.values())
            full = {v: point.get(v, Fraction(0)) for v in range(system.num_vars)}
            assert satisfies(system, full)
            solved += 1
        opposed += _opposed_rows(system)
    assert solved > 200
    if generator is random_fractional_system:
        assert opposed > 100  # shared slacks bounded from both sides occur


def test_row_builder_gives_the_tableau_of_the_constraints():
    """`_tableau` states one row per constraint for the row builder, and
    gets the tableau the former constraint front end built, slack ids
    included, with every bound a pair of integers: the former bound times
    the tableau's scale, on random systems that reach each kind of row."""
    rng = random.Random(1919)
    systems = [_random_system(rng) for _ in range(500)]
    systems += [random_fractional_system(rng) for _ in range(500)]
    cases = dict.fromkeys(["negative one", "strict one", "lead above 1", "constant", "shared"], 0)
    for system in systems:
        tableau = linarith._tableau(system)
        scale = tableau[4] if tableau else None
        assert tableau == scale_bounds(tableau_by_constraints(system), scale), system
        if tableau is not None:
            pairs = [*tableau[0].values(), *tableau[1].values()]
            assert all(type(x) is int for pair in pairs for x in pair)
        for c in system.constraints:
            if len(c.coeffs) == 1:
                cases["negative one"] += c.coeffs[0][1] < 0
                cases["strict one"] += c.relation is Rel.GT
            cases["constant"] += not c.coeffs
        if tableau is not None:
            rows = tableau[2]
            cases["lead above 1"] += any(row[min(row)] > 1 for _, row in rows.values())
            cases["shared"] += len(rows) < sum(len(c.coeffs) > 1 for c in system.constraints)
    assert all(cases.values()), cases


def test_fractional_generator_mixes_coefficient_types():
    rng = random.Random(11)
    kinds = set()
    denominators = set()
    for _ in range(200):
        for c in random_fractional_system(rng).constraints:
            for _, a in c.coeffs:
                kinds.add(type(a))
                denominators.add(Fraction(a).denominator)
    assert kinds == {int, Fraction}
    assert denominators >= {1, 2, 3, 4, 5}  # and their products, in scaled rows


def _world_systems(monkeypatch, formulas) -> list[LinearSystem]:
    """The cell system of every step `world_sat` is asked on the steps of
    the formulas' disjuncts, from cold caches, stated as `cell_system`,
    whether one cell or the simplex decides it."""
    asked = {}
    real = decide.world_sat

    def record(bounds):
        asked.setdefault(bounds)
        return real(bounds)

    decide.clear_caches()
    monkeypatch.setattr(decide, "world_sat", record)
    for f in formulas:
        for disjunct in to_disjuncts(push_next(f)):
            for _, _, bounds in group_steps(disjunct):
                if bounds:
                    record(bounds)
    monkeypatch.setattr(decide, "world_sat", real)
    systems = [
        cell_system(decide._cells(frozenset(bound_column(atom)[0] for _, atom in bounds)), bounds)
        for bounds in asked
    ]
    decide.clear_caches()
    return systems


def test_world_systems_get_the_fraction_simplex_point(monkeypatch):
    rng = random.Random(78)
    formulas = [parse(lp_chain(k)) for k in range(2, 7)]
    formulas += [random_formula(rng) for _ in range(300)]
    systems = _world_systems(monkeypatch, formulas)
    assert len(systems) > 100
    for system in systems:
        # the rows are built from plain integers, +1 and -1
        assert all(type(a) is int for c in system.constraints for _, a in c.coeffs)
        point = solve(system)
        assert point == fraction_simplex(system)
        if point is not None:
            assert all(type(value) is Fraction for value in point.values())


def test_int_and_fraction_coefficients_give_the_same_point():
    rng = random.Random(31)
    build = {Rel.GE: ge, Rel.GT: gt, Rel.EQ: eq}
    for _ in range(500):
        system = _random_system(rng)
        as_ints = LinearSystem(
            [
                build[c.relation]({v: int(a) for v, a in c.coeffs}, c.constant)
                for c in system.constraints
            ],
            num_vars=system.num_vars,
        )
        assert all(type(a) is int for c in as_ints.constraints for _, a in c.coeffs)
        assert all(type(a) is Fraction for c in system.constraints for _, a in c.coeffs)
        assert solve(as_ints) == solve(system)


def test_solution_values_are_fractions():
    rng = random.Random(41)
    points = 0
    for generator in (_random_system, random_fractional_system):
        for _ in range(500):
            point = solve(generator(rng))
            if point is not None:
                assert all(type(value) is Fraction for value in point.values())
                points += 1
    assert points > 100
    # also where every coefficient and constant is integral
    assert solve(LinearSystem([eq({0: 2, 1: 2}, -2), ge({0: 1}), gt({1: 1})])) == {
        0: F(0),
        1: F(1),
    }


def test_coprime_large_denominators_stay_exact():
    p, q = 1000003, 999983  # primes
    weights = {0: F(1, p), 1: F(1, q)}
    system = LinearSystem(
        [
            eq(weights, F(-1)),  # x/p + y/q = 1
            eq({0: F(1), 1: F(-1)}),  # x = y
            # x/q - y/p > 1/100003, just below 20/(p + q) at x = y
            gt({0: F(1, q), 1: F(-1, p)}, F(-1, 100003)),
        ],
        num_vars=2,
    )
    point = solve(system)
    assert point == fraction_simplex(system)
    x = F(p * q, p + q)
    assert point == {0: x, 1: x}
    assert satisfies(system, point)
    # a strict bound on the same slack from the other side leaves no room
    beyond = [gt({0: F(-2, p), 1: F(-2, q)}, F(2))]  # x/p + y/q < 1
    assert solve(LinearSystem(system.constraints + beyond)) is None
    tighter = [gt({0: F(1, q), 1: F(-1, p)}, F(-20, p + q))]  # x/q - y/p > 20/(p+q)
    assert solve(LinearSystem(system.constraints + tighter)) is None
