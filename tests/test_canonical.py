import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import probnext
from helpers import (
    and_chain_lindenbaum,
    cap_address_space,
    cells_by_walk,
    clash_free,
    random_formula,
    world_sat_all_cells,
)
from probnext import (
    ExtensionLimitExceeded,
    InconsistentSeed,
    Not,
    NotFoundWithinBound,
    basis_intersection,
    conj,
    derives,
    enum_formula,
    implies,
    kernel_bounds,
    lindenbaum,
    metric_dc,
    parse,
    prefix_from_dict,
    prefix_to_dict,
    render,
    sat_function,
    sat_status,
    valid,
)
from probnext import decide
from probnext.canonical import _bound_stack_pattern


def test_inconsistent_seed_rejected():
    with pytest.raises(InconsistentSeed):
        lindenbaum(parse("p0 & !p0"), 5)
    with pytest.raises(InconsistentSeed):
        lindenbaum(parse("L[1/2] p0 & !L[1/3] p0"), 5)


def test_every_stage_set_is_consistent():
    w = lindenbaum(parse("L[1/2] p0"), 30)
    for upto in range(31):
        assert sat_status(conj(w.stage_set(upto)))


def test_stages_decide_each_enumerated_formula():
    w = lindenbaum(parse("p0 & X p1"), 25)
    gamma = w.stage_set()
    for l in range(25):
        f = enum_formula(l)
        assert derives(gamma, f) == w.decided[l]
        assert derives(gamma, Not(f)) == (not w.decided[l])


def test_seed_is_a_member():
    seed = parse("L[1/2] p0 & !p1")
    w = lindenbaum(seed, 10)
    assert w.member(seed)
    assert not w.member(Not(seed))


def test_extension_is_monotone():
    a = lindenbaum(parse("p1"), 10).extend(25)
    b = lindenbaum(parse("p1"), 25)
    assert a.decided == b.decided
    assert a.extras == b.extras


def test_reruns_are_bit_identical():
    seed = parse("L[1/3] (p0 & p1)")
    runs = [lindenbaum(seed, 30).decided for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]


def test_witness_bound_case_records_a_smaller_refuted_bound():
    w = lindenbaum(parse("L[1/2] p0"), 40)
    case3 = [rec for rec in w.stage_log if rec.case == 3]
    assert case3, "expected at least one witness-bound stage in 40 stages"
    for rec in case3:
        steps, outer, r, theta = _bound_stack_pattern(rec.formula)
        assert isinstance(rec.extra, Not)
        s_steps, s_outer, s, s_theta = _bound_stack_pattern(rec.extra.body)
        assert (s_steps, s_outer, s_theta) == (steps, outer, theta)
        assert s < r
        # the refuted bound was not derivable from the stage set at the time
        gamma_before = w.stage_set(rec.index)
        assert not derives(gamma_before, rec.extra.body)


def test_member_agrees_with_decided_bits():
    w = lindenbaum(parse("L[1/2] p0"), 30)
    for l in range(30):
        assert w.member(enum_formula(l)) == w.decided[l]


def test_member_beyond_budget_extends_when_cheap():
    w = lindenbaum(parse("p0"), 2)
    f = enum_formula(4)  # p1: independent of the seed, forces real stages
    answer = w.member(f)
    assert w.budget >= 5
    assert answer == w.decided[4]
    assert answer is False  # the construction refutes what it cannot derive


def test_member_raises_beyond_the_extension_cap(monkeypatch):
    monkeypatch.setattr(probnext.canonical, "_MAX_EXTENSION", 50)
    w = lindenbaum(parse("p0"), 5)
    # weight 9 starts beyond the first few thousand indices
    heavy = parse("L[1/2] L[1/2] p0")
    with pytest.raises(ExtensionLimitExceeded):
        w.member(heavy)


def test_heavy_bounds_hit_the_cap_instead_of_counting_their_classes():
    # rational_index(1/30) = 2^28 + 1, so L[1/30] p1 has weight 268 435 460,
    # far above the enumeration's weight limit
    w = lindenbaum(parse("p0"), 5)
    heavy = parse("L[1/30] p1")
    with pytest.raises(ExtensionLimitExceeded):
        w.member(heavy)
    iv = kernel_bounds(w, heavy, 4)
    assert (iv.lower, iv.upper) == (Fraction(0), Fraction(1))


def test_huge_bound_is_refused_before_its_index_is_spelled():
    # rational_index(1/10^11) has about 10^11 bits; the bound's depth in the
    # Calkin-Wilf tree already puts its weight past the limit
    package_parent = os.path.dirname(os.path.dirname(probnext.__file__))
    env = dict(os.environ, PYTHONPATH=package_parent)
    code = (
        "from probnext import formula_index, lindenbaum, parse\n"
        "from probnext.enumeration import ExtensionLimitExceeded\n"
        "heavy = parse('L[1/100000000000] p0')\n"
        "print(lindenbaum(parse('p0'), 3).member_or(heavy, None))\n"
        "try:\n"
        "    formula_index(heavy)\n"
        "except ExtensionLimitExceeded:\n"
        "    print('refused')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=10, env=env,
        preexec_fn=cap_address_space,
    )
    assert (done.returncode, done.stdout.split()) == (0, ["None", "refused"])


def test_member_fast_path_answers_heavy_queries_pinned_by_the_seed(monkeypatch):
    monkeypatch.setattr(probnext.canonical, "_MAX_EXTENSION", 50)
    w = lindenbaum(parse("L[3/4] p0"), 5)
    assert w.member(parse("L[1/2] L[0] p0"))  # valid, hence always a member
    assert w.member(parse("L[5/8] p0"))
    assert not w.member(parse("!L[1/2] p0"))


def test_metric_exact_and_upper_bound():
    w1 = lindenbaum(parse("p0"), 0)
    w2 = lindenbaum(parse("!p0"), 0)
    d = metric_dc(w1, w2, 12)
    assert d.exact and d.value == Fraction(1)  # they disagree on formula 0
    same = metric_dc(lindenbaum(parse("p0"), 0), lindenbaum(parse("p0"), 0), 12)
    assert not same.exact
    assert same.value == Fraction(1, 2**12)


def test_metric_first_disagreement_scaling():
    # both seeds make p0 true, but they split on a later formula
    w1 = lindenbaum(parse("p0 & p1"), 0)
    w2 = lindenbaum(parse("p0 & !p1"), 0)
    d = metric_dc(w1, w2, 20)
    assert d.exact
    assert 0 < d.value < 1


def test_kernel_bounds_bracket_the_pinned_value():
    w = lindenbaum(parse("L[1/2] p0 & !L[3/4] p0"), 10)
    iv = kernel_bounds(w, parse("p0"), 8)
    assert iv.lower == Fraction(1, 2)
    assert iv.upper == Fraction(3, 4)
    assert iv.lower <= iv.upper


def test_kernel_bounds_degenerate_grid():
    w = lindenbaum(parse("L[1] p0"), 5)
    iv = kernel_bounds(w, parse("p0"), 4)
    assert iv.lower == Fraction(1)
    assert iv.upper == Fraction(1)


@pytest.mark.parametrize("grid", [0, -1, -4])
def test_kernel_bounds_rejects_a_grid_below_one(grid):
    # a grid of 0 divided by zero, and a negative one answered [0, 1]
    w = lindenbaum(parse("L[1/2] p0"), 5)
    with pytest.raises(ValueError, match="grid"):
        kernel_bounds(w, parse("p0"), grid)


def test_metric_rejects_a_negative_budget():
    # 2^-1 made Fraction(1, 0.5), a TypeError
    w1, w2 = lindenbaum(parse("p0"), 0), lindenbaum(parse("!p0"), 0)
    with pytest.raises(ValueError, match="budget"):
        metric_dc(w1, w2, -1)
    assert metric_dc(w1, w2, 0).value == 1


def test_basis_intersection_finds_a_conjunction_index():
    from probnext import And

    i = basis_intersection(0, 1, 200)
    fi, fj = enum_formula(0), enum_formula(1)
    fl = enum_formula(i)
    assert not sat_status(And(fl, Not(And(fi, fj))))
    assert not sat_status(And(And(fi, fj), Not(fl)))


def test_basis_intersection_respects_the_bound():
    with pytest.raises(NotFoundWithinBound):
        basis_intersection(0, 1, 3)


def test_sat_function_bits():
    w = lindenbaum(parse("p0"), 10)
    assert sat_function(w, 0) == 1  # formula 0 is p0
    assert sat_function(w, 1) == 0  # formula 1 is !p0


def test_serialization_roundtrip_and_tamper_detection():
    w = lindenbaum(parse("L[1/2] p0"), 20)
    data = prefix_to_dict(w)
    back = prefix_from_dict(data)
    assert back.decided == w.decided
    assert [str(e) for e in back.extras] == [str(e) for e in w.extras]
    data["decided"][0] = 1 - data["decided"][0]
    with pytest.raises(ValueError):
        prefix_from_dict(data)


def test_deep_stage_set_is_a_limit_and_leaves_a_consistent_prefix():
    # p1 is independent of the seed, so the bracket's queries run stages
    # until one of them has enumerated more cells than a query may (the
    # stages past about 1050 cost 2^k cells each); the stage that passes the
    # budget is the last one recorded, and the queries that cannot be
    # decided default.
    package_parent = os.path.dirname(os.path.dirname(probnext.__file__))
    env = dict(os.environ, PYTHONPATH=package_parent)
    code = (
        "from probnext import kernel_bounds, lindenbaum, parse\n"
        "w = lindenbaum(parse('p0'), 5)\n"
        "iv = kernel_bounds(w, parse('p1'), 30)\n"
        "print(iv.lower <= iv.upper, w.budget == len(w.decided) == len(w.stage_log))\n"
        "print(w.budget > 5)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env=env,
        preexec_fn=cap_address_space,
    )
    assert (done.returncode, done.stdout.split()) == (0, ["True", "True", "True"]), done.stderr


def test_stage_that_hits_a_limit_is_not_recorded(monkeypatch):
    w = lindenbaum(parse("L[1/2] p0"), 10)
    state = (list(w.decided), list(w.stage_log), list(w.extras), list(w._dnf))

    def over_the_limit(disjuncts, f):
        raise ExtensionLimitExceeded("limit")

    monkeypatch.setattr(probnext.canonical, "conjoin", over_the_limit)
    with pytest.raises(ExtensionLimitExceeded):
        w.extend(20)
    assert w.budget == 10
    assert (list(w.decided), list(w.stage_log), list(w.extras), list(w._dnf)) == state
    assert w.member_or(enum_formula(3), default=None) is None
    monkeypatch.undo()
    assert w.extend(20).decided == lindenbaum(parse("L[1/2] p0"), 20).decided


def test_member_stops_at_the_cell_budget_and_leaves_a_consistent_prefix(monkeypatch):
    # L[1/2] p1 is stage 261 and independent of the seed, so member runs
    # the stages up to it; from empty caches their cell walks and LPs cost
    # far more than 8 units, and the first query stops inside stage 58,
    # which is not recorded.  (At 16 units it stops inside stage 59; once
    # stage 61 is built the stage set refutes L[1/2] p1, and member_or
    # would answer False.)
    decide.clear_caches()
    monkeypatch.setattr(probnext.canonical, "_MEMBER_WORK", 8)
    w = lindenbaum(parse("p0"), 5)
    query = parse("L[1/2] p1")
    with pytest.raises(ExtensionLimitExceeded):
        w.member(query)
    assert 5 < w.budget <= 261
    assert w.budget == len(w.decided) == len(w.stage_log)
    assert w.member_or(query, default=None) is None
    assert w.extend(262).decided == lindenbaum(parse("p0"), 262).decided
    assert w.member(query) == w.decided[261]


def _member_meters(monkeypatch) -> list:
    """The meter of every `decide.work_budget` block opened from now on, in
    the order they open."""
    meters = []
    real = decide.work_budget

    @contextmanager
    def recording(units):
        with real(units) as meter:
            meters.append(meter)
            yield meter

    monkeypatch.setattr(decide, "work_budget", recording)
    return meters


def test_member_meters_its_fast_path_inside_the_walk(monkeypatch):
    # From cleared caches, the fast path's entailment check that answers
    # L[1/5] !p2 walks 306 nodes and solves LPs over 128 cells at budget
    # 300.  The budget covers the whole query, and the first charge past it
    # raises: the 101st node, before any LP.
    w = lindenbaum(parse("L[1/2] p0 & X p1"), 300)
    query = parse("L[1/5] !p2")
    decide.clear_caches()
    meters = _member_meters(monkeypatch)
    monkeypatch.setattr(probnext.canonical, "_MEMBER_WORK", 100)
    with pytest.raises(ExtensionLimitExceeded):
        w.member(query)
    assert meters == [[101, 0, 100]]
    assert w.budget == 300
    monkeypatch.undo()
    assert w.member(query) is True
    assert w.budget == 300


def test_member_charges_an_lp_its_cells_before_it_starts(monkeypatch):
    # With the tables of budget 300 warm, the fast path's entailment check
    # for L[1/5] !p2 pops no node and solves one LP over 128 cells, which a
    # meter of walk nodes alone let through under any budget.
    decide.clear_caches()
    w = lindenbaum(parse("L[1/2] p0 & X p1"), 300)
    query = parse("L[1/5] !p2")
    meters = _member_meters(monkeypatch)
    solved = []
    real_solve = decide.solve_rows
    monkeypatch.setattr(decide, "solve_rows", lambda *args: solved.append(1) or real_solve(*args))
    monkeypatch.setattr(probnext.canonical, "_MEMBER_WORK", 100)
    with pytest.raises(ExtensionLimitExceeded):
        w.member(query)
    assert (meters, solved) == ([[0, 128, 100]], [])
    monkeypatch.setattr(probnext.canonical, "_MEMBER_WORK", 200)
    assert w.member(query) is True
    assert (meters[1:], solved) == ([[0, 128, 200]], [1])
    assert w.budget == 300


def test_warm_memos_keep_every_answer_that_cleared_ones_give(monkeypatch):
    """Cached work is free, so a query costs no more once the memos are
    warm: each query answered from cleared memos is answered the same, at
    no cost, when repeated, and a query that raises from cleared memos
    answers once other work has warmed them."""
    seed = parse("L[1/2] p0 & X p1")
    meters = _member_meters(monkeypatch)
    for text in ("L[1/5] !p2", "L[2/3] p1", "L[1/2] (p0 | p1)", "L[1/4] X p0"):
        w = lindenbaum(seed, 300)
        decide.clear_caches()
        cold = w.member(parse(text))
        assert w.member(parse(text)) == cold, text
        assert meters[-2][0] + meters[-2][1] > 0 and meters[-1][:2] == [0, 0], text
    # From cleared memos L[1/5] !p2 costs 306 nodes and 128 cells; after
    # the build has warmed them, 128 cells.
    monkeypatch.setattr(probnext.canonical, "_MEMBER_WORK", 300)
    w = lindenbaum(seed, 300)
    decide.clear_caches()
    with pytest.raises(ExtensionLimitExceeded):
        w.member(parse("L[1/5] !p2"))
    w = lindenbaum(seed, 300)
    assert w.member(parse("L[1/5] !p2")) is True
    assert meters[-1] == [0, 128, 300]


def test_stage_set_depth_is_not_limited_by_the_recursion_limit():
    # With the stage set kept as one nested conjunction, this limit stopped
    # the construction after 133 stages.
    package_parent = os.path.dirname(os.path.dirname(probnext.__file__))
    env = dict(os.environ, PYTHONPATH=package_parent)
    code = (
        "import sys\n"
        "from probnext import lindenbaum, parse\n"
        "sys.setrecursionlimit(150)\n"
        "print(lindenbaum(parse('L[1/2] p0 & X p1'), 200).budget)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env=env,
        preexec_fn=cap_address_space,
    )
    assert (done.returncode, done.stdout.split()) == (0, ["200"]), done.stderr


BENCH_EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected" / "lindenbaum.json"


def _bits_and_extras(w):
    """A prefix as the benchmark's expected file spells it."""
    bits = "".join("1" if bit else "0" for bit in w.decided)
    extras = {str(r.index): render(r.extra) for r in w.stage_log if r.extra is not None}
    return bits, extras


def test_lindenbaum_seeds_agree_with_the_all_cells_oracle(monkeypatch):
    """The four benchmark seeds at budget 120, built by the cell step and by
    the all-cells oracle.  The DNF has already dropped the positive L[0]
    bounds, which hold at every world: with them the oracle is the cliff
    the cell step removes (19 distinct bodies at this budget)."""
    seeds = [entry["seed"] for entry in json.loads(BENCH_EXPECTED.read_text())["seeds"]]
    decide.clear_caches()
    built = [_bits_and_extras(lindenbaum(parse(seed), 120)) for seed in seeds]
    monkeypatch.setattr(decide, "world_sat", lru_cache(maxsize=None)(world_sat_all_cells))
    decide.clear_caches()
    try:
        assert [_bits_and_extras(lindenbaum(parse(seed), 120)) for seed in seeds] == built
    finally:
        decide.clear_caches()


def test_every_stage_set_disjunct_is_clash_free():
    for entry in json.loads(BENCH_EXPECTED.read_text())["seeds"]:
        w = lindenbaum(parse(entry["seed"]), 0)
        for budget in range(1, 301):
            assert all(map(clash_free, w.extend(budget)._dnf)), (entry["seed"], budget)


def test_lindenbaum_agrees_with_the_and_chain_oracle():
    """The stage set kept as its pruned DNF decides every stage as the
    stage set kept as one conjunction did: the four benchmark seeds at
    budget 300, and random consistent seeds at budget 60."""
    seeds = [parse(entry["seed"]) for entry in json.loads(BENCH_EXPECTED.read_text())["seeds"]]
    runs = [(seed, 300) for seed in seeds]
    rng = random.Random(2027)
    while len(runs) < 24:
        seed = random_formula(rng, max_size=8, max_prob_depth=1, max_dyn_depth=2, denom_bound=3)
        if sat_status(seed):
            runs.append((seed, 60))
    for seed, budget in runs:
        w = lindenbaum(seed, budget)
        extras = {r.index: r.extra for r in w.stage_log if r.extra is not None}
        assert (w.decided, extras) == and_chain_lindenbaum(seed, budget), render(seed)


def test_every_witness_refutation_entails_the_negated_stack():
    """A special-case stage adds only its witness refutation to the stage
    set's DNF, which is exact because the refutation of the s-stack entails
    the negation of the r-stack it stands beside (s < r): checked for every
    such stage of the four benchmark seeds to budget 300, and of
    L[1/2] p0 & X p1 to budget 1100."""
    seeds = [entry["seed"] for entry in json.loads(BENCH_EXPECTED.read_text())["seeds"]]
    runs = [(seed, 300) for seed in seeds] + [("L[1/2] p0 & X p1", 1100)]
    checked = 0
    for seed, budget in runs:
        for record in lindenbaum(parse(seed), budget).stage_log:
            if record.case == 3:
                assert valid(implies(record.extra, Not(record.formula))), render(record.formula)
                checked += 1
    assert checked == 18 + 18 + 17 + 17 + 54


def test_lindenbaum_seeds_reproduce_the_benchmark_bits():
    expected = json.loads(BENCH_EXPECTED.read_text())
    for entry in expected["seeds"]:
        w = lindenbaum(parse(entry["seed"]), expected["budget"])
        assert _bits_and_extras(w) == (entry["decided"], entry["extras"])


def test_canonical_columns_keep_the_cells_to_stage_1000_few():
    # Counts, not times: with each bound over its body as written, and the
    # L[0] bounds reaching the cell step, these stages enumerated 222 072
    # cells (2^k per set of bounds over k contingent columns), and 20 302
    # over the canonical columns.  The cell walks popped 2034 nodes while
    # they cut a prefix only at a propositional clash; cutting every prefix
    # with no satisfiable disjunct, they pop 1667, and 1290 with the columns
    # in spelling order, their LPs spanning 4034 cells.  A case-3 stage that
    # merges only its witness refutation leaves a later case-1 stage to add
    # back the negation it implied: 1368 nodes and 5448 cells.
    decide.clear_caches()
    with decide.work_budget(10**12) as meter:
        lindenbaum(parse("L[1/2] p0 & X p1"), 1000)
    assert meter[0] < 2000


def test_budget_1070_agrees_with_the_walk_oracle(monkeypatch):
    """Past stage 1050 the cell tables reach about 50 columns, which only a
    walk can enumerate: the former walk, patched in for the cell tables,
    decides every stage as the walk cut by the theory does."""
    seed = parse("L[1/2] p0 & X p1")
    decide.clear_caches()
    built = _bits_and_extras(lindenbaum(seed, 1070))
    monkeypatch.setattr(decide, "_cells", lru_cache(maxsize=None)(cells_by_walk))
    decide.clear_caches()
    try:
        assert _bits_and_extras(lindenbaum(seed, 1070)) == built
    finally:
        decide.clear_caches()


def test_member_past_stage_1060_answers_within_the_work_budget():
    # L[1] !p2 is stage 1063.  Stages 1000-1063 pop 2118 walk nodes and
    # solve LPs over 7104 cells in about 0.1 s, 9222 units of the 2^15,
    # where the former meter of 2^k cells per set of bounds passed 2^18 at
    # stage 1063 and refused the query.
    decide.clear_caches()
    w = lindenbaum(parse("L[1/2] p0 & X p1"), 1000)
    assert w.member(parse("L[1] !p2")) is False
    assert w.budget == 1064


def test_lindenbaum_stage_cliff_stays_gone():
    # Counts, not times: building to budget 50 from this seed took 8245
    # sat_status misses when every cell over every body was tried, and each
    # later stage about 2.4 times the one before.
    decide.clear_caches()
    lindenbaum(parse("L[1/2] p0 & X p1"), 260)
    assert sat_status.cache_info().misses < 4000
    # The stages no longer reach sat_status (0 misses); what they cost is
    # one LP per distinct set of bounds, a world_sat miss (74 here; 147
    # while the plans were keyed by the propositions as well).
    assert decide.world_sat.cache_info().misses < 100
