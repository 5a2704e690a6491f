import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    bound_column,
    cell_system,
    cells_by_conj,
    cells_by_walk,
    clash_free,
    independent_bounds,
    lp_chain,
    push_then_dnf,
    random_bound_conjunction,
    random_formula,
    random_nested_bounds,
    tableau_by_constraints,
    witnessed,
    world_sat_all_cells,
)
import probnext
from probnext import (
    And,
    AtLeast,
    Next,
    Not,
    Prop,
    conj,
    lindenbaum,
    parse,
    push_next,
    random_model,
    sat,
    sat_status,
    valid,
    witness,
)
from probnext import decide, linarith
from probnext.decide import conjoin, group_steps, to_disjuncts, world_sat


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
    # next-operators above ! and & become time stamps; a bound is over its
    # body's column, the normal form up to one leading negation
    f = parse("X !(p0 & L[1/2] X p1)")
    assert to_disjuncts(f) == [
        frozenset({(False, 1, Prop(0))}),
        frozenset({(False, 1, AtLeast(Fraction(1, 2), Next(Prop(1))))}),
    ]
    atom = AtLeast(Fraction(1, 2), Not(Next(Prop(0))))
    assert to_disjuncts(parse("L[1/2] X !p0")) == [frozenset({(True, 0, atom)})]
    assert to_disjuncts(parse("L[1/2] !X p0")) == [frozenset({(True, 0, atom)})]
    # the vacuous bound is settled: L[0] b is true and !L[0] b false
    assert to_disjuncts(parse("L[0] p0")) == [frozenset()]
    assert to_disjuncts(parse("!L[0] p0")) == []


def test_disjuncts_agree_with_the_push_then_dnf_oracle():
    rng = random.Random(606)
    sat_count = 0
    for _ in range(500):
        f = random_formula(rng)
        expected = push_then_dnf(f)
        for got in (to_disjuncts(push_next(f)), to_disjuncts(f)):
            assert len(got) == len(expected) and set(got) == set(expected)
        verdict = any(
            all(
                world_sat(bounds) is not None
                for _, _, bounds in group_steps(d)
                if bounds
            )
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


def test_long_conjunction_chain_decides():
    # Hashing the 600-deep chain for the cache used to reach the recursion
    # limit first; an interned node hashes in O(1).
    assert sat_status(conj(Prop(i % 3) for i in range(600))) is True
    assert sat_status(conj([*(Prop(i % 3) for i in range(600)), Not(Prop(1))])) is False


def test_deep_column_decides():
    # The cell step orders the columns X^900 p0 and p1 by their spellings,
    # which a stack walks: a recursive key would reach the recursion limit.
    assert sat(parse("L[1/2] " + "X " * 900 + "p0 & L[1/3] p1")).status == "SAT"


# SAT formulas with several distinct bodies at a step, some in more than one
# disjunct.
MULTI_BODY = [
    lp_chain(3),
    "L[1/2] X !p0 & L[1/3] (p0 & p1) & !L[3/4] (p1 | L[1/2] p2)",
    "L[1/3] L[1/2] p0 & L[1/4] !L[1/3] p1 & X (L[1/2] p2 & !L[2/3] (p0 & X p1))",
    "(L[1/2] p0 | L[2/3] p1) & (!L[1/3] (p0 & p1) | L[1/4] X p2)",
]


def test_answers_do_not_depend_on_the_hash_seed():
    # A node hashes by its address and a string by the hash seed, both of
    # which may change from one interpreter to the next, so no step orders
    # by a hash: the DNF keeps its first-seen order, and the cell step
    # orders its columns by their spellings.  A disjunct is a set, so it is
    # compared as its sorted literals.
    code = (
        "import json\n"
        "from probnext import lindenbaum, parse, prefix_to_dict, witness\n"
        "from probnext.decide import to_disjuncts\n"
        "from probnext.models import model_to_dict\n"
        "out = []\n"
        f"for text in {MULTI_BODY!r}:\n"
        "    f = parse(text)\n"
        "    model, root = witness(f)\n"
        "    disjuncts = [sorted(map(repr, d)) for d in to_disjuncts(f)]\n"
        "    out.append([disjuncts, model_to_dict(model), root])\n"
        "out.append(prefix_to_dict(lindenbaum(parse('L[1/2] p0 & X p1'), 200)))\n"
        "print(json.dumps(out))\n"
    )
    package_parent = os.path.dirname(os.path.dirname(probnext.__file__))
    outputs = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONPATH=package_parent, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


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


def _tables_built(monkeypatch, run) -> list:
    """The cell tables `run()` builds from cleared caches, each as its
    columns and its kept cells, a cell read as the set of columns it lies
    inside (its mask)."""
    tables = []
    for (columns,) in _distinct_calls(monkeypatch, "_cells", run):
        table = decide._cells(columns)
        inside = [
            frozenset(c for c, i in table.column_of.items() if mask >> i & 1)
            for mask, _ in table.cells
        ]
        tables.append((set(table.column_of), set(inside)))
    return tables


def _table(columns, cells):
    """A table as `_tables_built` gives it, spelled as formula texts."""
    cells = {frozenset(push_next(parse(c)) for c in cell) for cell in cells}
    return {push_next(parse(c)) for c in columns}, cells


def _contingent(table) -> set:
    """The columns of a table that some kept cell lies inside and some
    outside."""
    columns, cells = table
    return {c for c in columns if len({c in cell for cell in cells}) == 2}


# Bodies that differ only in where a next-operator sits, or in one leading
# negation, bound the same worlds, so they share one cell column; a vacuous
# bound L[0] b adds none.  k contingent columns give 2^k cells, and the walk
# keeps those whose propositions agree.
SHARED_COLUMNS = {
    "L[1/2] X !p0 & L[1/2] !X p0": (["X p0"], [[], ["X p0"]]),
    "L[1/2] X (p0 & p1) & L[1/3] (X p0 & X p1) & !L[2/3] X !p0": (
        ["X p0 & X p1", "X p0"],
        [[], ["X p0"], ["X p0", "X p0 & X p1"]],
    ),
    "L[1/2] p0 & L[1/3] !p0": (["p0"], [[], ["p0"]]),
    "L[0] p0 & L[1/2] p1": (["p1"], [[], ["p1"]]),
}


@pytest.mark.parametrize(
    "text, cells",
    [
        ("L[1/2] X !p0 & L[1/2] !X p0", 2),
        ("L[1/2] X (p0 & p1) & L[1/3] (X p0 & X p1) & !L[2/3] X !p0", 4),
        ("L[1/2] p0 & L[1/3] !p0", 2),
        ("L[0] p0 & L[1/2] p1", 2),
    ],
)
def test_bodies_equal_up_to_next_share_a_cell_column(monkeypatch, text, cells):
    f = parse(text)
    tables = _tables_built(monkeypatch, lambda: sat(f))
    assert tables == [_table(*SHARED_COLUMNS[text])]
    assert 1 << len(_contingent(tables[0])) == cells
    assert sat(f).status == "SAT"
    model, root = witness(f)
    assert model.validate() == []
    assert model.check(root, f)


def test_negated_vacuous_bound_fails_before_any_cell(monkeypatch):
    def run():
        assert sat(parse("!L[0] p0")).status == "UNSAT"
        assert sat(parse("L[1/2] p1 & !L[0] X p0")).status == "UNSAT"

    assert _tables_built(monkeypatch, run) == []


def test_valid_and_unsatisfiable_bodies_fix_their_column(monkeypatch):
    # (p0 | !p0) & L[0] p1 is valid and p1 & !p1 unsatisfiable: only p2 is
    # contingent, so the valid column lies outside no kept cell and the
    # unsatisfiable one inside none.
    f = parse("L[1/2] ((p0 | !p0) & L[0] p1) & !L[1/2] (p1 & !p1) & L[1/3] p2")
    valid_body, empty_body = "(p0 | !p0) & L[0] p1", "p1 & !p1"
    table = _table([valid_body, empty_body, "p2"], [[valid_body], [valid_body, "p2"]])
    assert _tables_built(monkeypatch, lambda: sat(f)) == [table]
    assert _contingent(table) == {parse("p2")}
    assert sat(f).status == "SAT"
    model, root = witness(f)
    assert model.validate() == []
    assert model.check(root, f)
    assert sat(parse("!L[1] ((p0 | !p0) & L[0] p1) & L[1/3] p2")).status == "UNSAT"
    assert sat(parse("L[1/2] (p1 & !p1) & L[1/3] p2")).status == "UNSAT"
    assert sat(parse("L[1] !(p1 & !p1) & !L[1/2] !p2")).status == "SAT"


def _is_a_distribution(cells) -> bool:
    """Positive masses summing to 1, each on a disjunct whose steps are all
    satisfiable."""
    return sum(mass for _, mass in cells) == 1 and all(
        mass > 0 and decide._plans(d) is not None for d, mass in cells
    )


def _agrees_with_the_oracle(monkeypatch, run) -> int:
    """Run `run()` from cleared caches, recording every set of bounds that
    `world_sat` is asked; then ask the all-cells oracle each one, recording
    the sets its own cells reach as well.  Both must give the same verdict,
    and each answer a distribution over witnessing disjuncts; the oracle's
    extra columns (negated bodies) may make its LP pick another vertex.
    Returns the number compared."""
    decide.clear_caches()
    seen: dict = {}
    real = decide.world_sat

    def record(*args):
        seen.setdefault(args, None)
        return real(*args)

    monkeypatch.setattr(decide, "world_sat", record)
    run()
    done = 0
    while done < len(seen):
        for args in list(seen)[done:]:
            plans = real(*args), world_sat_all_cells(*args)
            assert (plans[0] is None) == (plans[1] is None), args
            assert all(_is_a_distribution(p) for p in plans if p is not None), args
            done += 1
    monkeypatch.setattr(decide, "world_sat", real)
    return done


def test_cell_step_agrees_with_the_all_cells_oracle(monkeypatch):
    rng = random.Random(909)
    formulas = [random_formula(rng) for _ in range(2000)]
    formulas += [random_bound_conjunction(rng) for _ in range(1000)]
    witnessed = []

    def run():
        for f in formulas:
            found = witness(f)
            if found is not None:
                witnessed.append((f, found))

    assert _agrees_with_the_oracle(monkeypatch, run) > 1000
    assert 1000 < len(witnessed) < 3000
    for f, (model, root) in witnessed:
        assert model.validate() == []
        assert model.check(root, f)


BENCH = Path(__file__).resolve().parents[1] / "bench"

# The first entries of the decide-mix benchmark pool, whose verdicts are
# committed with the benchmark.
MIX_ENTRIES = 2500


def _bench_inputs():
    """The benchmark's input generators, `bench/inputs.py`."""
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def _mix_pool(n: int) -> list:
    """The first n entries of the decide-mix pool as ((kind, text), verdict),
    without those whose verdict the benchmark leaves unverified ("X")."""
    inputs = _bench_inputs()
    verdicts = json.loads((BENCH / "expected" / "decide_mix.json").read_text())["verdicts"]
    return [(inputs.mix_entry(i), verdicts[i]) for i in range(n) if verdicts[i] != "X"]


def test_cell_step_agrees_with_the_oracle_on_the_decide_mix_pool(monkeypatch):
    entries = _mix_pool(MIX_ENTRIES)

    def run():
        for (kind, text), verdict in entries:
            f = parse(text)
            if kind == "derives":
                assert probnext.derives([], f) is (verdict == "V")
                continue
            assert sat_status(f) is (verdict == "S")
            if verdict == "S":
                model, root = witness(f)
                assert model.validate() == []
                assert model.check(root, f)

    assert _agrees_with_the_oracle(monkeypatch, run) > 1000


def test_disjuncts_and_conjoined_disjuncts_are_clash_free():
    """`group_steps` keeps no negative proposition: it relies on every
    disjunct that `to_disjuncts` and `conjoin` give being clash-free."""
    rng = random.Random(1616)
    formulas = [parse(text) for (_, text), _ in _mix_pool(MIX_ENTRIES)]
    formulas += [random_formula(rng) for _ in range(500)]
    before = [frozenset()]
    for f in formulas:
        dnf = to_disjuncts(f)
        assert all(map(clash_free, dnf)), f
        assert all(map(clash_free, conjoin(before, f))), f
        before = dnf


def test_deciding_from_warm_step_caches_hashes_no_fraction(monkeypatch):
    """A literal's atom is an interned node, which hashes by identity: once
    the steps' LPs are cached, deciding and witnessing again hashes no
    bound."""
    f = parse("L[1/2] (p0 | p1) & !L[1/3] X p1 & X L[2/3] !p2")
    assert sat_status(f) and witness(f) is not None
    sat_status.cache_clear()
    calls = []
    real = Fraction.__hash__

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    assert sat_status(f) and witness(f) is not None
    monkeypatch.setattr(Fraction, "__hash__", real)
    assert calls == []
    # bounds equal up to moving X through ! are one atom
    [(left,)], [(right,)] = (to_disjuncts(parse(t)) for t in ("L[1/2] X !p0", "L[1/2] !X p0"))
    assert left[2] is right[2]


def test_propositional_context_reuses_the_lp_of_its_bounds():
    decide.clear_caches()
    assert sat_status(parse("p0 & L[1/2] p1"))
    misses = world_sat.cache_info().misses
    assert sat_status(parse("!p0 & L[1/2] p1"))
    assert world_sat.cache_info().misses == misses


def _distinct_calls(monkeypatch, name, run) -> list:
    """Run `run()` from cleared caches and return the distinct arguments of
    its calls to `decide.<name>`, in first-call order."""
    decide.clear_caches()
    seen: dict = {}
    real = getattr(decide, name)

    def record(*args):
        seen.setdefault(args, None)
        return real(*args)

    monkeypatch.setattr(decide, name, record)
    run()
    monkeypatch.setattr(decide, name, real)
    return list(seen)


def test_cell_tables_agree_with_the_conj_oracle(monkeypatch):
    """The prefix walk keeps the cells, in the order and with the witnessing
    disjuncts, that `conj` and `sat_status` on every cell gave.  Nested
    bounds reach cells that only their LP refutes."""
    rng = random.Random(1515)
    inputs = [
        [parse(text) for (_, text), _ in _mix_pool(300)],
        [random_formula(rng) for _ in range(300)],
        [random_nested_bounds(rng) for _ in range(300)],
        [parse(independent_bounds(8))],
    ]
    for formulas in inputs:
        calls = _distinct_calls(monkeypatch, "_cells", lambda: list(map(sat_status, formulas)))
        assert calls
        for (columns,) in calls:
            assert decide._cells(columns) == witnessed(cells_by_conj(columns)), columns
    # p0..p7 and their union: every valuation of the props is one cell.
    assert [len(decide._cells(*args).cells) for args in calls] == [1 << 8]


def test_cell_tables_agree_with_the_walk_oracle(monkeypatch):
    """The walk that cuts every prefix with no satisfiable disjunct keeps the
    cells, in the order and with the witnessing disjuncts, that the former
    walk kept, which cut a prefix only at a propositional clash and checked
    each leaf.  The Lindenbaum seeds reach tables past what `cells_by_conj`
    can enumerate."""
    rng = random.Random(2121)
    mix = [parse(text) for (_, text), _ in _mix_pool(MIX_ENTRIES)]
    nested = [random_nested_bounds(rng) for _ in range(300)]
    expected = json.loads((BENCH / "expected" / "lindenbaum.json").read_text())
    seeds = [entry["seed"] for entry in expected["seeds"]]
    runs = [
        lambda: list(map(sat_status, mix)),
        lambda: list(map(sat_status, nested)),
        lambda: sat_status(parse(independent_bounds(8))),
        lambda: [lindenbaum(parse(seed), 300) for seed in seeds],
    ]
    widest = 0
    for run in runs:
        calls = _distinct_calls(monkeypatch, "_cells", run)
        assert calls
        for (columns,) in calls:
            assert decide._cells(columns) == cells_by_walk(columns), columns
            widest = max(widest, len(columns))
    assert widest >= 16


def test_world_plans_agree_with_the_conj_oracle(monkeypatch):
    rng = random.Random(1516)
    formulas = [random_formula(rng) for _ in range(300)]
    formulas += [random_nested_bounds(rng) for _ in range(300)]
    formulas += [parse(lp_chain(k)) for k in range(2, 6)]
    formulas.append(parse(independent_bounds(6)))
    calls = _distinct_calls(monkeypatch, "world_sat", lambda: list(map(witness, formulas)))
    plans = {args: world_sat(*args) for args in calls}
    assert sum(plan is not None for plan in plans.values()) > 100
    monkeypatch.setattr(decide, "_cells", lambda columns: witnessed(cells_by_conj(columns)))
    for args, plan in plans.items():
        assert world_sat.__wrapped__(*args) == plan, args


# One satisfiable cell, an empty column, a one-cell column, negated columns,
# and literals sharing one indicator row, with each other or with the
# all-ones row.
CELL_TABLEAU_EDGES = [
    "L[1/2] (p0 | !p0)",
    "L[1] !(p1 & !p1) & !L[1/2] !p2",
    "L[1/2] (p1 & !p1) & L[1/3] p2",
    "!L[1/2] (p1 & !p1) & L[1/3] p2",
    "L[1/2] p0 & L[1] (p1 | !p1)",
    "L[1/3] p0 & !L[1/2] p0 & L[1/4] !p0",
    "L[1/2] p0 & !L[1/2] !p0",
]


def test_cell_tableau_is_the_tableau_of_the_cell_system(monkeypatch):
    """The tableau `linarith` builds from the cell rows is the one the
    former constraint front end built from the former `LinearSystem` of the
    cells, slack ids included, and `world_sat` answers with the masses
    `solve` finds for that system."""
    rng = random.Random(1717)
    formulas = [parse(text) for text in CELL_TABLEAU_EDGES]
    formulas += [parse(lp_chain(k)) for k in range(2, 7)]
    formulas += [random_formula(rng) for _ in range(300)]
    formulas += [random_nested_bounds(rng) for _ in range(300)]
    # the lp-bounds shape: L[r_i] (p_i | p_{i+1}) for i < 4, & !L[s] p_c
    lp_bounds_text = _bench_inputs().lp_bounds_text
    formulas += [parse(lp_bounds_text(random.Random(f"lp-bounds/{j}"))) for j in range(100)]
    calls = _distinct_calls(monkeypatch, "world_sat", lambda: list(map(witness, formulas)))
    edges = dict.fromkeys(["one cell", "empty", "one-cell", "negated", "shared"], 0)
    for (bounds,) in calls:
        table = decide._cells(frozenset(bound_column(atom)[0] for _, atom in bounds))
        system = cell_system(table, bounds)
        tableau = linarith._build(decide._cell_rows(table, bounds))
        assert tableau == tableau_by_constraints(system), bounds
        point = linarith.solve(system)
        cells = None if point is None else tuple(
            (d, point[i]) for i, (_, d) in enumerate(table.cells) if point[i] > 0
        )
        assert world_sat(bounds) == cells, bounds
        # the all-ones row, then the literal rows, as sets of cells
        sums = [tuple(v for v, _ in c.coeffs) for c in system.constraints]
        del sums[1 : 1 + len(table.cells)]
        longer = [row for row in sums if len(row) > 1]
        edges["one cell"] += len(table.cells) == 1
        edges["empty"] += any(not row for row in sums)
        edges["one-cell"] += any(len(row) == 1 for row in sums[1:])
        edges["negated"] += any(bound_column(atom)[1] for _, atom in bounds)
        edges["shared"] += len(set(longer)) < len(longer)
    assert len(calls) > 300
    assert all(edges.values()), edges
