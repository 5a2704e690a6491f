import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from helpers import (
    as_cell_table,
    bench_inputs,
    bit_indices,
    bound_column,
    cell_rows_by_masks,
    cell_rows_with_masses,
    cell_system,
    cells_by_conj,
    cells_by_walk,
    cells_with_masks,
    clash_free,
    former_extension,
    fraction_valued_build,
    fraction_valued_solve,
    independent_bounds,
    lp_chain,
    nonzero_coordinates,
    one_cell_points,
    push_then_dnf,
    random_bound_conjunction,
    random_formula,
    random_nested_bounds,
    scale_bounds,
    tableau_by_constraints,
    witness_by_builder,
    witnessed,
    world_sat_all_cells,
    world_sat_by_simplex,
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
    render,
    sat,
    sat_status,
    valid,
    witness,
)
from probnext import decide, linarith
from probnext.decide import conjoin, group_steps, to_disjuncts, world_sat
from probnext.models import model_to_dict


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
        inside = [set() for _ in table.disjuncts]
        for c, (_, bits) in table.columns.items():
            for i in bit_indices(bits):
                inside[i].add(c)
        tables.append((set(table.columns), set(map(frozenset, inside))))
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


def _mix_pool(n: int) -> list:
    """The first n entries of the decide-mix pool as ((kind, text), verdict),
    without those whose verdict the benchmark leaves unverified ("X")."""
    inputs = bench_inputs()
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


def _as_sets(table):
    """A cell table with each witnessing disjunct as the set of its
    literals, the layout the oracles build."""
    return table._replace(disjuncts=tuple(map(frozenset, table.disjuncts)))


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
            assert _as_sets(decide._cells(columns)) == witnessed(cells_by_conj(columns)), columns
    # p0..p7 and their union: every valuation of the props is one cell.
    assert [len(decide._cells(*args).disjuncts) for args in calls] == [1 << 8]


def test_cell_tables_agree_with_the_walk_oracle(monkeypatch):
    """The walk that cuts every prefix with no satisfiable disjunct keeps the
    cells, in the order and with the witnessing disjuncts, that the former
    walk kept, which cut a prefix only at a propositional clash and checked
    each leaf.  The Lindenbaum seeds reach tables past what `cells_by_conj`
    can enumerate: 16 columns by budget 500 (at budget 300, 15)."""
    rng = random.Random(2121)
    mix = [parse(text) for (_, text), _ in _mix_pool(MIX_ENTRIES)]
    nested = [random_nested_bounds(rng) for _ in range(300)]
    expected = json.loads((BENCH / "expected" / "lindenbaum.json").read_text())
    seeds = [entry["seed"] for entry in expected["seeds"]]
    runs = [
        lambda: list(map(sat_status, mix)),
        lambda: list(map(sat_status, nested)),
        lambda: sat_status(parse(independent_bounds(8))),
        lambda: [lindenbaum(parse(seed), 500) for seed in seeds],
    ]
    widest = 0
    for run in runs:
        calls = _distinct_calls(monkeypatch, "_cells", run)
        assert calls
        for (columns,) in calls:
            assert _as_sets(decide._cells(columns)) == cells_by_walk(columns), columns
            widest = max(widest, len(columns))
    assert widest >= 16


def test_cell_tables_and_rows_agree_with_the_mask_oracle(monkeypatch):
    """Every cell table built on the first 2000 decide-mix entries, 300
    nested bounds, the lp-bounds pool and the Lindenbaum seeds to budget 300
    holds, in order, the witnessing disjuncts of the former table that kept
    each cell's mask, and each column's bitset is the one read off those
    masks.  `_cell_rows` gives, for every step `world_sat` is asked, the
    rows the former mask scan gave."""
    rng = random.Random(2727)
    mix = [(kind, parse(text)) for (kind, text), _ in _mix_pool(2000)]
    nested = [random_nested_bounds(rng) for _ in range(300)]
    pool = [parse(text) for text in _lp_bounds_pool()]
    expected = json.loads((BENCH / "expected" / "lindenbaum.json").read_text())
    seeds = [parse(entry["seed"]) for entry in expected["seeds"]]
    runs = [
        lambda: [probnext.derives([], f) if kind == "derives" else witness(f) for kind, f in mix],
        lambda: list(map(witness, nested)),
        lambda: list(map(witness, pool)),
        lambda: [lindenbaum(seed, 300) for seed in seeds],
    ]
    for run in runs:
        # every table is built for a step `world_sat` is asked, and each
        # step has its rows, whether one cell or the simplex decides it
        steps = {
            bounds: frozenset(bound_column(atom)[0] for _, atom in bounds)
            for (bounds,) in _distinct_calls(monkeypatch, "world_sat", run)
        }
        oracles = {}
        for columns in dict.fromkeys(steps.values()):
            # the disjuncts in mask order, and each column's index and row
            masked = oracles[columns] = cells_with_masks(columns)
            assert _as_sets(decide._cells(columns)) == as_cell_table(masked), columns
        assert oracles
        for bounds, columns in steps.items():
            rows = decide._cell_rows(decide._cells(columns), bounds)
            assert rows == cell_rows_by_masks(oracles[columns], bounds), bounds


def test_cells_keep_their_witnessing_disjuncts_as_tuples(monkeypatch):
    """Every cell table built on the first 2000 decide-mix entries, the
    lp-bounds pool and the Lindenbaum seeds to budget 300 keeps each
    witnessing disjunct as a tuple, whose literals are, as a set, those of
    the mask oracle's disjunct for that cell; every `world_sat` answer hands
    out the table's own tuples."""
    mix = [(kind, parse(text)) for (kind, text), _ in _mix_pool(2000)]
    pool = [parse(text) for text in _lp_bounds_pool()]
    expected = json.loads((BENCH / "expected" / "lindenbaum.json").read_text())
    seeds = [parse(entry["seed"]) for entry in expected["seeds"]]

    def run():
        for kind, f in mix:
            probnext.derives([], f) if kind == "derives" else witness(f)
        list(map(witness, pool))
        for seed in seeds:
            lindenbaum(seed, 300)

    calls = _distinct_calls(monkeypatch, "world_sat", run)
    oracles = {}
    answers = 0
    for (bounds,) in calls:
        columns = frozenset(bound_column(atom)[0] for _, atom in bounds)
        table = decide._cells(columns)
        if columns not in oracles:
            oracles[columns] = [d for _, d in cells_with_masks(columns).cells]
            assert all(type(d) is tuple for d in table.disjuncts), columns
            assert list(map(frozenset, table.disjuncts)) == oracles[columns], columns
        position = {id(d): i for i, d in enumerate(table.disjuncts)}
        for d, _ in world_sat(bounds) or ():
            assert frozenset(d) == oracles[columns][position[id(d)]], bounds
            answers += 1
    assert len(oracles) > 100 and answers > 2000, (len(oracles), answers)


def test_witnesses_are_the_builder_oracles():
    """`witness` writes its model straight into the `FiniteDMM`, with the
    bytes of the former builder's model and root, on the first 2000
    decide-mix entries and the lp-bounds pool."""
    texts = [text for (kind, text), _ in _mix_pool(2000) if kind != "derives"]
    texts += _lp_bounds_pool()
    built = 0
    for text in texts:
        f = parse(text)
        found, former = witness(f), witness_by_builder(f)
        assert (found is None) == (former is None), text
        if found is not None:
            (model, root), (former_model, former_root) = found, former
            assert json.dumps([model_to_dict(model), root]) == json.dumps(
                [model_to_dict(former_model), former_root]
            ), text
            built += 1
    assert built > 2000, built


def _witness_bytes(found) -> str:
    return json.dumps(None if found is None else [model_to_dict(found[0]), found[1]])


def test_witnesses_do_not_depend_on_the_search_memo():
    """`witness` builds from the plans that the verdict's search kept, or
    repeats that search, with the builder oracle's bytes in every state of
    the memo: from cold caches, right after `sat`, after `clear_caches`, and
    after more other verdicts than the memo keeps.  On the first 2000 SAT
    decide-mix entries and the lp-bounds pool."""
    texts = [text for (_, text), verdict in _mix_pool(3500) if verdict == "S"][:2000]
    assert len(texts) == 2000
    formulas = list(dict.fromkeys(map(parse, texts + _lp_bounds_pool())))
    oracle = {f: _witness_bytes(witness_by_builder(f)) for f in formulas}
    memo = decide._first_plans.cache_info
    for f in formulas:
        decide.clear_caches()
        assert _witness_bytes(witness(f)) == oracle[f]
        decide.clear_caches()
        assert sat(f).status == "SAT"
        hits = memo().hits
        assert _witness_bytes(witness(f)) == oracle[f]
        assert _witness_bytes(witness(f)) == oracle[f]  # the plans stay as found
        assert memo().hits == hits + 2
        decide.clear_caches()
        assert _witness_bytes(witness(f)) == oracle[f]
    # each formula meets len(formulas) - 1 others between its verdict and
    # its witness, which evicts it
    assert len(formulas) > 2 * decide._FIRST_PLANS_KEPT
    decide.clear_caches()
    for f in formulas:
        assert sat(f).status == "SAT"
    for f in formulas:
        misses = memo().misses
        assert _witness_bytes(witness(f)) == oracle[f]
        assert memo().misses == misses + 1


def test_a_witness_after_its_verdict_repeats_no_search(monkeypatch):
    """After `sat(f)` on an lp-bounds formula, `witness(f)` expands no DNF
    and decides no step."""
    decide.clear_caches()
    calls = {"to_disjuncts": 0, "world_sat": 0}
    for name in calls:
        real = getattr(decide, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(decide, name, counted)
    for text in _lp_bounds_pool()[:100]:  # distinct: each verdict searches
        f = parse(text)
        assert sat(f).status == "SAT"
        assert calls["to_disjuncts"] > 0 and calls["world_sat"] > 0
        calls.update(dict.fromkeys(calls, 0))
        assert witness(f) is not None
        assert calls == {"to_disjuncts": 0, "world_sat": 0}, text


def test_clear_caches_empties_every_cache():
    f = parse(_lp_bounds_pool()[0])
    assert sat(f).status == "SAT" and witness(f) is not None
    caches = (decide.sat_status, decide._first_plans, decide.world_sat, decide._cells)
    assert all(cache.cache_info().currsize > 0 for cache in caches)
    decide.clear_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0, 0, 0, 0]


def test_witnesses_check_as_the_former_extension():
    """On the witness of each of the first 2000 SAT decide-mix entries and
    of the lp-bounds pool, the checker's scaled-integer rows give every
    subformula the extension that the former `Fraction` sums give."""
    texts = [text for (_, text), verdict in _mix_pool(3500) if verdict == "S"][:2000]
    assert len(texts) == 2000
    texts += _lp_bounds_pool()
    for text in texts:
        f = parse(text)
        model, root = witness(f)
        former = {}
        former_extension(model, f, former)
        assert root in former[f], text
        for g, worlds in former.items():
            assert model.extension(g) == worlds, (text, g)


def test_cell_rows_share_the_entries_of_the_all_ones_row(monkeypatch):
    """Each row `_cell_rows` returns holds the all-ones row's own (cell, 1)
    entries, those its column's bits select, so a row costs one pointer a
    cell: rows of fresh tuples took budget 1100 from 53 MB to 142 MB.  A
    table stores no row but the all-ones one."""
    formulas = [parse(text) for text in CELL_TABLEAU_EDGES]
    real = decide._cell_rows
    stated = []

    def record(table, bounds):
        rows = real(table, bounds)
        stated.append((table, bounds, rows))
        return rows

    def run():
        list(map(witness, formulas))
        lindenbaum(parse("L[1/2] p0 & X p1"), 1070)

    decide.clear_caches()
    monkeypatch.setattr(decide, "_cell_rows", record)
    run()
    monkeypatch.setattr(decide, "_cell_rows", real)
    largest = 0
    for table, bounds, rows in stated:
        assert all(type(bits) is int for _, bits in table.columns.values())
        assert rows[0][0] is table.ones
        selected = sorted(table.columns[bound_column(atom)[0]] for _, atom in bounds)
        assert len(rows) == 1 + len(selected), bounds
        for (_, bits), (inside, *_) in zip(selected, rows[1:]):
            assert [i for i, _ in inside] == bit_indices(bits), bounds
            assert all(entry is table.ones[entry[0]] for entry in inside), bounds
        largest = max(largest, len(table.columns) * len(table.ones))
    assert largest >= 26 * 192  # the widest LP's table by budget 1070: 192 cells, 26 columns


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
        as_sets = None if plan is None else tuple((frozenset(d), mass) for d, mass in plan)
        assert world_sat.__wrapped__(*args) == as_sets, args


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
    """The tableau `linarith` builds from the cell rows and the masses'
    non-negativity is the one the former constraint front end built from
    the former `LinearSystem` of the cells, slack ids included, with every
    bound times the tableau's scale.  Where no one cell satisfies that
    system alone, `world_sat` answers with the masses `solve` finds for
    it."""
    rng = random.Random(1717)
    formulas = [parse(text) for text in CELL_TABLEAU_EDGES]
    formulas += [parse(lp_chain(k)) for k in range(2, 7)]
    formulas += [random_formula(rng) for _ in range(300)]
    formulas += [random_nested_bounds(rng) for _ in range(300)]
    # the lp-bounds shape: L[r_i] (p_i | p_{i+1}) for i < 4, & !L[s] p_c
    lp_bounds_text = bench_inputs().lp_bounds_text
    formulas += [parse(lp_bounds_text(random.Random(f"lp-bounds/{j}"))) for j in range(100)]
    calls = _distinct_calls(monkeypatch, "world_sat", lambda: list(map(witness, formulas)))
    edges = dict.fromkeys(["one cell", "empty", "one-cell", "negated", "shared", "simplex"], 0)
    for (bounds,) in calls:
        table = decide._cells(frozenset(bound_column(atom)[0] for _, atom in bounds))
        system = cell_system(table, bounds)
        tableau = linarith._build(decide._cell_rows(table, bounds), range(len(table.disjuncts)))
        scale = tableau[4] if tableau else None
        assert tableau == scale_bounds(tableau_by_constraints(system), scale), bounds
        if not one_cell_points(system):
            point = linarith.solve(system)
            cells = None if point is None else tuple(
                (d, point[i]) for i, d in enumerate(table.disjuncts) if point[i] > 0
            )
            assert world_sat(bounds) == cells, bounds
            edges["simplex"] += 1
        # the all-ones row, then the literal rows, as sets of cells
        sums = [tuple(v for v, _ in c.coeffs) for c in system.constraints]
        del sums[1 : 1 + len(table.disjuncts)]
        longer = [row for row in sums if len(row) > 1]
        edges["one cell"] += len(table.disjuncts) == 1
        edges["empty"] += any(not row for row in sums)
        edges["one-cell"] += any(len(row) == 1 for row in sums[1:])
        edges["negated"] += any(bound_column(atom)[1] for _, atom in bounds)
        edges["shared"] += len(set(longer)) < len(longer)
    assert len(calls) > 300
    assert all(edges.values()), edges


def test_every_bound_that_reaches_world_sat_is_positive(monkeypatch):
    """The DNF settles L[0] b and !L[0] b before it makes an atom, at the
    top and inside the columns the walk expands, so `world_sat`'s one-cell
    check meets no zero bound."""
    rng = random.Random(3232)
    formulas = [random_formula(rng) for _ in range(300)]
    formulas += [
        parse(text)
        for text in (
            "L[0] p0 & !L[0] p1 & L[1/2] (L[0] p2 & p3)",
            "L[1/3] !L[0] X p1 | X L[0] p0 & L[1/4] (p0 | L[0] !p2)",
            "!L[1/2] X (L[0] p0 & !L[0] L[1/2] p1) & L[0] L[0] p2",
        )
    ]
    formulas += [Not(f) for f in formulas]
    assert sum("L[0]" in render(f) for f in formulas) > 100
    calls = _distinct_calls(monkeypatch, "world_sat", lambda: list(map(sat_status, formulas)))
    atoms = [atom for (bounds,) in calls for _, atom in bounds]
    assert len(atoms) > 200
    assert all(atom.bound > 0 for atom in atoms)
    assert any("L[0]" in render(atom) for atom in atoms)


def test_world_sat_is_the_simplex_oracle_but_for_one_cell_points(monkeypatch):
    """On the tableau edge cases, lp chains, random formulas, nested
    bounds, 100 lp-bounds pool entries and every step the Lindenbaum seeds
    ask to budget 300, `world_sat` gives the verdict of the former
    simplex-only step.  Where some cell's 0/1 masses satisfy every row, by
    exact substitution, it answers with the lowest such cell at mass 1;
    every other answer is the oracle's."""
    rng = random.Random(3131)
    formulas = [parse(text) for text in CELL_TABLEAU_EDGES + _lp_bounds_pool()[:100]]
    formulas += [parse(lp_chain(k)) for k in range(2, 7)]
    formulas += [random_formula(rng) for _ in range(300)]
    formulas += [random_nested_bounds(rng) for _ in range(300)]
    expected = json.loads((BENCH / "expected" / "lindenbaum.json").read_text())
    seeds = [parse(entry["seed"]) for entry in expected["seeds"]]

    def run():
        list(map(witness, formulas))
        for seed in seeds:
            lindenbaum(seed, 300)

    answers = dict.fromkeys(["one cell", "simplex", "unsat"], 0)
    for (bounds,) in _distinct_calls(monkeypatch, "world_sat", run):
        table = decide._cells(frozenset(bound_column(atom)[0] for _, atom in bounds))
        answer, oracle = world_sat(bounds), world_sat_by_simplex(bounds)
        assert (answer is None) == (oracle is None), bounds
        one_cell = one_cell_points(cell_system(table, bounds))
        if one_cell:
            assert answer == ((table.disjuncts[one_cell[0]], 1),), bounds
            answers["one cell"] += 1
        else:
            assert answer == oracle, bounds
            answers["simplex" if answer else "unsat"] += 1
    assert min(answers.values()) > 50, answers


def test_one_cell_steps_make_no_witness_larger(monkeypatch):
    """On the first 6000 SAT `sat` entries of the decide-mix pool and 1500
    nested bounds, every witness is a model of its formula with at most as
    many worlds as the simplex-only step gives, and the total falls."""
    texts = [text for (kind, text), verdict in _mix_pool(9762) if (kind, verdict) == ("sat", "S")]
    assert len(texts) == 6000
    rng = random.Random(5)
    formulas = [parse(text) for text in texts] + [random_nested_bounds(rng) for _ in range(1500)]
    decide.clear_caches()
    found = list(map(witness, formulas))
    monkeypatch.setattr(decide, "world_sat", lru_cache(maxsize=None)(world_sat_by_simplex))
    decide.clear_caches()
    former = list(map(witness, formulas))
    monkeypatch.undo()
    decide.clear_caches()
    sizes = []
    for f, now, then in zip(formulas, found, former):
        assert (now is None) == (then is None), f
        if now is not None:
            (model, root), (former_model, _) = now, then
            assert model.validate() == [] and model.check(root, f), f
            sizes.append((len(model.worlds), len(former_model.worlds)))
    assert len(sizes) > 6500
    assert all(size <= former_size for size, former_size in sizes)
    now, then = zip(*sizes)
    assert sum(now) < sum(then) and max(now) < max(then)


def _lp_bounds_pool() -> list[str]:
    """The 1000 distinct texts of the lp-bounds workload's pool."""
    lp_bounds_text = bench_inputs().lp_bounds_text
    texts: dict = {}
    j = 0
    while len(texts) < 1000:
        texts.setdefault(lp_bounds_text(random.Random(f"lp-bounds/{j}")))
        j += 1
    return list(texts)


def test_cell_points_are_the_fraction_valued_points(monkeypatch):
    """On every cell LP `world_sat` states for the tableau edge cases, the
    lp-bounds pool and the first 2000 decide-mix entries, the integer-valued
    pivot loop returns, in cell order, the nonzero masses of the point the
    `Fraction`-valued loop finds for the former rows, one per mass."""
    formulas = [parse(text) for text in CELL_TABLEAU_EDGES + _lp_bounds_pool()]
    entries = [(kind, parse(text)) for (kind, text), _ in _mix_pool(2000)]

    def run():
        list(map(witness, formulas))
        for kind, f in entries:
            probnext.derives([], f) if kind == "derives" else witness(f)

    calls = _distinct_calls(monkeypatch, "world_sat", run)
    solved = 0
    for (bounds,) in calls:
        table = decide._cells(frozenset(bound_column(atom)[0] for _, atom in bounds))
        point = linarith.solve_rows(decide._cell_rows(table, bounds), range(len(table.disjuncts)))
        oracle = fraction_valued_solve(fraction_valued_build(cell_rows_with_masses(table, bounds)))
        assert nonzero_coordinates(point) == nonzero_coordinates(oracle), bounds
        if point is not None:
            assert list(point) == sorted(point)
            assert all(type(mass) is Fraction and mass > 0 for mass in point.values())
            solved += 1
    assert len(calls) > 2000 and solved > 1500, (len(calls), solved)


def test_a_cell_lp_makes_fractions_only_for_its_nonzero_masses(monkeypatch):
    """Solving a cell LP builds, pivots and fixes delta on integers:
    `linarith` makes one `Fraction` per inhabited cell, and no other.  A
    step that one cell satisfies alone, as every lp-bounds step is, calls
    no `linarith` at all.  The tableau edge cases and nested bounds add LPs
    that inhabit several cells."""
    rng = random.Random(2626)
    formulas = [parse(text) for text in _lp_bounds_pool()[:100] + CELL_TABLEAU_EDGES]
    formulas += [random_nested_bounds(rng) for _ in range(300)]
    calls = _distinct_calls(monkeypatch, "world_sat", lambda: list(map(witness, formulas)))
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    solved = []

    def solve_rows(*args):
        solved.append(args)
        return linarith.solve_rows(*args)

    monkeypatch.setattr(linarith, "Fraction", counted)
    monkeypatch.setattr(decide, "solve_rows", solve_rows)
    inhabited = []
    for (bounds,) in calls:
        table = decide._cells(frozenset(bound_column(atom)[0] for _, atom in bounds))
        one_cell = one_cell_points(cell_system(table, bounds))
        made.clear()
        solved.clear()
        cells = world_sat.__wrapped__(bounds) or ()
        if one_cell:
            assert (solved, made) == ([], []), bounds
        else:
            assert len(solved) == 1 and len(made) == len(cells), bounds
            inhabited.append(len(cells))
    assert len(calls) > 100 and max(inhabited) > 1, inhabited
