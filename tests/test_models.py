import json
import random
import time
from fractions import Fraction

import pytest

from helpers import (
    MALFORMED_MODELS,
    ONE_WORLD,
    former_extension,
    former_random_model,
    former_validate,
    random_formula,
)

from probnext import (
    And,
    AtLeast,
    FiniteDMM,
    Not,
    Prop,
    UnknownWorld,
    model_from_dict,
    model_to_dict,
    parse,
    random_model,
)
from probnext.models import fraction_from_str, fraction_to_str


@pytest.fixture
def two_world_model():
    return FiniteDMM(
        worlds=["u", "v"],
        valuation={0: {"u"}, 1: {"u", "v"}},
        kernel={
            "u": {"u": Fraction(1, 3), "v": Fraction(2, 3)},
            "v": {"v": Fraction(1)},
        },
        successor={"u": "v", "v": "v"},
    )


def test_propositional_semantics(two_world_model):
    m = two_world_model
    assert m.check("u", parse("p0"))
    assert not m.check("v", parse("p0"))
    assert m.check("v", parse("!p0 & p1"))
    assert m.check("u", parse("p0 | p2"))


def test_probability_semantics(two_world_model):
    m = two_world_model
    # kernel row of u gives p0 mass 1/3
    assert m.check("u", parse("L[1/3] p0"))
    assert not m.check("u", parse("L[1/2] p0"))
    assert m.check("u", parse("L[2/3] !p0"))
    assert m.check("v", parse("L[1] p1"))
    # L[0] holds of everything
    assert m.check("u", parse("L[0] F"))


def test_next_semantics(two_world_model):
    m = two_world_model
    assert m.check("u", parse("X !p0"))
    assert m.check("u", parse("X X p1"))
    assert not m.check("u", parse("X p0"))


def test_check_rejects_unknown_world(two_world_model):
    with pytest.raises(UnknownWorld):
        two_world_model.check("nope", parse("p0"))


def test_validate_accepts_well_formed(two_world_model):
    assert two_world_model.validate() == []


def test_validate_flags_problems():
    m = FiniteDMM(
        worlds=["u"],
        valuation={0: {"ghost"}},
        kernel={"u": {"u": Fraction(1, 2)}},
        successor={},
    )
    problems = m.validate()
    assert any("row mass" in p for p in problems)
    assert any("missing successor" in p for p in problems)
    assert any("unknown world" in p for p in problems)


def test_validate_flags_negative_mass():
    m = FiniteDMM(
        worlds=["u"],
        kernel={"u": {"u": Fraction(2), "x": Fraction(-1)}},
        successor={"u": "u"},
    )
    problems = m.validate()
    assert any("negative mass" in p for p in problems)


def test_validate_flags_rows_and_successors_of_unlisted_worlds():
    m = FiniteDMM(
        worlds=["u"],
        kernel={"u": {"u": Fraction(1)}, "w9": {"u": Fraction(7)}},
        successor={"u": "u", "w9": "nowhere"},
    )
    assert m.validate() == [
        "kernel row for unknown world w9",
        "successor given for unknown world w9",
    ]


@pytest.mark.parametrize("text", ["\u0661/\u0662", " 1_0 / 3", "+1", "1/", "/2", "1.5", "1/2\n"])
def test_fraction_codec_reads_ascii_num_den_only(text):
    with pytest.raises(ValueError):
        fraction_from_str(text)


def test_fraction_codec_roundtrip():
    for x in (Fraction(0), Fraction(1), Fraction(-3, 7), Fraction(22, 7)):
        assert fraction_from_str(fraction_to_str(x)) == x
    assert fraction_from_str("5") == 5


def test_random_models_always_validate():
    for seed in range(50):
        m = random_model(seed, n_worlds=1 + seed % 4, n_props=3, denom_bound=4)
        assert m.validate() == []


def test_random_model_is_deterministic_in_seed():
    a = random_model(42, 3, 2, 4)
    b = random_model(42, 3, 2, 4)
    assert model_to_dict(a) == model_to_dict(b)


def test_json_roundtrip(two_world_model):
    data = model_to_dict(two_world_model)
    json.dumps(data)  # must be JSON-serializable as-is
    back = model_from_dict(data)
    assert back.worlds == two_world_model.worlds
    assert back.kernel == two_world_model.kernel
    assert back.successor == two_world_model.successor
    assert back.valuation == two_world_model.valuation


@pytest.mark.parametrize("data", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS)
def test_malformed_model_dicts_are_refused(data):
    with pytest.raises(ValueError):
        model_from_dict(data)


def test_loaded_kernels_are_those_of_fraction_from_str():
    """`model_from_dict` parses each distinct mass spelling once per load;
    the kernels are those of parsing every entry on its own."""
    rng = random.Random(2929)
    for seed in range(40):
        model = random_model(seed, rng.randint(1, 60), 3, rng.randint(1, 9))
        data = json.loads(json.dumps(model_to_dict(model)))
        if seed % 2:  # spellings that are equal as fractions, and signs
            data["kernel"][model.worlds[0]] = {
                model.worlds[0]: "2/4", model.worlds[-1]: "-1/2", "far": "1"
            }
        former = {
            w: {u: fraction_from_str(s) for u, s in row.items()}
            for w, row in data["kernel"].items()
        }
        assert model_from_dict(data).kernel == former


# each malformed mass with the message `fraction_from_str` gives it
_MALFORMED_MASSES = [
    ("1/0", "zero denominator in '1/0'"),
    (" 1/2", "fraction ' 1/2' is not spelled num/den in ASCII digits"),
    ("½", "fraction '½' is not spelled num/den in ASCII digits"),
    (1, 'fraction must be a string such as "1/2", not 1'),
    (None, 'fraction must be a string such as "1/2", not None'),
    ([1], 'fraction must be a string such as "1/2", not [1]'),
    ({"n": 1}, "fraction must be a string such as \"1/2\", not {'n': 1}"),
]


def _model_with_mass(mass) -> dict:
    """A two-world model whose last mass is `mass`, after three parsed ones."""
    return {
        "worlds": ["w0", "w1"],
        "kernel": {"w0": {"w0": "1/2", "w1": "1/2"}, "w1": {"w0": "1/2", "w1": mass}},
        "successor": {"w0": "w1", "w1": "w1"},
    }


@pytest.mark.parametrize(
    "mass, message", _MALFORMED_MASSES, ids=[repr(m) for m, _ in _MALFORMED_MASSES]
)
def test_a_malformed_mass_among_parsed_ones_keeps_its_message(mass, message):
    """A malformed mass after parsed ones, a list or an object included,
    raises the `ValueError` that it raises read on its own."""
    with pytest.raises(ValueError) as caught:
        fraction_from_str(mass)
    assert str(caught.value) == message
    with pytest.raises(ValueError) as caught:
        model_from_dict(_model_with_mass(mass))
    assert str(caught.value) == message


def test_well_formed_one_world_model_reads_back():
    model = model_from_dict(dict(ONE_WORLD, valuation={"p0": ["w0"], "p12": []}))
    assert model.valuation == {0: {"w0"}, 12: set()}
    assert not model.validate()


def test_check_agrees_with_the_former_extension():
    """`extension` builds the set of all worlds once per call, and answers
    as the former one that built it again at every negation."""
    rng = random.Random(2828)
    for seed in range(100):
        model = random_model(seed, rng.randint(1, 6), 3, 4)
        for _ in range(20):
            f = random_formula(rng)
            former = former_extension(model, f)
            assert model.extension(f) == former
            for w in model.worlds:
                assert model.check(w, f) is (w in former)


def test_random_model_is_the_former_model():
    """Counting each row's draws in a dict makes the same rng calls in the
    same order as the former list of `n_worlds` counts, and lists each
    row's entries in the same order."""
    rng = random.Random(2830)
    for seed in range(200):
        args = (seed, rng.randint(1, 300), rng.randint(0, 4), rng.randint(1, 12))
        model, former = random_model(*args), former_random_model(*args)
        assert model_to_dict(model) == model_to_dict(former)
        assert repr(model) == repr(former)


def _mutate(model: FiniteDMM, rng: random.Random) -> None:
    """Write into `model` one defect of a kind `validate` reports, or a row
    of `int` masses."""
    w = rng.choice(model.worlds)
    row = model.kernel.get(w)
    kind = rng.randrange(10)
    if kind == 0 and row:  # a negated mass
        u = rng.choice(list(row))
        row[u] = -row[u]
    elif kind == 1 and row:  # a scaled row
        k = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        model.kernel[w] = {u: m * k for u, m in row.items()}
    elif kind == 2 and row is not None:  # an unknown target
        row[f"x{rng.randrange(3)}"] = Fraction(rng.randint(0, 2), rng.randint(1, 4))
    elif kind == 3:  # a dropped row
        model.kernel.pop(w, None)
    elif kind == 4:  # a row of an unlisted world
        model.kernel[f"z{rng.randrange(3)}"] = {w: Fraction(rng.randint(0, 3), 2)}
    elif kind == 5:  # a successor of an unlisted world
        model.successor[f"z{rng.randrange(3)}"] = rng.choice([w, "nowhere"])
    elif kind == 6:  # a dropped or unknown successor
        model.successor[w] = "nowhere"
        if rng.random() < 0.5:
            del model.successor[w]
    elif kind == 7:  # a valuation naming an unknown world
        model.valuation.setdefault(rng.randrange(3), set()).add(f"ghost{rng.randrange(2)}")
    elif kind == 8:  # a duplicate world id
        model.worlds.insert(rng.randrange(len(model.worlds) + 1), w)
    else:  # int masses, summing to 1 or not
        model.kernel[w] = {w: 1} if rng.random() < 0.5 else {w: 2, rng.choice(model.worlds): -1}


def _mutated_models(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        model = random_model(seed + i, rng.randint(1, 6), 3, 4)
        for _ in range(rng.randrange(4)):
            _mutate(model, rng)
        yield rng, model


def test_validate_gives_the_former_diagnostics():
    """`validate` sums each row's scaled integers, and its diagnostics are
    the former `Fraction` loop's, byte for byte."""
    flagged = 0
    for _, model in _mutated_models(2831, 3000):
        problems = model.validate()
        assert problems == former_validate(model), model_to_dict(model)
        flagged += bool(problems)
    assert flagged > 1500, flagged


def _outcome(extension, f):
    try:
        return extension(f)
    except KeyError:  # a Next node met a world with no successor
        return KeyError


def test_extension_agrees_with_the_former_on_defective_models():
    """Duplicate world ids, rows that target unknown worlds, missing rows,
    valuations of unknown worlds and `int` masses read as the former
    `Fraction` sums read them."""
    for rng, model in _mutated_models(2832, 1000):
        for _ in range(10):
            f = random_formula(rng)
            assert _outcome(model.extension, f) == _outcome(
                lambda f: former_extension(model, f), f
            ), (model_to_dict(model), f)


def test_extension_compares_masses_exactly():
    tiny, small = Fraction(1, 1000003), Fraction(1, 999983)
    m = FiniteDMM(
        worlds=["a", "b", "c"],
        valuation={0: {"a"}, 1: {"b"}},
        kernel={
            "a": {"a": Fraction(1, 3), "b": Fraction(2, 3)},
            "b": {"a": small, "b": tiny, "c": 1 - small - tiny},
            "c": {"c": 1, "a": 0},
        },
        successor={"a": "b", "b": "c", "c": "c"},
    )
    p0, p1 = Prop(0), Prop(1)
    either = Not(And(Not(p0), Not(p1)))
    cases = {
        AtLeast(Fraction(1, 3), p0): {"a"},  # mass exactly at the bound
        Not(AtLeast(Fraction(1, 3), p0)): {"b", "c"},
        AtLeast(small, p0): {"a", "b"},
        AtLeast(small + Fraction(1, 10**15), p0): {"a"},
        AtLeast(small + tiny, either): {"a", "b"},
        AtLeast(small + tiny + Fraction(1, 10**15), either): {"a"},
        AtLeast(Fraction(0), And(p0, Not(p0))): {"a", "b", "c"},
        AtLeast(Fraction(1), Not(p0)): {"c"},
        AtLeast(Fraction(1), either): {"a"},
        AtLeast(Fraction(1), Not(And(p0, Not(p0)))): {"a", "b", "c"},
    }
    for f, holds in cases.items():
        assert m.extension(f) == holds == former_extension(m, f), f


def test_extension_reads_the_kernel_at_each_query(two_world_model):
    # The model is a mutable record, so its scaled rows are made per
    # query and never kept on it.
    m = two_world_model
    f = parse("L[1/2] p0")
    assert m.extension(f) == frozenset()
    m.kernel["v"] = {"u": Fraction(1, 2), "v": Fraction(1, 2)}
    assert m.extension(f) == {"v"} == former_extension(m, f)


WIDE_FORMULA = "L[1/2] (p0 & X !p1) & !L[2/3] X (p1 & L[1/3] !p2) & X X L[1/4] (p0 & !p2)"


@pytest.fixture(scope="module")
def wide_models():
    """Models of 10 000 and 100 000 worlds, each with its build time in seconds."""
    built = {}
    for n in (10_000, 100_000):
        start = time.perf_counter()
        model = random_model(7, n, 3, 6)
        built[n] = model, time.perf_counter() - start
    return built


def test_random_model_is_linear_in_its_world_count(wide_models):
    # The former list of counts per world took 0.16, 0.75 and 2.5 s for
    # 2000, 4000 and 8000 worlds.
    small, large = wide_models[10_000][1], wide_models[100_000][1]
    assert large < 25 * small, (small, large)


def test_extension_is_linear_in_the_world_count(wide_models):
    # Ten times the worlds took about 11 times as long; an integer bitmask
    # over the worlds, which copies itself at each bit, took 45 times.
    f = parse(WIDE_FORMULA)
    seconds = {}
    for n, (model, _) in wide_models.items():
        start = time.perf_counter()
        model.extension(f)
        seconds[n] = time.perf_counter() - start
    assert seconds[100_000] < 25 * seconds[10_000], seconds
