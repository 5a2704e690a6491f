import json
import random
from fractions import Fraction

import pytest

from helpers import MALFORMED_MODELS, ONE_WORLD, former_extension, random_formula

from probnext import (
    FiniteDMM,
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
