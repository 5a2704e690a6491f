import random
from fractions import Fraction

import pytest

from helpers import (
    HAND_WRITTEN_SCHEMES,
    SCHEME_NAMES,
    random_formula,
    random_scheme_instance,
    rewrite_bounds,
)
from probnext import (
    axiom_instance,
    check_derivation,
    computable_sets,
    derives,
    matches_scheme,
    parse,
    parse_derivation,
    render,
)
from probnext.proof import SCHEME_NAMES as SCHEME_NAMES_ALL


def test_tautology_recognition():
    assert axiom_instance(parse("p0 -> p0")) == "Taut"
    assert axiom_instance(parse("L[1/2] p0 | !L[1/2] p0")) == "Taut"
    assert axiom_instance(parse("p0 -> p1")) is None


def test_each_scheme_is_recognized():
    rng = random.Random(1)
    for name in SCHEME_NAMES:
        for _ in range(5):
            inst = random_scheme_instance(rng, name)
            assert matches_scheme(inst, name), name


def test_scheme_side_conditions():
    # FA2 needs r + s > 1
    assert matches_scheme(parse("L[2/3] !p0 -> !L[1/2] p0"), "FA2")
    assert not matches_scheme(parse("L[1/3] !p0 -> !L[1/2] p0"), "FA2")
    # FA3 needs the conclusion bound to equal r + s, with r + s <= 1
    good = "L[1/3] (p0 & p1) & L[1/3] (p0 & !p1) -> L[2/3] p0"
    assert matches_scheme(parse(good), "FA3")
    bad = "L[1/3] (p0 & p1) & L[1/3] (p0 & !p1) -> L[1/2] p0"
    assert not matches_scheme(parse(bad), "FA3")
    # Mono needs the two bounds to agree and the top bound to be 1
    assert matches_scheme(
        parse("L[1] (p0 -> p1) -> (L[1/2] p0 -> L[1/2] p1)"), "Mono"
    )
    assert not matches_scheme(
        parse("L[1] (p0 -> p1) -> (L[1/2] p0 -> L[1/3] p1)"), "Mono"
    )


def test_unknown_scheme_name_rejected():
    with pytest.raises(ValueError):
        matches_scheme(parse("p0"), "NoSuchScheme")


GOOD_DERIVATION = """
# derives L[1/2] p0 -> L[1/2] p0 from the monotonicity axiom
p0 -> p0                                        ; axiom:Taut
L[1] (p0 -> p0)                                 ; nec_l1:0
L[1] (p0 -> p0) -> (L[1/2] p0 -> L[1/2] p0)     ; axiom:Mono
L[1/2] p0 -> L[1/2] p0                          ; mp:2,1
"""


def test_accepts_a_correct_derivation():
    d = parse_derivation(GOOD_DERIVATION)
    result = check_derivation(d)
    assert result.accepted
    assert result.step is None


def test_rejects_wrong_axiom_tag():
    d = parse_derivation("p0 -> p1 ; axiom:Taut")
    result = check_derivation(d)
    assert not result.accepted
    assert result.step == 0


def test_rejects_bad_modus_ponens():
    text = """
p0 -> p0       ; axiom:Taut
p1 | !p1       ; axiom:Taut
p0             ; mp:0,1
"""
    result = check_derivation(parse_derivation(text))
    assert not result.accepted
    assert result.step == 2
    assert "premises" in result.reason


def test_rejects_forward_reference():
    text = """
p0 ; mp:1,2
p0 -> p0 ; axiom:Taut
p0 | !p0 ; axiom:Taut
"""
    result = check_derivation(parse_derivation(text))
    assert not result.accepted
    assert "later step" in result.reason


def test_necessitation_forbidden_under_hypotheses():
    text = """
p0          ; hyp
L[1] p0     ; nec_l1:0
"""
    result = check_derivation(parse_derivation(text, hypotheses=[parse("p0")]))
    assert not result.accepted
    assert "forbidden" in result.reason


def test_hypothesis_steps():
    text = """
p0        ; hyp
p0 -> p1  ; hyp
p1        ; mp:1,0
"""
    hyps = [parse("p0"), parse("p0 -> p1")]
    assert check_derivation(parse_derivation(text, hypotheses=hyps)).accepted
    # the same lines fail when p0 is not actually a hypothesis
    result = check_derivation(parse_derivation(text, hypotheses=[parse("p0 -> p1")]))
    assert not result.accepted
    assert result.step == 0


def test_next_necessitation():
    text = """
p0 | !p0     ; axiom:Taut
X (p0 | !p0) ; nec_next:0
"""
    assert check_derivation(parse_derivation(text)).accepted


def test_derivability_oracle():
    assert derives([], parse("p0 | !p0"))
    assert derives([parse("p0")], parse("p0"))
    assert derives([parse("L[2/3] p0")], parse("L[1/2] p0"))
    assert not derives([parse("L[1/2] p0")], parse("L[2/3] p0"))
    assert derives([parse("p0"), parse("p0 -> p1")], parse("p1"))
    # anything follows from an inconsistent hypothesis set
    assert derives([parse("p0"), parse("!p0")], parse("p1"))


def test_axiom_instances_are_derivable():
    rng = random.Random(2)
    for name in SCHEME_NAMES:
        inst = random_scheme_instance(rng, name)
        assert derives([], inst), name


def test_computable_index_sets():
    # formula 0 is p0: not a theorem, consistent
    is_thm, is_cons, _ = computable_sets(0, 0)
    assert not is_thm
    assert is_cons
    # every formula derives itself
    assert computable_sets(5, 5)[2]


def test_template_table_agrees_with_the_hand_written_recognizers():
    rng = random.Random(6)
    positives = 0
    for k in range(20_000):
        if k % 2:
            f = random_scheme_instance(rng, SCHEME_NAMES[k // 2 % len(SCHEME_NAMES)])
            if k % 4 == 3:
                f = rewrite_bounds(rng, f)
        else:
            f = random_formula(rng, max_size=12)
        expected = [name for name, old in HAND_WRITTEN_SCHEMES.items() if old(f)]
        got = [name for name in SCHEME_NAMES_ALL if matches_scheme(f, name)]
        assert got == expected, render(f)
        assert axiom_instance(f) == (expected[0] if expected else None), render(f)
        positives += len(got)
    assert positives >= 5_000
