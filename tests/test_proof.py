import random
import time
from fractions import Fraction

import pytest

from helpers import (
    HAND_WRITTEN_SCHEMES,
    SCHEME_NAMES,
    random_formula,
    random_scheme_instance,
    rewrite_bounds,
    truth_table_tautology,
)
from probnext import (
    AtLeast,
    ExtensionLimitExceeded,
    Not,
    implies,
    axiom_instance,
    check_derivation,
    computable_sets,
    derives,
    matches_scheme,
    parse,
    parse_derivation,
    proof,
    render,
)
from probnext.proof import SCHEME_NAMES as SCHEME_NAMES_ALL
from probnext.proof import CheckResult, Derivation, Justification


def test_tautology_recognition():
    assert axiom_instance(parse("p0 -> p0")) == "Taut"
    assert axiom_instance(parse("L[1/2] p0 | !L[1/2] p0")) == "Taut"
    assert axiom_instance(parse("p0 -> p1")) is None


def test_case_split_agrees_with_the_truth_table():
    rng = random.Random(7)
    tautologies = 0
    for k in range(3000):
        f = random_formula(rng, max_size=14, n_props=2 + k % 4)
        g = random_formula(rng, max_size=8, n_props=2 + k % 4)
        # !f -> !f and f -> f | g are tautologies; f -> g mostly is not
        or_g = implies(Not(f), g)
        for h in (f, implies(Not(f), Not(f)), implies(f, or_g), implies(f, g)):
            expected = truth_table_tautology(h)
            assert proof.is_tautology(h) == expected, render(h)
            tautologies += expected
    assert tautologies >= 6000


def test_tautology_check_past_its_split_cap_is_a_limit(monkeypatch):
    f = parse("(p0 <-> p1) | !(p1 <-> p0)")  # splits on p0, then on p1 twice
    assert proof.is_tautology(f)
    monkeypatch.setattr(proof, "_TAUT_SPLITS", 2)
    with pytest.raises(ExtensionLimitExceeded):
        proof.is_tautology(f)


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


# Python reads index -1 as the last earlier step, which once let a negative
# reference through as if it named a real premise.
NEGATIVE_REFERENCES = [
    "p0 -> p0 ; mp:-1,-1",
    "p0 | !p0 ; axiom:Taut\nL[1] (p0 | !p0) ; nec_l1:-1",
]


@pytest.mark.parametrize("text", NEGATIVE_REFERENCES)
def test_parser_refuses_negative_references(text):
    with pytest.raises(ValueError, match="not a natural number"):
        parse_derivation(text)


@pytest.mark.parametrize("arg", ["1", "0,1,2", "0,x", "+1,0", "0, "])
def test_parser_refuses_malformed_mp_references(arg):
    with pytest.raises(ValueError):
        parse_derivation(f"p0 ; mp:{arg}")


def test_checker_rejects_negative_references_built_through_the_api():
    taut = parse("p0 | !p0")
    d = Derivation(
        (
            (taut, Justification("axiom", scheme="Taut")),
            (AtLeast(Fraction(1), taut), Justification("nec_l1", refs=(-1,))),
        )
    )
    result = check_derivation(d)
    assert (result.accepted, result.step) == (False, 1)
    assert "negative" in result.reason
    mp = Derivation(((parse("p0 -> p0"), Justification("mp", refs=(-1, -1))),))
    assert check_derivation(mp) == CheckResult(False, 0, "negative step reference")


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


def test_long_derivation_checks_in_linear_time():
    # each step reads its premises where they stand, not from a copy of the
    # steps before it, which made 50 000 steps take over 20 s
    text = "p0 ; hyp\np0 -> p0 ; hyp\n" + "p0 ; mp:1,0\n" * 49_998
    hyps = [parse("p0"), parse("p0 -> p0")]
    derivation = parse_derivation(text, hypotheses=hyps)
    assert len(derivation.steps) == 50_000
    start = time.perf_counter()
    assert check_derivation(derivation).accepted
    assert time.perf_counter() - start < 5
    # a bad last premise is still reported at its own step
    bad = parse_derivation(text + "p0 ; mp:0,1\n", hypotheses=hyps)
    assert check_derivation(bad) == CheckResult(False, 50_000, "step 0 is not an implication")


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
