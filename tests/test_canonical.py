import os
import subprocess
import sys
from fractions import Fraction

import pytest

import probnext
from helpers import cap_address_space
from probnext import (
    ExtensionLimitExceeded,
    InconsistentSeed,
    Not,
    NotFoundWithinBound,
    basis_intersection,
    conj,
    derives,
    enum_formula,
    kernel_bounds,
    lindenbaum,
    metric_dc,
    parse,
    prefix_from_dict,
    prefix_to_dict,
    sat_function,
    sat_status,
)
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


def test_member_raises_beyond_the_extension_cap():
    w = lindenbaum(parse("p0"), 5, max_extension=50)
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


def test_member_fast_path_answers_heavy_queries_pinned_by_the_seed():
    w = lindenbaum(parse("L[3/4] p0"), 5, max_extension=50)
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
