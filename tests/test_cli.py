import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import cap_address_space, random_formula
import probnext
from probnext import decide, formula_index, parse, render
from probnext.cli import main
from probnext.enumeration import _WEIGHT_LIMIT, class_count


def test_sat_exit_codes(capsys):
    assert main(["sat", "L[1/2] p0"]) == 0
    assert capsys.readouterr().out.strip() == "SAT"
    assert main(["sat", "p0 & !p0"]) == 1
    assert capsys.readouterr().out.strip() == "UNSAT"


def test_valid_exit_codes(capsys):
    assert main(["valid", "p0 | !p0"]) == 0
    assert main(["valid", "p0"]) == 1


def test_malformed_formula_is_an_input_error(capsys):
    assert main(["sat", "p0 &"]) == 2
    assert "error" in capsys.readouterr().err
    assert main(["sat", "L[3/2] p0"]) == 2
    assert main(["sat", "L[1/0] p0"]) == 2
    assert "nonzero denominator" in capsys.readouterr().err


def test_internal_error_is_not_a_verdict(monkeypatch, capsys):
    def broken(f):
        raise RuntimeError("broken decision procedure")

    monkeypatch.setattr(decide, "sat", broken)
    assert main(["sat", "p0"]) == 4
    err = capsys.readouterr().err
    assert "internal error" in err and "broken decision procedure" in err


def test_heavy_nested_bound_answers():
    # rational_index(1/30) = 2^28 + 1 must rank without walking to it; the
    # timeout only turns a hang into a failure
    package_parent = os.path.dirname(os.path.dirname(probnext.__file__))
    env = dict(os.environ, PYTHONPATH=package_parent)
    done = subprocess.run(
        [sys.executable, "-m", "probnext.cli", "sat", "L[1/2] L[1/30] p0"],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert (done.returncode, done.stdout.strip()) == (0, "SAT")


def test_huge_nested_denominator_answers():
    # Ordering bodies by their enumeration index would spell 1/10^11 as a
    # 10^11-bit integer; the cap turns that into a failure, not a swap storm.
    package_parent = os.path.dirname(os.path.dirname(probnext.__file__))
    env = dict(os.environ, PYTHONPATH=package_parent)
    done = subprocess.run(
        [sys.executable, "-m", "probnext.cli", "sat", "L[1/2] L[1/100000000000] p0"],
        capture_output=True, text=True, timeout=10, env=env,
        preexec_fn=cap_address_space,
    )
    assert (done.returncode, done.stdout.strip()) == (0, "SAT")


@pytest.mark.parametrize(
    "text",
    [
        "!" * 1200 + "p0",
        "X " * 1500 + "p0",
        "(" * 1500 + "p0" + ")" * 1500,
        " & ".join(["p0"] * 3000),
    ],
    ids=["negations", "nexts", "parentheses", "conjunction-chain"],
)
def test_too_deeply_nested_input_is_a_limit(text, capsys):
    assert main(["sat", "--", text]) == 3
    assert "recursion" in capsys.readouterr().err


_TOKENS = ["p0", "p1", "!", "&", "|", "->", "<->", "X", "L[1/2]", "M[2/3]", "(", ")", "T", "F"]


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.one_of(
        st.lists(st.sampled_from(_TOKENS), max_size=12).map(" ".join),
        st.text(max_size=20),
    )
)
def test_any_text_gets_an_exit_code_of_the_contract(text):
    assert main(["sat", "--", text]) in (0, 1, 2, 3)


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(0, 2**32))
def test_rendered_formulas_get_a_verdict(seed):
    text = render(random_formula(random.Random(seed)))
    assert main(["sat", "--", text]) in (0, 1)


def test_json_output(capsys):
    assert main(["--json", "sat", "p0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"status": "SAT"}
    assert main(["--json", "valid", "p0 -> p0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"valid": True}


def test_witness_and_check_roundtrip(tmp_path, capsys):
    model_file = tmp_path / "m.json"
    assert main(["witness", "X L[1] p0 & X !p0", "--out", str(model_file)]) == 0
    out = capsys.readouterr().out
    assert "SAT at" in out
    assert main(["check", str(model_file), "X L[1] p0", "--world", "w0"]) == 0
    assert main(["check", str(model_file), "F", "--world", "w0"]) == 1
    assert main(["check", str(model_file), "p0", "--world", "nope"]) == 2


def test_witness_unsat(capsys):
    assert main(["witness", "p0 & !p0"]) == 1
    assert capsys.readouterr().out.strip() == "UNSAT"


def test_witness_prints_model_without_out_file(capsys):
    assert main(["witness", "L[1/2] p0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "root" in payload and "kernel" in payload


def test_check_rejects_broken_model(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"worlds": ["w0"], "kernel": {"w0": {"w0": "1/2"}}}))
    assert main(["check", str(bad), "p0"]) == 2
    assert "error" in capsys.readouterr().err


def test_zero_denominator_in_a_model_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(
        json.dumps({"worlds": ["w0"], "kernel": {"w0": {"w0": "1/0"}},
                    "successor": {"w0": "w0"}})
    )
    assert main(["check", str(bad), "p0"]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_non_string_fraction_in_a_model_file_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(
        json.dumps({"worlds": ["w0"], "kernel": {"w0": {"w0": 1}},
                    "successor": {"w0": "w0"}})
    )
    assert main(["check", str(bad), "p0"]) == 2
    assert "must be a string" in capsys.readouterr().err


def test_prove_semantic(capsys):
    assert main(["prove", "L[1/2] p0", "--hyp", "L[2/3] p0"]) == 0
    assert main(["prove", "L[2/3] p0", "--hyp", "L[1/2] p0"]) == 1
    assert main(["prove"]) == 2


def test_prove_checks_derivation_files(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text(
        "p0 -> p0 ; axiom:Taut\n"
        "L[1] (p0 -> p0) ; nec_l1:0\n"
    )
    assert main(["prove", "--check", str(good)]) == 0
    assert "accepted" in capsys.readouterr().out
    bad = tmp_path / "bad.txt"
    bad.write_text("p0 -> p1 ; axiom:Taut\n")
    assert main(["prove", "--check", str(bad)]) == 1
    assert "rejected at step 0" in capsys.readouterr().out


def test_lindenbaum_command(tmp_path, capsys):
    out = tmp_path / "prefix.json"
    assert main(["lindenbaum", "L[1/2] p0", "--budget", "10", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["budget"] == 10
    assert len(data["decided"]) == 10
    assert main(["lindenbaum", "p0 & !p0", "--budget", "5"]) == 2


def test_dist_dc_command(capsys):
    assert main(["dist", "dc", "p0", "!p0", "--budget", "8"]) == 0
    assert capsys.readouterr().out.strip() == "exact: 1/1"
    assert main(["--json", "dist", "dc", "p0", "p0", "--budget", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"exact": False, "value": "1/256"}


def test_dist_prokhorov_command(tmp_path, capsys):
    m1 = tmp_path / "m1.json"
    m2 = tmp_path / "m2.json"
    m1.write_text(
        json.dumps(
            {
                "points": ["a", "b"],
                "weights": {"a": "1"},
                "distance": {"a|b": "1/4"},
            }
        )
    )
    m2.write_text(
        json.dumps(
            {
                "points": ["a", "b"],
                "weights": {"b": "1"},
                "distance": {"a|b": "1/4"},
            }
        )
    )
    assert main(["dist", "prokhorov", str(m1), str(m2)]) == 0
    assert capsys.readouterr().out.strip() == "1/4"


def test_dist_prokhorov_zero_denominator_is_an_input_error(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"points": ["a"], "weights": {"a": "1"}}))
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {"points": ["a", "b"], "weights": {"a": "1"}, "distance": {"a|b": "1/0"}}
        )
    )
    assert main(["dist", "prokhorov", str(good), str(bad)]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_dist_prokhorov_non_string_weight_is_an_input_error(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"points": ["a"], "weights": {"a": "1"}}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": ["a"], "weights": {"a": 1}}))
    assert main(["dist", "prokhorov", str(good), str(bad)]) == 2
    assert "must be a string" in capsys.readouterr().err


def test_dist_prokhorov_pair_listed_both_ways_is_an_input_error(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"points": ["a"], "weights": {"a": "1"}}))
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "points": ["a", "b"],
                "weights": {"a": "1"},
                "distance": {"a|b": "1", "b|a": "2"},
            }
        )
    )
    assert main(["dist", "prokhorov", str(good), str(bad)]) == 2
    assert "conflicting distances" in capsys.readouterr().err


def test_enum_command(capsys):
    assert main(["enum", "0"]) == 0
    assert capsys.readouterr().out.strip() == "p0"


# the last index served: the heaviest formula of the weight limit
_LAST_SERVED = sum(class_count(n) for n in range(1, _WEIGHT_LIMIT + 1)) - 1


def test_enum_past_the_weight_limit_is_a_limit(capsys):
    # index 10^8 lies in weight class 14, past the former 10^6-formula class cap
    assert main(["enum", "100000000"]) == 0
    assert formula_index(parse(capsys.readouterr().out)) == 100_000_000
    assert main(["enum", str(_LAST_SERVED + 1)]) == 3
    assert "above the limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "-1"],
        ["dist", "dc", "p0", "!p0", "--budget", "-1"],
        ["lindenbaum", "p0", "--budget", "-3"],
    ],
    ids=["enum-index", "dist-dc-budget", "lindenbaum-budget"],
)
def test_negative_numbers_are_malformed_input(argv, capsys):
    assert main(argv) == 2
    assert "not a natural number" in capsys.readouterr().err


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(-(10**6), 10**200))
@example(0)
@example(-1)
@example(_LAST_SERVED)
@example(_LAST_SERVED + 1)
def test_enum_gets_an_exit_code_of_the_contract(i):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["enum", str(i)])
    assert code == (2 if i < 0 else 0 if i <= _LAST_SERVED else 3)
    if code == 0:
        assert formula_index(parse(out.getvalue())) == i
