import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    MALFORMED_MEASURES,
    MALFORMED_MODELS,
    ONE_WORLD,
    TWO_POINTS,
    cap_address_space,
    random_formula,
)
import probnext
from probnext import decide, formula_index, parse, proof, render
from probnext.cli import main
from probnext.enumeration import _WEIGHT_LIMIT, class_count
from probnext.models import fraction_from_str


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
    assert "Traceback (most recent call last)" in err


def test_cli_import_loads_no_traceback_module():
    """`traceback` pulls in `linecache`, `tokenize`, `token` and `textwrap`;
    the CLI imports it only for an internal error."""
    package_parent = os.path.dirname(os.path.dirname(probnext.__file__))
    env = dict(os.environ, PYTHONPATH=package_parent)
    code = (
        "import sys; before = set(sys.modules); import probnext.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=10, env=env
    )
    added = set(done.stdout.split())
    assert "probnext.cli" in added, done.stderr
    assert not added & {"traceback", "linecache", "tokenize", "token", "textwrap"}, added


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


def test_module_entry_point_runs():
    package_parent = os.path.dirname(os.path.dirname(probnext.__file__))
    env = dict(os.environ, PYTHONPATH=package_parent)
    done = subprocess.run(
        [sys.executable, "-m", "probnext", "sat", "L[1/2] p0 & X p1"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (done.returncode, done.stdout.strip()) == (0, "SAT")


def test_long_conjunction_chain_answers(capsys):
    assert main(["sat", " & ".join(f"p{i % 3}" for i in range(600))]) == 0
    assert capsys.readouterr().out.strip() == "SAT"


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


_DEEP = {
    "negations": "!" * 1200 + "p0",
    "nexts": "X " * 1500 + "p0",
    "bounds": "L[1/2] " * 1500 + "p0",
    "conjunction-chain": " & ".join(["p0"] * 3000),
}


@pytest.mark.parametrize(
    "command, text",
    [pytest.param("sat", text, id=name) for name, text in _DEEP.items()]
    + [pytest.param("check", text, id=f"check-{name}") for name, text in _DEEP.items()],
)
def test_too_deeply_nested_input_is_a_limit(command, text, tmp_path, capsys):
    # Exit 1 from `check` would read as "does not hold", a wrong verdict.
    args = [command, "--", text]
    if command == "check":
        model_file = tmp_path / "m.json"
        model_file.write_text(json.dumps(ONE_WORLD))
        args = [command, str(model_file), "--", text]
    assert main(args) == 3
    assert "recursion" in capsys.readouterr().err


def test_deeply_parenthesized_input_decides(capsys):
    # The parser keeps its own stack, and parentheses leave no node behind.
    assert main(["sat", "--", "(" * 1500 + "p0" + ")" * 1500]) == 0
    assert capsys.readouterr().out.strip() == "SAT"


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


# Fractions are spelled num/den in ASCII digits; int() alone would read
# these as 1/2, 10/3 and 1.
@pytest.mark.parametrize("mass", ["\u0661/\u0662", " 1_0 / 3", "+1"])
def test_fraction_not_spelled_in_ascii_digits_is_an_input_error(mass, tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(
        json.dumps({"worlds": ["w0"], "kernel": {"w0": {"w0": mass}},
                    "successor": {"w0": "w0"}})
    )
    assert main(["check", str(bad), "p0"]) == 2
    assert "ASCII digits" in capsys.readouterr().err


@pytest.mark.parametrize("mass", ["1/0", " 1/2", "\u00bd", 1, None, [1]], ids=repr)
def test_a_malformed_mass_in_a_model_file_exits_2_with_its_message(mass, tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(
        json.dumps({"worlds": ["w0", "w1"],
                    "kernel": {"w0": {"w1": "1"}, "w1": {"w0": "1/2", "w1": mass}},
                    "successor": {"w0": "w1", "w1": "w1"}})
    )
    with pytest.raises(ValueError) as caught:
        fraction_from_str(mass)
    assert main(["check", str(bad), "p0"]) == 2
    assert capsys.readouterr().err == f"error: cannot load model: {caught.value}\n"


def test_rows_and_successors_of_unlisted_worlds_are_an_input_error(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text(
        json.dumps({"worlds": ["w0"], "kernel": {"w0": {"w0": "1"}, "w9": {"w0": "7"}},
                    "successor": {"w0": "w0", "w9": "nowhere"}})
    )
    assert main(["check", str(bad), "p0"]) == 2
    err = capsys.readouterr().err
    assert "kernel row for unknown world w9" in err
    assert "successor given for unknown world w9" in err


@pytest.mark.parametrize("data", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS)
def test_malformed_model_file_is_an_input_error(data, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "p1"]) == 2
    assert "cannot load model" in capsys.readouterr().err


@pytest.mark.parametrize("data", MALFORMED_MEASURES.values(), ids=MALFORMED_MEASURES)
def test_malformed_measure_file_is_an_input_error(data, tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(TWO_POINTS))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["dist", "prokhorov", str(bad), str(good)]) == 2
    assert "cannot load measure" in capsys.readouterr().err


_NAMES = st.sampled_from(["w0", "w1", "a", "b", ""])
_WORDS = st.sampled_from(
    ["worlds", "valuation", "kernel", "successor", "points", "weights", "distance",
     "p0", "p1", "pp1", "a|b", "b|a", "ab", "1", "1/2", "-1/2", "0", "1/0"]
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _WORDS | _NAMES
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_WORDS | _NAMES | st.text(max_size=3), inner, max_size=4),
    max_leaves=16,
)
_MASS = st.sampled_from(["1", "1/2", "0", "-1/2", "1/0", "x"]) | _JSON
_MODELS = st.fixed_dictionaries(
    {},
    optional={
        "worlds": st.lists(_NAMES, max_size=3) | _JSON,
        "valuation": st.dictionaries(
            st.sampled_from(["p0", "p1", "p01", "pp1", "0"]), st.lists(_NAMES) | _JSON
        ) | _JSON,
        "kernel": st.dictionaries(_NAMES, st.dictionaries(_NAMES, _MASS) | _JSON)
        | _JSON,
        "successor": st.dictionaries(_NAMES, _NAMES | _JSON) | _JSON,
    },
)
_MEASURES = st.fixed_dictionaries(
    {},
    optional={
        "points": st.lists(_NAMES, max_size=3) | _JSON,
        "weights": st.dictionaries(_NAMES, _MASS) | _JSON,
        "distance": st.dictionaries(
            st.sampled_from(["a|b", "b|a", "a|a", "a|w0", "ab", "a|b|c", "|"]), _MASS
        ) | _JSON,
    },
)


@settings(max_examples=300, deadline=None, database=None)
@given(_MODELS | _JSON)
@example(data=ONE_WORLD)
def test_any_json_model_file_gets_an_exit_code_of_the_contract(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("model") / "m.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "L[1/2] X p0 & !p1"]) in (0, 1, 2)


@settings(max_examples=300, deadline=None, database=None)
@given(_MEASURES | _JSON, _MEASURES | _JSON)
@example(first=TWO_POINTS, second=TWO_POINTS)
def test_any_json_measure_file_gets_an_exit_code_of_the_contract(
    tmp_path_factory, first, second
):
    folder = tmp_path_factory.mktemp("measures")
    paths = [folder / "mu.json", folder / "nu.json"]
    for path, data in zip(paths, (first, second)):
        path.write_text(json.dumps(data))
    assert main(["dist", "prokhorov", *map(str, paths)]) in (0, 1, 2)


def test_prove_semantic(capsys):
    assert main(["prove", "L[1/2] p0", "--hyp", "L[2/3] p0"]) == 0
    assert main(["prove", "L[2/3] p0", "--hyp", "L[1/2] p0"]) == 1
    assert main(["prove"]) == 2


def test_prove_with_a_formula_and_check_is_an_input_error(capsys):
    # the formula would be ignored, and any file, even an empty one, accepted
    assert main(["prove", "p0", "--check", os.devnull]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("text", ["p\u0663", "L[\uff11/2] p0"])
def test_digits_outside_ascii_are_an_input_error(text, capsys):
    assert main(["sat", text]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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


@pytest.mark.parametrize(
    "text",
    [
        "p0 -> p0 ; mp:-1,-1\n",
        "p0 | !p0 ; axiom:Taut\nL[1] (p0 | !p0) ; nec_l1:-1\n",
    ],
)
def test_negative_step_reference_is_malformed_input(text, tmp_path, capsys):
    path = tmp_path / "derivation.txt"
    path.write_text(text)
    assert main(["prove", "--check", str(path)]) == 2
    assert "not a natural number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["witness", "p0", "--out", "/nonexistent/d/m.json"],
        ["lindenbaum", "p0", "--budget", "3", "--out", "/nonexistent/d/p.json"],
        ["prove", "--check", "NOT_UTF8"],
    ],
)
def test_file_errors_are_input_errors(argv, tmp_path, capsys):
    not_utf8 = tmp_path / "derivation.txt"
    not_utf8.write_bytes(b"\xff\xfe")
    argv = [str(not_utf8) if arg == "NOT_UTF8" else arg for arg in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_thirty_atom_tautology_answers_or_hits_the_limit(tmp_path):
    # a truth table over 30 atoms would hang, where two case splits decide
    # it; the timeout only turns a hang into a failure
    line = "(" + " & ".join(f"p{i}" for i in range(30)) + ") -> p0 ; axiom:Taut\n"
    path = tmp_path / "taut.txt"
    path.write_text(line)
    package_parent = os.path.dirname(os.path.dirname(probnext.__file__))
    env = dict(os.environ, PYTHONPATH=package_parent)
    done = subprocess.run(
        [sys.executable, "-m", "probnext.cli", "prove", "--check", str(path)],
        capture_output=True, text=True, timeout=10, env=env,
    )
    assert (done.returncode, done.stdout.strip()) == (0, "derivation accepted")


def test_tautology_check_past_its_cap_exits_3(tmp_path, monkeypatch, capsys):
    path = tmp_path / "taut.txt"
    path.write_text("(p0 <-> p1) | !(p1 <-> p0) ; axiom:Taut\n")
    monkeypatch.setattr(proof, "_TAUT_SPLITS", 2)
    assert main(["prove", "--check", str(path)]) == 3
    assert "case splits" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["lindenbaum", "p0 & !p0"],
        ["dist", "dc", "p0 & !p0", "p1"],
        ["dist", "dc", "p1", "p0 & !p0"],
    ],
)
def test_inconsistent_seed_is_an_input_error(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed is inconsistent\n"


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


def test_dist_prokhorov_scans_a_shared_distance_table_once(tmp_path, monkeypatch, capsys):
    """Two measures that carry one distance table have it scanned for
    triangles once; two different tables are each scanned, and a failing
    table is reported under the file that carries it."""
    module = sys.modules["probnext.prokhorov"]
    real = module._triangle_failures
    scanned = []

    def counted(table):
        scanned.append(table)
        return real(table)

    monkeypatch.setattr(module, "_triangle_failures", counted)
    full = {"a|b": "1/4", "a|c": "1/2", "b|c": "1/2"}
    broken = {"a|b": "1", "a|c": "1/4", "b|c": "1/4"}

    def measure(name, weight_on, distance):
        path = tmp_path / f"{name}.json"
        data = {"points": ["a", "b", "c"], "weights": {weight_on: "1"}, "distance": distance}
        path.write_text(json.dumps(data))
        return str(path)

    cases = [
        # (mu's table, nu's table, exit status, scans, the file an error names)
        (full, full, 0, 1, None),
        (full, {"a|b": "1/4"}, 0, 2, None),
        (broken, broken, 2, 1, "mu"),
        (full, broken, 2, 2, "nu"),
    ]
    for mu_table, nu_table, status, scans, named in cases:
        scanned.clear()
        mu, nu = measure("mu", "a", mu_table), measure("nu", "b", nu_table)
        assert main(["dist", "prokhorov", mu, nu]) == status
        assert len(scanned) == scans
        out, err = capsys.readouterr()
        if named is None:
            assert out.strip() == "1/4" and err == ""
        else:
            path = mu if named == "mu" else nu
            assert err == f"error: {path}: triangle inequality fails on a,b,c\n"


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


def test_dist_prokhorov_tables_that_disagree_name_the_pair_as_a_bar_b(tmp_path, capsys):
    # each file validates alone; only the merged table sees the conflict
    paths = []
    for name, weight_on, d in (("mu", "a", "1/2"), ("nu", "b", "1/3")):
        path = tmp_path / f"{name}.json"
        data = {"points": ["a", "b"], "weights": {weight_on: "1"}, "distance": {"a|b": d}}
        path.write_text(json.dumps(data))
        paths.append(str(path))
    for pair in (paths, paths[::-1]):
        assert main(["dist", "prokhorov", *pair]) == 2
        assert capsys.readouterr() == ("", "error: conflicting distances for a|b\n")


def test_dist_prokhorov_weight_on_unlisted_point_is_an_input_error(tmp_path, capsys):
    # z is not among the points: support() would drop its mass and the two
    # argument orders would disagree
    odd = tmp_path / "odd.json"
    odd.write_text(
        json.dumps(
            {
                "points": ["a", "b"],
                "weights": {"a": "1/2", "z": "1/2"},
                "distance": {"a|b": "1"},
            }
        )
    )
    dirac = tmp_path / "dirac.json"
    dirac.write_text(
        json.dumps(
            {"points": ["a", "b"], "weights": {"a": "1"}, "distance": {"a|b": "1"}}
        )
    )
    for pair in ((odd, dirac), (dirac, odd)):
        assert main(["dist", "prokhorov", *map(str, pair)]) == 2
        assert "unlisted point z" in capsys.readouterr().err


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
