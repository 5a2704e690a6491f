"""The records keep the `repr`, `==` and hashing of the dataclasses they
replaced, and a cold start of the package imports no `dataclasses`."""

import copy
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import (
    as_dataclass,
    bench_inputs,
    random_fractional_system,
    random_linear_system,
)

import probnext
from probnext import (
    check_derivation,
    decide,
    kernel_bounds,
    lindenbaum,
    measure_from_dict,
    measure_to_dict,
    metric_dc,
    parse,
    parse_derivation,
    random_model,
    sat,
)
from probnext.canonical import StageRecord
from probnext.linarith import ge
from probnext.prokhorov import FiniteMeasure


def test_a_cold_start_imports_no_dataclasses():
    # Measured against the modules loaded before the import, so that a site
    # hook that loads them first does not count.
    code = (
        "import sys; before = set(sys.modules); import probnext; import probnext.cli; "
        "print(*sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    package_parent = os.path.dirname(os.path.dirname(probnext.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=package_parent),
    )
    assert (done.returncode, done.stdout.split()) == (0, []), done.stderr


def _assert_mutable_records_match(records, pairs):
    """Each record has its dataclass's repr, is unhashable, and equals no
    object of another class, the dataclass included; each pair compares
    as its dataclasses do, both ways."""
    for record in records:
        former = as_dataclass(record)
        assert repr(record) == repr(former)
        with pytest.raises(TypeError):
            hash(record)
        fields = tuple(getattr(record, name) for name in record._fields)
        for other in (former, fields, vars(record).copy(), None):
            assert (record == other, other == record, record != other) == (False, False, True)
    for a, b in pairs:
        was_a, was_b = as_dataclass(a), as_dataclass(b)
        assert (a == b, b == a, a != b) == (was_a == was_b, was_b == was_a, was_a != was_b)


def _pairs_with_copies(records):
    """Each record beside a deep copy of it, which is equal, and beside the
    next record, which mostly is not."""
    return [(r, copy.deepcopy(r)) for r in records] + list(zip(records, records[1:]))


def test_models_match_the_dataclass():
    models = [random_model(seed, 1 + seed % 7, seed % 4, 1 + seed % 5) for seed in range(200)]
    edited = copy.deepcopy(models[-1])
    edited.successor[edited.worlds[0]] = "elsewhere"
    pairs = _pairs_with_copies(models) + [(models[-1], edited)]
    assert sum(a == b for a, b in pairs) == 200
    _assert_mutable_records_match(models + [edited], pairs)


def test_measures_match_the_dataclass():
    inputs = bench_inputs()
    measures = []
    for n in (6, 8, 10):
        for index in range(8):
            points, w1, w2, distance = inputs.prokhorov_instance(n, index)
            measures += [FiniteMeasure(points, w1, distance), FiniteMeasure(points, w2, distance)]
    trips = [measure_from_dict(measure_to_dict(m)) for m in measures]
    pairs = _pairs_with_copies(measures) + list(zip(measures, trips))
    assert all(a == b for a, b in zip(measures, trips))
    _assert_mutable_records_match(measures + trips, pairs)


def test_linear_systems_match_the_dataclass():
    rng = random.Random(2024)
    systems = [random_linear_system(rng) for _ in range(300)]
    systems += [random_fractional_system(rng) for _ in range(300)]
    _assert_mutable_records_match(systems, _pairs_with_copies(systems))


def _immutable_records() -> list:
    w = lindenbaum(parse("L[1/2] p0 & X p1"), 300)
    derivation = parse_derivation(
        "p0 -> p0 ; axiom:Taut\nL[1] (p0 -> p0) ; nec_l1:0\np0 ; hyp\np1 ; mp:2,0",
        hypotheses=[parse("p0")],
    )
    pinned = lindenbaum(parse("L[1/2] p0 & !L[3/4] p0"), 10)
    return [
        *w.stage_log,
        derivation,
        derivation.steps[0][1],
        check_derivation(derivation),
        check_derivation(parse_derivation("p0 -> p1 ; axiom:Taut")),
        metric_dc(w, lindenbaum(parse("L[1/2] p0 & X !p1"), 0), 20),
        metric_dc(lindenbaum(parse("p0"), 0), lindenbaum(parse("p0"), 0), 12),
        kernel_bounds(pinned, parse("p0"), 8),
        sat(parse("L[1/2] (p0 | p1) & !L[2/3] p1")),
        sat(parse("L[1/2] p0 & !L[1/3] p0")),
        ge({0: Fraction(1, 2), 2: -1}, Fraction(1, 3)),
        decide._cells(frozenset([parse("p0"), parse("p1 | X p0")])),
    ]


def test_immutable_records_match_the_dataclass():
    records = _immutable_records()
    kinds = {type(r).__name__ for r in records}
    assert len(kinds) == 9, kinds
    assert {r.case for r in records if isinstance(r, StageRecord)} == {1, 2, 3}
    for record in records:
        assert repr(record) == repr(as_dataclass(record))
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)


def test_a_stage_record_index_is_its_field():
    assert StageRecord(7, 1, parse("p0")).index == 7
    w = lindenbaum(parse("L[1/2] p0 & X p1"), 40)
    assert [r.index for r in w.stage_log] == list(range(40))
