import random
from fractions import Fraction

import pytest

from helpers import random_formula
from probnext import (
    And,
    AtLeast,
    BOTTOM,
    FormulaSyntaxError,
    IndexOutOfRange,
    Next,
    Not,
    Prop,
    TOP,
    parse,
    render,
)


def test_atoms_and_constants():
    assert parse("p0") == Prop(0)
    assert parse("p17") == Prop(17)
    assert parse("T") == TOP
    assert parse("F") == BOTTOM


def test_unary_operators():
    assert parse("!p0") == Not(Prop(0))
    assert parse("X p1") == Next(Prop(1))
    assert parse("L[1/2] p0") == AtLeast(Fraction(1, 2), Prop(0))
    assert parse("L[1] p0") == AtLeast(Fraction(1), Prop(0))
    # "at most" desugars to the dual bound on the negation
    assert parse("M[1/3] p0") == AtLeast(Fraction(2, 3), Not(Prop(0)))


def test_precedence_and_associativity():
    assert parse("p0 & p1 & p2") == And(And(Prop(0), Prop(1)), Prop(2))
    # & binds tighter than |
    assert parse("p0 | p1 & p2") == parse("p0 | (p1 & p2)")
    # -> is right associative and binds looser than |
    assert parse("p0 -> p1 -> p2") == parse("p0 -> (p1 -> p2)")
    assert parse("p0 | p1 -> p2") == parse("(p0 | p1) -> p2")
    # unary operators bind tightest
    assert parse("!p0 & p1") == And(Not(Prop(0)), Prop(1))
    assert parse("X p0 & p1") == And(Next(Prop(0)), Prop(1))
    assert parse("L[1/2] p0 & p1") == And(AtLeast(Fraction(1, 2), Prop(0)), Prop(1))


def test_derived_connectives_desugar():
    assert parse("p0 | p1") == Not(And(Not(Prop(0)), Not(Prop(1))))
    assert parse("p0 -> p1") == Not(And(Prop(0), Not(Prop(1))))
    assert parse("p0 <-> p1") == And(parse("p0 -> p1"), parse("p1 -> p0"))


def test_whitespace_insensitive():
    assert parse("  L[ 1 / 2 ]   ( p0 &p1 ) ") == AtLeast(
        Fraction(1, 2), And(Prop(0), Prop(1))
    )


def test_syntax_error_reports_position():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("p0 & ")
    assert exc.value.expected == "a formula"
    with pytest.raises(FormulaSyntaxError):
        parse("(p0")
    with pytest.raises(FormulaSyntaxError):
        parse("p0 p1")
    with pytest.raises(FormulaSyntaxError):
        parse("q0")
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("L[1/0] p0")
    assert exc.value.expected == "a nonzero denominator"


# Digits are ASCII: a regex \d and int() would read these as p3 and L[1/2] p0.
@pytest.mark.parametrize("text", ["p\u0663", "L[\uff11/2] p0"])
def test_digits_outside_ascii_are_a_syntax_error(text):
    with pytest.raises(FormulaSyntaxError):
        parse(text)


def test_bound_out_of_range_rejected():
    with pytest.raises(IndexOutOfRange):
        parse("L[3/2] p0")


def test_render_minimal_parens():
    assert render(parse("p0 & p1 & p2")) == "p0 & p1 & p2"
    assert render(Not(And(Prop(0), Prop(1)))) == "!(p0 & p1)"
    assert render(And(Prop(0), And(Prop(1), Prop(2)))) == "p0 & (p1 & p2)"


def test_roundtrip_on_random_formulas():
    rng = random.Random(20260823)
    for _ in range(200):
        f = random_formula(rng)
        assert parse(render(f)) == f
