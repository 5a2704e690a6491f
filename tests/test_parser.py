import operator
import random
from fractions import Fraction

import pytest

from helpers import bench_inputs, lp_bounds_pool, parse_by_descent, random_formula
from probnext import (
    And,
    AtLeast,
    BOTTOM,
    Formula,
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


# Each spelling parses to the node of its reduced bound, on a body that is
# already interned (a table hit) and on a fresh one (a miss).
@pytest.mark.parametrize("text, reduced", [
    ("L[2/4] {}", "L[1/2] {}"),
    ("L[0/7] {}", "L[0] {}"),
    ("M[3/6] {}", "L[1/2] !{}"),
    ("L[ 4 / 4 ] {}", "L[1] {}"),
    ("M[0] {}", "L[1] !{}"),
])
@pytest.mark.parametrize("body", ["p0", "p808080"])
def test_bound_spellings_parse_to_the_reduced_node(text, reduced, body):
    f = parse(text.format(body))
    assert f is parse_by_descent(reduced.format(body))
    num, _, den = reduced[2:reduced.index("]")].partition("/")
    assert f.bound.__class__ is Fraction and f.bound == Fraction(int(num), int(den or 1))


def test_warm_parse_constructs_no_fraction(monkeypatch):
    texts = lp_bounds_pool()
    kept = [parse(text) for text in texts]
    made = []
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    again = [parse(text) for text in texts]
    monkeypatch.undo()
    assert made == []
    assert all(map(operator.is_, again, kept))


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


def test_deep_nesting_parses_without_recursion():
    depth = 10**5
    for prefix, build in [
        ("!", Not),
        ("X ", Next),
        ("L[1/2] ", lambda f: AtLeast(Fraction(1, 2), f)),
    ]:
        f = Prop(0)
        for _ in range(depth):
            f = build(f)
        assert parse(prefix * depth + "p0") is f
    assert parse("(" * depth + "p0" + ")" * depth) is Prop(0)
    with pytest.raises(FormulaSyntaxError) as exc:
        parse("(" * depth + "p0" + ")" * (depth - 1))
    assert (exc.value.expected, exc.value.found) == ("')'", "end of input")


_SOUP = [
    "p0", "p1", "p12", "T", "F", "!", "X", "&", "|", "->", "<->", "(", ")", "(", ")",
    "L[1/2]", "M[2/3]", "L[ 4 / 6 ]", "M[1]", "L[0]", "L[3/2]", "M[5]", "L[1/0]",
]
_STRAY = ["-", "q", "@", "\u0663"]  # no token starts with these
_GAPS = ["", " ", " ", "  ", "\t", "\n"]


def _spelled(rng: random.Random, size: int) -> str:
    """A random formula in the surface syntax: every connective, prefix and
    spacing the grammar allows, so the precedences and associativities
    all come into play."""
    if size <= 1:
        return rng.choice(["p0", "p1", "p7", "T", "F"])
    pick = rng.random()
    if pick < 0.3:
        prefix = rng.choice(["!", "X ", "L[1/2] ", "M[ 2/3 ]", "L[1]", "M[0/5] "])
        return prefix + _spelled(rng, size - 1)
    if pick < 0.8:
        split = rng.randint(1, size - 1)
        op = rng.choice([" & ", "&", " | ", " -> ", "->", " <-> "])
        return _spelled(rng, split) + op + _spelled(rng, size - split)
    return "(" + _spelled(rng, size - 1) + ")"


def _mutated(rng: random.Random, text: str) -> str:
    """Text with a random token inserted, or a random span deleted or
    repeated."""
    i = rng.randint(0, len(text))
    j = rng.randint(i, min(len(text), i + 4))
    pick = rng.randrange(3)
    if pick == 0:
        return text[:i] + rng.choice(_GAPS) + rng.choice(_SOUP + _STRAY) + text[i:]
    if pick == 1:
        return text[:i] + text[j:]
    return text[:j] + text[i:]


def _outcome(parser, text):
    try:
        return parser(text)
    except ValueError as exc:
        fields = (getattr(exc, name, None) for name in ("position", "expected", "found"))
        return (type(exc), *fields, str(exc))


def test_precedence_loop_agrees_with_recursive_descent():
    rng = random.Random(20261019)
    texts = [render(random_formula(rng)) for _ in range(2000)]
    for _ in range(8000):
        texts.append("".join(rng.choice(_GAPS) + rng.choice(_SOUP)
                             for _ in range(rng.randint(0, 12))))
    for _ in range(12000):
        text = _spelled(rng, rng.randint(1, 8))
        for _ in range(rng.randint(0, 2)):
            text = _mutated(rng, text)
        texts.append(text)
    kinds = {}
    for text in texts:
        got, want = _outcome(parse, text), _outcome(parse_by_descent, text)
        if isinstance(want, Formula):
            assert got is want, text
            kinds[Formula] = kinds.get(Formula, 0) + 1
        else:
            assert got == want, text
            kinds[want[0]] = kinds.get(want[0], 0) + 1
    # every outcome is well represented: nodes, syntax and range errors
    assert min(kinds[k] for k in (Formula, FormulaSyntaxError, IndexOutOfRange)) > 500, kinds


# A stray token is the error wherever it stands: before a grammar error met
# earlier, a zero denominator, a bound out of range, or a numeral too long
# for int(); and the errors of the last two texts follow tabs, newlines and
# tokens of several characters.
@pytest.mark.parametrize("text, error", [
    ("& p0 @", (FormulaSyntaxError, 5, "a token", "'@'")),
    ("L[1/0] p0 ?", (FormulaSyntaxError, 10, "a token", "'?'")),
    ("L[3/2] p0 q", (FormulaSyntaxError, 10, "a token", "'q'")),
    ("p" + "1" * 5000 + " @", (FormulaSyntaxError, 5002, "a token", "'@'")),
    ("p12 <->\t\n)", (FormulaSyntaxError, 9, "a formula", "')'")),
    ("M[ 2 / 3 ] )", (FormulaSyntaxError, 11, "a formula", "')'")),
], ids=["grammar", "denominator", "range", "numeral", "tab-newline", "spaced-bound"])
def test_error_precedence_matches_recursive_descent(text, error):
    got = _outcome(parse, text)
    assert got == _outcome(parse_by_descent, text)
    assert got[:4] == error


def test_bench_texts_parse_to_the_descent_nodes():
    inputs = bench_inputs()
    texts = [inputs.mix_entry(i)[1] for i in range(5000)]
    for text in texts + lp_bounds_pool():
        assert parse(text) is parse_by_descent(text), text
