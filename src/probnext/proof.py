"""Axiom-scheme recognition, finitary Hilbert-derivation checking, and the
semantic derivability oracle.

The axiom schemes are one table of templates: each scheme is written as the
core-grammar formula the paper states, with p0 and p1 as metavariables, plus
a side condition on the bounds it carries.  One matcher binds the
metavariables and collects the bounds; propositional tautologies are
recognized by a bounded case split instead.

Derivability from a finite hypothesis set is decided through the decision
procedure (soundness plus weak completeness make the two coincide), so no
proof search is ever performed.  The two infinitary rules are not
representable as checkable steps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .decide import sat_status, valid
from .enumeration import ExtensionLimitExceeded, enum_formula
from .formula import And, AtLeast, Formula, Next, Not, Prop, conj, implies
from .parser import parse


# ---------------------------------------------------------------------------
# Axiom schemes


# Case splits a tautology check may make before it gives up: splitting on
# every assignment of 14 Boolean atoms takes 2^14 - 1.
_TAUT_SPLITS = 1 << 14


def _assign(f: Formula, atom: Formula, value: bool):
    """f with the Boolean atom fixed to value, simplified: True, False, or
    the formula that is left."""
    if isinstance(f, Not):
        body = _assign(f.body, atom, value)
        return not body if isinstance(body, bool) else Not(body)
    if isinstance(f, And):
        left = _assign(f.left, atom, value)
        right = False if left is False else _assign(f.right, atom, value)
        if left is True or right is False:
            return right
        return left if right is True else And(left, right)
    return value if f == atom else f


def is_tautology(f: Formula) -> bool:
    """Whether f holds under every truth assignment to its maximal
    non-Boolean subformulas: a conjunction when both halves do, anything
    else by a case split on its leftmost such atom, which stops on a branch
    as soon as its value is fixed.  Raises ExtensionLimitExceeded after
    _TAUT_SPLITS splits."""
    splits = 0

    def holds(g) -> bool:
        nonlocal splits
        if isinstance(g, bool):
            return g
        if isinstance(g, And):
            return holds(g.left) and holds(g.right)
        splits += 1
        if splits > _TAUT_SPLITS:
            raise ExtensionLimitExceeded(
                f"tautology check past {_TAUT_SPLITS} case splits"
            )
        atom = g
        while isinstance(atom, (Not, And)):
            atom = atom.body if isinstance(atom, Not) else atom.left
        return holds(_assign(g, atom, False)) and holds(_assign(g, atom, True))

    return holds(f)


def _match(template: Formula, f: Formula, env: dict, bounds: list) -> bool:
    """Whether f is an instance of the template: each metavariable p_i binds
    one subformula, the same wherever it occurs, and the bounds of f under
    the template's probability operators are appended to `bounds` in order."""
    if isinstance(template, Prop):
        return env.setdefault(template.index, f) == f
    if type(template) is not type(f):
        return False
    if isinstance(template, And):
        return _match(template.left, f.left, env, bounds) and _match(
            template.right, f.right, env, bounds
        )
    if isinstance(template, AtLeast):
        bounds.append(f.bound)
    return _match(template.body, f.body, env, bounds)


def _scheme(template: str, condition):
    """Recognizer of the scheme: an instance of the template whose bounds,
    in the order they are written, satisfy the side condition."""
    shape = parse(template)

    def matches(f: Formula) -> bool:
        bounds: list[Fraction] = []
        return _match(shape, f, {}, bounds) and condition(*bounds)

    return matches


def _additive(r, s, t):
    return r + s <= 1 and t == r + s


# The schemes of H-_DPL in the paper's core grammar, p0 and p1 standing for
# arbitrary formulas and the L[0] bounds for arbitrary ones, which the side
# condition then constrains.
_SCHEMES = {
    "Taut": is_tautology,
    "FA1": _scheme("L[0] (p0 & !p0)", lambda r: r == 0),
    "FA2": _scheme("L[0] !p0 -> !L[0] p0", lambda r, s: r + s > 1),
    "FA3": _scheme("L[0] (p0 & p1) & L[0] (p0 & !p1) -> L[0] p0", _additive),
    "FA4": _scheme("!L[0] (p0 & p1) & !L[0] (p0 & !p1) -> !L[0] p0", _additive),
    "Mono": _scheme(
        "L[0] (p0 -> p1) -> (L[0] p0 -> L[0] p1)",
        lambda one, r, s: one == 1 and r == s,
    ),
    "Func": _scheme("X !p0 <-> !X p0", lambda: True),
    "Conj": _scheme("X (p0 & p1) <-> X p0 & X p1", lambda: True),
}

SCHEME_NAMES = tuple(_SCHEMES)

_IMPLIES = parse("p0 -> p1")  # the major premise of modus ponens


def axiom_instance(f: Formula) -> Optional[str]:
    """Name of the first axiom scheme matching f, if any."""
    return next((name for name, matches in _SCHEMES.items() if matches(f)), None)


def matches_scheme(f: Formula, name: str) -> bool:
    if name not in _SCHEMES:
        raise ValueError(f"unknown axiom scheme {name!r}")
    return _SCHEMES[name](f)


# ---------------------------------------------------------------------------
# Derivations


class Justification(NamedTuple):
    kind: str  # "axiom" | "mp" | "nec_l1" | "nec_next" | "hyp"
    scheme: Optional[str] = None
    refs: tuple[int, ...] = ()


class Derivation(NamedTuple):
    steps: tuple[tuple[Formula, Justification], ...]
    hypotheses: Optional[frozenset[Formula]] = None  # None = theorem mode


class CheckResult(NamedTuple):
    accepted: bool
    step: Optional[int] = None
    reason: Optional[str] = None


def check_derivation(d: Derivation) -> CheckResult:
    from_hypotheses = d.hypotheses is not None
    for idx, (formula, just) in enumerate(d.steps):
        if any(r >= idx for r in just.refs):
            return CheckResult(False, idx, "reference to a later step")
        if any(r < 0 for r in just.refs):
            return CheckResult(False, idx, "negative step reference")
        if just.kind == "axiom":
            if just.scheme not in SCHEME_NAMES:
                return CheckResult(False, idx, f"unknown scheme {just.scheme}")
            if not matches_scheme(formula, just.scheme):
                return CheckResult(
                    False, idx, f"not an instance of {just.scheme}"
                )
        elif just.kind == "mp":
            if len(just.refs) != 2:
                return CheckResult(False, idx, "mp needs two premises")
            i, j = just.refs
            parts: dict[int, Formula] = {}
            if not _match(_IMPLIES, d.steps[i][0], parts, []):
                return CheckResult(False, idx, f"step {i} is not an implication")
            if (parts[0], parts[1]) != (d.steps[j][0], formula):
                return CheckResult(False, idx, "mp premises do not match")
        elif just.kind in ("nec_l1", "nec_next"):
            if from_hypotheses:
                return CheckResult(
                    False, idx, "necessitation is forbidden under hypotheses"
                )
            if len(just.refs) != 1:
                return CheckResult(False, idx, "necessitation needs one premise")
            (i,) = just.refs
            if just.kind == "nec_l1":
                expected = AtLeast(Fraction(1), d.steps[i][0])
            else:
                expected = Next(d.steps[i][0])
            if formula != expected:
                return CheckResult(False, idx, f"{just.kind} shape mismatch")
        elif just.kind == "hyp":
            if not from_hypotheses or formula not in d.hypotheses:
                return CheckResult(False, idx, "not a hypothesis")
        else:
            return CheckResult(False, idx, f"unknown justification {just.kind}")
    return CheckResult(True)


def _reference(text: str, lineno: int) -> int:
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ValueError(
            f"line {lineno}: step reference {text!r} is not a natural number"
        )
    return int(text)


def parse_derivation(text: str, hypotheses=None) -> Derivation:
    """Line-oriented format: one "formula ; justification" per line, with
    justifications  axiom:<name>  mp:<i>,<j>  nec_l1:<i>  nec_next:<i>  hyp."""
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        formula_text, sep, just_text = line.rpartition(";")
        if not sep:
            raise ValueError(f"line {lineno}: missing ';'")
        formula = parse(formula_text.strip())
        just_text = just_text.strip()
        kind, _, arg = just_text.partition(":")
        kind = kind.strip()
        if kind == "axiom":
            just = Justification("axiom", scheme=arg.strip())
        elif kind == "mp":
            refs = tuple(_reference(x, lineno) for x in arg.split(","))
            if len(refs) != 2:
                raise ValueError(f"line {lineno}: mp needs two step references")
            just = Justification("mp", refs=refs)
        elif kind in ("nec_l1", "nec_next"):
            just = Justification(kind, refs=(_reference(arg, lineno),))
        elif kind == "hyp":
            just = Justification("hyp")
        else:
            raise ValueError(f"line {lineno}: unknown justification {just_text!r}")
        steps.append((formula, just))
    hyp_set = None if hypotheses is None else frozenset(hypotheses)
    return Derivation(tuple(steps), hyp_set)


# ---------------------------------------------------------------------------
# Derivability oracle and the computable index sets


def derives(gamma, f: Formula) -> bool:
    """Finite-hypothesis derivability, decided semantically."""
    gamma = list(gamma)
    if not gamma:
        return valid(f)
    return valid(implies(conj(gamma), f))


def computable_sets(i: int, j: int) -> tuple[bool, bool, bool]:
    """(phi_i is a theorem, phi_i is consistent, phi_i derives phi_j)."""
    fi = enum_formula(i)
    fj = enum_formula(j)
    return valid(fi), sat_status(fi), derives([fi], fj)
