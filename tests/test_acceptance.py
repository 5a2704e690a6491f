"""Acceptance suite.

Each test covers one acceptance criterion and reports a single pass/fail
line (the pytest -v status line of the test; with -s an explicit line is
also printed).  The random batches are generated once per session and
shared between the criteria that consume them.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

from helpers import (
    SCHEME_NAMES,
    eliminate,
    random_formula,
    random_linear_system,
    random_scheme_instance,
    system_variables,
)
from probnext import (
    And,
    Not,
    conj,
    derives,
    enum_formula,
    kernel_bounds,
    lindenbaum,
    lor,
    metric_dc,
    parse,
    prokhorov,
    random_model,
    sat,
    sat_status,
    valid,
    witness,
    FiniteMeasure,
)
from probnext.canonical import _bound_stack_pattern
from probnext.enumeration import rational_index
from probnext.linarith import feasible, satisfies, solve


def _report(n: int, label: str, ok: bool) -> None:
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'}")


# ---------------------------------------------------------------------------
# shared random batches


@lru_cache(maxsize=1)
def _formula_batch():
    """300 random formulas within the advertised caps, with verdicts."""
    rng = random.Random(26082023)
    batch = []
    for _ in range(300):
        f = random_formula(
            rng, max_size=20, max_prob_depth=2, max_dyn_depth=3, denom_bound=4
        )
        start = time.monotonic()
        verdict = sat(f).status
        elapsed = time.monotonic() - start
        batch.append((f, verdict, elapsed))
    return batch


@lru_cache(maxsize=1)
def _lindenbaum_prefixes():
    seeds = [
        "p0",
        "!p0",
        "p0 & p1",
        "p0 & !p1",
        "!p0 & p1",
        "p1 & p2",
        "L[1/2] p0",
        "L[1/3] p0",
        "L[2/3] p0 & !p1",
        "L[1/2] p0 & L[1/2] !p0",
        "X p0",
        "X !p0 & p1",
        "X X p0",
        "L[1/2] X p0",
        "X L[1/2] p0",
        "p0 | p1",
        "L[3/4] (p0 & p1)",
        "!L[1/2] p0 & p0",
        "L[1] p0 & X p1",
        "M[1/4] p0",
    ]
    return [(s, lindenbaum(parse(s), 40)) for s in seeds]


# ---------------------------------------------------------------------------
# criterion 1: the axiom schemes are valid and hold in random models


def test_criterion_1_axiom_scheme_soundness():
    start = time.monotonic()
    rng = random.Random(1001)
    models = [random_model(seed, 1 + seed % 4, 3, 4) for seed in range(50)]
    failures = []
    for name in SCHEME_NAMES:
        for k in range(50):
            inst = random_scheme_instance(rng, name)
            if not valid(inst):
                failures.append((name, k, "not valid"))
                continue
            for m in models:
                if m.extension(inst) != frozenset(m.worlds):
                    failures.append((name, k, "fails in a random model"))
                    break
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120
    _report(1, "axiom scheme soundness", ok)
    assert not failures, failures[:5]
    assert elapsed < 120, f"soundness suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: random formulas are decided quickly and duality holds


def test_criterion_2_decision_budget_and_duality():
    failures = []
    for f, verdict, elapsed in _formula_batch():
        if elapsed >= 5:
            failures.append((f, f"decided in {elapsed:.2f}s"))
        if (verdict == "SAT") != (not valid(Not(f))):
            failures.append((f, "sat/valid duality broken"))
    _report(2, "decision budget and duality", not failures)
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# criterion 3: every extracted witness is a checkable model


def test_criterion_3_witnesses_check_out():
    failures = []
    for f, verdict, _ in _formula_batch():
        if verdict != "SAT":
            continue
        model, root = witness(f)
        if model.validate() != []:
            failures.append((f, "witness fails validation"))
        elif not model.check(root, f):
            failures.append((f, "witness root does not satisfy the formula"))
    sat_count = sum(1 for _, v, _ in _formula_batch() if v == "SAT")
    ok = not failures and sat_count > 0
    _report(3, "witnesses validate and check", ok)
    assert sat_count > 0
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# criterion 4: UNSAT verdicts survive a random-model refutation search


def test_criterion_4_unsat_refutation_search():
    unsat = [f for f, v, _ in _formula_batch() if v == "UNSAT"]
    assert unsat, "the random batch produced no UNSAT formulas"
    models = [random_model(70000 + i, 1 + i % 3, 3, 4) for i in range(500)]
    failures = []
    for f in unsat:
        for m in models:
            hit = m.extension(f)
            if hit:
                failures.append((f, sorted(hit)))
                break
    _report(4, "UNSAT refutation search", not failures)
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# criterion 5: curated regressions


def test_criterion_5_curated_regressions():
    checks = [
        valid(parse("L[0] F")),
        sat(parse("!X L[0] T")).status == "UNSAT",
        sat(parse("X L[1] p0 & X !p0")).status == "SAT",
        valid(parse("L[1/3] (p0 & p1) & L[1/3] (p0 & !p1) -> L[2/3] p0")),
        not valid(parse("L[1/2] p0")),
    ]
    _report(5, "curated regressions", all(checks))
    assert all(checks), checks


# ---------------------------------------------------------------------------
# criterion 6: staged saturated-prefix construction invariants


def test_criterion_6_saturated_prefix_invariants():
    failures = []
    for text, w in _lindenbaum_prefixes():
        seed = parse(text)
        # every stage set stays consistent
        for upto in range(0, 41, 5):
            if not sat_status(conj(w.stage_set(upto))):
                failures.append((text, upto, "inconsistent stage set"))
        # the seed is a member and negation coherence holds per stage
        if not w.member(seed):
            failures.append((text, "seed not a member"))
        gamma = w.stage_set()
        for l in range(0, 40, 7):
            f = enum_formula(l)
            if derives(gamma, f) != w.decided[l]:
                failures.append((text, l, "decided bit incoherent"))
            if derives(gamma, Not(f)) == w.decided[l]:
                failures.append((text, l, "negation incoherent"))
        # witness-bound stages refute a strictly smaller, previously
        # underivable bound -- and the first such bound in enumeration order
        for rec in w.stage_log:
            if rec.case != 3:
                continue
            steps, outer, r, theta = _bound_stack_pattern(rec.formula)
            decomposed = _bound_stack_pattern(rec.extra.body)
            if decomposed is None or not isinstance(rec.extra, Not):
                failures.append((text, rec.index, "malformed witness bound"))
                continue
            s_steps, s_outer, s, s_theta = decomposed
            gamma_before = w.stage_set(rec.index)
            if (s_steps, s_outer, s_theta) != (steps, outer, theta) or s >= r:
                failures.append((text, rec.index, "wrong witness stack"))
            elif derives(gamma_before, rec.extra.body):
                failures.append((text, rec.index, "witness bound was derivable"))
            else:
                from probnext import enum_rational
                from probnext.canonical import _rebuild_stack

                for k in range(rational_index(s)):
                    s_prev = enum_rational(k)
                    if s_prev < r and not derives(
                        gamma_before, _rebuild_stack(steps, outer, s_prev, theta)
                    ):
                        failures.append((text, rec.index, "not the first bound"))
                        break
        # reruns are bit-identical
        rerun = lindenbaum(seed, 40)
        if rerun.decided != w.decided[:40] or rerun.extras != w.extras:
            failures.append((text, "rerun differs"))
    _report(6, "saturated prefix invariants", not failures)
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# criterion 7: metric laws


def test_criterion_7_metric_laws():
    failures = []

    # first-disagreement ultrametric over 15 prefixes
    prefixes = [w for _, w in _lindenbaum_prefixes()[:15]]
    n = len(prefixes)
    dist = {}
    for i in range(n):
        for j in range(n):
            dist[i, j] = metric_dc(prefixes[i], prefixes[j], 40)
    for i in range(n):
        for j in range(n):
            if dist[i, j].exact != dist[j, i].exact or (
                dist[i, j].value != dist[j, i].value
            ):
                failures.append(("dc symmetry", i, j))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                dij, djk, dik = dist[i, j], dist[j, k], dist[i, k]
                if dij.exact and djk.exact and dik.exact:
                    if dik.value > max(dij.value, djk.value):
                        failures.append(("dc ultrametric", i, j, k))

    # Prokhorov laws over random four-point measures on a shared metric
    rng = random.Random(777)
    points = ["a", "b", "c", "d"]
    table = {}
    for x in range(4):
        for y in range(x + 1, 4):
            # distances in [1/2, 1] satisfy the triangle inequality outright
            table[(points[x], points[y])] = Fraction(rng.randint(4, 8), 8)

    def rand_measure():
        cuts = sorted(rng.randint(0, 8) for _ in range(3))
        ws = [cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], 8 - cuts[2]]
        return FiniteMeasure(
            points, {p: Fraction(wt, 8) for p, wt in zip(points, ws)}, table
        )

    measures = [rand_measure() for _ in range(50)]
    for mu in measures:
        if prokhorov(mu, mu) != 0:
            failures.append(("prokhorov identity", mu.weights))
    for _ in range(40):
        mu, nu, rho = (measures[rng.randrange(50)] for _ in range(3))
        dmn, dnm = prokhorov(mu, nu), prokhorov(nu, mu)
        if dmn != dnm:
            failures.append(("prokhorov symmetry", mu.weights, nu.weights))
        if dmn > prokhorov(mu, rho) + prokhorov(rho, nu):
            failures.append(("prokhorov triangle", mu.weights, nu.weights))

    # Dirac law: the distance of point masses is min(d, 1), exactly
    for _ in range(20):
        d = Fraction(rng.randint(1, 18), rng.randint(1, 6))
        t = {("a", "b"): d}
        mu = FiniteMeasure(["a", "b"], {"a": Fraction(1)}, t)
        nu = FiniteMeasure(["a", "b"], {"b": Fraction(1)}, t)
        if prokhorov(mu, nu) != min(d, Fraction(1)):
            failures.append(("dirac law", d))

    _report(7, "metric laws", not failures)
    assert not failures, failures[:5]


# ---------------------------------------------------------------------------
# criterion 8: kernel bounds respect finite additivity on disjoint events


def test_criterion_8_kernel_bounds_additivity():
    rng = random.Random(88)
    disjoint_pairs = [
        (parse("p0 & !p1"), parse("p1")),
        (parse("p0"), parse("!p0 & p1")),
        (parse("p0 & p1"), parse("p0 & !p1")),
        (parse("p0 & p1"), parse("!p0 & p1")),
        (parse("!p0"), parse("p0 & p1")),
    ]
    grid = 8
    slack = Fraction(2, grid)
    failures = []
    checked = 0
    while checked < 20:
        phi, psi = disjoint_pairs[checked % len(disjoint_pairs)]
        # oracle certification of disjointness
        if sat(And(phi, psi)).status != "UNSAT":
            failures.append((checked, "pair not disjoint"))
            checked += 1
            continue
        a = Fraction(rng.randint(0, 5), 8)
        b = Fraction(rng.randint(0, 8 - int(a * 8) - 2), 8)
        union = lor(phi, psi)
        eighth = Fraction(1, 8)
        seed = conj(
            [
                _pin(phi, a, a + eighth),
                _pin(psi, b, b + eighth),
                _pin(union, a + b, a + b + 2 * eighth),
            ]
        )
        w = lindenbaum(seed, 0)
        iv_phi = kernel_bounds(w, phi, grid)
        iv_psi = kernel_bounds(w, psi, grid)
        iv_union = kernel_bounds(w, union, grid)
        for iv, low in ((iv_phi, a), (iv_psi, b), (iv_union, a + b)):
            if not (iv.lower <= iv.upper and iv.lower >= low):
                failures.append((checked, "bracket misses the pinned value"))
        if iv_union.lower > iv_phi.upper + iv_psi.upper + slack:
            failures.append((checked, "union exceeds the part sums"))
        if iv_phi.lower + iv_psi.lower > iv_union.upper + slack:
            failures.append((checked, "part sums exceed the union"))
        checked += 1
    _report(8, "kernel bound additivity", not failures)
    assert not failures, failures[:5]


def _pin(body, low, high):
    """Seed fragment forcing the kernel mass of `body` into [low, high)."""
    from probnext import AtLeast

    return And(AtLeast(low, body), Not(AtLeast(high, body)))


# ---------------------------------------------------------------------------
# criterion 9: elimination order invariance and exact solutions


def test_criterion_9_elimination_invariance_and_exact_solutions():
    rng = random.Random(999)
    failures = []
    for case in range(300):
        system = random_linear_system(rng)
        expected = feasible(system)
        for trial in range(5):
            order = sorted(system_variables(system))
            rng.shuffle(order)
            reduced = system
            for v in order:
                reduced = eliminate(reduced, v)
            if system_variables(reduced):
                failures.append((case, trial, "variables left over"))
            elif feasible(reduced) != expected:
                failures.append((case, trial, "feasibility changed"))
        point = solve(system)
        if (point is not None) != expected:
            failures.append((case, "solve disagrees with feasible"))
        elif point is not None:
            full = {v: point.get(v, Fraction(0)) for v in range(system.num_vars)}
            if not satisfies(system, full):
                failures.append((case, "solution fails exact substitution"))
    _report(9, "elimination invariance and exact solutions", not failures)
    assert not failures, failures[:5]
