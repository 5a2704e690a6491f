"""The four benchmark workloads.

A workload turns a seed into a stream of groups; a group is a stream of
(op, tag) pairs.  An op is one timed call sequence into `probnext` that
returns True when its output checked out.  The closed loop in `run.py` only
stops between groups, so a Lindenbaum construction or a Prokhorov size cycle
is always finished.

Functions of `probnext` are looked up at call time (`probnext.parse(...)`),
never bound at import, so the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import probnext

import inputs

EXPECTED = Path(__file__).resolve().parent / "expected"


def load_expected(name: str) -> dict:
    with open(EXPECTED / f"{name}.json") as fh:
        return json.load(fh)


def check_sat(f, expect_sat: bool) -> bool:
    """Verdict matches, and a SAT verdict's witness validates and checks."""
    verdict = probnext.sat(f)
    if (verdict.status == "SAT") != expect_sat:
        return False
    if not expect_sat:
        return True
    model, root = probnext.witness(f)
    return model.validate() == [] and model.check(root, f)


class Workload:
    name = ""
    deadline_s = 10.0  # per-op limit; a miss counts as a failed op
    tail_pct = 99  # op_tail_ms percentile; a run has at least 10 samples beyond it
    rss_mark = 1  # peak RSS is read after this many ops (fixed work)
    isolated = False  # run each group in a fresh interpreter
    cycle = 1  # a timed run stops only after a multiple of this many groups

    def __init__(self):
        self.counts: Counter = Counter()

    def groups(self, seed: int):
        raise NotImplementedError


class DecideMix(Workload):
    """Random formulas within the acceptance caps, one in three an axiom
    instance for `derives`, drawn without repeats from a pool whose verdicts
    are committed in expected/decide_mix.json."""

    name = "decide-mix"
    tail_pct = 99
    rss_mark = 4000

    def __init__(self):
        super().__init__()
        self.expected = load_expected("decide_mix")
        for index, text in self.expected["sentinels"].items():
            if inputs.mix_entry(int(index))[1] != text:
                raise RuntimeError("decide-mix generator no longer matches its expected file")

    def groups(self, seed):
        verdicts = self.expected["verdicts"]
        # 'X' entries have no verified answer: they exceeded the deadline when
        # the expected file was made (the FM cliff); cliffs.py times them.
        order = [i for i, v in enumerate(verdicts) if v != "X"]
        random.Random(f"decide-mix/order/{seed}").shuffle(order)
        for index in order:
            kind, text = inputs.mix_entry(index)
            yield [(self._op(kind, text, verdicts[index]), kind)]

    @staticmethod
    def _op(kind, text, verdict):
        def op():
            f = probnext.parse(text)
            if kind == "derives":
                return probnext.derives([], f) is (verdict == "V")
            return check_sat(f, verdict == "S")

        return op


class LpBounds(Workload):
    """k = 4 chained bounds on disjunctions plus one negated bound; every
    instance is SAT by construction and its witness is checked.

    Instance costs spread widely (coefficient of variation about 1), so the
    mean over the ~500 a run does moves by several percent with the draw.
    Runs therefore take a seeded order over one fixed pool of `pool`
    distinct instances: with half the pool in each run, the draws of two
    runs overlap, and their means differ less.  No instance repeats in a
    run.
    """

    name = "lp-bounds"
    tail_pct = 95
    rss_mark = 150
    pool = 1000

    def groups(self, seed):
        texts = {}  # insertion-ordered, so the pool is the same for every seed
        j = 0
        while len(texts) < self.pool:
            texts.setdefault(inputs.lp_bounds_text(random.Random(f"lp-bounds/{j}")))
            j += 1
        order = list(texts)
        random.Random(f"lp-bounds/order/{seed}").shuffle(order)
        for text in order:
            yield [(lambda text=text: check_sat(probnext.parse(text), True), None)]


class Lindenbaum(Workload):
    """Staged constructions to a fixed budget from a fixed list of four seed
    formulas, cycled from a seeded start; one op is one stage.  A timed run
    builds whole cycles, so each seed formula equally often.

    Each construction runs in a fresh interpreter, as `probnext lindenbaum`
    does: in one process, the caches filled by one seed make the next
    construction several times cheaper, which would time dict lookups.
    Peak RSS is the median over constructions of each one's peak.
    """

    name = "lindenbaum"
    # Each construction's last 7 stages take 17 ms-1.3 s, the other 43 under
    # 2 ms, and each of those 7 costs 1.5-3x the one before.  p91 lands amid
    # the samples of stage 45, the fifth-dearest; p90 would land in the gap
    # between stages 44 and 45 and jump with the noise.
    tail_pct = 91
    isolated = True

    def __init__(self):
        super().__init__()
        self.expected = load_expected("lindenbaum")
        self.budget = self.expected["budget"]
        self.cycle = len(self.expected["seeds"])

    def groups(self, seed):
        entries = self.expected["seeds"]
        for k in itertools.count(seed):
            yield self._stages(entries[k % len(entries)])

    def _stages(self, entry):
        holder = []
        bits, extras = entry["decided"], entry["extras"]

        def stage(l):
            if not holder:
                holder.append(probnext.SaturatedPrefix(probnext.parse(entry["seed"])))
            prefix = holder[0].extend(l + 1)
            record = prefix.stage_log[l]
            extra = None if record.extra is None else probnext.render(record.extra)
            self.counts["case3"] += record.case == 3
            return prefix.decided[l] == (bits[l] == "1") and extra == extras.get(str(l))

        for l in range(self.budget):
            tag = {self.budget - 1: "stage_last", self.budget - 2: "stage_prev"}.get(l)
            yield (lambda l=l: stage(l)), tag


class Prokhorov(Workload):
    """Random 1-D grid metrics; a group is one instance of each support size
    6, 8, 10.  Values are compared with expected/prokhorov.json.

    The instances of each size are cycled from a seeded start, and a timed
    run does whole cycles.  `prokhorov` keeps no state between calls, so
    repeats warm no cache; the cycle keeps the instance mix, and with it the
    figures, the same from run to run.
    """

    name = "prokhorov"
    deadline_s = 20.0
    tail_pct = 80
    rss_mark = 30
    # Instances per size, the first of those in the expected file.  An odd
    # number puts op_p50_ms and op_tail_ms amid the samples of one instance,
    # not in the gap between two, where they would jump with the noise.
    cycle = 7

    def __init__(self):
        super().__init__()
        self.expected = load_expected("prokhorov")

    def groups(self, seed):
        for k in itertools.count(seed):
            yield [self._op(n, k) for n in inputs.PROKHOROV_SIZES]

    def _op(self, n, k):
        values = self.expected["values"][str(n)]
        index = k % self.cycle
        points, mu, nu, distance = inputs.prokhorov_instance(n, index)
        want = Fraction(values[index])
        m1 = probnext.FiniteMeasure(points, mu, distance)
        m2 = probnext.FiniteMeasure(points, nu, distance)
        return (lambda: probnext.prokhorov(m1, m2) == want), f"n{n}"


WORKLOADS = {w.name: w for w in (DecideMix, LpBounds, Lindenbaum, Prokhorov)}
