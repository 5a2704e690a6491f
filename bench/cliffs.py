"""Report the known cost cliffs of the decision pipeline.

    python3 bench/cliffs.py

The timed workloads in run.py are built so that no op fails; the cliffs are
where ops do fail or blow up, so they are measured here, with a 2 s per-op
deadline:

* lp-bounds ladder: 5 instances for each k in 3..6; Fourier-Motzkin misses
  the deadline from k = 5 on.
* decide-mix FM cliff: the pool entries stored as 'X' in
  expected/decide_mix.json (over the deadline when the file was made).
* lindenbaum: the last stage of the construction from `L[1/2] p0 & X p1`
  against the stage before it.
* prokhorov: median time at support 10 against support 8.

Prints one line per cliff and, last, a JSON object with the figures.
"""

from __future__ import annotations

import json
import random
import resource
import signal
import statistics
import sys

import run  # sets sys.path for probnext and the bench modules

import inputs
import probnext
import workloads

DEADLINE_S = 2.0
LP_LADDER = (3, 4, 5, 6)
LP_PER_K = 5
MIX_CLIFF_ENTRIES = 5
PROKHOROV_SAMPLES = 5


class Probe(workloads.Workload):
    deadline_s = DEADLINE_S

    def __init__(self, ops):
        super().__init__()
        self.ops = ops

    def groups(self, seed):
        for op in self.ops:
            yield [(op, None)]


def probe(ops) -> run.Outcome:
    return run.measure(Probe(ops), seed=0, max_ops=len(ops))


def lp_ladder() -> dict:
    out = {}
    for k in LP_LADDER:
        texts = [
            inputs.lp_bounds_text(random.Random(f"cliffs/lp-bounds/{k}/{j}"), k)
            for j in range(LP_PER_K)
        ]
        outcome = probe([lambda t=t: workloads.check_sat(probnext.parse(t), True) for t in texts])
        out[k] = {"attempted": outcome.attempted, "failed": outcome.failed,
                  "p50_ms": statistics.median(outcome.latencies) * 1000}
    return out


def mix_cliff() -> dict:
    verdicts = workloads.load_expected("decide_mix")["verdicts"]
    cliff = [i for i, v in enumerate(verdicts) if v == "X"][:MIX_CLIFF_ENTRIES]
    texts = [inputs.mix_entry(i)[1] for i in cliff]
    # no verified answer exists for these entries: an op passes when it decides
    outcome = probe([lambda t=t: probnext.sat_status(probnext.parse(t)) in (True, False) for t in texts])
    return {"entries": cliff, "attempted": outcome.attempted, "failed": outcome.failed}


def stage_curve() -> dict:
    budget = inputs.LINDENBAUM_BUDGET
    prefix = probnext.SaturatedPrefix(probnext.parse("L[1/2] p0 & X p1"))
    ops = [lambda l=l: prefix.extend(l + 1) is prefix for l in range(budget)]
    lat = probe(ops).latencies
    return {"budget": budget, "last_s": lat[-1], "prev_s": lat[-2], "ratio": lat[-1] / lat[-2]}


def prokhorov_sizes() -> dict:
    out = {}
    for n in (8, 10):
        ops = []
        for index in range(PROKHOROV_SAMPLES):
            points, mu, nu, distance = inputs.prokhorov_instance(n, index)
            m1 = probnext.FiniteMeasure(points, mu, distance)
            m2 = probnext.FiniteMeasure(points, nu, distance)
            ops.append(lambda m1=m1, m2=m2: probnext.prokhorov(m1, m2) is not None)
        out[n] = statistics.median(probe(ops).latencies) * 1000
    return {"n8_p50_ms": out[8], "n10_p50_ms": out[10], "ratio": out[10] / out[8]}


def main() -> int:
    resource.setrlimit(resource.RLIMIT_AS, (run.MEMORY_CAP_BYTES, run.MEMORY_CAP_BYTES))
    signal.signal(signal.SIGALRM, run._alarm)
    lp = lp_ladder()
    for k, row in lp.items():
        print(f"lp-bounds k={k}: {row['failed']}/{row['attempted']} missed {DEADLINE_S} s, "
              f"p50 {row['p50_ms']:.1f} ms")
    mix = mix_cliff()
    print(f"decide-mix FM cliff: {mix['failed']}/{mix['attempted']} 'X' entries missed "
          f"{DEADLINE_S} s (entries {mix['entries']})")
    stages = stage_curve()
    print(f"lindenbaum: stage {stages['budget'] - 1} took {stages['last_s']:.3f} s, "
          f"{stages['ratio']:.2f}x stage {stages['budget'] - 2}")
    prok = prokhorov_sizes()
    print(f"prokhorov: n=10 p50 {prok['n10_p50_ms']:.1f} ms is {prok['ratio']:.1f}x "
          f"n=8 p50 {prok['n8_p50_ms']:.1f} ms")
    shown = {
        "lp_bounds_fails_only_from_k5": (
            sum(lp[k]["failed"] for k in lp if k >= 5) > 0
            and all(lp[k]["failed"] == 0 for k in lp if k < 5)
        ),
        "decide_mix_fm_cliff": mix["failed"] > 0,
        "lindenbaum_last_stage_2x": stages["ratio"] >= 2,
        "prokhorov_n10_5x_n8": prok["ratio"] >= 5,
    }
    print(json.dumps({"cliffs_shown": shown, "lp_bounds": lp, "decide_mix": mix,
                      "lindenbaum": stages, "prokhorov": prok}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
