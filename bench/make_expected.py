"""Build the committed expected-answers files under bench/expected/.

    python3 bench/make_expected.py [decide_mix] [lindenbaum] [prokhorov]

Each answer is computed by `probnext` and cross-checked once, here:

* decide-mix: a SAT verdict's witness must validate and check; an UNSAT
  verdict must survive a refutation search over `random_model` models; an
  axiom instance must be derivable and hold in random models.  An entry that
  exceeds BUILD_DEADLINE_S is stored as 'X' (no verified answer).
* lindenbaum: every prefix is built twice, in two fresh interpreters, and the
  decided bits and extras must agree.
* prokhorov: prokhorov(mu, nu) must equal prokhorov(nu, mu) and lie in [0, 1].

Work is split over two worker processes, each task in a fresh interpreter.
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import signal
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402

MIX_POOL = 100_000
MIX_CHUNK = 2_500
BUILD_DEADLINE_S = 5
REFUTATION_MODELS = 200
SOUNDNESS_MODELS = 20
PROKHOROV_POOL = 8
WORKERS = 2


class Deadline(BaseException):
    pass


def _alarm(signum, frame):
    raise Deadline()


def _worker_init():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    signal.signal(signal.SIGALRM, _alarm)


def mix_chunk(start: int, stop: int) -> str:
    import probnext

    models = [
        probnext.random_model(90_000 + i, 1 + i % 4, inputs.MIX_PROPS, 4)
        for i in range(REFUTATION_MODELS)
    ]
    out = []
    for index in range(start, stop):
        kind, text = inputs.mix_entry(index)
        f = probnext.parse(text)
        signal.setitimer(signal.ITIMER_REAL, BUILD_DEADLINE_S)
        try:
            if kind == "derives":
                answer = "V" if probnext.derives([], f) else "N"
            else:
                answer = "S" if probnext.sat_status(f) else "U"
                witness = probnext.witness(f) if answer == "S" else None
        except (Deadline, MemoryError):
            out.append("X")
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if answer == "N":
            raise AssertionError(f"axiom instance not derivable: {text}")
        if answer == "V":
            for m in models[:SOUNDNESS_MODELS]:
                if m.extension(f) != frozenset(m.worlds):
                    raise AssertionError(f"axiom instance fails in a model: {text}")
        elif answer == "S":
            model, root = witness
            if model.validate() != [] or not model.check(root, f):
                raise AssertionError(f"witness does not check: {text}")
        else:
            for m in models:
                if m.extension(f):
                    raise AssertionError(f"UNSAT verdict refuted by a model: {text}")
        out.append(answer)
    return "".join(out)


def lindenbaum_prefix(seed: str, budget: int) -> dict:
    import probnext

    w = probnext.lindenbaum(probnext.parse(seed), budget)
    return {
        "seed": seed,
        "decided": "".join("1" if bit else "0" for bit in w.decided),
        "extras": {
            str(rec.index): probnext.render(rec.extra)
            for rec in w.stage_log
            if rec.extra is not None
        },
    }


def prokhorov_value(n: int, index: int) -> str:
    import probnext

    points, mu, nu, distance = inputs.prokhorov_instance(n, index)
    m1 = probnext.FiniteMeasure(points, mu, distance)
    m2 = probnext.FiniteMeasure(points, nu, distance)
    d = probnext.prokhorov(m1, m2)
    if d != probnext.prokhorov(m2, m1) or not 0 <= d <= 1:
        raise AssertionError(f"prokhorov instance {n}/{index} fails symmetry or range")
    return f"{d.numerator}/{d.denominator}"


def _pool():
    ctx = multiprocessing.get_context("spawn")
    return ctx.Pool(WORKERS, initializer=_worker_init, maxtasksperchild=1)


def build_decide_mix(pool) -> dict:
    tasks = [(s, min(s + MIX_CHUNK, MIX_POOL)) for s in range(0, MIX_POOL, MIX_CHUNK)]
    verdicts = "".join(pool.starmap(mix_chunk, tasks, chunksize=1))
    return {
        "pool": MIX_POOL,
        "build_deadline_s": BUILD_DEADLINE_S,
        "counts": {v: verdicts.count(v) for v in "SUVX"},
        "sentinels": {str(i): inputs.mix_entry(i)[1] for i in (0, 1, 2, MIX_POOL - 1)},
        "verdicts": verdicts,
    }


def build_lindenbaum(pool) -> dict:
    seeds = inputs.lindenbaum_seeds()
    tasks = [(s, inputs.LINDENBAUM_BUDGET) for s in seeds]
    first = pool.starmap(lindenbaum_prefix, tasks)
    second = pool.starmap(lindenbaum_prefix, tasks)
    if first != second:
        raise AssertionError("staged construction differs between two interpreters")
    return {"budget": inputs.LINDENBAUM_BUDGET, "seeds": first}


def build_prokhorov(pool) -> dict:
    values = {}
    for n in inputs.PROKHOROV_SIZES:
        values[str(n)] = pool.starmap(prokhorov_value, [(n, i) for i in range(PROKHOROV_POOL)])
    return {"values": values}


EXPECTED_FILES = {
    "decide_mix": build_decide_mix,
    "lindenbaum": build_lindenbaum,
    "prokhorov": build_prokhorov,
}


def main(names) -> None:
    out_dir = BENCH / "expected"
    out_dir.mkdir(exist_ok=True)
    with _pool() as pool:
        for name in names or EXPECTED_FILES:
            data = EXPECTED_FILES[name](pool)
            with open(out_dir / f"{name}.json", "w") as fh:
                json.dump(data, fh, indent=1)
                fh.write("\n")
            print(f"wrote expected/{name}.json")


if __name__ == "__main__":
    main(sys.argv[1:])
