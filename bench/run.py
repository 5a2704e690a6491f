"""Benchmark runner for probnext.

    python3 bench/run.py --workload decide-mix --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop with one client, from a cold start, for
about `--seconds` of wall time, checking every output.  Op latencies are
reported at a fixed reference speed (see speed.py).  With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it first runs the same
workload untraced in a fresh interpreter for half the time, then repeats
exactly that many ops with per-layer spans, and reports the per-layer
metrics.  The last line of standard output is one JSON object.

`--all` runs every workload untraced and prints one row per workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from itertools import islice
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import speed  # noqa: E402

MEMORY_CAP_BYTES = 3 << 30
SETUP_SAMPLES = 15

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class OpDeadline(BaseException):
    """Raised by SIGALRM inside an op; a BaseException so no handler in the
    library can swallow it."""


def _alarm(signum, frame):
    raise OpDeadline()


def setup_seconds() -> float:
    """Median time of a cold `import probnext`, each in a fresh interpreter,
    at reference speed: scaled by two reference slices just after it (not
    before, since the slices import `fractions`, which probnext imports)."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:3]; "
        "t = time.perf_counter(); import probnext; t = time.perf_counter() - t; "
        "import speed; speed.reference_work(); "
        "print(t * 2 * speed.REFERENCE_S / (speed.slice_s() + speed.slice_s()))"
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = 0
        self.latencies: list[float] = []  # per op; at reference speed once scaled
        self.tags: list[str | None] = []  # per op
        self.raw_wall = 0.0  # wall time of all ops, as measured
        self.rss_kb = 0
        self.group_rss_kb: list[int] = []  # peak of each fresh-interpreter group

    @property
    def by_tag(self) -> defaultdict[str, list[float]]:
        tagged = defaultdict(list)
        for tag, elapsed in zip(self.tags, self.latencies):
            if tag is not None:
                tagged[tag].append(elapsed)
        return tagged

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted, "failed": self.failed, "wrong": self.wrong,
            "errors": self.errors, "latencies": self.latencies, "tags": self.tags,
            "raw_wall": self.raw_wall, "rss_kb": self.rss_kb,
        }

    def absorb(self, group: dict) -> None:
        """Add one group's results."""
        self.attempted += group["attempted"]
        self.failed += group["failed"]
        self.wrong += group["wrong"]
        self.errors += group["errors"]
        self.latencies.extend(group["latencies"])
        self.tags.extend(group["tags"])
        self.raw_wall += group["raw_wall"]


def run_group(workload, group, ops_before: int, clock: speed.Calibrated) -> Outcome:
    """Run one group's ops in this interpreter, each under the deadline.
    Latencies are raw; `clock` gets each of them, to scale them later."""
    part = Outcome()
    for op, tag in group:
        part.attempted += 1
        t0 = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, workload.deadline_s)
            try:
                status = "ok" if op() else "wrong"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpDeadline:
            status = "deadline"
        except MemoryError:
            status = "memory"
        except Exception:
            status = "error"
            traceback.print_exc(file=sys.stderr)
        elapsed = perf_counter() - t0
        clock.op(elapsed)
        part.latencies.append(elapsed)
        part.tags.append(tag)
        part.raw_wall += elapsed
        if ops_before + part.attempted == workload.rss_mark:
            part.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if status != "ok":
            part.failed += 1
            part.wrong += status == "wrong"
            part.errors += status == "error"
            print(f"op {ops_before + part.attempted} failed: {status}", file=sys.stderr)
            break  # the rest of the group depends on this op
    return part


def run_group_isolated(name: str, seed: int, index: int, tracer) -> dict:
    """Run group `index` in a fresh interpreter (cold caches, as the CLI)."""
    lines = run_self("--workload", name, "--seed", str(seed), "--group", str(index),
                     "--trace", str(int(tracer is not None)))
    part = json.loads(lines[-1])
    if tracer is not None:
        tracer.merge(part["tracer"])
    return part


def measure(workload, seed: int, seconds: float | None = None,
            max_ops: int | None = None, tracer=None) -> Outcome:
    """Closed loop: run groups until the time (or op count) is used up.  A
    time-limited run stops only at the end of a whole cycle of groups, so
    every run takes the workload's inputs in the same proportions.  One
    clock runs for the whole loop, so its reference slices keep their
    spacing across groups."""
    result = Outcome()
    clock = None if workload.isolated else speed.Calibrated()
    start = perf_counter()
    for index, group in enumerate(workload.groups(seed)):
        if max_ops is not None:
            if result.attempted >= max_ops:
                break
        elif index % workload.cycle == 0 and perf_counter() - start >= seconds:
            break
        if workload.isolated:
            part = run_group_isolated(workload.name, seed, index, tracer)
            workload.counts.update(part["counts"])
            result.group_rss_kb.append(part["rss_kb"])
        else:
            part = run_group(workload, group, result.attempted, clock).to_dict()
            result.rss_kb = result.rss_kb or part["rss_kb"]
        result.absorb(part)
    if clock is not None:
        result.latencies = clock.close()
    if result.group_rss_kb:
        result.rss_kb = statistics.median(result.group_rss_kb)
    if not result.rss_kb:
        result.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def group_main(workload, seed: int, index: int, trace: bool) -> None:
    """Child side of run_group_isolated: one group, result as JSON."""
    group = next(islice(workload.groups(seed), index, None))
    clock = speed.Calibrated()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        part = run_group(workload, group, 0, clock)
    finally:
        if tracer is not None:
            tracer.uninstall()
    part.latencies = clock.close()
    row = part.to_dict()
    row["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    row["counts"] = dict(workload.counts)
    row["tracer"] = tracer.state() if tracer is not None else None
    print(json.dumps(row))


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, outcome: Outcome, setup_s: float) -> dict:
    values = {
        "ops_per_s": (outcome.attempted - outcome.failed) / sum(outcome.latencies),
        "op_p50_ms": statistics.median(outcome.latencies) * 1000,
        "op_tail_ms": percentile(outcome.latencies, workload.tail_pct) * 1000,
        "peak_rss_mb": outcome.rss_kb / 1024,
        "setup_s": setup_s,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (SRC / "probnext").rglob("*.py"))


def per_layer(workload, outcome: Outcome, tracer, untraced_s: float) -> dict:
    values = tracer.layer_metrics(outcome.attempted)
    pairs = list(zip(outcome.by_tag["stage_last"], outcome.by_tag["stage_prev"]))
    values["canonical.stage_last_s"] = (
        statistics.median(last for last, _ in pairs) if pairs else 0
    )
    values["canonical.stage_last_ratio"] = (
        statistics.median(last / prev for last, prev in pairs) if pairs else 0
    )
    values["canonical.case3_stages"] = workload.counts["case3"] / outcome.attempted
    for n in (6, 8, 10):
        lat = outcome.by_tag[f"n{n}"]
        values[f"prokhorov.n{n}.p50_ms"] = statistics.median(lat) * 1000 if lat else 0
    values["src.lines"] = source_lines()
    values["trace.overhead_ratio"] = sum(outcome.latencies) / untraced_s
    values["trace.coverage"] = tracer.top_s / outcome.raw_wall
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio") or name == "trace.coverage":
        return "ratio"
    return "count"


def run_self(*args: str) -> list[str]:
    """Run this script in a fresh interpreter; its standard output lines."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        capture_output=True, text=True, timeout=170,
    )
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(args)} exited with {out.returncode}")
    return out.stdout.strip().splitlines()


def run_untraced_child(workload: str, seed: int, seconds: float) -> dict:
    lines = run_self("--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0", "--op-wall")
    return {"op_wall": float(lines[-2]), **json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, one row each")
    # internal: one group in a fresh interpreter, and the untraced half of --trace 1
    parser.add_argument("--group", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--op-wall", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    signal.signal(signal.SIGALRM, _alarm)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    if args.group is not None:
        group_main(workload, args.seed, args.group, bool(args.trace))
        return 0

    if args.trace:
        from tracer import Tracer

        child = run_untraced_child(args.workload, args.seed, args.seconds / 2)
        tracer = Tracer()
        if workload.isolated:
            outcome = measure(workload, args.seed, max_ops=child["attempted"], tracer=tracer)
        else:
            tracer.install()
            try:
                outcome = measure(workload, args.seed, max_ops=child["attempted"])
            finally:
                tracer.uninstall()
        metrics = per_layer(workload, outcome, tracer, child["op_wall"])
        correct = child["correct"]
    else:
        setup_s = setup_seconds()
        outcome = measure(workload, args.seed, seconds=args.seconds)
        metrics = end_to_end(workload, outcome, setup_s)
        correct = True
    correct = correct and outcome.wrong == 0 and outcome.errors == 0
    print(
        f"# {workload.name} seed={args.seed}: {outcome.attempted} ops, "
        f"{outcome.failed} failed, op_tail_ms is p{workload.tail_pct} "
        f"of {len(outcome.latencies)} samples; host ran at "
        f"{sum(outcome.latencies) / outcome.raw_wall:.3f}x reference speed"
    )
    if args.op_wall:
        print(repr(sum(outcome.latencies)))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """One fresh interpreter per workload; one row per workload."""
    from workloads import WORKLOADS

    names = list(END_TO_END_UNITS)
    print(f"{'workload':<12} {'ok':>3} {'attempted':>9} {'failed':>6} "
          + " ".join(f"{n + ' [' + END_TO_END_UNITS[n] + ']':>18}" for n in names))
    all_ok = True
    for workload in WORKLOADS:
        try:
            lines = run_self("--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0")
        except RuntimeError as exc:
            print(f"{workload:<12} {exc}")
            all_ok = False
            continue
        row = json.loads(lines[-1])
        ok = row["correct"] and row["failed"] == 0
        all_ok = all_ok and ok
        print(f"{workload:<12} {'yes' if ok else 'NO':>3} {row['attempted']:>9} {row['failed']:>6} "
              + " ".join(f"{row['metrics'][n]['value']:>18.6g}" for n in names))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
