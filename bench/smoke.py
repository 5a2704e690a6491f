"""Self-test of the benchmark at tiny size.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json for a fraction of a second, untraced
and traced, each in a fresh interpreter, and checks the result line: exactly
the keys correct/attempted/failed/metrics, every output correct, no failed
op, and exactly the metric names and units BENCHMARK.json declares for that
mode.  Then copies only BENCHMARK.json and bench/ into .bench_smoke/ and
checks that the benchmark exits non-zero there without printing a result,
since the program it measures is missing.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SECONDS = "0.3"


def result_line(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_result(row, declared: list[dict]) -> list[str]:
    problems = []
    if row is None:
        return ["no JSON result line"]
    if set(row) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(row)}")
        return problems
    if row["correct"] is not True:
        problems.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(row[key], int) or isinstance(row[key], bool):
            problems.append(f"{key} is not a whole number")
    if row["attempted"] < 1 or row["failed"] != 0:
        problems.append(f"attempted={row['attempted']} failed={row['failed']}")
    want = {m["name"]: m["unit"] for m in declared}
    got = row["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        if set(entry) != {"value", "unit"}:
            problems.append(f"{name}: keys {sorted(entry)}")
            continue
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if name in want and entry["unit"] != want[name]:
            problems.append(f"{name}: unit {entry['unit']!r}, declared {want[name]!r}")
    return problems


def run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = run(ROOT, workload, trace)
            problems = [f"exit code {out.returncode}"] if out.returncode else []
            problems += check_result(result_line(out.stdout), declared)
            failures += bool(problems)
            status = "PASS" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}")
            if problems:
                sys.stderr.write(out.stderr[-2000:])

    bare = ROOT / ".bench_smoke"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        out = run(bare, spec["workloads"][0]["name"], 0)
        ok = out.returncode != 0 and result_line(out.stdout) is None
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    failures += not ok
    print(f"without the program: {'PASS' if ok else 'FAIL'} (exit code {out.returncode})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
