"""The benchmark's per-layer tracer, `bench/tracer.py`, run on the package
as it is: it finds the functions it spans by name, so a rename of one of
them fails here as well as in `bench/smoke.py`."""

import importlib.util
import random
from pathlib import Path

from probnext import decide, parse

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_spans_the_step_layer_of_an_lp_bounds_query():
    f = parse(_bench_module("inputs").lp_bounds_text(random.Random("lp-bounds/0")))
    decide.clear_caches()
    tracer = _bench_module("tracer").Tracer()
    tracer.install()
    try:
        verdict = decide.sat(f)
        found = decide.witness(f)
    finally:
        tracer.uninstall()
    assert verdict.status == "SAT" and found is not None
    assert tracer.calls["decide.world_sat"] > 0
    assert tracer.calls["decide.group_steps"] > 0
    assert tracer.calls["decide.witness"] == 1
    # the witness builds from the plans the verdict's search found
    assert tracer.calls["decide.to_disjuncts"] == 1
    assert tracer.calls["decide.world_sat"] == 1
    metrics = tracer.layer_metrics(1)
    assert metrics["decide.world_sat.calls"] == tracer.calls["decide.world_sat"]
    assert metrics["models.witness_worlds"] == len(found[0].worlds)
    # uninstall puts the cached functions back
    assert decide.world_sat.cache_info().misses > 0
    assert decide.sat_status.cache_info().misses > 0
