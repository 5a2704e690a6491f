"""Per-layer spans recorded from outside the package.

`Tracer.install()` replaces each traced public function with a wrapper in
every loaded `probnext` module that holds it, so calls made inside the
package (for example `canonical` and `proof` calling their own binding of
`sat_status`) are traced as well.  `uninstall()` puts the originals back.

A span's self time is its duration minus the durations of its direct child
spans.  Self times are summed per span name as spans close; the spans
themselves are not kept.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.lp_vars: list[int] = []
        self.lp_rows_max = 0
        self.witness_worlds: list[int] = []
        self.witness_den_max = 0
        self.top_s = 0.0  # time inside outermost spans
        self.cache_hits = 0  # of sat_status, from its cache_info()
        self.cache_misses = 0
        self._stack: list[list] = []  # [name, time of direct children]
        self._in_push_next = False
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        stack = self._stack

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.self_s[name] += elapsed - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_s += elapsed
            if observe is not None:
                observe(parent, args, result)
            return result

        return span

    def _wrap_outermost(self, name, fn):
        """Span only the outermost call of a recursive function."""
        traced = self._wrap(name, fn)

        def span(*args, **kwargs):
            if self._in_push_next:
                return fn(*args, **kwargs)
            self._in_push_next = True
            try:
                return traced(*args, **kwargs)
            finally:
                self._in_push_next = False

        return span

    # -- observers (counts taken at the layer boundary) -----------------------

    def _on_disjuncts(self, parent, args, result):
        self.counts["disjuncts"] += len(result)

    def _on_sat_status(self, parent, args, result):
        if parent == "decide.world_sat":
            self.counts["cells_tried"] += 1
            self.counts["cells_sat"] += bool(result)

    def _on_solve(self, parent, args, result):
        system = args[0]
        self.lp_vars.append(system.num_vars)
        self.lp_rows_max = max(self.lp_rows_max, len(system.constraints))
        self.counts["lp_infeasible"] += result is None

    def _on_witness(self, parent, args, result):
        if result is None:
            return
        model, _ = result
        self.witness_worlds.append(len(model.worlds))
        for row in model.kernel.values():
            for mass in row.values():
                self.witness_den_max = max(self.witness_den_max, mass.denominator)

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "probnext" and not mod_name.startswith("probnext."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper) -> None:
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        # `probnext.prokhorov` is the function; the module is reached by name.
        mod = {
            name: importlib.import_module(f"probnext.{name}")
            for name in (
                "parser", "decide", "linarith", "models", "proof",
                "canonical", "enumeration", "prokhorov",
            )
        }
        self.sat_status_original = mod["decide"].sat_status
        functions = [
            ("parser", "parse", "parser.parse", None),
            ("decide", "to_disjuncts", "decide.to_disjuncts", self._on_disjuncts),
            ("decide", "group_steps", "decide.group_steps", None),
            ("decide", "world_sat", "decide.world_sat", None),
            ("decide", "sat_status", "decide.sat_status", self._on_sat_status),
            ("decide", "witness", "decide.witness", self._on_witness),
            ("linarith", "solve", "linarith.solve", self._on_solve),
            ("proof", "derives", "proof.derives", None),
            ("enumeration", "enum_formula", "enumeration.enum_formula", None),
            ("prokhorov", "prokhorov", "prokhorov.prokhorov", None),
        ]
        for module, attr, name, observe in functions:
            original = getattr(mod[module], attr)
            self._replace_everywhere(original, self._wrap(name, original, observe))
        push_next = mod["decide"].push_next
        self._replace_everywhere(
            push_next, self._wrap_outermost("decide.push_next", push_next)
        )
        dmm = mod["models"].FiniteDMM
        self._replace_method(dmm, "check", self._wrap("models.check", dmm.check))
        self._replace_method(dmm, "validate", self._wrap("models.validate", dmm.validate))
        prefix = mod["canonical"].SaturatedPrefix
        self._replace_method(
            prefix, "extend", self._wrap("canonical.extend", prefix.extend)
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        info = self.sat_status_original.cache_info()
        self.cache_hits += info.hits
        self.cache_misses += info.misses

    # -- transfer from a traced child interpreter -----------------------------

    def state(self) -> dict:
        return {
            "self_s": dict(self.self_s), "calls": dict(self.calls),
            "counts": dict(self.counts), "lp_vars": self.lp_vars,
            "lp_rows_max": self.lp_rows_max, "witness_worlds": self.witness_worlds,
            "witness_den_max": self.witness_den_max, "top_s": self.top_s,
            "cache_hits": self.cache_hits, "cache_misses": self.cache_misses,
        }

    def merge(self, state: dict) -> None:
        for name, value in state["self_s"].items():
            self.self_s[name] += value
        self.calls.update(state["calls"])
        self.counts.update(state["counts"])
        self.lp_vars.extend(state["lp_vars"])
        self.witness_worlds.extend(state["witness_worlds"])
        self.lp_rows_max = max(self.lp_rows_max, state["lp_rows_max"])
        self.witness_den_max = max(self.witness_den_max, state["witness_den_max"])
        self.top_s += state["top_s"]
        self.cache_hits += state["cache_hits"]
        self.cache_misses += state["cache_misses"]

    # -- results -------------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer values; self times and counts are per op of the run.

        A layer the workload never reaches reads 0.
        """
        out = {
            f"{name}.self_s": self.self_s[name] / ops
            for name in (
                "parser.parse", "decide.push_next", "decide.to_disjuncts",
                "decide.group_steps", "decide.world_sat", "decide.sat_status",
                "decide.witness", "linarith.solve", "models.check",
                "models.validate", "proof.derives", "canonical.extend",
                "enumeration.enum_formula", "prokhorov.prokhorov",
            )
        }
        tried = self.counts["cells_tried"]
        lookups = self.cache_hits + self.cache_misses
        solves = self.calls["linarith.solve"]
        out.update(
            {
                "decide.disjuncts": self.counts["disjuncts"] / ops,
                "decide.world_sat.calls": self.calls["decide.world_sat"] / ops,
                "decide.cells_tried": tried / ops,
                "decide.cells_sat_ratio": self.counts["cells_sat"] / tried if tried else 0,
                "decide.sat_status.hit_ratio": self.cache_hits / lookups if lookups else 0,
                "linarith.solve.calls": solves / ops,
                "linarith.lp_vars_p50": statistics.median(self.lp_vars) if self.lp_vars else 0,
                "linarith.lp_vars_max": max(self.lp_vars, default=0),
                "linarith.lp_rows_max": self.lp_rows_max,
                "linarith.infeasible_ratio": (
                    self.counts["lp_infeasible"] / solves if solves else 0
                ),
                "models.witness_worlds": (
                    statistics.mean(self.witness_worlds) if self.witness_worlds else 0
                ),
                "models.witness_den_max": self.witness_den_max,
            }
        )
        return out
