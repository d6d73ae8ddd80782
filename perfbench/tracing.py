"""Spans around the public entry points of tepkit's layers.

Each wrapper is set on the attribute its caller looks up (for example
``tepkit.cli.build_tep_model``, not ``tepkit.milp.build_tep_model``), so the
program's own code is unchanged. A span records its name, start, end,
parent span and the scenario code of the request it serves. A wrapped
function that no longer exists is reported as absent, never raised.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from collections.abc import Mapping
from functools import wraps

INT_TOL = 1e-6

# (layer, module, attribute path, span name)
TARGETS = (
    ("network", "tepkit.cli", "load_network", "network.load"),
    ("scenario", "tepkit.cli", "realize_scenario", "scenario.realize"),
    ("thermal", "tepkit.thermal", "derating_factor", "thermal.derate"),
    ("milp", "tepkit.cli", "build_tep_model", "milp.build"),
    ("milp", "tepkit.cli", "generate_valid_inequalities", "milp.cuts"),
    ("model", "tepkit.milp", "check_model", "model.check"),
    ("model", "tepkit.simplex", "check_model", "model.check"),
    ("simplex", "tepkit.simplex", "PreparedLp.__init__", "simplex.compile"),
    ("simplex", "tepkit.simplex", "PreparedLp.solve", "simplex.lp"),
    ("solver", "tepkit.cli", "solve_milp", "solver.milp"),
    ("solver", "tepkit.solver", "check_solution", "solver.verify"),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted path, or None if any part is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _stat(stats, key: str):
    """A field of Solution.stats, whether it is a mapping or an object."""
    try:
        return stats[key] if isinstance(stats, Mapping) else getattr(stats, key)
    except (KeyError, AttributeError):
        return None


class _MilpCall:
    """What the LP wrapper sees inside one solve_milp call."""

    def __init__(self, model, base_rows: int | None, start: float):
        binary = importlib.import_module("tepkit.model").BINARY
        self.binaries = [v.name for v in model.variables if v.kind == binary]
        self.rows = len(model.constraints)
        self.cut_rows = self.rows - base_rows if base_rows is not None else 0
        self.start = start
        self.lp_solves = 0
        self.iterations = 0
        self.root_objective: float | None = None
        self.first_incumbent_s: float | None = None
        self.objective: float | None = None
        self.stats = None


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, request id]
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.layers: dict[str, str] = {}
        self._stack: list[int] = []
        self._request: str | None = None
        self._restore: list[tuple] = []
        self._base_rows: int | None = None
        self._open: list[_MilpCall] = []
        self.calls: list[_MilpCall] = []
        self.lp_iterations = 0
        self.lp_infeasible = 0
        self.tableau_mb = 0.0
        self._before = {
            "scenario.realize": self._before_realize,
            "simplex.compile": self._before_compile,
            "solver.milp": self._before_milp,
        }
        self._after = {
            "milp.build": self._after_build,
            "simplex.lp": self._after_lp,
            "solver.milp": self._after_milp,
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        found: dict[str, list[bool]] = defaultdict(list)
        for layer, module_name, path, span in TARGETS:
            hit = _resolve(module_name, path)
            found[layer].append(hit is not None)
            if hit is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr = hit
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(span, original))
            self._restore.append((owner, attr, original))
        for layer, hits in found.items():
            self.layers[layer] = ("traced" if all(hits)
                                  else "partial" if any(hits) else "absent")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        before = self._before.get(name)
        after = self._after.get(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, self._request]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(result, span[2])
            return result

        return wrapper

    # -- hooks ------------------------------------------------------------

    def _before_realize(self, args, kwargs) -> None:
        self._request = str(_arg(args, kwargs, 0, "code"))

    def _before_compile(self, args, kwargs) -> None:
        model = _arg(args, kwargs, 1, "model")
        m, n = len(model.constraints), len(model.variables)
        # dense tableau m x (n + 2m) of float64; computed, not measured
        self.tableau_mb = max(self.tableau_mb, m * (n + 2 * m) * 8 / 1e6)

    def _before_milp(self, args, kwargs) -> None:
        model = _arg(args, kwargs, 0, "model")
        self._open.append(_MilpCall(model, self._base_rows, time.perf_counter()))

    def _after_build(self, result, end: float) -> None:
        self._base_rows = len(result[0].constraints)

    def _after_lp(self, result, end: float) -> None:
        self.lp_iterations += result.iterations
        if result.status == "infeasible":
            self.lp_infeasible += 1
        if not self._open:
            return
        call = self._open[-1]
        call.lp_solves += 1
        call.iterations += result.iterations
        if result.status != "optimal":
            return
        if call.root_objective is None:
            call.root_objective = result.objective
        if call.first_incumbent_s is None and all(
                abs(result.values[b] - round(result.values[b])) <= INT_TOL
                for b in call.binaries):
            call.first_incumbent_s = end - call.start

    def _after_milp(self, result, end: float) -> None:
        call = self._open.pop()
        call.objective = result.objective
        call.stats = result.stats
        self.calls.append(call)

    # -- results ----------------------------------------------------------

    def check_counts(self) -> list[str]:
        """Mismatches between the traced counts and each solve_milp call's
        own Solution.stats; empty when they agree or the LP layer is gone."""
        if "tepkit.simplex.PreparedLp.solve" in self.absent:
            return []
        problems = []
        for i, call in enumerate(self.calls):
            nodes = _stat(call.stats, "nodes")
            iterations = _stat(call.stats, "simplex_iterations")
            if call.lp_solves != nodes:
                problems.append(f"solve_milp call {i}: {call.lp_solves} LP solves, "
                                f"stats report {nodes} nodes")
            if call.iterations != iterations:
                problems.append(f"solve_milp call {i}: {call.iterations} iterations, "
                                f"stats report {iterations}")
        return problems

    def summary(self, command_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced command. Times are inclusive
        span totals, except the `self` metrics, which subtract child spans."""
        total: dict[str, float] = defaultdict(float)
        count: Counter = Counter()
        child_time: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            count[name] += 1
            if parent is not None:
                child_time[parent] += end - start
        root_time = sum(end - start for _, start, end, parent, _ in self.spans
                        if parent is None)
        bb_self = sum(end - start - child_time[i]
                      for i, (name, start, end, _, _) in enumerate(self.spans)
                      if name == "solver.milp")
        lp_solves = count["simplex.lp"]
        iterations = self.lp_iterations
        gaps = [(c.objective - c.root_objective) / max(1.0, abs(c.objective))
                for c in self.calls
                if c.objective is not None and c.root_objective is not None]
        return {
            "network.load_s": total["network.load"],
            "scenario.realize_s": total["scenario.realize"],
            "scenario.realize_calls": count["scenario.realize"],
            "thermal.derate_calls": count["thermal.derate"],
            "milp.build_s": total["milp.build"],
            "milp.cuts_s": total["milp.cuts"],
            "milp.rows": max((c.rows for c in self.calls), default=0),
            "milp.cut_rows": max((c.cut_rows for c in self.calls), default=0),
            "milp.binaries": max((len(c.binaries) for c in self.calls), default=0),
            "model.check_s": total["model.check"],
            "simplex.compiles": count["simplex.compile"],
            "simplex.compile_s": total["simplex.compile"],
            "simplex.lp_solves": lp_solves,
            "simplex.lp_s": total["simplex.lp"],
            "simplex.iterations": iterations,
            "simplex.iters_per_lp": iterations / lp_solves if lp_solves else 0.0,
            "simplex.us_per_iter": 1e6 * total["simplex.lp"] / iterations if iterations else 0.0,
            "simplex.infeasible_share": self.lp_infeasible / lp_solves if lp_solves else 0.0,
            "simplex.tableau_mb": self.tableau_mb,
            "solver.milp_s": total["solver.milp"],
            "solver.bb_self_s": bb_self,
            "solver.nodes": sum(_stat(c.stats, "nodes") or 0 for c in self.calls),
            "solver.verify_s": total["solver.verify"],
            "solver.first_incumbent_s": sum(c.first_incumbent_s or 0.0 for c in self.calls),
            "solver.root_gap": sum(gaps) / len(gaps) if gaps else 0.0,
            "cli.self_s": command_s - root_time,
        }
