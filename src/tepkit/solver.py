"""MILP engine: branch and bound over the bounded simplex, an exhaustive
oracle for small instances, and an independent solution checker.

Every returned solution is re-verified against the original model by a
plain-arithmetic evaluator that shares no code with the simplex, so an
engine bug surfaces as a loud error instead of a wrong answer.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field, replace

from .model import BINARY, CONTINUOUS, Model, SENSE_EQ, SENSE_GE, SENSE_LE
from .simplex import (
    Basis,
    PreparedLp,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    STATUS_UNBOUNDED,
)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
GAP_LIMIT = "gap_limit"
TIME_LIMIT = "time_limit"
NODE_LIMIT = "node_limit"

_INT_TOL = 1e-6
_BRUTE_FORCE_MAX_BINARIES = 24


class SolverError(RuntimeError):
    """Internal inconsistency: the engine produced a point that fails
    independent verification."""


@dataclass(frozen=True)
class SolveOptions:
    rel_gap_tol: float = 1e-6
    feas_tol: float = 1e-7
    time_limit_s: float | None = None
    node_limit: int | None = None

    def __post_init__(self):
        if self.rel_gap_tol < 0.0:
            raise ValueError("rel_gap_tol must be nonnegative")
        if self.feas_tol <= 0.0:
            raise ValueError("feas_tol must be positive")
        if self.time_limit_s is not None and self.time_limit_s <= 0.0:
            raise ValueError("time_limit_s must be positive")
        if self.node_limit is not None and self.node_limit <= 0:
            raise ValueError("node_limit must be positive")


@dataclass(frozen=True)
class Solution:
    status: str
    objective: float | None
    best_bound: float | None
    values: dict[str, float] = field(default_factory=dict)
    stats: dict[str, float] = field(default_factory=dict)
    # final basis of the root LP: a start for a model with the same columns
    # and rows, such as another scenario of the same network
    root_basis: Basis | None = None


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    violations: tuple[str, ...]
    objective: float


def check_solution(
    model: Model,
    values: dict[str, float],
    *,
    feas_tol: float = 1e-6,
    int_tol: float = _INT_TOL,
) -> CheckReport:
    """Evaluate a point against the model with plain sums, independent of
    any solver internals."""
    violations: list[str] = []
    for v in model.variables:
        if v.name not in values:
            violations.append(f"no value for variable {v.name}")
            continue
        x = values[v.name]
        tol = feas_tol * max(1.0, abs(x))
        if x < v.lower - tol or x > v.upper + tol:
            violations.append(f"{v.name} = {x} outside bounds [{v.lower}, {v.upper}]")
        if v.kind == BINARY and abs(x - round(x)) > int_tol:
            violations.append(f"{v.name} = {x} is not integral")
    for con in model.constraints:
        activity = 0.0
        missing = False
        for name, coef in con.terms:
            if name not in values:
                missing = True
                break
            activity += coef * values[name]
        if missing:
            continue
        tol = feas_tol * max(1.0, abs(con.rhs), abs(activity))
        if con.sense == SENSE_LE and activity > con.rhs + tol:
            violations.append(f"{con.name}: {activity} > {con.rhs}")
        elif con.sense == SENSE_GE and activity < con.rhs - tol:
            violations.append(f"{con.name}: {activity} < {con.rhs}")
        elif con.sense == SENSE_EQ and abs(activity - con.rhs) > tol:
            violations.append(f"{con.name}: {activity} != {con.rhs}")
    objective = model.objective_constant
    for name, coef in model.objective_terms:
        objective += coef * values.get(name, 0.0)
    return CheckReport(not violations, tuple(violations), objective)


def _verified(model: Model, solution: Solution, feas_tol: float) -> Solution:
    if solution.status not in (OPTIMAL, TIME_LIMIT, NODE_LIMIT) or not solution.values:
        return solution
    report = check_solution(model, solution.values, feas_tol=feas_tol * 100.0)
    if not report.ok:
        raise SolverError(
            "solution failed independent verification: " + "; ".join(report.violations[:5])
        )
    if solution.objective is not None:
        scale = max(1.0, abs(report.objective))
        if abs(report.objective - solution.objective) > 1e-9 * scale:
            raise SolverError(
                f"objective mismatch: engine {solution.objective}, re-evaluated {report.objective}"
            )
    return solution


def _tie_tol(reference: float) -> float:
    return 1e-9 * max(1.0, abs(reference))


def _deadline(started: float, options: SolveOptions) -> float | None:
    if options.time_limit_s is None:
        return None
    return started + options.time_limit_s


def solve_lp(
    model: Model, options: SolveOptions | None = None, *, start: Basis | None = None
) -> Solution:
    """Solve the continuous relaxation (binaries become their [0, 1] box)."""
    opts = options or SolveOptions()
    started = time.monotonic()
    result = PreparedLp(model).solve(
        feas_tol=opts.feas_tol, start=start, deadline=_deadline(started, opts)
    )
    wall = time.monotonic() - started
    stats = {"nodes": 0, "simplex_iterations": result.iterations, "wall_s": wall}
    status = {
        STATUS_INFEASIBLE: INFEASIBLE,
        STATUS_UNBOUNDED: UNBOUNDED,
        STATUS_TIME_LIMIT: TIME_LIMIT,
    }.get(result.status)
    if status is not None:
        return Solution(status, None, None, {}, stats, result.basis)
    sol = Solution(
        OPTIMAL, result.objective, result.objective, result.values, stats, result.basis
    )
    relaxed = replace(
        model,
        variables=tuple(
            v if v.kind != BINARY else replace(v, kind=CONTINUOUS) for v in model.variables
        ),
    )
    return _verified(relaxed, sol, opts.feas_tol)


class _StopSearch(Exception):
    """A limit ended the search while the node with this bound was open."""

    def __init__(self, status: str, bound: float):
        self.status = status
        self.bound = bound


class _Unbounded(Exception):
    pass


_Fixings = tuple[tuple[str, int], ...]


def _better(objective: float, vec: tuple[int, ...], best_obj: float | None,
            best_vec: tuple[int, ...] | None) -> bool:
    """Whether a point beats the best so far; exact objective ties go to the
    lexicographically smallest binary vector."""
    if best_obj is None:
        return True
    tol = _tie_tol(best_obj)
    if objective < best_obj - tol:
        return True
    return objective <= best_obj + tol and vec < best_vec


class _BranchAndBound:
    def __init__(self, model: Model, options: SolveOptions):
        self.model = model
        self.options = options
        self.prep = PreparedLp(model)
        self.binary_names = [v.name for v in model.binaries()]
        # open nodes: (bound, push order, fixings, the parent's final basis)
        self.heap: list[tuple[float, int, _Fixings, Basis | None]] = []
        self.push_count = 0
        self.root_basis: Basis | None = None
        self.incumbent_obj: float | None = None
        self.incumbent_vec: tuple[int, ...] | None = None
        self.incumbent_values: dict[str, float] = {}
        self.nodes = 0
        self.iterations = 0
        self.start = time.monotonic()
        self.deadline = _deadline(self.start, options)
        self.stop_bound: float | None = None
        self.interrupted_bound = math.inf

    # -- bookkeeping --------------------------------------------------------

    def _check_limits(self, bound: float) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _StopSearch(TIME_LIMIT, bound)
        if self.options.node_limit is not None and self.nodes >= self.options.node_limit:
            raise _StopSearch(NODE_LIMIT, bound)

    def _push(self, bound: float, fixings: _Fixings, basis: Basis | None) -> None:
        heapq.heappush(self.heap, (bound, self.push_count, fixings, basis))
        self.push_count += 1

    def _offer_incumbent(self, objective: float, values: dict[str, float]) -> None:
        vec = tuple(int(round(values[name])) for name in self.binary_names)
        if _better(objective, vec, self.incumbent_obj, self.incumbent_vec):
            self.incumbent_obj = objective
            self.incumbent_vec = vec
            self.incumbent_values = values

    def _most_fractional(self, values: dict[str, float]) -> str | None:
        best_name = None
        best_frac = _INT_TOL
        for name in self.binary_names:
            frac = abs(values[name] - round(values[name]))
            if frac > best_frac:
                best_frac = frac
                best_name = name
        return best_name

    # -- search -------------------------------------------------------------

    def _dive(self, fixings: _Fixings, bound: float, basis: Basis | None) -> None:
        """Solve the node from `basis`, then plunge depth-first on the
        rounded child, pushing the sibling, until the dive dies or yields an
        incumbent. Each LP starts from its parent's final basis."""
        while True:
            self._check_limits(bound)
            overrides = {name: (float(v), float(v)) for name, v in fixings}
            result = self.prep.solve(
                overrides, feas_tol=self.options.feas_tol, start=basis, deadline=self.deadline
            )
            self.nodes += 1
            self.iterations += result.iterations
            if not fixings:
                self.root_basis = result.basis
            if result.status == STATUS_TIME_LIMIT:
                raise _StopSearch(TIME_LIMIT, bound)
            if result.status == STATUS_INFEASIBLE:
                return
            if result.status == STATUS_UNBOUNDED:
                raise _Unbounded()
            objective = result.objective
            bound = max(bound, objective)
            if self.incumbent_obj is not None and objective > self.incumbent_obj + _tie_tol(
                self.incumbent_obj
            ):
                return
            branch_name = self._most_fractional(result.values)
            if branch_name is None:
                self._offer_incumbent(objective, result.values)
                return
            preferred = 1 if result.values[branch_name] >= 0.5 else 0
            basis = result.basis
            self._push(bound, fixings + ((branch_name, 1 - preferred),), basis)
            fixings = fixings + ((branch_name, preferred),)

    def run(self, start: Basis | None) -> Solution:
        status = OPTIMAL
        try:
            self._push(-math.inf, (), start)
            while self.heap:
                bound, _, fixings, basis = heapq.heappop(self.heap)
                if self.incumbent_obj is not None:
                    tol = _tie_tol(self.incumbent_obj)
                    if bound > self.incumbent_obj + tol:
                        break  # best-bound order: every open node is worse
                    gap_abs = self.options.rel_gap_tol * max(1.0, abs(self.incumbent_obj))
                    if bound < self.incumbent_obj - tol and self.incumbent_obj - bound <= gap_abs:
                        # remaining improvement is inside the accepted gap;
                        # exact ties are never abandoned this way
                        self.stop_bound = bound
                        break
                self._dive(fixings, bound, basis)
        except _StopSearch as stop:
            status = stop.status
            self.interrupted_bound = stop.bound
        except _Unbounded:
            return self._finish(UNBOUNDED)
        return self._finish(status)

    def _open_bound(self) -> float:
        """Lowest bound over the open nodes, the interrupted one included."""
        return min([b for b, _, _, _ in self.heap] + [self.interrupted_bound])

    def _finish(self, status: str) -> Solution:
        wall = time.monotonic() - self.start
        stats = {"nodes": self.nodes, "simplex_iterations": self.iterations, "wall_s": wall}
        basis = self.root_basis
        if status == UNBOUNDED:
            return Solution(UNBOUNDED, None, None, {}, stats, basis)
        if self.incumbent_obj is None:
            if status == OPTIMAL:
                return Solution(INFEASIBLE, None, None, {}, stats, basis)
            open_bound = self._open_bound()
            # the root has no bound until its LP is solved
            open_bound = open_bound if math.isfinite(open_bound) else None
            return Solution(status, None, open_bound, {}, stats, basis)
        if status == OPTIMAL:
            best_bound = self.stop_bound if self.stop_bound is not None else self.incumbent_obj
        else:
            best_bound = min(self.incumbent_obj, self._open_bound())
        return Solution(
            status, self.incumbent_obj, best_bound, self.incumbent_values, stats, basis
        )


def solve_milp(
    model: Model, options: SolveOptions | None = None, *, start: Basis | None = None
) -> Solution:
    """Branch and bound with best-bound node selection, most-fractional
    branching (ties to the lowest variable index), and a depth-first plunge
    after every branching. Exact objective ties are resolved to the
    lexicographically smallest binary vector, matching brute_force_solve.

    The root LP starts from `start`, for example the `root_basis` of another
    scenario of the same network (the slack basis by default); every other
    node starts from its parent's final basis."""
    opts = options or SolveOptions()
    if not any(v.kind == BINARY for v in model.variables):
        return solve_lp(model, opts, start=start)
    solution = _BranchAndBound(model, opts).run(start)
    return _verified(model, solution, opts.feas_tol)


def brute_force_solve(model: Model) -> Solution:
    """Enumerate every binary assignment in Gray-code order, so that each
    differs from the one before in one binary and its LP starts from the
    previous LP's final basis, and keep the best; exact ties go to the
    lexicographically smallest assignment. Verification oracle only."""
    binaries = [v.name for v in model.binaries()]
    k = len(binaries)
    if k > _BRUTE_FORCE_MAX_BINARIES:
        raise ValueError(f"{k} binaries exceed the enumeration limit of {_BRUTE_FORCE_MAX_BINARIES}")
    start = time.monotonic()
    if k == 0:
        return solve_lp(model)
    prep = PreparedLp(model)
    best_obj: float | None = None
    best_vec: tuple[int, ...] | None = None
    best_values: dict[str, float] = {}
    iterations = 0
    feasible = 0
    basis = None
    for i in range(1 << k):
        gray = i ^ (i >> 1)
        bits = tuple((gray >> (k - 1 - j)) & 1 for j in range(k))
        overrides = {name: (float(b), float(b)) for name, b in zip(binaries, bits)}
        result = prep.solve(overrides, start=basis)
        basis = result.basis
        iterations += result.iterations
        if result.status == STATUS_UNBOUNDED:
            wall = time.monotonic() - start
            stats = {
                "nodes": i + 1,
                "simplex_iterations": iterations,
                "wall_s": wall,
            }
            return Solution(UNBOUNDED, None, None, {}, stats)
        if result.status != STATUS_OPTIMAL:
            continue
        feasible += 1
        if _better(result.objective, bits, best_obj, best_vec):
            best_obj = result.objective
            best_vec = bits
            best_values = result.values
    wall = time.monotonic() - start
    stats = {
        "nodes": 1 << k,
        "simplex_iterations": iterations,
        "wall_s": wall,
        "feasible_assignments": feasible,
    }
    if best_obj is None:
        return Solution(INFEASIBLE, None, None, {}, stats)
    solution = Solution(OPTIMAL, best_obj, best_obj, best_values, stats)
    return _verified(model, solution, 1e-7)


def format_solution(solution: Solution) -> str:
    """Render a solution as comment headers plus one `variable value` line
    per variable, fit for cross-checking against external solvers."""
    lines = [f"# status {solution.status}"]
    if solution.objective is not None:
        lines.append(f"# objective {solution.objective!r}")
    if solution.best_bound is not None:
        lines.append(f"# best_bound {solution.best_bound!r}")
    for name in sorted(solution.values):
        lines.append(f"{name} {solution.values[name]!r}")
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> dict[str, float]:
    """Read `variable value` lines; blank lines and `#` comments are skipped."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'variable value', got {raw!r}")
        try:
            values[parts[0]] = float(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad numeric value {parts[1]!r}") from exc
    return values
