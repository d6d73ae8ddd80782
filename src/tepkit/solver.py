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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .model import BINARY, Model, ModelError, SENSE_EQ, SENSE_GE, SENSE_LE
from .simplex import (
    PreparedLp,
    STATUS_CUTOFF,
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    SimplexError,
    Tableau,
    branch_bounds,
)

_INT_TOL = 1e-6
_VERIFY_TOL = 1e-5
_BRUTE_FORCE_MAX_BINARIES = 24
# the most bytes of B^-1*A the open nodes of one search may hold; a sibling
# pushed past it keeps a copy of its parent's solve without B^-1*A
_OPEN_TABLEAU_BYTES = 64 << 20


class SolverError(RuntimeError):
    """Internal inconsistency: the engine produced a point that fails
    independent verification."""


@dataclass(frozen=True)
class SolveOptions:
    rel_gap_tol: float = 1e-6
    time_limit_s: float | None = None

    def __post_init__(self):
        # written so that NaN fails each test
        if not self.rel_gap_tol >= 0.0:
            raise ValueError("rel_gap_tol must be nonnegative")
        if self.time_limit_s is not None and not self.time_limit_s > 0.0:
            raise ValueError("time_limit_s must be positive")


@dataclass(frozen=True)
class Solution:
    status: str
    objective: float | None
    best_bound: float | None
    values: dict[str, float] = field(default_factory=dict)
    stats: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    violations: tuple[str, ...]
    objective: float


def _row_tol(feas_tol: float, rhs: float, activity: float) -> float:
    return feas_tol * max(1.0, abs(rhs), abs(activity))


def check_solution(
    model: Model, values: dict[str, float], *, feas_tol: float = 1e-6
) -> CheckReport:
    """Evaluate a point against the model with plain sums, independent of
    any solver internals. A bound or row holds within feas_tol scaled by
    the magnitude of its value, right-hand side and activity; that scaled
    tolerance is never below feas_tol, so it is computed only where the
    plain feas_tol test fails."""
    violations: list[str] = []
    for v in model.variables:
        if v.name not in values:
            violations.append(f"no value for variable {v.name}")
            continue
        x = values[v.name]
        if not math.isfinite(x):
            violations.append(f"{v.name} = {x} is not finite")
            continue
        if x < v.lower - feas_tol or x > v.upper + feas_tol:
            tol = feas_tol * max(1.0, abs(x))
            if x < v.lower - tol or x > v.upper + tol:
                violations.append(f"{v.name} = {x} outside bounds [{v.lower}, {v.upper}]")
        if v.kind == BINARY and abs(x - round(x)) > _INT_TOL:
            violations.append(f"{v.name} = {x} is not integral")
    for con in model.constraints:
        activity = 0.0
        try:
            for name, coef in con.terms:
                activity += coef * values[name]
        except KeyError:  # a row with a term that has no value is not evaluated
            continue
        rhs = con.rhs
        if con.sense == SENSE_LE:
            if activity > rhs + feas_tol and activity > rhs + _row_tol(feas_tol, rhs, activity):
                violations.append(f"{con.name}: {activity} > {rhs}")
        elif con.sense == SENSE_GE:
            if activity < rhs - feas_tol and activity < rhs - _row_tol(feas_tol, rhs, activity):
                violations.append(f"{con.name}: {activity} < {rhs}")
        elif con.sense == SENSE_EQ:
            gap = abs(activity - rhs)
            if gap > feas_tol and gap > _row_tol(feas_tol, rhs, activity):
                violations.append(f"{con.name}: {activity} != {rhs}")
    objective = model.objective_constant
    for name, coef in model.objective_terms:
        objective += coef * values.get(name, 0.0)
    return CheckReport(not violations, tuple(violations), objective)


def _verified(model: Model, solution: Solution) -> Solution:
    if not solution.values:
        return solution
    report = check_solution(model, solution.values, feas_tol=_VERIFY_TOL)
    if not report.ok:
        raise SolverError(
            "solution failed independent verification: " + "; ".join(report.violations[:5])
        )
    scale = max(1.0, abs(report.objective))
    if not abs(report.objective - solution.objective) <= 1e-9 * scale:
        raise SolverError(
            f"objective mismatch: engine {solution.objective}, re-evaluated {report.objective}"
        )
    return solution


def _tie_tol(reference: float) -> float:
    return 1e-9 * max(1.0, abs(reference))


def _stats(nodes: int, iterations: int, refactorizations: int, started: float,
           **extra: float) -> dict[str, float]:
    return {"nodes": nodes, "simplex_iterations": iterations,
            "refactorizations": refactorizations, "wall_s": time.monotonic() - started,
            **extra}


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
    def __init__(self, model: Model, options: SolveOptions, root_start: Tableau | None = None):
        self.options = options
        # a root start carries the compile of a model like this one, such as
        # the previous scenario of a sweep, to derive this one's from; a
        # compile it does not fit (other names or plan) starts from the
        # slack basis
        self.prep = PreparedLp(model) if root_start is None else root_start.prep.derive(model)
        self.root_start = (root_start if root_start is not None and root_start.fits(self.prep)
                           else None)
        self.binary_names = [v.name for v in model.binaries()]
        # open nodes: (bound, push order, fixings, own bound, start): the
        # bound is the parent's and orders the search, the own bound is the
        # node's branching penalty, and the start is a copy of the parent's
        # final tableau, which the node's solve continues, without B^-1*A
        # past the budget, or None past the cutoff and for the node the time
        # limit interrupted; the nodes left here give best_bound
        self.heap: list[tuple[float, int, _Fixings, float, Tableau | None]] = []
        self.push_count = 0
        self.tableau_bytes = 0  # held by the open nodes' tableaux
        self.root_tableau: Tableau | None = None
        self.incumbent_obj: float | None = None
        self.incumbent_vec: tuple[int, ...] | None = None
        self.incumbent_values: dict[str, float] = {}
        self.nodes = 0  # LP solves
        self.closed = 0  # nodes closed by their own bound, with no LP
        self.iterations = 0
        self.refactorizations = 0
        self.start = time.monotonic()
        self.deadline = (None if options.time_limit_s is None
                         else self.start + options.time_limit_s)

    # -- bookkeeping --------------------------------------------------------

    def _push(self, bound: float, fixings: _Fixings, own_bound: float,
              start: Tableau | None) -> None:
        heapq.heappush(self.heap, (bound, self.push_count, fixings, own_bound, start))
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

    def run(self) -> Solution:
        """Solve the next node, the rounded child of the node that just
        branched, else the best open node, until the open list is empty or
        the incumbent settles it; solve_milp describes each node's start
        and when it is closed without an LP. When the time limit passes,
        before a node's LP or inside it, the node goes back on the open
        list with its bound and no start."""
        node = ((), -math.inf, -math.inf, self.root_start)
        while True:
            if node is None:  # the dive ended: the best open node is next
                if self._settled():
                    return self._finish(STATUS_OPTIMAL)
                bound, _, fixings, own_bound, start = heapq.heappop(self.heap)
                if start is not None and start.matrix is not None:
                    self.tableau_bytes -= start.matrix.nbytes
            else:
                fixings, bound, own_bound, start = node
                node = None
            if self.deadline is not None and time.monotonic() > self.deadline:
                break
            cutoff = (None if self.incumbent_obj is None
                      else self.incumbent_obj + _tie_tol(self.incumbent_obj))
            if cutoff is not None and own_bound > cutoff:
                self.closed += 1
                continue
            overrides = {name: (float(v), float(v)) for name, v in fixings}
            result = self.prep.solve(overrides, start=start, deadline=self.deadline,
                                     cutoff=cutoff)
            self.nodes += 1
            self.iterations += result.iterations
            self.refactorizations += result.refactorizations
            if not fixings:  # copied below if a dive child takes it
                self.root_tableau = result
            if result.status == STATUS_TIME_LIMIT:
                break
            if result.status in (STATUS_INFEASIBLE, STATUS_CUTOFF):
                continue
            objective = result.objective  # at most the cutoff: PreparedLp.solve
            bound = max(bound, objective)
            branch_name = self._most_fractional(result.values)
            if branch_name is None:
                self._offer_incumbent(objective, result.values)
                continue
            preferred = 1 if result.values[branch_name] >= 0.5 else 0
            child_bounds = branch_bounds(result, branch_name)
            if not fixings:
                self.root_tableau = result.copy()
            sibling_bound = child_bounds[1 - preferred]
            size = result.matrix.nbytes
            if cutoff is not None and sibling_bound > cutoff:
                sibling = None  # closed when popped
            elif self.tableau_bytes + size <= _OPEN_TABLEAU_BYTES:
                sibling = result.copy()
                self.tableau_bytes += size
            else:
                sibling = result.basis_copy()
            self._push(bound, fixings + ((branch_name, 1 - preferred),), sibling_bound, sibling)
            node = (fixings + ((branch_name, preferred),), bound, child_bounds[preferred], result)
        self._push(bound, fixings, own_bound, None)
        return self._finish(STATUS_TIME_LIMIT)

    def _settled(self) -> bool:
        """Whether no open node is left to solve: the open list is empty,
        or its best bound, read without popping it, exceeds the incumbent
        (best-bound order: every open node is worse) or falls short of it
        by at most the accepted gap; exact ties are never abandoned."""
        if not self.heap:
            return True
        if self.incumbent_obj is None:
            return False
        bound = self.heap[0][0]
        tol = _tie_tol(self.incumbent_obj)
        gap_abs = self.options.rel_gap_tol * max(1.0, abs(self.incumbent_obj))
        return bound > self.incumbent_obj + tol or (
            bound < self.incumbent_obj - tol and self.incumbent_obj - bound <= gap_abs)

    def _finish(self, status: str) -> Solution:
        """The search's Solution; best_bound is the lowest of the incumbent
        and the open nodes' bounds, None where that is not finite: no node
        is left open, or the root's LP has not finished."""
        stats = _stats(self.nodes, self.iterations, self.refactorizations, self.start,
                       closed_nodes=self.closed)
        if self.incumbent_obj is None and status == STATUS_OPTIMAL:
            status = STATUS_INFEASIBLE
        incumbent = [] if self.incumbent_obj is None else [self.incumbent_obj]
        best_bound = min(incumbent + [entry[0] for entry in self.heap], default=math.inf)
        return Solution(status, self.incumbent_obj,
                        best_bound if math.isfinite(best_bound) else None,
                        self.incumbent_values, stats)


def solve_milp(model: Model, options: SolveOptions | None = None) -> Solution:
    """Branch and bound with best-bound node selection, most-fractional
    branching (ties to the lowest variable index), and a depth-first plunge
    after every branching; a model without binaries is one node, its LP.
    Among the incumbents the search finds, exact objective ties go to the
    lexicographically smaller binary vector; the objective equals
    brute_force_solve's, but a tied optimum the search never reaches is not
    considered, so the vector can differ from the oracle's.

    The root LP starts from the slack basis. A dive child continues its
    parent's solve and a node taken from the open list a copy of it, so
    neither refactorizes its start. The open nodes' copies are
    capped at _OPEN_TABLEAU_BYTES (64 MiB) per search; a node pushed past
    that keeps a copy without B^-1*A instead, which its LP refactorizes,
    and one past the cutoff by its own bound (below) none. Once there is an
    incumbent, each node's LP is solved with the cutoff incumbent +
    _tie_tol(incumbent): every point of its dual simplex bounds its
    optimum, so the LP stops, and the node is pruned, once one exceeds the
    cutoff. A node within the tie tolerance is still solved, so a
    lexicographically smaller tie can still win.

    When a node branches, both children get their own bound from its
    final tableau, before the dive child continues it: Driebeek's penalty
    (tepkit.simplex.branch_bounds). The open list still orders nodes by the
    parent's bound. A child whose own bound exceeds the cutoff when it is
    reached is closed without its LP, which could only have pruned it, so
    the nodes, incumbents and every other LP stay as they were.
    stats["nodes"] counts the LP solves and stats["closed_nodes"] the
    nodes closed this way.

    best_bound is the lowest of the incumbent and the bounds of the nodes
    left open, including the one the time limit interrupted, or None until
    the root LP has finished (and for an infeasible model)."""
    solution = _BranchAndBound(model, options or SolveOptions()).run()
    return _verified(model, solution)


def solve_sweep(models: Iterable[Model], options: SolveOptions | None = None
                ) -> Iterator[Solution | SimplexError | SolverError | ModelError]:
    """solve_milp over models in order, such as the scenarios of one
    network, yielding each verified Solution or the error that ended its
    solve: an engine error, or the ModelError of a model the engine
    refuses. Each root LP continues the previous search's root solve, with
    its compile derived from that one's, where the two compiles have the
    same variable and row names and presolve plan (Tableau.fits); it
    starts from the slack basis after an error or where they differ."""
    root = None
    for model in models:
        try:
            search = _BranchAndBound(model, options or SolveOptions(), root)
            result = _verified(model, search.run())
            root = search.root_tableau
        except (SimplexError, SolverError, ModelError) as exc:
            result, root = exc, None
        yield result


def brute_force_solve(model: Model) -> Solution:
    """Enumerate every binary assignment in Gray-code order, so that each
    differs from the one before in one binary and its LP continues the
    previous LP's solve, and keep the best; exact ties go to the
    lexicographically smallest assignment. Verification oracle only."""
    binaries = [v.name for v in model.binaries()]
    k = len(binaries)
    if k > _BRUTE_FORCE_MAX_BINARIES:
        raise ValueError(f"{k} binaries exceed the enumeration limit of {_BRUTE_FORCE_MAX_BINARIES}")
    started = time.monotonic()
    prep = PreparedLp(model)
    best_obj: float | None = None
    best_vec: tuple[int, ...] | None = None
    best_values: dict[str, float] = {}
    iterations = 0
    refactorizations = 0
    feasible = 0
    result: Tableau | None = None
    for i in range(1 << k):
        gray = i ^ (i >> 1)
        bits = tuple((gray >> (k - 1 - j)) & 1 for j in range(k))
        overrides = {name: (float(b), float(b)) for name, b in zip(binaries, bits)}
        result = prep.solve(overrides, start=result)
        iterations += result.iterations
        refactorizations += result.refactorizations
        if result.status != STATUS_OPTIMAL:
            continue
        feasible += 1
        if _better(result.objective, bits, best_obj, best_vec):
            best_obj = result.objective
            best_vec = bits
            best_values = result.values
    stats = _stats(1 << k, iterations, refactorizations, started,
                   feasible_assignments=feasible)
    if best_obj is None:
        return Solution(STATUS_INFEASIBLE, None, None, {}, stats)
    return _verified(model, Solution(STATUS_OPTIMAL, best_obj, best_obj, best_values, stats))


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
