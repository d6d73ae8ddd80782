"""Self-contained bounded-variable primal simplex.

The engine solves  minimize c'x  subject to row constraints and variable
bounds, with no third-party solver behind it. Rows are turned into
equalities with one slack each (bounded by the row sense) and the slacks
form the starting basis, even where a slack starts outside its bounds.
Phase 1 then minimizes the total bound violation of the basic variables,
re-pricing after every step; a violating variable may move further out
and blocks only at the bound it violates (the composite phase 1 of
Maros, Computational Techniques of the Simplex Method, 2003).

A solve may start from any basis, such as the final basis of a related
LP (a branch-and-bound parent, the previous brute-force assignment, or a
neighbouring scenario); the slack basis is the default start. Each
nonbasic column keeps its bound status where the new bounds allow it, and
the same phase 1 repairs any basic variable the new bounds put out of
range.

The tableau B^-1*A is kept dense and updated by rank-1 pivots; it is
refactorized from the original columns at the start, periodically, and
again before an optimality claim, so accumulated drift cannot produce a
false optimum.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .model import Model, SENSE_GE, SENSE_LE, check_model

# Column states. A nonbasic column sits at one of its bounds (or at zero
# when it has none); basic columns take whatever value balances the rows.
_AT_LOWER = 0
_AT_UPPER = 1
_AT_FREE = 2
_BASIC = 3

_PIVOT_TOL = 1e-9
_PRIMAL_TOL = 1e-9
_DEGENERATE_STEP = 1e-10
_RATIO_TIE = 1e-12
_BLAND_AFTER = 40
_REFACTOR_EVERY = 128
_OPTIMALITY_RETRIES = 5

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_TIME_LIMIT = "time_limit"


class SimplexError(RuntimeError):
    """Iteration limit hit or the basis became numerically unusable."""


@dataclass(frozen=True)
class Basis:
    """A simplex basis: the basic column of each row and the bound status of
    every column (structurals, then one slack per row). It holds no
    factorization, so it is cheap to keep for many open nodes."""

    columns: tuple[int, ...]
    status: bytes


@dataclass(frozen=True)
class LpResult:
    status: str
    objective: float | None
    values: dict[str, float]
    iterations: int
    basis: Basis  # the final basis, whatever the status


class PreparedLp:
    """A model compiled to numeric arrays, solvable many times over with
    different variable bounds (the branch-and-bound hot path)."""

    def __init__(self, model: Model):
        check_model(model)
        self.model = model
        self.names = [v.name for v in model.variables]
        self.var_index = model.variable_index()
        n = len(model.variables)
        m = len(model.constraints)
        self.n = n
        self.m = m
        cols = n + m  # structurals, then one slack per row

        a = np.zeros((m, cols))
        b = np.zeros(m)
        lower = np.full(cols, -math.inf)
        upper = np.full(cols, math.inf)
        for j, v in enumerate(model.variables):
            lower[j] = v.lower
            upper[j] = v.upper
        for i, con in enumerate(model.constraints):
            for name, coef in con.terms:
                a[i, self.var_index[name]] += coef
            b[i] = con.rhs
            s = n + i
            a[i, s] = 1.0
            if con.sense == SENSE_LE:
                lower[s], upper[s] = 0.0, math.inf
            elif con.sense == SENSE_GE:
                lower[s], upper[s] = -math.inf, 0.0
            else:
                lower[s], upper[s] = 0.0, 0.0
        cost = np.zeros(cols)
        for name, coef in model.objective_terms:
            cost[self.var_index[name]] += coef

        self._a = a
        self._b = b
        self._lower = lower
        self._upper = upper
        self._cost = cost
        status = np.full(cols, _AT_LOWER, dtype=np.int8)
        status[n:] = _BASIC
        self.slack_basis = Basis(tuple(range(n, cols)), status.tobytes())

    def solve(
        self,
        bound_overrides: dict[str, tuple[float, float]] | None = None,
        *,
        feas_tol: float = 1e-7,
        max_iterations: int = 20000,
        start: Basis | None = None,
        deadline: float | None = None,
    ) -> LpResult:
        """Solve under the model's bounds with `bound_overrides` applied,
        starting from `start` (the slack basis by default). A start whose
        basis matrix is singular here falls back to the slack basis. When
        `time.monotonic()` passes `deadline`, the solve stops with status
        time_limit."""
        if start is None:
            start = self.slack_basis
        elif len(start.columns) != self.m or len(start.status) != self.n + self.m:
            raise ValueError(
                f"start basis has {len(start.columns)} rows and {len(start.status)} "
                f"columns; this LP has {self.m} and {self.n + self.m}")
        lower = self._lower.copy()
        upper = self._upper.copy()
        if bound_overrides:
            for name, (lo, up) in bound_overrides.items():
                j = self.var_index[name]
                lower[j] = lo
                upper[j] = up
                if lo > up:
                    raise ValueError(f"override for {name!r} has lower > upper")
        run = _SimplexRun(self, lower, upper, feas_tol, max_iterations, deadline)
        return run.solve(start)


class _SimplexRun:
    def __init__(self, prep: PreparedLp, lower, upper, feas_tol, max_iterations, deadline):
        self.prep = prep
        self.m = prep.m
        self.cols = prep.n + prep.m
        self.a = prep._a
        self.b = prep._b
        self.lower = lower
        self.upper = upper
        self.fixed = upper - lower <= 0.0
        self.feas_tol = feas_tol
        self.max_iterations = max_iterations
        self.deadline = deadline
        self.iterations = 0
        self.pivots_since_refactor = 0
        self.degenerate_streak = 0

    # -- setup ------------------------------------------------------------

    def _load(self, start: Basis) -> None:
        """Take the start's basis, whether or not each basic value lies
        within its bounds (phase 1 repairs the ones that do not). A nonbasic
        column keeps its bound where that bound is finite, else takes the
        other finite bound, else sits free at zero."""
        status = np.frombuffer(start.status, dtype=np.int8)
        has_lo = np.isfinite(self.lower)
        has_up = np.isfinite(self.upper)
        want_up = ((status == _AT_UPPER) & has_up) | ~has_lo
        self.status = np.where(
            want_up, np.where(has_up, _AT_UPPER, _AT_FREE), _AT_LOWER
        ).astype(np.int8)
        self.basis = np.array(start.columns, dtype=np.intp)
        self.status[self.basis] = _BASIC
        self._refactorize()

    def _nonbasic_values(self) -> np.ndarray:
        v = np.zeros(self.cols)
        at_lo = self.status == _AT_LOWER
        at_up = self.status == _AT_UPPER
        v[at_lo] = self.lower[at_lo]
        v[at_up] = self.upper[at_up]
        return v

    def _violations(self):
        """Masks of the basic variables below their lower and above their
        upper bound, and the total violation."""
        x = self.x_basic
        shortfall = self.lower[self.basis] - x
        excess = x - self.upper[self.basis]
        below = shortfall > _PRIMAL_TOL
        above = excess > _PRIMAL_TOL
        total = float(shortfall[below].sum() + excess[above].sum())
        return below, above, total

    # -- linear algebra ---------------------------------------------------

    def _refactorize(self) -> None:
        """Recompute B^-1*A and the basic values from the original columns,
        with one LAPACK solve on [A_N | b - A_N*x_N]; the basic columns of
        B^-1*A are the identity."""
        nonbasic = np.flatnonzero(self.status != _BASIC)
        residual = self.b - self.a @ self._nonbasic_values()
        try:
            solved = np.linalg.solve(
                self.a[:, self.basis], np.column_stack((self.a[:, nonbasic], residual))
            )
        except np.linalg.LinAlgError as exc:
            raise SimplexError("basis matrix became singular") from exc
        self.tableau = np.zeros((self.m, self.cols))
        self.tableau[:, nonbasic] = solved[:, :-1]
        self.tableau[np.arange(self.m), self.basis] = 1.0
        self.x_basic = solved[:, -1].copy()
        self.pivots_since_refactor = 0

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        z = cost - cost[self.basis] @ self.tableau
        z[self.basis] = 0.0
        return z

    # -- pivoting ---------------------------------------------------------

    def _choose_entering(self, z: np.ndarray, dtol: float, bland: bool):
        up_ok = (self.status == _AT_LOWER) & (z < -dtol)
        dn_ok = (self.status == _AT_UPPER) & (z > dtol)
        fr_ok = (self.status == _AT_FREE) & (np.abs(z) > dtol)
        eligible = (up_ok | dn_ok | fr_ok) & ~self.fixed
        if not eligible.any():
            return None
        if bland:
            q = int(np.argmax(eligible))
        else:
            score = np.where(eligible, np.abs(z), -math.inf)
            q = int(np.argmax(score))
        direction = 1.0 if z[q] < 0.0 else -1.0
        return q, direction

    def _ratio_test(self, q: int, direction: float, bland: bool, below, above):
        """Longest step the entering column can take. A basic variable
        moving down stops at its lower bound, or at its upper bound when it
        starts above it; moving up, symmetrically. One that violates a
        bound and moves further out does not block."""
        e = direction * self.tableau[:, q]
        down = e > _PIVOT_TOL
        up = e < -_PIVOT_TOL
        to_upper = (down & above) | (up & ~below)
        target = np.where(to_upper, self.upper[self.basis], self.lower[self.basis])
        blocks = ((down & ~below) | (up & ~above)) & np.isfinite(target)
        ratios = np.full(self.m, math.inf)
        ratios[blocks] = (self.x_basic[blocks] - target[blocks]) / e[blocks]
        np.maximum(ratios, 0.0, out=ratios)

        row_min = ratios.min() if self.m else math.inf
        own_range = self.upper[q] - self.lower[q]
        if own_range <= row_min:
            if math.isinf(own_range):
                return None, math.inf, e, None
            return -1, own_range, e, None  # bound flip, no basis change
        if math.isinf(row_min):
            return None, math.inf, e, None
        near = np.flatnonzero(ratios <= row_min + _RATIO_TIE)
        if bland:
            best = near[np.argmin(self.basis[near])]
        else:
            best = near[np.argmax(np.abs(e[near]))]
            ties = near[np.abs(e[near]) >= abs(e[best]) - _RATIO_TIE]
            if len(ties) > 1:
                best = ties[np.argmin(self.basis[ties])]
        leaves_at = _AT_UPPER if to_upper[best] else _AT_LOWER
        return int(best), row_min, e, leaves_at

    def _entering_value(self, q: int) -> float:
        st = self.status[q]
        if st == _AT_LOWER:
            return self.lower[q]
        if st == _AT_UPPER:
            return self.upper[q]
        return 0.0

    def _pivot(self, q: int, direction: float, row: int, step: float, e, z, leaves_at):
        new_value = self._entering_value(q) + direction * step
        self.x_basic -= step * e
        self.status[self.basis[row]] = leaves_at

        alpha = self.tableau[row, q]
        if abs(alpha) <= _PIVOT_TOL:
            raise SimplexError("pivot element vanished")
        piv_row = self.tableau[row] / alpha
        col = self.tableau[:, q].copy()
        self.tableau -= np.outer(col, piv_row)
        self.tableau[row] = piv_row

        self.basis[row] = q
        self.status[q] = _BASIC
        self.x_basic[row] = new_value
        zq = z[q]
        z -= zq * piv_row
        z[self.basis] = 0.0
        self.pivots_since_refactor += 1

    # -- phases -----------------------------------------------------------

    def _run_phase(self, phase1: bool) -> str:
        """Iterate to optimality. Phase 1 prices the current violations,
        so its cost is rebuilt after every step and it stops as soon as no
        basic variable violates a bound; phase 2 prices the objective."""
        if phase1:
            dtol = 1e-9
        else:
            cost = self.prep._cost
            dtol = 1e-9 * max(1.0, float(np.max(np.abs(cost))))
            below = above = np.zeros(self.m, dtype=bool)
        z = None
        retries = 0
        while True:
            if self.iterations >= self.max_iterations:
                raise SimplexError(f"iteration limit {self.max_iterations} exceeded")
            if self.deadline is not None and time.monotonic() > self.deadline:
                return STATUS_TIME_LIMIT
            if phase1:
                below, above, _ = self._violations()
                if not (below.any() or above.any()):
                    return STATUS_OPTIMAL
                cost = np.zeros(self.cols)
                cost[self.basis[below]] = -1.0
                cost[self.basis[above]] = 1.0
                z = None
            if z is None:
                z = self._reduced_costs(cost)
            bland = self.degenerate_streak >= _BLAND_AFTER
            pick = self._choose_entering(z, dtol, bland)
            if pick is None:
                # claim optimality only against a fresh factorization
                if self.pivots_since_refactor == 0 or retries >= _OPTIMALITY_RETRIES:
                    return STATUS_OPTIMAL
                self._refactorize()
                z = None
                retries += 1
                continue
            q, direction = pick
            row, step, e, leaves_at = self._ratio_test(q, direction, bland, below, above)
            if row is None:
                return STATUS_UNBOUNDED
            self.iterations += 1
            if step > _DEGENERATE_STEP:
                self.degenerate_streak = 0
            else:
                self.degenerate_streak += 1
            if row == -1:
                self.x_basic -= step * e
                self.status[q] = _AT_UPPER if direction > 0.0 else _AT_LOWER
            else:
                self._pivot(q, direction, row, step, e, z, leaves_at)
                if self.pivots_since_refactor >= _REFACTOR_EVERY:
                    self._refactorize()
                    z = None

    # -- driver -----------------------------------------------------------

    def solve(self, start: Basis) -> LpResult:
        try:
            self._load(start)
        except SimplexError:  # singular here: B = I never is
            self._load(self.prep.slack_basis)
        status = self._run_phase(phase1=True)
        if status == STATUS_UNBOUNDED:
            raise SimplexError("phase 1 reported unbounded")
        if status == STATUS_OPTIMAL:
            scale = max(1.0, float(np.max(np.abs(self.b)))) if self.m else 1.0
            if self._violations()[2] > self.feas_tol * scale:
                status = STATUS_INFEASIBLE
            else:
                status = self._run_phase(phase1=False)
        if status != STATUS_OPTIMAL:
            return LpResult(status, None, {}, self.iterations, self._final_basis())
        return self._finish()

    def _final_basis(self) -> Basis:
        return Basis(tuple(self.basis.tolist()), self.status.tobytes())

    def _finish(self) -> LpResult:
        values_all = self._nonbasic_values()
        values_all[self.basis] = self.x_basic
        names = self.prep.names
        values = {names[j]: float(values_all[j]) for j in range(self.prep.n)}
        objective = float(self.prep._cost @ values_all) + self.prep.model.objective_constant
        return LpResult(STATUS_OPTIMAL, objective, values, self.iterations,
                        self._final_basis())
