"""Self-contained bounded-variable primal simplex.

The engine solves  minimize c'x  subject to row constraints and variable
bounds, with no third-party solver behind it. Rows are turned into
equalities with one slack each (bounded by the row sense), an initial
basis is crashed from the slacks, and rows whose slack value starts out
of range get a signed artificial driven out in phase 1.

The tableau B^-1*A is kept dense and updated by rank-1 pivots; it is
refactorized from the original columns periodically and again before an
optimality claim, so accumulated drift cannot produce a false optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Model, SENSE_EQ, SENSE_GE, SENSE_LE, check_model

# Column states. A nonbasic column sits at one of its bounds (or at zero
# when it has none); basic columns take whatever value balances the rows.
_AT_LOWER = 0
_AT_UPPER = 1
_AT_FREE = 2
_BASIC = 3

_PIVOT_TOL = 1e-9
_DEGENERATE_STEP = 1e-10
_RATIO_TIE = 1e-12
_BLAND_AFTER = 40
_REFACTOR_EVERY = 128
_OPTIMALITY_RETRIES = 5

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"


class SimplexError(RuntimeError):
    """Iteration limit hit or the basis became numerically unusable."""


@dataclass(frozen=True)
class LpResult:
    status: str
    objective: float | None
    values: dict[str, float]
    iterations: int


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
        cols = n + 2 * m  # structurals, slacks, artificials
        self.slack0 = n
        self.art0 = n + m

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
            s = self.slack0 + i
            a[i, s] = 1.0
            if con.sense == SENSE_LE:
                lower[s], upper[s] = 0.0, math.inf
            elif con.sense == SENSE_GE:
                lower[s], upper[s] = -math.inf, 0.0
            else:
                lower[s], upper[s] = 0.0, 0.0
        # Artificial columns are filled in per solve; their sign depends on
        # the starting residual of the row they repair.
        cost = np.zeros(cols)
        for name, coef in model.objective_terms:
            cost[self.var_index[name]] += coef

        self._a = a
        self._b = b
        self._lower = lower
        self._upper = upper
        self._cost = cost

    def solve(
        self,
        bound_overrides: dict[str, tuple[float, float]] | None = None,
        *,
        feas_tol: float = 1e-7,
        max_iterations: int = 20000,
    ) -> LpResult:
        lower = self._lower.copy()
        upper = self._upper.copy()
        if bound_overrides:
            for name, (lo, up) in bound_overrides.items():
                j = self.var_index[name]
                lower[j] = lo
                upper[j] = up
                if lo > up:
                    raise ValueError(f"override for {name!r} has lower > upper")
        run = _SimplexRun(self, lower, upper, feas_tol, max_iterations)
        return run.solve()

    def evaluate_objective(self, values: dict[str, float]) -> float:
        total = self.model.objective_constant
        for name, coef in self.model.objective_terms:
            total += coef * values[name]
        return total


class _SimplexRun:
    def __init__(self, prep: PreparedLp, lower, upper, feas_tol, max_iterations):
        self.prep = prep
        self.m = prep.m
        self.cols = prep._a.shape[1]
        self.lower = lower
        self.upper = upper
        self.feas_tol = feas_tol
        self.max_iterations = max_iterations
        self.iterations = 0
        self.pivots_since_refactor = 0
        self.degenerate_streak = 0

    # -- setup ------------------------------------------------------------

    def _crash(self) -> None:
        """Start from the slack basis; rows whose slack value falls outside
        its bounds get a basic signed artificial instead."""
        prep = self.prep
        m, cols = self.m, self.cols
        self.a = prep._a.copy()
        self.b = prep._b

        status = np.empty(cols, dtype=np.int8)
        for j in range(cols):
            if math.isfinite(self.lower[j]):
                status[j] = _AT_LOWER
            elif math.isfinite(self.upper[j]):
                status[j] = _AT_UPPER
            else:
                status[j] = _AT_FREE
        self.status = status

        residual = self.b - self.a @ self._nonbasic_values()
        basis = np.empty(m, dtype=np.int64)
        x_basic = np.empty(m)
        art_rows = []
        for i in range(m):
            s = prep.slack0 + i
            if self.lower[s] <= residual[i] <= self.upper[s]:
                basis[i] = s
                x_basic[i] = residual[i]
            else:
                # slack stays nonbasic at zero; the artificial absorbs the
                # residual with a positive value
                r = prep.art0 + i
                sign = 1.0 if residual[i] >= 0.0 else -1.0
                self.a[i, r] = sign
                self.lower[r] = 0.0
                self.upper[r] = math.inf
                basis[i] = r
                x_basic[i] = abs(residual[i])
                art_rows.append(i)
        # unused artificials stay pinned at zero
        for i in range(m):
            r = prep.art0 + i
            if basis[i] != r:
                self.lower[r] = 0.0
                self.upper[r] = 0.0
        self.status[prep.art0 :] = _AT_LOWER
        for i in range(m):
            self.status[basis[i]] = _BASIC

        self.basis = basis
        self.x_basic = x_basic
        self.tableau = self.a.copy()
        for i in art_rows:
            if self.a[i, prep.art0 + i] < 0.0:
                self.tableau[i] *= -1.0
        self.has_artificials = bool(art_rows)

    def _nonbasic_values(self) -> np.ndarray:
        v = np.zeros(self.cols)
        at_lo = self.status == _AT_LOWER
        at_up = self.status == _AT_UPPER
        v[at_lo] = self.lower[at_lo]
        v[at_up] = self.upper[at_up]
        return v

    # -- linear algebra ---------------------------------------------------

    def _refactorize(self) -> None:
        basis_cols = self.a[:, self.basis]
        try:
            self.tableau = np.linalg.solve(basis_cols, self.a)
            residual = self.b - self.a @ self._nonbasic_values()
            self.x_basic = np.linalg.solve(basis_cols, residual)
        except np.linalg.LinAlgError as exc:
            raise SimplexError("basis matrix became singular") from exc
        self.pivots_since_refactor = 0

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        z = cost - cost[self.basis] @ self.tableau
        z[self.basis] = 0.0
        return z

    # -- pivoting ---------------------------------------------------------

    def _choose_entering(self, z: np.ndarray, dtol: float, bland: bool):
        fixed = self.upper - self.lower <= 0.0
        up_ok = (self.status == _AT_LOWER) & (z < -dtol)
        dn_ok = (self.status == _AT_UPPER) & (z > dtol)
        fr_ok = (self.status == _AT_FREE) & (np.abs(z) > dtol)
        eligible = (up_ok | dn_ok | fr_ok) & ~fixed
        if not eligible.any():
            return None
        if bland:
            q = int(np.argmax(eligible))
        else:
            score = np.where(eligible, np.abs(z), -math.inf)
            q = int(np.argmax(score))
        direction = 1.0 if z[q] < 0.0 else -1.0
        return q, direction

    def _ratio_test(self, q: int, direction: float, bland: bool):
        e = direction * self.tableau[:, q]
        lo_b = self.lower[self.basis]
        up_b = self.upper[self.basis]
        ratios = np.full(self.m, math.inf)
        dec = (e > _PIVOT_TOL) & np.isfinite(lo_b)
        inc = (e < -_PIVOT_TOL) & np.isfinite(up_b)
        ratios[dec] = (self.x_basic[dec] - lo_b[dec]) / e[dec]
        ratios[inc] = (self.x_basic[inc] - up_b[inc]) / e[inc]
        np.maximum(ratios, 0.0, out=ratios)

        row_min = ratios.min() if self.m else math.inf
        own_range = self.upper[q] - self.lower[q]
        if own_range <= row_min:
            if math.isinf(own_range):
                return None, math.inf, e
            return -1, own_range, e  # bound flip, no basis change
        if math.isinf(row_min):
            return None, math.inf, e
        near = np.flatnonzero(ratios <= row_min + _RATIO_TIE)
        if bland:
            best = near[np.argmin(self.basis[near])]
        else:
            best = near[np.argmax(np.abs(e[near]))]
            ties = near[np.abs(e[near]) >= abs(e[best]) - _RATIO_TIE]
            if len(ties) > 1:
                best = ties[np.argmin(self.basis[ties])]
        return int(best), row_min, e

    def _entering_value(self, q: int) -> float:
        st = self.status[q]
        if st == _AT_LOWER:
            return self.lower[q]
        if st == _AT_UPPER:
            return self.upper[q]
        return 0.0

    def _pivot(self, q: int, direction: float, row: int, step: float, e, z):
        new_value = self._entering_value(q) + direction * step
        self.x_basic -= step * e
        leaving = self.basis[row]
        self.status[leaving] = _AT_LOWER if e[row] > 0.0 else _AT_UPPER
        if leaving >= self.prep.art0:
            # a departed artificial must never re-enter
            self.lower[leaving] = 0.0
            self.upper[leaving] = 0.0
            self.status[leaving] = _AT_LOWER

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

    def _run_phase(self, cost: np.ndarray, dtol: float) -> str:
        z = self._reduced_costs(cost)
        retries = 0
        while True:
            if self.iterations >= self.max_iterations:
                raise SimplexError(f"iteration limit {self.max_iterations} exceeded")
            bland = self.degenerate_streak >= _BLAND_AFTER
            pick = self._choose_entering(z, dtol, bland)
            if pick is None:
                # claim optimality only against a fresh factorization
                if self.pivots_since_refactor == 0 or retries >= _OPTIMALITY_RETRIES:
                    return STATUS_OPTIMAL
                self._refactorize()
                z = self._reduced_costs(cost)
                retries += 1
                continue
            q, direction = pick
            row, step, e = self._ratio_test(q, direction, bland)
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
                self._pivot(q, direction, row, step, e, z)
                if self.pivots_since_refactor >= _REFACTOR_EVERY:
                    self._refactorize()
                    z = self._reduced_costs(cost)

    def _drive_out_artificials(self) -> None:
        """Pivot basic artificials onto real columns where possible, then
        pin every artificial at zero so phase 2 cannot touch them."""
        art0 = self.prep.art0
        for row in range(self.m):
            if self.basis[row] < art0:
                continue
            candidates = np.abs(self.tableau[row, :art0])
            candidates[self.status[:art0] == _BASIC] = 0.0
            candidates[self.upper[:art0] - self.lower[:art0] <= 0.0] = 0.0
            q = int(np.argmax(candidates))
            if candidates[q] > _PIVOT_TOL:
                z = np.zeros(self.cols)
                e = self.tableau[:, q].copy()
                self._pivot(q, 1.0, row, 0.0, e, z)
        self.lower[art0:] = 0.0
        self.upper[art0:] = 0.0

    # -- driver -----------------------------------------------------------

    def solve(self) -> LpResult:
        if self.m == 0:
            return self._solve_without_rows()
        self._crash()

        if self.has_artificials:
            cost1 = np.zeros(self.cols)
            cost1[self.prep.art0 :] = 1.0
            status = self._run_phase(cost1, 1e-9)
            if status == STATUS_UNBOUNDED:
                raise SimplexError("phase 1 reported unbounded")
            art_total = float(cost1[self.basis] @ self.x_basic)
            scale = max(1.0, float(np.max(np.abs(self.b))) if self.m else 1.0)
            if art_total > self.feas_tol * scale:
                return LpResult(STATUS_INFEASIBLE, None, {}, self.iterations)
            self._drive_out_artificials()

        cost = np.zeros(self.cols)
        cost[: self.prep.n] = self.prep._cost[: self.prep.n]
        dtol = 1e-9 * max(1.0, float(np.max(np.abs(cost))))
        status = self._run_phase(cost, dtol)
        if status == STATUS_UNBOUNDED:
            return LpResult(STATUS_UNBOUNDED, None, {}, self.iterations)
        return self._finish(cost)

    def _finish(self, cost: np.ndarray) -> LpResult:
        values_all = self._nonbasic_values()
        values_all[self.basis] = self.x_basic
        names = self.prep.names
        values = {names[j]: float(values_all[j]) for j in range(self.prep.n)}
        objective = float(cost @ values_all) + self.prep.model.objective_constant
        return LpResult(STATUS_OPTIMAL, objective, values, self.iterations)

    def _solve_without_rows(self) -> LpResult:
        values: dict[str, float] = {}
        objective = self.prep.model.objective_constant
        for j, name in enumerate(self.prep.names):
            c = self.prep._cost[j]
            lo, up = self.lower[j], self.upper[j]
            if lo > up:
                return LpResult(STATUS_INFEASIBLE, None, {}, 0)
            if c > 0.0:
                x = lo
            elif c < 0.0:
                x = up
            else:
                x = lo if math.isfinite(lo) else (up if math.isfinite(up) else 0.0)
            if not math.isfinite(x):
                return LpResult(STATUS_UNBOUNDED, None, {}, 0)
            values[name] = float(x)
            objective += c * x
        return LpResult(STATUS_OPTIMAL, float(objective), values, 0)
