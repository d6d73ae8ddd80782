"""Self-contained bounded-variable simplex: the dual simplex to a point
within the bounds, then primal phase 2 on the true costs.

The engine solves  minimize c'x  subject to row constraints and variable
bounds, with no third-party solver behind it. Rows are turned into
equalities with one slack each (bounded by the row sense) and the slacks
form the starting basis, even where a slack starts outside its bounds.

Every start runs the dual simplex (Koberstein, The dual simplex method,
techniques for a fast and stable implementation, PhD thesis, Paderborn
2005). Its reduced costs are first made dual feasible: each boxed
nonbasic column that would gain by entering is flipped to its other
bound, and each other one has its cost shifted, in a copy local to the
solve, until its reduced cost is zero (Koberstein & Suhl, Comput. Optim.
Appl. 37, 2007). Each step takes the basic variable with the largest
bound violation out at that bound and picks the entering column by
Harris's two-pass ratio test (Math. Prog. 5, 1973), preferring the
largest pivot among near ties. A dual whose objective has not risen in
as many steps as the LP has columns goes on under Bland's rule: the
lowest violated basic column leaves, and the exact ratio test picks the
entering column, ties to the lowest index. Once every basic value lies
within its bounds, primal phase 2 runs on the true costs; it ends every
optimal solve, and where no cost was shifted it has nothing to do.

The slack basis of a model whose costed columns start at a lower bound of
0 with a cost >= 0 needs no shift; neither does a parent's final tableau
once a branch fixes a bound. While no cost is shifted, c'x at each dual
point is a lower bound on the optimum, so a solve given a cutoff stops
once that objective, recomputed from the point, exceeds it. A shifted
objective bounds nothing, so no cutoff is checked against it.

An optimal solve's live tableau also bounds, with no LP, each child
that fixes one of its fractional basic binaries (`branch_bounds`):
Driebeek's penalty, the objective after the first step of that child's
dual simplex.

A solve may start from any basis, such as the final basis of a related
LP (a neighbouring scenario, or an open branch-and-bound node once the
search's budget for stored tableaux is spent); the slack basis is the
default start. It may also start from the final tableau of an earlier
solve of the same compiled LP, live or copied (a branch-and-bound parent
for the child a dive plunges into, a copy of it for the sibling left
open, or the previous brute-force assignment): only bounds differ, so
the solve continues on that B^-1*A in place and computes the basic values
as B^-1*(b - A_N*x_N) from its slack block, which is B^-1. Each nonbasic
column keeps its bound status where the new bounds allow it, and the dual
repairs any basic variable the new bounds put out of range.

A model is compiled once to dense arrays (PreparedLp). A model that
shares an earlier compile's variables and objective by identity, and
differs in some of its rows, is compiled from that one (`derive`): A and
b are copied, only the rows whose Constraint object differs are read
again, and the result equals a fresh compile bit for bit.

A final tableau may also start a solve of another compile with the same
variable and row names, such as the next scenario of a sweep, whose
right-hand sides, bounds, costs and some columns of A differ. Each column
j whose entries differ is recomputed as B^-1*a'_j from the slack block; a
basic one is then pivoted back into its own row, which replaces a_j by
a'_j in the basis with one rank-1 update (a column replacement, Maros
2003). Where that pivot is no larger than the pivot tolerance the new
basis is singular or nearly so, and the start falls back to refactorizing
it from the new columns.

The tableau B^-1*A is kept dense and updated by rank-1 pivots; where at
most half of the pivot column is nonzero, the update touches only those
rows, and where at most a tenth of the pivot row is, as on larger sparse
models, only those columns. It is refactorized from the original
columns when a start gives only a basis (or a column replacement fails)
and every 128 pivots (column replacements count). A basis of slacks alone,
such as the default start, is B = I up to the order of its rows and loads
as A itself, without LAPACK.

Neither verdict refactorizes; each is certified on the original rows
instead, so accumulated drift cannot produce a false one. An optimum
must satisfy Ax = b and the bounds, and y = c_B*B^-1 must price every
column with the sign its bound status needs (weak duality). An
infeasibility verdict needs a Farkas certificate: at a dual dead end,
where no entering column can repair the leaving row r, y = +-e_r*B^-1
must show that no point within the bounds reaches y*b (Maros 2003). A
failed certificate refactorizes. A dual dead end on a fresh
factorization is infeasible when the total bound violation exceeds the
primal tolerance, and is otherwise left to phase 2. If phase 2's
refactorized basic values leave their bounds, the dual runs again.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .model import Model, SENSE_GE, SENSE_LE, check_model, check_terms

# Column states. A nonbasic column sits at one of its bounds (or at zero
# when it has none); basic columns take whatever value balances the rows.
_AT_LOWER = 0
_AT_UPPER = 1
_AT_FREE = 2
_BASIC = 3
# the pricing sign of each state (see _SimplexRun._load); free columns are
# priced apart
_GAIN = np.array([-1.0, 1.0, 0.0, 0.0])

_FEAS_TOL = 1e-7
_FARKAS_TOL = 1e-9  # the certificate's zero for a component of y*A
_PIVOT_TOL = 1e-9
_PRIMAL_TOL = 1e-9
_DEGENERATE_STEP = 1e-10
_RATIO_TIE = 1e-12
_BLAND_AFTER = 40  # degenerate primal steps in a row before Bland's rule
_DUAL_BLAND_AFTER = 1  # dual steps without a rise, per column, before Bland's rule
_REFACTOR_EVERY = 128
_OPTIMALITY_RETRIES = 5
_MAX_ITERATIONS = 20000  # per solve; past it the solve raises SimplexError

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_TIME_LIMIT = "time_limit"
STATUS_CUTOFF = "cutoff"
# phase 2 refactorized and found basic values outside their bounds, for the
# dual to repair
_STATUS_OUT_OF_BOUNDS = "out_of_bounds"


class SimplexError(RuntimeError):
    """Iteration limit hit or the basis became numerically unusable."""


@dataclass(frozen=True)
class Basis:
    """A simplex basis: the basic column of each row and the bound status of
    every column (structurals, then one slack per row). It holds no
    factorization, so it is cheap to keep for many open nodes: an open
    node keeps one once the search's budget for stored tableaux is spent,
    and a start from it costs one LAPACK factorization."""

    columns: tuple[int, ...]
    status: bytes


class Tableau:
    """A solve's final B^-1*A (`matrix`, m x (n+m)) with its basis and
    column statuses. It starts a solve of any compile with the same variable
    and row names: of its own PreparedLp it replaces the refactorization, of
    another its changed columns are replaced first. That solve continues on
    these arrays in place, so a Tableau serves as a start once only (`copy`
    gives another)."""

    def __init__(self, prep: PreparedLp, matrix, columns, status, pivots: int,
                 run: _SimplexRun | None = None):
        self.prep = prep
        self.matrix = matrix
        self._columns = columns
        self._status = status
        self._pivots = pivots  # rank-1 updates since the last refactorization
        self._run = run  # the solve that left it, until a solve takes it over

    def copy(self) -> Tableau:
        """An independent copy, a start of its own."""
        if self.matrix is None:
            raise ValueError("start tableau was already used")
        return Tableau(self.prep, self.matrix.copy(), self._columns.copy(),
                       self._status.copy(), self._pivots)

    def fits(self, prep: PreparedLp) -> bool:
        """Whether this tableau can start a solve of `prep`: one with the
        same variable and row names."""
        return prep is self.prep or (prep.names == self.prep.names
                                     and prep.rows == self.prep.rows)

    def _take(self, prep: PreparedLp):
        if not self.fits(prep):
            raise ValueError("start tableau belongs to an LP with other variables or rows")
        if self.matrix is None:
            raise ValueError("start tableau was already used")
        state = (self.matrix, self._columns, self._status, self._pivots)
        self.matrix = self._columns = self._status = self._run = None
        return state


@dataclass(frozen=True)
class LpResult:
    status: str
    objective: float | None
    values: dict[str, float]
    iterations: int
    basis: Basis  # the final basis, whatever the status
    refactorizations: int  # LAPACK factorizations of the basis matrix
    # the final tableau, a one-use start for the next solve of this LP
    tableau: Tableau = field(compare=False, repr=False)


class PreparedLp:
    """A model compiled to numeric arrays, solvable many times over with
    different variable bounds (the branch-and-bound hot path)."""

    def __init__(self, model: Model):
        check_model(model)
        self.model = model
        self.names = [v.name for v in model.variables]
        self.rows = [c.name for c in model.constraints]
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
            _read_row(a, b, i, con, self.var_index)
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
        self._primal_tol = _primal_tol(b)
        # the pricing tolerance of phase 2 and of the dual's reduced costs
        self._dtol = 1e-9 * max(1.0, float(np.max(np.abs(cost))))
        status = np.full(cols, _AT_LOWER, dtype=np.int8)
        status[n:] = _BASIC
        self.slack_basis = Basis(tuple(range(n, cols)), status.tobytes())

    def derive(self, model: Model) -> PreparedLp:
        """Compile `model` from this compile. Where `model` shares this
        compile's variables and objective terms by identity and has as many
        rows, only the rows whose Constraint object differs are read again
        (such as the next scenario of a sweep); each must keep its row's
        name and sense, and is checked to reference declared variables
        only. The bounds, costs and names are shared, and A and b equal a
        fresh compile's bit for bit. Otherwise this is a fresh compile."""
        old = self.model
        if (model.variables is not old.variables
                or model.objective_terms is not old.objective_terms
                or len(model.constraints) != self.m):
            return PreparedLp(model)
        changed = [(i, con) for i, (con, was) in enumerate(zip(model.constraints, old.constraints))
                   if con is not was]
        for i, con in changed:
            was = old.constraints[i]
            if con.name != was.name or con.sense != was.sense:
                return PreparedLp(model)
            check_terms(con, self.var_index)
        derived = object.__new__(PreparedLp)
        derived.__dict__.update(self.__dict__)
        derived.model = model
        derived._a = a = self._a.copy()
        derived._b = b = self._b.copy()
        for i, con in changed:
            a[i, :self.n] = 0.0
            _read_row(a, b, i, con, self.var_index)
        derived._primal_tol = _primal_tol(b)
        return derived

    def solve(
        self,
        bound_overrides: dict[str, tuple[float, float]] | None = None,
        *,
        start: Basis | Tableau | None = None,
        deadline: float | None = None,
        cutoff: float | None = None,
    ) -> LpResult:
        """Solve under the model's bounds with `bound_overrides` applied,
        starting from `start`: a basis (the slack basis by default) or the
        final tableau of an earlier solve of a compile with the same
        variable and row names, which the solve takes over. A start whose
        basis matrix is singular here falls back to the slack basis. When
        `time.monotonic()` passes `deadline`, the solve stops with status
        time_limit. While the dual simplex runs with no cost shifted, each
        of its points bounds the optimum from below: once that bound, the
        objective recomputed from the point, exceeds `cutoff`, the solve
        stops with status cutoff. A solve that returns another status may
        still end above `cutoff`."""
        if start is None:
            start = self.slack_basis
        elif isinstance(start, Basis) and (
                len(start.columns) != self.m or len(start.status) != self.n + self.m):
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
        run = _SimplexRun(self, lower, upper, deadline, cutoff)
        return run.solve(start)


def branch_bounds(result: LpResult, name: str) -> tuple[float, float]:
    """Lower bounds on the optima of the two children of `result`, an
    optimal solve whose basic binary `name` has the fractional value f: the
    child that fixes `name` to 0, then the one that fixes it to 1. Read
    from `result`'s live tableau, so call this before a solve takes it
    over.

    Each bound is Driebeek's penalty (Management Science 12, 1966): the
    objective after the dual simplex's first step in that child, the
    parent's objective + delta*t. Delta is how far f lies outside the
    child's bounds (f, or 1 - f), and t the exact shortest dual step that
    brings one of `_dual_ratio_test`'s candidate columns to a zero reduced
    cost. The reduced costs are dual feasible at an optimum, so every dual
    point of the child, the one after that step among them, bounds its
    optimum from below. A child with no candidate column gets no bound
    (-inf)."""
    run = result.tableau._run
    if run is None:
        raise ValueError("the tableau was taken over by another solve")
    row = int((run.basis == run.prep.var_index[name]).argmax())
    z = run._reduced_costs(run.prep._cost)
    f = result.values[name]
    bounds = []
    for above, delta in ((True, f), (False, 1.0 - f)):
        candidates, slope, slack = run._dual_slopes(row, above, z)
        bounds.append(result.objective + delta * float((slack / slope).min())
                      if candidates.size else -math.inf)
    return bounds[0], bounds[1]


def _primal_tol(b: np.ndarray) -> float:
    """The primal tolerance of the infeasibility verdict and the
    certificates, scaled by the largest right-hand side."""
    return _FEAS_TOL * (max(1.0, float(np.max(np.abs(b)))) if b.size else 1.0)


def _read_row(a: np.ndarray, b: np.ndarray, i: int, con, var_index: dict[str, int]) -> None:
    """Add row i's terms into its zeroed structural entries of `a`, in term
    order, and set its right-hand side."""
    for name, coef in con.terms:
        a[i, var_index[name]] += coef
    b[i] = con.rhs


class _SimplexRun:
    def __init__(self, prep: PreparedLp, lower, upper, deadline, cutoff):
        self.prep = prep
        self.m = prep.m
        self.cols = prep.n + prep.m
        self.a = prep._a
        self.b = prep._b
        self.lower = lower
        self.upper = upper
        self.fixed = upper - lower <= 0.0
        self.primal_tol = prep._primal_tol
        self.dtol = prep._dtol
        self.deadline = deadline
        self.cutoff = cutoff
        self.iterations = 0
        self.pivots_since_refactor = 0
        self.refactorizations = 0
        self.fresh = False  # the tableau is a factorization no pivot has touched

    # -- setup ------------------------------------------------------------

    def _load(self, start: Basis | Tableau) -> None:
        """Take the start's basis, whether or not each basic value lies
        within its bounds (the dual repairs the ones that do not). A nonbasic
        column keeps its bound where that bound is finite, else takes the
        other finite bound, else sits free at zero. A basis is refactorized;
        a taken-over tableau, its changed columns replaced, gives
        x_B = B^-1*(b - A_N*x_N) directly."""
        if isinstance(start, Tableau):
            self.tableau, basis, status, self.pivots_since_refactor = start._take(self.prep)
        else:
            basis = np.array(start.columns, dtype=np.intp)
            status = np.frombuffer(start.status, dtype=np.int8)
        has_lo = np.isfinite(self.lower)
        has_up = np.isfinite(self.upper)
        want_up = ((status == _AT_UPPER) & has_up) | ~has_lo
        self.status = np.where(
            want_up, np.where(has_up, _AT_UPPER, _AT_FREE), _AT_LOWER
        ).astype(np.int8)
        self.basis = basis
        self.status[self.basis] = _BASIC
        # the value of each nonbasic column (0 for a basic one), kept by
        # _set_nonbasic and _pivot
        self.x_nonbasic = np.where(self.status == _AT_LOWER, self.lower,
                                   np.where(self.status == _AT_UPPER, self.upper, 0.0))
        # the bounds of the basic variables, in row order
        self.lo_b = self.lower[self.basis]
        self.up_b = self.upper[self.basis]
        # the pricing sign of each column: the reduced cost z_j times gain_j
        # is what entering j gains (-1 at lower, +1 at upper, 0 when basic or
        # fixed); a nonbasic free column gains |z_j|
        self.gain = _GAIN[self.status]
        self.gain[self.fixed] = 0.0
        self.free = (self.status == _AT_FREE).nonzero()[0]
        if isinstance(start, Tableau) and (
                start.prep is self.prep or self._replace_columns(start.prep._a)):
            residual = self.b - self.a @ self.x_nonbasic
            self.x_basic = self.tableau[:, self.prep.n:] @ residual
        else:
            self._refactorize()

    def _replace_columns(self, old_a: np.ndarray) -> bool:
        """Carry a tableau of another compile's columns `old_a` over to this
        LP's: each changed column j becomes B^-1*a'_j, and a basic one is
        pivoted back into its own row, replacing a_j by a'_j in the basis.
        False when such a pivot vanishes (the new basis is singular or
        nearly so); the tableau is then left to a refactorization."""
        changed = np.flatnonzero((self.a != old_a).any(axis=0))
        self.tableau[:, changed] = self.tableau[:, self.prep.n:] @ self.a[:, changed]
        row_of = np.full(self.cols, -1)
        row_of[self.basis] = np.arange(self.m)
        for j in changed:
            row = row_of[j]
            if row >= 0:
                if abs(self.tableau[row, j]) <= _PIVOT_TOL:
                    return False
                self._eliminate(row, j)
        return True

    def _point(self) -> np.ndarray:
        """Every column's value: nonbasic ones at their bounds, basic ones
        as the tableau gives them."""
        x = self.x_nonbasic.copy()
        x[self.basis] = self.x_basic
        return x

    def _total_violation(self) -> float:
        """How far the basic variables lie outside their bounds, in sum."""
        shortfall = self.lo_b - self.x_basic
        excess = self.x_basic - self.up_b
        return float(shortfall[shortfall > _PRIMAL_TOL].sum()
                     + excess[excess > _PRIMAL_TOL].sum())

    # -- linear algebra ---------------------------------------------------

    def _refactorize(self) -> None:
        """Recompute B^-1*A and the basic values from the original columns,
        with one LAPACK solve on [A_N | b - A_N*x_N]; the basic columns of
        B^-1*A are the identity. A basis made of all the slack columns is
        the identity up to row order, so there B^-1*A is A with its rows
        reordered and no LAPACK call is made."""
        n = self.prep.n
        residual = self.b - self.a @ self.x_nonbasic
        if (self.status[n:] == _BASIC).all():
            rows = self.basis - n
            self.tableau = self.a[rows]
            self.x_basic = residual[rows]
        else:
            nonbasic = np.flatnonzero(self.status != _BASIC)
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
            self.refactorizations += 1
        self.pivots_since_refactor = 0
        self.fresh = True

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        z = cost - cost[self.basis] @ self.tableau
        z[self.basis] = 0.0
        return z

    # -- pivoting ---------------------------------------------------------

    def _choose_entering(self, z: np.ndarray, bland: bool):
        """The column whose reduced cost gains most (Dantzig), or the first
        that gains more than dtol (Bland); None when none does. A NaN
        reduced cost never enters."""
        dtol = self.dtol
        score = self._gains(z)
        if bland:
            eligible = score > dtol
            q = int(eligible.argmax())
            if not eligible[q]:
                return None
        else:
            q = int(score.argmax())
            if not score[q] > dtol:
                if not math.isnan(score[q]):
                    return None
                # argmax stops at the first NaN: rank the others without it
                score = np.where(score > dtol, score, -math.inf)
                q = int(score.argmax())
                if not score[q] > dtol:
                    return None
        direction = 1.0 if z[q] < 0.0 else -1.0
        return q, direction

    def _gains(self, z: np.ndarray) -> np.ndarray:
        """What entering each column gains at reduced costs `z`: z_j*gain_j,
        or |z_j| for a free column (0 for a basic or fixed one)."""
        score = self.gain * z
        if self.free.size:
            score[self.free] = np.abs(z[self.free])
        return score

    def _ratio_test(self, q: int, direction: float, bland: bool):
        """Longest step the entering column can take in phase 2, where
        every basic variable is within its bounds: one moving down stops at
        its lower bound, one moving up at its upper bound."""
        e = direction * self.tableau[:, q]
        to_upper = e < -_PIVOT_TOL
        blocks = (e > _PIVOT_TOL) | to_upper
        target = np.where(to_upper, self.up_b, self.lo_b)
        blocks &= np.isfinite(target)
        ratios = np.empty(self.m)
        ratios.fill(math.inf)
        np.divide(self.x_basic - target, e, out=ratios, where=blocks)

        # a ratio below zero (a basic value just outside its bound) counts as 0
        row_min = ratios.min() if self.m else math.inf
        if row_min < 0.0:
            row_min = 0.0
        own_range = self.upper[q] - self.lower[q]
        if own_range <= row_min:
            if math.isinf(own_range):
                return None, math.inf, e, None
            return -1, own_range, e, None  # bound flip, no basis change
        if math.isinf(row_min):
            return None, math.inf, e, None
        near = (ratios <= row_min + _RATIO_TIE).nonzero()[0]
        if len(near) == 1:
            best = near[0]
        elif bland:
            best = near[self.basis[near].argmin()]
        else:
            best = near[np.abs(e[near]).argmax()]
            ties = near[np.abs(e[near]) >= abs(e[best]) - _RATIO_TIE]
            if len(ties) > 1:
                best = ties[self.basis[ties].argmin()]
        leaves_at = _AT_UPPER if to_upper[best] else _AT_LOWER
        return int(best), row_min, e, leaves_at

    def _set_nonbasic(self, j: int, at: int) -> None:
        self.status[j] = at
        self.x_nonbasic[j] = self.upper[j] if at == _AT_UPPER else self.lower[j]
        if not self.fixed[j]:
            self.gain[j] = 1.0 if at == _AT_UPPER else -1.0

    def _pivot(self, q: int, direction: float, row: int, step: float, e, z, leaves_at):
        """Swap q into the basis at `row`, and update the reduced costs `z`
        for the new basis."""
        new_value = self.x_nonbasic[q] + direction * step
        self.x_basic -= step * e
        self._set_nonbasic(self.basis[row], leaves_at)

        if abs(self.tableau[row, q]) <= _PIVOT_TOL:
            raise SimplexError("pivot element vanished")
        piv_row = self._eliminate(row, q)

        if self.status[q] == _AT_FREE:
            self.free = self.free[self.free != q]
        self.basis[row] = q
        self.status[q] = _BASIC
        self.x_nonbasic[q] = 0.0
        self.gain[q] = 0.0
        self.lo_b[row] = self.lower[q]
        self.up_b[row] = self.upper[q]
        self.x_basic[row] = new_value
        z -= z[q] * piv_row
        z[self.basis] = 0.0

    def _eliminate(self, row: int, q: int) -> np.ndarray:
        """Make column q the unit column of `row` with one rank-1 update of
        the tableau; return the scaled pivot row. Where at most half of the
        pivot column is nonzero, only those rows are updated, and where at
        most a tenth of the pivot row is, only those columns."""
        piv_row = self.tableau[row] / self.tableau[row, q]
        col = self.tableau[:, q]  # read in full before the update writes
        rows = col.nonzero()[0]
        if 2 * rows.size > self.m:
            rows = slice(None)
        cols = piv_row.nonzero()[0]
        if 10 * cols.size > self.cols:
            cols = slice(None)
        if isinstance(rows, slice) or isinstance(cols, slice):
            block = rows, cols
        else:
            block = np.ix_(rows, cols)
        self.tableau[block] -= np.multiply.outer(col[rows], piv_row[cols])
        self.tableau[row] = piv_row
        self.pivots_since_refactor += 1
        self.fresh = False
        return piv_row

    # -- phases -----------------------------------------------------------

    def _run_primal(self) -> str:
        """Primal phase 2: from a point within the bounds, iterate on the
        true costs to optimality. An optimum on a drifted tableau needs its
        certificate; a failed one refactorizes, and out_of_bounds is
        returned when the refactorized basic values leave their bounds."""
        cost = self.prep._cost
        z = None
        retries = 0
        streak = 0  # degenerate steps in a row
        while True:
            if self.iterations >= _MAX_ITERATIONS:
                raise SimplexError(f"iteration limit {_MAX_ITERATIONS} exceeded")
            if self.deadline is not None and time.monotonic() > self.deadline:
                return STATUS_TIME_LIMIT
            if z is None:
                z = self._reduced_costs(cost)
            bland = streak >= _BLAND_AFTER
            pick = self._choose_entering(z, bland)
            if pick is None:
                self.x = self._point()
                # a fresh factorization is trusted
                if self.fresh or retries >= _OPTIMALITY_RETRIES or self._certified(self.x):
                    return STATUS_OPTIMAL
                self._refactorize()
                if self._total_violation() > self.primal_tol:
                    return _STATUS_OUT_OF_BOUNDS
                z = None
                retries += 1
                continue
            q, direction = pick
            row, step, e, leaves_at = self._ratio_test(q, direction, bland)
            if row is None:
                return STATUS_UNBOUNDED
            self.iterations += 1
            streak = 0 if step > _DEGENERATE_STEP else streak + 1
            if row == -1:
                self.x_basic -= step * e
                self._set_nonbasic(q, _AT_UPPER if direction > 0.0 else _AT_LOWER)
            else:
                self._pivot(q, direction, row, step, e, z, leaves_at)
                if self.pivots_since_refactor >= _REFACTOR_EVERY:
                    self._refactorize()
                    z = None

    def _dual_costs(self) -> np.ndarray:
        """The reduced costs of the dual's costs, made dual feasible: each
        boxed column that would gain by entering (beyond dtol) is flipped
        to its other bound, and each other one has its cost shifted, in a
        copy, until its reduced cost is zero. A NaN reduced cost is left as
        it is; its column never enters."""
        z = self._reduced_costs(self.cost)
        wrong = self._gains(z) > self.dtol
        boxed = np.isfinite(self.lower) & np.isfinite(self.upper)
        for j in (wrong & boxed).nonzero()[0]:
            was = self.x_nonbasic[j]
            self._set_nonbasic(j, _AT_LOWER if self.status[j] == _AT_UPPER else _AT_UPPER)
            self.x_basic -= (self.x_nonbasic[j] - was) * self.tableau[:, j]
        shift = wrong & ~boxed
        if shift.any():
            if self.cost is self.prep._cost:
                self.cost = self.cost.copy()
            self.cost[shift] -= z[shift]
            z[shift] = 0.0
        return z

    def _dual_slopes(self, row: int, above: bool, z: np.ndarray):
        """The columns whose move brings the basic variable of `row` back
        to the bound it violates (its upper one when `above`), with each
        one's slope and slack: a dual step t lowers the slack (how far its
        reduced cost in `z` is from gaining; a free column has none) by
        t*slope, where slope is |alpha_rj|. A NaN reduced cost is no
        candidate."""
        slope = self._gains(-self.tableau[row] if above else self.tableau[row])
        candidates = ((slope > _PIVOT_TOL) & np.isfinite(z)).nonzero()[0]
        return candidates, slope[candidates], np.maximum(-self._gains(z)[candidates], 0.0)

    def _dual_ratio_test(self, row: int, above: bool, z: np.ndarray, bland: bool) -> int | None:
        """The entering column for the basic variable of `row` leaving at
        the bound it violates, or None when no column's move brings it
        back (see _dual_slopes). Harris's first pass finds the longest step
        that leaves no slack below -dtol; the second takes, among the
        columns whose slack runs out within it, the largest |alpha_rj|.
        Under Bland's rule the shortest step wins, ties to the lowest
        column."""
        candidates, slope, slack = self._dual_slopes(row, above, z)
        if not candidates.size:
            return None
        if bland:
            ratio = slack / slope
            return int(candidates[(ratio <= ratio.min() + _RATIO_TIE).argmax()])
        longest = ((slack + self.dtol) / slope).min()
        within = slack / slope <= longest
        return int(candidates[np.where(within, slope, -1.0).argmax()])

    def _run_dual(self) -> str:
        """The dual simplex of the module docstring, on the true costs
        until a column must be shifted. Returns optimal once no basic value
        violates its bounds, for phase 2 to finish; infeasible at a
        certified dead end, or at a dead end on a fresh factorization whose
        total violation exceeds the primal tolerance; cutoff; or
        time_limit. Any other dead end refactorizes and goes on."""
        self.cost = self.prep._cost  # shifted in a copy by _dual_costs
        z = self._dual_costs()
        best = -math.inf
        stalled = 0
        while True:
            if self.iterations >= _MAX_ITERATIONS:
                raise SimplexError(f"iteration limit {_MAX_ITERATIONS} exceeded")
            if self.deadline is not None and time.monotonic() > self.deadline:
                return STATUS_TIME_LIMIT
            objective = self._objective(self.cost, self._point())
            # a shifted objective bounds nothing
            if (self.cutoff is not None and objective > self.cutoff
                    and self.cost is self.prep._cost):
                return STATUS_CUTOFF
            if objective > best:
                best, stalled = objective, 0
            else:
                stalled += 1
            bland = stalled >= _DUAL_BLAND_AFTER * self.cols
            violation = np.maximum(self.lo_b - self.x_basic, self.x_basic - self.up_b)
            violated = violation > _PRIMAL_TOL
            if not violated.any():
                return STATUS_OPTIMAL
            if bland:
                row = int(np.where(violated, self.basis, self.cols).argmin())
            else:
                row = int(np.where(violated, violation, 0.0).argmax())
            above = bool(self.x_basic[row] > self.up_b[row])
            q = self._dual_ratio_test(row, above, z, bland)
            if q is None:
                push = np.zeros(self.m)
                push[row] = -1.0 if above else 1.0
                if self._infeasibility_certified(push):
                    return STATUS_INFEASIBLE
                if self.fresh:  # a fresh factorization is trusted
                    return (STATUS_INFEASIBLE if self._total_violation() > self.primal_tol
                            else STATUS_OPTIMAL)
                self._refactorize()
                z = self._dual_costs()
                continue
            target = self.up_b[row] if above else self.lo_b[row]
            change = (self.x_basic[row] - target) / self.tableau[row, q]
            direction = 1.0 if change >= 0.0 else -1.0
            if self.status[q] == _AT_FREE or self.gain[q] * z[q] > 0.0:
                z[q] = 0.0  # gains by at most dtol (Harris): a zero dual step
            self.iterations += 1
            self._pivot(q, direction, row, abs(change), direction * self.tableau[:, q], z,
                        _AT_UPPER if above else _AT_LOWER)
            if self.pivots_since_refactor >= _REFACTOR_EVERY:
                self._refactorize()
                z = self._dual_costs()

    def _certified(self, x: np.ndarray) -> bool:
        """Whether the current point `x` is optimal on the original rows,
        however far the tableau has drifted: x meets Ax = b and the bounds,
        and the duals y = c_B*B^-1 (the tableau's slack block) give every
        basic column a zero reduced cost and every nonbasic one the sign its
        bound status needs; a non-finite x or reduced cost fails. O(m*(n+m))."""
        if not np.isfinite(x).all():
            return False
        if self.m and float(np.max(np.abs(self.a @ x - self.b))) > self.primal_tol:
            return False
        if self._total_violation() > self.primal_tol:
            return False
        cost = self.prep._cost
        y = cost[self.basis] @ self.tableau[:, self.prep.n:]
        d = cost - y @ self.a
        if not np.isfinite(d).all():
            return False
        # what entering each nonbasic column would gain, as in pricing; a
        # fixed nonbasic column may not move, and a basic one must price at 0
        score = self._gains(d)
        score[self.basis] = np.abs(d[self.basis])
        return not (score > self.dtol).any()

    def _infeasibility_certified(self, push: np.ndarray) -> bool:
        """Whether the original rows prove the LP infeasible (a Farkas
        certificate), however far the tableau has drifted. With y =
        push*B^-1 (the tableau's slack block) and g = y*A, every x with
        Ax = b has g*x = y*b; no x within the bounds does when the least
        g*x the bounds allow exceeds y*b by more than the primal tolerance.
        A component with |g_j| no larger than _FARKAS_TOL counts as zero; a
        NaN fails. O(m*(n+m))."""
        y = push @ self.tableau[:, self.prep.n:]
        g = y @ self.a
        up = g > _FARKAS_TOL
        down = g < -_FARKAS_TOL
        least = g[up] @ self.lower[up] + g[down] @ self.upper[down]
        return least - float(y @ self.b) > self.primal_tol

    # -- driver -----------------------------------------------------------

    def solve(self, start: Basis | Tableau) -> LpResult:
        try:
            self._load(start)
        except SimplexError:  # singular here: B = I never is
            self._load(self.prep.slack_basis)
        status = _STATUS_OUT_OF_BOUNDS
        while status == _STATUS_OUT_OF_BOUNDS:
            status = self._run_dual()
            if status == STATUS_OPTIMAL:
                status = self._run_primal()
        if status != STATUS_OPTIMAL:
            return self._result(status, None, {})
        return self._finish()

    def _result(self, status: str, objective: float | None, values: dict) -> LpResult:
        basis = Basis(tuple(self.basis.tolist()), self.status.tobytes())
        live = Tableau(self.prep, self.tableau, self.basis, self.status,
                       self.pivots_since_refactor, self)
        return LpResult(status, objective, values, self.iterations, basis,
                        self.refactorizations, live)

    def _objective(self, cost: np.ndarray, x: np.ndarray) -> float:
        return float(cost @ x) + self.prep.model.objective_constant

    def _finish(self) -> LpResult:
        x = self.x  # phase 2's optimal point
        values = dict(zip(self.prep.names, x[:self.prep.n].tolist()))
        return self._result(STATUS_OPTIMAL, self._objective(self.prep._cost, x), values)
