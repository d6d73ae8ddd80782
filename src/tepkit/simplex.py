"""Self-contained bounded-variable simplex: the dual simplex, from any
start, to an optimum or a verdict.

The engine solves  minimize c'x  subject to row constraints and variable
bounds, with no third-party solver behind it. Rows are turned into
equalities with one slack each (bounded by the row sense) and the slacks
form the starting basis, even where a slack starts outside its bounds.

Every solve is the dual simplex (Koberstein, The dual simplex method,
techniques for a fast and stable implementation, PhD thesis, Paderborn
2005). Its reduced costs are first made dual feasible: each nonbasic
column that would gain by entering flips to the bound it gains towards.
A column without both bounds first gets, for this solve only, the ones
its rows imply: Savelsbergh's activity-based tightening (ORSA J. Comput.
6, 1994) over A's nonzeros, run only where a flip needs it. This is
Koberstein's artificial bounding with bounds that cut off no feasible
point, so c'x at each dual point bounds the optimum from below, and a
solve given a cutoff stops once that objective exceeds it. Implied bounds
that cross prove the LP infeasible; a column whose flip needs a bound
they leave infinite is refused with ModelError. Each step takes the
basic variable with the largest bound violation out at that bound and
picks the entering column by Harris's two-pass ratio test (Math. Prog. 5,
1973), preferring the largest pivot among near ties. A dual whose
objective has not risen in as many steps as the LP has columns goes on
under Bland's rule: the lowest violated basic column leaves, and the
exact ratio test picks the entering column, ties to the lowest index.

An optimal solve's live tableau also bounds, with no LP, each child
that fixes one of its fractional basic binaries (`branch_bounds`):
Driebeek's penalty, the objective after the first step of that child's
dual simplex.

A solve starts from a basis (the slack basis by default, or the final
basis of a related LP, such as an open branch-and-bound node past the
search's budget for stored tableaux) or takes over the final tableau of
an earlier solve of the same compile, live or copied: a dive child its
parent's, a sibling left open a copy of it, a brute-force assignment the
previous one's. Only bounds differ, so the solve continues on that B^-1*A
in place, with x_B = B^-1*(b - A_N*x_N) from its slack block, B^-1. Each
nonbasic column keeps its bound status where the new bounds allow it, and
the dual repairs any basic variable the new bounds put out of range. A
dive child goes further and continues its parent's solve, adopting its
state and the reduced costs `branch_bounds` formed (see _continue).

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

The tableau B^-1*A is kept dense and updated by rank-1 pivots, which
touch only the pivot's nonzero rows and columns where these are few
(`_eliminate`). It is refactorized from the original columns when a
start gives only a basis (or a column replacement fails) and every 128
pivots (column replacements count). A basis of slacks alone, such as
the default start, is B = I up to the order of its rows and loads as A
itself, without LAPACK. A refactorization that finds the basis singular
restarts the solve from the slack basis.

Neither verdict refactorizes; each is certified on the original rows
instead, so accumulated drift cannot produce a false one. An optimum
must satisfy Ax = b, and y = c_B*B^-1 must price every column with the
sign its bound status needs (weak duality). Its bounds need no test: the
dual stops optimal only once no basic value violates its bounds by more
than _PRIMAL_TOL, or at a dead end on a fresh factorization, which is
trusted and never certified. An
infeasibility verdict needs a Farkas certificate: at a dual dead end,
where no entering column can repair the leaving row r, y = +-e_r*B^-1
must show that no point within the bounds reaches y*b (Maros 2003). A
failed certificate refactorizes, and the dual runs again. A dual dead
end on a fresh factorization is infeasible when the total bound
violation exceeds the primal tolerance, and optimal otherwise.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .model import Model, ModelError, SENSE_GE, SENSE_LE, check_model, check_terms

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
_RATIO_TIE = 1e-12
_BLAND_STALLS = 1  # steps without a rise, per column, before Bland's rule
_REFACTOR_EVERY = 128
_OPTIMALITY_RETRIES = 5
_MAX_ITERATIONS = 20000  # per solve; past it the solve raises SimplexError
# the ufunc reductions behind ndarray.min/any/all, called without their wrapper
_min = np.minimum.reduce
_any = np.logical_or.reduce
_all = np.logical_and.reduce

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_TIME_LIMIT = "time_limit"
STATUS_CUTOFF = "cutoff"


class SimplexError(RuntimeError):
    """A solve passed the iteration limit."""


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
        # the pricing tolerance of the dual's reduced costs and certificate
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
        time_limit. Each point of the dual simplex bounds the optimum from
        below: once that bound, the objective recomputed from the point,
        exceeds `cutoff`, the solve stops with status cutoff. So an optimal
        solve's objective, checked on the point it returns, is at most
        `cutoff`. Raises ModelError when a column must flip to a bound that
        is infinite and its rows imply no finite one."""
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
    brings one of `_entering`'s candidate columns to a zero reduced
    cost. The reduced costs are dual feasible at an optimum, so every dual
    point of the child, the one after that step among them, bounds its
    optimum from below. A child with no candidate column gets no bound
    (-inf). The reduced costs are kept for the dive child's solve."""
    run = result.tableau._run
    if run is None:
        raise ValueError("the tableau was taken over by another solve")
    row = int((run.basis == run.prep.var_index[name]).argmax())
    z = run.priced = run._reduced_costs()
    # _entering's slopes for both children (the 0-child's binary leaves above)
    slope = run._gains(np.multiply.outer((-1.0, 1.0), run.tableau[row]))
    candidate = (slope > _PIVOT_TOL) & np.isfinite(z)
    ratio = np.divide(np.maximum(-run._gains(z), 0.0), slope,
                      out=np.full(slope.shape, math.inf), where=candidate)
    step = _min(ratio, axis=1)
    f = result.values[name]
    return tuple(result.objective + delta * float(t) if _any(has) else -math.inf
                 for delta, t, has in zip((f, 1.0 - f), step, candidate))


def _primal_tol(b: np.ndarray) -> float:
    """The primal tolerance of the infeasibility verdict and the
    certificates, scaled by the largest right-hand side."""
    return _FEAS_TOL * (max(1.0, float(np.max(np.abs(b)))) if b.size else 1.0)


def _rest(terms: np.ndarray, rows: np.ndarray, m: int) -> np.ndarray:
    """For each term, the sum of the other terms of its row (`terms` are
    finite or -inf, `rows` their rows): -inf where another term is."""
    finite = np.isfinite(terms)
    values = np.where(finite, terms, 0.0)
    infinite = np.bincount(rows[~finite], minlength=m)
    return np.where(infinite[rows] == ~finite,
                    np.bincount(rows, values, m)[rows] - values, -math.inf)


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
        self.priced = None  # reduced costs of the tableau as it stands, or None

    # -- setup ------------------------------------------------------------

    def _load(self, start: Basis | Tableau) -> None:
        """Take the start's basis, whether or not each basic value lies
        within its bounds (the dual repairs the ones that do not). A nonbasic
        column keeps its bound where that bound is finite, else takes the
        other finite bound, else sits free at zero. A basis is refactorized;
        a taken-over tableau, its changed columns replaced, gives
        x_B = B^-1*(b - A_N*x_N) directly. A live tableau of this compile
        continues the solve that left it (_continue) where it can."""
        parent = start._run if isinstance(start, Tableau) and start.prep is self.prep else None
        if isinstance(start, Tableau):
            self.tableau, basis, status, self.pivots_since_refactor = start._take(self.prep)
        else:
            basis = np.array(start.columns, dtype=np.intp)
            status = np.frombuffer(start.status, dtype=np.int8)
        if parent is None or not self._continue(parent):
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
            # the pricing sign of each column: the reduced cost z_j times
            # gain_j is what entering j gains (-1 at lower, +1 at upper, 0
            # when basic or fixed); a nonbasic free column gains |z_j|
            self.gain = _GAIN[self.status]
            self.gain[self.fixed] = 0.0
            self.free = (self.status == _AT_FREE).nonzero()[0]
        if isinstance(start, Tableau) and (
                start.prep is self.prep or self._replace_columns(start.prep._a)):
            residual = self.b - self.a @ self.x_nonbasic
            self.x_basic = self.tableau[:, self.prep.n:] @ residual
        else:
            self._refactorize()

    def _continue(self, parent: _SimplexRun) -> bool:
        """Adopt the column statuses, nonbasic values, pricing signs, free
        list and basic bounds (rewriting the rows of basic columns whose
        bounds differ here) of `parent`, the solve that left this tableau,
        and the reduced costs branch_bounds formed from it: the state a
        full load would rebuild, bit for bit. False, adopting nothing, when
        a nonbasic column's bounds differ (such as bounds its rows implied
        in the parent)."""
        moved = (self.lower != parent.lower) | (self.upper != parent.upper)
        if _any(moved & (parent.status != _BASIC)):
            return False
        self.basis, self.status = parent.basis, parent.status
        self.x_nonbasic, self.gain, self.free = parent.x_nonbasic, parent.gain, parent.free
        self.lo_b, self.up_b = parent.lo_b, parent.up_b
        rows = moved[self.basis].nonzero()[0]
        self.lo_b[rows] = self.lower[self.basis[rows]]
        self.up_b[rows] = self.upper[self.basis[rows]]
        self.priced = parent.priced
        return True

    def _replace_columns(self, old_a: np.ndarray) -> bool:
        """Carry a tableau of another compile's columns `old_a` over to this
        LP's: each changed column j becomes B^-1*a'_j, and a basic one is
        pivoted back into its own row, replacing a_j by a'_j in the basis.
        False when such a pivot vanishes (the new basis is singular or
        nearly so); the tableau is then left to a refactorization."""
        changed = np.flatnonzero(_any(self.a != old_a, axis=0))
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
        reordered and no LAPACK call is made. A singular basis restarts the
        solve from the slack basis."""
        n = self.prep.n
        residual = self.b - self.a @ self.x_nonbasic
        if _all(self.status[n:] == _BASIC):
            rows = self.basis - n
            self.tableau = self.a[rows]
            self.x_basic = residual[rows]
        else:
            nonbasic = np.flatnonzero(self.status != _BASIC)
            try:
                solved = np.linalg.solve(
                    self.a[:, self.basis], np.column_stack((self.a[:, nonbasic], residual))
                )
            except np.linalg.LinAlgError:  # B = I never is singular
                self._load(self.prep.slack_basis)
                return
            self.tableau = np.zeros((self.m, self.cols))
            self.tableau[:, nonbasic] = solved[:, :-1]
            self.tableau[np.arange(self.m), self.basis] = 1.0
            self.x_basic = solved[:, -1].copy()
            self.refactorizations += 1
        self.pivots_since_refactor = 0
        self.fresh = True

    def _reduced_costs(self) -> np.ndarray:
        cost = self.prep._cost
        z = cost - cost[self.basis] @ self.tableau
        z[self.basis] = 0.0
        return z

    # -- pivoting ---------------------------------------------------------

    def _gains(self, z: np.ndarray) -> np.ndarray:
        """What entering each column gains at reduced costs `z`: z_j*gain_j,
        or |z_j| for a free column (0 for a basic or fixed one)."""
        score = self.gain * z
        if self.free.size:
            score[..., self.free] = np.abs(z[..., self.free])
        return score

    def _set_nonbasic(self, j: int, at: int) -> None:
        self.status[j] = at
        self.x_nonbasic[j] = self.upper[j] if at == _AT_UPPER else self.lower[j]
        if not self.fixed[j]:
            self.gain[j] = 1.0 if at == _AT_UPPER else -1.0

    def _pivot(self, q: int, row: int, change: float, z, leaves_at):
        """Move q by `change` and swap it into the basis at `row`, and update
        the reduced costs `z` for the new basis."""
        new_value = self.x_nonbasic[q] + change
        self.x_basic -= change * self.tableau[:, q]
        self._set_nonbasic(self.basis[row], leaves_at)
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
        z[q] = 0.0  # every other basic column keeps its 0: its piv_row entry is 0

    def _eliminate(self, row: int, q: int) -> np.ndarray:
        """Make column q the unit column of `row` with one rank-1 update of
        the tableau; return the scaled pivot row. Where at most half of the
        pivot column is nonzero, only those rows are updated, and where at
        most a tenth of the pivot row is, only those columns."""
        piv_row = self.tableau[row] / self.tableau[row, q]
        col = self.tableau[:, q]  # read in full before the update writes
        rows = slice(None) if 2 * np.count_nonzero(col) > self.m else col.nonzero()[0]
        cols = (slice(None) if 10 * np.count_nonzero(piv_row) > self.cols
                else piv_row.nonzero()[0])
        if isinstance(rows, slice) or isinstance(cols, slice):
            block = rows, cols
        else:
            block = np.ix_(rows, cols)
        self.tableau[block] -= np.multiply.outer(col[rows], piv_row[cols])
        self.tableau[row] = piv_row
        self.pivots_since_refactor += 1
        self.fresh = False
        return piv_row

    # -- the dual simplex -------------------------------------------------

    def _dual_costs(self) -> np.ndarray | None:
        """The reduced costs, made dual feasible: each column that would
        gain by entering (beyond dtol) flips to the bound it gains towards,
        once a column without both bounds has the ones its rows imply. None
        when those bounds cross; ModelError for a column whose bound it
        flips to stays infinite. A NaN reduced cost is left as it is; its
        column never enters."""
        z, self.priced = self.priced, None
        if z is None:
            z = self._reduced_costs()
        wrong = (self._gains(z) > self.dtol).nonzero()[0]
        if not wrong.size:
            return z
        unboxed = wrong[~(np.isfinite(self.lower[wrong]) & np.isfinite(self.upper[wrong]))]
        if unboxed.size:
            implied = self._implied_bounds()
            if implied is None:
                return None
            self.lower[unboxed] = implied[0][unboxed]
            self.upper[unboxed] = implied[1][unboxed]
            target = np.where(z[unboxed] < 0.0, self.upper[unboxed], self.lower[unboxed])
            refused = unboxed[np.isinf(target)]
            if refused.size:
                j, n = refused[0], self.prep.n
                name = (f"variable {self.prep.names[j]!r}" if j < n
                        else f"the slack of row {self.prep.rows[j - n]!r}")
                raise ModelError(f"{name} needs finite bounds to move in the dual "
                                 "simplex; it has an infinite one, and its rows imply none")
        for j in wrong:
            was = self.x_nonbasic[j]
            self._set_nonbasic(j, _AT_UPPER if z[j] < 0.0 else _AT_LOWER)
            self.x_basic -= (self.x_nonbasic[j] - was) * self.tableau[:, j]
        if unboxed.size:  # a free column that flipped is free no longer
            self.free = (self.status == _AT_FREE).nonzero()[0]
        return z

    def _implied_bounds(self):
        """Lower and upper bounds on every column, implied by the rows
        Ax = b under this solve's bounds, that every point meeting them
        meets: Savelsbergh's activity-based tightening over A's nonzeros.
        Each round bounds a_ij*x_j by b_i less the range of row i's other
        terms, widened by the primal tolerance against rounding, and meets
        the result with the bounds so far, until a round makes no bound
        finite. None when a column's bounds cross: the LP is infeasible."""
        rows, cols = self.a.nonzero()
        coef = self.a[rows, cols]
        pos = coef > 0.0
        lower, upper = self.lower.copy(), self.upper.copy()
        while True:
            infinite = np.isinf(lower).sum() + np.isinf(upper).sum()
            # each term's least and greatest value, and the rest of its row's
            least = coef * np.where(pos, lower[cols], upper[cols])
            most = coef * np.where(pos, upper[cols], lower[cols])
            rest_least = _rest(least, rows, self.m) - self.primal_tol
            rest_most = self.primal_tol - _rest(-most, rows, self.m)
            b = self.b[rows]
            np.maximum.at(lower, cols, (b - np.where(pos, rest_most, rest_least)) / coef)
            np.minimum.at(upper, cols, (b - np.where(pos, rest_least, rest_most)) / coef)
            if _any(lower > upper):
                return None
            if np.isinf(lower).sum() + np.isinf(upper).sum() == infinite:
                return lower, upper

    def _entering(self, row: int, above: bool, z: np.ndarray, bland: bool) -> int | None:
        """The entering column for the basic variable of `row` leaving at
        the bound it violates (its upper one when `above`), or None when no
        column's move brings it back. Each candidate's slack (how far its
        reduced cost in `z` is from gaining; a free column has none) falls
        by t*|alpha_rj| in a dual step t; a NaN reduced cost is no
        candidate. Harris's first pass finds the longest step that leaves
        no slack below -dtol; the second takes, among the columns whose
        slack runs out within it, the largest |alpha_rj|. Under Bland's
        rule the shortest step wins, ties to the lowest column."""
        slope = self._gains(-self.tableau[row] if above else self.tableau[row])
        candidates = ((slope > _PIVOT_TOL) & np.isfinite(z)).nonzero()[0]
        if not candidates.size:
            return None
        slope = slope[candidates]
        slack = np.maximum(-self._gains(z)[candidates], 0.0)
        if bland:
            ratio = slack / slope
            return int(candidates[(ratio <= _min(ratio) + _RATIO_TIE).argmax()])
        longest = _min((slack + self.dtol) / slope)
        within = slack / slope <= longest
        return int(candidates[np.where(within, slope, -1.0).argmax()])

    def _run_dual(self) -> str:
        """The dual simplex of the module docstring: optimal once no basic
        value violates its bounds; infeasible at a certified dead end or
        where the implied bounds cross; cutoff; or time_limit. Any other
        dead end refactorizes and goes on, unless the factorization is
        fresh: then the LP is infeasible when the total violation exceeds
        the primal tolerance, and optimal otherwise."""
        z = None  # the reduced costs, recomputed after each refactorization
        best = -math.inf
        stalled = 0
        while True:
            if z is None:
                z = self._dual_costs()
                if z is None:
                    return STATUS_INFEASIBLE
            if self.iterations >= _MAX_ITERATIONS:
                raise SimplexError(f"iteration limit {_MAX_ITERATIONS} exceeded")
            if self.deadline is not None and time.monotonic() > self.deadline:
                return STATUS_TIME_LIMIT
            objective = self._objective(self._point())
            if self.cutoff is not None and objective > self.cutoff:
                return STATUS_CUTOFF
            if objective > best:
                best, stalled = objective, 0
            else:
                stalled += 1
            bland = stalled >= _BLAND_STALLS * self.cols
            if not self.m:
                return STATUS_OPTIMAL
            violation = np.maximum(self.lo_b - self.x_basic, self.x_basic - self.up_b)
            row = int(violation.argmax())
            # the largest violation leaves, unless within tolerance or NaN
            if bland or not violation[row] > _PRIMAL_TOL:
                violated = violation > _PRIMAL_TOL
                if not _any(violated):
                    return STATUS_OPTIMAL
                row = int(np.where(violated, self.basis, self.cols).argmin() if bland
                          else np.where(violated, violation, 0.0).argmax())
            above = bool(self.x_basic[row] > self.up_b[row])
            q = self._entering(row, above, z, bland)
            if q is None:
                push = np.zeros(self.m)
                push[row] = -1.0 if above else 1.0
                if self._infeasibility_certified(push):
                    return STATUS_INFEASIBLE
                if self.fresh:  # a fresh factorization is trusted
                    return (STATUS_INFEASIBLE if self._total_violation() > self.primal_tol
                            else STATUS_OPTIMAL)
                self._refactorize()
                z = None
                continue
            target = self.up_b[row] if above else self.lo_b[row]
            change = (self.x_basic[row] - target) / self.tableau[row, q]
            if self.status[q] == _AT_FREE or self.gain[q] * z[q] > 0.0:
                z[q] = 0.0  # gains by at most dtol (Harris): a zero dual step
            self.iterations += 1
            self._pivot(q, row, change, z, _AT_UPPER if above else _AT_LOWER)
            if self.pivots_since_refactor >= _REFACTOR_EVERY:
                self._refactorize()
                z = None

    def _certified(self, x: np.ndarray) -> bool:
        """Whether the current point `x` is optimal on the original rows,
        however far the tableau has drifted: x meets Ax = b, and the duals
        y = c_B*B^-1 (the tableau's slack block) give every basic column a
        zero reduced cost and every nonbasic one the sign its bound status
        needs; a non-finite x or reduced cost fails. x is within its bounds:
        _run_dual found no violation above _PRIMAL_TOL. O(m*(n+m))."""
        if not _all(np.isfinite(x)):
            return False
        if self.m and float(np.maximum.reduce(np.abs(self.a @ x - self.b))) > self.primal_tol:
            return False
        cost = self.prep._cost
        y = cost[self.basis] @ self.tableau[:, self.prep.n:]
        d = cost - y @ self.a
        if not _all(np.isfinite(d)):
            return False
        # what entering each nonbasic column would gain, as in pricing; a
        # fixed nonbasic column may not move, and a basic one must price at 0
        score = self._gains(d)
        score[self.basis] = np.abs(d[self.basis])
        return not _any(score > self.dtol)

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
        """Run the dual; an optimum on a tableau pivots have touched must pass
        its certificate, or the dual runs again on a refactorization."""
        self._load(start)
        for retry in range(_OPTIMALITY_RETRIES + 1):
            status = self._run_dual()
            if status != STATUS_OPTIMAL:
                return self._result(status, None, {})
            x = self._point()
            # a fresh factorization is trusted
            if self.fresh or retry == _OPTIMALITY_RETRIES or self._certified(x):
                break
            self._refactorize()
        values = dict(zip(self.prep.names, x[:self.prep.n].tolist()))
        return self._result(STATUS_OPTIMAL, self._objective(x), values)

    def _result(self, status: str, objective: float | None, values: dict) -> LpResult:
        basis = Basis(tuple(self.basis.tolist()), self.status.tobytes())
        live = Tableau(self.prep, self.tableau, self.basis, self.status,
                       self.pivots_since_refactor, self)
        return LpResult(status, objective, values, self.iterations, basis,
                        self.refactorizations, live)

    def _objective(self, x: np.ndarray) -> float:
        return float(self.prep._cost @ x) + self.prep.model.objective_constant
