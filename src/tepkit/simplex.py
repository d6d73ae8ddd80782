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

An optimal solve's final tableau also bounds, with no LP, each child
that fixes one of its fractional basic binaries (`branch_bounds`):
Driebeek's penalty, the objective after the first step of that child's
dual simplex.

Every solve is a Tableau, its own result, and every start is one, which
the solve continues: by default the slack basis, else an earlier solve or
a copy of it: a dive child its parent's, a sibling left open a copy, a
sweep's root the previous root's, a brute-force assignment the previous
one's. A copy may leave out B^-1*A (`basis_copy`), as an open node of the
search past its budget for stored tableaux does. One path reads every
start (_load): it adopts the start's basis, column states and the rest of
its state, and settles again each nonbasic column whose bounds differ
from the start's final bounds (the dual reads the basic ones through the
basis). A start with B^-1*A gives x_B = B^-1*(b - A_N*x_N) from its slack
block, B^-1; one without is refactorized.

A model is compiled once to dense arrays (PreparedLp), as a presolved LP
(Andersen & Andersen, Math. Prog. 71, 1995). Each free column without cost
goes, fewest nonzeros first, through an equality row of at most three
terms that holds it (in a TEP model, the existing lines' flows and their
angle-flow rows); rows then exactly parallel (equal byte for byte once
scaled) merge into one row with a ranged slack, unless their ranges
cross, so that a Farkas certificate still proves the LP infeasible. A
solve's values are postsolved for every model variable. A model that
shares an earlier compile's variables and objective by identity is
compiled from it (`derive`): only the rows whose terms differ are read
again, a row that keeps the earlier terms only sets its right-hand side,
the plan (which columns go, which rows merge) is kept while it holds, and
the result equals a fresh compile bit for bit.

A final tableau may also start a solve of another compile with the same
variable and row names and the same plan, such as the next scenario of a
sweep, whose right-hand sides, bounds, costs and some columns of A
differ. Each column
j whose entries differ is recomputed as B^-1*a'_j from the slack block; a
basic one is then pivoted back into its own row, which replaces a_j by
a'_j in the basis with one rank-1 update (a column replacement, Maros
2003). Where that pivot is no larger than the pivot tolerance the new
basis is singular or nearly so, and the start falls back to refactorizing
it from the new columns.

The tableau B^-1*A is kept dense and updated by rank-1 pivots, which
touch only the pivot's nonzero rows and columns where these are few
(`_eliminate`). It is refactorized from the original columns when a
start carries no B^-1*A (or a column replacement fails) and every 128
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

import numpy as np

from .model import Model, ModelError, SENSE_GE, SENSE_LE, check_model, check_terms

# Column states. A nonbasic column sits at one of its bounds (or at zero
# when it has none); basic columns take whatever value balances the rows.
_AT_LOWER = 0
_AT_UPPER = 1
_AT_FREE = 2
_BASIC = 3
# the pricing sign of each state (see Tableau._settle); a free column
# gains |z_j| (Tableau._gains)
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
# what a Tableau start hands on to the solve that continues it (Tableau._load),
# which reads the basic columns' bounds from its own through the basis
_HANDED_ON = ("matrix", "basis", "state", "x_nonbasic", "gain", "free")
# the ufunc reductions behind ndarray.min/any/all, called without their wrapper
_min = np.minimum.reduce
_any = np.logical_or.reduce
_all = np.logical_and.reduce
_add = np.add.reduce

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_TIME_LIMIT = "time_limit"
STATUS_CUTOFF = "cutoff"


class SimplexError(RuntimeError):
    """A solve passed the iteration limit."""


class PreparedLp:
    """A model compiled to numeric arrays, solvable many times over with
    different variable bounds (the branch-and-bound hot path). The arrays
    are the presolved LP of the module docstring: `n` columns, the model's
    columns `kept`, and `m` rows, each standing for the model row
    `kept_rows` names and the rows merged into it, with one slack each.
    `plan` says which columns go, through which rows, and which rows
    merge: each row that stays is in one class of exactly parallel rows,
    a class of one too. `_a0` and `_b0` keep the model's own rows."""

    def __init__(self, model: Model):
        check_model(model)
        self.model = model
        self.names = [v.name for v in model.variables]
        self.rows = [c.name for c in model.constraints]
        self.var_index = model.variable_index()
        n, m = len(self.names), len(self.rows)
        a, b = np.zeros((m, n)), np.array([con.rhs for con in model.constraints], dtype=float)
        slack_lo, slack_up = np.zeros(m), np.zeros(m)  # each row's slack range, by its sense
        for i, con in enumerate(model.constraints):
            _read_row(a, i, con, self.var_index)
            if con.sense == SENSE_LE:
                slack_up[i] = math.inf
            elif con.sense == SENSE_GE:
                slack_lo[i] = -math.inf
        lower = np.array([v.lower for v in model.variables], dtype=float)
        upper = np.array([v.upper for v in model.variables], dtype=float)
        cost = np.zeros(n)
        for name, coef in model.objective_terms:
            cost[self.var_index[name]] += coef
        self._a0, self._b0 = a, b
        # the pricing tolerance of the dual's reduced costs and certificate
        self._dtol = 1e-9 * float(np.max(np.abs(cost), initial=1.0))

        free = (lower == -math.inf) & (upper == math.inf) & (cost == 0.0)
        gone, used = self._gone, self._used = _substitutions(a, free, (slack_lo == 0.0)
                                                             & (slack_up == 0.0))
        self.kept = kept = np.delete(np.arange(n), gone)
        rest = np.delete(np.arange(m), used)  # the rows that stay
        n = self.n = len(kept)
        self.column = {self.names[j]: k for k, j in enumerate(kept.tolist())}
        # x_gone = T*x_kept + b_used/pivot, from the rows that hold them; a
        # row that stays gains w times each of those rows, so its kept
        # columns gain `fill` and its right-hand side w*b_used
        self._pivot = a[used, gone]
        self._t = -a[used][:, kept] / self._pivot[:, None]
        self._rest, self._w = rest, -a[rest][:, gone] / self._pivot
        self._fill = np.zeros((m, n))  # by model row, 0 in a used one
        self._fill[rest] = self._w @ a[used][:, kept]
        a1 = a[rest][:, kept] + self._fill[rest]
        # a derived model may change an entry only on a kept column of a row
        # that stays, where the used rows add nothing, and in a row free to
        # move (below; derive)
        self._frozen = np.ones((m, len(self.names)), dtype=bool)
        self._frozen[:, kept] = self._fill != 0.0
        self._frozen[used] = True

        # classes of exactly parallel rows: rows equal byte for byte once
        # each is scaled by its first nonzero (an empty row by 1) and given a
        # zero column (np.unique finds no row of width 0), each led by its
        # lowest row. A row is free to move where the signs of its scaled row
        # are its own: no row can become its parallel
        r = len(rest)
        padded = np.column_stack((a1, np.ones(r)))
        scale = padded[np.arange(r), (padded != 0.0).argmax(axis=1)]
        scaled = np.column_stack((a1 / scale[:, None], np.zeros(r))) + 0.0  # no -0.0
        key = scaled.view(np.dtype((np.void, 8 * (n + 1))))[:, 0]  # each row as one value
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        rep = first[inverse]
        signs = np.sign(scaled).astype(np.int8).view(np.dtype((np.void, n + 1)))[:, 0]
        _, inverse, count = np.unique(signs, return_inverse=True, return_counts=True)
        self._frozen[rest[count[inverse] > 1]] = True
        # every row by class, a class of one too, and its class's lowest row
        # (positions in `rest`): each row's range for the slack s of the
        # lowest row follows from its own slack, b - ratio*(b_lowest - s),
        # which a class of one keeps (_ranges)
        order = self._order = np.argsort(rep, kind="stable")
        lowest = self._lowest = rep[order]
        self._starts = np.flatnonzero(lowest == order)
        self._ratio = scale[order] / scale[lowest]
        own = np.stack((slack_lo[rest], slack_up[rest]))
        self._sides = np.where(self._ratio > 0.0, own[:, order], own[::-1, order])
        low, high = self._ranges()
        crossed = self._crossed = ~(low <= high)
        # each class's lowest row stands, and every row of a crossed class
        stand = (lowest == order) | np.repeat(crossed, np.diff(self._starts, append=r))
        rows = np.sort(order[stand])
        self.m = len(rows)
        self.kept_rows = rest[rows]
        self._w_rows = self._w[rows]
        self._merged_at = n + np.searchsorted(rows, order[self._starts[~crossed]])
        self.plan = tuple(x.tobytes() for x in (gone, used, rep, crossed))
        self._a = np.zeros((self.m, n + self.m))  # structurals, then one slack per row
        self._a[:, :n] = a1[rows]
        self._a.reshape(-1)[n::n + self.m + 1] = 1.0
        self._lower = np.concatenate((lower[kept], own[0, rows]))
        self._upper = np.concatenate((upper[kept], own[1, rows]))
        self._cost = np.concatenate((cost[kept], np.zeros(self.m)))
        self._numbers(low, high)

    def _ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """Each class of parallel rows' slack range, crossed where it may
        not merge."""
        b = self._b0[self._rest] + self._w @ self._b0[self._used]
        sides = (self._sides - (b[self._order] - self._ratio * b[self._lowest])) / self._ratio
        return (np.maximum.reduceat(sides[0], self._starts),
                np.minimum.reduceat(sides[1], self._starts))

    def _numbers(self, low: np.ndarray, high: np.ndarray) -> None:
        """The numbers the right-hand sides set: b, the merged rows' ranges
        (_ranges), the primal tolerance and x_gone's shift."""
        self._b = self._b0[self.kept_rows] + self._w_rows @ self._b0[self._used]
        if self.m < len(self._order):  # some rows merge
            self._lower, self._upper = self._lower.copy(), self._upper.copy()
            self._lower[self._merged_at] = low[~self._crossed]
            self._upper[self._merged_at] = high[~self._crossed]
        self._primal_tol = _primal_tol(self._b)
        self._shift = self._b0[self._used] / self._pivot

    def derive(self, model: Model) -> PreparedLp:
        """Compile `model` from this compile. Where `model` shares this
        compile's variables and objective terms by identity, has as many rows
        and a finite objective constant, each row whose Constraint object
        differs (as in the next scenario of a sweep) must keep its name and
        sense and is checked (check_terms); only those whose terms tuple
        differs are read again, the others set their right-hand side. The
        plan is kept, and only the numbers recomputed, while the rows read
        keep every entry's sign and each frozen entry (_frozen), and no
        class's ranges cross anew or cease to; every array equals a fresh
        compile's bit for bit. Otherwise this is a fresh compile."""
        old = self.model
        if (model.variables is not old.variables
                or model.objective_terms is not old.objective_terms
                or len(model.constraints) != len(self.rows)
                or not math.isfinite(model.objective_constant)):
            return PreparedLp(model)
        a, b, read = self._a0.copy(), self._b0.copy(), []
        for i, (con, was) in enumerate(zip(model.constraints, old.constraints)):
            if con is not was:
                if con.name != was.name or con.sense != was.sense:
                    return PreparedLp(model)
                check_terms(con, self.var_index)
                if con.terms is not was.terms:
                    a[i] = 0.0
                    _read_row(a, i, con, self.var_index)
                    read.append(i)
                b[i] = con.rhs
        rows = np.array(read, dtype=int)
        was, now = self._a0[rows], a[rows]
        differs = was != now
        moved = rows[_any(differs, axis=1)]
        if (differs & (self._frozen[rows] | (np.sign(was) != np.sign(now)))).any():
            return PreparedLp(model)
        derived = object.__new__(PreparedLp)
        derived.__dict__.update(self.__dict__)
        derived.model, derived._a0, derived._b0 = model, a, b
        low, high = derived._ranges()
        if (~(low <= high) != self._crossed).any():
            return PreparedLp(model)
        if moved.size:
            derived._a = self._a.copy()
            derived._a[np.searchsorted(self.kept_rows, moved), :self.n] = \
                a[moved][:, self.kept] + self._fill[moved]
        derived._numbers(low, high)
        return derived

    def solve(
        self,
        bound_overrides: dict[str, tuple[float, float]] | None = None,
        *,
        start: Tableau | None = None,
        deadline: float | None = None,
        cutoff: float | None = None,
    ) -> Tableau:
        """Solve under the model's bounds with `bound_overrides` applied,
        continuing `start`: the slack basis by default, or the final
        tableau of an earlier solve of a compile it fits (Tableau.fits), or
        a copy of it. A start whose basis matrix is singular
        here falls back to the slack basis. When `time.monotonic()` passes
        `deadline`, the solve stops with status time_limit. Each point of
        the dual simplex bounds the optimum from below: once that bound, the
        objective recomputed from the point, exceeds `cutoff`, the solve
        stops with status cutoff. So an optimal solve's objective, checked
        on the point it returns, is at most `cutoff`. Raises ModelError when
        a column must flip to a bound that is infinite and its rows imply no
        finite one, and ValueError for an override of an unknown or a
        substituted variable or whose bounds fail lower <= upper, and for a
        start that does not fit this LP or was already used."""
        lower = self._lower.copy()
        upper = self._upper.copy()
        for name, (lo, up) in (bound_overrides or {}).items():
            j = self.column.get(name)
            if j is None:
                kind = "substituted" if name in self.var_index else "unknown"
                raise ValueError(f"override for {kind} variable {name!r}")
            if not lo <= up:  # written so that NaN fails it
                raise ValueError(f"override for {name!r} has lower > upper or a NaN bound")
            lower[j], upper[j] = lo, up
        tableau = Tableau(self, lower, upper, deadline, cutoff)
        return tableau.solve(tableau._slack_start() if start is None else start)

    def _values(self, x: np.ndarray) -> dict[str, float]:
        """Every model variable's value, from the kept columns' `x`: a
        substituted one's is read off the row that held it."""
        full = np.empty(len(self.names))
        full[self.kept] = x
        full[self._gone] = self._t @ x + self._shift
        return dict(zip(self.names, full.tolist()))


def branch_bounds(tableau: Tableau, name: str) -> tuple[float, float]:
    """Lower bounds on the optima of the two children of `tableau`, an
    optimal solve whose basic binary `name` has the fractional value f: the
    child that fixes `name` to 0, then the one that fixes it to 1. Call this
    before a solve continues it; ValueError where `name` is not basic.

    Each bound is Driebeek's penalty (Management Science 12, 1966): the
    objective after the dual simplex's first step in that child, the
    parent's objective + delta*t. Delta is how far f lies outside the
    child's bounds (f, or 1 - f), and t the exact shortest dual step that
    brings one of `_entering`'s candidate columns to a zero reduced
    cost. The reduced costs are dual feasible at an optimum, so every dual
    point of the child, the one after that step among them, bounds its
    optimum from below. A child with no candidate column gets no bound
    (-inf). The tableau is only read."""
    if tableau.basis is None:
        raise ValueError("the tableau was continued by another solve")
    rows = (tableau.basis == tableau.prep.column[name]).nonzero()[0]
    if not rows.size:
        raise ValueError(f"{name!r} is not basic in the tableau")
    row = int(rows[0])
    z = tableau._reduced_costs()
    # _entering's slopes for both children (the 0-child's binary leaves above)
    slope = tableau._gains(np.multiply.outer((-1.0, 1.0), tableau.matrix[row]))
    candidate = (slope > _PIVOT_TOL) & np.isfinite(z)
    ratio = np.divide(np.maximum(-tableau._gains(z), 0.0), slope,
                      out=np.full(slope.shape, math.inf), where=candidate)
    step = _min(ratio, axis=1)
    f = tableau.values[name]
    return tuple(tableau.objective + delta * float(t) if _any(has) else -math.inf
                 for delta, t, has in zip((f, 1.0 - f), step, candidate))


def _primal_tol(b: np.ndarray) -> float:
    """The primal tolerance of the infeasibility verdict and the
    certificates, scaled by the largest right-hand side."""
    return _FEAS_TOL * float(np.max(np.abs(b), initial=1.0))


def _substitutions(a: np.ndarray, free: np.ndarray, equality: np.ndarray):
    """The columns the presolve substitutes out and the rows that hold
    them, in order: each `free` column, fewest nonzeros first (ties to the
    lowest), goes through the first `equality` row of at most three terms
    that holds it, none of whose columns has gone; that row's other columns
    then stay."""
    nonzero = a != 0.0
    short = equality & (_add(nonzero, axis=1) <= 3)
    rows, cols = np.nonzero(nonzero[short])
    terms: dict[int, list[int]] = {}
    holding: dict[int, list[int]] = {}
    for r, j in zip(np.flatnonzero(short)[rows].tolist(), cols.tolist()):
        terms.setdefault(r, []).append(j)
        holding.setdefault(j, []).append(r)
    candidates = np.flatnonzero(free & _any(nonzero[short], axis=0))
    gone: dict[int, int] = {}
    stay: set[int] = set()
    for j in candidates[np.argsort(_add(nonzero, axis=0)[candidates], kind="stable")].tolist():
        if j in stay:
            continue
        r = next((r for r in holding.get(j, ()) if gone.keys().isdisjoint(terms[r])), None)
        if r is not None:
            gone[j] = r
            stay.update(terms[r])
    return np.array(list(gone), dtype=int), np.array(list(gone.values()), dtype=int)


def _rest(terms: np.ndarray, rows: np.ndarray, m: int) -> np.ndarray:
    """For each term, the sum of the other terms of its row (`terms` are
    finite or -inf, `rows` their rows): -inf where another term is."""
    finite = np.isfinite(terms)
    values = np.where(finite, terms, 0.0)
    infinite = np.bincount(rows[~finite], minlength=m)
    return np.where(infinite[rows] == ~finite,
                    np.bincount(rows, values, m)[rows] - values, -math.inf)


def _read_row(a: np.ndarray, i: int, con, var_index: dict[str, int]) -> None:
    """Add row i's terms into its zeroed entries of `a`, in term order."""
    for name, coef in con.terms:
        a[i, var_index[name]] += coef


class Tableau:
    """One solve of a PreparedLp under one set of bounds, and once finished
    its result: `status`, an optimum's `objective` and `values` (every model
    variable's, else None and {}), `iterations`, LAPACK `refactorizations`,
    and the final tableau: B^-1*A (`matrix`, m x (n+m) of the presolved LP)
    with the basis, column states and the rest of the dual's state; the
    basic columns' bounds are read through the basis. It starts a solve of
    any compile it fits, which continues it in place (_load), so it serves
    as a start once only (`copy` gives another, and `basis_copy` one
    without B^-1*A): a start that has served keeps none of the arrays it
    handed on, nor a basis."""

    def __init__(self, prep: PreparedLp, lower, upper, deadline, cutoff):
        self.prep, self.a, self.b = prep, prep._a, prep._b
        self.m, self.cols = prep.m, prep.n + prep.m
        self.lower, self.upper = lower, upper
        self.fixed = upper - lower <= 0.0
        self.primal_tol, self.dtol = prep._primal_tol, prep._dtol
        self.deadline, self.cutoff = deadline, cutoff
        self.iterations = self.pivots_since_refactor = self.refactorizations = 0
        self.fresh = False  # the tableau is a factorization no pivot has touched

    def copy(self) -> Tableau:
        """An independent start. The arrays a continuing solve takes over
        (_HANDED_ON) are duplicated; the rest (the bounds, `fixed`,
        `x_basic`) is shared, since that solve does not write it, except
        `values`: a start needs no point, so an open node keeps none alive."""
        if self.basis is None:
            raise ValueError("start tableau was already used")
        twin = object.__new__(Tableau)
        twin.__dict__.update(self.__dict__, values={})
        for name in _HANDED_ON:
            value = getattr(self, name)
            setattr(twin, name, None if value is None else value.copy())
        return twin

    def basis_copy(self) -> Tableau:
        """A copy without B^-1*A, cheap to keep for many open nodes: the
        solve it starts refactorizes its basis."""
        bare = object.__new__(Tableau)
        bare.__dict__.update(self.__dict__)
        bare.matrix = None
        return bare.copy()

    def fits(self, prep: PreparedLp) -> bool:
        """Whether this tableau can start a solve of `prep`: one with the
        same variable and row names and the same presolve plan, so that
        the two LPs have the same columns and rows."""
        return prep is self.prep or (prep.names == self.prep.names
                                     and prep.rows == self.prep.rows
                                     and prep.plan == self.prep.plan)

    # -- setup ------------------------------------------------------------

    def _slack_start(self) -> Tableau:
        """The slack basis as a start without B^-1*A, settled under this
        solve's bounds: each slack basic in its own row, and every
        structural column at a bound (_settle), its lower one where that is
        finite."""
        n = self.prep.n
        start = object.__new__(Tableau)
        start.__dict__.update(self.__dict__)
        start.basis = np.arange(n, self.cols)
        start.state = np.full(self.cols, _AT_LOWER, dtype=np.int8)
        start.state[n:] = _BASIC
        start.x_nonbasic, start.gain = np.zeros(self.cols), np.zeros(self.cols)
        start.matrix = None
        start._settle(np.arange(n))
        return start

    def _load(self, start: Tableau) -> None:
        """Check `start` and adopt its basis, whether or not each basic value
        lies within its bounds (the dual repairs the ones that do not), the
        rest of its state (_HANDED_ON) and its pivot count. Each nonbasic
        column whose bounds differ from the start's final bounds is settled
        again (_settle); the dual reads a basic one's from this solve's. A
        start with B^-1*A, of this compile or of another once its changed
        columns are replaced, gives x_B = B^-1*(b - A_N*x_N) directly;
        otherwise the basis is refactorized."""
        if not start.fits(self.prep):
            raise ValueError("start tableau belongs to an LP with other variables or rows")
        if start.basis is None:
            raise ValueError("start tableau was already used")
        for name in _HANDED_ON:  # the start keeps none of what it hands on
            setattr(self, name, getattr(start, name))
            setattr(start, name, None)
        self.pivots_since_refactor = start.pivots_since_refactor
        moved = (self.lower != start.lower) | (self.upper != start.upper)
        unsettled = np.flatnonzero(moved & (self.state != _BASIC))
        if unsettled.size:
            self._settle(unsettled)
        if self.matrix is not None and (start.prep is self.prep
                                        or self._replace_columns(start.prep._a)):
            self.x_basic = self.matrix[:, self.prep.n:] @ (self.b - self.a @ self.x_nonbasic)
        else:
            self._refactorize()

    def _settle(self, columns) -> None:
        """Put the nonbasic `columns` (indices) at a bound:
        each keeps the bound its status names where that bound is finite,
        else takes the other finite bound, else sits free at zero. Sets
        their statuses, values and pricing signs: the reduced cost z_j times
        gain_j is what entering j gains (-1 at lower, +1 at upper, 0 when
        free or fixed; a free column gains |z_j|), kept by _set_nonbasic
        and _pivot. Lists the free columns again."""
        lo, up = self.lower[columns], self.upper[columns]
        has_up = np.isfinite(up)
        want_up = ((self.state[columns] == _AT_UPPER) & has_up) | ~np.isfinite(lo)
        at = np.where(want_up, np.where(has_up, _AT_UPPER, _AT_FREE), _AT_LOWER)
        self.state[columns] = at
        self.x_nonbasic[columns] = np.where(at == _AT_LOWER, lo,
                                            np.where(at == _AT_UPPER, up, 0.0))
        self.gain[columns] = np.where(self.fixed[columns], 0.0, _GAIN[at])
        self.free = (self.state == _AT_FREE).nonzero()[0]

    def _replace_columns(self, old_a: np.ndarray) -> bool:
        """Carry a tableau of another compile's columns `old_a` over to this
        LP's: each changed column j becomes B^-1*a'_j, and a basic one is
        pivoted back into its own row, replacing a_j by a'_j in the basis.
        False when such a pivot vanishes (the new basis is singular or
        nearly so); the tableau is then left to a refactorization."""
        changed = np.flatnonzero(_any(self.a != old_a, axis=0))
        self.matrix[:, changed] = self.matrix[:, self.prep.n:] @ self.a[:, changed]
        row_of = np.full(self.cols, -1)
        row_of[self.basis] = np.arange(self.m)
        for j in changed:
            row = row_of[j]
            if row >= 0:
                if abs(self.matrix[row, j]) <= _PIVOT_TOL:
                    return False
                self._eliminate(row, j)
        return True

    def _point(self) -> np.ndarray:
        """Every column's value: nonbasic ones at their bounds, basic ones
        as the tableau gives them."""
        x = self.x_nonbasic.copy()
        x[self.basis] = self.x_basic
        return x

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
        if _all(self.state[n:] == _BASIC):
            rows = self.basis - n
            self.matrix = self.a[rows]
            self.x_basic = residual[rows]
        else:
            nonbasic = np.flatnonzero(self.state != _BASIC)
            try:
                solved = np.linalg.solve(
                    self.a[:, self.basis], np.column_stack((self.a[:, nonbasic], residual))
                )
            except np.linalg.LinAlgError:  # B = I never is singular
                self._load(self._slack_start())
                return
            self.matrix = np.zeros((self.m, self.cols))
            self.matrix[:, nonbasic] = solved[:, :-1]
            self.matrix[np.arange(self.m), self.basis] = 1.0
            self.x_basic = solved[:, -1].copy()
            self.refactorizations += 1
        self.pivots_since_refactor = 0
        self.fresh = True

    def _reduced_costs(self) -> np.ndarray:
        cost = self.prep._cost
        z = cost - cost[self.basis] @ self.matrix
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
        self.state[j] = at
        self.x_nonbasic[j] = self.upper[j] if at == _AT_UPPER else self.lower[j]
        if not self.fixed[j]:
            self.gain[j] = 1.0 if at == _AT_UPPER else -1.0

    def _pivot(self, q: int, row: int, change: float, z, leaves_at):
        """Move q by `change` and swap it into the basis at `row`, and update
        the reduced costs `z` for the new basis. The row takes q's bounds
        with it: the dual reads a row's bounds through `basis`."""
        new_value = self.x_nonbasic[q] + change
        self.x_basic -= change * self.matrix[:, q]
        self._set_nonbasic(self.basis[row], leaves_at)
        piv_row = self._eliminate(row, q)

        if self.state[q] == _AT_FREE:
            self.free = self.free[self.free != q]
        self.basis[row] = q
        self.state[q] = _BASIC
        self.x_nonbasic[q] = 0.0
        self.gain[q] = 0.0
        self.x_basic[row] = new_value
        z -= z[q] * piv_row
        z[q] = 0.0  # every other basic column keeps its 0: its piv_row entry is 0

    def _eliminate(self, row: int, q: int) -> np.ndarray:
        """Make column q the unit column of `row` with one rank-1 update of
        the tableau; return the scaled pivot row. Where at most half of the
        pivot column is nonzero, only those rows are updated, and where at
        most a tenth of the pivot row is, only those columns."""
        piv_row = self.matrix[row] / self.matrix[row, q]
        col = self.matrix[:, q]  # read in full before the update writes
        rows = slice(None) if 2 * np.count_nonzero(col) > self.m else col.nonzero()[0]
        cols = (slice(None) if 10 * np.count_nonzero(piv_row) > self.cols
                else piv_row.nonzero()[0])
        if isinstance(rows, slice) or isinstance(cols, slice):
            block = rows, cols
        else:
            block = np.ix_(rows, cols)
        self.matrix[block] -= np.multiply.outer(col[rows], piv_row[cols])
        self.matrix[row] = piv_row
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
                j, prep = refused[0], self.prep
                name = (f"variable {prep.names[prep.kept[j]]!r}" if j < prep.n
                        else f"the slack of row {prep.rows[prep.kept_rows[j - prep.n]]!r}")
                raise ModelError(f"{name} needs finite bounds to move in the dual "
                                 "simplex; it has an infinite one, and its rows imply none")
        for j in wrong:
            was = self.x_nonbasic[j]
            self._set_nonbasic(j, _AT_UPPER if z[j] < 0.0 else _AT_LOWER)
            self.x_basic -= (self.x_nonbasic[j] - was) * self.matrix[:, j]
        if unboxed.size:  # a free column that flipped is free no longer
            self.free = (self.state == _AT_FREE).nonzero()[0]
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
        slope = self._gains(-self.matrix[row] if above else self.matrix[row])
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
            lo, up = self.lower[self.basis], self.upper[self.basis]
            violation = np.maximum(lo - self.x_basic, self.x_basic - up)
            row = int(violation.argmax())
            # the largest violation leaves, unless within tolerance or NaN
            if bland or not violation[row] > _PRIMAL_TOL:
                violated = violation > _PRIMAL_TOL
                if not _any(violated):
                    return STATUS_OPTIMAL
                row = int(np.where(violated, self.basis, self.cols).argmin() if bland
                          else np.where(violated, violation, 0.0).argmax())
            above = bool(self.x_basic[row] > up[row])
            q = self._entering(row, above, z, bland)
            if q is None:
                push = np.zeros(self.m)
                push[row] = -1.0 if above else 1.0
                if self._infeasibility_certified(push):
                    return STATUS_INFEASIBLE
                if self.fresh:  # a fresh factorization is trusted
                    total = violation[violation > _PRIMAL_TOL].sum()
                    return STATUS_INFEASIBLE if total > self.primal_tol else STATUS_OPTIMAL
                self._refactorize()
                z = None
                continue
            target = up[row] if above else lo[row]
            change = (self.x_basic[row] - target) / self.matrix[row, q]
            if self.state[q] == _AT_FREE or self.gain[q] * z[q] > 0.0:
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
        y = cost[self.basis] @ self.matrix[:, self.prep.n:]
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
        y = push @ self.matrix[:, self.prep.n:]
        g = y @ self.a
        up = g > _FARKAS_TOL
        down = g < -_FARKAS_TOL
        least = g[up] @ self.lower[up] + g[down] @ self.upper[down]
        return least - float(y @ self.b) > self.primal_tol

    # -- driver -----------------------------------------------------------

    def solve(self, start: Tableau) -> Tableau:
        """Run the dual and return this solve, its verdict set; an optimum on
        a tableau pivots have touched must pass its certificate, or the dual
        runs again on a refactorization."""
        self._load(start)
        self.objective, self.values = None, {}
        for retry in range(_OPTIMALITY_RETRIES + 1):
            self.status = self._run_dual()
            if self.status != STATUS_OPTIMAL:
                return self
            x = self._point()
            # a fresh factorization is trusted
            if self.fresh or retry == _OPTIMALITY_RETRIES or self._certified(x):
                break
            self._refactorize()
        self.objective = self._objective(x)
        self.values = self.prep._values(x[:self.prep.n])
        return self

    def _objective(self, x: np.ndarray) -> float:
        return float(self.prep._cost @ x) + self.prep.model.objective_constant
