import dataclasses
import math
import time

import numpy as np
import pytest

from tepkit.model import (
    CONTINUOUS,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    Constraint,
    Model,
    ModelError,
    Variable,
)
import tepkit.simplex
from tepkit.simplex import PreparedLp, SimplexError, Tableau, branch_bounds


def lp(variables, constraints, objective, constant=0.0, name="lp"):
    return Model(name=name, variables=tuple(variables),
                 constraints=tuple(constraints),
                 objective_terms=tuple(objective),
                 objective_constant=constant)


def test_two_variable_optimum():
    # min -x - 2y st x + y <= 4, x <= 3, y <= 2 -> (2, 2), obj -6
    m = lp(
        [Variable("x", CONTINUOUS, 0.0, 3.0), Variable("y", CONTINUOUS, 0.0, 2.0)],
        [Constraint("c", (("x", 1.0), ("y", 1.0)), SENSE_LE, 4.0)],
        [("x", -1.0), ("y", -2.0)],
    )
    r = PreparedLp(m).solve()
    assert r.status == "optimal"
    assert r.objective == pytest.approx(-6.0, abs=1e-9)
    assert r.values["x"] == pytest.approx(2.0, abs=1e-9)
    assert r.values["y"] == pytest.approx(2.0, abs=1e-9)


def test_equality_and_free_variable():
    # free variable pinned by an equality: x = (6 - y)/2, obj = 3 + y/2
    m = lp(
        [Variable("x", CONTINUOUS), Variable("y", CONTINUOUS, 0.0, 10.0)],
        [Constraint("fix", (("x", 2.0), ("y", 1.0)), SENSE_EQ, 6.0)],
        [("x", 1.0), ("y", 1.0)],
    )
    r = PreparedLp(m).solve()
    assert r.status == "optimal"
    assert r.objective == pytest.approx(3.0, abs=1e-8)
    assert r.values["x"] == pytest.approx(3.0, abs=1e-8)
    assert r.values["y"] == pytest.approx(0.0, abs=1e-8)


def test_negative_lower_bounds():
    m = lp(
        [Variable("x", CONTINUOUS, -5.0, 5.0)],
        [Constraint("c", (("x", 1.0),), SENSE_GE, -3.0)],
        [("x", 1.0)],
    )
    r = PreparedLp(m).solve()
    assert r.status == "optimal"
    assert r.values["x"] == pytest.approx(-3.0, abs=1e-9)


def test_fixed_variables_are_respected():
    m = lp(
        [Variable("x", CONTINUOUS, 2.0, 2.0), Variable("y", CONTINUOUS, 0.0, 9.0)],
        [Constraint("c", (("x", 1.0), ("y", 1.0)), SENSE_LE, 5.0)],
        [("y", -1.0)],
    )
    r = PreparedLp(m).solve()
    assert r.status == "optimal"
    assert r.values["x"] == pytest.approx(2.0, abs=1e-12)
    assert r.values["y"] == pytest.approx(3.0, abs=1e-9)


def test_infeasible_detection():
    m = lp(
        [Variable("x", CONTINUOUS, 0.0, 1.0)],
        [Constraint("hi", (("x", 1.0),), SENSE_GE, 2.0)],
        [("x", 1.0)],
    )
    assert PreparedLp(m).solve().status == "infeasible"


def test_infeasible_equality_pair():
    m = lp(
        [Variable("x", CONTINUOUS, 0.0, 10.0)],
        [Constraint("a", (("x", 1.0),), SENSE_EQ, 3.0),
         Constraint("b", (("x", 1.0),), SENSE_EQ, 4.0)],
        [("x", 1.0)],
    )
    assert PreparedLp(m).solve().status == "infeasible"


def test_unbounded_detection():
    # x gains by rising, has no upper bound, and its one row only bounds it
    # below: the dual simplex has no bound to flip it to, so the LP is refused
    m = lp(
        [Variable("x", CONTINUOUS, 0.0, math.inf)],
        [Constraint("c", (("x", 1.0),), SENSE_GE, 1.0)],
        [("x", -1.0)],
    )
    with pytest.raises(ModelError, match="variable 'x' needs finite bounds"):
        PreparedLp(m).solve()


def test_a_column_flips_to_the_one_bound_its_rows_imply():
    # x is free; its row implies a bound on the side its cost pushes it to
    # and none on the other, and the flip needs only the first
    for sense, rhs, cost in ((SENSE_GE, 1.0, 1.0), (SENSE_LE, 3.0, -1.0)):
        m = lp([Variable("x", CONTINUOUS)], [Constraint("c", (("x", 1.0),), sense, rhs)],
               [("x", cost)])
        r = PreparedLp(m).solve()
        assert r.status == "optimal"
        assert r.values["x"] == rhs and r.objective == cost * rhs


def test_no_constraints_bound_assignment():
    m = lp(
        [Variable("x", CONTINUOUS, -1.0, 4.0), Variable("y", CONTINUOUS, 0.0, 2.0),
         Variable("z", CONTINUOUS, -3.0, 3.0)],
        [],
        [("x", 1.0), ("y", -2.0)],  # z has no cost: sits at a bound or zero
        constant=10.0,
    )
    r = PreparedLp(m).solve()
    assert r.status == "optimal"
    assert r.objective == pytest.approx(10.0 - 1.0 - 4.0, abs=1e-12)


def test_no_constraints_unbounded():
    # with no rows nothing implies a bound on x, so the LP is refused
    m = lp([Variable("x", CONTINUOUS, 0.0, math.inf)], [], [("x", -1.0)])
    with pytest.raises(ModelError, match="variable 'x' needs finite bounds"):
        PreparedLp(m).solve()


def test_objective_constant_carried():
    m = lp([Variable("x", CONTINUOUS, 1.0, 2.0)], [], [("x", 1.0)], constant=5.0)
    r = PreparedLp(m).solve()
    assert r.objective == pytest.approx(6.0, abs=1e-12)


def test_beale_cycling_example_terminates():
    # the classical 3-constraint problem that cycles under naive pivoting,
    # with upper bounds that do not bind, since its rows box only x3
    m = lp(
        [Variable("x1", CONTINUOUS, 0.0, 10.0),
         Variable("x2", CONTINUOUS, 0.0, 10.0),
         Variable("x3", CONTINUOUS, 0.0, 10.0),
         Variable("x4", CONTINUOUS, 0.0, 10.0)],
        [Constraint("r1", (("x1", 0.25), ("x2", -8.0), ("x3", -1.0), ("x4", 9.0)),
                    SENSE_LE, 0.0),
         Constraint("r2", (("x1", 0.5), ("x2", -12.0), ("x3", -0.5), ("x4", 3.0)),
                    SENSE_LE, 0.0),
         Constraint("r3", (("x3", 1.0),), SENSE_LE, 1.0)],
        [("x1", -0.75), ("x2", 150.0), ("x3", -0.02), ("x4", 6.0)],
    )
    r = PreparedLp(m).solve()
    assert r.status == "optimal"
    # optimum (1, 0, 1, 0): row2 pins x1 <= x3 <= 1
    assert r.objective == pytest.approx(-0.77, abs=1e-9)


def test_prepared_lp_bound_overrides():
    m = lp(
        [Variable("x", CONTINUOUS, 0.0, 10.0), Variable("y", CONTINUOUS, 0.0, 10.0)],
        [Constraint("c", (("x", 1.0), ("y", 1.0)), SENSE_LE, 8.0)],
        [("x", -1.0), ("y", -1.0)],
    )
    prep = PreparedLp(m)
    base = prep.solve()
    assert base.objective == pytest.approx(-8.0, abs=1e-9)
    pinned = prep.solve(bound_overrides={"x": (0.0, 0.0)})
    assert pinned.objective == pytest.approx(-8.0, abs=1e-9)
    assert pinned.values["x"] == pytest.approx(0.0, abs=1e-12)
    squeezed = prep.solve(bound_overrides={"x": (0.0, 1.0), "y": (0.0, 1.0)})
    assert squeezed.objective == pytest.approx(-2.0, abs=1e-9)
    # the prepared problem is reusable and unchanged afterwards
    again = prep.solve()
    assert again.objective == pytest.approx(-8.0, abs=1e-9)
    with pytest.raises(ValueError, match="lower > upper"):
        prep.solve(bound_overrides={"x": (2.0, 1.0)})


def dense_lp():
    rng = np.random.default_rng(5)
    variables = [Variable(f"x{j}", CONTINUOUS, 0.0, 10.0) for j in range(12)]
    rows = [
        Constraint(f"r{i}",
                   tuple((f"x{j}", float(rng.uniform(-1, 2))) for j in range(12)),
                   SENSE_LE, float(rng.uniform(5, 20)))
        for i in range(10)
    ]
    return lp(variables, rows, [(f"x{j}", -1.0) for j in range(12)])


def test_iteration_limit_raises(monkeypatch):
    monkeypatch.setattr(tepkit.simplex, "_MAX_ITERATIONS", 1)
    with pytest.raises(SimplexError, match="iteration limit 1 exceeded"):
        PreparedLp(dense_lp()).solve()


def test_start_of_wrong_size_raises():
    small = PreparedLp(lp([Variable("x", CONTINUOUS, 0.0, 1.0)],
                          [Constraint("c", (("x", 1.0),), SENSE_LE, 1.0)],
                          [("x", -1.0)]))
    big = PreparedLp(lp([Variable("x", CONTINUOUS, 0.0, 1.0),
                         Variable("y", CONTINUOUS, 0.0, 1.0)],
                        [Constraint("c", (("x", 1.0), ("y", 1.0)), SENSE_LE, 1.0)],
                        [("x", -1.0)]))
    with pytest.raises(ValueError, match="start tableau belongs to an LP with other"):
        big.solve(start=small.solve())


def test_a_singular_refresh_restarts_the_solve_from_the_slack_basis(monkeypatch):
    # with a refresh after every other pivot, the first refresh's LAPACK
    # solve finds the basis singular; the solve starts over from the slack
    # basis, as a singular start does, and the later refreshes go through
    prep = PreparedLp(dense_lp())
    cold = prep.solve()
    assert cold.iterations > 2
    monkeypatch.setattr(tepkit.simplex, "_REFACTOR_EVERY", 2)
    solve = np.linalg.solve
    calls = []

    def singular_once(a, b):
        calls.append(len(calls))
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_once)
    restarted = []
    load = Tableau._load

    def recording(run, start):
        restarted.append((start.matrix is None, start.basis.tolist()))
        load(run, start)

    monkeypatch.setattr(Tableau, "_load", recording)
    result = prep.solve()
    slack = (True, list(range(prep.n, prep.n + prep.m)))
    assert restarted == [slack, slack]  # the start, then the restart
    assert result.status == "optimal"
    assert result.refactorizations == len(calls) - 1 >= 1  # the failed one not counted
    assert result.objective == pytest.approx(cold.objective, rel=1e-12)
    for name, value in cold.values.items():
        assert result.values[name] == pytest.approx(value, rel=1e-9, abs=1e-9)


def test_deadline_stops_the_solve():
    prep = PreparedLp(dense_lp())
    assert prep.solve(deadline=time.monotonic() + 60.0).status == "optimal"
    stopped = prep.solve(deadline=time.monotonic() - 1.0)
    assert stopped.status == "time_limit"
    assert stopped.iterations == 0 and stopped.objective is None
    # the basis it stopped at is a valid start, without B^-1*A as with it
    assert prep.solve(start=stopped.basis_copy()).status == "optimal"
    assert prep.solve(start=stopped).status == "optimal"


def test_tableau_start_skips_the_refactorization_once():
    prep = PreparedLp(dense_lp())
    base = prep.solve()
    # the slack basis is B = I: it loads as B^-1*A = A, without LAPACK
    assert base.status == "optimal" and base.refactorizations == 0
    squeezed = {"x0": (0.0, 1.0), "x3": (2.0, 2.0)}
    cold = prep.solve(bound_overrides=squeezed)
    live = prep.solve(bound_overrides=squeezed, start=base)
    assert live.refactorizations == 0
    assert live.objective == pytest.approx(cold.objective, rel=1e-12)
    with pytest.raises(ValueError, match="already used"):
        prep.solve(start=base)
    # an infeasibility verdict on a drifted tableau is certified on the
    # original rows, without a refactorization
    impossible = {f"x{j}": (10.0, 10.0) for j in range(12)}
    dead = prep.solve(bound_overrides=impossible, start=live)
    assert dead.status == "infeasible" and dead.refactorizations == 0


def test_drifted_tableau_start_still_reaches_the_optimum():
    # entries off by about 1e-6, or one NaN in the slack block (B^-1), give
    # a wrong point that only the certificate on the original rows can reject
    prep = PreparedLp(dense_lp())
    cold = prep.solve()
    rng = np.random.default_rng(11)
    for damage in ("drift", "nan"):
        start = prep.solve()
        if damage == "drift":
            start.matrix += rng.uniform(-1e-6, 1e-6, start.matrix.shape)
        else:
            start.matrix[0, -1] = math.nan
        drifted = prep.solve(start=start)
        assert drifted.status == "optimal", damage
        assert drifted.refactorizations >= 1, damage
        assert drifted.objective == pytest.approx(cold.objective, rel=1e-12, abs=1e-12)
        for name, value in cold.values.items():
            assert drifted.values[name] == pytest.approx(value, rel=1e-9, abs=1e-9)


def _recording_dual(monkeypatch):
    """Record, for each solve, what its last run of the dual simplex
    returned ("dual"), and each time its columns were given the bounds
    their rows imply ("implied"): the number of columns that then flip to
    them, or None where those bounds cross."""
    solves = []
    real_solve, real_dual, real_costs = (
        Tableau.solve, Tableau._run_dual, Tableau._dual_costs)

    def solve(run, start):
        solves.append({"implied": []})
        return real_solve(run, start)

    def dual(run):
        status = real_dual(run)
        solves[-1]["dual"] = status
        return status

    def costs(run):
        unboxed = ~(np.isfinite(run.lower) & np.isfinite(run.upper))
        z = real_costs(run)
        boxed = np.count_nonzero(unboxed & np.isfinite(run.lower) & np.isfinite(run.upper))
        if z is None or boxed:
            solves[-1]["implied"].append(None if z is None else boxed)
        return z

    for name, fn in (("solve", solve), ("_run_dual", dual), ("_dual_costs", costs)):
        monkeypatch.setattr(Tableau, name, fn)
    return solves


def _checking_settled(monkeypatch):
    """After every solve, settle every nonbasic column of a copy of its
    finished tableau again, under that tableau's own final bounds: the
    column states, nonbasic values, pricing signs and free list must keep every
    bit. This is what a continued start rests on (Tableau._load settles
    again only the columns whose bounds moved). Returns the statuses of the
    solves checked."""
    checked = []
    solve = Tableau.solve

    def checking(run, start):
        result = solve(run, start)
        twin = result.copy()
        twin._settle(np.flatnonzero(twin.state != tepkit.simplex._BASIC))
        for a in ("state", "x_nonbasic", "gain", "free"):
            was, now = getattr(run, a), getattr(twin, a)
            assert was.dtype == now.dtype and was.tobytes() == now.tobytes(), a
        checked.append(result.status)
        return result

    monkeypatch.setattr(Tableau, "solve", checking)
    return checked


def test_every_lp_of_a_garver_sweep_ends_settled(monkeypatch):
    # _checking_settled after each of a Garver sweep's 133 LPs, all but the
    # first started from a tableau; test_randomized_against_scipy checks
    # its own LPs
    from tepkit.instance import builtin_garver
    from tepkit.milp import TepSkeleton
    from tepkit.scenario import enumerate_scenarios, realize_scenario
    from tepkit.solver import solve_sweep
    checked = _checking_settled(monkeypatch)
    net = builtin_garver()
    skeleton = TepSkeleton(net, 8760.0)
    models = [skeleton.model(realize_scenario(code, net))
              for code in enumerate_scenarios(len(net.regions))]
    assert [sol.status for sol in solve_sweep(models)] == ["optimal"] * 4
    assert len(checked) == 133 and "cutoff" in checked


def test_infeasibility_is_certified_without_a_refactorization(monkeypatch):
    # the dual dead-ends on a tableau that pivots have touched; the Farkas
    # certificate on the original rows proves the verdict, so no LAPACK call
    verdicts = []
    real = Tableau._infeasibility_certified

    def recording(run, push):
        verdicts.append((np.count_nonzero(push), real(run, push)))
        return verdicts[-1][1]

    monkeypatch.setattr(Tableau, "_infeasibility_certified", recording)
    outcomes = _recording_dual(monkeypatch)
    model = dense_lp()
    prep = PreparedLp(model)
    impossible = {f"x{j}": (10.0, 10.0) for j in range(12)}
    # fixing bounds keeps an optimal tableau dual feasible: the dual's dead
    # end is certified with push = +-e_r for its leaving row
    for start in (prep.solve(),
                  prep.solve(bound_overrides={"x0": (0.0, 1.0)})):
        verdicts.clear()
        dead = prep.solve(bound_overrides=impossible, start=start)
        assert dead.status == "infeasible"
        assert outcomes[-1] == {"dual": "infeasible", "implied": []}
        assert dead.refactorizations == 0 and verdicts == [(1, True)]
    # under the opposite objective the same tableau prices the nonbasic
    # slacks the wrong way, and they have no upper bound; the upper bounds
    # their rows imply under the fixings fall below 0, which proves the
    # verdict with no dual step, certificate or refactorization
    opposite = PreparedLp(dataclasses.replace(
        model, objective_terms=tuple((name, -coef) for name, coef in model.objective_terms)))
    verdicts.clear()
    dead = opposite.solve(bound_overrides=impossible, start=prep.solve())
    assert dead.status == "infeasible"
    assert outcomes[-1] == {"dual": "infeasible", "implied": [None]}
    assert dead.refactorizations == dead.iterations == 0 and verdicts == []
    # without the fixings the same start flips those slacks to their
    # implied bounds, and the dual goes on from there
    flipped = opposite.solve(start=prep.solve())
    assert flipped.status == "optimal" and outcomes[-1]["implied"][0] > 0
    assert flipped.objective == pytest.approx(opposite.solve().objective, rel=1e-12)
    # the verdict a fresh start reaches
    assert prep.solve(bound_overrides=impossible).status == "infeasible"


def test_uncertified_dual_dead_end_on_a_feasible_lp_is_not_declared_infeasible():
    # min x + y subject to x + y >= 2. The start tableau is the slack
    # basis's, taken over from a solve with x and y fixed at 1; its x and y
    # columns are wiped, so the dual finds no entering column while the
    # slack violates its bound. The LP is feasible, so the certificate must
    # fail and the solve refactorize and go on.
    m = lp([Variable("x", CONTINUOUS, 0.0, 10.0), Variable("y", CONTINUOUS, 0.0, 10.0)],
           [Constraint("r", (("x", 1.0), ("y", 1.0)), SENSE_GE, 2.0)],
           [("x", 1.0), ("y", 1.0)])
    prep = PreparedLp(m)
    pinned = prep.solve(bound_overrides={"x": (1.0, 1.0), "y": (1.0, 1.0)})
    assert pinned.status == "optimal" and pinned.basis.tolist() == [2]
    start = pinned
    start.matrix[:, :2] = 0.0
    result = prep.solve(start=start)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(2.0, abs=1e-12)


def test_dual_dead_end_on_a_fresh_factorization_is_judged_by_its_violation(monkeypatch):
    # x in [0, 1] must reach 1 + 5e-8: entering x overshoots its upper bound
    # by 5e-8, and no column can bring it back. The certificate's excess,
    # 5e-8, is under the primal tolerance, so the dead end refactorizes and
    # meets itself again on the fresh factorization. A violation that small
    # is an optimum; an LP whose certificate fails though its violation is
    # large is infeasible.
    checks = []
    real = Tableau._infeasibility_certified

    def recording(run, push):
        checks.append(real(run, push))
        return checks[-1]

    monkeypatch.setattr(Tableau, "_infeasibility_certified", recording)
    m = lp([Variable("x", CONTINUOUS, 0.0, 1.0)],
           [Constraint("c", (("x", 1.0),), SENSE_GE, 1.0 + 5e-8)], [])
    r = PreparedLp(m).solve()
    assert r.status == "optimal" and r.refactorizations == 1
    assert r.values["x"] == pytest.approx(1.0 + 5e-8, abs=1e-15)
    assert checks == [False, False]
    monkeypatch.setattr(Tableau, "_infeasibility_certified", lambda run, push: False)
    m = lp([Variable("x", CONTINUOUS, 0.0, 1.0)],
           [Constraint("c", (("x", 1.0),), SENSE_GE, 2.0)], [("x", 1.0)])
    r = PreparedLp(m).solve()
    assert r.status == "infeasible" and r.refactorizations == 1


def test_refactorized_point_outside_its_bounds_goes_back_to_the_dual(monkeypatch):
    # the start tableau's nonbasic columns (B^-1 among them) are wiped, so
    # the dual works on wrong basic values and finds them within the new
    # bounds at once; that optimum fails its certificate, and the
    # refactorized basic values violate the new bounds, so the dual runs
    # again from there
    prep = PreparedLp(dense_lp())
    base = prep.solve()
    basic = [j for j in base.basis if j < 12 and base.values[f"x{j}"] > 1e-6]
    assert basic
    squeezed = {f"x{j}": (0.0, 0.0) for j in basic}
    cold = prep.solve(bound_overrides=squeezed)
    assert cold.status == "optimal"
    start = base
    start.matrix[:, np.setdiff1d(np.arange(22), start.basis)] = 0.0
    runs = []
    real = Tableau._run_dual

    def recording(run):
        x = run.x_basic
        excess = np.maximum(run.lower[run.basis] - x, x - run.upper[run.basis])
        before, violation = run.iterations, excess[excess > tepkit.simplex._PRIMAL_TOL].sum()
        runs.append((real(run), run.iterations - before, violation > run.primal_tol))
        return runs[-1][0]

    monkeypatch.setattr(Tableau, "_run_dual", recording)
    damaged = prep.solve(bound_overrides=squeezed, start=start)
    assert [(status, steps > 0, violated) for status, steps, violated in runs] == [
        ("optimal", False, False), ("optimal", True, True)]
    assert damaged.status == "optimal"
    assert damaged.refactorizations == 1
    assert damaged.objective == pytest.approx(cold.objective, rel=1e-12, abs=1e-12)


def test_nan_reduced_cost_never_enters():
    # x0 must stay at 0 (it only costs); its tableau column is NaN, so its
    # reduced cost is NaN. y is eligible and must enter without NaN
    # stopping the pricing early (the certificate would then refactorize)
    # or entering itself
    m = lp(
        [Variable("x0", CONTINUOUS, 0.0, math.inf), Variable("x", CONTINUOUS, 0.0, 10.0),
         Variable("y", CONTINUOUS, 0.0, 10.0)],
        [Constraint("r0", (("x0", 1.0), ("x", 1.0), ("y", 1.0)), SENSE_LE, 4.0),
         Constraint("r1", (("x", 1.0),), SENSE_LE, 3.0)],
        [("x0", 1.0), ("x", -1.0), ("y", -1.0)],
    )
    prep = PreparedLp(m)
    base = prep.solve(bound_overrides={"y": (0.0, 0.0)})
    assert base.objective == pytest.approx(-3.0)
    start = base
    start.matrix[:, 0] = math.nan
    result = prep.solve(start=start)
    assert result.status == "optimal"
    assert result.refactorizations == 0
    assert result.objective == pytest.approx(-4.0, abs=1e-12)
    assert result.values["x0"] == 0.0


def _pair_lp(y_column, rhs=4.0):
    # min -x - y over two rows; at (4/3, 4/3) both x and y are basic
    x_column = (1.0, 2.0)
    return lp(
        [Variable("x", CONTINUOUS, 0.0, 10.0), Variable("y", CONTINUOUS, 0.0, 10.0)],
        [Constraint(f"r{i}", (("x", x_column[i]), ("y", y_column[i])), SENSE_LE, rhs)
         for i in range(2)],
        [("x", -1.0), ("y", -1.0)],
    )


def test_tableau_copy_starts_another_compile_of_the_same_names():
    base = PreparedLp(_pair_lp((2.0, 1.0)))
    first = base.solve()
    assert sorted(first.basis) == [0, 1]
    # only the right-hand sides differ: no column to replace, no LAPACK call
    moved = PreparedLp(_pair_lp((2.0, 1.0), rhs=5.0))
    result = moved.solve(start=first.copy())
    assert result.refactorizations == 0
    assert result.objective == pytest.approx(moved.solve().objective, rel=1e-12)
    # y's column changes while y is basic: one column replacement, no LAPACK
    turned = PreparedLp(_pair_lp((3.0, 1.0)))
    result = turned.solve(start=first.copy())
    assert result.refactorizations == 0
    assert result.objective == pytest.approx(turned.solve().objective, rel=1e-12)
    # a tableau needs the same names
    plain = _pair_lp((2.0, 1.0))
    renamed = PreparedLp(dataclasses.replace(plain, constraints=tuple(
        dataclasses.replace(c, name=c.name.upper()) for c in plain.constraints)))
    with pytest.raises(ValueError, match="other variables or rows"):
        renamed.solve(start=first.copy())
    copy = first.copy()
    assert isinstance(copy, Tableau)
    moved.solve(start=copy)
    with pytest.raises(ValueError, match="already used"):
        copy.copy()


_CONTINUED = tepkit.simplex._HANDED_ON


def test_a_tableau_copy_is_independent_of_the_solve_that_continues_its_original():
    # the Garver L,H root branches; its dive child continues the root's
    # tableau in place, then the sibling starts from a copy taken before.
    # It must end as the sibling started from a copy of an untouched solve
    # of the same root does: same result and same final arrays, bit for bit
    from tepkit.instance import builtin_garver
    from tepkit.milp import TepSkeleton
    from tepkit.scenario import ScenarioCode, realize_scenario
    net = builtin_garver()
    model = TepSkeleton(net, 8760.0).model(realize_scenario(ScenarioCode.parse("L,H"), net))
    prep = PreparedLp(model)

    def branched():
        root = prep.solve()
        name = max((v.name for v in model.binaries()),
                   key=lambda b: abs(root.values[b] - round(root.values[b])))
        branch_bounds(root, name)
        return root, name

    root, name = branched()
    f = root.values[name]
    assert 1e-6 < f < 1.0 - 1e-6
    child, sibling = ({name: (v, v)} for v in (float(round(f)), float(1 - round(f))))
    copy = root.copy()
    assert all(getattr(copy, a) is not getattr(root, a) for a in _CONTINUED)
    assert copy.values == {} and root.values[name] == f  # a start carries no point
    dive = prep.solve(child, start=root)
    assert dive.iterations > 0
    after = prep.solve(sibling, start=copy)
    untouched = prep.solve(sibling, start=branched()[0].copy())
    for a in ("status", "objective", "values", "iterations", "refactorizations"):
        assert getattr(after, a) == getattr(untouched, a), a
    assert repr(after.objective) == repr(untouched.objective)
    for a in _CONTINUED:
        assert np.array_equal(getattr(after, a), getattr(untouched, a)), a


def _with_spare(model):
    """`model` with a column fixed at 0 in its second row, which keeps its
    two rows from being parallel, so that the presolve merges them in no
    variant of `_pair_lp`."""
    second = model.constraints[1]
    return dataclasses.replace(
        model, variables=model.variables + (Variable("w", CONTINUOUS, 0.0, 0.0),),
        constraints=(model.constraints[0],
                     dataclasses.replace(second, terms=second.terms + (("w", 1.0),))))


def test_vanishing_column_replacement_falls_back_to_a_refactorization(monkeypatch):
    scipy_opt = pytest.importorskip("scipy.optimize")
    first = PreparedLp(_with_spare(_pair_lp((2.0, 1.0)))).solve()
    # y's new column equals x's, so the carried basis {x, y} is singular
    # here: the replacement pivot is 0 and the start refactorizes it, which
    # fails, so the solve starts over from the slack basis
    refactorized = []
    real = Tableau._refactorize

    def recording(run):
        refactorized.append(sorted(run.basis.tolist()))
        real(run)

    monkeypatch.setattr(Tableau, "_refactorize", recording)
    singular = _with_spare(_pair_lp((1.0, 2.0)))
    result = PreparedLp(singular).solve(start=first.copy())
    assert result.status == "optimal"
    assert refactorized[:2] == [[0, 1], [3, 4]]
    assert result.refactorizations == 0  # a failed LAPACK call is not counted
    ref = scipy_opt.linprog([-1.0, -1.0], A_ub=[[1.0, 1.0], [2.0, 2.0]], b_ub=[4.0, 4.0],
                            bounds=[(0.0, 10.0)] * 2, method="highs")
    assert ref.status == 0
    assert result.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)


def _full_compiles(monkeypatch):
    """Record the model of every fresh compile."""
    compiled = []
    real = PreparedLp.__init__

    def recording(self, model):
        compiled.append(model)
        real(self, model)

    monkeypatch.setattr(PreparedLp, "__init__", recording)
    return compiled


def _with_row(model, i, row):
    rows = list(model.constraints)
    rows[i] = row
    return dataclasses.replace(model, constraints=tuple(rows))


def _same_arrays(a, b):
    # the model's own rows, then the presolved LP, and the presolve's plan
    return a.plan == b.plan and all(
        np.array_equal(x, y) and x.tobytes() == y.tobytes()
        for x, y in zip((a._a0, a._b0, a._a, a._b, a._lower, a._upper, a._cost),
                        (b._a0, b._b0, b._a, b._b, b._lower, b._upper, b._cost)))


def test_derive_rereads_only_the_changed_rows(monkeypatch):
    base_model = dense_lp()
    base = PreparedLp(base_model)
    compiled = _full_compiles(monkeypatch)
    row = base_model.constraints[1]
    # new coefficients of the same signs, a repeated term and a new
    # right-hand side: the presolve's plan holds
    x2 = dict(row.terms)["x2"]
    moved = _with_row(base_model, 1, dataclasses.replace(
        row, terms=tuple((name, 1.5 * coef) for name, coef in row.terms) + (("x2", 0.25 * x2),),
        rhs=row.rhs + 3.0))
    derived = base.derive(moved)
    assert compiled == []
    assert derived.model is moved
    assert derived._lower is base._lower and derived._cost is base._cost
    assert derived.names is base.names and derived.rows is base.rows
    # the earlier compile is left as it was
    assert _same_arrays(base, PreparedLp(base_model))
    assert _same_arrays(derived, PreparedLp(moved))
    assert derived.solve().objective == pytest.approx(PreparedLp(moved).solve().objective,
                                                      rel=1e-12)


def test_derive_falls_back_to_a_fresh_compile(monkeypatch):
    base_model = dense_lp()
    base = PreparedLp(base_model)
    row = base_model.constraints[0]
    others = (
        # terms dropped: entries that turn 0 change the presolve's plan
        _with_row(base_model, 0, dataclasses.replace(
            row, terms=row.terms[:1] + (("x2", 0.5), ("x2", 0.25)), rhs=row.rhs + 3.0)),
        _with_row(base_model, 0, dataclasses.replace(row, sense=SENSE_GE)),
        _with_row(base_model, 0, dataclasses.replace(row, name="renamed")),
        # equal variables and objective, but not the same tuples
        dataclasses.replace(base_model, variables=tuple(list(base_model.variables))),
        dataclasses.replace(base_model,
                            objective_terms=tuple(list(base_model.objective_terms))),
        dataclasses.replace(base_model, constraints=base_model.constraints[:-1]),
    )
    compiled = _full_compiles(monkeypatch)
    for model in others:
        compiled.clear()
        derived = base.derive(model)
        assert compiled == [model]
        assert _same_arrays(derived, PreparedLp(model))


def test_derived_row_with_an_unknown_variable_is_refused():
    base_model = dense_lp()
    base = PreparedLp(base_model)
    row = base_model.constraints[2]
    bad = _with_row(base_model, 2, dataclasses.replace(row, terms=row.terms + (("ghost", 1.0),)))
    message = f"constraint {row.name!r} references unknown variable 'ghost'"
    with pytest.raises(ModelError, match=message):
        base.derive(bad)
    with pytest.raises(ModelError, match=message):
        PreparedLp(bad)


def test_derived_row_with_a_non_finite_entry_is_refused():
    base_model = dense_lp()
    base = PreparedLp(base_model)
    row = base_model.constraints[2]
    for bad in (dataclasses.replace(row, rhs=math.nan),
                dataclasses.replace(row, terms=row.terms[:-1] + (("x11", math.inf),))):
        with pytest.raises(ModelError, match=f"constraint {row.name!r}: "):
            base.derive(_with_row(base_model, 2, bad))


def test_derived_model_with_a_constant_that_is_not_finite_is_refused():
    # as a fresh compile refuses it (check_model), so does a derive, which
    # otherwise reads no part of the objective
    base_model = dense_lp()
    base = PreparedLp(base_model)
    for constant in (math.nan, math.inf, -math.inf):
        bad = dataclasses.replace(base_model, objective_constant=constant)
        with pytest.raises(ModelError, match=f"objective: constant {constant}"):
            base.derive(bad)


def test_a_row_whose_signs_no_other_row_shares_keeps_the_plan(monkeypatch):
    # ra's scaled row is + on columns 2 and 7 and rb's + on column 23, so
    # each row's signs are its own and a new coefficient of ra of the same
    # sign keeps the plan; a sum of signs weighted sqrt(j + 2) on column j
    # would give both rows 2 + 3 = 5 and take them for possible parallels
    variables = [Variable(f"x{j}", CONTINUOUS, 0.0, 10.0) for j in range(30)]
    ra = Constraint("ra", (("x2", 1.0), ("x7", 2.0)), SENSE_LE, 8.0)
    rb = Constraint("rb", (("x23", 3.0),), SENSE_LE, 9.0)
    everything = Constraint("all", tuple((v.name, 1.0) for v in variables), SENSE_LE, 100.0)
    base_model = lp(variables, [ra, rb, everything], [(v.name, -1.0) for v in variables])
    base = PreparedLp(base_model)
    moved = _with_row(base_model, 0, dataclasses.replace(ra, terms=(("x2", 1.0), ("x7", 2.5))))
    compiled = _full_compiles(monkeypatch)
    derived = base.derive(moved)
    assert compiled == []
    assert _same_arrays(derived, PreparedLp(moved))


def test_bound_overrides_refuse_a_nan_bound_and_an_unknown_name():
    prep = PreparedLp(dense_lp())
    for lo, up in ((math.nan, 1.0), (0.0, math.nan), (2.0, 1.0)):
        with pytest.raises(ValueError, match="override for 'x0' has lower > upper"):
            prep.solve(bound_overrides={"x0": (lo, up)})
    with pytest.raises(ValueError, match="override for unknown variable 'ghost'"):
        prep.solve(bound_overrides={"ghost": (0.0, 1.0)})


def test_degenerate_rhs_zero():
    # many rows active at the origin: stalls then escapes via Bland's rule
    m = lp(
        [Variable("x", CONTINUOUS, 0.0, math.inf),
         Variable("y", CONTINUOUS, 0.0, math.inf)],
        [Constraint("a", (("x", 1.0), ("y", -1.0)), SENSE_LE, 0.0),
         Constraint("b", (("x", -1.0), ("y", 1.0)), SENSE_LE, 0.0),
         Constraint("cap", (("x", 1.0), ("y", 1.0)), SENSE_LE, 2.0)],
        [("x", -1.0), ("y", -1.0)],
    )
    r = PreparedLp(m).solve()
    assert r.status == "optimal"
    assert r.objective == pytest.approx(-2.0, abs=1e-9)


def _random_lp(rng):
    n = int(rng.integers(2, 7))
    m_rows = int(rng.integers(1, 6))
    variables = []
    for j in range(n):
        lo = float(rng.uniform(-5, 0)) if rng.random() < 0.7 else -math.inf
        hi = float(rng.uniform(0, 8)) if rng.random() < 0.7 else math.inf
        if lo != -math.inf and hi != math.inf and lo > hi:
            lo, hi = hi, lo
        variables.append(Variable(f"x{j}", CONTINUOUS, lo, hi))
    rows = []
    for i in range(m_rows):
        terms = tuple((f"x{j}", float(rng.uniform(-3, 3))) for j in range(n)
                      if rng.random() < 0.8)
        if not terms:
            terms = ((f"x{0}", 1.0),)
        sense = (SENSE_LE, SENSE_GE, SENSE_EQ)[int(rng.integers(0, 3))]
        rows.append(Constraint(f"r{i}", terms, sense, float(rng.uniform(-5, 5))))
    objective = tuple((f"x{j}", float(rng.uniform(-2, 2))) for j in range(n))
    return lp(variables, rows + _boxing_rows(rng, variables), objective)


def _boxing_rows(rng, variables):
    """Rows that box each of `variables` that its own bounds leave
    unboxed. Each pairs the column with a boxed one, where there is one,
    and bounds each side it lacks around an anchor point that meets every
    such row, so that one round of bound tightening boxes it."""
    boxed = [v for v in variables if math.isfinite(v.lower) and math.isfinite(v.upper)]
    rows = []
    for v in variables:
        if math.isfinite(v.lower) and math.isfinite(v.upper):
            continue
        coef = float(rng.uniform(0.5, 2.0))
        terms = ((v.name, coef),)
        reach = 0.0  # how far the paired column's term can move the row
        if boxed:
            other = boxed[int(rng.integers(len(boxed)))]
            other_coef = float(rng.uniform(-1.0, 1.0))
            terms += ((other.name, other_coef),)
            reach = abs(other_coef) * max(abs(other.lower), abs(other.upper))
        anchor = (v.lower if math.isfinite(v.lower) else v.upper if math.isfinite(v.upper)
                  else float(rng.uniform(-3.0, 3.0)))
        if v.upper == math.inf:
            rows.append(Constraint(f"{v.name}_up", terms, SENSE_LE,
                                   coef * anchor + reach + float(rng.uniform(1.0, 8.0))))
        if v.lower == -math.inf:
            rows.append(Constraint(f"{v.name}_lo", terms, SENSE_GE,
                                   coef * anchor - reach - float(rng.uniform(1.0, 8.0))))
    return rows


def _solve(prep, *args, **kwargs):
    """prep.solve, or None where it refuses a column its rows cannot box."""
    try:
        return prep.solve(*args, **kwargs)
    except ModelError as exc:
        assert "its rows imply none" in str(exc)
        return None


def _highs_problem(model):
    """`model` as scipy's linprog takes it: its cost vector and the rest of
    the arguments."""
    idx = model.variable_index()
    c = np.zeros(len(idx))
    for name, coef in model.objective_terms:
        c[idx[name]] += coef
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in model.constraints:
        row = np.zeros(len(idx))
        for name, coef in con.terms:
            row[idx[name]] += coef
        if con.sense == SENSE_LE:
            a_ub.append(row); b_ub.append(con.rhs)
        elif con.sense == SENSE_GE:
            a_ub.append(-row); b_ub.append(-con.rhs)
        else:
            a_eq.append(row); b_eq.append(con.rhs)
    bounds = [(None if v.lower == -math.inf else v.lower,
               None if v.upper == math.inf else v.upper)
              for v in model.variables]
    return c, dict(
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds, method="highs")


def _highs(model):
    """scipy's HiGHS on `model`."""
    from scipy.optimize import linprog
    c, problem = _highs_problem(model)
    return linprog(c, **problem)


def _check_against_highs(mine, model, trial):
    """Check `mine` against HiGHS; return its status, or "refused" for
    None (see _solve)."""
    if mine is None:
        return "refused"
    ref = _highs(model)
    if mine.status == "optimal":
        assert ref.status == 0, f"trial {trial}: scipy disagrees ({ref.status})"
        assert mine.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-7), \
            f"trial {trial}"
    else:
        feas = _highs(replace_objective(model))
        assert feas.status == 2, f"trial {trial}: scipy found a point"
    return mine.status


def test_randomized_against_scipy(monkeypatch):
    pytest.importorskip("scipy.optimize")
    outcomes = _recording_dual(monkeypatch)
    settled = _checking_settled(monkeypatch)
    rng = np.random.default_rng(2024)
    # a separate stream, so the base instances do not depend on the overrides
    override_rng = np.random.default_rng(7)
    perturb_rng = np.random.default_rng(13)
    statuses = {"optimal": 0, "infeasible": 0}
    resolved = {"optimal": 0, "infeasible": 0}
    # a perturbed compile may add terms that undo a boxing row, and so be
    # refused, which is counted apart
    carried = {"optimal": 0, "infeasible": 0, "refused": 0}
    replaced = 0  # cross-compile starts that replaced a basic column in place
    replanned = 0  # cross-compile starts refused: the presolve merged other rows
    # what the dual returned for the live re-solves, and how many cold
    # solves and live re-solves flipped columns to the bounds their rows imply
    live_paths = {}
    flipped = {"cold": 0, "live": 0}
    for trial in range(150):
        model = _random_lp(rng)
        prep = PreparedLp(model)
        mine = prep.solve()
        flipped["cold"] += bool(outcomes[-1]["implied"])
        statuses[mine.status] += 1
        _check_against_highs(mine, model, trial)
        # re-solve through the same compiled LP with some bounds replaced,
        # as branch and bound does at every node: cold, and from the base
        # solve's final basis, as a node past the search's tableau budget
        # starts from its parent's
        overrides = _random_overrides(override_rng, model)
        again = prep.solve(bound_overrides=overrides)
        resolved[again.status] += 1
        _check_against_highs(again, with_bounds(model, overrides), f"{trial} {overrides}")
        warm = prep.solve(bound_overrides=overrides, start=mine.basis_copy())
        _check_against_highs(warm, with_bounds(model, overrides), f"{trial} warm {overrides}")
        # and from the base solve's live tableau, as a dive child continues:
        # after an optimal base solve, a dual start
        basis, resting = mine.basis.tolist(), mine.basis_copy()
        portable = mine.copy()
        live = prep.solve(bound_overrides=overrides, start=mine)
        live_paths[outcomes[-1]["dual"]] = live_paths.get(outcomes[-1]["dual"], 0) + 1
        flipped["live"] += bool(outcomes[-1]["implied"])
        _check_against_highs(live, with_bounds(model, overrides), f"{trial} live {overrides}")
        # a copy of it starts another compile with other columns and
        # right-hand sides, as the next scenario of a sweep does, where the
        # presolve plans both alike; one planned otherwise refuses it
        columns, other = _perturbed(perturb_rng, model, basis)
        other_prep = PreparedLp(other)
        if not portable.fits(other_prep):
            replanned += 1
            with pytest.raises(ValueError, match="other variables or rows"):
                other_prep.solve(start=portable)
            portable = None
        cross = _solve(other_prep, start=portable)
        carried[_check_against_highs(cross, other, f"{trial} cross {columns}")] += 1
        replaced += portable is not None and cross is not None and cross.refactorizations == 0 \
            and any(j in basis for j in columns)
        # and back: the original bounds from the overridden solve's basis
        _check_against_highs(prep.solve(start=again.basis_copy()), model,
                             f"{trial} back")
        if mine.status == "optimal":
            # an optimal basis under unchanged bounds needs no pivot
            same = prep.solve(start=resting)
            assert same.iterations == 0, f"trial {trial}"
            assert same.objective == pytest.approx(mine.objective, rel=1e-12, abs=1e-12)
    # the generator must exercise every outcome for this test to mean much
    # (a refused start ends its solve before the dual runs)
    assert len(settled) == len(outcomes) - replanned, (len(settled), len(outcomes), replanned)
    assert min(statuses.values()) >= 5, statuses
    assert min(resolved.values()) >= 5, resolved
    assert min(carried[k] for k in ("optimal", "infeasible")) >= 5, carried
    assert carried["refused"] <= 15, carried
    assert replaced >= 20, replaced
    assert replanned >= 5, replanned
    # the dual reaches both verdicts, and starts that are not dual feasible
    # flip columns to the bounds their rows imply
    assert min(live_paths.get(k, 0) for k in ("optimal", "infeasible")) >= 20, live_paths
    assert min(flipped.values()) >= 20, flipped


def test_cutoff_stops_only_a_solve_whose_optimum_exceeds_it():
    # each random LP is re-solved with some bounds changed, from its own
    # final tableau and from the slack basis, with a cutoff below, at and
    # above the optimum; a solve that is not cut off must end where the
    # solve without one does. Most slack-basis starts flip columns to the
    # bounds their rows imply, which cut off no feasible point, so each
    # dual point still bounds the optimum
    rng = np.random.default_rng(31)
    override_rng = np.random.default_rng(37)
    cut = {"live": 0, "cold": 0}
    kept = {"live": 0, "cold": 0}
    for trial in range(120):
        model = _random_lp(rng)
        prep = PreparedLp(model)
        base = prep.solve()
        overrides = _random_overrides(override_rng, model)
        for kind in cut:
            def start():
                return base.copy() if kind == "live" else None

            full = prep.solve(bound_overrides=overrides, start=start())
            if full.status not in ("optimal", "infeasible"):
                continue
            optimum = full.objective if full.status == "optimal" else math.inf
            reference = full.objective if full.status == "optimal" else 0.0
            for offset in (-1.0, -1e-6, 0.0, 1e-6, 1.0):
                cutoff = reference + offset
                result = prep.solve(bound_overrides=overrides, start=start(), cutoff=cutoff)
                if result.status == "cutoff":
                    assert optimum > cutoff, (trial, kind, offset)
                    assert result.objective is None and result.values == {}
                    cut[kind] += 1
                else:
                    assert result.status == full.status, (trial, kind, offset)
                    assert result.objective == full.objective, (trial, kind, offset)
                    kept[kind] += 1
    assert min(cut.values()) >= 100 and min(kept.values()) >= 100, (cut, kept)


def _random_node_lp(rng):
    """A random LP whose columns are mostly boxed in [0, 1], as a binary's
    relaxation is, with rows that mostly cap them, so that its optima often
    have fractional boxed columns; rows box the other columns."""
    n = int(rng.integers(4, 10))
    variables = []
    for j in range(n):
        if rng.random() < 0.85:
            variables.append(Variable(f"x{j}", CONTINUOUS, 0.0, 1.0))
        else:
            lo = float(rng.uniform(-5, 0)) if rng.random() < 0.7 else -math.inf
            hi = float(rng.uniform(0, 8)) if rng.random() < 0.7 else math.inf
            variables.append(Variable(f"x{j}", CONTINUOUS, lo, hi))
    rows = []
    for i in range(int(rng.integers(3, 9))):
        terms = tuple((f"x{j}", float(rng.uniform(-1, 3))) for j in range(n)
                      if rng.random() < 0.8) or (("x0", 1.0),)
        sense = (SENSE_LE, SENSE_LE, SENSE_GE, SENSE_EQ)[int(rng.integers(0, 4))]
        rows.append(Constraint(f"r{i}", terms, sense, float(rng.uniform(0.5, 4))))
    objective = tuple((f"x{j}", float(rng.uniform(-2, 1))) for j in range(n))
    return lp(variables, rows + _boxing_rows(rng, variables), objective)


def test_branching_penalties_bound_the_children_from_below():
    # each child of branching an optimal LP on a fractional column boxed in
    # [0, 1], some others fixed to 0 or 1 as at a branch-and-bound node, must
    # have its penalty no higher than its optimum by HiGHS. Most children's
    # duals end in one step, where the penalty is the optimum
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(43)
    pairs = tight = 0
    for trial in range(550):
        model = _random_node_lp(rng)
        boxed = [v.name for v in model.variables if (v.lower, v.upper) == (0.0, 1.0)]
        overrides = {name: (value, value) for name in boxed if rng.random() < 0.25
                     for value in [float(rng.integers(0, 2))]}
        prep = PreparedLp(model)
        parent = prep.solve(overrides)
        if parent.status != "optimal":
            continue
        for name in boxed:
            f = parent.values[name]
            if abs(f - round(f)) <= 1e-6:
                continue
            pairs += 1
            bounds = branch_bounds(parent, name)
            for value, bound in zip((0.0, 1.0), bounds):
                child = _highs(with_bounds(model, {**overrides, name: (value, value)}))
                assert child.status in (0, 2), (trial, name, value)
                optimum = child.fun if child.status == 0 else math.inf
                tol = 1e-9 * max(1.0, abs(optimum))
                assert bound <= optimum + tol, (trial, name, value, bound, optimum)
                tight += abs(bound - optimum) <= tol
    assert pairs >= 200, pairs
    assert tight >= pairs, (tight, pairs)


def test_branch_bounds_only_reads_its_tableau():
    # the bounds of the Garver L,H root's children leave every attribute of
    # the root's solve as it was: its arrays bit for bit, the rest by value
    from tepkit.instance import builtin_garver
    from tepkit.milp import TepSkeleton
    from tepkit.scenario import ScenarioCode, realize_scenario
    net = builtin_garver()
    model = TepSkeleton(net, 8760.0).model(realize_scenario(ScenarioCode.parse("L,H"), net))
    root = PreparedLp(model).solve()
    fractional = [b.name for b in model.binaries() if 1e-6 < root.values[b.name] % 1.0 < 1 - 1e-6]
    assert fractional
    before = {a: v.copy() if isinstance(v, (np.ndarray, dict)) else v
              for a, v in vars(root).items()}
    for name in fractional:
        branch_bounds(root, name)
    assert vars(root).keys() == before.keys()
    for a, value in vars(root).items():
        was = before[a]
        if isinstance(value, np.ndarray) or isinstance(was, np.ndarray):
            assert type(value) is type(was) and value.dtype == was.dtype, a
            assert np.array_equal(value, was), a
        else:
            assert value is was or value == was, a


def test_branch_bounds_refuses_a_column_that_is_not_basic():
    # the Garver H,H root leaves y14 and z3 nonbasic; each used to get the
    # penalties of row 0's basic column
    from tepkit.instance import builtin_garver
    from tepkit.milp import TepSkeleton
    from tepkit.scenario import ScenarioCode, realize_scenario
    net = builtin_garver()
    prep = PreparedLp(TepSkeleton(net, 8760.0).model(
        realize_scenario(ScenarioCode.parse("H,H"), net)))
    root = prep.solve()
    for name in ("y14", "z3"):
        assert prep.var_index[name] not in root.basis
        with pytest.raises(ValueError, match=f"'{name}' is not basic in the tableau"):
            branch_bounds(root, name)


def test_branch_bounds_refuses_a_tableau_another_solve_has_continued():
    # x and y are basic at (4/3, 4/3); once a child's solve continues the
    # tableau, the tableau is that solve's, and its bounds are no longer
    # the parent's
    prep = PreparedLp(_pair_lp((2.0, 1.0)))
    parent = prep.solve()
    assert branch_bounds(parent, "x")[0] > parent.objective
    prep.solve({"x": (1.0, 1.0)}, start=parent)
    with pytest.raises(ValueError, match="the tableau was continued by another solve"):
        branch_bounds(parent, "x")


def test_dual_under_blands_rule_from_its_first_step(monkeypatch):
    # with no steps allowed without a rise, every dual step follows Bland's
    # rule: the lowest violated basic column leaves and the exact ratio
    # test picks the entering column, ties to the lowest index. Its answers
    # must still match HiGHS
    pytest.importorskip("scipy.optimize")
    monkeypatch.setattr(tepkit.simplex, "_BLAND_STALLS", 0)
    rng = np.random.default_rng(2024)
    override_rng = np.random.default_rng(7)
    statuses = {"optimal": 0, "infeasible": 0}
    for trial in range(150):
        model = _random_lp(rng)
        prep = PreparedLp(model)
        mine = prep.solve()
        _check_against_highs(mine, model, trial)
        overrides = _random_overrides(override_rng, model)
        live = prep.solve(bound_overrides=overrides, start=mine)
        _check_against_highs(live, with_bounds(model, overrides), f"{trial} live {overrides}")
        statuses[mine.status] += 1
        statuses[live.status] += 1
    assert min(statuses.values()) >= 5, statuses


def _random_overrides(rng, model):
    picked = rng.choice(len(model.variables),
                        size=int(rng.integers(1, min(3, len(model.variables)) + 1)),
                        replace=False)
    overrides = {}
    for j in picked:
        lo = float(rng.uniform(-4, 2))
        # half of the overrides fix the variable, as a branching decision does
        up = lo if rng.random() < 0.5 else lo + float(rng.uniform(0, 4))
        overrides[model.variables[j].name] = (lo, up)
    return overrides


def _perturbed(rng, model, basis_columns):
    """The model with every right-hand side moved and the coefficients of
    some columns changed, at least one of them basic in `basis_columns`
    where any structural column is; the names stay the same."""
    n = len(model.variables)
    basic = [j for j in basis_columns if j < n]
    columns = {int(j) for j in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)}
    if basic:
        columns.add(int(rng.choice(basic)))
    names = {model.variables[j].name for j in columns}
    rows = []
    for con in model.constraints:
        terms = [(name, coef * float(rng.uniform(0.5, 1.5)) if name in names else coef)
                 for name, coef in con.terms]
        present = {name for name, _ in con.terms}
        terms += [(name, float(rng.uniform(-3, 3))) for name in sorted(names - present)
                  if rng.random() < 0.3]
        rows.append(dataclasses.replace(
            con, terms=tuple(terms), rhs=con.rhs + float(rng.uniform(-1, 1))))
    return sorted(columns), dataclasses.replace(model, constraints=tuple(rows))


def with_bounds(model, overrides):
    variables = tuple(
        dataclasses.replace(v, lower=overrides[v.name][0], upper=overrides[v.name][1])
        if v.name in overrides else v
        for v in model.variables)
    return dataclasses.replace(model, variables=variables)


def replace_objective(model):
    return dataclasses.replace(model, objective_terms=())


def _implied_bounds_hold(model):
    """Whether the bounds that the rows of `model` imply under its own
    bounds contain each column's least and greatest value over its
    feasible set, by HiGHS, within the primal tolerance; a slack column
    s_i = b_i - a_i*x is ranged through its row. None when HiGHS finds the
    model infeasible. Also asserts that the rows box every column."""
    prep = PreparedLp(model)
    n, cols = prep.n, prep.n + prep.m
    run = Tableau(prep, prep._lower.copy(), prep._upper.copy(), None, None)
    bounds = run._implied_bounds()
    if _highs(replace_objective(model)).status == 2:
        return None
    assert bounds is not None, "the implied bounds cross on a feasible LP"
    lower, upper = bounds
    assert np.isfinite(lower).all() and np.isfinite(upper).all()
    from scipy.optimize import linprog
    _, problem = _highs_problem(model)
    tol = prep._primal_tol
    for j in range(cols):
        # column j's value is offset + weights*x
        # on the model's columns: a kept one, or the slack of a presolved
        # row, which every feasible point of the model's rows meets
        weights = np.zeros(len(model.variables))
        if j < n:
            offset, weights[prep.kept[j]] = 0.0, 1.0
        else:
            offset, weights[prep.kept] = prep._b[j - n], -prep._a[j - n, :n]
        least, most = linprog(weights, **problem), linprog(-weights, **problem)
        assert least.status == most.status == 0
        if not (lower[j] <= offset + least.fun + tol
                and upper[j] >= offset - most.fun - tol):
            return False
    return True


def test_implied_bounds_contain_every_feasible_point():
    # on random LPs that their rows box, and on two TEP models, the bounds
    # the rows imply cut off no feasible point: each column's least and
    # greatest feasible value lie within them
    pytest.importorskip("scipy.optimize")
    from tepkit.instance import SynthesisConfig, builtin_garver, synthesize_grid
    from tepkit.milp import TepSkeleton
    from tepkit.scenario import ScenarioCode, realize_scenario
    rng = np.random.default_rng(59)
    held = [_implied_bounds_hold(_random_lp(rng)) for _ in range(30)]
    assert held.count(True) >= 15 and False not in held, held
    for net, code in ((builtin_garver(), "H,L"),
                      (synthesize_grid(SynthesisConfig(n_buses=24, n_regions=4, seed=1,
                                                       demand_total_mw=720.0)), "H,L,H,L")):
        model = TepSkeleton(net, 8760.0).model(realize_scenario(ScenarioCode.parse(code), net))
        assert _implied_bounds_hold(model), code


def test_every_column_substituted_out_leaves_rows_that_merge_or_cross():
    # x is free and has no cost, so `fix` substitutes it out and the other
    # rows keep no column: such rows are one class, which merges where
    # their ranges meet (x <= 7 and x >= 1) and stays apart where they cross
    # (x <= 4 and x >= 6), so that the dual proves that LP infeasible by its
    # Farkas certificate
    x = [Variable("x", CONTINUOUS)]
    fix = Constraint("fix", (("x", 1.0),), SENSE_EQ, 5.0)
    for (upper, lower), m, status in (((7.0, 1.0), 1, "optimal"), ((4.0, 6.0), 2, "infeasible")):
        model = lp(x, [fix, Constraint("le", (("x", 1.0),), SENSE_LE, upper),
                       Constraint("ge", (("x", 1.0),), SENSE_GE, lower)], [])
        prep = PreparedLp(model)
        assert (prep.n, prep.m, prep.kept_rows.tolist()) == (0, m, [1, 2][:m])
        result = prep.solve()
        assert result.status == status
        assert result.values == ({"x": 5.0} if status == "optimal" else {})


def _presolve_lp(rng):
    """A random LP that the presolve reduces. Each free column f_j has no
    cost and is held by an equality row d_j of two or three terms, so it is
    substituted out; each row r_i may have a parallel twice its size with
    the same sign (p_i) and one half its size with the opposite sign (q_i),
    multiples that keep them exactly parallel once the free columns are
    substituted, and whose ranges may cross. The boxed columns' own bounds
    box every row."""
    boxed = [Variable(f"x{j}", CONTINUOUS, float(rng.uniform(-4, 0)), float(rng.uniform(1, 5)))
             for j in range(int(rng.integers(2, 5)))]
    free = [Variable(f"f{j}", CONTINUOUS) for j in range(int(rng.integers(1, 4)))]
    rows = []
    for j in range(len(free)):
        holding = rng.choice(len(boxed), size=int(rng.integers(1, 3)), replace=False)
        terms = ((f"f{j}", float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0))),)
        terms += tuple((f"x{p}", float(rng.uniform(-2, 2))) for p in holding)
        rows.append(Constraint(f"d{j}", terms, SENSE_EQ, float(rng.uniform(-2, 2))))
    senses = (SENSE_LE, SENSE_GE, SENSE_EQ)
    for i in range(int(rng.integers(1, 4))):
        terms = tuple((v.name, float(rng.uniform(-2, 2))) for v in boxed + free
                      if rng.random() < 0.6) or (("x0", 1.0),)
        rhs = float(rng.uniform(-3, 3))
        rows.append(Constraint(f"r{i}", terms, senses[int(rng.integers(3))], rhs))
        for tag, factor in (("p", 2.0), ("q", -0.5)):
            if rng.random() < 0.6:
                rows.append(Constraint(f"{tag}{i}", tuple((name, factor * c) for name, c in terms),
                                       senses[int(rng.integers(2))],
                                       factor * (rhs + float(rng.uniform(-2, 2)))))
    objective = tuple((v.name, float(rng.uniform(-2, 2))) for v in boxed)
    return lp(boxed + free, rows, objective)


def _check_point(mine, model, trial):
    """Check `mine` against HiGHS, and an optimum's values, every model
    variable's, on the model's own rows (check_solution)."""
    from tepkit.solver import check_solution
    _check_against_highs(mine, model, trial)
    if mine.status == "optimal":
        assert sorted(mine.values) == sorted(v.name for v in model.variables), trial
        report = check_solution(model, mine.values)
        assert report.ok, (trial, report.violations)
        assert report.objective == pytest.approx(mine.objective, rel=1e-9, abs=1e-9), trial


def test_presolved_lps_against_scipy():
    # random LPs with substituted columns and parallel rows, solved through
    # the presolved LP: each verdict agrees with HiGHS and each optimum
    # meets the model's own rows, cold and under bound overrides; an
    # override of a substituted column is refused; a derived compile equals
    # a fresh one bit for bit, and a start carries over to it exactly where
    # the two compiles share a plan
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(41)
    override_rng = np.random.default_rng(43)
    seen = {"substituted": 0, "same sign": 0, "opposite sign": 0, "crossed": 0,
            "derived": 0, "carried": 0, "refused": 0}
    statuses = {"optimal": 0, "infeasible": 0}
    for trial in range(150):
        model = _presolve_lp(rng)
        prep = PreparedLp(model)
        seen["substituted"] += len(prep._gone) == sum(v.name[0] == "f" for v in model.variables)
        standing = {model.constraints[i].name for i in prep.kept_rows}
        for tag, sign in (("p", "same sign"), ("q", "opposite sign")):
            seen[sign] += any(c.name[0] == tag and c.name not in standing
                              for c in model.constraints)
        seen["crossed"] += bool(prep._crossed.any())
        mine = prep.solve()
        statuses[mine.status] += 1
        _check_point(mine, model, trial)
        overrides = _random_overrides(override_rng, replace_objective(model))
        overrides = {name: bounds for name, bounds in overrides.items() if name[0] == "x"}
        _check_point(prep.solve(overrides), with_bounds(model, overrides), f"{trial} {overrides}")
        with pytest.raises(ValueError, match="override for substituted variable 'f0'"):
            prep.solve({"f0": (0.0, 0.0)})
        # every right-hand side moved: the plan holds unless a class's
        # ranges cross that did not, or the other way round
        moved = dataclasses.replace(model, constraints=tuple(
            dataclasses.replace(c, rhs=c.rhs + float(rng.uniform(-1, 1)))
            for c in model.constraints))
        derived, fresh = prep.derive(moved), PreparedLp(moved)
        assert _same_arrays(derived, fresh), trial
        seen["derived"] += derived.column is prep.column  # not a fresh compile
        start = mine.copy()
        if fresh.plan == prep.plan:
            assert start.fits(fresh)
            seen["carried"] += 1
            _check_point(fresh.solve(start=start), moved, f"{trial} carried")
        else:
            assert not start.fits(fresh)
            seen["refused"] += 1
            with pytest.raises(ValueError, match="other variables or rows"):
                fresh.solve(start=start)
    assert min(statuses.values()) >= 20, statuses
    assert min(seen.values()) >= 10, seen
