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
    Variable,
)
from tepkit.simplex import PreparedLp, SimplexError


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
    m = lp(
        [Variable("x", CONTINUOUS, 0.0, math.inf)],
        [Constraint("c", (("x", 1.0),), SENSE_GE, 1.0)],
        [("x", -1.0)],
    )
    assert PreparedLp(m).solve().status == "unbounded"


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
    m = lp([Variable("x", CONTINUOUS, 0.0, math.inf)], [], [("x", -1.0)])
    assert PreparedLp(m).solve().status == "unbounded"


def test_objective_constant_carried():
    m = lp([Variable("x", CONTINUOUS, 1.0, 2.0)], [], [("x", 1.0)], constant=5.0)
    r = PreparedLp(m).solve()
    assert r.objective == pytest.approx(6.0, abs=1e-12)


def test_beale_cycling_example_terminates():
    # the classical 3-constraint problem that cycles under naive pivoting
    m = lp(
        [Variable("x1", CONTINUOUS, 0.0, math.inf),
         Variable("x2", CONTINUOUS, 0.0, math.inf),
         Variable("x3", CONTINUOUS, 0.0, math.inf),
         Variable("x4", CONTINUOUS, 0.0, math.inf)],
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


def test_iteration_limit_raises():
    with pytest.raises(SimplexError, match="iteration limit"):
        PreparedLp(dense_lp()).solve(max_iterations=1)


def test_start_of_wrong_size_raises():
    small = PreparedLp(lp([Variable("x", CONTINUOUS, 0.0, 1.0)],
                          [Constraint("c", (("x", 1.0),), SENSE_LE, 1.0)],
                          [("x", -1.0)]))
    big = PreparedLp(lp([Variable("x", CONTINUOUS, 0.0, 1.0),
                         Variable("y", CONTINUOUS, 0.0, 1.0)],
                        [Constraint("c", (("x", 1.0), ("y", 1.0)), SENSE_LE, 1.0)],
                        [("x", -1.0)]))
    with pytest.raises(ValueError, match="start basis"):
        big.solve(start=small.solve().basis)


def test_singular_start_falls_back_to_slack_basis():
    # x and y have identical columns, so a basis holding both is singular
    m = lp(
        [Variable("x", CONTINUOUS, 0.0, 3.0), Variable("y", CONTINUOUS, 0.0, 3.0),
         Variable("z", CONTINUOUS, 0.0, 3.0)],
        [Constraint("a", (("x", 1.0), ("y", 1.0), ("z", 1.0)), SENSE_LE, 4.0),
         Constraint("b", (("x", 2.0), ("y", 2.0), ("z", -1.0)), SENSE_LE, 2.0)],
        [("x", -1.0), ("y", -2.0), ("z", -1.0)],
    )
    prep = PreparedLp(m)
    singular = dataclasses.replace(prep.slack_basis, columns=(0, 1))
    cold = prep.solve()
    assert cold.status == "optimal"
    assert prep.solve(start=singular) == cold


def test_deadline_stops_the_solve():
    prep = PreparedLp(dense_lp())
    assert prep.solve(deadline=time.monotonic() + 60.0).status == "optimal"
    stopped = prep.solve(deadline=time.monotonic() - 1.0)
    assert stopped.status == "time_limit"
    assert stopped.iterations == 0 and stopped.objective is None
    # the basis it stopped at is a valid start
    assert prep.solve(start=stopped.basis).status == "optimal"


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
    return lp(variables, rows, objective)


def test_randomized_against_scipy():
    scipy_opt = pytest.importorskip("scipy.optimize")

    def scipy_solve(model):
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
        return scipy_opt.linprog(
            c, A_ub=np.array(a_ub) if a_ub else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq) if a_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=bounds, method="highs")

    def check(mine, model, trial):
        ref = scipy_solve(model)
        if mine.status == "optimal":
            assert ref.status == 0, f"trial {trial}: scipy disagrees ({ref.status})"
            assert mine.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-7), \
                f"trial {trial}"
        elif mine.status == "unbounded":
            # HiGHS presolve may report 2 (infeasible) for feasible-but-
            # unbounded instances; probe feasibility before trusting it
            feas = scipy_solve(replace_objective(model))
            assert ref.status == 3 or feas.status == 0, f"trial {trial}"
        else:
            feas = scipy_solve(replace_objective(model))
            assert feas.status == 2, f"trial {trial}: scipy found a point"

    rng = np.random.default_rng(2024)
    # a separate stream, so the base instances do not depend on the overrides
    override_rng = np.random.default_rng(7)
    statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    resolved = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for trial in range(150):
        model = _random_lp(rng)
        prep = PreparedLp(model)
        mine = prep.solve()
        statuses[mine.status] += 1
        check(mine, model, trial)
        # re-solve through the same compiled LP with some bounds replaced,
        # as branch and bound does at every node: cold, and from the base
        # solve's final basis, as a child node starts from its parent's
        overrides = _random_overrides(override_rng, model)
        again = prep.solve(bound_overrides=overrides)
        resolved[again.status] += 1
        check(again, with_bounds(model, overrides), f"{trial} {overrides}")
        warm = prep.solve(bound_overrides=overrides, start=mine.basis)
        check(warm, with_bounds(model, overrides), f"{trial} warm {overrides}")
        # and back: the original bounds from the overridden solve's basis
        check(prep.solve(start=again.basis), model, f"{trial} back")
        if mine.status == "optimal":
            # an optimal basis under unchanged bounds needs no pivot
            same = prep.solve(start=mine.basis)
            assert same.iterations == 0, f"trial {trial}"
            assert same.objective == pytest.approx(mine.objective, rel=1e-12, abs=1e-12)
    # the generator must exercise every outcome for this test to mean much
    assert min(statuses.values()) >= 5, statuses
    assert min(resolved.values()) >= 5, resolved


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


def with_bounds(model, overrides):
    variables = tuple(
        dataclasses.replace(v, lower=overrides[v.name][0], upper=overrides[v.name][1])
        if v.name in overrides else v
        for v in model.variables)
    return dataclasses.replace(model, variables=variables)


def replace_objective(model):
    return dataclasses.replace(model, objective_terms=())
