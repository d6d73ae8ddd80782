import math
import types

import numpy as np
import pytest

import tepkit.simplex
import tepkit.solver
from tepkit.instance import builtin_garver
from tepkit.milp import build_tep_model
from tepkit.model import (
    BINARY,
    CONTINUOUS,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    Constraint,
    Model,
    Variable,
)
from tepkit.scenario import ScenarioCode, realize_scenario
from tepkit.solver import (
    SolveOptions,
    SolverError,
    brute_force_solve,
    check_solution,
    format_solution,
    parse_solution,
    solve_lp,
    solve_milp,
)


def milp(variables, constraints, objective, constant=0.0, name="m"):
    return Model(name=name, variables=tuple(variables),
                 constraints=tuple(constraints),
                 objective_terms=tuple(objective),
                 objective_constant=constant)


def knapsack() -> Model:
    # max 10a + 13b + 7c st 3a + 4b + 2c <= 5 -> optimum {a, c} worth 17
    return milp(
        [Variable("a", BINARY, 0.0, 1.0), Variable("b", BINARY, 0.0, 1.0),
         Variable("c", BINARY, 0.0, 1.0)],
        [Constraint("w", (("a", 3.0), ("b", 4.0), ("c", 2.0)), SENSE_LE, 5.0)],
        [("a", -10.0), ("b", -13.0), ("c", -7.0)],
    )


def test_knapsack_optimum():
    sol = solve_milp(knapsack())
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-17.0, abs=1e-9)
    assert round(sol.values["a"]) == 1
    assert round(sol.values["b"]) == 0
    assert round(sol.values["c"]) == 1
    assert sol.best_bound <= sol.objective + 1e-9


def test_brute_force_matches_knapsack():
    ref = brute_force_solve(knapsack())
    assert ref.status == "optimal"
    assert ref.objective == pytest.approx(-17.0, abs=1e-9)
    assert ref.stats["nodes"] == 8
    assert ref.stats["feasible_assignments"] == 5  # {b,c}, {a,b}, {a,b,c} overweigh


def test_relaxation_bounds_the_milp():
    m = knapsack()
    lp = solve_lp(m)
    sol = solve_milp(m)
    assert lp.status == "optimal"
    assert lp.objective <= sol.objective + 1e-9 * max(1.0, abs(sol.objective))


def test_solve_lp_relaxes_binaries():
    lp = solve_lp(knapsack())
    # fractional knapsack fills the residual capacity with b
    assert lp.objective == pytest.approx(-17.0 - 13.0 * 0.0, abs=2.0)
    assert 0.0 <= lp.values["b"] <= 1.0


def test_integral_root_solves_in_one_node():
    m = milp(
        [Variable("y", BINARY, 0.0, 1.0)],
        [Constraint("c", (("y", 1.0),), SENSE_GE, 1.0)],
        [("y", 2.0)],
    )
    sol = solve_milp(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0)
    assert sol.stats["nodes"] == 1


def test_infeasible_milp():
    m = milp(
        [Variable("y", BINARY, 0.0, 1.0)],
        [Constraint("c", (("y", 1.0),), SENSE_GE, 2.0)],
        [("y", 1.0)],
    )
    sol = solve_milp(m)
    assert sol.status == "infeasible"
    assert sol.objective is None and sol.values == {}


def test_unbounded_milp():
    m = milp(
        [Variable("x", CONTINUOUS, 0.0, math.inf),
         Variable("y", BINARY, 0.0, 1.0)],
        [Constraint("c", (("x", 1.0), ("y", -1.0)), SENSE_GE, 0.0)],
        [("x", -1.0)],
    )
    sol = solve_milp(m)
    assert sol.status == "unbounded"
    ref = brute_force_solve(m)
    assert ref.status == "unbounded"


def test_node_limit_reports_root_bound():
    # root relaxation sits at a = 1, b = 0.5, so branching is forced
    m = milp(
        [Variable("a", BINARY, 0.0, 1.0), Variable("b", BINARY, 0.0, 1.0)],
        [Constraint("c", (("a", 2.0), ("b", 2.0)), SENSE_LE, 3.0)],
        [("a", -1.1), ("b", -1.0)],
    )
    sol = solve_milp(m, SolveOptions(node_limit=1))
    assert sol.status == "node_limit"
    assert sol.objective is None
    assert sol.best_bound == pytest.approx(-1.6, abs=1e-9)  # root relaxation
    full = solve_milp(m)
    assert full.status == "optimal"
    assert full.objective == pytest.approx(-1.1)
    assert (round(full.values["a"]), round(full.values["b"])) == (1, 0)


def test_time_limit_is_honored():
    m = knapsack()
    sol = solve_milp(m, SolveOptions(time_limit_s=1e-9))
    assert sol.status == "time_limit"
    assert sol.stats["nodes"] == 0


def garver_model(code="H,H"):
    net = builtin_garver()
    return build_tep_model(net, realize_scenario(ScenarioCode.parse(code), net), 8760.0)[0]


def tick_clock(monkeypatch):
    """Replace the solver's and the simplex's clock with one that advances
    one second per reading, so a time limit falls at a fixed step."""
    now = [0.0]

    def monotonic():
        now[0] += 1.0
        return now[0]

    fake = types.SimpleNamespace(monotonic=monotonic)
    monkeypatch.setattr(tepkit.simplex, "time", fake)
    monkeypatch.setattr(tepkit.solver, "time", fake)


def test_time_limit_holds_inside_the_root_lp(monkeypatch):
    model = garver_model()
    root = solve_lp(model)
    assert root.stats["simplex_iterations"] >= 30
    tick_clock(monkeypatch)
    sol = solve_milp(model, SolveOptions(time_limit_s=5.0))
    assert sol.status == "time_limit"
    assert sol.stats["nodes"] == 1  # the interrupted root counts as a node
    assert sol.stats["simplex_iterations"] <= 5
    assert sol.objective is None and sol.best_bound is None
    lp = solve_lp(model, SolveOptions(time_limit_s=5.0))
    assert lp.status == "time_limit" and lp.stats["simplex_iterations"] <= 5


def test_time_limit_mid_search_keeps_a_valid_bound(monkeypatch):
    # the node being solved when time runs out is still open: its bound
    # must count, or the reported bound can exceed the optimum
    rng = np.random.default_rng(99)
    cases = [_random_milp(rng) for _ in range(120)]
    optima = [brute_force_solve(m) for m in cases]
    tick_clock(monkeypatch)
    stopped = 0
    for trial, (m, ref) in enumerate(zip(cases, optima)):
        if ref.status != "optimal":
            continue
        scale = 1e-9 * max(1.0, abs(ref.objective))
        for limit in range(3, 60, 2):
            sol = solve_milp(m, SolveOptions(time_limit_s=float(limit)))
            if sol.best_bound is not None:
                assert sol.best_bound <= ref.objective + scale, (trial, limit)
            if sol.status == "optimal":
                break
            assert sol.status == "time_limit"
            stopped += 1
    assert stopped >= 100


def test_root_basis_warm_starts_a_related_model():
    cold = solve_milp(garver_model("L,L"))
    other = garver_model("H,H")
    warm = solve_milp(other, start=cold.root_basis)
    again = solve_milp(other)
    assert warm.objective == pytest.approx(again.objective, rel=1e-9)
    plan = [v.name for v in other.binaries()]
    assert [round(warm.values[n]) for n in plan] == [round(again.values[n]) for n in plan]
    assert warm.stats["simplex_iterations"] < again.stats["simplex_iterations"]


def test_gap_limit_is_reported_as_optimal_within_gap():
    rng = np.random.default_rng(11)
    n = 10
    weights = rng.uniform(1, 10, n)
    values = weights + rng.uniform(0.0, 1.0, n)  # weakly correlated: real gap
    m = milp(
        [Variable(f"y{i}", BINARY, 0.0, 1.0) for i in range(n)],
        [Constraint("w", tuple((f"y{i}", float(weights[i])) for i in range(n)),
                    SENSE_LE, float(weights.sum() / 2))],
        [(f"y{i}", -float(values[i])) for i in range(n)],
    )
    loose = solve_milp(m, SolveOptions(rel_gap_tol=0.3))
    assert loose.status == "optimal"
    scale = max(1.0, abs(loose.objective))
    assert loose.best_bound <= loose.objective + 1e-9 * scale
    assert loose.objective - loose.best_bound <= 0.3 * scale + 1e-9
    exact = solve_milp(m)
    assert exact.objective <= loose.objective + 1e-9 * scale
    assert exact.stats["nodes"] >= loose.stats["nodes"]


def test_exact_ties_resolve_to_lex_smallest_reachable():
    # both assignments cost 5; branching sees the tie explicitly
    m = milp(
        [Variable("a", BINARY, 0.0, 1.0), Variable("b", BINARY, 0.0, 1.0)],
        [Constraint("pick", (("a", 1.0), ("b", 1.0)), SENSE_EQ, 1.0)],
        [("a", 5.0), ("b", 5.0)],
    )
    ref = brute_force_solve(m)
    assert (round(ref.values["a"]), round(ref.values["b"])) == (0, 1)
    sol = solve_milp(m)
    assert sol.objective == pytest.approx(ref.objective, abs=1e-9)


def test_brute_force_ties_go_to_lex_smallest_whatever_the_visit_order():
    # (1, 1, 0) and (1, 0, 1) both cost 5; the Gray-code walk meets
    # (1, 1, 0) first, yet the lexicographically smaller one must win
    m = milp(
        [Variable(n, BINARY, 0.0, 1.0) for n in "abc"],
        [Constraint("two", (("a", 1.0), ("b", 1.0), ("c", 1.0)), SENSE_EQ, 2.0),
         Constraint("a_on", (("a", 1.0),), SENSE_GE, 1.0)],
        [("a", 1.0), ("b", 4.0), ("c", 4.0)],
    )
    ref = brute_force_solve(m)
    assert tuple(round(ref.values[n]) for n in "abc") == (1, 0, 1)


def test_brute_force_refuses_too_many_binaries():
    m = milp([Variable(f"y{i}", BINARY, 0.0, 1.0) for i in range(25)], [],
             [(f"y{i}", 1.0) for i in range(25)])
    with pytest.raises(ValueError, match="enumeration limit"):
        brute_force_solve(m)


def test_brute_force_no_binaries_falls_back_to_lp():
    m = milp([Variable("x", CONTINUOUS, 0.0, 2.0)], [], [("x", -1.0)])
    sol = brute_force_solve(m)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-2.0)


def test_determinism():
    rng = np.random.default_rng(3)
    n = 6
    m = milp(
        [Variable(f"y{i}", BINARY, 0.0, 1.0) for i in range(n)]
        + [Variable("x", CONTINUOUS, 0.0, 5.0)],
        [Constraint("r0",
                    tuple((f"y{i}", float(rng.uniform(1, 4))) for i in range(n))
                    + (("x", 1.0),), SENSE_LE, 7.0),
         Constraint("r1", (("x", 1.0), ("y0", -2.0)), SENSE_GE, -1.0)],
        [(f"y{i}", float(rng.uniform(-5, -1))) for i in range(n)] + [("x", -0.7)],
    )
    a = solve_milp(m)
    b = solve_milp(m)
    assert a.status == b.status == "optimal"
    assert a.objective == b.objective
    assert a.values == b.values
    assert a.stats["nodes"] == b.stats["nodes"]
    assert a.stats["simplex_iterations"] == b.stats["simplex_iterations"]


def _random_milp(rng):
    n_bin = int(rng.integers(2, 8))
    n_cont = int(rng.integers(0, 3))
    variables = [Variable(f"y{i}", BINARY, 0.0, 1.0) for i in range(n_bin)]
    variables += [Variable(f"x{i}", CONTINUOUS, 0.0, float(rng.uniform(1, 6)))
                  for i in range(n_cont)]
    names = [v.name for v in variables]
    rows = []
    for i in range(int(rng.integers(1, 5))):
        terms = tuple((nm, float(rng.uniform(-3, 3))) for nm in names
                      if rng.random() < 0.7)
        if not terms:
            continue
        sense = (SENSE_LE, SENSE_GE)[int(rng.integers(0, 2))]
        rows.append(Constraint(f"r{i}", terms, sense, float(rng.uniform(-2, 6))))
    objective = [(nm, float(rng.uniform(-5, 5))) for nm in names]
    return milp(variables, rows, objective)


def test_randomized_against_brute_force():
    rng = np.random.default_rng(99)
    solved = 0
    for trial in range(40):
        m = _random_milp(rng)
        sol = solve_milp(m)
        ref = brute_force_solve(m)
        assert sol.status == ref.status, f"trial {trial}"
        if sol.status == "optimal":
            solved += 1
            scale = max(1.0, abs(ref.objective))
            assert abs(sol.objective - ref.objective) <= 1e-7 * scale, f"trial {trial}"
            assert sol.best_bound <= sol.objective + 1e-9 * scale
    assert solved >= 15  # enough feasible instances for the study to mean something


def test_check_solution_reports_violations():
    m = knapsack()
    good = {"a": 1.0, "b": 0.0, "c": 1.0}
    report = check_solution(m, good)
    assert report.ok
    assert report.objective == pytest.approx(-17.0)

    overweight = check_solution(m, {"a": 1.0, "b": 1.0, "c": 1.0})
    assert not overweight.ok
    assert any("w:" in v for v in overweight.violations)

    fractional = check_solution(m, {"a": 0.5, "b": 0.0, "c": 0.0})
    assert not fractional.ok
    assert any("not integral" in v for v in fractional.violations)

    out_of_bounds = check_solution(m, {"a": 2.0, "b": 0.0, "c": 0.0})
    assert not out_of_bounds.ok
    assert any("outside bounds" in v for v in out_of_bounds.violations)

    missing = check_solution(m, {"a": 1.0, "b": 0.0})
    assert not missing.ok
    assert any("no value" in v for v in missing.violations)


def test_solution_file_round_trip():
    sol = solve_milp(knapsack())
    text = format_solution(sol)
    assert text.startswith("# status optimal")
    parsed = parse_solution(text)
    assert parsed == sol.values
    report = check_solution(knapsack(), parsed)
    assert report.ok


def test_parse_solution_errors():
    with pytest.raises(ValueError, match="line 2"):
        parse_solution("# fine\nx 1 2\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_solution("x notanumber\n")
    assert parse_solution("\n# only comments\n") == {}


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(rel_gap_tol=-1.0)
    with pytest.raises(ValueError):
        SolveOptions(feas_tol=0.0)
    with pytest.raises(ValueError):
        SolveOptions(time_limit_s=0.0)
    with pytest.raises(ValueError):
        SolveOptions(node_limit=0)
