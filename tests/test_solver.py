import dataclasses
import math
import types

import numpy as np
import pytest

import tepkit.simplex
import tepkit.solver
from tepkit.instance import SynthesisConfig, builtin_garver, synthesize_grid
from tepkit.milp import TepSkeleton, build_tep_model
from tepkit.model import (
    BINARY,
    CONTINUOUS,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    Constraint,
    Model,
    ModelError,
    Variable,
)
from tepkit.scenario import ScenarioCode, enumerate_scenarios, realize_scenario
from tepkit.simplex import PreparedLp, Tableau
from tepkit.solver import (
    CheckReport,
    SolveOptions,
    SolverError,
    brute_force_solve,
    check_solution,
    format_solution,
    solve_milp,
    solve_sweep,
)

from conftest import highs_milp
from test_ledger import GARVER_SWEEP_LEDGER


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
    lp = PreparedLp(m).solve()
    sol = solve_milp(m)
    assert lp.status == "optimal"
    assert lp.objective <= sol.objective + 1e-9 * max(1.0, abs(sol.objective))


def test_solve_lp_relaxes_binaries():
    # the compiled LP relaxes each binary to its [0, 1] box
    lp = PreparedLp(knapsack()).solve()
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
    # x gains by rising and has no upper bound, and its row only bounds it
    # below: the dual simplex has no bound to flip it to, so every solve entry
    # point refuses the model, as it does the LP and rowless forms of it
    x = Variable("x", CONTINUOUS, 0.0, math.inf)
    for m in (
        milp([x, Variable("y", BINARY, 0.0, 1.0)],
             [Constraint("c", (("x", 1.0), ("y", -1.0)), SENSE_GE, 0.0)], [("x", -1.0)]),
        milp([x], [Constraint("c", (("x", 1.0),), SENSE_GE, 1.0)], [("x", -1.0)]),
        milp([x], [], [("x", -1.0)]),
    ):
        for solve in (lambda m: PreparedLp(m).solve(), solve_milp, brute_force_solve):
            with pytest.raises(ModelError, match="variable 'x' needs finite bounds"):
                solve(m)


def test_time_limit_after_the_root_reports_its_bound(monkeypatch):
    # root relaxation sits at a = 1, b = 0.5, so branching is forced
    m = milp(
        [Variable("a", BINARY, 0.0, 1.0), Variable("b", BINARY, 0.0, 1.0)],
        [Constraint("c", (("a", 2.0), ("b", 2.0)), SENSE_LE, 3.0)],
        [("a", -1.1), ("b", -1.0)],
    )
    full = solve_milp(m)
    # the clock passes the limit when the root LP's solve returns
    now = [0.0]
    fake = types.SimpleNamespace(monotonic=lambda: now[0])
    monkeypatch.setattr(tepkit.simplex, "time", fake)
    monkeypatch.setattr(tepkit.solver, "time", fake)
    solve = PreparedLp.solve

    def expiring(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        now[0] += 5.0
        return result

    monkeypatch.setattr(PreparedLp, "solve", expiring)
    sol = solve_milp(m, SolveOptions(time_limit_s=4.0))
    assert sol.status == "time_limit"
    assert sol.stats["nodes"] == 1
    assert sol.objective is None
    assert sol.best_bound == pytest.approx(-1.6, abs=1e-9)  # root relaxation
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


def tick_clock(monkeypatch, step=1.0):
    """Replace the solver's and the simplex's clock with one that advances
    `step` seconds per reading, so a time limit falls at a fixed step."""
    now = [0.0]

    def monotonic():
        now[0] += step
        return now[0]

    fake = types.SimpleNamespace(monotonic=monotonic)
    monkeypatch.setattr(tepkit.simplex, "time", fake)
    monkeypatch.setattr(tepkit.solver, "time", fake)


def test_time_limit_holds_inside_the_root_lp(monkeypatch):
    model = garver_model()
    root = PreparedLp(model).solve()
    assert root.iterations >= 30
    tick_clock(monkeypatch)
    sol = solve_milp(model, SolveOptions(time_limit_s=5.0))
    assert sol.status == "time_limit"
    assert sol.stats["nodes"] == 1  # the interrupted root counts as a node
    assert sol.stats["simplex_iterations"] <= 5
    assert sol.objective is None and sol.best_bound is None
    lp = PreparedLp(model).solve(deadline=tepkit.simplex.time.monotonic() + 5.0)
    assert lp.status == "time_limit" and lp.iterations <= 5


def _stop(sol):
    return (sol.status, repr(sol.best_bound), sol.stats["nodes"],
            sol.stats["closed_nodes"], sol.stats["simplex_iterations"])


# Where a search stops, as (status, best_bound repr, LP solves, closed nodes,
# iterations), under a clock that advances 1 ms per reading: for each (time
# limit, rel_gap_tol), Garver H,H's search, then the Garver sweep's scenario
# by scenario. The limits stop before the root LP, inside it, mid-search
# before an incumbent (the sweep's later scenarios) and after one; the last
# case stops at the gap.
SEARCH_STOPS = [
    (0.5e-3, 1e-6, ("time_limit", "None", 0, 0, 0),
     [("time_limit", "None", 0, 0, 0)] * 4),
    (3e-3, 1e-6, ("time_limit", "None", 1, 0, 2),
     [("time_limit", "None", 1, 0, 2)] + [("time_limit", "None", 1, 0, 1)] * 3),
    (30e-3, 1e-6, ("time_limit", "None", 1, 0, 28),
     [("time_limit", "213299802.9674818", 1, 0, 27),
      ("time_limit", "222987694.13716117", 5, 0, 19),
      ("time_limit", "219697872.4464533", 5, 0, 20),
      ("time_limit", "228056320.3563239", 5, 0, 20)]),
    (0.1, 1e-6, ("time_limit", "234498672.03391844", 14, 2, 70),
     [("time_limit", "218779853.4917314", 16, 0, 68),
      ("time_limit", "229542876.099051", 19, 2, 59),
      ("time_limit", "225455147.2168213", 19, 1, 61),
      ("time_limit", "235225744.5046762", 18, 4, 59)]),
    (None, 0.05, ("optimal", "233421979.19615704", 9, 1, 61),
     [("optimal", "218744706.91419727", 12, 0, 59),
      ("optimal", "229749538.10868204", 24, 3, 73),
      ("optimal", "226164727.56483588", 24, 3, 82),
      ("optimal", "233421979.19615668", 9, 1, 34)]),
]


@pytest.mark.parametrize("limit, gap, hh, sweep", SEARCH_STOPS)
def test_where_a_search_stops_is_pinned(monkeypatch, limit, gap, hh, sweep):
    options = SolveOptions(rel_gap_tol=gap, time_limit_s=limit)
    models = [garver_model(str(code)) for code in enumerate_scenarios(2)]
    tick_clock(monkeypatch, 1e-3)
    assert _stop(solve_milp(models[-1], options)) == hh
    tick_clock(monkeypatch, 1e-3)
    assert [_stop(sol) for sol in solve_sweep(models, options)] == sweep


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


def test_root_tableau_starts_a_related_model(monkeypatch):
    # another scenario's root tableau, taken over with its changed columns
    # replaced, gives the same answer as a cold solve, with no LAPACK call
    starts = _recording_starts(monkeypatch)
    _, carried = solve_sweep([garver_model("L,L"), garver_model("H,H")])
    roots = [start for overrides, start in starts if not overrides]
    assert roots[0] is None and isinstance(roots[1], Tableau)
    other = garver_model("H,H")
    cold = solve_milp(other)
    assert carried.objective == pytest.approx(cold.objective, rel=1e-9)
    plan = [v.name for v in other.binaries()]
    assert [round(carried.values[n]) for n in plan] == [round(cold.values[n]) for n in plan]
    assert carried.stats["refactorizations"] == 0


def test_root_tableau_is_copied_only_when_the_root_branches(monkeypatch):
    copies = []
    real = Tableau.copy

    def recording(tableau):
        copy = real(tableau)
        if copy.matrix is not None:  # basis_copy() copies one without
            copies.append((tableau, copy))
        return copy

    monkeypatch.setattr(Tableau, "copy", recording)
    starts = _recording_starts(monkeypatch)
    # an integral root hands its live tableau on: nothing else takes it
    integral = milp([Variable("y", BINARY, 0.0, 1.0)],
                    [Constraint("c", (("y", 1.0),), SENSE_GE, 1.0)], [("y", 2.0)])
    first, second = solve_sweep([integral, integral])
    assert copies == []
    assert [type(start) for _, start in starts] == [type(None), Tableau]
    assert first.objective == second.objective == 2.0
    # a branching root's dive child takes the live one: the root keeps a
    # copy, which the next model's root takes over; every other copy is an
    # open sibling's, unless its own bound already exceeds the cutoff when
    # it is pushed: such a sibling is closed when popped, and is pushed
    # with no start
    pushes = []
    push = tepkit.solver._BranchAndBound._push

    def recording_push(self, bound, fixings, own_bound, start):
        incumbent = self.incumbent_obj
        dominated = (incumbent is not None
                     and own_bound > incumbent + tepkit.solver._tie_tol(incumbent))
        pushes.append((dominated, None if start is None else start.matrix is not None))
        push(self, bound, fixings, own_bound, start)

    monkeypatch.setattr(tepkit.solver._BranchAndBound, "_push", recording_push)
    del starts[:]
    low, high = solve_sweep([garver_model("L,L"), garver_model("H,H")])
    assert low.stats["nodes"] > 1 and high.stats["nodes"] > 1
    assert (True, None) in pushes and set(pushes) <= {(True, None), (False, True)}
    assert len(copies) == sum(not dominated for dominated, _ in pushes) + 2
    live_root, kept = copies[0]
    assert live_root.basis is None  # taken by the dive child
    roots = [start for overrides, start in starts if not overrides]
    assert roots == [None, kept]
    cold = solve_milp(garver_model("H,H"))
    assert high.objective == pytest.approx(cold.objective, rel=1e-12)


def test_sweep_yields_an_engine_error_in_place_and_starts_the_next_model_afresh(monkeypatch):
    models = [garver_model(code) for code in ("L,L", "L,H", "H,H")]
    check = tepkit.solver.check_solution

    def fails_on_the_second(model, values, **kwargs):
        if model is models[1]:
            return CheckReport(False, ("forced failure",), 0.0)
        return check(model, values, **kwargs)

    monkeypatch.setattr(tepkit.solver, "check_solution", fails_on_the_second)
    starts = _recording_starts(monkeypatch)
    first, error, third = solve_sweep(models)
    assert first.status == "optimal"
    assert isinstance(error, SolverError)
    assert str(error) == "solution failed independent verification: forced failure"
    # the second root took the first one's tableau over; the third starts
    # from the slack basis, as a cold solve does, and takes its path
    roots = [start for overrides, start in starts if not overrides]
    assert roots[0] is None and isinstance(roots[1], Tableau) and roots[2] is None
    cold = solve_milp(models[2])
    assert third.objective == cold.objective
    assert third.values == cold.values
    assert ({k: third.stats[k] for k in ("nodes", "simplex_iterations", "refactorizations")}
            == {k: cold.stats[k] for k in ("nodes", "simplex_iterations", "refactorizations")})


def test_sweep_yields_a_refused_model_in_place_and_starts_the_next_model_afresh(monkeypatch):
    # in the second model x gains by rising and nothing bounds it above, so
    # the engine refuses it; the third model starts from the slack basis
    row = Constraint("c", (("x", 1.0),), SENSE_GE, 1.0)
    bounded = milp([Variable("x", CONTINUOUS, 0.0, 2.0)], [row], [("x", -1.0)])
    refused = milp([Variable("x", CONTINUOUS, 0.0, math.inf)], [row], [("x", -1.0)])
    starts = _recording_starts(monkeypatch)
    first, error, third = solve_sweep([bounded, refused, bounded])
    assert first.objective == third.objective == -2.0
    assert isinstance(error, ModelError)
    assert str(error).startswith("variable 'x' needs finite bounds")
    roots = [start for overrides, start in starts if not overrides]
    assert roots[0] is None and isinstance(roots[1], Tableau) and roots[2] is None


@pytest.mark.parametrize("constant", [math.nan, math.inf])
def test_sweep_refuses_a_derived_model_whose_objective_constant_is_not_finite(constant):
    # the second model shares the first's variables and objective terms, so
    # its compile is derived from the first's; it is refused in its place
    # as a fresh compile refuses it, and the third model solves
    net = builtin_garver()
    skeleton = TepSkeleton(net, 8760.0)
    first_model, model = (skeleton.model(realize_scenario(ScenarioCode.parse(code), net))
                          for code in ("L,L", "H,H"))
    bad = dataclasses.replace(model, objective_constant=constant)
    first, error, third = solve_sweep([first_model, bad, model])
    assert first.status == third.status == "optimal"
    assert isinstance(error, ModelError)
    assert str(error) == f"objective: constant {constant}"


def test_sweep_starts_a_model_with_other_names_from_the_slack_basis(monkeypatch):
    # the second model's compile cannot be derived from the first's, and
    # the first's root tableau cannot start it: it is solved as cold
    net = synthesize_grid(SynthesisConfig(n_buses=8, n_regions=2, seed=3, demand_total_mw=300.0))
    other = build_tep_model(net, realize_scenario(ScenarioCode.parse("L,L"), net), 8760.0)[0]
    starts = _recording_starts(monkeypatch)
    first, second = solve_sweep([garver_model("L,L"), other])
    assert first.status == "optimal"
    roots = [start for overrides, start in starts if not overrides]
    assert roots == [None, None]
    cold = solve_milp(other)
    assert second.objective == cold.objective
    assert second.values == cold.values


def test_dive_children_and_gray_code_steps_skip_the_refactorization():
    # a dive child continues on its parent's live tableau, a node taken from
    # the open list on a copy of its parent's final one, and each brute-force
    # LP on the previous one's; refactorizing every LP's start and every
    # optimality claim would take two per LP here
    sol = solve_milp(garver_model("H,H"))
    # 51 nodes: the LP solves and those closed by their branching penalties
    assert sol.stats["nodes"] + sol.stats["closed_nodes"] == 51
    assert sol.stats["refactorizations"] == 0
    # the slack start needs no LAPACK call
    assert PreparedLp(garver_model("H,H")).solve().refactorizations == 0
    # nor do the knapsack's Gray-code steps, its 3 infeasible ones included
    oracle = brute_force_solve(knapsack())
    assert oracle.stats["nodes"] - oracle.stats["feasible_assignments"] == 3
    assert oracle.stats["refactorizations"] == 0


def _recording_starts(monkeypatch):
    """Wrap PreparedLp.solve; return the list of the (bound overrides,
    start) pairs it is given."""
    starts = []
    solve = tepkit.simplex.PreparedLp.solve

    def recording(self, bound_overrides=None, *, start=None, **kwargs):
        starts.append((bound_overrides, start))
        return solve(self, bound_overrides, start=start, **kwargs)

    monkeypatch.setattr(tepkit.simplex.PreparedLp, "solve", recording)
    return starts


def test_popped_nodes_fall_back_to_the_basis_without_a_tableau_budget(monkeypatch):
    model = garver_model("H,H")
    default = solve_milp(model)
    monkeypatch.setattr(tepkit.solver, "_OPEN_TABLEAU_BYTES", 0)
    bare = []  # per LP, whether its start carries no B^-1*A, read before the solve
    solve = PreparedLp.solve

    def recording(self, bound_overrides=None, *, start=None, **kwargs):
        bare.append(start is not None and start.matrix is None)
        return solve(self, bound_overrides, start=start, **kwargs)

    monkeypatch.setattr(PreparedLp, "solve", recording)
    sol = solve_milp(model)
    assert sol.stats["nodes"] == default.stats["nodes"]
    assert sol.objective == pytest.approx(default.objective, rel=1e-12)
    assert sol.values == pytest.approx(default.values, abs=1e-9)
    assert ({k: sol.stats[k] for k in ("nodes", "closed_nodes", "simplex_iterations",
                                       "refactorizations")}
            == {"nodes": 31, "closed_nodes": 20, "simplex_iterations": 114,
                "refactorizations": 12})
    assert repr(sol.objective) == "245424473.6914409"
    # every node taken from the open list starts from a copy of its
    # parent's solve without B^-1*A and costs one LAPACK factorization; the
    # root and the dive children cost none
    assert sol.stats["refactorizations"] == sum(bare) == 12


def test_open_tableaux_stay_within_their_budget(monkeypatch):
    model = garver_model("H,H")
    default = solve_milp(model)
    budget = 2 * PreparedLp(model).solve().matrix.nbytes  # two tableaux
    monkeypatch.setattr(tepkit.solver, "_OPEN_TABLEAU_BYTES", budget)
    held = []
    push = tepkit.solver._BranchAndBound._push

    def recording(self, bound, fixings, *rest):
        push(self, bound, fixings, *rest)
        held.append((sum(s.matrix.nbytes for *_, s in self.heap
                         if s is not None and s.matrix is not None),
                     self.tableau_bytes, rest[-1] is not None and rest[-1].matrix is None))

    monkeypatch.setattr(tepkit.solver._BranchAndBound, "_push", recording)
    sol = solve_milp(model)
    assert max(stored for stored, _, _ in held) == budget
    assert all(stored == counted for stored, counted, _ in held)
    # past the budget a sibling stores a copy without B^-1*A, which is
    # refactorized
    assert any(bare for _, _, bare in held)
    assert 0 < sol.stats["refactorizations"]
    assert sol.stats["nodes"] == default.stats["nodes"]
    assert sol.objective == pytest.approx(default.objective, rel=1e-12)
    plan = [v.name for v in model.binaries()]
    assert [round(sol.values[n]) for n in plan] == [round(default.values[n]) for n in plan]


def test_a_sibling_past_the_cutoff_is_pushed_without_a_start(monkeypatch):
    # within the default budget every open node holds a full copy of its
    # parent's solve, except one whose own bound already exceeds the
    # cutoff: that one holds nothing, so a Garver sweep makes no copy
    # without B^-1*A (38 when such a sibling kept one), and every search
    # keeps the LP solves and closed nodes of the work ledger
    calls = []
    basis_copy = Tableau.basis_copy
    monkeypatch.setattr(Tableau, "basis_copy", lambda t: calls.append(t) or basis_copy(t))
    net = builtin_garver()
    skeleton = TepSkeleton(net, 8760.0)
    sweep = solve_sweep(skeleton.model(realize_scenario(code, net))
                        for code in enumerate_scenarios(2))
    assert [(s.stats["nodes"], s.stats["closed_nodes"]) for s in sweep] == [
        (nodes, closed) for nodes, closed, *_ in GARVER_SWEEP_LEDGER.values()]
    assert calls == []


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


def test_a_tie_within_the_tolerance_found_after_the_incumbent_wins():
    # the root sits at a = 1/2, b = 0; the dive fixes a = 1 and finds (1, 0)
    # at 1, then the open sibling a = 0 reaches (0, 1) at 1 + 5e-10: a tie
    # within _tie_tol(1) = 1e-9, so the lexicographically smaller vector
    # wins, as in brute force. That node's LP may not be cut off at the
    # incumbent's objective alone.
    m = milp(
        [Variable("a", BINARY, 0.0, 1.0), Variable("b", BINARY, 0.0, 1.0)],
        [Constraint("need", (("a", 2.0), ("b", 2.0)), SENSE_GE, 1.0)],
        [("a", 1.0), ("b", 1.0 + 5e-10)],
    )
    sol = solve_milp(m)
    assert sol.stats["nodes"] == 5
    assert (round(sol.values["a"]), round(sol.values["b"])) == (0, 1)
    assert sol.objective == 1.0 + 5e-10
    ref = brute_force_solve(m)
    assert (ref.objective, ref.values) == (sol.objective, sol.values)


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
    # nothing to branch on: every driver solves one node, its LP
    for upper, floor, status, objective in (
        (2.0, 0.0, "optimal", -2.0),
        (2.0, 3.0, "infeasible", None),
    ):
        m = milp([Variable("x", CONTINUOUS, 0.0, upper)],
                 [Constraint("floor", (("x", 1.0),), SENSE_GE, floor)], [("x", -1.0)])
        for solve in (solve_milp, brute_force_solve):
            sol = solve(m)
            assert sol.status == status, (solve, status)
            if objective is None:
                assert sol.objective is None and sol.values == {}
            else:
                assert sol.objective == pytest.approx(objective)
            assert sol.stats["nodes"] == 1, (solve, status)


def test_an_empty_model_is_optimal_at_its_objective_constant():
    # no variable and no row: the pricing tolerance used to take numpy's
    # maximum of the empty cost vector, and every driver failed there
    m = milp([], [], [], constant=5.0, name="empty")
    for solve in (solve_milp, brute_force_solve):
        sol = solve(m)
        assert (sol.status, sol.objective, sol.values) == ("optimal", 5.0, {}), solve


def test_an_engine_objective_the_checker_does_not_reproduce_is_an_error(monkeypatch):
    # the engine reports its objective 1.0 too high: on every LP, then only
    # on the LPs of a sweep's second scenario, which the re-evaluation
    # catches in that scenario's place
    real = Tableau._objective
    monkeypatch.setattr(Tableau, "_objective", lambda run, x: real(run, x) + 1.0)
    with pytest.raises(SolverError) as info:
        solve_milp(knapsack())
    assert str(info.value) == "objective mismatch: engine -16.0, re-evaluated -17.0"
    models = [garver_model(code) for code in ("L,L", "L,H", "H,H")]
    monkeypatch.setattr(Tableau, "_objective", lambda run, x: real(run, x) + (
        1.0 if run.prep.model is models[1] else 0.0))
    first, error, third = solve_sweep(models)
    assert isinstance(error, SolverError)
    assert str(error).startswith("objective mismatch: engine ")
    assert first.objective == solve_milp(models[0]).objective
    assert third.objective == solve_milp(models[2]).objective


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

    # a tolerance scaled by |x| must not let a non-finite value through
    for bad in (math.nan, math.inf, -math.inf):
        report = check_solution(m, {"a": bad, "b": 0.0, "c": 1.0})
        assert not report.ok, bad
        assert report.violations[0] == f"a = {bad} is not finite"
    x = milp([Variable("x", CONTINUOUS, 0.0, math.inf)], [], [("x", 1.0)])
    assert not check_solution(x, {"x": math.nan}).ok
    assert not check_solution(x, {"x": math.inf}).ok


def _reference_verdicts(model, values, feas_tol):
    """check_solution's verdicts as first written: the scaled tolerance
    computed for every bound and row."""
    found = []
    for v in model.variables:
        x = values[v.name]
        tol = feas_tol * max(1.0, abs(x))
        if x < v.lower - tol or x > v.upper + tol:
            found.append(f"{v.name} = {x} outside bounds [{v.lower}, {v.upper}]")
    for con in model.constraints:
        activity = 0.0
        for name, coef in con.terms:
            activity += coef * values[name]
        tol = feas_tol * max(1.0, abs(con.rhs), abs(activity))
        if con.sense == SENSE_LE and activity > con.rhs + tol:
            found.append(f"{con.name}: {activity} > {con.rhs}")
        elif con.sense == SENSE_GE and activity < con.rhs - tol:
            found.append(f"{con.name}: {activity} < {con.rhs}")
        elif con.sense == SENSE_EQ and abs(activity - con.rhs) > tol:
            found.append(f"{con.name}: {activity} != {con.rhs}")
    return tuple(found)


def _around(target, tols):
    """Points at, just inside and just outside target +- each tolerance."""
    points = [target]
    for tol in tols:
        for edge in (target - tol, target + tol):
            points += [edge, np.nextafter(edge, -math.inf), np.nextafter(edge, math.inf),
                       edge - 0.5 * tol, edge + 0.5 * tol]
    return [float(p) for p in points]


@pytest.mark.parametrize("feas_tol", [1e-6, 1e-5])
def test_check_solution_verdicts_match_the_scaled_formula_at_the_boundary(feas_tol):
    # bounds and right-hand sides from 0 to 1e7 in size; the plain feas_tol
    # test decides most points, the scaled one the rest, and the verdicts
    # and messages must be those of the scaled test everywhere
    checked = 0
    for level in (0.0, 0.3, 1.0, -2.5, 1e3, -4e5, 1e7):
        tols = [feas_tol, feas_tol * max(1.0, abs(level)), feas_tol * abs(level) * 1.5]
        model = milp(
            [Variable("x", CONTINUOUS, level, level), Variable("u", CONTINUOUS, -math.inf,
                                                               level)],
            [Constraint("le", (("x", 1.0),), SENSE_LE, level),
             Constraint("ge", (("x", 0.5), ("x", 0.5)), SENSE_GE, level),
             Constraint("eq", (("x", 1.0),), SENSE_EQ, level)],
            [("x", 1.0)],
        )
        for x in _around(level, tols):
            values = {"x": x, "u": x}
            report = check_solution(model, values, feas_tol=feas_tol)
            assert report.violations == _reference_verdicts(model, values, feas_tol), x
            checked += 1
    assert checked == 7 * 31


def test_solution_file_round_trip():
    sol = solve_milp(knapsack())
    assert format_solution(sol) == (
        "# status optimal\n# objective -17.0\n# best_bound -17.0\n"
        "a 1.0\nb 0.0\nc 1.0\n")
    assert sol.values == {"a": 1.0, "b": 0.0, "c": 1.0}
    assert check_solution(knapsack(), sol.values).ok


def test_solve_options_validation():
    with pytest.raises(ValueError):
        SolveOptions(rel_gap_tol=-1.0)
    with pytest.raises(ValueError):
        SolveOptions(time_limit_s=0.0)
    with pytest.raises(ValueError):
        SolveOptions(rel_gap_tol=math.nan)
    with pytest.raises(ValueError):
        SolveOptions(time_limit_s=math.nan)


@pytest.mark.parametrize("mark", ["H", "L"])
@pytest.mark.parametrize("n_buses, n_regions, seed",
                         [(20, 2, 2), (30, 3, 4), (40, 2, 5), (24, 2, 7)])
def test_branch_and_bound_matches_highs_beyond_enumeration(n_buses, n_regions, seed, mark):
    # a second referee where brute force is out of reach: scipy's HiGHS
    # solves the model's own rows, so that it referees the presolve too
    pytest.importorskip("scipy.optimize")
    net = synthesize_grid(SynthesisConfig(n_buses=n_buses, n_regions=n_regions, seed=seed,
                                          demand_total_mw=40.0 * n_buses))
    code = ScenarioCode.parse(",".join([mark] * n_regions))
    model, _ = build_tep_model(net, realize_scenario(code, net), 8760.0)
    ref = highs_milp(model, mip_rel_gap=1e-9)
    sol = solve_milp(model)
    assert sol.status == {0: "optimal", 2: "infeasible"}[ref.status]
    if sol.status == "optimal":
        assert sol.objective == pytest.approx(ref.fun + model.objective_constant, rel=1e-6)
