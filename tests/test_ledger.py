"""The work ledger: what each pinned solve costs the engine, in counts that
repeat exactly on every host, and the HiGHS reference of W3 H,H.

A change to the engine's LP, its pivots or its search moves these counts
first and its wall time second. Such a change re-records them, and gives
each old value, the new one and the reason.
"""

import pytest

from tepkit.instance import SynthesisConfig, builtin_garver, synthesize_grid
from tepkit.milp import TepSkeleton
from tepkit.scenario import ScenarioCode, enumerate_scenarios, realize_scenario
from tepkit.solver import solve_milp, solve_sweep

from conftest import highs_milp

# per scenario, in sweep order: (LP solves, nodes closed by their penalty,
# simplex iterations, LAPACK refactorizations)
GARVER_SWEEP_LEDGER = {
    "L,L": (42, 13, 136, 0),
    "L,H": (26, 11, 76, 0),
    "H,L": (34, 14, 110, 0),
    "H,H": (31, 20, 88, 0),
}
# each Garver scenario's objective repr: every pivot the simplex chooses
# sets its last digits
GARVER_SWEEP_OBJECTIVES = {
    "L,L": "227251333.4771197",
    "L,H": "231318001.6796933",
    "H,L": "230900302.75164795",
    "H,H": "245424473.69144094",
}
# W2: every scenario closes at its root; the first root starts from the
# slack basis, each later one from the previous root
W2_SWEEP_LEDGER = {
    "L,L,L,L": (1, 0, 34, 0),
    **{code: (1, 0, 0, 0) for code in (
        "L,L,L,H", "L,L,H,L", "L,L,H,H", "L,H,L,L", "L,H,L,H", "L,H,H,L", "L,H,H,H",
        "H,L,L,L", "H,L,L,H", "H,L,H,L", "H,L,H,H", "H,H,L,L", "H,H,L,H", "H,H,H,L")},
    "H,H,H,H": (1, 0, 1, 0),
}
# W3 H,H: (LP solves, nodes closed by their penalty). Its iterations
# depend on the BLAS thread count, so they are not pinned
W3_HH_LEDGER = (89, 31)
# W3 H,H's optimum as scipy's HiGHS proves it (mip_rel_gap 1e-9), and the
# lines built and expanded at the engine's optimum; CI checks the installed
# `tepkit solve` against both
W3_HH_OBJECTIVE = 338946674.0158477
W3_HH_BUILT = [78, 81]
W3_HH_EXPANDED = [44]


def w2_network():
    return synthesize_grid(SynthesisConfig(n_buses=24, n_regions=4, seed=1,
                                           demand_total_mw=720.0))


def w3_model():
    net = synthesize_grid(SynthesisConfig(n_buses=60, n_regions=2, seed=2,
                                          demand_total_mw=1800.0))
    skeleton = TepSkeleton(net, 8760.0)
    return skeleton, skeleton.model(realize_scenario(ScenarioCode.parse("H,H"), net))


def _sweep_ledger(net):
    """The sweep's ledger and each scenario's objective repr."""
    skeleton = TepSkeleton(net, 8760.0)
    codes = enumerate_scenarios(len(net.regions))
    models = [skeleton.model(realize_scenario(code, net)) for code in codes]
    ledger, objectives = {}, {}
    for code, sol in zip(codes, solve_sweep(models)):
        assert sol.status == "optimal", code
        mark = ",".join(code.marks)
        ledger[mark] = (sol.stats["nodes"], sol.stats["closed_nodes"],
                        sol.stats["simplex_iterations"], sol.stats["refactorizations"])
        objectives[mark] = repr(sol.objective)
    return ledger, objectives


@pytest.mark.parametrize("network, pinned", [("garver", GARVER_SWEEP_LEDGER),
                                             ("w2", W2_SWEEP_LEDGER)])
def test_sweep_work_is_pinned(network, pinned):
    net = builtin_garver() if network == "garver" else w2_network()
    ledger, objectives = _sweep_ledger(net)
    assert ledger == pinned
    if network == "garver":
        assert objectives == GARVER_SWEEP_OBJECTIVES


def test_w3_work_plan_and_objective_are_pinned():
    skeleton, model = w3_model()
    sol = solve_milp(model)
    assert sol.status == "optimal"
    assert (sol.stats["nodes"], sol.stats["closed_nodes"]) == W3_HH_LEDGER
    built, expanded = skeleton.plan(sol.values)
    assert [l.id for l in built] == W3_HH_BUILT
    assert [l.id for l in expanded] == W3_HH_EXPANDED
    assert abs(sol.objective - W3_HH_OBJECTIVE) <= 1e-9 * abs(W3_HH_OBJECTIVE)


def test_w3_reference_is_the_highs_optimum():
    pytest.importorskip("scipy.optimize")
    _, model = w3_model()
    ref = highs_milp(model, mip_rel_gap=1e-9)
    assert ref.status == 0
    objective = ref.fun + model.objective_constant
    assert abs(objective - W3_HH_OBJECTIVE) <= 1e-9 * abs(W3_HH_OBJECTIVE)
