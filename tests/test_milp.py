import dataclasses

import pytest

from tepkit.milp import big_m, build_tep_model
from tepkit.model import BINARY, SENSE_EQ, SENSE_GE, SENSE_LE
from tepkit.network import LINE_EXISTING, Line
from tepkit.scenario import RegionParams, ScenarioCode, ScenarioParams
from tepkit.solver import brute_force_solve, solve_milp

from conftest import three_bus_net, two_bus_net, unit_params


def build_three_bus(**kwargs):
    net = three_bus_net()
    return build_tep_model(net, unit_params(net), 1.0, **kwargs)


def row_by_name(model):
    return {c.name: c for c in model.constraints}


def test_variable_order_and_bounds():
    model, vmap = build_three_bus()
    names = [v.name for v in model.variables]
    assert names == ["th1", "th2", "th3", "g1", "g2", "p0_1", "p0_2",
                     "p1_3", "p1_4", "y3", "y4", "z1"]
    by_name = {v.name: v for v in model.variables}
    # bus 1 is the angle reference
    assert (by_name["th1"].lower, by_name["th1"].upper) == (0.0, 0.0)
    assert by_name["th2"].lower == -float("inf")
    assert (by_name["g1"].lower, by_name["g1"].upper) == (0.0, 1.2)
    assert by_name["g2"].upper == pytest.approx(3.0)
    for nm in ("y3", "y4", "z1"):
        assert by_name[nm].kind == BINARY
    assert vmap.angle(2) == "th2"
    assert vmap.gen(1) == "g1"
    assert vmap.flow_existing(2) == "p0_2"
    assert vmap.flow_candidate(4) == "p1_4"
    assert vmap.build(3) == "y3"
    assert vmap.expand(1) == "z1"
    assert model.name == "tepLL"


def test_balance_rows():
    model, _ = build_three_bus()
    rows = row_by_name(model)
    bal2 = rows["bal2"]
    assert bal2.sense == SENSE_EQ
    assert bal2.rhs == pytest.approx(1.5)  # 150 MW / 100 MVA, gamma = 1
    assert dict(bal2.terms) == {"p0_1": 1.0, "p0_2": -1.0, "p1_3": -1.0}
    bal3 = rows["bal3"]
    assert dict(bal3.terms) == {"g2": 1.0, "p0_2": 1.0, "p1_3": 1.0, "p1_4": 1.0}
    assert bal3.rhs == pytest.approx(0.3)


def test_capacity_and_coupling_rows():
    model, _ = build_three_bus()
    rows = row_by_name(model)
    # expandable existing line: 0.8 pu base, 0.4 pu more when z1 = 1
    assert dict(rows["exu1"].terms) == {"p0_1": 1.0, "z1": -0.4}
    assert rows["exu1"].sense == SENSE_LE and rows["exu1"].rhs == pytest.approx(0.8)
    assert dict(rows["exl1"].terms) == {"p0_1": 1.0, "z1": 0.4}
    assert rows["exl1"].sense == SENSE_GE and rows["exl1"].rhs == pytest.approx(-0.8)
    # plain existing line
    assert dict(rows["exu2"].terms) == {"p0_2": 1.0}
    assert rows["exu2"].rhs == pytest.approx(0.6)
    # candidate capacity gated by y
    assert dict(rows["cnu3"].terms) == {"p1_3": 1.0, "y3": -1.0}
    assert rows["cnu3"].rhs == 0.0
    assert dict(rows["cnl4"].terms) == {"p1_4": 1.0, "y4": 1.0}
    # exact coupling on existing lines
    assert dict(rows["fe1"].terms) == {"p0_1": -0.25, "th1": -1.0, "th2": 1.0}
    assert rows["fe1"].sense == SENSE_EQ and rows["fe1"].rhs == 0.0
    # big-M coupling on candidates, M = network angle bound
    assert dict(rows["bmu4"].terms) == {
        "p1_4": pytest.approx(-1.0 / 3.0), "th1": -1.0, "th3": 1.0, "y4": 0.6}
    assert rows["bmu4"].rhs == pytest.approx(0.6)
    assert dict(rows["bml4"].terms)["y4"] == pytest.approx(-0.6)
    # angle spread per corridor, sorted (1,2), (1,3), (2,3)
    assert dict(rows["adu0"].terms) == {"th1": 1.0, "th2": -1.0}
    assert rows["adu0"].rhs == pytest.approx(0.6)
    assert dict(rows["adl2"].terms) == {"th2": 1.0, "th3": -1.0}
    assert rows["adl2"].rhs == pytest.approx(-0.6)
    assert not any(name.startswith("mx") for name in rows)


def test_objective_terms():
    model, _ = build_three_bus()
    obj = dict(model.objective_terms)
    assert obj["y3"] == pytest.approx(21.3e6)
    assert obj["y4"] == pytest.approx(33.9e6)
    assert obj["z1"] == pytest.approx(9.7e6)
    assert obj["g1"] == pytest.approx(1.0 * 31.7 * 100.0)
    assert obj["g2"] == pytest.approx(1.0 * 12.3 * 100.0)
    assert model.objective_constant == 0.0


def test_three_bus_optimum_is_reconductoring():
    # base grid moves at most 140 MW into bus 2, so something must be built;
    # the 9.7e6 expansion beats both 2-3 and 1-3 candidates
    model, _ = build_three_bus()
    sol = solve_milp(model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(9_703_960.0, abs=1e-3)
    assert round(sol.values["z1"]) == 1
    assert round(sol.values["y3"]) == 0 and round(sol.values["y4"]) == 0
    ref = brute_force_solve(model)
    assert ref.objective == pytest.approx(sol.objective, rel=1e-9)


def test_conservation_at_optimum():
    net = three_bus_net()
    params = unit_params(net)
    model, vmap = build_tep_model(net, params, 1.0)
    sol = solve_milp(model)
    total_gen = sum(sol.values[vmap.gen(g.id)] for g in net.generators)
    total_demand = sum(params.gamma(b.region_id) * b.demand_mw / net.base_mva
                       for b in net.buses)
    assert total_gen == pytest.approx(total_demand, abs=1e-6)


def test_big_m_scale_does_not_move_the_optimum():
    base, _ = build_three_bus()
    inflated, _ = build_three_bus(big_m_scale=2.0)
    assert dict(row_by_name(inflated)["bmu3"].terms)["y3"] == pytest.approx(1.2)
    a = solve_milp(base)
    b = solve_milp(inflated)
    assert b.objective == pytest.approx(a.objective, rel=1e-6)
    for nm in ("y3", "y4", "z1"):
        assert round(a.values[nm]) == round(b.values[nm])


def test_cost_scaling_preserves_the_argmin():
    model, _ = build_three_bus()
    scaled = dataclasses.replace(
        model,
        objective_terms=tuple((n, 1000.0 * c) for n, c in model.objective_terms))
    a = brute_force_solve(model)
    b = brute_force_solve(scaled)
    assert b.objective == pytest.approx(1000.0 * a.objective, rel=1e-9)
    for nm in ("y3", "y4", "z1"):
        assert round(a.values[nm]) == round(b.values[nm])


def test_big_m_helper():
    net = three_bus_net()
    lines = {l.id: l for l in net.lines}
    assert big_m(lines[4], net) == net.max_angle_rad
    with pytest.raises(ValueError, match="not a candidate"):
        big_m(lines[1], net)


def test_build_rejects_bad_inputs():
    net = three_bus_net()
    params = unit_params(net)
    with pytest.raises(ValueError, match="sigma_hours"):
        build_tep_model(net, params, 0.0)
    with pytest.raises(ValueError, match="big_m_scale"):
        build_tep_model(net, params, 1.0, big_m_scale=0.5)
    short = ScenarioParams(code=ScenarioCode(("L", "L")),
                           by_region={1: RegionParams(1.0, 1.0, 0.0)})
    with pytest.raises(ValueError, match="missing region 2"):
        build_tep_model(net, short, 1.0)
    broken = dataclasses.replace(
        two_bus_net(),
        lines=(Line(1, 1, 1, LINE_EXISTING, 5.0, 100.0, 138.0, 10.0),))
    with pytest.raises(ValueError, match="does not validate"):
        build_tep_model(broken, unit_params(broken), 1.0)


def test_cross_region_line_takes_the_hotter_eta():
    net = three_bus_net()
    params = ScenarioParams(
        code=ScenarioCode(("L", "L")),
        by_region={1: RegionParams(eta=1.0, gamma=1.0, temp_increase_f=0.0),
                   2: RegionParams(eta=0.9, gamma=1.0, temp_increase_f=0.0)})
    model, _ = build_tep_model(net, params, 1.0)
    rows = row_by_name(model)
    # line 2 spans buses 2 (region 1) and 3 (region 2): min(1.0, 0.9) applies
    assert rows["exu2"].rhs == pytest.approx(0.9 * 0.6)
    # line 1 stays inside region 1
    assert rows["exu1"].rhs == pytest.approx(0.8)


def test_garver_model_shape(garver):
    params = unit_params(garver)
    model, vmap = build_tep_model(garver, params, 1.0)
    assert len(model.variables) == 34
    assert sum(1 for v in model.variables if v.kind == BINARY) == 11
    rows = row_by_name(model)
    # corridor 3-5 holds expandable 6 and candidates 10, 11
    mx = [c for n, c in rows.items() if n.startswith("mx")]
    assert len(mx) == 2
    assert all(dict(c.terms)["z6"] == 1.0 for c in mx)
    assert {next(nm for nm, _ in c.terms if nm.startswith("y")) for c in mx} \
        == {"y10", "y11"}
