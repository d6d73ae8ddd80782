import dataclasses
import hashlib
import json

import numpy as np
import pytest

import tepkit.milp
import tepkit.simplex
from tepkit.instance import SynthesisConfig, builtin_garver, synthesize_grid
from tepkit.milp import TepSkeleton, build_tep_model
from tepkit.model import BINARY, SENSE_EQ, SENSE_GE, SENSE_LE
from tepkit.mps import export_lp, export_mps
from tepkit.network import LINE_EXISTING, DRAKE_ACSR, Line, to_document
from tepkit.scenario import (
    DemandElasticityConfig,
    RegionParams,
    ScenarioCode,
    ScenarioConfig,
    ScenarioParams,
    enumerate_scenarios,
    realize_scenario,
)
from tepkit.simplex import PreparedLp
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


def test_build_rejects_bad_inputs():
    net = three_bus_net()
    params = unit_params(net)
    with pytest.raises(ValueError, match="sigma_hours"):
        build_tep_model(net, params, 0.0)
    with pytest.raises(ValueError, match="big_m_scale"):
        build_tep_model(net, params, 1.0, big_m_scale=0.5)
    short = ScenarioParams(code=ScenarioCode(("L", "L")),
                           by_region={1: RegionParams(1.0, 1.0)})
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
        by_region={1: RegionParams(eta=1.0, gamma=1.0),
                   2: RegionParams(eta=0.9, gamma=1.0)})
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


def _sweep_grid(name):
    """(network, scenario config) of a sweep: Garver, the synth-sweep and W5
    benchmark grids, and Garver with a conductor override and a wider
    demand elasticity."""
    plain = ScenarioConfig(DemandElasticityConfig(), {})
    if name == "garver":
        return builtin_garver(), plain
    if name == "synth-sweep":
        return synthesize_grid(SynthesisConfig(n_buses=24, n_regions=4, seed=1,
                                               demand_total_mw=720.0)), plain
    if name == "w5":
        return synthesize_grid(SynthesisConfig(n_buses=36, n_regions=6, seed=5,
                                               demand_total_mw=1800.0)), plain
    hot = dataclasses.replace(DRAKE_ACSR, max_conductor_temp_c=90.0)
    return builtin_garver(), ScenarioConfig(DemandElasticityConfig(1.01, 1.08), {2: hot})


def _array_fields(prep):
    # the model's own rows, then the presolved LP the engine solves
    return [prep._a0, prep._b0, prep._a, prep._b, prep._lower, prep._upper, prep._cost]


@pytest.mark.parametrize("grid", ["garver", "synth-sweep", "w5", "conductor_overrides"])
def test_sweep_compiles_derive_bit_identical_arrays(grid, monkeypatch):
    # a sweep builds one skeleton and derives each scenario's compile from
    # the previous one; each scenario's model and arrays must equal a
    # one-shot build and a fresh compile exactly
    full = []
    real_init = PreparedLp.__init__

    def counting(self, model):
        full.append(model)
        real_init(self, model)

    monkeypatch.setattr(PreparedLp, "__init__", counting)
    net, config = _sweep_grid(grid)
    skeleton = TepSkeleton(net, 8760.0)
    codes = enumerate_scenarios(len(net.regions))
    prep = None
    for code in codes:
        params = realize_scenario(code, net, config.elasticity, config.conductors)
        model = skeleton.model(params)
        one_shot, vmap = build_tep_model(net, params, 8760.0)
        assert model == one_shot and vmap == skeleton.vmap
        fresh = PreparedLp(model)
        prep = fresh if prep is None else prep.derive(model)
        assert prep.model is model
        for got, want in zip(_array_fields(prep), _array_fields(fresh)):
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()  # signed zeros too
    assert len(full) == len(codes)  # the fresh ones: no derive fell back


def test_sweep_derives_read_no_balance_row(monkeypatch):
    # a balance row keeps its terms tuple from one scenario to the next and
    # only its right-hand side moves with gamma, so the synth-sweep's
    # derives set those and read only the capacity rows eta sets
    net, _ = _sweep_grid("synth-sweep")
    skeleton = TepSkeleton(net, 8760.0)
    models = [skeleton.model(realize_scenario(code, net)) for code in enumerate_scenarios(4)]
    prep = PreparedLp(models[0])
    read = []
    real = tepkit.simplex._read_row
    monkeypatch.setattr(tepkit.simplex, "_read_row",
                        lambda *args: read.append(args[-2].name) or real(*args))
    balance_changed = 0
    for previous, model in zip(models, models[1:]):
        balance_changed += sum(con is not was and con.name.startswith("bal")
                               for con, was in zip(model.constraints, previous.constraints))
        prep = prep.derive(model)  # a fresh compile would read every row
    assert balance_changed > 0
    assert read and all(name.startswith(("ex", "cn")) for name in read)


def test_signed_zero_gamma_makes_its_own_rows():
    # 0.0 == -0.0, but their balance right-hand sides differ in sign
    net = three_bus_net()
    skeleton = TepSkeleton(net, 1.0)
    prep = PreparedLp(skeleton.model(unit_params(net, gamma=0.0)))
    negative = unit_params(net, gamma=-0.0)
    derived = prep.derive(skeleton.model(negative))
    one_shot = PreparedLp(build_tep_model(net, negative, 1.0)[0])
    assert np.signbit(one_shot._b0[:3]).all()  # the model's rows bal1-bal3
    assert all(got.tobytes() == want.tobytes()
               for got, want in zip(_array_fields(derived), _array_fields(one_shot)))


def test_scenario_models_share_all_but_their_warming_rows(garver):
    skeleton = TepSkeleton(garver, 8760.0)

    def model(code):
        return skeleton.model(realize_scenario(ScenarioCode.parse(code), garver))

    low, high = model("L,L"), model("H,H")
    assert low.variables is high.variables is skeleton.variables
    assert low.objective_terms is high.objective_terms is skeleton.objective_terms
    scenario_rows = ("bal", "exu", "exl", "cnu", "cnl")
    for a, b in zip(low.constraints, high.constraints):
        assert a.name == b.name
        assert (a is b) != a.name.startswith(scenario_rows)
    assert low.constraints[-len(skeleton.fixed_rows):] == skeleton.fixed_rows
    # a region whose mark stays since the previous scenario keeps its row
    # objects: region 1 holds buses 1-3, region 2 buses 4-6
    mixed = model("H,L")
    high_rows = {c.name: c for c in high.constraints}
    mixed_rows = {c.name: c for c in mixed.constraints}
    assert all(mixed_rows[f"bal{b}"] is high_rows[f"bal{b}"] for b in (1, 2, 3))
    assert all(mixed_rows[f"bal{b}"] is not high_rows[f"bal{b}"] for b in (4, 5, 6))


def test_skeleton_validates_once(garver, monkeypatch):
    calls = []
    real = tepkit.milp.validate

    def counting(net):
        calls.append(net)
        return real(net)

    monkeypatch.setattr(tepkit.milp, "validate", counting)
    skeleton = TepSkeleton(garver, 8760.0)
    for code in enumerate_scenarios(2):
        skeleton.model(realize_scenario(code, garver))
    assert len(calls) == 1
    # a scenario with a region missing is refused by the per-scenario step
    short = ScenarioParams(ScenarioCode(("L",)), {1: RegionParams(1.0, 1.0)})
    with pytest.raises(ValueError, match="missing region 2"):
        skeleton.model(short)


def test_plan_reads_built_and_expanded_lines_in_network_order(garver):
    skeleton = TepSkeleton(garver, 8760.0)
    model = skeleton.model(realize_scenario(ScenarioCode.parse("H,H"), garver))
    values = {v.name: 0.0 for v in model.variables}
    candidates = garver.candidate_lines()
    expandables = garver.expandable_lines()
    # set the chosen binaries in reverse order, and near 1 but not at it
    for line in (candidates[-1], candidates[0]):
        values[skeleton.vmap.build(line.id)] = 0.999
    values[skeleton.vmap.expand(expandables[-1].id)] = 1.0
    built, expanded = skeleton.plan(values)
    assert built == [candidates[0], candidates[-1]]
    assert expanded == [expandables[-1]]
    assert skeleton.plan({v.name: 0.0 for v in model.variables}) == ([], [])
    # names follow their rule for any id, declared by the model or not
    assert skeleton.vmap.build(999) == "y999" and skeleton.vmap.angle(0) == "th0"


# one SHA-256 over the documents of Garver, the synth-sweep grid and the
# 6-region grid, each followed by the MPS and LP text of its 2^R scenario
# models: 84 models in all
SCENARIO_MODELS_SHA256 = "3490612a8a21ac0698f026265ded39e7f159058b2b8a062f7aa2964b9b3d594b"


def test_scenario_models_keep_their_bytes():
    digest = hashlib.sha256()
    for net in (builtin_garver(), synthesize_grid(SynthesisConfig(24, 4, 1, 720.0)),
                synthesize_grid(SynthesisConfig(36, 6, 5, 1800.0))):
        digest.update(json.dumps(to_document(net), indent=2).encode())
        skeleton = TepSkeleton(net, 8760.0)
        for code in enumerate_scenarios(len(net.regions)):
            model = skeleton.model(realize_scenario(code, net))
            digest.update(export_mps(model).encode())
            digest.update(export_lp(model).encode())
    assert digest.hexdigest() == SCENARIO_MODELS_SHA256
