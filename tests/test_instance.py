import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tepkit.instance import (
    HEADROOM,
    CandidateRules,
    SynthesisConfig,
    builtin_garver,
    csv_to_document,
    disaggregate_load,
    synthesize_grid,
)
from tepkit.milp import build_tep_model
from tepkit.network import (
    DocumentError,
    LINE_CANDIDATE,
    LINE_EXISTING,
    load_network,
    to_document,
    validate,
)

from conftest import unit_params

SUBS_CSV = """\
id,lat,lon,population_weight
1,33.45,-112.07,3
2,33.30,-111.84,1
"""

PLANTS_CSV = """\
bus_id,capacity_mw,fuel_class,cost_per_mwh
1,150,natural_gas,24.5
2,90,solar,0.0
"""


def test_garver_transcription(garver):
    assert validate(garver) == []
    assert len(garver.buses) == 6
    assert sum(b.demand_mw for b in garver.buses) == 760.0
    assert len(garver.existing_lines()) == 6
    assert len(garver.candidate_lines()) == 8
    assert len(garver.expandable_lines()) == 3
    build_costs = [l.build_cost for l in garver.candidate_lines()]
    expand_costs = [l.expand_cost for l in garver.expandable_lines()]
    assert len(set(build_costs)) == len(build_costs)
    assert len(set(expand_costs)) == len(expand_costs)
    model, _ = build_tep_model(garver, unit_params(garver), 1.0)
    assert sum(1 for v in model.variables if v.kind == "binary") == 11


def test_disaggregate_examples():
    assert disaggregate_load(100.0, (1, 1, 2)) == [25.0, 25.0, 50.0]
    assert disaggregate_load(7.0, (1, 0)) == [7.0, 0.0]
    # a unit that does not divide evenly still sums exactly
    parts = disaggregate_load(100.0, (1, 1, 1))
    assert sum(parts) == 100.0
    assert sorted(parts, reverse=True)[0] - sorted(parts)[0] <= 1e-9 + 1e-12
    # remainder ties break toward the lowest index
    assert parts[0] >= parts[1] >= parts[2]


def test_disaggregate_rejects_bad_input():
    with pytest.raises(ValueError, match="total_mw"):
        disaggregate_load(0.0, (1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        disaggregate_load(10.0, (1, -1))
    with pytest.raises(ValueError, match="all be zero"):
        disaggregate_load(10.0, (0, 0.0))
    # each non-finite input used to end in Fraction's OverflowError or ValueError
    for total in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^total_mw must be finite and > 0, got {total}$"):
            disaggregate_load(total, (1, 2))
    for weights in ((1, math.inf), (math.nan, 1)):
        with pytest.raises(ValueError, match="^weights must be finite$"):
            disaggregate_load(10.0, weights)


@settings(max_examples=60, deadline=None)
@given(
    total=st.floats(min_value=0.5, max_value=5e4),
    weights=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                     max_size=12).filter(lambda ws: sum(ws) > 1e-9),
)
def test_disaggregate_invariants(total, weights):
    parts = disaggregate_load(total, weights)
    assert len(parts) == len(weights)
    assert all(p >= 0.0 for p in parts)
    assert abs(sum(parts) - total) <= 1e-9 * (len(weights) + 1)
    for w, p in zip(weights, parts):
        if w == 0.0:
            assert p == 0.0


def test_synthesis_is_deterministic_and_valid():
    cfg = SynthesisConfig(n_buses=9, n_regions=3, seed=42,
                          demand_total_mw=480.0)
    net = synthesize_grid(cfg)
    assert to_document(synthesize_grid(cfg)) == to_document(net)
    other = synthesize_grid(SynthesisConfig(n_buses=9, n_regions=3, seed=43,
                                            demand_total_mw=480.0))
    assert to_document(other) != to_document(net)
    assert validate(net) == []
    assert len(net.buses) == 9
    assert len(net.regions) == 3
    # round-robin region assignment: sizes differ by at most one
    sizes = [sum(1 for b in net.buses if b.region_id == r.id)
             for r in net.regions]
    assert max(sizes) - min(sizes) <= 1
    assert sum(b.demand_mw for b in net.buses) == pytest.approx(480.0, abs=1e-6)
    total_cap = sum(g.capacity_mw for g in net.generators)
    assert total_cap >= 1.2 * 480.0 - 1e-6
    assert all(l.build_cost > 0 for l in net.candidate_lines())
    assert all(l.expand_cost > 0 for l in net.expandable_lines())


@pytest.mark.parametrize("n_buses", [1, 2, 3, 4, 7])
def test_synthesis_capacity_is_headroom_times_demand_on_any_size(n_buses):
    # one bus used to get max(2, ceil(n/3)) = 2 generator sites: its one
    # generator got the share of a capacity split over two, 67.3 MW for
    # 100 MW of demand, and every scenario was infeasible
    from tepkit.solver import solve_milp

    net = synthesize_grid(SynthesisConfig(n_buses, 1, 0, 100.0))
    assert validate(net) == []
    assert len({g.bus_id for g in net.generators}) == len(net.generators) <= n_buses
    assert sum(g.capacity_mw for g in net.generators) >= HEADROOM * 100.0
    model, _ = build_tep_model(net, unit_params(net), 1.0)
    assert solve_milp(model).status == "optimal"


def test_synthesis_backbone_is_connected():
    net = synthesize_grid(SynthesisConfig(n_buses=14, n_regions=2, seed=7,
                                          demand_total_mw=900.0))
    parent = {b.id: b.id for b in net.buses}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for line in net.existing_lines():
        parent[find(line.from_bus)] = find(line.to_bus)
    assert len({find(b.id) for b in net.buses}) == 1


def test_synthesis_low_degree_buses_get_relief_candidates():
    cfg = SynthesisConfig(n_buses=12, n_regions=2, seed=5,
                          demand_total_mw=600.0,
                          candidate_rules=CandidateRules(degree_max=1))
    net = synthesize_grid(cfg)
    degree = {b.id: 0 for b in net.buses}
    adjacent = {b.id: set() for b in net.buses}
    for line in net.existing_lines():
        degree[line.from_bus] += 1
        degree[line.to_bus] += 1
        adjacent[line.from_bus].add(line.to_bus)
        adjacent[line.to_bus].add(line.from_bus)
    candidate_ends = set()
    for line in net.candidate_lines():
        candidate_ends.add(line.from_bus)
        candidate_ends.add(line.to_bus)
    for b in net.buses:
        non_adjacent_exists = len(adjacent[b.id]) < len(net.buses) - 1
        if degree[b.id] <= 1 and non_adjacent_exists:
            assert b.id in candidate_ends, f"leaf bus {b.id} got no candidate"


def test_synthesis_rejects_bad_config():
    with pytest.raises(ValueError, match="n_buses must be >= n_regions"):
        synthesize_grid(SynthesisConfig(n_buses=2, n_regions=3, seed=1,
                                        demand_total_mw=10.0))
    with pytest.raises(ValueError, match="demand_total_mw"):
        SynthesisConfig(n_buses=4, n_regions=2, seed=1, demand_total_mw=0.0)
    # an infinite total used to pass the config and overflow in synthesize_grid
    for demand in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^demand_total_mw must be finite and > 0, got {demand}$"):
            SynthesisConfig(n_buses=4, n_regions=2, seed=1, demand_total_mw=demand)
    with pytest.raises(ValueError, match="thresholds"):
        CandidateRules(high_gen_mw=0.0)
    with pytest.raises(ValueError, match="degree_max"):
        CandidateRules(degree_max=-1)


def test_synthesized_instance_is_solvable():
    from tepkit.solver import solve_milp

    net = synthesize_grid(SynthesisConfig(n_buses=6, n_regions=2, seed=3,
                                          demand_total_mw=320.0))
    model, _ = build_tep_model(net, unit_params(net), 1.0)
    sol = solve_milp(model)
    assert sol.status == "optimal"


def test_csv_to_document_basics():
    tie = "from_bus,to_bus,voltage_kv,capacity_mw,length_km\n1,2,138,120,30\n"
    doc = csv_to_document(SUBS_CSV, PLANTS_CSV, tie, total_demand_mw=100.0)
    net = load_network(json.dumps(doc))
    assert validate(net) == []
    demands = {b.id: b.demand_mw for b in net.buses}
    assert demands == {1: 75.0, 2: 25.0}
    fuels = {g.bus_id: g.fuel_class for g in net.generators}
    assert fuels == {1: "natural_gas", 2: "solar"}
    assert len(net.regions) == 1
    # zero default demand when no total is given
    blank = load_network(json.dumps(csv_to_document(SUBS_CSV, PLANTS_CSV)))
    assert all(b.demand_mw == 0.0 for b in blank.buses)


def test_csv_to_document_lines():
    lines_csv = """\
from_bus,to_bus,voltage_kv,capacity_mw,length_km,susceptance_pu
1,2,138,100,80.0,2.5
1,2,138,100,,
"""
    doc = csv_to_document(SUBS_CSV, PLANTS_CSV, lines_csv,
                          total_demand_mw=100.0)
    net = load_network(json.dumps(doc))
    explicit, derived = sorted(net.lines, key=lambda l: l.id)
    assert explicit.length_km == 80.0
    assert explicit.susceptance_pu == 2.5
    # great-circle fallback, transcribed independently of the package
    phi1, phi2 = math.radians(33.45), math.radians(33.30)
    dphi = phi2 - phi1
    dlam = math.radians(-111.84 - -112.07)
    a = math.sin(dphi / 2) ** 2 \
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    expected = round(2 * 6371.0 * math.asin(math.sqrt(a)), 1)
    assert derived.length_km == expected
    assert 20.0 < derived.length_km < 35.0
    assert derived.susceptance_pu == pytest.approx(1.0 / (4e-4 * expected))
    assert derived.kind == LINE_EXISTING


@pytest.mark.parametrize("old, new, message", [
    # a nan weight used to end in "cannot convert NaN to integer ratio"
    ("3\n", "nan\n", "substation CSV line 2: column 'population_weight' is not finite: 'nan'"),
    # an infinite coordinate used to reach the document as Infinity
    ("-111.84", "inf", "substation CSV line 3: column 'lon' is not finite: 'inf'"),
], ids=["nan-weight", "inf-lon"])
def test_csv_to_document_rejects_non_finite_numbers(old, new, message):
    subs = SUBS_CSV.replace(old, new)
    for demand in (0.0, 50.0):
        with pytest.raises(DocumentError) as err:
            csv_to_document(subs, PLANTS_CSV, total_demand_mw=demand)
        assert str(err.value) == message


def test_csv_lines_are_existing_lines_only():
    # a candidate line used to load with build_cost 0.0: a free line for the
    # MILP, since the CSV has no cost input
    lines_csv = ("from_bus,to_bus,voltage_kv,capacity_mw,length_km,kind\n"
                 "1,2,138,100,30,existing\n1,2,138,100,30,\n1,2,138,100,30,candidate\n")
    with pytest.raises(DocumentError) as err:
        csv_to_document(SUBS_CSV, PLANTS_CSV, lines_csv)
    assert str(err.value) == ("line CSV line 4: kind 'candidate' is not supported; the CSV "
                              "has no cost input for a candidate")
    kept = csv_to_document(SUBS_CSV, PLANTS_CSV, lines_csv.rsplit("1,2", 1)[0])
    assert [l.kind for l in load_network(json.dumps(kept)).lines] == [LINE_EXISTING] * 2


def test_csv_line_numbers_count_blank_lines():
    with pytest.raises(DocumentError, match="plant CSV line 3: column 'capacity_mw'"):
        csv_to_document(SUBS_CSV, PLANTS_CSV.replace("1,150", "\n1,-inf"))


def test_csv_to_document_rejects_bad_input():
    with pytest.raises(DocumentError, match="missing column"):
        csv_to_document("id,lat,lon\n1,0,0\n", PLANTS_CSV)
    with pytest.raises(DocumentError, match="no data rows"):
        csv_to_document("id,lat,lon,population_weight\n", PLANTS_CSV)
    with pytest.raises(DocumentError, match="not a number"):
        csv_to_document(SUBS_CSV.replace("-112.07", "west"), PLANTS_CSV)
    with pytest.raises(DocumentError, match="not an integer"):
        csv_to_document(SUBS_CSV, PLANTS_CSV.replace("1,150", "one,150"))
    with pytest.raises(DocumentError, match="all population weights are zero"):
        csv_to_document("id,lat,lon,population_weight\n1,0,0,0\n",
                        PLANTS_CSV, total_demand_mw=50.0)
    with pytest.raises(DocumentError, match="cannot derive length"):
        csv_to_document(
            SUBS_CSV, PLANTS_CSV,
            "from_bus,to_bus,voltage_kv,capacity_mw\n1,9,138,100\n",
            total_demand_mw=100.0)
    # a NaN total used to build a network with zero demand, and inf to overflow
    for demand in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"^total_demand_mw must be finite, got {demand}$"):
            csv_to_document(SUBS_CSV, PLANTS_CSV, total_demand_mw=demand)
