import json

import pytest

from tepkit.network import (
    DRAKE_ACSR,
    LINE_CANDIDATE,
    LINE_EXISTING,
    Bus,
    ConductorParams,
    DocumentError,
    Generator,
    Line,
    Network,
    Region,
    ValidationError,
    load_network,
    parse_document,
    serialize,
    to_document,
    validate,
)
from conftest import two_bus_net


def test_accessors(garver):
    assert len(garver.buses) == 6
    assert garver.bus_by_id()[2].demand_mw == 240.0
    assert garver.region_by_id()[2].name == "south"
    assert garver.line_by_id()[14].to_bus == 6
    assert [g.id for g in garver.generators_at(6)] == [3]
    assert garver.generators_at(5) == []
    assert len(garver.existing_lines()) == 6
    assert len(garver.candidate_lines()) == 8
    assert [l.id for l in garver.expandable_lines()] == [3, 4, 6]
    assert garver.total_demand_mw() == 760.0


def test_corridor_is_unordered():
    line = Line(1, 5, 2, LINE_EXISTING, 1.0, 10.0, 138.0, 1.0)
    assert line.corridor() == (2, 5)
    assert Line(2, 2, 5, LINE_EXISTING, 1.0, 10.0, 138.0, 1.0).corridor() == (2, 5)


def test_validate_clean_fixture(garver):
    assert validate(garver) == []


def test_validate_rejects_duplicate_ids():
    net = two_bus_net()
    net = Network(net.buses + (Bus(1, "dup", 1, 0.0, 0.0),), net.regions,
                  net.generators, net.lines)
    assert any("duplicate id" in v for v in validate(net))


def test_validate_rejects_dangling_references():
    net = two_bus_net()
    bad_gen = Network(net.buses, net.regions,
                      (Generator(1, 9, 10.0, 5.0, "coal"),), net.lines)
    assert any("not a declared bus" in v for v in validate(bad_gen))
    bad_bus = Network((Bus(1, "a", 7, 0.0, 0.0), net.buses[1]), net.regions,
                      net.generators, net.lines)
    assert any("not a declared region" in v for v in validate(bad_bus))


def test_validate_rejects_bad_lines():
    net = two_bus_net()

    def with_line(line):
        return Network(net.buses, net.regions, net.generators, (line,))

    self_loop = Line(1, 2, 2, LINE_EXISTING, 1.0, 10.0, 138.0, 1.0)
    assert any("must differ" in v for v in validate(with_line(self_loop)))

    neg_b = Line(1, 1, 2, LINE_EXISTING, -1.0, 10.0, 138.0, 1.0)
    assert any("susceptance_pu" in v for v in validate(with_line(neg_b)))

    cand_exp = Line(1, 1, 2, LINE_CANDIDATE, 1.0, 10.0, 138.0, 1.0,
                    expandable=True, expansion_capacity_mw=5.0, expand_cost=1.0)
    assert any("candidate lines cannot be expandable" in v
               for v in validate(with_line(cand_exp)))

    exp_no_cost = Line(1, 1, 2, LINE_EXISTING, 1.0, 10.0, 138.0, 1.0,
                       expandable=True, expansion_capacity_mw=5.0)
    assert any("expand_cost" in v for v in validate(with_line(exp_no_cost)))

    stray_expansion = Line(1, 1, 2, LINE_EXISTING, 1.0, 10.0, 138.0, 1.0,
                           expansion_capacity_mw=5.0)
    assert any("must be 0 on a non-expandable" in v
               for v in validate(with_line(stray_expansion)))


def test_validate_rejects_unknown_fuel():
    net = two_bus_net()
    bad = Network(net.buses, net.regions,
                  (Generator(1, 1, 10.0, 5.0, "fusion"),), net.lines)
    assert any("fuel_class" in v for v in validate(bad))


def test_validate_rejects_split_demand():
    # demand on both sides of a gap with no existing line between them
    net = Network(
        buses=(Bus(1, "a", 1, 10.0, 0.0), Bus(2, "b", 1, 10.0, 0.0)),
        regions=(Region(1, "r", 100.0, 2.0, 5.0),),
        generators=(Generator(1, 1, 50.0, 5.0, "coal"),),
        lines=(Line(1, 1, 2, LINE_CANDIDATE, 1.0, 10.0, 138.0, 1.0,
                    build_cost=1.0),),
    )
    assert any("demand is split" in v for v in validate(net))


def test_validate_allows_disconnected_zero_demand_bus(garver):
    # bus 6 has generation but no demand and no existing circuit
    assert validate(garver) == []


def test_document_round_trip(garver):
    text = serialize(garver)
    assert load_network(text) == garver
    # byte determinism
    assert serialize(parse_document(text)) == text


def test_document_round_trip_with_custom_conductor(two=two_bus_net):
    net = two()
    special = ConductorParams(0.02, 9e-5, 0.7, 0.9, 80.0, 12.0, 900.0)
    line = Line(1, 1, 2, LINE_EXISTING, 5.0, 120.0, 138.0, 50.0,
                conductor=special)
    net = Network(net.buses, net.regions, net.generators, (line,))
    doc = to_document(net)
    assert "conductor" in doc["lines"][0]
    assert load_network(serialize(net)) == net


def test_document_defaults_and_rejections():
    doc = {
        "regions": [{"id": 1, "name": "r", "base_peak_temp_f": 100.0,
                     "projected_increase_low_f": 2.0,
                     "projected_increase_high_f": 5.0}],
        "buses": [{"id": 1, "name": "a", "region_id": 1, "demand_mw": 0.0},
                  {"id": 2, "name": "b", "region_id": 1, "demand_mw": 10.0}],
        "generators": [{"id": 1, "bus_id": 1, "capacity_mw": 50.0,
                        "cost_per_mwh": 9.0, "fuel_class": "coal"}],
        "lines": [{"id": 1, "from_bus": 1, "to_bus": 2, "kind": "existing",
                   "susceptance_pu": 2.0, "base_capacity_mw": 50.0,
                   "voltage_kv": 138.0, "length_km": 10.0}],
    }
    net = load_network(json.dumps(doc))
    assert net.base_mva == 100.0 and net.max_angle_rad == 0.6
    assert net.buses[0].population_weight == 0.0
    assert net.lines[0].expandable is False
    assert net.lines[0].conductor == DRAKE_ACSR

    bad = dict(doc, extra_field=1)
    with pytest.raises(DocumentError, match="unknown top-level"):
        parse_document(json.dumps(bad))

    bad = json.loads(json.dumps(doc))
    bad["buses"][0].pop("name")
    with pytest.raises(DocumentError, match="missing required field"):
        parse_document(json.dumps(bad))

    bad = json.loads(json.dumps(doc))
    bad["lines"][0]["susceptance_pu"] = "2.0"
    with pytest.raises(DocumentError, match="must be a number"):
        parse_document(json.dumps(bad))

    bad = json.loads(json.dumps(doc))
    bad["buses"][0]["id"] = 1.5
    with pytest.raises(DocumentError, match="must be an integer"):
        parse_document(json.dumps(bad))

    with pytest.raises(DocumentError, match="malformed"):
        parse_document("{not json")


def test_load_network_surfaces_violations():
    net = two_bus_net()
    broken = Network(net.buses, net.regions, (), net.lines)
    with pytest.raises(ValidationError) as err:
        load_network(serialize(broken))
    assert any("generator" in v for v in err.value.violations)

