import dataclasses
import json

import pytest

from tepkit.network import DRAKE_ACSR, ConductorParams
from tepkit.scenario import (
    DemandElasticityConfig,
    RegionParams,
    ScenarioCode,
    ScenarioParams,
    enumerate_scenarios,
    load_scenario_config,
    realize_scenario,
)
from tepkit.thermal import derating_factor
from conftest import three_bus_net


def test_scenario_code_round_trip():
    code = ScenarioCode(("H", "L", "H"))
    assert str(code) == "H,L,H"
    assert ScenarioCode.parse("H,L,H") == code
    assert ScenarioCode.parse(" h , l , h ") == code


def test_scenario_code_rejects_bad_marks():
    with pytest.raises(ValueError):
        ScenarioCode(("H", "X"))
    with pytest.raises(ValueError):
        ScenarioCode(())
    with pytest.raises(ValueError):
        ScenarioCode.parse("")


def test_enumerate_scenarios_counts_and_order():
    two = enumerate_scenarios(1)
    assert [str(c) for c in two] == ["L", "H"]
    sixteen = enumerate_scenarios(4)
    assert len(sixteen) == 16
    assert len(set(sixteen)) == 16
    assert str(sixteen[0]) == "L,L,L,L"
    assert str(sixteen[-1]) == "H,H,H,H"
    # lexicographic with L before H: second code flips only the last region
    assert str(sixteen[1]) == "L,L,L,H"
    with pytest.raises(ValueError):
        enumerate_scenarios(0)


def test_realize_scenario_eta_and_gamma():
    net = three_bus_net()
    elast = DemandElasticityConfig(gamma_low=1.02, gamma_high=1.05)
    params = realize_scenario(ScenarioCode(("L", "H")), net, elast)
    assert params.gamma(1) == 1.02
    assert params.gamma(2) == 1.05

    r1, r2 = net.regions

    def expected_eta(region, increase_f):
        base_c = (region.base_peak_temp_f - 32) * 5 / 9
        return derating_factor(DRAKE_ACSR, base_c, base_c + increase_f * 5 / 9)

    assert params.eta(1) == pytest.approx(
        expected_eta(r1, r1.projected_increase_low_f), rel=1e-12)
    assert params.eta(2) == pytest.approx(
        expected_eta(r2, r2.projected_increase_high_f), rel=1e-12)
    assert 0 < params.eta(2) < params.eta(1) <= 1.0


def test_realize_scenario_mark_count_must_match_regions():
    net = three_bus_net()
    with pytest.raises(ValueError, match="2 regions"):
        realize_scenario(ScenarioCode(("H",)), net)


SUNNY = ConductorParams(0.0281, 8.688e-5, 0.8, 0.8, 75.0, 15.0, 5000.0)


@pytest.mark.parametrize("base_f, conductors, message", [
    (170.0, {}, "region 2: peak ambient 172.6 F must be below the conductor limit 167.0 F"),
    (-600.0, {}, "region 2: base_peak_temp_f -600.0 F must be above absolute zero (-459.67 F)"),
    (100.0, {2: SUNNY}, "region 2: peak ambient 102.6 F leaves the conductor no thermal "
                        "headroom: convection 47.376 + radiation 20.705 W/m do not cover "
                        "solar gain 112.400 W/m"),
], ids=["limit", "absolute-zero", "headroom"])
def test_realize_scenario_names_the_region_in_f(garver, base_f, conductors, message):
    # these used to quote the ambient and the limit in C and name no region
    south = dataclasses.replace(garver.regions[1], base_peak_temp_f=base_f)
    net = dataclasses.replace(garver, regions=(garver.regions[0], south))
    with pytest.raises(ValueError) as err:
        realize_scenario(ScenarioCode(("L", "L")), net, conductors=conductors)
    assert str(err.value) == message


def test_realize_scenario_conductor_override():
    net = three_bus_net()
    sturdy = ConductorParams(0.03, 8e-5, 0.9, 0.6, 90.0, 20.0, 900.0)
    base = realize_scenario(ScenarioCode(("H", "H")), net)
    tweaked = realize_scenario(ScenarioCode(("H", "H")), net,
                               conductors={2: sturdy})
    assert tweaked.eta(1) == base.eta(1)
    assert tweaked.eta(2) != base.eta(2)


def test_scaled_eta_clamps_at_one():
    params = ScenarioParams(
        code=ScenarioCode(("L",)),
        by_region={1: RegionParams(eta=0.9, gamma=1.0)},
    )
    down = params.scaled_eta(0.5)
    assert down.eta(1) == 0.45
    up = params.scaled_eta(2.0)
    assert up.eta(1) == 1.0
    assert params.eta(1) == 0.9  # original untouched


def test_elasticity_validation():
    with pytest.raises(ValueError):
        DemandElasticityConfig(gamma_low=0.0, gamma_high=1.0)
    with pytest.raises(ValueError):
        DemandElasticityConfig(gamma_low=1.05, gamma_high=1.02)


def test_load_scenario_config():
    text = json.dumps({
        "elasticity": {"gamma_low": 1.01, "gamma_high": 1.07},
        "conductor_overrides": {"2": {"max_conductor_temp_c": 90.0}},
    })
    cfg = load_scenario_config(text)
    assert cfg.elasticity.gamma_low == 1.01
    assert cfg.elasticity.gamma_high == 1.07
    assert cfg.conductors[2].max_conductor_temp_c == 90.0
    assert cfg.conductors[2].diameter_m == DRAKE_ACSR.diameter_m


def test_load_scenario_config_defaults_and_errors():
    cfg = load_scenario_config("{}")
    assert cfg.elasticity == DemandElasticityConfig()
    assert cfg.conductors == {}
    with pytest.raises(ValueError, match="unknown field"):
        load_scenario_config('{"bogus": 1}')
    with pytest.raises(ValueError, match="malformed"):
        load_scenario_config("{")
    with pytest.raises(ValueError, match="conductor override"):
        load_scenario_config('{"conductor_overrides": {"1": {"nope": 2}}}')
    with pytest.raises(ValueError, match=r"unknown field\(s\) \['base_year'\]"):
        load_scenario_config('{"base_year": 2005}')
    with pytest.raises(ValueError, match="must be a number"):
        load_scenario_config('{"elasticity": {"gamma_low": "1.03"}}')
    with pytest.raises(ValueError, match="'gamma_high' must be a finite number"):
        load_scenario_config('{"elasticity": {"gamma_high": NaN}}')
    with pytest.raises(ValueError, match="'diameter_m' must be a finite number"):
        load_scenario_config('{"conductor_overrides": {"1": {"diameter_m": Infinity}}}')


@pytest.mark.parametrize("override, message", [
    ({"emissivity": True}, "must be a number"),
    ({"diameter_m": "0.03"}, "must be a number"),
    ({"diameter_m": -0.03}, "diameter_m must be > 0"),
])
def test_conductor_override_is_checked(override, message):
    text = json.dumps({"conductor_overrides": {"1": override}})
    with pytest.raises(ValueError, match=message):
        load_scenario_config(text)
