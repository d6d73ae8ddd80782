import math

import numpy as np
import pytest

from tepkit.model import BINARY, SENSE_GE, SENSE_LE
from tepkit.network import (
    LINE_CANDIDATE,
    LINE_EXISTING,
    Bus,
    Generator,
    Line,
    Network,
    Region,
)
from tepkit.instance import builtin_garver
from tepkit.scenario import RegionParams, ScenarioCode, ScenarioParams


@pytest.fixture(scope="session")
def garver():
    return builtin_garver()


def two_bus_net(demand_mw: float = 90.0, cap_mw: float = 120.0) -> Network:
    """Generator at bus 1 feeding demand at bus 2 over one existing line."""
    return Network(
        buses=(Bus(1, "a", 1, 0.0, 0.5), Bus(2, "b", 1, demand_mw, 0.5)),
        regions=(Region(1, "r", 100.0, 2.0, 5.0),),
        generators=(Generator(1, 1, 200.0, 20.0, "natural_gas"),),
        lines=(Line(1, 1, 2, LINE_EXISTING, 5.0, cap_mw, 138.0, 50.0),),
    )


def three_bus_net() -> Network:
    """Cheap remote generation behind candidates, one expandable circuit."""
    return Network(
        buses=(Bus(1, "a", 1, 0.0, 0.2), Bus(2, "b", 1, 150.0, 0.6),
               Bus(3, "c", 2, 30.0, 0.2)),
        regions=(Region(1, "r1", 100.0, 2.0, 5.0),
                 Region(2, "r2", 108.0, 2.0, 5.0)),
        generators=(Generator(1, 1, 120.0, 31.7, "natural_gas"),
                    Generator(2, 3, 300.0, 12.3, "coal")),
        lines=(
            Line(1, 1, 2, LINE_EXISTING, 4.0, 80.0, 138.0, 60.0,
                 expandable=True, expansion_capacity_mw=40.0, expand_cost=9.7e6),
            Line(2, 2, 3, LINE_EXISTING, 5.0, 60.0, 138.0, 40.0),
            Line(3, 2, 3, LINE_CANDIDATE, 5.0, 100.0, 138.0, 40.0,
                 build_cost=21.3e6),
            Line(4, 1, 3, LINE_CANDIDATE, 3.0, 100.0, 138.0, 95.0,
                 build_cost=33.9e6),
        ),
    )


def unit_params(net: Network, eta: float = 1.0, gamma: float = 1.0) -> ScenarioParams:
    """Scenario coefficients with the same eta/gamma in every region."""
    marks = tuple("L" for _ in net.regions)
    return ScenarioParams(
        code=ScenarioCode(marks),
        by_region={r.id: RegionParams(eta=eta, gamma=gamma)
                   for r in net.regions},
    )


def highs_milp(model, **options):
    """scipy's HiGHS on `model`, read from its own rows and columns (not
    from a compile), with `options`; the objective constant is not added."""
    from scipy import optimize
    index = model.variable_index()
    cost = np.zeros(len(index))
    for name, coef in model.objective_terms:
        cost[index[name]] += coef
    a = np.zeros((len(model.constraints), len(index)))
    for i, con in enumerate(model.constraints):
        for name, coef in con.terms:
            a[i, index[name]] += coef
    lo = [-math.inf if c.sense == SENSE_LE else c.rhs for c in model.constraints]
    up = [math.inf if c.sense == SENSE_GE else c.rhs for c in model.constraints]
    return optimize.milp(
        cost, constraints=optimize.LinearConstraint(a, lo, up) if len(a) else None,
        bounds=optimize.Bounds([v.lower for v in model.variables],
                               [v.upper for v in model.variables]),
        integrality=[v.kind == BINARY for v in model.variables], options=options)
