"""Transmission expansion planning MILP builder.

Builds the DC-power-flow expansion model as a solver-agnostic Model:
annualized build and reconductoring costs plus scenario-weighted
generation cost, flow balance, thermally derated line capacities,
angle-flow coupling (exact on existing lines, big-M on candidates),
angle-difference limits, and corridor-level mutual exclusion between
reconductoring and new construction.

All flow quantities are per-unit on the network's MVA base; investment
costs stay in dollars, and generation cost is weighted by sigma_hours so
the objective is annual dollars throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    BINARY,
    CONTINUOUS,
    Constraint,
    Model,
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    Variable,
    check_model,
    model_stats,
)
from .mps import export_lp, export_mps, import_mps
from .network import LINE_CANDIDATE, Network, validate
from .scenario import ScenarioParams

__all__ = [
    "VariableMap",
    "build_tep_model",
    "big_m",
    "export_mps",
    "import_mps",
    "export_lp",
    "model_stats",
]


def _angle_name(bus_id: int) -> str:
    return f"th{bus_id}"


def _gen_name(gen_id: int) -> str:
    return f"g{gen_id}"


def _flow_existing_name(line_id: int) -> str:
    return f"p0_{line_id}"


def _flow_candidate_name(line_id: int) -> str:
    return f"p1_{line_id}"


def _build_name(line_id: int) -> str:
    return f"y{line_id}"


def _expand_name(line_id: int) -> str:
    return f"z{line_id}"


@dataclass(frozen=True)
class VariableMap:
    """Lookup from network entities to model variable names."""

    angles: dict[int, str]
    gens: dict[int, str]
    flows_existing: dict[int, str]
    flows_candidate: dict[int, str]
    builds: dict[int, str]
    expands: dict[int, str]

    def angle(self, bus_id: int) -> str:
        return self.angles[bus_id]

    def gen(self, generator_id: int) -> str:
        return self.gens[generator_id]

    def flow_existing(self, line_id: int) -> str:
        return self.flows_existing[line_id]

    def flow_candidate(self, line_id: int) -> str:
        return self.flows_candidate[line_id]

    def build(self, line_id: int) -> str:
        return self.builds[line_id]

    def expand(self, line_id: int) -> str:
        return self.expands[line_id]


def big_m(line, net: Network) -> float:
    """Disjunctive constant for a candidate's angle-flow coupling.

    When the candidate is unbuilt its flow is forced to zero, so the
    coupling residual is exactly -(theta_i - theta_j), which the
    angle-difference limits already confine to [-max_angle, max_angle].
    The network angle bound is therefore valid and the smallest constant
    that works."""
    if line.kind != LINE_CANDIDATE:
        raise ValueError(f"line {line.id} is not a candidate")
    return net.max_angle_rad


def _line_eta(line, net: Network, params: ScenarioParams) -> float:
    # a line spanning two regions is limited by its hotter (lower-eta) end
    buses = net.bus_by_id()
    r_from = buses[line.from_bus].region_id
    r_to = buses[line.to_bus].region_id
    return min(params.eta(r_from), params.eta(r_to))


def _require_regions(net: Network, params: ScenarioParams) -> None:
    for region in net.regions:
        if region.id not in params.by_region:
            raise ValueError(f"scenario parameters missing region {region.id}")


def build_tep_model(
    net: Network,
    params: ScenarioParams,
    sigma_hours: float,
    *,
    big_m_scale: float = 1.0,
) -> tuple[Model, VariableMap]:
    """Assemble the expansion MILP for one realized scenario.

    Capacity expansion adds the same headroom in both flow directions,
    since a reconductored line's thermal rating does not depend on which
    way power flows. big_m_scale inflates the disjunctive constant for
    perturbation experiments and must be >= 1.
    """
    problems = validate(net)
    if problems:
        raise ValueError("network does not validate: " + problems[0])
    _require_regions(net, params)
    if sigma_hours <= 0.0:
        raise ValueError("sigma_hours must be positive")
    if big_m_scale < 1.0:
        raise ValueError("big_m_scale must be >= 1")

    base = net.base_mva
    theta_max = net.max_angle_rad
    ref_bus = min(b.id for b in net.buses)

    variables: list[Variable] = []
    vmap = VariableMap({}, {}, {}, {}, {}, {})

    for bus in sorted(net.buses, key=lambda b: b.id):
        name = _angle_name(bus.id)
        vmap.angles[bus.id] = name
        if bus.id == ref_bus:
            variables.append(Variable(name, CONTINUOUS, 0.0, 0.0))
        else:
            variables.append(Variable(name, CONTINUOUS))
    for gen in sorted(net.generators, key=lambda g: g.id):
        name = _gen_name(gen.id)
        vmap.gens[gen.id] = name
        variables.append(Variable(name, CONTINUOUS, 0.0, gen.capacity_mw / base))
    existing = sorted(net.existing_lines(), key=lambda l: l.id)
    candidates = sorted(net.candidate_lines(), key=lambda l: l.id)
    expandables = sorted(net.expandable_lines(), key=lambda l: l.id)
    for line in existing:
        name = _flow_existing_name(line.id)
        vmap.flows_existing[line.id] = name
        variables.append(Variable(name, CONTINUOUS))
    for line in candidates:
        name = _flow_candidate_name(line.id)
        vmap.flows_candidate[line.id] = name
        variables.append(Variable(name, CONTINUOUS))
    for line in candidates:
        name = _build_name(line.id)
        vmap.builds[line.id] = name
        variables.append(Variable(name, BINARY, 0.0, 1.0))
    for line in expandables:
        name = _expand_name(line.id)
        vmap.expands[line.id] = name
        variables.append(Variable(name, BINARY, 0.0, 1.0))

    constraints: list[Constraint] = []

    # flow balance: generation plus net inflow equals scaled demand
    for bus in sorted(net.buses, key=lambda b: b.id):
        terms: list[tuple[str, float]] = []
        for gen in net.generators_at(bus.id):
            terms.append((vmap.gen(gen.id), 1.0))
        for line in existing:
            if line.to_bus == bus.id:
                terms.append((vmap.flow_existing(line.id), 1.0))
            elif line.from_bus == bus.id:
                terms.append((vmap.flow_existing(line.id), -1.0))
        for line in candidates:
            if line.to_bus == bus.id:
                terms.append((vmap.flow_candidate(line.id), 1.0))
            elif line.from_bus == bus.id:
                terms.append((vmap.flow_candidate(line.id), -1.0))
        gamma = params.gamma(bus.region_id)
        constraints.append(
            Constraint(f"bal{bus.id}", tuple(terms), SENSE_EQ, gamma * bus.demand_mw / base)
        )

    # existing-line capacity, derated, expansion adds headroom when z=1
    for line in existing:
        eta = _line_eta(line, net, params)
        cap0 = eta * line.base_capacity_mw / base
        flow = vmap.flow_existing(line.id)
        if line.expandable:
            cap1 = eta * line.expansion_capacity_mw / base
            z = vmap.expand(line.id)
            constraints.append(
                Constraint(f"exu{line.id}", ((flow, 1.0), (z, -cap1)), SENSE_LE, cap0)
            )
            constraints.append(
                Constraint(f"exl{line.id}", ((flow, 1.0), (z, cap1)), SENSE_GE, -cap0)
            )
        else:
            constraints.append(Constraint(f"exu{line.id}", ((flow, 1.0),), SENSE_LE, cap0))
            constraints.append(Constraint(f"exl{line.id}", ((flow, 1.0),), SENSE_GE, -cap0))

    # candidate capacity: zero until built
    for line in candidates:
        eta = _line_eta(line, net, params)
        cap = eta * line.base_capacity_mw / base
        flow = vmap.flow_candidate(line.id)
        y = vmap.build(line.id)
        constraints.append(Constraint(f"cnu{line.id}", ((flow, 1.0), (y, -cap)), SENSE_LE, 0.0))
        constraints.append(Constraint(f"cnl{line.id}", ((flow, 1.0), (y, cap)), SENSE_GE, 0.0))

    # exact angle-flow coupling on existing lines
    for line in existing:
        constraints.append(
            Constraint(
                f"fe{line.id}",
                (
                    (vmap.flow_existing(line.id), -1.0 / line.susceptance_pu),
                    (vmap.angle(line.from_bus), -1.0),
                    (vmap.angle(line.to_bus), 1.0),
                ),
                SENSE_EQ,
                0.0,
            )
        )

    # big-M coupling on candidates, slack when unbuilt
    for line in candidates:
        m = big_m(line, net) * big_m_scale
        flow = vmap.flow_candidate(line.id)
        y = vmap.build(line.id)
        th_i = vmap.angle(line.from_bus)
        th_j = vmap.angle(line.to_bus)
        coupling = ((flow, -1.0 / line.susceptance_pu), (th_i, -1.0), (th_j, 1.0))
        constraints.append(
            Constraint(f"bmu{line.id}", coupling + ((y, m),), SENSE_LE, m)
        )
        constraints.append(
            Constraint(f"bml{line.id}", coupling + ((y, -m),), SENSE_GE, -m)
        )

    # angle-difference limits once per corridor
    corridors = sorted({line.corridor() for line in net.lines})
    for idx, (lo, hi) in enumerate(corridors):
        pair = ((vmap.angle(lo), 1.0), (vmap.angle(hi), -1.0))
        constraints.append(Constraint(f"adu{idx}", pair, SENSE_LE, theta_max))
        constraints.append(Constraint(f"adl{idx}", pair, SENSE_GE, -theta_max))

    # a corridor is either reconductored or rebuilt, not both
    mx_idx = 0
    for eline in expandables:
        for cline in candidates:
            if eline.corridor() == cline.corridor():
                constraints.append(
                    Constraint(
                        f"mx{mx_idx}",
                        ((vmap.expand(eline.id), 1.0), (vmap.build(cline.id), 1.0)),
                        SENSE_LE,
                        1.0,
                    )
                )
                mx_idx += 1

    objective: list[tuple[str, float]] = []
    for line in candidates:
        objective.append((vmap.build(line.id), line.build_cost))
    for line in expandables:
        objective.append((vmap.expand(line.id), line.expand_cost))
    for gen in sorted(net.generators, key=lambda g: g.id):
        objective.append((vmap.gen(gen.id), sigma_hours * gen.cost_per_mwh * base))

    model = Model(
        name="tep" + "".join(params.code.marks),
        variables=tuple(variables),
        constraints=tuple(constraints),
        objective_terms=tuple(objective),
    )
    check_model(model)
    return model, vmap
