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

A scenario sets only numbers: gamma in the flow-balance right-hand sides
and eta in the capacity rows. A TepSkeleton therefore validates the
network and builds everything else once: the variables, the objective
and the fixed rows. Each scenario's model adds its own balance and
capacity rows and shares the rest by identity; a row whose gamma or eta
is the previous scenario's is that scenario's row object. A sweep's
compile can so re-read only the rows a scenario changes
(PreparedLp.derive). build_tep_model is a skeleton plus one scenario.

VariableMap names each entity's variable by a fixed rule (th{bus},
g{gen}, p0_{line}, p1_{line}, y{line}, z{line}), and a skeleton reads a
solution's plan, the lines it builds and expands, back through it.
"""

from __future__ import annotations

import math
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
)
from .network import LINE_CANDIDATE, Line, Network, validate
from .scenario import ScenarioParams

__all__ = [
    "TepSkeleton",
    "VariableMap",
    "build_tep_model",
]


@dataclass(frozen=True)
class VariableMap:
    """The model variable of each network entity, named by its rule: bus
    angles th{bus}, generator outputs g{gen}, flows p0_{line} on existing
    and p1_{line} on candidate lines, builds y{line} and expansions
    z{line}. It names any id; the model declares only its network's."""

    def angle(self, bus_id: int) -> str:
        return f"th{bus_id}"

    def gen(self, generator_id: int) -> str:
        return f"g{generator_id}"

    def flow_existing(self, line_id: int) -> str:
        return f"p0_{line_id}"

    def flow_candidate(self, line_id: int) -> str:
        return f"p1_{line_id}"

    def build(self, line_id: int) -> str:
        return f"y{line_id}"

    def expand(self, line_id: int) -> str:
        return f"z{line_id}"


def _line_eta(regions: tuple[int, int], params: ScenarioParams) -> float:
    # a line spanning two regions is limited by its hotter (lower-eta) end
    r_from, r_to = regions
    return min(params.eta(r_from), params.eta(r_to))


def _require_regions(net: Network, params: ScenarioParams) -> None:
    for region in net.regions:
        if region.id not in params.by_region:
            raise ValueError(f"scenario parameters missing region {region.id}")


class TepSkeleton:
    """The scenario-independent part of one network's expansion MILP.

    Built once, it holds the validated network, the variables and their
    VariableMap, the objective terms, and the rows no scenario changes:
    angle-flow coupling (fe*, bm*), angle-difference limits (ad*) and
    corridor exclusion (mx*). `model(params)` adds the rows a scenario's
    warming sets (flow balance bal* through gamma, line capacities ex* and
    cn* through eta) and shares everything else by identity, so that
    `PreparedLp.derive` recompiles only those rows. `plan(values)` reads
    the lines a solution builds and expands.

    Capacity expansion adds the same headroom in both flow directions,
    since a reconductored line's thermal rating does not depend on which
    way power flows. big_m_scale inflates the disjunctive constant for
    perturbation experiments and must be >= 1.
    """

    def __init__(self, net: Network, sigma_hours: float, *, big_m_scale: float = 1.0):
        problems = validate(net)
        if problems:
            raise ValueError("network does not validate: " + problems[0])
        if not (math.isfinite(sigma_hours) and sigma_hours > 0.0):
            raise ValueError(f"sigma_hours must be positive and finite, got {sigma_hours!r}")
        if big_m_scale < 1.0:
            raise ValueError("big_m_scale must be >= 1")
        self.net = net
        self.sigma_hours = sigma_hours

        base = net.base_mva
        theta_max = net.max_angle_rad
        buses = net.bus_by_id()
        ref_bus = min(buses)

        vmap = self.vmap = VariableMap()
        gens = sorted(net.generators, key=lambda g: g.id)
        existing = sorted(net.existing_lines(), key=lambda l: l.id)
        candidates = sorted(net.candidate_lines(), key=lambda l: l.id)
        expandables = sorted(net.expandable_lines(), key=lambda l: l.id)
        # the reference bus's angle is fixed at zero
        variables = [Variable(vmap.angle(bus_id), CONTINUOUS, 0.0, 0.0) if bus_id == ref_bus
                     else Variable(vmap.angle(bus_id), CONTINUOUS) for bus_id in sorted(buses)]
        variables += [Variable(vmap.gen(g.id), CONTINUOUS, 0.0, g.capacity_mw / base) for g in gens]
        variables += [Variable(vmap.flow_existing(l.id), CONTINUOUS) for l in existing]
        variables += [Variable(vmap.flow_candidate(l.id), CONTINUOUS) for l in candidates]
        variables += [Variable(vmap.build(l.id), BINARY, 0.0, 1.0) for l in candidates]
        variables += [Variable(vmap.expand(l.id), BINARY, 0.0, 1.0) for l in expandables]

        # flow balance: generation plus net inflow equals scaled demand; each
        # bus lists its generators, then its existing and its candidate lines
        # in id order
        balance: dict[int, list[tuple[str, float]]] = {bus_id: [] for bus_id in buses}
        for gen in net.generators:
            balance[gen.bus_id].append((vmap.gen(gen.id), 1.0))
        for lines, flow in ((existing, vmap.flow_existing), (candidates, vmap.flow_candidate)):
            for line in lines:
                balance[line.to_bus].append((flow(line.id), 1.0))
                if line.from_bus != line.to_bus:
                    balance[line.from_bus].append((flow(line.id), -1.0))
        self._balance = tuple(
            (bus, tuple(balance[bus.id])) for bus in sorted(net.buses, key=lambda b: b.id))
        # each line, existing then candidate, with the regions of its two ends
        self._lines = tuple(
            (line, (buses[line.from_bus].region_id, buses[line.to_bus].region_id))
            for line in existing + candidates)
        # the latest rows of each bus and line, with the number they took
        self._latest: dict[int, tuple[tuple[float, float], tuple[Constraint, ...]]] = {}

        fixed: list[Constraint] = []

        # exact angle-flow coupling on existing lines
        for line in existing:
            fixed.append(
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

        # big-M coupling on candidates, slack when unbuilt. An unbuilt
        # candidate's flow is forced to zero, so its coupling residual is
        # exactly -(theta_i - theta_j), which the angle-difference limits
        # confine to [-theta_max, theta_max]: theta_max is a valid M, and the
        # smallest that works
        m = theta_max * big_m_scale
        for line in candidates:
            flow = vmap.flow_candidate(line.id)
            y = vmap.build(line.id)
            th_i = vmap.angle(line.from_bus)
            th_j = vmap.angle(line.to_bus)
            coupling = ((flow, -1.0 / line.susceptance_pu), (th_i, -1.0), (th_j, 1.0))
            fixed.append(Constraint(f"bmu{line.id}", coupling + ((y, m),), SENSE_LE, m))
            fixed.append(Constraint(f"bml{line.id}", coupling + ((y, -m),), SENSE_GE, -m))

        # angle-difference limits once per corridor
        corridors = sorted({line.corridor() for line in net.lines})
        for idx, (lo, hi) in enumerate(corridors):
            pair = ((vmap.angle(lo), 1.0), (vmap.angle(hi), -1.0))
            fixed.append(Constraint(f"adu{idx}", pair, SENSE_LE, theta_max))
            fixed.append(Constraint(f"adl{idx}", pair, SENSE_GE, -theta_max))

        # a corridor is either reconductored or rebuilt, not both
        mx_idx = 0
        for eline in expandables:
            for cline in candidates:
                if eline.corridor() == cline.corridor():
                    fixed.append(
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
        for gen in gens:
            objective.append((vmap.gen(gen.id), sigma_hours * gen.cost_per_mwh * base))

        self.variables = tuple(variables)
        # rows in model order after the scenario's bal*, ex* and cn* rows
        self.fixed_rows = tuple(fixed)
        self.objective_terms = tuple(objective)

    def model(self, params: ScenarioParams) -> Model:
        """The MILP of one realized scenario: its balance and capacity rows,
        then the skeleton's fixed rows, variables and objective."""
        _require_regions(self.net, params)
        rows: list[Constraint] = []
        for k, (bus, terms) in enumerate(self._balance):
            rows += self._rows(k, params.gamma(bus.region_id), self._balance_row, bus, terms)
        for k, (line, regions) in enumerate(self._lines, len(self._balance)):
            rows += self._rows(k, _line_eta(regions, params), self._capacity_rows, line)
        return Model(
            name="tep" + "".join(params.code.marks),
            variables=self.variables,
            constraints=tuple(rows) + self.fixed_rows,
            objective_terms=self.objective_terms,
        )

    def plan(self, values: dict[str, float]) -> tuple[list[Line], list[Line]]:
        """The candidate lines a solution's values build and the existing
        lines they expand, each in network order."""
        built = [l for l in self.net.candidate_lines() if values[self.vmap.build(l.id)] >= 0.5]
        expanded = [l for l in self.net.expandable_lines()
                    if values[self.vmap.expand(l.id)] >= 0.5]
        return built, expanded

    def _rows(self, k: int, number: float, make, *args) -> tuple[Constraint, ...]:
        """The rows of the k-th bus or line made with `number`, its gamma or
        eta: `make(*args, number)`, or the previous scenario's row objects
        when it had the same number, so that a sweep's compile re-reads
        only the rows a scenario changes."""
        key = (number, math.copysign(1.0, number))  # 0.0 == -0.0, their rows differ
        latest = self._latest.get(k)
        if latest is None or latest[0] != key:
            latest = self._latest[k] = (key, make(*args, number))
        return latest[1]

    def _balance_row(self, bus, terms, gamma: float) -> tuple[Constraint]:
        # flow balance at demand scaled by gamma
        return (Constraint(f"bal{bus.id}", terms, SENSE_EQ,
                           gamma * bus.demand_mw / self.net.base_mva),)

    def _capacity_rows(self, line, eta: float) -> tuple[Constraint, Constraint]:
        base = self.net.base_mva
        vmap = self.vmap
        cap0 = eta * line.base_capacity_mw / base
        if line.kind == LINE_CANDIDATE:
            # candidate capacity: zero until built
            flow, y = vmap.flow_candidate(line.id), vmap.build(line.id)
            return (Constraint(f"cnu{line.id}", ((flow, 1.0), (y, -cap0)), SENSE_LE, 0.0),
                    Constraint(f"cnl{line.id}", ((flow, 1.0), (y, cap0)), SENSE_GE, 0.0))
        # existing-line capacity, derated, expansion adds headroom when z=1
        flow = vmap.flow_existing(line.id)
        if line.expandable:
            cap1 = eta * line.expansion_capacity_mw / base
            z = vmap.expand(line.id)
            upper, lower = ((flow, 1.0), (z, -cap1)), ((flow, 1.0), (z, cap1))
        else:
            upper = lower = ((flow, 1.0),)
        return (Constraint(f"exu{line.id}", upper, SENSE_LE, cap0),
                Constraint(f"exl{line.id}", lower, SENSE_GE, -cap0))


def build_tep_model(
    net: Network,
    params: ScenarioParams,
    sigma_hours: float,
    *,
    big_m_scale: float = 1.0,
) -> tuple[Model, VariableMap]:
    """Assemble the expansion MILP for one realized scenario: a TepSkeleton
    of the network and that scenario's rows. A sweep builds the skeleton
    once instead."""
    skeleton = TepSkeleton(net, sigma_hours, big_m_scale=big_m_scale)
    return skeleton.model(params), skeleton.vmap
