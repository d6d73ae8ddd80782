"""Typed power-network data model, document I/O and validation.

The network document is a JSON object with top-level arrays ``regions``,
``buses``, ``generators``, ``lines`` and scalars ``base_mva``,
``max_angle_rad``.  Field names match the dataclass fields below exactly;
unknown fields are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

FUEL_CLASSES = ("natural_gas", "coal", "petroleum", "hydro", "wind", "solar")

LINE_EXISTING = "existing"
LINE_CANDIDATE = "candidate"


class NetworkError(Exception):
    """Base error for network loading and validation."""


class DocumentError(NetworkError):
    """The document text is malformed or violates the schema."""


class ValidationError(NetworkError):
    """A structurally parsed network violates model invariants."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("network validation failed:\n" + "\n".join(self.violations))


@dataclass(frozen=True)
class ConductorParams:
    """Physical conductor parameters used by the thermal rating model.

    ``resistance_ohm_per_m`` is the AC resistance evaluated at the maximum
    conductor temperature; the radiation term uses absolute temperatures.
    """

    diameter_m: float
    resistance_ohm_per_m: float
    emissivity: float
    absorptivity: float
    max_conductor_temp_c: float
    heat_transfer_coeff: float
    solar_radiation: float


# Repository default: Drake-class ACSR under still-air, clear-sky assumptions.
# Overridable per line in the document and per region in scenario configs.
DRAKE_ACSR = ConductorParams(
    diameter_m=0.0281,
    resistance_ohm_per_m=8.688e-5,
    emissivity=0.8,
    absorptivity=0.8,
    max_conductor_temp_c=75.0,
    heat_transfer_coeff=15.0,
    solar_radiation=1000.0,
)


@dataclass(frozen=True)
class Bus:
    id: int
    name: str
    region_id: int
    demand_mw: float
    population_weight: float = 0.0


@dataclass(frozen=True)
class Region:
    id: int
    name: str
    base_peak_temp_f: float
    projected_increase_low_f: float
    projected_increase_high_f: float


@dataclass(frozen=True)
class Generator:
    id: int
    bus_id: int
    capacity_mw: float
    cost_per_mwh: float
    fuel_class: str


@dataclass(frozen=True)
class Line:
    """One circuit of a corridor.  Parallel circuits are separate records.

    ``kind`` is ``existing`` or ``candidate``.  Only existing lines may be
    expandable (reconductorable); a candidate can be built but never expanded.
    ``base_capacity_mw`` is the thermal rating as-is; ``expansion_capacity_mw``
    is the extra rating unlocked by reconductoring.
    """

    id: int
    from_bus: int
    to_bus: int
    kind: str
    susceptance_pu: float
    base_capacity_mw: float
    voltage_kv: float
    length_km: float
    expandable: bool = False
    expansion_capacity_mw: float = 0.0
    build_cost: float = 0.0
    expand_cost: float = 0.0
    conductor: ConductorParams = DRAKE_ACSR

    def corridor(self) -> tuple[int, int]:
        """Unordered endpoint pair identifying the corridor."""
        a, b = self.from_bus, self.to_bus
        return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Network:
    buses: tuple[Bus, ...]
    regions: tuple[Region, ...]
    generators: tuple[Generator, ...]
    lines: tuple[Line, ...]
    base_mva: float = 100.0
    max_angle_rad: float = 0.6

    def bus_by_id(self) -> dict[int, Bus]:
        return {b.id: b for b in self.buses}

    def region_by_id(self) -> dict[int, Region]:
        return {r.id: r for r in self.regions}

    def line_by_id(self) -> dict[int, Line]:
        return {l.id: l for l in self.lines}

    def generators_at(self, bus_id: int) -> list[Generator]:
        return [g for g in self.generators if g.bus_id == bus_id]

    def existing_lines(self) -> list[Line]:
        return [l for l in self.lines if l.kind == LINE_EXISTING]

    def candidate_lines(self) -> list[Line]:
        return [l for l in self.lines if l.kind == LINE_CANDIDATE]

    def expandable_lines(self) -> list[Line]:
        return [l for l in self.lines if l.kind == LINE_EXISTING and l.expandable]

    def total_demand_mw(self) -> float:
        return sum(b.demand_mw for b in self.buses)


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

def _check_positive(violations: list[str], entity: str, name: str, value: float) -> None:
    if not value > 0:
        violations.append(f"{entity}: {name} must be > 0 (got {value})")


def _validate_conductor(violations: list[str], entity: str, c: ConductorParams) -> None:
    _check_positive(violations, entity, "conductor.diameter_m", c.diameter_m)
    _check_positive(violations, entity, "conductor.resistance_ohm_per_m", c.resistance_ohm_per_m)
    if not 0 < c.emissivity <= 1:
        violations.append(f"{entity}: conductor.emissivity must be in (0, 1] (got {c.emissivity})")
    if not 0 < c.absorptivity <= 1:
        violations.append(f"{entity}: conductor.absorptivity must be in (0, 1] (got {c.absorptivity})")
    _check_positive(violations, entity, "conductor.max_conductor_temp_c", c.max_conductor_temp_c)
    _check_positive(violations, entity, "conductor.heat_transfer_coeff", c.heat_transfer_coeff)
    if c.solar_radiation < 0:
        violations.append(f"{entity}: conductor.solar_radiation must be >= 0 (got {c.solar_radiation})")


def validate(net: Network) -> list[str]:
    """Return the list of invariant violations; empty iff the network is valid.

    Violations are plain strings naming the offending entity and the rule.
    """
    v: list[str] = []

    if not net.buses:
        v.append("network: at least one bus is required")
    if not net.generators:
        v.append("network: at least one generator is required")
    _check_positive(v, "network", "base_mva", net.base_mva)
    _check_positive(v, "network", "max_angle_rad", net.max_angle_rad)

    for coll, label in ((net.buses, "bus"), (net.regions, "region"),
                        (net.generators, "generator"), (net.lines, "line")):
        seen: set[int] = set()
        for item in coll:
            if item.id in seen:
                v.append(f"{label} {item.id}: duplicate id")
            seen.add(item.id)

    region_ids = {r.id for r in net.regions}
    bus_ids = {b.id for b in net.buses}

    for r in net.regions:
        if r.projected_increase_low_f < 0:
            v.append(f"region {r.id}: projected_increase_low_f must be >= 0")
        if r.projected_increase_high_f < r.projected_increase_low_f:
            v.append(f"region {r.id}: projected_increase_high_f must be >= projected_increase_low_f")

    for b in net.buses:
        if b.demand_mw < 0:
            v.append(f"bus {b.id}: demand_mw must be >= 0 (got {b.demand_mw})")
        if b.population_weight < 0:
            v.append(f"bus {b.id}: population_weight must be >= 0")
        if b.region_id not in region_ids:
            v.append(f"bus {b.id}: region_id {b.region_id} is not a declared region")

    for g in net.generators:
        if g.capacity_mw < 0:
            v.append(f"generator {g.id}: capacity_mw must be >= 0")
        if g.cost_per_mwh < 0:
            v.append(f"generator {g.id}: cost_per_mwh must be >= 0")
        if g.fuel_class not in FUEL_CLASSES:
            v.append(f"generator {g.id}: unknown fuel_class {g.fuel_class!r}")
        if g.bus_id not in bus_ids:
            v.append(f"generator {g.id}: bus_id {g.bus_id} is not a declared bus")

    for l in net.lines:
        ent = f"line {l.id}"
        if l.from_bus == l.to_bus:
            v.append(f"{ent}: from_bus and to_bus must differ")
        for end, bid in (("from_bus", l.from_bus), ("to_bus", l.to_bus)):
            if bid not in bus_ids:
                v.append(f"{ent}: {end} {bid} is not a declared bus")
        if l.kind not in (LINE_EXISTING, LINE_CANDIDATE):
            v.append(f"{ent}: kind must be 'existing' or 'candidate' (got {l.kind!r})")
        if l.kind == LINE_CANDIDATE and l.expandable:
            v.append(f"{ent}: candidate lines cannot be expandable; only existing lines can have their capacity expanded")
        if l.expandable:
            if not l.expansion_capacity_mw > 0:
                v.append(f"{ent}: expandable line needs expansion_capacity_mw > 0")
            if not l.expand_cost > 0:
                v.append(f"{ent}: expandable line needs expand_cost > 0")
        elif l.expansion_capacity_mw != 0:
            v.append(f"{ent}: expansion_capacity_mw must be 0 on a non-expandable line")
        _check_positive(v, ent, "susceptance_pu", l.susceptance_pu)
        _check_positive(v, ent, "base_capacity_mw", l.base_capacity_mw)
        _check_positive(v, ent, "voltage_kv", l.voltage_kv)
        _check_positive(v, ent, "length_km", l.length_km)
        if l.build_cost < 0:
            v.append(f"{ent}: build_cost must be >= 0")
        if l.expand_cost < 0:
            v.append(f"{ent}: expand_cost must be >= 0")
        _validate_conductor(v, ent, l.conductor)

    v.extend(_connectivity_violations(net, bus_ids))
    return v


def _connectivity_violations(net: Network, bus_ids: set[int]) -> list[str]:
    """Demand may live in only one existing-line component; any bus outside
    that component must carry zero demand (it may still host generation,
    e.g. a plant waiting for a candidate corridor)."""
    if not net.buses:
        return []
    parent = {b: b for b in bus_ids}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for l in net.lines:
        if l.kind == LINE_EXISTING and l.from_bus in parent and l.to_bus in parent:
            ra, rb = find(l.from_bus), find(l.to_bus)
            if ra != rb:
                parent[ra] = rb

    demand_roots = {find(b.id) for b in net.buses if b.demand_mw > 0}
    if len(demand_roots) > 1:
        return ["network: demand is split across buses not connected by existing lines; "
                "every disconnected bus must have zero demand"]
    return []


# --------------------------------------------------------------------------
# Document I/O
# --------------------------------------------------------------------------

_SCALAR_DEFAULTS = {"base_mva": 100.0, "max_angle_rad": 0.6}


def _coerce_obj(cls, obj: dict, entity: str, defaults: dict | None = None):
    if not isinstance(obj, dict):
        raise DocumentError(f"{entity}: expected an object, got {type(obj).__name__}")
    defaults = defaults or {}
    spec_fields = {f.name: f for f in fields(cls)}
    unknown = set(obj) - set(spec_fields)
    if unknown:
        raise DocumentError(f"{entity}: unknown field(s) {sorted(unknown)}")
    kwargs = {}
    for name, f in spec_fields.items():
        if name in obj:
            kwargs[name] = obj[name]
        elif name in defaults:
            kwargs[name] = defaults[name]
        else:
            raise DocumentError(f"{entity}: missing required field {name!r}")
    return cls(**kwargs)


def _check_number(entity: str, name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"{entity}: field {name!r} must be a number")
    return float(value)


def _check_int(entity: str, name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{entity}: field {name!r} must be an integer")
    return value


def parse_document(text: str) -> Network:
    """Parse a network document without validating model invariants."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed document: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")

    expected = {"regions", "buses", "generators", "lines", "base_mva", "max_angle_rad"}
    unknown = set(doc) - expected
    if unknown:
        raise DocumentError(f"document: unknown top-level field(s) {sorted(unknown)}")
    for key in ("regions", "buses", "generators", "lines"):
        if key not in doc or not isinstance(doc[key], list):
            raise DocumentError(f"document: {key!r} must be present and an array")

    regions = []
    for i, obj in enumerate(doc["regions"]):
        r = _coerce_obj(Region, obj, f"regions[{i}]")
        regions.append(Region(
            id=_check_int("region", "id", r.id),
            name=str(r.name),
            base_peak_temp_f=_check_number("region", "base_peak_temp_f", r.base_peak_temp_f),
            projected_increase_low_f=_check_number("region", "projected_increase_low_f", r.projected_increase_low_f),
            projected_increase_high_f=_check_number("region", "projected_increase_high_f", r.projected_increase_high_f),
        ))

    buses = []
    for i, obj in enumerate(doc["buses"]):
        b = _coerce_obj(Bus, obj, f"buses[{i}]", {"population_weight": 0.0})
        buses.append(Bus(
            id=_check_int("bus", "id", b.id),
            name=str(b.name),
            region_id=_check_int("bus", "region_id", b.region_id),
            demand_mw=_check_number("bus", "demand_mw", b.demand_mw),
            population_weight=_check_number("bus", "population_weight", b.population_weight),
        ))

    gens = []
    for i, obj in enumerate(doc["generators"]):
        g = _coerce_obj(Generator, obj, f"generators[{i}]")
        gens.append(Generator(
            id=_check_int("generator", "id", g.id),
            bus_id=_check_int("generator", "bus_id", g.bus_id),
            capacity_mw=_check_number("generator", "capacity_mw", g.capacity_mw),
            cost_per_mwh=_check_number("generator", "cost_per_mwh", g.cost_per_mwh),
            fuel_class=str(g.fuel_class),
        ))

    lines = []
    line_defaults = {
        "expandable": False, "expansion_capacity_mw": 0.0,
        "build_cost": 0.0, "expand_cost": 0.0, "conductor": None,
    }
    for i, obj in enumerate(doc["lines"]):
        l = _coerce_obj(Line, obj, f"lines[{i}]", line_defaults)
        if l.conductor is None:
            cond = DRAKE_ACSR
        else:
            cond = _coerce_obj(ConductorParams, l.conductor, f"lines[{i}].conductor")
            cond = ConductorParams(*(
                _check_number("conductor", f.name, getattr(cond, f.name))
                for f in fields(ConductorParams)))
        if not isinstance(l.expandable, bool):
            raise DocumentError(f"lines[{i}]: field 'expandable' must be a boolean")
        lines.append(Line(
            id=_check_int("line", "id", l.id),
            from_bus=_check_int("line", "from_bus", l.from_bus),
            to_bus=_check_int("line", "to_bus", l.to_bus),
            kind=str(l.kind),
            susceptance_pu=_check_number("line", "susceptance_pu", l.susceptance_pu),
            base_capacity_mw=_check_number("line", "base_capacity_mw", l.base_capacity_mw),
            voltage_kv=_check_number("line", "voltage_kv", l.voltage_kv),
            length_km=_check_number("line", "length_km", l.length_km),
            expandable=l.expandable,
            expansion_capacity_mw=_check_number("line", "expansion_capacity_mw", l.expansion_capacity_mw),
            build_cost=_check_number("line", "build_cost", l.build_cost),
            expand_cost=_check_number("line", "expand_cost", l.expand_cost),
            conductor=cond,
        ))

    return Network(
        buses=tuple(buses),
        regions=tuple(regions),
        generators=tuple(gens),
        lines=tuple(lines),
        base_mva=_check_number("network", "base_mva", doc.get("base_mva", _SCALAR_DEFAULTS["base_mva"])),
        max_angle_rad=_check_number("network", "max_angle_rad", doc.get("max_angle_rad", _SCALAR_DEFAULTS["max_angle_rad"])),
    )


def load_network(text: str) -> Network:
    """Parse and validate a network document.

    Raises DocumentError on malformed input and ValidationError (carrying the
    violation list) when invariants fail.
    """
    net = parse_document(text)
    violations = validate(net)
    if violations:
        raise ValidationError(violations)
    return net


def to_document(net: Network) -> dict:
    def line_obj(l: Line) -> dict:
        obj = {
            "id": l.id, "from_bus": l.from_bus, "to_bus": l.to_bus, "kind": l.kind,
            "susceptance_pu": l.susceptance_pu, "base_capacity_mw": l.base_capacity_mw,
            "voltage_kv": l.voltage_kv, "length_km": l.length_km,
            "expandable": l.expandable, "expansion_capacity_mw": l.expansion_capacity_mw,
            "build_cost": l.build_cost, "expand_cost": l.expand_cost,
        }
        if l.conductor != DRAKE_ACSR:
            obj["conductor"] = {f.name: getattr(l.conductor, f.name) for f in fields(ConductorParams)}
        return obj

    return {
        "regions": [vars(r).copy() for r in net.regions],
        "buses": [vars(b).copy() for b in net.buses],
        "generators": [vars(g).copy() for g in net.generators],
        "lines": [line_obj(l) for l in net.lines],
        "base_mva": net.base_mva,
        "max_angle_rad": net.max_angle_rad,
    }


def serialize(net: Network) -> str:
    """Serialize to the document format; deterministic byte-for-byte."""
    return json.dumps(to_document(net), indent=2, sort_keys=True) + "\n"
