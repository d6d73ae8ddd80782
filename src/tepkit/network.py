"""Typed power-network data model, document I/O and validation.

The network document is a JSON object with top-level arrays ``regions``,
``buses``, ``generators``, ``lines`` and scalars ``base_mva``,
``max_angle_rad``.  Field names match the dataclass fields below exactly;
unknown fields are rejected so typos fail loudly.  The document carries no
conductor: derating uses one representative conductor per region, the
``DRAKE_ACSR`` default or an override read by ``conductor`` from a scenario
config.
"""

import functools
import json
import math
import typing
from dataclasses import MISSING, dataclass, fields

FUEL_CLASSES = ("natural_gas", "coal", "petroleum", "hydro", "wind", "solar")

LINE_EXISTING = "existing"
LINE_CANDIDATE = "candidate"

ABSOLUTE_ZERO_F = -459.67


class NetworkError(Exception):
    """Base error for network loading and validation."""


class DocumentError(NetworkError, ValueError):
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
# Overridable per region in scenario configs.
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

    def generators_at(self, bus_id: int) -> list[Generator]:
        return [g for g in self.generators if g.bus_id == bus_id]

    def existing_lines(self) -> list[Line]:
        return [l for l in self.lines if l.kind == LINE_EXISTING]

    def candidate_lines(self) -> list[Line]:
        return [l for l in self.lines if l.kind == LINE_CANDIDATE]

    def expandable_lines(self) -> list[Line]:
        return [l for l in self.lines if l.kind == LINE_EXISTING and l.expandable]


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------

def _check_positive(violations: list[str], entity: str, name: str, value: float) -> None:
    if not value > 0:
        violations.append(f"{entity}: {name} must be > 0 (got {value})")


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
        if not r.base_peak_temp_f > ABSOLUTE_ZERO_F:
            v.append(f"region {r.id}: base_peak_temp_f must be above absolute zero "
                     f"({ABSOLUTE_ZERO_F} F) (got {r.base_peak_temp_f})")
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

# Field types resolved from their annotations, once per record class.
_hints = functools.cache(typing.get_type_hints)


def decode(cls, obj, entity: str, base=None):
    """Build a ``cls`` record from a JSON object, typed by its dataclass fields.

    Unknown fields are rejected.  An omitted field takes its value from
    ``base`` when one is given, else the field's default; with neither it is
    an error.  ``int``/``float`` fields need JSON numbers (never booleans or
    strings), ``bool`` fields need booleans, ``str`` fields are coerced with
    ``str()``, and a ``tuple[Record, ...]`` field is an array of record
    objects.  ``entity`` names the object in error messages.
    """
    if not isinstance(obj, dict):
        raise DocumentError(f"{entity} must be an object, got {type(obj).__name__}")
    spec = fields(cls)
    unknown = set(obj) - {f.name for f in spec}
    if unknown:
        raise DocumentError(f"unknown {entity} field(s) {sorted(unknown)}")
    hints = _hints(cls)
    kwargs = {}
    for f in spec:
        if f.name in obj:
            kwargs[f.name] = _decode_value(hints[f.name], obj[f.name], entity, f.name)
        elif base is not None:
            kwargs[f.name] = getattr(base, f.name)
        elif f.default is MISSING:
            raise DocumentError(f"{entity} is missing required field {f.name!r}")
    return cls(**kwargs)


def _decode_value(tp, value, entity: str, name: str):
    if tp is str:
        return str(value)
    if tp is bool:
        if not isinstance(value, bool):
            raise DocumentError(f"{entity} field {name!r} must be a boolean")
        return value
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise DocumentError(f"{entity} field {name!r} must be an integer")
        return value
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DocumentError(f"{entity} field {name!r} must be a number")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):  # json.loads also reads NaN and Infinity
            raise DocumentError(f"{entity} field {name!r} must be a finite number")
        return number
    item = typing.get_args(tp)[0]
    if not isinstance(value, list):
        raise DocumentError(f"{entity} field {name!r} must be an array")
    return tuple(decode(item, obj, f"{name}[{i}]") for i, obj in enumerate(value))


def conductor(obj, entity: str) -> ConductorParams:
    """A conductor object as validated ``ConductorParams``; omitted fields
    keep ``DRAKE_ACSR``'s values.  Raises DocumentError on any violation."""
    c = decode(ConductorParams, obj, entity, DRAKE_ACSR)
    v: list[str] = []
    _check_positive(v, entity, "conductor.diameter_m", c.diameter_m)
    _check_positive(v, entity, "conductor.resistance_ohm_per_m", c.resistance_ohm_per_m)
    if not 0 < c.emissivity <= 1:
        v.append(f"{entity}: conductor.emissivity must be in (0, 1] (got {c.emissivity})")
    if not 0 < c.absorptivity <= 1:
        v.append(f"{entity}: conductor.absorptivity must be in (0, 1] (got {c.absorptivity})")
    _check_positive(v, entity, "conductor.max_conductor_temp_c", c.max_conductor_temp_c)
    _check_positive(v, entity, "conductor.heat_transfer_coeff", c.heat_transfer_coeff)
    if c.solar_radiation < 0:
        v.append(f"{entity}: conductor.solar_radiation must be >= 0 (got {c.solar_radiation})")
    if v:
        raise DocumentError("; ".join(v))
    return c


def parse_document(text: str) -> Network:
    """Parse a network document without validating model invariants."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"malformed document: {exc}") from exc
    return decode(Network, doc, "top-level")


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
    return {
        "regions": [vars(r).copy() for r in net.regions],
        "buses": [vars(b).copy() for b in net.buses],
        "generators": [vars(g).copy() for g in net.generators],
        "lines": [vars(l).copy() for l in net.lines],
        "base_mva": net.base_mva,
        "max_angle_rad": net.max_angle_rad,
    }
