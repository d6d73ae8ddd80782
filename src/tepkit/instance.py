"""Construction of study networks.

Three ways to get a network: the bundled six-bus planning benchmark
(``builtin_garver``), a seeded synthetic generator that mimics a state-scale
grid at desk scale (``synthesize_grid``), and CSV ingestion for real
substation/plant inventories (``csv_to_document``).  A shared helper
disaggregates load by population weight.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .network import (
    FUEL_CLASSES,
    LINE_CANDIDATE,
    LINE_EXISTING,
    Bus,
    DocumentError,
    Generator,
    Line,
    Network,
    Region,
    to_document,
    validate,
)

# Load quanta for largest-remainder rounding: 1e-9 MW (one milliwatt).
_LOAD_QUANTUM_MW = 1e-9

# Synthesis knobs.  Headroom: generator capacity must cover total demand with
# this margin.  Chords: extra backbone circuits beyond the spanning tree,
# ceil(0.3 * n_buses) of them.  Reactance: flat per-km series value giving
# susceptance = 1 / (4e-4 * length_km) for synthesized and ingested lines.
HEADROOM = 1.2
_CHORD_FRACTION = 0.3
_REACTANCE_PER_KM = 4e-4
# Synthesized lines: the share of existing lines that can be reconductored,
# and per voltage class (kV) the overnight cost per km of building and of
# reconductoring, sample rates loosely in line with planning-level studies.
# A line costs rate * length_km * _ANNUALIZATION, a yearly charge comparable
# with yearly generation cost.
_EXPANDABLE_SHARE = 0.35
_RATES_PER_KM = {138.0: (1.3e6, 0.45e6), 230.0: (1.9e6, 0.60e6)}
_VOLTAGE_CLASSES = tuple(_RATES_PER_KM)
_ANNUALIZATION = 0.08

_AREA_KM = 400.0


# --------------------------------------------------------------------------
# Load disaggregation
# --------------------------------------------------------------------------

def disaggregate_load(total_mw: float, weights) -> list[float]:
    """Split ``total_mw`` across buses proportionally to ``weights``.

    Largest-remainder rounding at 1e-9 MW granularity, so the results sum to
    the quantized total exactly.  Remainder ties go to the lowest index.
    Arithmetic is exact (rationals) so the split is fully deterministic.
    """
    if not 0 < total_mw < math.inf:  # written so that NaN fails it
        raise ValueError(f"total_mw must be finite and > 0, got {total_mw!r}")
    w = [float(x) for x in weights]
    if any(x < 0 for x in w):
        raise ValueError("weights must be nonnegative")
    if not all(map(math.isfinite, w)):
        raise ValueError("weights must be finite")
    w = [Fraction(x) for x in w]
    total_w = sum(w)
    if total_w <= 0:
        raise ValueError("weights must not all be zero")

    units_total = round(Fraction(float(total_mw)) / Fraction(_LOAD_QUANTUM_MW))
    shares = [units_total * x / total_w for x in w]
    floors = [math.floor(s) for s in shares]
    short = units_total - sum(floors)
    by_remainder = sorted(
        range(len(w)), key=lambda i: (-(shares[i] - floors[i]), i)
    )
    for i in by_remainder[:short]:
        floors[i] += 1
    return [n * _LOAD_QUANTUM_MW for n in floors]


# --------------------------------------------------------------------------
# Bundled benchmark
# --------------------------------------------------------------------------

def builtin_garver() -> Network:
    """The classical Garver six-bus planning system.

    Demands (80/240/40/160/240/0 MW), generator limits (150/360/600 MW at
    buses 1/3/6) and corridor reactances follow the standard published
    transcription of the benchmark.  Bus 6 starts disconnected: its cheap
    generation is reachable only through candidate corridors, which is what
    makes the instance interesting.

    Departures from the classical economic data, made deliberately:

    * Candidate build costs are spread apart (parallel circuits on a corridor
      differ by a few percent, as real routing variants would) so that every
      investment plan has a distinct total cost.  The benchmark's identical
      per-corridor prices create cost ties between plans, which make optimal
      plans non-unique and results incomparable across solvers.
    * Three existing circuits (1-5, 2-3, 3-5) are marked reconductorable with
      distinct upgrade costs, exercising capacity-expansion decisions.
    * Buses are split into two climate regions (1-3 north, 4-6 south) with
      peak-temperature data so thermal derating has something to act on.
    """
    regions = (
        Region(1, "north", 105.1, 2.6, 5.1),
        Region(2, "south", 110.3, 2.6, 5.1),
    )
    buses = (
        Bus(1, "bus1", 1, 80.0, 8.0),
        Bus(2, "bus2", 1, 240.0, 24.0),
        Bus(3, "bus3", 1, 40.0, 4.0),
        Bus(4, "bus4", 2, 160.0, 16.0),
        Bus(5, "bus5", 2, 240.0, 24.0),
        Bus(6, "bus6", 2, 0.0, 0.0),
    )
    generators = (
        Generator(1, 1, 150.0, 24.7, "natural_gas"),
        Generator(2, 3, 360.0, 17.9, "coal"),
        Generator(3, 6, 600.0, 11.6, "hydro"),
    )
    lines = (
        # existing circuits: susceptance is 1/x for the classical reactances
        Line(1, 1, 2, LINE_EXISTING, 1 / 0.40, 100.0, 138.0, 120.0),
        Line(2, 1, 4, LINE_EXISTING, 1 / 0.60, 80.0, 138.0, 180.0),
        Line(3, 1, 5, LINE_EXISTING, 1 / 0.20, 100.0, 138.0, 60.0,
             expandable=True, expansion_capacity_mw=100.0, expand_cost=10.3e6),
        Line(4, 2, 3, LINE_EXISTING, 1 / 0.20, 100.0, 138.0, 60.0,
             expandable=True, expansion_capacity_mw=100.0, expand_cost=9.1e6),
        Line(5, 2, 4, LINE_EXISTING, 1 / 0.40, 100.0, 138.0, 120.0),
        Line(6, 3, 5, LINE_EXISTING, 1 / 0.20, 100.0, 138.0, 60.0,
             expandable=True, expansion_capacity_mw=100.0, expand_cost=11.7e6),
        # candidate circuits; up to three parallel on 4-6, two on 3-5 and 2-6
        Line(7, 4, 6, LINE_CANDIDATE, 1 / 0.30, 100.0, 138.0, 90.0,
             build_cost=30.2e6),
        Line(8, 4, 6, LINE_CANDIDATE, 1 / 0.30, 100.0, 138.0, 90.0,
             build_cost=31.1e6),
        Line(9, 4, 6, LINE_CANDIDATE, 1 / 0.30, 100.0, 138.0, 90.0,
             build_cost=32.3e6),
        Line(10, 3, 5, LINE_CANDIDATE, 1 / 0.20, 100.0, 138.0, 60.0,
             build_cost=20.4e6),
        Line(11, 3, 5, LINE_CANDIDATE, 1 / 0.20, 100.0, 138.0, 60.0,
             build_cost=21.3e6),
        Line(12, 2, 6, LINE_CANDIDATE, 1 / 0.30, 100.0, 138.0, 90.0,
             build_cost=29.7e6),
        Line(13, 2, 6, LINE_CANDIDATE, 1 / 0.30, 100.0, 138.0, 90.0,
             build_cost=30.8e6),
        Line(14, 1, 6, LINE_CANDIDATE, 1 / 0.68, 100.0, 138.0, 204.0,
             build_cost=67.9e6),
    )
    return Network(buses=buses, regions=regions, generators=generators,
                   lines=lines)


# --------------------------------------------------------------------------
# Seeded synthesis
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CandidateRules:
    """Thresholds steering where candidate corridors are proposed.

    A candidate connects every high-generation bus (total plant capacity at
    the bus >= ``high_gen_mw``) to every high-demand bus (demand >=
    ``high_demand_mw``) that it is not already adjacent to.  Buses whose
    backbone degree is <= ``degree_max`` also get one candidate to their
    nearest non-adjacent bus.
    """

    high_gen_mw: float = 150.0
    high_demand_mw: float = 100.0
    degree_max: int = 1

    def __post_init__(self):
        if not self.high_gen_mw > 0 or not self.high_demand_mw > 0:
            raise ValueError("candidate thresholds must be > 0")
        if self.degree_max < 0:
            raise ValueError("degree_max must be >= 0")


@dataclass(frozen=True)
class SynthesisConfig:
    """Recipe for a seeded synthetic network.  The same seed always yields
    the same network (generator: numpy PCG64).
    """

    n_buses: int
    n_regions: int
    seed: int
    demand_total_mw: float
    candidate_rules: CandidateRules = field(default_factory=CandidateRules)

    def __post_init__(self):
        if self.n_buses <= 0 or self.n_regions <= 0:
            raise ValueError("n_buses and n_regions must be positive")
        if not 0 < self.demand_total_mw < math.inf:
            raise ValueError(f"demand_total_mw must be finite and > 0, "
                             f"got {self.demand_total_mw!r}")


def _distance(coords: np.ndarray, a: int, b: int) -> float:
    d = float(np.hypot(*(coords[a] - coords[b])))
    return round(max(d, 5.0), 1)


def synthesize_grid(cfg: SynthesisConfig) -> Network:
    """Generate a connected, validated network from a seeded recipe.

    Buses are assigned to regions round-robin over a seed-shuffled order and
    scattered on a 400x400 km plane.  Existing lines form a random spanning
    tree plus ceil(0.3 n) chord circuits.  Generators are sited at roughly a
    third of the buses with capacity totalling HEADROOM (1.2) times demand.
    Lines are 138 or 230 kV, and about 35 % of the existing ones can be
    reconductored.  Candidates follow ``cfg.candidate_rules``; every line
    is costed from ``_RATES_PER_KM``.
    """
    if cfg.n_buses < cfg.n_regions:
        raise ValueError("n_buses must be >= n_regions")
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_buses

    order = [int(i) + 1 for i in rng.permutation(n)]
    region_of = {bus_id: (pos % cfg.n_regions) + 1
                 for pos, bus_id in enumerate(order)}
    coords = rng.uniform(0.0, _AREA_KM, size=(n + 1, 2))  # index by bus id
    weights = [round(float(x), 6) for x in rng.uniform(0.2, 1.0, size=n)]
    demands = disaggregate_load(cfg.demand_total_mw, weights)

    # backbone: random spanning tree over the shuffled order, then chords
    corridors: set[tuple[int, int]] = set()
    backbone: list[tuple[int, int]] = []
    for pos in range(1, n):
        anchor = order[int(rng.integers(0, pos))]
        edge = (order[pos], anchor)
        backbone.append(edge)
        corridors.add(tuple(sorted(edge)))
    want_chords = math.ceil(_CHORD_FRACTION * n)
    attempts = 0
    while want_chords > 0 and attempts < 50 * (n + 1):
        attempts += 1
        a, b = (int(x) + 1 for x in rng.integers(0, n, size=2))
        if a == b or tuple(sorted((a, b))) in corridors:
            continue
        backbone.append((a, b))
        corridors.add(tuple(sorted((a, b))))
        want_chords -= 1

    lines: list[Line] = []
    for a, b in backbone:
        kv = _VOLTAGE_CLASSES[int(rng.integers(0, len(_VOLTAGE_CLASSES)))]
        cap = float(round(rng.uniform(60.0, 200.0)))
        length = _distance(coords, a, b)
        expandable = bool(rng.random() < _EXPANDABLE_SHARE)
        lines.append(Line(
            id=len(lines) + 1, from_bus=a, to_bus=b, kind=LINE_EXISTING,
            susceptance_pu=1.0 / (_REACTANCE_PER_KM * length),
            base_capacity_mw=cap, voltage_kv=kv, length_km=length,
            expandable=expandable,
            expansion_capacity_mw=round(0.5 * cap) if expandable else 0.0,
            expand_cost=(_RATES_PER_KM[kv][1] * length * _ANNUALIZATION
                         if expandable else 0.0),
        ))

    # generators: ~n/3 sites (two where n allows), scaled to the headroom target
    n_gens = min(n, max(2, math.ceil(n / 3)))
    gen_buses = [int(i) + 1 for i in rng.permutation(n)[:n_gens]]
    props = rng.uniform(0.5, 1.5, size=n_gens)
    props = props / props.sum()
    generators = []
    for idx, bus_id in enumerate(gen_buses):
        cap = math.ceil(HEADROOM * cfg.demand_total_mw * float(props[idx]) * 10) / 10
        cost = round(float(rng.uniform(8.0, 32.0)), 2)
        fuel = FUEL_CLASSES[int(rng.integers(0, len(FUEL_CLASSES)))]
        generators.append(Generator(idx + 1, bus_id, cap, cost, fuel))

    # candidates: high-gen to high-demand corridors, then low-degree relief
    gen_at = {bus_id: 0.0 for bus_id in range(1, n + 1)}
    for g in generators:
        gen_at[g.bus_id] += g.capacity_mw
    rules = cfg.candidate_rules
    high_gen = [b for b in range(1, n + 1) if gen_at[b] >= rules.high_gen_mw]
    high_demand = [b for b in range(1, n + 1)
                   if demands[b - 1] >= rules.high_demand_mw]
    wanted: list[tuple[int, int]] = []
    for a in high_gen:
        for b in high_demand:
            if a != b and tuple(sorted((a, b))) not in corridors:
                wanted.append((a, b))
    degree = {b: 0 for b in range(1, n + 1)}
    for a, b in backbone:
        degree[a] += 1
        degree[b] += 1
    for a in range(1, n + 1):
        if degree[a] > rules.degree_max:
            continue
        others = [b for b in range(1, n + 1)
                  if b != a and tuple(sorted((a, b))) not in corridors]
        if not others:
            continue
        nearest = min(others, key=lambda b: (_distance(coords, a, b), b))
        wanted.append((a, nearest))

    for a, b in wanted:
        key = tuple(sorted((a, b)))
        if key in corridors:
            continue
        corridors.add(key)
        kv = _VOLTAGE_CLASSES[int(rng.integers(0, len(_VOLTAGE_CLASSES)))]
        cap = float(round(rng.uniform(80.0, 160.0)))
        length = _distance(coords, a, b)
        lines.append(Line(
            id=len(lines) + 1, from_bus=a, to_bus=b, kind=LINE_CANDIDATE,
            susceptance_pu=1.0 / (_REACTANCE_PER_KM * length),
            base_capacity_mw=cap, voltage_kv=kv, length_km=length,
            build_cost=_RATES_PER_KM[kv][0] * length * _ANNUALIZATION,
        ))

    regions = tuple(
        Region(r, f"region{r}", round(float(rng.uniform(96.0, 112.0)), 1),
               2.6, 5.1)
        for r in range(1, cfg.n_regions + 1)
    )
    buses = tuple(
        Bus(b, f"bus{b}", region_of[b], demands[b - 1], weights[b - 1])
        for b in range(1, n + 1)
    )
    net = Network(buses=buses, regions=regions, generators=tuple(generators),
                  lines=tuple(lines))
    violations = validate(net)
    if violations:
        raise RuntimeError(f"synthesized network failed validation: {violations}")
    return net


# --------------------------------------------------------------------------
# CSV ingestion
# --------------------------------------------------------------------------

def _read_rows(text: str, required: tuple[str, ...], label: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise DocumentError(f"{label} CSV: missing header row")
    names = [f.strip() for f in reader.fieldnames]
    missing = [c for c in required if c not in names]
    if missing:
        raise DocumentError(f"{label} CSV: missing column(s) {missing}")
    rows = []
    for raw in reader:
        rows.append({(k.strip() if k else k): (v.strip() if isinstance(v, str) else v)
                     for k, v in raw.items()} | {"_line": reader.line_num})
    return rows


def _num(row: dict, col: str, label: str) -> float:
    try:
        value = float(row[col])
    except (TypeError, ValueError):
        raise DocumentError(
            f"{label} CSV line {row['_line']}: column {col!r} is not a number"
        ) from None
    if not math.isfinite(value):
        raise DocumentError(
            f"{label} CSV line {row['_line']}: column {col!r} is not finite: {row[col]!r}")
    return value


def _intval(row: dict, col: str, label: str) -> int:
    try:
        return int(row[col])
    except (TypeError, ValueError):
        raise DocumentError(
            f"{label} CSV line {row['_line']}: column {col!r} is not an integer"
        ) from None


def _haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * 6371.0 * math.asin(math.sqrt(a))


def csv_to_document(
    substations_csv: str,
    plants_csv: str,
    lines_csv: str | None = None,
    *,
    total_demand_mw: float = 0.0,
) -> dict:
    """Assemble a network document from inventory CSVs.

    Substation CSV columns: id, lat, lon, population_weight.  Plant CSV
    columns: bus_id, capacity_mw, fuel_class, cost_per_mwh.  Optional line
    CSV columns: from_bus, to_bus, voltage_kv, capacity_mw, plus optional
    length_km (defaults to the great-circle distance between endpoints) and
    susceptance_pu (defaults to 1/(4e-4 * length_km)); every line is existing.

    When ``total_demand_mw`` is positive it is disaggregated over the
    substations' population weights; otherwise demands are zero.  All buses
    land in a single placeholder region (edit the document to refine).  The
    result is a document for ``load_network``, which performs validation.
    ``total_demand_mw`` must be finite.
    """
    if not math.isfinite(total_demand_mw):
        raise ValueError(f"total_demand_mw must be finite, got {total_demand_mw!r}")
    subs = _read_rows(substations_csv, ("id", "lat", "lon", "population_weight"),
                      "substation")
    if not subs:
        raise DocumentError("substation CSV: no data rows")
    plants = _read_rows(plants_csv, ("bus_id", "capacity_mw", "fuel_class",
                                     "cost_per_mwh"), "plant")

    bus_ids = [_intval(r, "id", "substation") for r in subs]
    weights = [_num(r, "population_weight", "substation") for r in subs]
    coords = {
        bus_ids[i]: (_num(subs[i], "lat", "substation"),
                     _num(subs[i], "lon", "substation"))
        for i in range(len(subs))
    }
    if total_demand_mw > 0:
        if not any(w > 0 for w in weights):
            raise DocumentError(
                "cannot disaggregate demand: all population weights are zero")
        demands = disaggregate_load(total_demand_mw, weights)
    else:
        demands = [0.0] * len(subs)

    buses = tuple(
        Bus(bus_ids[i], f"sub{bus_ids[i]}", 1, demands[i], weights[i])
        for i in range(len(subs))
    )
    generators = tuple(
        Generator(
            i + 1,
            _intval(r, "bus_id", "plant"),
            _num(r, "capacity_mw", "plant"),
            _num(r, "cost_per_mwh", "plant"),
            str(r["fuel_class"]),
        )
        for i, r in enumerate(plants)
    )

    lines: list[Line] = []
    if lines_csv is not None:
        rows = _read_rows(lines_csv, ("from_bus", "to_bus", "voltage_kv",
                                      "capacity_mw"), "line")
        for i, r in enumerate(rows):
            a = _intval(r, "from_bus", "line")
            b = _intval(r, "to_bus", "line")
            if r.get("length_km"):
                length = _num(r, "length_km", "line")
            else:
                if a not in coords or b not in coords:
                    raise DocumentError(
                        f"line CSV line {r['_line']}: endpoints missing from "
                        "substation CSV, cannot derive length")
                length = round(_haversine_km(*coords[a], *coords[b]), 1)
            if r.get("susceptance_pu"):
                b_pu = _num(r, "susceptance_pu", "line")
            else:
                b_pu = 1.0 / (_REACTANCE_PER_KM * max(length, 1.0))
            if r.get("kind") not in (None, "", LINE_EXISTING):
                raise DocumentError(f"line CSV line {r['_line']}: kind {r['kind']!r} is not "
                                    "supported; the CSV has no cost input for a candidate")
            lines.append(Line(
                id=i + 1, from_bus=a, to_bus=b, kind=LINE_EXISTING,
                susceptance_pu=b_pu,
                base_capacity_mw=_num(r, "capacity_mw", "line"),
                voltage_kv=_num(r, "voltage_kv", "line"),
                length_km=length,
            ))

    net = Network(
        buses=buses,
        regions=(Region(1, "system", 100.0, 2.6, 5.1),),
        generators=generators,
        lines=tuple(lines),
    )
    return to_document(net)
