"""High/low temperature scenarios and their per-region model coefficients.

A scenario marks each region L (small projected increase) or H (large).
Realizing a scenario turns the marks into a capacity multiplier eta_r via the
thermal model and a demand multiplier gamma_r from the elasticity config.
Temperatures in network and scenario files are Fahrenheit; the thermal module
works in Celsius, so the conversion happens here.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass

from . import thermal
from .network import ABSOLUTE_ZERO_F, ConductorParams, DRAKE_ACSR, Network, conductor, decode

MARK_LOW = "L"
MARK_HIGH = "H"


def f_to_c(t_f: float) -> float:
    return (t_f - 32.0) * 5.0 / 9.0


def _delta_f_to_c(delta_f: float) -> float:
    return delta_f * 5.0 / 9.0


def _c_to_f(t_c: float) -> float:
    return t_c * 9.0 / 5.0 + 32.0


@dataclass(frozen=True)
class ScenarioCode:
    """Ordered L/H marks, one per region (region id order)."""
    marks: tuple[str, ...]

    def __post_init__(self):
        if not self.marks:
            raise ValueError("a scenario needs at least one mark")
        bad = [m for m in self.marks if m not in (MARK_LOW, MARK_HIGH)]
        if bad:
            raise ValueError(f"marks must be 'L' or 'H', got {bad}")

    def __str__(self) -> str:
        return ",".join(self.marks)

    @classmethod
    def parse(cls, text: str) -> "ScenarioCode":
        return cls(tuple(part.strip().upper() for part in text.split(",")))


@dataclass(frozen=True)
class RegionParams:
    eta: float
    gamma: float


@dataclass(frozen=True)
class ScenarioParams:
    """Realized per-region coefficients for one scenario."""
    code: ScenarioCode
    by_region: dict[int, RegionParams]

    def eta(self, region_id: int) -> float:
        return self.by_region[region_id].eta

    def gamma(self, region_id: int) -> float:
        return self.by_region[region_id].gamma

    def scaled_eta(self, factor: float) -> "ScenarioParams":
        """Copy with every region's eta multiplied by ``factor`` (clamped to 1)."""
        return ScenarioParams(self.code, {
            rid: RegionParams(min(1.0, rp.eta * factor), rp.gamma)
            for rid, rp in self.by_region.items()
        })


@dataclass(frozen=True)
class DemandElasticityConfig:
    gamma_low: float = 1.02
    gamma_high: float = 1.05

    def __post_init__(self):
        if self.gamma_low < 1.0:
            raise ValueError("gamma_low must be >= 1")
        if self.gamma_high < self.gamma_low:
            raise ValueError("gamma_high must be >= gamma_low")


def enumerate_scenarios(num_regions: int) -> list[ScenarioCode]:
    """All 2^num_regions codes, lexicographic with L before H.

    First code is all-L, last is all-H.
    """
    if num_regions < 1:
        raise ValueError("num_regions must be >= 1")
    return [ScenarioCode(marks)
            for marks in itertools.product((MARK_LOW, MARK_HIGH), repeat=num_regions)]


def rated_eta(cond: ConductorParams, t_base_c: float, t_future_c: float,
              base: str, future: str) -> float:
    """The capacity multiplier of `cond` from ambient t_base_c to t_future_c
    (C), after the thermal model's checks, made here so that each error
    names its ambient by `base` or `future`, a label ending in its value in
    F, such as "--t-future-f 200.0" or "region 2: peak ambient 172.6"."""
    if not t_base_c > f_to_c(ABSOLUTE_ZERO_F):
        raise ValueError(f"{base} F must be above absolute zero ({ABSOLUTE_ZERO_F} F)")
    if not t_future_c < cond.max_conductor_temp_c:
        raise ValueError(f"{future} F must be below the conductor limit "
                         f"{round(_c_to_f(cond.max_conductor_temp_c), 6)!r} F")
    try:
        return thermal.derating_factor(cond, t_base_c, t_future_c)
    except thermal.ThermalDomainError as exc:
        # derating_factor tries the future ambient first, and headroom only
        # falls as the ambient rises: the future is the one left without
        raise ValueError(f"{future} F leaves the conductor no thermal headroom: "
                         f"{exc.shortfall}") from None


def realize_scenario(
    code: ScenarioCode,
    net: Network,
    elasticity: DemandElasticityConfig = DemandElasticityConfig(),
    conductors: dict[int, ConductorParams] | None = None,
) -> ScenarioParams:
    """Realize a scenario into per-region (eta, gamma) coefficients.

    Marks are matched to regions in ascending region-id order.  ``conductors``
    optionally overrides the representative conductor per region id; the
    repository default is used otherwise, and an id naming no region of the
    network is rejected.  An ambient the thermal model cannot rate raises
    ValueError naming the region, with its temperatures in F.
    """
    regions = sorted(net.regions, key=lambda r: r.id)
    if len(code.marks) != len(regions):
        raise ValueError(
            f"scenario has {len(code.marks)} marks but the network has {len(regions)} regions")
    conductors = conductors or {}
    unknown = sorted(set(conductors) - {region.id for region in regions})
    if unknown:
        raise ValueError(
            f"conductor override for region {unknown[0]}: the network has no such region")

    by_region: dict[int, RegionParams] = {}
    for region, mark in zip(regions, code.marks):
        if mark == MARK_HIGH:
            increase_f = region.projected_increase_high_f
            gamma = elasticity.gamma_high
        else:
            increase_f = region.projected_increase_low_f
            gamma = elasticity.gamma_low
        t_base_c = f_to_c(region.base_peak_temp_f)
        eta = rated_eta(conductors.get(region.id, DRAKE_ACSR), t_base_c,
                        t_base_c + _delta_f_to_c(increase_f),
                        f"region {region.id}: base_peak_temp_f {region.base_peak_temp_f!r}",
                        f"region {region.id}: peak ambient "
                        f"{round(region.base_peak_temp_f + increase_f, 6)!r}")
        by_region[region.id] = RegionParams(eta=eta, gamma=gamma)
    return ScenarioParams(code, by_region)


# --------------------------------------------------------------------------
# Scenario configuration file
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    elasticity: DemandElasticityConfig
    conductors: dict[int, ConductorParams]


def load_scenario_config(text: str) -> ScenarioConfig:
    """Parse a scenario configuration document (JSON object).

    Recognized fields: ``elasticity`` {gamma_low, gamma_high} and optional
    ``conductor_overrides`` mapping region id (a key such as ``"2"``) to a
    conductor object, read by ``network.conductor``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed scenario config: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("scenario config root must be an object")
    unknown = set(doc) - {"elasticity", "conductor_overrides"}
    if unknown:
        raise ValueError(f"scenario config: unknown field(s) {sorted(unknown)}")

    elasticity = decode(DemandElasticityConfig, doc.get("elasticity", {}), "elasticity")
    overrides = doc.get("conductor_overrides", {})
    if not isinstance(overrides, dict):
        raise ValueError("scenario config: conductor_overrides must be an object")
    conductors = {}
    for key, obj in overrides.items():
        # canonical digits only, so "1" and "01" cannot both name region 1
        if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
            raise ValueError(f"conductor override for region {key!r}: "
                             f"the key is not an integer region id")
        conductors[int(key)] = conductor(obj, f"conductor override for region {key}")
    return ScenarioConfig(elasticity=elasticity, conductors=conductors)
