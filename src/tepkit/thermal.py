"""Conductor thermal ratings and temperature-trend regression.

Ampacity follows the steady-state conductor energy balance: convective and
radiative heat removal minus solar gain, divided by AC resistance at the
conductor temperature limit.  All temperatures here are Celsius; the radiation
term is evaluated in Kelvin because the fourth-power law needs an absolute
scale.  Derating is expressed as the ratio of future to base ampacity, a
dimensionless multiplier in (0, 1].
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date

from .network import ConductorParams

STEFAN_BOLTZMANN = 5.670374419e-8  # W/m^2 K^4 (CODATA)
_KELVIN_OFFSET = 273.15


class ThermalDomainError(ValueError):
    """Ambient conditions leave no positive heat-removal budget.

    ``shortfall`` says which heat flows fall short, without the ambient, so
    that a caller can name the ambient in its own units."""

    def __init__(self, t_amb_c: float, shortfall: str):
        super().__init__(f"no thermal headroom: {shortfall} at ambient {t_amb_c} C")
        self.shortfall = shortfall


def _check_ambient(cond: ConductorParams, t_amb_c: float) -> None:
    """Raise ValueError unless the ambient lies above absolute zero and below
    the conductor limit, which also rules out NaN and infinities."""
    if not t_amb_c > -_KELVIN_OFFSET:
        raise ValueError(f"ambient {t_amb_c} C must be above absolute zero (-273.15 C)")
    if not t_amb_c < cond.max_conductor_temp_c:
        raise ValueError(f"ambient {t_amb_c} C must be below the conductor limit "
                         f"{cond.max_conductor_temp_c} C")


def ampacity(cond: ConductorParams, t_amb_c: float) -> float:
    """Steady-state current limit (amperes) at the given ambient temperature.

    Raises ThermalDomainError when solar gain exceeds convective plus
    radiative removal (the radicand of the energy balance goes nonpositive),
    and ValueError when the ambient is not above absolute zero and below the
    conductor limit.
    """
    _check_ambient(cond, t_amb_c)
    t_cond = cond.max_conductor_temp_c
    q_convection = math.pi * cond.heat_transfer_coeff * cond.diameter_m * (t_cond - t_amb_c)
    t_cond_k = t_cond + _KELVIN_OFFSET
    t_amb_k = t_amb_c + _KELVIN_OFFSET
    q_radiation = (math.pi * cond.emissivity * STEFAN_BOLTZMANN * cond.diameter_m
                   * (t_cond_k ** 4 - t_amb_k ** 4))
    q_solar = cond.solar_radiation * cond.diameter_m * cond.absorptivity

    radicand = (q_convection + q_radiation - q_solar) / cond.resistance_ohm_per_m
    if radicand <= 0:
        raise ThermalDomainError(
            t_amb_c, "convection {:.3f} + radiation {:.3f} W/m do not cover "
            "solar gain {:.3f} W/m".format(q_convection, q_radiation, q_solar))
    return math.sqrt(radicand)


def derating_factor(cond: ConductorParams, t_base_c: float, t_future_c: float) -> float:
    """Capacity multiplier: ampacity at the future ambient over ampacity at
    the base ambient.  Equals 1.0 exactly when the temperatures coincide and
    lie in ampacity's range."""
    if t_future_c < t_base_c:
        raise ValueError(
            f"t_future_c {t_future_c} must be >= t_base_c {t_base_c}")
    if t_future_c == t_base_c:
        _check_ambient(cond, t_base_c)  # ampacity's check, which this skips
        return 1.0
    return ampacity(cond, t_future_c) / ampacity(cond, t_base_c)


# --------------------------------------------------------------------------
# Temperature trend regression
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TrendFit:
    slope_f_per_year: float
    intercept_f: float
    r_squared: float
    n_points: int

    def predict(self, year: float) -> float:
        return self.slope_f_per_year * year + self.intercept_f


@dataclass(frozen=True)
class AnnualSeries:
    """Per-year values (degrees F), years strictly increasing.

    ``skipped_years`` lists years dropped for having too few daily records.
    """
    points: tuple[tuple[int, float], ...]
    skipped_years: tuple[int, ...] = ()

    def __post_init__(self):
        years = [y for y, _ in self.points]
        if any(b <= a for a, b in zip(years, years[1:])):
            raise ValueError("years must be strictly increasing")

    def years(self) -> list[int]:
        return [y for y, _ in self.points]

    def values(self) -> list[float]:
        return [v for _, v in self.points]


def top_k_mean_series(daily: list[tuple[date, float]], k: int = 10) -> AnnualSeries:
    """Average of each calendar year's k largest daily maxima.

    Years with fewer than k records are skipped and reported on the result.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not daily:
        raise ValueError("no daily records given")

    by_year: dict[int, list[float]] = {}
    for d, tmax in daily:
        by_year.setdefault(d.year, []).append(tmax)

    points = []
    skipped = []
    for year in sorted(by_year):
        values = by_year[year]
        if len(values) < k:
            skipped.append(year)
            continue
        top = sorted(values, reverse=True)[:k]
        points.append((year, sum(top) / k))
    return AnnualSeries(tuple(points), tuple(skipped))


def fit_trend(series: AnnualSeries) -> TrendFit:
    """Ordinary least squares of value on year (slope in degrees F per year)."""
    n = len(series.points)
    if n < 2:
        raise ValueError("need at least 2 points to fit a trend")
    years = series.years()
    values = series.values()
    if len(set(years)) < 2:
        raise ValueError("all years identical: singular design")

    y_mean = sum(years) / n
    v_mean = sum(values) / n
    sxx = sum((y - y_mean) ** 2 for y in years)
    sxy = sum((y - y_mean) * (v - v_mean) for y, v in zip(years, values))
    slope = sxy / sxx
    intercept = v_mean - slope * y_mean

    sst = sum((v - v_mean) ** 2 for v in values)
    ssr = sum((v - (slope * y + intercept)) ** 2 for y, v in zip(years, values))
    if sst <= 1e-30:
        r2 = 1.0  # constant series: the flat line fits exactly
    else:
        r2 = max(0.0, min(1.0, 1.0 - ssr / sst))
    return TrendFit(slope, intercept, r2, n)


def exceedance_trend(series: AnnualSeries, mean_fit: TrendFit) -> TrendFit:
    """Refit using only points strictly above the mean trend line."""
    above = tuple((y, v) for y, v in series.points if v > mean_fit.predict(y))
    if len(above) < 2:
        raise ValueError(
            f"only {len(above)} point(s) above the mean trend line; need at least 2")
    return fit_trend(AnnualSeries(above))


def project_temperature(fit: TrendFit, base_year: int, horizon_year: int) -> float:
    """Projected increase (degrees F) from base_year to horizon_year."""
    if horizon_year < base_year:
        raise ValueError("horizon_year must be >= base_year")
    return fit.slope_f_per_year * (horizon_year - base_year)


# --------------------------------------------------------------------------
# Daily temperature ingestion (GHCN-Daily style CSV)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DailyReadResult:
    records: tuple[tuple[date, float], ...]
    missing_tmax: int


def read_daily_csv(text: str, units: str = "tenths_c") -> DailyReadResult:
    """Read a delimited export with STATION, DATE (ISO-8601), TMAX columns.

    ``units`` selects how TMAX is stored: ``tenths_c`` (tenths of a degree
    Celsius, the GHCN-Daily convention) or ``f``.  Values are returned in
    degrees F.  Rows with an empty TMAX cell are skipped and counted.
    """
    if units not in ("tenths_c", "f"):
        raise ValueError("units must be 'tenths_c' or 'f'")
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise ValueError("empty temperature file")
    header = {name.strip().upper(): name for name in reader.fieldnames}
    for required in ("DATE", "TMAX"):
        if required not in header:
            raise ValueError(f"temperature file is missing a {required} column")

    records = []
    missing = 0
    for row in reader:
        raw = (row.get(header["TMAX"]) or "").strip()
        if not raw:
            missing += 1
            continue
        where = f"temperature CSV line {reader.line_num}"
        day = (row.get(header["DATE"]) or "").strip()
        try:
            when = date.fromisoformat(day)
        except ValueError:
            raise ValueError(f"{where}: column {header['DATE']!r} is not an ISO date: "
                             f"{day!r}") from None
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"{where}: column {header['TMAX']!r} is not a finite number: "
                             f"{raw!r}")
        if units == "tenths_c":
            value = value / 10.0 * 9.0 / 5.0 + 32.0
        records.append((when, value))
    return DailyReadResult(tuple(records), missing)
