import math
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from tepkit.network import DRAKE_ACSR, ConductorParams
from tepkit.thermal import (
    STEFAN_BOLTZMANN,
    AnnualSeries,
    ThermalDomainError,
    ampacity,
    derating_factor,
    exceedance_trend,
    fit_trend,
    project_temperature,
    read_daily_csv,
    top_k_mean_series,
)


def test_ampacity_positive_and_decreasing():
    # full-sun Drake loses its last headroom near 61 C ambient; stay below
    values = [ampacity(DRAKE_ACSR, t) for t in range(20, 60, 5)]
    assert all(v > 0 for v in values)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_ampacity_rejects_ambient_at_conductor_limit():
    with pytest.raises(ValueError, match="below the conductor limit"):
        ampacity(DRAKE_ACSR, DRAKE_ACSR.max_conductor_temp_c)


@pytest.mark.parametrize("t_amb", [-273.15, -600.0, -math.inf])
def test_ampacity_rejects_an_ambient_at_or_below_absolute_zero(t_amb):
    # -inf used to give NaN and -600 C a current
    with pytest.raises(ValueError, match=r"must be above absolute zero \(-273\.15 C\)"):
        ampacity(DRAKE_ACSR, t_amb)


def test_ampacity_domain_error_when_solar_dominates():
    cond = ConductorParams(0.0281, 8.688e-5, 0.8, 0.8, 75.0, 0.01, 1e6)
    with pytest.raises(ThermalDomainError):
        ampacity(cond, 74.9)


def test_derating_identity_is_exact():
    assert derating_factor(DRAKE_ACSR, 40.0, 40.0) == 1.0


@pytest.mark.parametrize("t_amb, message", [
    (93.0, "below the conductor limit 75.0 C"),
    (math.inf, "below the conductor limit 75.0 C"),
    (-300.0, "above absolute zero"),
    (-math.inf, "above absolute zero"),
], ids=["hot", "inf", "cold", "minus-inf"])
def test_derating_identity_needs_an_ambient_in_range(t_amb, message):
    # equal ambients used to return 1.0 before any range check
    with pytest.raises(ValueError, match=message):
        derating_factor(DRAKE_ACSR, t_amb, t_amb)


def test_derating_strictly_decreasing_in_future_temperature():
    futures = [40.0 + 0.5 * i for i in range(21)]
    etas = [derating_factor(DRAKE_ACSR, 40.0, t) for t in futures]
    assert etas[0] == 1.0
    assert all(b < a for a, b in zip(etas, etas[1:]))
    assert all(0.0 < e <= 1.0 for e in etas)


def test_derating_rejects_cooling():
    with pytest.raises(ValueError, match="must be >="):
        derating_factor(DRAKE_ACSR, 40.0, 39.0)


def test_derating_matches_ampacity_ratio():
    eta = derating_factor(DRAKE_ACSR, 35.0, 42.0)
    assert eta == ampacity(DRAKE_ACSR, 42.0) / ampacity(DRAKE_ACSR, 35.0)


def test_top_k_mean_series_selects_hottest_days():
    daily = []
    for year in (2001, 2002):
        for i, v in enumerate([90.0, 95.0, 100.0, 105.0]):
            daily.append((date(year, 6, i + 1), v + (year - 2001)))
    series = top_k_mean_series(daily, k=2)
    assert series.points == ((2001, 102.5), (2002, 103.5))
    assert series.skipped_years == ()


def test_top_k_mean_series_skips_thin_years():
    daily = [(date(2001, 6, 1), 90.0), (date(2001, 6, 2), 91.0),
             (date(2002, 6, 1), 95.0)]
    series = top_k_mean_series(daily, k=2)
    assert series.points == ((2001, 90.5),)
    assert series.skipped_years == (2002,)


def test_top_k_mean_series_rejects_bad_input():
    with pytest.raises(ValueError, match="k must be"):
        top_k_mean_series([(date(2001, 1, 1), 1.0)], k=0)
    with pytest.raises(ValueError, match="no daily records"):
        top_k_mean_series([])


def test_fit_trend_recovers_collinear_exactly():
    series = AnnualSeries(tuple((y, 0.05 * y + 3.0) for y in range(2000, 2020)))
    fit = fit_trend(series)
    assert math.isclose(fit.slope_f_per_year, 0.05, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(fit.intercept_f, 3.0, rel_tol=0, abs_tol=1e-9)
    assert fit.r_squared == 1.0
    assert fit.n_points == 20


def test_fit_trend_constant_series_has_unit_r_squared():
    fit = fit_trend(AnnualSeries(((2000, 80.0), (2001, 80.0), (2002, 80.0))))
    assert fit.slope_f_per_year == 0.0
    assert fit.r_squared == 1.0


def test_fit_trend_needs_two_points():
    with pytest.raises(ValueError, match="at least 2"):
        fit_trend(AnnualSeries(((2000, 80.0),)))


@given(st.lists(st.floats(min_value=-50, max_value=150), min_size=3, max_size=40),
       st.integers(min_value=1900, max_value=2050))
@settings(max_examples=60, deadline=None)
def test_fit_trend_residuals_orthogonal(values, start_year):
    series = AnnualSeries(tuple((start_year + i, v) for i, v in enumerate(values)))
    fit = fit_trend(series)
    residuals = [v - fit.predict(y) for y, v in series.points]
    scale = max(1.0, max(abs(v) for v in values))
    n = len(values)
    assert abs(sum(residuals)) <= 1e-9 * scale * n
    y_mean = sum(series.years()) / n
    assert abs(sum(r * (y - y_mean) for r, y in zip(residuals, series.years()))) \
        <= 1e-7 * scale * n * len(values)


def test_exceedance_trend_uses_points_above_line():
    # saw-tooth around a rising line: highs sit above the mean fit
    pts = tuple((2000 + i, 100.0 + 0.1 * i + (2.0 if i % 2 == 0 else -2.0))
                for i in range(10))
    series = AnnualSeries(pts)
    mean_fit = fit_trend(series)
    exc = exceedance_trend(series, mean_fit)
    assert exc.n_points == 5
    above = [(y, v) for y, v in pts if v > mean_fit.predict(y)]
    refit = fit_trend(AnnualSeries(tuple(above)))
    assert exc == refit


def test_exceedance_trend_needs_two_points_above():
    series = AnnualSeries(((2000, 80.0), (2001, 80.0), (2002, 80.0)))
    fit = fit_trend(series)  # exact flat fit: nothing strictly above
    with pytest.raises(ValueError, match="above the mean trend"):
        exceedance_trend(series, fit)


def test_projection_is_slope_times_elapsed():
    fit = fit_trend(AnnualSeries(((2000, 100.0), (2010, 101.0))))
    assert project_temperature(fit, 2005, 2035) == fit.slope_f_per_year * 30
    assert project_temperature(fit, 2005, 2005) == 0.0
    with pytest.raises(ValueError, match="horizon_year"):
        project_temperature(fit, 2035, 2005)


def test_read_daily_csv_tenths_c():
    text = "STATION,DATE,TMAX\nPHX,2001-07-04,450\nPHX,2001-07-05,\nPHX,2001-07-06,391\n"
    result = read_daily_csv(text)
    assert result.missing_tmax == 1
    assert result.records[0] == (date(2001, 7, 4), 45.0 * 9 / 5 + 32)
    assert result.records[1][1] == pytest.approx(39.1 * 9 / 5 + 32)


def test_read_daily_csv_fahrenheit_and_header_case():
    text = "station,date,tmax\nPHX,2001-07-04,113.2\n"
    result = read_daily_csv(text, units="f")
    assert result.records == ((date(2001, 7, 4), 113.2),)


def test_read_daily_csv_rejects_bad_input():
    with pytest.raises(ValueError, match="missing a TMAX"):
        read_daily_csv("STATION,DATE\nPHX,2001-07-04\n")
    with pytest.raises(ValueError, match="empty temperature file"):
        read_daily_csv("")
    with pytest.raises(ValueError, match="units"):
        read_daily_csv("STATION,DATE,TMAX\n", units="k")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "abc"])
def test_read_daily_csv_rejects_a_tmax_that_is_not_a_finite_number(cell):
    text = f"STATION,DATE,TMAX\nPHX,2001-07-04,450\nPHX,2001-07-05,{cell}\n"
    with pytest.raises(ValueError) as err:
        read_daily_csv(text)
    assert str(err.value) == (
        f"temperature CSV line 3: column 'TMAX' is not a finite number: {cell!r}")


def test_read_daily_csv_rejects_a_bad_date_with_its_line():
    text = "station,date,tmax\nPHX,2001-07-04,450\nPHX,2001-7-5,451\n"
    with pytest.raises(ValueError) as err:
        read_daily_csv(text)
    assert str(err.value) == "temperature CSV line 3: column 'date' is not an ISO date: '2001-7-5'"


def test_ampacity_closed_form_transcription():
    # independent re-evaluation of the energy balance for one conductor
    cond = DRAKE_ACSR
    t_amb = 43.0
    t_cond = cond.max_conductor_temp_c
    qc = math.pi * cond.heat_transfer_coeff * cond.diameter_m * (t_cond - t_amb)
    qr = (math.pi * cond.emissivity * STEFAN_BOLTZMANN * cond.diameter_m
          * ((t_cond + 273.15) ** 4 - (t_amb + 273.15) ** 4))
    qs = cond.solar_radiation * cond.diameter_m * cond.absorptivity
    expected = math.sqrt((qc + qr - qs) / cond.resistance_ohm_per_m)
    assert ampacity(cond, t_amb) == pytest.approx(expected, rel=1e-15)
