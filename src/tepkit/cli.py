"""Command-line surface for the expansion-planning toolkit.

Subcommands mirror the workflow: ``validate`` checks a network document,
``fit`` regresses peak-temperature trends, ``derate`` evaluates the thermal
capacity multiplier, ``build`` exports a solver-ready model file, ``solve``
optimizes one scenario, and ``sweep`` runs the full 2^R scenario table.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass, fields as dc_fields
from decimal import ROUND_HALF_EVEN, Decimal

import click

from .milp import build_tep_model
from .model import model_stats
from .mps import export_lp, export_mps
from .network import (
    DRAKE_ACSR,
    ConductorParams,
    Network,
    NetworkError,
    parse_document,
    validate as validate_network,
    load_network,
)
from .scenario import (
    ScenarioCode,
    ScenarioConfig,
    DemandElasticityConfig,
    _f_to_c,
    enumerate_scenarios,
    load_scenario_config,
    realize_scenario,
)
from .simplex import Basis, SimplexError
from .solver import SolveOptions, SolverError, format_solution, solve_milp
from . import thermal

_MICRO = Decimal("0.000001")
_CENTS = Decimal("0.01")
_BILLION = Decimal(10) ** 9

_REPORT_COLUMNS = (
    "scenario", "new_lines_built", "cap_exp_built", "new_line_cost",
    "cap_exp_cost", "total_exp_cost", "gen_cost", "total_cost",
)


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    raise SystemExit(1)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        _fail(str(exc))


def _load_net(path: str) -> Network:
    try:
        return load_network(_read_text(path))
    except NetworkError as exc:
        _fail(f"{path}: {exc}")


def _load_config(path: str | None) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig(elasticity=DemandElasticityConfig(), conductors={})
    try:
        return load_scenario_config(_read_text(path))
    except ValueError as exc:
        _fail(f"{path}: {exc}")


def _micro(value: float) -> Decimal:
    return Decimal(str(value)).quantize(_MICRO, rounding=ROUND_HALF_EVEN)


def _money(value: Decimal) -> str:
    return f"$ {(value / _BILLION).quantize(_CENTS, rounding=ROUND_HALF_EVEN)}B"


@click.group()
def main() -> None:
    """Transmission expansion planning under temperature-driven derating."""


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

@main.command("validate")
@click.option("--network", "network_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
def cmd_validate(network_path: str) -> None:
    """Check a network document against the model invariants."""
    try:
        net = parse_document(_read_text(network_path))
    except NetworkError as exc:
        _fail(f"{network_path}: {exc}")
    violations = validate_network(net)
    if violations:
        for item in violations:
            click.echo(item)
        raise SystemExit(1)
    click.echo(f"ok: {len(net.buses)} buses, {len(net.lines)} lines, "
               f"{len(net.generators)} generators, {len(net.regions)} regions")


# --------------------------------------------------------------------------
# derate
# --------------------------------------------------------------------------

@main.command("derate")
@click.option("--t-base-f", required=True, type=float,
              help="Historical peak ambient temperature, degrees F.")
@click.option("--t-future-f", required=True, type=float,
              help="Projected peak ambient temperature, degrees F.")
@click.option("--conductor-json", type=click.Path(exists=True, dir_okay=False),
              help="JSON object overriding conductor parameters.")
def cmd_derate(t_base_f: float, t_future_f: float,
               conductor_json: str | None) -> None:
    """Print the capacity multiplier for an ambient temperature change."""
    cond = DRAKE_ACSR
    if conductor_json is not None:
        try:
            obj = json.loads(_read_text(conductor_json))
            merged = {f.name: getattr(DRAKE_ACSR, f.name)
                      for f in dc_fields(ConductorParams)}
            unknown = set(obj) - set(merged)
            if unknown:
                raise ValueError(f"unknown conductor field(s) {sorted(unknown)}")
            merged.update({k: float(v) for k, v in obj.items()})
            cond = ConductorParams(**merged)
        except (ValueError, TypeError) as exc:
            _fail(f"{conductor_json}: {exc}")
    try:
        eta = thermal.derating_factor(cond, _f_to_c(t_base_f), _f_to_c(t_future_f))
    except thermal.ThermalDomainError as exc:
        _fail(str(exc))
    click.echo(f"derating factor eta = {eta!r}")


# --------------------------------------------------------------------------
# fit
# --------------------------------------------------------------------------

@main.command("fit")
@click.option("--temps", "temps_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Daily TMAX CSV (STATION, DATE, TMAX).")
@click.option("--k", default=10, show_default=True,
              help="Average the k hottest days of each year.")
@click.option("--units", default="tenths_c", show_default=True,
              type=click.Choice(["tenths_c", "f"]))
@click.option("--base-year", type=int, default=None,
              help="Projection base year (default: first usable year).")
@click.option("--horizons", default="2035,2055,2085", show_default=True,
              help="Comma-separated horizon years.")
def cmd_fit(temps_path: str, k: int, units: str, base_year: int | None,
            horizons: str) -> None:
    """Fit peak-temperature trends and project future increases."""
    try:
        horizon_years = [int(h) for h in horizons.split(",") if h.strip()]
    except ValueError:
        _fail(f"bad horizon list {horizons!r}")
    try:
        result = thermal.read_daily_csv(_read_text(temps_path), units=units)
        series = thermal.top_k_mean_series(list(result.records), k=k)
        mean_fit = thermal.fit_trend(series)
    except ValueError as exc:
        _fail(str(exc))

    if result.missing_tmax:
        click.echo(f"note: skipped {result.missing_tmax} rows with missing TMAX")
    if series.skipped_years:
        click.echo("note: skipped years with too few records: "
                   f"{', '.join(str(y) for y in series.skipped_years)}")

    def fit_line(label: str, fit: thermal.TrendFit) -> None:
        click.echo(f"{label}: slope {fit.slope_f_per_year!r} F/yr, "
                   f"intercept {fit.intercept_f!r} F, "
                   f"r2 {fit.r_squared!r}, n {fit.n_points}")

    fit_line("mean trend", mean_fit)
    exc_fit = None
    try:
        exc_fit = thermal.exceedance_trend(series, mean_fit)
        fit_line("exceedance trend", exc_fit)
    except ValueError as exc:
        click.echo(f"exceedance trend: unavailable ({exc})")

    base = base_year if base_year is not None else series.years()[0]
    click.echo(f"projected increase from {base}:")
    for year in horizon_years:
        if year < base:
            click.echo(f"  {year}  skipped (before base year)")
            continue
        parts = [f"+{thermal.project_temperature(mean_fit, base, year):.2f} F (mean)"]
        if exc_fit is not None:
            parts.append(
                f"+{thermal.project_temperature(exc_fit, base, year):.2f} F (exceedance)")
        click.echo(f"  {year}  " + "   ".join(parts))
    click.echo("published Phoenix-area reference: "
               "+2.6 F by 2035, +3.6 F by 2055, +5.1 F by 2085")


# --------------------------------------------------------------------------
# model assembly shared by build / solve / sweep
# --------------------------------------------------------------------------

def _assemble(net: Network, code: ScenarioCode, config: ScenarioConfig,
              sigma_hours: float):
    params = realize_scenario(code, net, config.elasticity, config.conductors)
    return build_tep_model(net, params, sigma_hours)


def _model_options(fn):
    fn = click.option("--network", "network_path", required=True,
                      type=click.Path(exists=True, dir_okay=False))(fn)
    fn = click.option("--scenarios", "config_path", default=None,
                      type=click.Path(exists=True, dir_okay=False),
                      help="Scenario configuration JSON.")(fn)
    fn = click.option("--sigma-hours", default=8760.0, show_default=True,
                      help="Operating hours weighting generation cost.")(fn)
    return fn


def _solver_options(fn):
    fn = click.option("--gap", default=1e-6, show_default=True,
                      help="Relative optimality gap tolerance.")(fn)
    fn = click.option("--time-limit", default=None, type=float,
                      help="Per-solve wall-clock limit, seconds.")(fn)
    return fn


# --------------------------------------------------------------------------
# build
# --------------------------------------------------------------------------

@main.command("build")
@_model_options
@click.option("--scenario", "scenario_code", required=True,
              help='Scenario code, e.g. "H,L".')
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", default="mps", show_default=True,
              type=click.Choice(["mps", "lp"]))
def cmd_build(network_path: str, config_path: str | None, sigma_hours: float,
              scenario_code: str, out_path: str, fmt: str) -> None:
    """Write one scenario's optimization model to an MPS or LP file."""
    net = _load_net(network_path)
    config = _load_config(config_path)
    try:
        code = ScenarioCode.parse(scenario_code)
        model, _ = _assemble(net, code, config, sigma_hours)
    except ValueError as exc:
        _fail(str(exc))
    text = export_mps(model) if fmt == "mps" else export_lp(model)
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(str(exc))
    click.echo(model_stats(model))
    click.echo(f"wrote {fmt} model to {out_path}")


# --------------------------------------------------------------------------
# solve
# --------------------------------------------------------------------------

@main.command("solve")
@_model_options
@_solver_options
@click.option("--scenario", "scenario_code", required=True,
              help='Scenario code, e.g. "H,L".')
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False),
              help="Also write the solution vector to this file.")
def cmd_solve(network_path: str, config_path: str | None, sigma_hours: float,
              gap: float, time_limit: float | None, scenario_code: str,
              out_path: str | None) -> None:
    """Solve one scenario and print the solution summary.

    Exits 0 when optimal, 1 for any other solver status, and 2 when the
    engine fails."""
    net = _load_net(network_path)
    config = _load_config(config_path)
    try:
        code = ScenarioCode.parse(scenario_code)
        model, vmap = _assemble(net, code, config, sigma_hours)
        options = SolveOptions(rel_gap_tol=gap, time_limit_s=time_limit)
        sol = solve_milp(model, options)
    except ValueError as exc:
        _fail(str(exc))
    except (SimplexError, SolverError) as exc:
        click.echo(f"status     error: {exc}")
        raise SystemExit(2)

    click.echo(f"status     {sol.status}")
    if sol.objective is not None:
        click.echo(f"objective  {sol.objective!r}")
    if sol.best_bound is not None:
        click.echo(f"bound      {sol.best_bound!r}")
    click.echo(f"nodes      {sol.stats['nodes']}")
    click.echo(f"iterations {sol.stats['simplex_iterations']}")
    if sol.values:
        built = [l.id for l in net.candidate_lines()
                 if sol.values[vmap.build(l.id)] >= 0.5]
        expanded = [l.id for l in net.expandable_lines()
                    if sol.values[vmap.expand(l.id)] >= 0.5]
        click.echo(f"built lines     {built or 'none'}")
        click.echo(f"expanded lines  {expanded or 'none'}")
        if out_path is not None:
            try:
                with open(out_path, "w", encoding="utf-8") as fh:
                    fh.write(format_solution(sol))
            except OSError as exc:
                _fail(str(exc))
            click.echo(f"wrote solution to {out_path}")
    raise SystemExit(0 if sol.status == "optimal" else 1)


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepReportRow:
    """One scenario's outcome in the report table.

    Cost columns are microdollar-quantized decimals so the printed identities
    total_exp_cost = new_line_cost + cap_exp_cost and
    total_cost = total_exp_cost + gen_cost hold exactly.
    """

    scenario: str
    status: str
    new_lines_built: int | None
    cap_exp_built: int | None
    new_line_cost: Decimal | None
    cap_exp_cost: Decimal | None
    total_exp_cost: Decimal | None
    gen_cost: Decimal | None
    total_cost: Decimal | None

    def csv_cells(self) -> list[str]:
        cells = [self.scenario]
        for value in (self.new_lines_built, self.cap_exp_built,
                      self.new_line_cost, self.cap_exp_cost,
                      self.total_exp_cost, self.gen_cost, self.total_cost):
            cells.append("" if value is None else str(value))
        return cells


def _sweep_row(net: Network, code: ScenarioCode, config: ScenarioConfig,
               sigma_hours: float, options: SolveOptions,
               start: Basis | None) -> tuple[SweepReportRow, Basis | None]:
    """Solve one scenario with its root LP started from `start`; return its
    row and its root LP's final basis (`start` again if the engine fails)."""
    model, vmap = _assemble(net, code, config, sigma_hours)
    try:
        sol = solve_milp(model, options, start=start)
    except (SimplexError, SolverError) as exc:
        click.echo(f"error: scenario {code}: {exc}", err=True)
        return SweepReportRow(str(code), "error", *[None] * 7), start
    if not sol.values:
        return SweepReportRow(str(code), sol.status, *[None] * 7), sol.root_basis

    built = [l for l in net.candidate_lines() if sol.values[vmap.build(l.id)] >= 0.5]
    expanded = [l for l in net.expandable_lines()
                if sol.values[vmap.expand(l.id)] >= 0.5]
    new_line_cost = sum((_micro(l.build_cost) for l in built), Decimal(0))
    cap_exp_cost = sum((_micro(l.expand_cost) for l in expanded), Decimal(0))
    gen_mwh_cost = sum(
        g.cost_per_mwh * sol.values[vmap.gen(g.id)] * net.base_mva
        for g in net.generators
    ) * sigma_hours
    gen_cost = _micro(gen_mwh_cost)
    total_exp = new_line_cost + cap_exp_cost
    row = SweepReportRow(
        scenario=str(code), status=sol.status,
        new_lines_built=len(built), cap_exp_built=len(expanded),
        new_line_cost=new_line_cost, cap_exp_cost=cap_exp_cost,
        total_exp_cost=total_exp, gen_cost=gen_cost,
        total_cost=total_exp + gen_cost,
    )
    return row, sol.root_basis


@main.command("sweep")
@_model_options
@_solver_options
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False),
              help="Delimited report file.")
def cmd_sweep(network_path: str, config_path: str | None, sigma_hours: float,
              gap: float, time_limit: float | None, out_path: str) -> None:
    """Solve every temperature scenario and emit the report table.

    Exits 0 when every scenario is optimal, 1 when some scenario ends with
    another solver status, and 2 when the engine fails on some scenario;
    a failed scenario's row keeps its place with status error."""
    net = _load_net(network_path)
    config = _load_config(config_path)
    codes = enumerate_scenarios(len(net.regions))
    options = SolveOptions(rel_gap_tol=gap, time_limit_s=time_limit)

    header = [
        f"# network={network_path}",
        f"# scenarios={config_path or '(defaults)'}",
        f"# regions={len(net.regions)} scenario_count={len(codes)}",
        f"# gamma_low={config.elasticity.gamma_low!r} "
        f"gamma_high={config.elasticity.gamma_high!r}",
        f"# sigma_hours={sigma_hours!r}",
        f"# gap={gap!r} time_limit={time_limit!r}",
    ]
    # Every scenario model of one network has the same columns and rows,
    # so each root LP starts from the previous scenario's root basis.
    rows = []
    start = None
    for code in codes:
        row, start = _sweep_row(net, code, config, sigma_hours, options, start)
        rows.append(row)

    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            for line in header:
                fh.write(line + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_REPORT_COLUMNS)
            for row in rows:
                writer.writerow(row.csv_cells())
    except OSError as exc:
        _fail(str(exc))

    for line in header:
        click.echo(line)
    widths = (10, 11, 9, 13, 13, 14, 11, 11)
    titles = ("scenario", "lines built", "cap exp", "new line cost",
              "cap exp cost", "total exp cost", "gen cost", "total cost")
    click.echo("  ".join(t.ljust(w) for t, w in zip(titles, widths)))
    for row in rows:
        if row.new_line_cost is None:
            cells = (row.scenario, "-", "-", "-", "-", "-", "-",
                     f"({row.status})")
        else:
            cells = (
                row.scenario, str(row.new_lines_built), str(row.cap_exp_built),
                _money(row.new_line_cost), _money(row.cap_exp_cost),
                _money(row.total_exp_cost), _money(row.gen_cost),
                _money(row.total_cost),
            )
        click.echo("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    click.echo(f"wrote report to {out_path}")
    statuses = {row.status for row in rows}
    if "error" in statuses:
        raise SystemExit(2)
    raise SystemExit(0 if statuses == {"optimal"} else 1)


if __name__ == "__main__":
    main()
