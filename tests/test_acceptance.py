"""Acceptance gate for the toolkit's shipped guarantees.

One test per guarantee. Each prints a single PASS/FAIL line (visible
with ``pytest -s`` and in failure reports; the ``pytest -v`` status per
test mirrors it) and pins its tolerances inline.
"""

import csv
import json
import math
import time
from decimal import Decimal

import numpy as np
import pytest
from click.testing import CliRunner

from tepkit.cli import main as cli_main
from tepkit.instance import (
    CandidateRules,
    SynthesisConfig,
    builtin_garver,
    synthesize_grid,
)
from tepkit.milp import build_tep_model
from tepkit.model import models_equivalent
from tepkit.mps import export_lp, export_mps, import_mps
from tepkit.network import DRAKE_ACSR, parse_document, to_document
from tepkit.scenario import (
    DemandElasticityConfig,
    ScenarioCode,
    enumerate_scenarios,
    realize_scenario,
)
from tepkit.simplex import PreparedLp
from tepkit.solver import brute_force_solve, check_solution, solve_milp
from tepkit import thermal

# Frozen regression values: bundled 6-bus system, sigma_hours = 8760.0
# (the CLI default), default demand elasticity, default conductor. Any
# drift here means the model builder, scenario realization, or solver
# changed behavior.
SIGMA_HOURS = 8760.0
GARVER_OBJECTIVES = {
    "L,L": 227251333.477120,
    "L,H": 231318001.679693,
    "H,L": 230900302.751648,
    "H,H": 245424473.691441,
}

# Synthetic oracle fixtures: small seeded grids whose optimum is provably
# unique (verified by exhaustive enumeration when the suite runs).
SYNTH_SEEDS = (3, 4, 5, 6, 7, 8, 9, 10, 13, 14)
SYNTH_RULES = CandidateRules(high_gen_mw=120.0, high_demand_mw=60.0,
                             degree_max=1)


def synth_case(seed: int):
    cfg = SynthesisConfig(
        n_buses=5 + seed % 4,
        n_regions=1 + seed % 3,
        seed=seed,
        demand_total_mw=280.0 + 20.0 * (seed % 5),
        candidate_rules=SYNTH_RULES,
    )
    net = synthesize_grid(cfg)
    codes = enumerate_scenarios(cfg.n_regions)
    code = codes[seed % len(codes)]
    params = realize_scenario(code, net, DemandElasticityConfig(), {})
    model, vmap = build_tep_model(net, params, SIGMA_HOURS)
    return net, params, model, vmap


def garver_case(code_str: str):
    net = builtin_garver()
    params = realize_scenario(ScenarioCode.parse(code_str), net,
                              DemandElasticityConfig(), {})
    model, vmap = build_tep_model(net, params, SIGMA_HOURS)
    return net, params, model, vmap


@pytest.fixture(scope="module")
def oracle_study():
    """Solve every oracle fixture twice: branch-and-bound and brute force."""
    records = []
    t0 = time.monotonic()
    for code_str in GARVER_OBJECTIVES:
        net, params, model, vmap = garver_case(code_str)
        records.append({
            "label": f"garver {code_str}", "code": code_str,
            "net": net, "params": params, "model": model, "vmap": vmap,
            "sol": solve_milp(model), "ref": brute_force_solve(model),
        })
    for seed in SYNTH_SEEDS:
        net, params, model, vmap = synth_case(seed)
        records.append({
            "label": f"synthetic seed {seed}", "code": None,
            "net": net, "params": params, "model": model, "vmap": vmap,
            "sol": solve_milp(model), "ref": brute_force_solve(model),
        })
    return {"records": records, "wall_s": time.monotonic() - t0}


def _verdict(ok: bool, line: str) -> None:
    print(("PASS: " if ok else "FAIL: ") + line)
    assert ok, line


def test_criterion_1_oracle_equivalence(oracle_study):
    records, wall = oracle_study["records"], oracle_study["wall_s"]
    ok = len(records) == 4 + len(SYNTH_SEEDS) and wall < 60.0
    for rec in records:
        sol, ref = rec["sol"], rec["ref"]
        n_bin = sum(1 for v in rec["model"].variables if v.kind == "binary")
        ok = ok and n_bin <= 20
        ok = ok and sol.status == "optimal" and ref.status == "optimal"
        if sol.objective is None or ref.objective is None:
            ok = False
            continue
        scale = max(1.0, abs(ref.objective))
        ok = ok and abs(sol.objective - ref.objective) <= 1e-6 * scale
        if rec["code"] is not None:
            pinned = GARVER_OBJECTIVES[rec["code"]]
            ok = ok and abs(ref.objective - pinned) <= 1e-9 * abs(pinned)
    _verdict(ok, "criterion 1 - branch-and-bound matches exhaustive "
                 f"enumeration on {len(records)} instances "
                 f"(rel tol 1e-6, {wall:.1f}s < 60s)")


def test_criterion_2_big_m_validity(oracle_study):
    # Doubling the disjunctive constant must not move the optimum (M is
    # already large enough) and can only weaken the relaxation.
    by_label = {rec["label"]: rec for rec in oracle_study["records"]}
    picks = [f"garver {c}" for c in GARVER_OBJECTIVES]
    picks += ["synthetic seed 9", "synthetic seed 13"]
    ok = True
    for label in picks:
        rec = by_label[label]
        inflated, _ = build_tep_model(rec["net"], rec["params"], SIGMA_HOURS,
                                      big_m_scale=2.0)
        root = PreparedLp(rec["model"]).solve()
        root_inflated = PreparedLp(inflated).solve()
        sol = solve_milp(inflated)
        scale = max(1.0, abs(rec["sol"].objective))
        ok = ok and sol.status == "optimal"
        ok = ok and abs(sol.objective - rec["sol"].objective) <= 1e-6 * scale
        ok = ok and root_inflated.objective <= root.objective + 1e-9 * scale
    _verdict(ok, "criterion 2 - doubling big-M leaves each optimum unchanged "
                 "(rel tol 1e-6) and never raises the root LP bound on "
                 f"{len(picks)} instances")


def _ampacity_transcription(cond, t_amb_c: float) -> float:
    # independent rendering of the steady-state heat balance
    sigma_sb = 5.670374419e-8
    t_c = cond.max_conductor_temp_c
    conv = math.pi * cond.heat_transfer_coeff * cond.diameter_m * (t_c - t_amb_c)
    rad = (math.pi * cond.emissivity * sigma_sb * cond.diameter_m
           * ((t_c + 273.15) ** 4 - (t_amb_c + 273.15) ** 4))
    sun = cond.solar_radiation * cond.diameter_m * cond.absorptivity
    return math.sqrt((conv + rad - sun) / cond.resistance_ohm_per_m)


def test_criterion_3_derating_physics():
    ok = all(thermal.derating_factor(DRAKE_ACSR, t, t) == 1.0
             for t in np.linspace(0.0, 55.0, 12))

    grid = [35.0 + i for i in range(20)]  # 20-point warming grid
    etas = [thermal.derating_factor(DRAKE_ACSR, 30.0, t) for t in grid]
    ok = ok and all(b < a for a, b in zip(etas, etas[1:]))
    ok = ok and all(0.0 < e < 1.0 for e in etas)

    rng = np.random.default_rng(20240817)
    compared = 0
    attempts = 0
    worst = 0.0
    while compared < 100 and attempts < 1000:
        attempts += 1
        cond = type(DRAKE_ACSR)(
            diameter_m=float(rng.uniform(0.01, 0.05)),
            resistance_ohm_per_m=float(rng.uniform(5e-5, 2e-4)),
            emissivity=float(rng.uniform(0.2, 0.95)),
            absorptivity=float(rng.uniform(0.2, 0.95)),
            max_conductor_temp_c=float(rng.uniform(60.0, 100.0)),
            heat_transfer_coeff=float(rng.uniform(5.0, 30.0)),
            solar_radiation=float(rng.uniform(0.0, 300.0)),
        )
        t_amb = cond.max_conductor_temp_c - float(rng.uniform(10.0, 40.0))
        try:
            got = thermal.ampacity(cond, t_amb)
        except (ValueError, thermal.ThermalDomainError):
            continue
        expect = _ampacity_transcription(cond, t_amb)
        worst = max(worst, abs(got - expect) / expect)
        compared += 1
    ok = ok and compared == 100 and worst <= 1e-9
    _verdict(ok, "criterion 3 - unit derating at equal temperatures, strict "
                 "decrease over a 20-point warming grid, ampacity matches an "
                 f"independent transcription (100 draws, worst rel {worst:.2e}"
                 " <= 1e-9)")


def test_criterion_4_trend_fitting(tmp_path):
    series = thermal.AnnualSeries(
        tuple((y, 0.05 * y + 3.0) for y in range(1995, 2015)))
    fit = thermal.fit_trend(series)
    ok = abs(fit.slope_f_per_year - 0.05) <= 1e-12
    ok = ok and abs(fit.intercept_f - 3.0) <= 1e-12 * max(1.0, abs(fit.intercept_f))

    rng = np.random.default_rng(7)
    years = list(range(1990, 2020))
    temps = [95.0 + 0.08 * (y - 1990) + float(rng.normal(0, 0.8)) for y in years]
    noisy = thermal.AnnualSeries(tuple(zip(years, temps)))
    nfit = thermal.fit_trend(noisy)
    resid = [t - nfit.predict(y) for y, t in zip(years, temps)]
    x_bar = sum(years) / len(years)
    scale = len(years) * max(abs(t) for t in temps)
    ok = ok and abs(sum(resid)) <= 1e-9 * scale
    ok = ok and abs(sum(r * (y - x_bar) for r, y in zip(resid, years))) \
        <= 1e-9 * scale * max(abs(y - x_bar) for y in years)

    proj = thermal.project_temperature(nfit, 2010, 2040)
    ok = ok and abs(proj - nfit.slope_f_per_year * 30) \
        <= 1e-12 * max(1.0, abs(proj))

    rows = ["STATION,DATE,TMAX"]
    for year in range(2000, 2012):
        base = 4000 + (5 * (year - 2000)) // 10
        rows += [f"S,{year}-07-{d:02d},{base + 4 * d}" for d in range(1, 16)]
    temps_csv = tmp_path / "tmax.csv"
    temps_csv.write_text("\n".join(rows) + "\n")
    result = CliRunner().invoke(cli_main, ["fit", "--temps", str(temps_csv)],
                                catch_exceptions=False)
    out = result.output
    ok = ok and result.exit_code == 0
    ok = ok and "F (mean)" in out
    ok = ok and out.strip().endswith(
        "published Phoenix-area reference: "
        "+2.6 F by 2035, +3.6 F by 2055, +5.1 F by 2085")
    _verdict(ok, "criterion 4 - collinear recovery to 1e-12, residual "
                 "orthogonality to 1e-9, projections linear in the slope, "
                 "published reference presented alongside fitted projections")


def test_criterion_5_scenario_enumeration_and_sweep(tmp_path):
    codes = enumerate_scenarios(4)
    names = [str(c) for c in codes]
    ok = len(codes) == 16 and len(set(names)) == 16
    ok = ok and names[0] == "L,L,L,L" and names[1] == "L,L,L,H"
    ok = ok and names[-1] == "H,H,H,H"
    ok = ok and all(set(n.split(",")) <= {"L", "H"} and len(n.split(",")) == 4
                    for n in names)

    net = synthesize_grid(SynthesisConfig(n_buses=8, n_regions=4, seed=9,
                                          demand_total_mw=420.0))
    doc_path = tmp_path / "four_region.json"
    doc_path.write_text(json.dumps(to_document(net)))
    out_path = tmp_path / "sweep.csv"
    result = CliRunner().invoke(
        cli_main,
        ["sweep", "--network", str(doc_path), "--sigma-hours", "1.0",
         "--out", str(out_path)],
        catch_exceptions=False)
    ok = ok and result.exit_code == 0
    body = [l for l in out_path.read_text().splitlines()
            if not l.startswith("#")]
    rows = list(csv.reader(body))[1:]
    ok = ok and len(rows) == 16
    ok = ok and [r[0] for r in rows] == names
    builds_seen = 0
    for cells in rows:
        builds_seen += int(cells[1])
        nlc, cec, tec, gc, tc = (Decimal(c) for c in cells[3:])
        ok = ok and nlc + cec == tec and tec + gc == tc
    ok = ok and builds_seen > 0
    _verdict(ok, "criterion 5 - 16 distinct ordered codes for 4 regions and "
                 "a 16-row sweep whose cost columns satisfy the sum "
                 "identities exactly")


def test_criterion_6_derating_monotonicity(oracle_study):
    by_label = {rec["label"]: rec for rec in oracle_study["records"]}
    ok = True
    for label in ("garver H,H", "synthetic seed 5", "synthetic seed 9",
                  "synthetic seed 13"):
        rec = by_label[label]
        objs = []
        for factor in (1.0, 0.95, 0.90):
            params = rec["params"].scaled_eta(factor)
            model, _ = build_tep_model(rec["net"], params, SIGMA_HOURS)
            sol = solve_milp(model)
            ok = ok and sol.status == "optimal"
            objs.append(sol.objective)
        if None in objs:
            ok = False
            continue
        for tighter, looser in zip(objs[1:], objs):
            ok = ok and tighter >= looser - 1e-6 * max(1.0, abs(looser))
    _verdict(ok, "criterion 6 - scaling the derating factor by 0.95 and 0.90 "
                 "never lowers the optimal cost (rel tol 1e-6, 4 instances)")


def test_criterion_7_conservation(oracle_study):
    ok = True
    for rec in oracle_study["records"]:
        net, params, vmap = rec["net"], rec["params"], rec["vmap"]
        values = rec["sol"].values
        total_gen = sum(values[vmap.gen(g.id)] for g in net.generators)
        total_demand = sum(params.gamma(b.region_id) * b.demand_mw / net.base_mva
                           for b in net.buses)
        ok = ok and abs(total_gen - total_demand) <= 1e-6
        report = check_solution(rec["model"], values)
        ok = ok and report.ok
        for bus in net.buses:
            inflow = sum(values[vmap.gen(g.id)]
                         for g in net.generators_at(bus.id))
            for line in net.existing_lines():
                flow = values[vmap.flow_existing(line.id)]
                inflow += flow if line.to_bus == bus.id else 0.0
                inflow -= flow if line.from_bus == bus.id else 0.0
            for line in net.candidate_lines():
                flow = values[vmap.flow_candidate(line.id)]
                inflow += flow if line.to_bus == bus.id else 0.0
                inflow -= flow if line.from_bus == bus.id else 0.0
            target = params.gamma(bus.region_id) * bus.demand_mw / net.base_mva
            ok = ok and abs(inflow - target) <= 1e-6
    _verdict(ok, "criterion 7 - generation balances elasticity-scaled demand "
                 "within 1e-6 p.u. at every bus, confirmed by an independent "
                 "evaluator")


def test_criterion_8_round_trips(oracle_study):
    ok = True
    for rec in oracle_study["records"][:4]:  # the four bundled-system models
        model = rec["model"]
        text = export_mps(model)
        ok = ok and export_mps(model) == text
        back = import_mps(text)
        ok = ok and models_equivalent(model, back, tol=1e-12)
        ok = ok and export_mps(back) == text
        ok = ok and export_lp(model) == export_lp(model)
    net = builtin_garver()
    doc = to_document(net)
    text = json.dumps(doc, sort_keys=True)
    ok = ok and json.dumps(to_document(net), sort_keys=True) == text
    back = parse_document(text)
    ok = ok and to_document(back) == doc
    _verdict(ok, "criterion 8 - MPS round trips preserve models to 1e-12 with "
                 "byte-identical re-export, and network documents round-trip "
                 "exactly")
