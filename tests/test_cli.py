import ast
import csv
import dataclasses
import hashlib
import inspect
import json
import math
import re
import shlex
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import tepkit.cli
import tepkit.milp
import tepkit.solver
from tepkit.cli import main
from tepkit.instance import SynthesisConfig, builtin_garver, synthesize_grid
from tepkit.milp import build_tep_model
from tepkit.model import ModelError
from tepkit.network import conductor, to_document
from tepkit.scenario import (
    DemandElasticityConfig,
    ScenarioCode,
    realize_scenario,
)
from tepkit.simplex import _AT_UPPER, _BASIC, PreparedLp, SimplexError, Tableau
from tepkit.solver import (
    CheckReport,
    SolveOptions,
    check_solution,
    format_solution,
    solve_milp,
    solve_sweep,
)

from conftest import two_bus_net
from test_ledger import GARVER_SWEEP_LEDGER, GARVER_SWEEP_OBJECTIVES, W2_SWEEP_LEDGER


@pytest.fixture(scope="module")
def garver_doc(tmp_path_factory):
    path = tmp_path_factory.mktemp("nets") / "garver.json"
    path.write_text(json.dumps(to_document(builtin_garver())))
    return str(path)


@pytest.fixture(scope="module")
def tight_doc(tmp_path_factory):
    # high-demand scenarios outgrow the single generator: 1.02 * 193 fits
    # under 200 MW of capacity, 1.05 * 193 does not
    path = tmp_path_factory.mktemp("nets") / "tight.json"
    path.write_text(json.dumps(to_document(two_bus_net(193.0, 250.0))))
    return str(path)


def run(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def test_validate_ok(garver_doc):
    result = run("validate", "--network", garver_doc)
    assert result.exit_code == 0
    assert result.output.strip() == "ok: 6 buses, 14 lines, 3 generators, 2 regions"


def test_validate_reports_violations(tmp_path):
    doc = to_document(builtin_garver())
    doc["generators"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    result = run("validate", "--network", str(bad))
    assert result.exit_code == 1
    assert "generator" in result.output


def test_validate_rejects_a_line_conductor(tmp_path):
    doc = to_document(builtin_garver())
    doc["lines"][0]["conductor"] = {"max_conductor_temp_c": 50.0, "diameter_m": 0.01}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    result = run("validate", "--network", str(bad))
    assert result.exit_code == 1
    assert result.output == f"error: {bad}: unknown lines[0] field(s) ['conductor']\n"


def test_derate_identity_and_override(tmp_path):
    result = run("derate", "--t-base-f", "100", "--t-future-f", "100")
    assert result.exit_code == 0
    assert result.output.strip() == "derating factor eta = 1.0"

    warmer = run("derate", "--t-base-f", "100", "--t-future-f", "110")
    value = float(warmer.output.split("=")[1])
    assert 0.0 < value < 1.0

    override = tmp_path / "cond.json"
    override.write_text(json.dumps({"emissivity": 0.95}))
    custom = run("derate", "--t-base-f", "100", "--t-future-f", "110",
                 "--conductor-json", str(override))
    assert custom.exit_code == 0
    assert float(custom.output.split("=")[1]) != value

    override.write_text(json.dumps({"paint": 1.0}))
    bad = run("derate", "--t-base-f", "100", "--t-future-f", "110",
              "--conductor-json", str(override))
    assert bad.exit_code == 1
    assert "unknown conductor field" in bad.output

    override.write_text(json.dumps({"emissivity": 1.5}))
    unphysical = run("derate", "--t-base-f", "100", "--t-future-f", "110",
                     "--conductor-json", str(override))
    assert unphysical.exit_code == 1
    assert "conductor.emissivity must be in (0, 1] (got 1.5)" in unphysical.output


@pytest.mark.parametrize("future, line", [
    # the line names the option as typed, in degrees F
    ("200", "error: --t-future-f 200.0 F must be below the conductor limit 167.0 F\n"),
    ("80", "error: --t-future-f 80.0 F must be >= --t-base-f 90.0 F\n"),
    ("nan", "error: --t-future-f is NaN; it must be a temperature in degrees F\n"),
])
def test_derate_out_of_range_is_one_line_and_exit_1(future, line):
    result = run("derate", "--t-base-f", "90", "--t-future-f", future)
    assert result.exit_code == 1
    assert result.output == line


def test_cli_imports_no_private_name_of_another_module():
    # what the commands share with the library, such as the ambient checks
    # of `derate` and of a scenario, is public there
    tree = ast.parse(inspect.getsource(tepkit.cli))
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("tepkit"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("base, future, line", [
    # each used to print an eta and exit 0
    ("200", "200", "error: --t-future-f 200.0 F must be below the conductor limit 167.0 F\n"),
    ("inf", "inf", "error: --t-future-f inf F must be below the conductor limit 167.0 F\n"),
    ("-inf", "0", "error: --t-base-f -inf F must be above absolute zero (-459.67 F)\n"),
    ("-1000", "-900", "error: --t-base-f -1000.0 F must be above absolute zero (-459.67 F)\n"),
], ids=["hot", "inf", "minus-inf", "below-absolute-zero"])
def test_derate_rejects_an_ambient_the_conductor_cannot_be_rated_at(base, future, line):
    result = run("derate", "--t-base-f", base, "--t-future-f", future)
    assert result.exit_code == 1
    assert result.output == line


def test_derate_rounds_the_conductor_limit_as_a_scenario_does(tmp_path):
    # 80.7 C is 177.26000000000002 F in binary arithmetic; both messages
    # quote it as 177.26 F
    cond = tmp_path / "cond.json"
    cond.write_text(json.dumps({"max_conductor_temp_c": 80.7}))
    result = run("derate", "--t-base-f", "90", "--t-future-f", "190",
                 "--conductor-json", str(cond))
    assert result.exit_code == 1
    assert result.output == ("error: --t-future-f 190.0 F must be below the conductor "
                             "limit 177.26 F\n")
    net = builtin_garver()
    hot = dataclasses.replace(net, regions=tuple(
        dataclasses.replace(r, base_peak_temp_f=185.0) for r in net.regions))
    with pytest.raises(ValueError, match=r"must be below the conductor limit 177\.26 F$"):
        realize_scenario(ScenarioCode.parse("L,L"), hot, conductors={
            r.id: conductor({"max_conductor_temp_c": 80.7}, "conductor") for r in net.regions})


def test_derate_without_headroom_names_the_option_in_f(tmp_path):
    # 5 kW/m^2 of sun outweighs the cooling at 100 F; the line names that
    # option as typed and quotes no Celsius ambient
    sunny = tmp_path / "sun.json"
    sunny.write_text(json.dumps({"solar_radiation": 5000}))
    result = run("derate", "--t-base-f", "90", "--t-future-f", "100",
                 "--conductor-json", str(sunny))
    assert result.exit_code == 1
    assert result.output == (
        "error: --t-future-f 100.0 F leaves the conductor no thermal headroom: "
        "convection 49.289 + radiation 21.405 W/m do not cover solar gain 112.400 W/m\n")
    assert " C" not in result.output


@pytest.mark.parametrize("rows, line", [
    # a non-finite TMAX used to fit slope nan and exit 0
    (["X,2001-07-01,nan", "X,2002-07-01,inf", "X,2003-07-01,300"],
     "error: temperature CSV line 2: column 'TMAX' is not a finite number: 'nan'\n"),
    (["X,2001-07-01,300", "X,2002-07-01,inf"],
     "error: temperature CSV line 3: column 'TMAX' is not a finite number: 'inf'\n"),
    (["X,2001-07-01,300", "X,2002-07-01,abc"],
     "error: temperature CSV line 3: column 'TMAX' is not a finite number: 'abc'\n"),
    (["X,2001-07-01,300", "", "X,2002-13-01,310"],
     "error: temperature CSV line 4: column 'DATE' is not an ISO date: '2002-13-01'\n"),
], ids=["nan", "inf", "abc", "month"])
def test_fit_rejects_a_bad_cell_with_its_line_and_column(tmp_path, rows, line):
    path = tmp_path / "tmax.csv"
    path.write_text("\n".join(["STATION,DATE,TMAX", *rows]) + "\n")
    result = run("fit", "--k", "1", "--temps", str(path))
    assert result.exit_code == 1
    assert result.output == line


def fake_ghcn(tmp_path) -> str:
    # ~0.05 C/yr warming with 15 July readings per year, tenths of a degree
    lines = ["STATION,DATE,TMAX"]
    lines.append("USW00023183,1999-07-01,398")  # lone day: year is skipped
    for year in range(2000, 2012):
        base = 4000 + (5 * (year - 2000)) // 10
        for day in range(1, 16):
            lines.append(f"USW00023183,{year}-07-{day:02d},{base + 4 * day}")
    lines.append("USW00023183,2011-08-01,")  # missing TMAX
    path = tmp_path / "tmax.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_fit_reports_trends_and_reference(tmp_path):
    result = run("fit", "--temps", fake_ghcn(tmp_path), "--k", "10")
    assert result.exit_code == 0
    out = result.output
    assert "note: skipped 1 rows with missing TMAX" in out
    assert "note: skipped years with too few records: 1999" in out
    assert "mean trend: slope" in out
    assert "exceedance trend:" in out
    assert "projected increase from 2000:" in out
    for year in ("2035", "2055", "2085"):
        assert f"  {year}  +" in out
    assert out.strip().endswith(
        "published Phoenix-area reference: "
        "+2.6 F by 2035, +3.6 F by 2055, +5.1 F by 2085")
    # the synthetic series warms ~0.09 F/yr (0.05 C/yr), so 35 years is ~3 F
    mean_line = next(l for l in out.splitlines() if l.startswith("  2035"))
    increase = float(mean_line.split("+")[1].split(" ")[0])
    assert 2.0 < increase < 4.5


def test_fit_needs_two_years(tmp_path):
    path = tmp_path / "short.csv"
    rows = ["STATION,DATE,TMAX"]
    rows += [f"X,2005-07-{d:02d},400" for d in range(1, 16)]
    path.write_text("\n".join(rows) + "\n")
    result = run("fit", "--temps", str(path))
    assert result.exit_code == 1
    assert "error:" in result.output


def test_build_is_deterministic(garver_doc, tmp_path):
    out1 = tmp_path / "a.mps"
    out2 = tmp_path / "b.mps"
    r1 = run("build", "--network", garver_doc, "--scenario", "H,L",
             "--out", str(out1))
    r2 = run("build", "--network", garver_doc, "--scenario", "H,L",
             "--out", str(out2))
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "model tepHL" in r1.output
    assert "variables 34 (binary 11, continuous 23)" in r1.output
    assert "constraints 76 (<= 33, = 12, >= 31)" in r1.output
    assert f"wrote mps model to {out1}" in r1.output

    lp = tmp_path / "m.lp"
    r3 = run("build", "--network", garver_doc, "--scenario", "H,L",
             "--format", "lp", "--out", str(lp))
    assert r3.exit_code == 0
    assert lp.read_text().startswith("\\ model tepHL")


@pytest.mark.parametrize("fmt, digest", [
    ("mps", "999f8c92282a6bb12fcd59158181f1a206812bce9d3bfb289cb217f469f43e78"),
    ("lp", "0e7637969e38d0fe3a3c7c5f72bc54c5ad40cedfbf0c20c488786ded287cd1f1"),
])
def test_build_bytes_are_pinned(garver_doc, tmp_path, fmt, digest):
    out = tmp_path / f"garver.{fmt}"
    result = run("build", "--network", garver_doc, "--scenario", "H,L",
                 "--format", fmt, "--out", str(out))
    assert result.exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_build_rejects_bad_scenario_code(garver_doc, tmp_path):
    result = run("build", "--network", garver_doc, "--scenario", "X,Y",
                 "--out", str(tmp_path / "x.mps"))
    assert result.exit_code == 1
    assert "error:" in result.output


@pytest.mark.parametrize("fmt", ["mps", "lp"])
def test_build_model_error_is_one_line_and_exit_1(garver_doc, tmp_path, fmt):
    # sigma_hours * cost * base overflows to inf: the export's model check
    # refuses the objective, and build names it in one line, as solve does
    out = tmp_path / f"big.{fmt}"
    for command in (["build", "--format", fmt, "--out", str(out)], ["solve"]):
        result = run(*command, "--network", garver_doc, "--scenario", "L,L",
                     "--sigma-hours", "1e308")
        assert result.exit_code == 1, command
        assert result.output == "error: objective: coefficient inf of 'g1'\n", command
    assert not out.exists()


@pytest.mark.parametrize("args", [
    "validate --network BAD",
    "build --network BAD --scenario H,L --out OUT",
    "solve --network BAD --scenario H,L",
    "sweep --network BAD --out OUT",
    "fit --temps BAD",
    "derate --t-base-f 90 --t-future-f 100 --conductor-json BAD",
    "solve --network NET --scenario H,L --scenarios BAD",
])
def test_a_file_that_is_not_utf8_is_one_line_naming_it_and_exit_1(garver_doc, tmp_path, args):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b"\xff")  # never UTF-8
    out = tmp_path / "out"
    paths = {"BAD": str(bad), "NET": garver_doc, "OUT": str(out)}
    result = run(*(paths.get(arg, arg) for arg in args.split()))
    assert result.exit_code == 1
    assert result.output == (f"error: {bad}: 'utf-8' codec can't decode byte 0xff "
                             "in position 0: invalid start byte\n")
    assert not out.exists()


def test_solve_matches_library(garver_doc, tmp_path):
    sol_path = tmp_path / "plan.sol"
    result = run("solve", "--network", garver_doc, "--scenario", "L,L",
                 "--sigma-hours", "1.0", "--out", str(sol_path))
    assert result.exit_code == 0
    lines = dict(
        (l.split(maxsplit=1)[0], l.split(maxsplit=1)[1].strip())
        for l in result.output.splitlines() if l and not l.startswith("wrote"))
    assert lines["status"] == "optimal"

    net = builtin_garver()
    params = realize_scenario(ScenarioCode.parse("L,L"), net,
                              DemandElasticityConfig(), {})
    model, _ = build_tep_model(net, params, 1.0)
    expected = solve_milp(model)
    assert float(lines["objective"]) == pytest.approx(expected.objective,
                                                      rel=1e-12)
    assert sol_path.read_text() == format_solution(expected)
    report = check_solution(model, expected.values)
    assert report.ok
    assert report.objective == pytest.approx(expected.objective, rel=1e-12)


def test_solve_exit_code_tracks_status(tight_doc):
    ok = run("solve", "--network", tight_doc, "--scenario", "L",
             "--sigma-hours", "1.0")
    assert ok.exit_code == 0
    bad = run("solve", "--network", tight_doc, "--scenario", "H",
              "--sigma-hours", "1.0")
    assert bad.exit_code == 1
    assert "status     infeasible" in bad.output


@pytest.mark.parametrize("extra, status", [
    (["--scenarios", None], "infeasible"),
    (["--time-limit", "0.0005"], "time_limit"),
])
def test_solve_out_is_written_for_a_search_without_a_point(garver_doc, tmp_path, extra, status):
    # demand this elastic outgrows every plan; a stale file at --out is
    # replaced by the search's status line, as for any other status
    config = tmp_path / "elastic.json"
    config.write_text(json.dumps({"elasticity": {"gamma_low": 1.0, "gamma_high": 40.0}}))
    sol_path = tmp_path / "plan.sol"
    sol_path.write_text("stale\n")
    extra = [str(config) if arg is None else arg for arg in extra]
    result = run("solve", "--network", garver_doc, "--scenario", "H,H", *extra,
                 "--out", str(sol_path))
    assert result.exit_code == 1
    assert f"status     {status}" in result.output
    assert f"wrote solution to {sol_path}" in result.output
    assert sol_path.read_text().splitlines()[0] == f"# status {status}"
    if status == "infeasible":
        assert sol_path.read_text() == "# status infeasible\n"


def sweep_rows(path):
    body = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    rows = list(csv.reader(body))
    assert rows[0] == ["scenario", "new_lines_built", "cap_exp_built",
                       "new_line_cost", "cap_exp_cost", "total_exp_cost",
                       "gen_cost", "total_cost"]
    return rows[1:]


def test_sweep_garver_table(garver_doc, tmp_path):
    out = tmp_path / "sweep.csv"
    result = run("sweep", "--network", garver_doc,
                 "--sigma-hours", "1.0", "--out", str(out))
    assert result.exit_code == 0
    assert f"# network={garver_doc}" in result.output
    assert "# regions=2 scenario_count=4" in result.output
    rows = sweep_rows(out)
    assert [r[0] for r in rows] == ["L,L", "L,H", "H,L", "H,H"]
    for cells in rows:
        built, expanded = int(cells[1]), int(cells[2])
        nlc, cec, tec, gc, tc = (Decimal(c) for c in cells[3:])
        assert built >= 0 and expanded >= 0
        assert nlc + cec == tec
        assert tec + gc == tc
        assert (built == 0) == (nlc == 0)
    # warmer scenarios never get cheaper
    totals = [Decimal(r[-1]) for r in rows]
    assert totals[3] >= totals[0]
    assert "$ " in result.output  # human table renders in billions


GARVER_SWEEP_ROWS = [
    '"L,L",3,2,91000000.000000,20800000.000000,111800000.000000,115451333.477120,227251333.477120',
    '"L,H",3,2,93600000.000000,20800000.000000,114400000.000000,116918001.679693,231318001.679693',
    '"H,L",3,2,93600000.000000,20800000.000000,114400000.000000,116500302.751648,230900302.751648',
    '"H,H",4,1,121800000.000000,11700000.000000,133500000.000000,111924473.691441,245424473.691441',
]


# SHA-256 of the console output of the default Garver sweep, less its two
# lines that name a path (# network=..., wrote report to ...), each line
# ending in "\n": the header comments and the table in billions
GARVER_SWEEP_TABLE_SHA256 = "157a060a52cba02f3e7d997ac5eb17d95dcc7d780a1c00d6bd4632787bc4e302"


def test_sweep_garver_report_rows_are_pinned(garver_doc, tmp_path):
    # byte-for-byte at the default --sigma-hours, so that a change in how
    # the scenarios are solved (such as warm starts) cannot move a plan or
    # the last printed digit of a cost
    out = tmp_path / "sweep.csv"
    result = run("sweep", "--network", garver_doc, "--out", str(out))
    assert result.exit_code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[1:] == GARVER_SWEEP_ROWS
    table = "".join(line + "\n" for line in result.output.splitlines()
                    if not line.startswith(("# network=", "wrote report to")))
    assert hashlib.sha256(table.encode()).hexdigest() == GARVER_SWEEP_TABLE_SHA256


def test_sweep_garver_pivots_are_pinned(garver_doc, tmp_path, monkeypatch):
    # each Garver scenario's nodes (the LP solves: a node closed by its
    # branching penalty is not among them), simplex iterations, LAPACK
    # refactorizations (none: every node starts from a tableau) and
    # objective repr through the CLI at the default options, as the work
    # ledger pins them. They follow from every pivot the simplex chooses,
    # so a kernel rewrite that picks any other pivot, or rounds any step
    # differently, changes them
    results = _recording_solve_sweep(monkeypatch)
    result = run("sweep", "--network", garver_doc, "--out", str(tmp_path / "sweep.csv"))
    assert result.exit_code == 0
    assert [(sol.stats["nodes"], sol.stats["simplex_iterations"], sol.stats["refactorizations"],
             repr(sol.objective)) for sol in results] == [
        (nodes, iterations, refactorizations, GARVER_SWEEP_OBJECTIVES[code])
        for code, (nodes, _, iterations, refactorizations) in GARVER_SWEEP_LEDGER.items()]


def _sweep_with_lp_log(doc, out):
    """Run `sweep` on `doc`; return its data rows, the results solve_sweep
    yielded and the (status, iterations) of every LP solve."""
    lps = []
    solve = PreparedLp.solve

    def recording(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        lps.append((result.status, result.iterations))
        return result

    with pytest.MonkeyPatch.context() as mp:
        results = _recording_solve_sweep(mp)
        mp.setattr(PreparedLp, "solve", recording)
        assert run("sweep", "--network", doc, "--out", str(out)).exit_code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    return rows, results, lps


def test_hand_over_roots_flip_a_slack_to_the_bound_its_row_implies(
        garver_doc, tmp_path, monkeypatch):
    # the roots of H,L and H,H continue on the previous scenario's root
    # tableau, which prices the slack of one <= row (mx1, then bmu8) as
    # gaining by rising. The slack has no upper bound, so it gets the one
    # its row implies and flips to it. No other LP of the sweep needs an
    # implied bound, and the plans and report rows are the pinned ones
    solves, flips = [], []
    solve, dual_costs = Tableau.solve, Tableau._dual_costs

    def counting(run, start):
        solves.append(run)
        return solve(run, start)

    def recording(run):
        unboxed = ~(np.isfinite(run.lower) & np.isfinite(run.upper))
        z = dual_costs(run)
        for j in np.flatnonzero(unboxed & np.isfinite(run.lower) & np.isfinite(run.upper)):
            row = run.prep.kept_rows[j - run.prep.n]  # the model row that stands for it
            flips.append((len(solves) - 1, run.prep.rows[row],
                          run.state[j] == _AT_UPPER and run.x_nonbasic[j] == run.upper[j]))
        return z

    monkeypatch.setattr(Tableau, "solve", counting)
    monkeypatch.setattr(Tableau, "_dual_costs", recording)
    rows, results, lps = _sweep_with_lp_log(garver_doc, tmp_path / "sweep.csv")
    hl_root = sum(sol.stats["nodes"] for sol in results[:2])
    hh_root = hl_root + results[2].stats["nodes"]
    assert flips == [(hl_root, "mx1", True), (hh_root, "bmu8", True)]
    assert rows[1:] == GARVER_SWEEP_ROWS
    model = build_tep_model(builtin_garver(), realize_scenario(
        ScenarioCode.parse("H,L"), builtin_garver()), 8760.0)[0]
    plans = [sorted(v.name for v in model.binaries() if round(sol.values[v.name]))
             for sol in results[2:]]
    assert plans == [["y7", "y8", "y9", "z4", "z6"], ["y12", "y13", "y7", "y8", "z6"]]


@pytest.mark.parametrize("network, one_step", [
    (network, sum(closed for _, closed, *_ in ledger.values()))
    for network, ledger in (("garver", GARVER_SWEEP_LEDGER), ("w2", W2_SWEEP_LEDGER))])
def test_nodes_closed_by_their_penalty_are_the_one_step_cutoffs(
        network, one_step, garver_doc, tmp_path, monkeypatch):
    # a child closed by its branching penalty is one whose LP would have
    # ended cutoff after its first dual step; with every penalty -inf each
    # such child solves its LP, and nothing else in the search moves
    if network == "garver":
        doc = garver_doc
    else:
        doc = tmp_path / "w2.json"
        doc.write_text(json.dumps(to_document(synthesize_grid(SynthesisConfig(
            n_buses=24, n_regions=4, seed=1, demand_total_mw=720.0)))))
        doc = str(doc)
    rows, results, lps = _sweep_with_lp_log(doc, tmp_path / "closed.csv")
    monkeypatch.setattr(tepkit.solver, "branch_bounds",
                        lambda result, name: (-math.inf, -math.inf))
    open_rows, open_results, open_lps = _sweep_with_lp_log(doc, tmp_path / "open.csv")
    assert open_rows == rows
    assert ([repr(sol.objective) for sol in open_results]
            == [repr(sol.objective) for sol in results])
    # nodes counts the LP solves, closed_nodes the others
    assert sum(sol.stats["nodes"] for sol in results) == len(lps)
    assert sum(sol.stats["nodes"] for sol in open_results) == len(open_lps)
    assert sum(sol.stats["closed_nodes"] for sol in open_results) == 0
    closed = sum(sol.stats["closed_nodes"] for sol in results)
    assert closed == sum(1 for status, iterations in open_lps
                         if status == "cutoff" and iterations == 1) == one_step
    # every other LP keeps its place, its outcome and its iterations
    assert [lp for lp in open_lps if lp != ("cutoff", 1)] == lps


def _sweep_lp_log(doc, out, reference=None):
    """Run `sweep` on `doc`; return its data rows and the (status,
    iterations, refactorizations, objective repr) of every LP solve. With a
    `reference` log, stop at the first LP that differs from it."""
    lps = []
    solve = PreparedLp.solve

    def recording(self, *args, **kwargs):
        result = solve(self, *args, **kwargs)
        lp = (result.status, result.iterations, result.refactorizations, repr(result.objective))
        if reference is not None:
            assert lp == reference[len(lps)], f"LP {len(lps)} differs"
        lps.append(lp)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PreparedLp, "solve", recording)
        assert run("sweep", "--network", doc, "--out", str(out)).exit_code == 0
    return [l for l in out.read_text().splitlines() if not l.startswith("#")], lps


@pytest.mark.parametrize("network, continued, lps", [("garver", 132, 133), ("w2", 15, 16)])
def test_every_tableau_start_continues_its_solve_bit_for_bit(
        network, continued, lps, garver_doc, tmp_path, monkeypatch):
    # every start with B^-1*A (a dive child's, a sibling's copy, the next
    # scenario's root) continues the solve that left it: it adopts that
    # solve's state and settles again only the columns whose bounds moved.
    # Derived instead under the solve's own bounds, every column outside
    # the basis settled and every basic row given its bounds, every LP and
    # every row stay as they are. Only the sweep's first root starts
    # from the slack basis, without B^-1*A
    if network == "garver":
        doc = garver_doc
    else:
        doc = tmp_path / "w2.json"
        doc.write_text(json.dumps(to_document(synthesize_grid(SynthesisConfig(
            n_buses=24, n_regions=4, seed=1, demand_total_mw=720.0)))))
        doc = str(doc)
    load = Tableau._load

    def derived(t, start):
        # settle the start under this solve's bounds in full, as the slack
        # start is settled; _load then finds no column whose bounds moved
        start.lower, start.upper, start.fixed = t.lower, t.upper, t.fixed
        start._settle(np.flatnonzero(start.state != _BASIC))
        load(t, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tableau, "_load", derived)
        full_rows, full_lps = _sweep_lp_log(doc, tmp_path / "full.csv")
    starts = []

    def recording(t, start):
        starts.append(start.matrix is not None)
        load(t, start)

    monkeypatch.setattr(Tableau, "_load", recording)
    rows, shipped_lps = _sweep_lp_log(doc, tmp_path / "shipped.csv", full_lps)
    assert shipped_lps == full_lps and rows == full_rows
    assert len(shipped_lps) == len(starts) == lps
    assert sum(starts) == continued
    assert starts[0] is False


def test_sweep_flags_non_optimal_rows(tight_doc, tmp_path):
    out = tmp_path / "tight.csv"
    result = run("sweep", "--network", tight_doc,
                 "--sigma-hours", "1.0", "--out", str(out))
    assert result.exit_code == 1
    rows = sweep_rows(out)
    assert len(rows) == 2
    assert rows[0][0] == "L" and rows[0][1] == "0"
    assert Decimal(rows[0][-1]) > 0
    assert rows[1] == ["H", "", "", "", "", "", "", ""]
    assert "(infeasible)" in result.output


def test_sweep_row_of_a_time_limited_scenario_is_empty(garver_doc, tmp_path, monkeypatch):
    # a time-limited search keeps its incumbent as a point, but that point
    # is not the scenario's answer: its row used to print its costs as if
    # they were proven. The optimal rows keep their bytes
    def limited(models, options=None):  # L,H, the second scenario, ran out of time
        for i, result in enumerate(solve_sweep(models, options)):
            yield dataclasses.replace(result, status="time_limit") if i == 1 else result

    monkeypatch.setattr(tepkit.cli, "solve_sweep", limited)
    out = tmp_path / "sweep.csv"
    result = run("sweep", "--network", garver_doc, "--out", str(out))
    assert result.exit_code == 1
    assert "(time_limit)" in result.output
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[1:] == [GARVER_SWEEP_ROWS[0], '"L,H",,,,,,,', *GARVER_SWEEP_ROWS[2:]]


def test_solve_engine_failure_is_one_line_and_exit_2(garver_doc, monkeypatch):
    def broken(model, options=None):
        raise SimplexError("basis matrix became singular")

    monkeypatch.setattr(tepkit.cli, "solve_milp", broken)
    result = run("solve", "--network", garver_doc, "--scenario", "L,L")
    assert result.exit_code == 2
    assert result.output == "status     error: basis matrix became singular\n"


def test_sweep_engine_failure_keeps_other_rows(garver_doc, tmp_path,
                                               monkeypatch):
    # an engine error, or a model the engine refuses, ends its scenario only
    search = tepkit.solver._BranchAndBound.run
    for error in (SimplexError("basis matrix became singular"),
                  ModelError("variable 'x' needs finite bounds")):
        def fails_on_lh(self):
            if self.prep.model.name == "tepLH":
                raise error
            return search(self)

        monkeypatch.setattr(tepkit.solver._BranchAndBound, "run", fails_on_lh)
        out = tmp_path / "sweep.csv"
        result = run("sweep", "--network", garver_doc, "--sigma-hours", "1.0",
                     "--out", str(out))
        assert result.exit_code == 2
        assert f"error: scenario L,H: {error}" in result.output
        assert "(error)" in result.output
        rows = sweep_rows(out)
        assert [r[0] for r in rows] == ["L,L", "L,H", "H,L", "H,H"]
        assert rows[1] == ["L,H", "", "", "", "", "", "", ""]
        assert all(Decimal(r[-1]) > 0 for r in rows if r[0] != "L,H")


def test_sweep_failure_after_the_solve_starts_the_next_scenario_afresh(
        garver_doc, tmp_path, monkeypatch):
    # L,H fails in the checker, after its root LP took L,L's tableau over;
    # H,L then starts from the slack basis and still gives the pinned row
    def fails_on_lh(model, values, **kwargs):
        if model.name == "tepLH":
            return CheckReport(False, ("forced failure",), 0.0)
        return check_solution(model, values, **kwargs)

    monkeypatch.setattr(tepkit.solver, "check_solution", fails_on_lh)
    starts = _recording_root_starts(monkeypatch)
    out = tmp_path / "sweep.csv"
    result = run("sweep", "--network", garver_doc, "--out", str(out))
    assert result.exit_code == 2
    assert "error: scenario L,H: solution failed independent verification: forced failure" \
        in result.output
    assert [name for name, _ in starts] == ["tepLL", "tepLH", "tepHL", "tepHH"]
    assert isinstance(starts[1][1], Tableau)
    assert starts[2][1] is None
    assert isinstance(starts[3][1], Tableau)
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[1:] == [GARVER_SWEEP_ROWS[0], '"L,H",,,,,,,', *GARVER_SWEEP_ROWS[2:]]


def _recording_solve_sweep(monkeypatch):
    """Wrap the CLI's solve_sweep; return the list of the results it
    yields."""
    results = []

    def recording(models, options=None):
        for result in solve_sweep(models, options):
            results.append(result)
            yield result

    monkeypatch.setattr(tepkit.cli, "solve_sweep", recording)
    return results


def _recording_root_starts(monkeypatch):
    """Wrap PreparedLp.solve; return the list of the (model name, start)
    pairs of its root solves, the ones without bound overrides."""
    starts = []
    solve = PreparedLp.solve

    def recording(self, bound_overrides=None, *, start=None, **kwargs):
        if not bound_overrides:
            starts.append((self.model.name, start))
        return solve(self, bound_overrides, start=start, **kwargs)

    monkeypatch.setattr(PreparedLp, "solve", recording)
    return starts


# SHA-256 of the data rows (column titles excluded, each line ending in
# "\n") of the default sweep over synthesize_grid(24 buses, 4 regions,
# seed 1, 720 MW)
SYNTH_SWEEP_ROWS_SHA256 = "6908f239cd0283d16bce04cde0ea21dc54fddcebf43a8a1bd30acf0d8fb1075b"


def test_sweep_carries_one_factorization_across_scenarios(tmp_path, monkeypatch):
    # each root LP continues on the previous scenario's root tableau and the
    # first starts from the slack basis; all 16 roots are integral here, so
    # the whole sweep needs no LAPACK call
    net = synthesize_grid(SynthesisConfig(n_buses=24, n_regions=4, seed=1,
                                          demand_total_mw=720.0))
    doc = tmp_path / "synth.json"
    doc.write_text(json.dumps(to_document(net)))
    results = _recording_solve_sweep(monkeypatch)
    starts = _recording_root_starts(monkeypatch)
    out = tmp_path / "sweep.csv"
    result = run("sweep", "--network", str(doc), "--out", str(out))
    assert result.exit_code == 0
    assert len(results) == 16 and len(starts) == 16
    assert starts[0][1] is None
    assert all(isinstance(start, Tableau) for _, start in starts[1:])
    assert sum(sol.stats["refactorizations"] for sol in results) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rows = "".join(line + "\n" for line in lines[1:])
    assert hashlib.sha256(rows.encode()).hexdigest() == SYNTH_SWEEP_ROWS_SHA256


def test_sweep_builds_validates_and_compiles_its_model_once(tmp_path, monkeypatch):
    # one skeleton per sweep, validated once by the builder (and once by the
    # loader); each scenario's compile is derived from the previous one's,
    # and the integral roots hand their live tableaux on without a copy
    net = synthesize_grid(SynthesisConfig(n_buses=24, n_regions=4, seed=1,
                                          demand_total_mw=720.0))
    doc = tmp_path / "synth.json"
    doc.write_text(json.dumps(to_document(net)))
    counts = {"validate": 0, "compile": 0, "copy": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tepkit.milp, "validate", counting("validate", tepkit.milp.validate))
    monkeypatch.setattr(PreparedLp, "__init__", counting("compile", PreparedLp.__init__))
    real_copy = Tableau.copy

    def copy(tableau):  # counts the copies that carry B^-1*A
        twin = real_copy(tableau)
        counts["copy"] += twin.matrix is not None
        return twin

    monkeypatch.setattr(Tableau, "copy", copy)
    out = tmp_path / "sweep.csv"
    result = run("sweep", "--network", str(doc), "--out", str(out))
    assert result.exit_code == 0
    assert counts == {"validate": 1, "compile": 1, "copy": 0}
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    rows = "".join(line + "\n" for line in lines[1:])
    assert hashlib.sha256(rows.encode()).hexdigest() == SYNTH_SWEEP_ROWS_SHA256


def test_sweep_without_binaries_carries_the_tableau(tmp_path, monkeypatch):
    # no candidate and no expandable line: every scenario is one LP
    doc = tmp_path / "plain.json"
    doc.write_text(json.dumps(to_document(two_bus_net())))
    results = _recording_solve_sweep(monkeypatch)
    starts = _recording_root_starts(monkeypatch)
    out = tmp_path / "sweep.csv"
    result = run("sweep", "--network", str(doc), "--out", str(out))
    assert result.exit_code == 0
    first, second = results
    assert first.stats["nodes"] == 1 and first.stats["refactorizations"] == 0
    assert [type(start) for _, start in starts] == [type(None), Tableau]
    assert second.stats["refactorizations"] == 0
    params = realize_scenario(ScenarioCode.parse("H"), two_bus_net(),
                              DemandElasticityConfig())
    cold = solve_milp(build_tep_model(two_bus_net(), params, 8760.0)[0])
    assert second.objective == pytest.approx(cold.objective, rel=1e-12)
    assert second.values == pytest.approx(cold.values, rel=1e-9, abs=1e-9)


def test_sweep_realization_error_is_one_line_and_exit_1(garver_doc, tmp_path):
    # a conductor limit below region 1's ambient cannot be derated
    config = tmp_path / "hot.json"
    config.write_text(json.dumps(
        {"conductor_overrides": {"1": {"max_conductor_temp_c": 30.0}}}))
    out = tmp_path / "sweep.csv"
    result = CliRunner().invoke(main, [
        "sweep", "--network", garver_doc, "--scenarios", str(config),
        "--out", str(out)])
    assert isinstance(result.exception, SystemExit)
    assert result.exit_code == 1
    assert result.output == ("error: scenario L,L: region 1: peak ambient 107.7 F must be "
                             "below the conductor limit 86.0 F\n")
    assert not out.exists()


@pytest.mark.parametrize("base_f, command, line", [
    (-600, "validate", "region 2: base_peak_temp_f must be above absolute zero (-459.67 F) "
                       "(got -600.0)\n"),
    (170, "sweep", "error: scenario L,L: region 2: peak ambient 172.6 F must be below the "
                   "conductor limit 167.0 F\n"),
], ids=["validate", "sweep"])
def test_region_temperature_errors_name_the_region_in_f(tmp_path, base_f, command, line):
    # -600 F used to pass validate and sweep; 170 F ended the sweep in C
    doc = to_document(builtin_garver())
    doc["regions"][1]["base_peak_temp_f"] = base_f
    path = tmp_path / "garver.json"
    path.write_text(json.dumps(doc))
    args = ["--network", str(path)]
    if command == "sweep":
        args += ["--out", str(tmp_path / "sweep.csv")]
    result = run(command, *args)
    assert result.exit_code == 1
    assert result.output == line
    assert not (tmp_path / "sweep.csv").exists()


BAD_SOLVER_OPTION_LINES = {
    ("--gap", "-1"): "error: --gap must be nonnegative, got -1.0\n",
    ("--gap", "nan"): "error: --gap is NaN; it must be a nonnegative number\n",
    ("--time-limit", "0"): "error: --time-limit must be positive, got 0.0\n",
    ("--time-limit", "nan"):
        "error: --time-limit is NaN; it must be a positive number of seconds\n",
}


@pytest.mark.parametrize("option, message", [
    (["--gap", "-1"], "rel_gap_tol must be nonnegative"),
    (["--gap", "nan"], "rel_gap_tol must be nonnegative"),
    (["--time-limit", "0"], "time_limit_s must be positive"),
    (["--time-limit", "nan"], "time_limit_s must be positive"),
])
def test_bad_solver_option_is_one_line_and_exit_1(garver_doc, tmp_path, option, message):
    # the library rejects the value with `message`; the CLI's one line names
    # the option as typed, and says so when the value is NaN
    flag, value = option
    field = {"--gap": "rel_gap_tol", "--time-limit": "time_limit_s"}[flag]
    with pytest.raises(ValueError, match=message):
        SolveOptions(**{field: float(value)})
    out = tmp_path / "sweep.csv"
    for command in (["solve", "--scenario", "H,L"], ["sweep", "--out", str(out)]):
        result = CliRunner().invoke(main, command + ["--network", garver_doc] + option)
        assert result.exit_code == 1, command
        assert result.output == BAD_SOLVER_OPTION_LINES[flag, value], command
    assert not out.exists()


@pytest.mark.parametrize("value, line", [
    ("nan", "error: --sigma-hours is NaN; it must be a positive number of hours\n"),
    ("inf", "error: --sigma-hours must be positive and finite, got inf\n"),
    ("0", "error: --sigma-hours must be positive and finite, got 0.0\n"),
])
def test_bad_sigma_hours_is_one_line_and_exit_1(tmp_path, value, line):
    # the library rejects the value; each command names the option in one
    # line before it reads the network, here a file that does not parse
    net = builtin_garver()
    params = realize_scenario(ScenarioCode.parse("H,L"), net, DemandElasticityConfig())
    with pytest.raises(ValueError, match="sigma_hours must be positive and finite"):
        build_tep_model(net, params, float(value))
    doc = tmp_path / "broken.json"
    doc.write_text("{")
    out = tmp_path / "out"
    for command in (["build", "--scenario", "H,L", "--out", str(out)],
                    ["solve", "--scenario", "H,L"],
                    ["sweep", "--out", str(out)]):
        result = CliRunner().invoke(main, command + [
            "--network", str(doc), "--sigma-hours", value])
        assert result.exit_code == 1, command
        assert result.output == line, command
    assert not out.exists()


@pytest.mark.parametrize("key, message", [
    ("x", "conductor override for region 'x': the key is not an integer region id"),
    ("01", "conductor override for region '01': the key is not an integer region id"),
    ("9", "conductor override for region 9: the network has no such region"),
])
def test_conductor_override_key_must_name_a_region(garver_doc, tmp_path, key, message):
    config = tmp_path / "keys.json"
    config.write_text(json.dumps({"conductor_overrides": {key: {}}}))
    out = tmp_path / "sweep.csv"
    for command in (["solve", "--scenario", "H,L"], ["sweep", "--out", str(out)]):
        result = CliRunner().invoke(main, command + [
            "--network", garver_doc, "--scenarios", str(config)])
        assert result.exit_code == 1, command
        lines = result.output.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), command
        assert lines[0].endswith(message), command
    assert not out.exists()


README = Path(__file__).resolve().parent.parent / "README.md"
COMMANDS = ("validate", "fit", "derate", "build", "solve", "sweep")


def test_readme_options_exist_in_help():
    # An option belongs to the last command named before it on its README
    # line; an option in inline code with no command before it must exist
    # in some command.
    helps = {cmd: run(cmd, "--help").output for cmd in COMMANDS}
    checked = 0
    for line in README.read_text(encoding="utf-8").splitlines():
        for match in re.finditer(r"(?<![\w-])--[a-z][a-z-]*", line):
            option = match.group()
            named = re.findall(rf"\b({'|'.join(COMMANDS)}) ", line[:match.start()])
            if named:
                owners = named[-1:]
            elif line[match.start() - 1:match.start()] == "`":
                owners = list(COMMANDS)
            else:
                continue  # not a tepkit option (e.g. a pip flag)
            assert any(re.search(rf"{option}\b", helps[c]) for c in owners), \
                f"README names {option} for {owners}: {line.strip()}"
            checked += 1
    assert checked >= 8


def readme_block(heading: str, fence: str) -> str:
    """Body of the first fenced block opened by `fence` after `heading`."""
    text = README.read_text(encoding="utf-8")
    rest = text[text.index(heading):]
    start = rest.index(fence + "\n") + len(fence) + 1
    return rest[start:rest.index("```", start)]


def test_readme_library_example_prints_its_comments(capsys):
    code = readme_block("## Library", "```python")
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    expected = re.findall(r"  # (.+)", code)
    assert len(printed) == len(expected) >= 2
    for got, want in zip(printed, expected):
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (got, want)
        else:
            assert got == want


def test_readme_session_prints_its_sweep_table(tmp_path, monkeypatch):
    session = readme_block("A typical session", "```sh").splitlines()
    begin = next(i for i, l in enumerate(session) if "<<'PY'" in l)
    end = session.index("PY", begin)
    monkeypatch.chdir(tmp_path)
    exec("\n".join(session[begin + 1:end]), {})
    commands = [l for l in session[end + 1:] if l.startswith("tepkit ")]
    assert [c.split()[1] for c in commands] == ["validate", "solve", "sweep"]
    for command in commands:
        result = run(*shlex.split(command)[1:])
        assert result.exit_code == 0, result.output
    console = [l.rstrip() for l in result.output.splitlines()]
    table = readme_block("The sweep prints one row per scenario", "```").splitlines()
    first = console.index(table[0])
    assert console[first:first + len(table)] == table
