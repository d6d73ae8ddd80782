import csv
import json
import re
from decimal import Decimal
from pathlib import Path

import pytest
from click.testing import CliRunner

import tepkit.cli
from tepkit.cli import main
from tepkit.instance import builtin_garver
from tepkit.milp import build_tep_model
from tepkit.network import to_document
from tepkit.scenario import (
    DemandElasticityConfig,
    ScenarioCode,
    realize_scenario,
)
from tepkit.simplex import SimplexError
from tepkit.solver import SolverError, check_solution, parse_solution, solve_milp

from conftest import two_bus_net


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


def test_build_rejects_bad_scenario_code(garver_doc, tmp_path):
    result = run("build", "--network", garver_doc, "--scenario", "X,Y",
                 "--out", str(tmp_path / "x.mps"))
    assert result.exit_code == 1
    assert "error:" in result.output


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
    values = parse_solution(sol_path.read_text())
    report = check_solution(model, values)
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


def test_sweep_garver_report_rows_are_pinned(garver_doc, tmp_path):
    # byte-for-byte at the default --sigma-hours, so that a change in how
    # the scenarios are solved (such as warm starts) cannot move a plan or
    # the last printed digit of a cost
    out = tmp_path / "sweep.csv"
    result = run("sweep", "--network", garver_doc, "--out", str(out))
    assert result.exit_code == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[1:] == GARVER_SWEEP_ROWS


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


def test_solve_engine_failure_is_one_line_and_exit_2(garver_doc, monkeypatch):
    def broken(model, options=None):
        raise SimplexError("basis matrix became singular")

    monkeypatch.setattr(tepkit.cli, "solve_milp", broken)
    result = run("solve", "--network", garver_doc, "--scenario", "L,L")
    assert result.exit_code == 2
    assert result.output == "status     error: basis matrix became singular\n"


def test_sweep_engine_failure_keeps_other_rows(garver_doc, tmp_path,
                                               monkeypatch):
    def fails_on_lh(model, options=None, *, start=None):
        if model.name == "tepLH":
            raise SolverError("solution failed independent verification")
        return solve_milp(model, options, start=start)

    monkeypatch.setattr(tepkit.cli, "solve_milp", fails_on_lh)
    out = tmp_path / "sweep.csv"
    result = run("sweep", "--network", garver_doc, "--sigma-hours", "1.0",
                 "--out", str(out))
    assert result.exit_code == 2
    assert "error: scenario L,H: solution failed independent verification" \
        in result.output
    assert "(error)" in result.output
    rows = sweep_rows(out)
    assert [r[0] for r in rows] == ["L,L", "L,H", "H,L", "H,H"]
    assert rows[1] == ["L,H", "", "", "", "", "", "", ""]
    assert all(Decimal(r[-1]) > 0 for r in rows if r[0] != "L,H")


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
