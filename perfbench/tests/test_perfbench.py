"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Answers, InputMismatch, score  # noqa: E402

REFERENCES = workloads.load_references()
GARVER = "garver-sweep"


def _reference_answers(name: str, objectives: dict | None = None) -> Answers:
    ref = REFERENCES[name]
    return Answers(dict(objectives or ref["objectives"]), ref["plans"], ref["rows_sha256"])


# -- pinned inputs --------------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generated_documents_match_their_digests(name):
    workloads.check_document(workloads.document_text(WORKLOADS[name]), REFERENCES[name])


def test_tampered_document_fails_the_digest_check():
    doc = json.loads(workloads.document_text(WORKLOADS[GARVER]))
    doc["buses"][0]["demand_mw"] += 1.0
    with pytest.raises(InputMismatch):
        workloads.check_document(json.dumps(doc, indent=2), REFERENCES[GARVER])


def test_benchmark_refuses_a_workload_whose_document_differs(monkeypatch, capsys):
    tampered = json.loads(json.dumps(REFERENCES))
    tampered[GARVER]["document_sha256"] = "0" * 64
    monkeypatch.setattr(run, "load_references", lambda: tampered)
    code = run.main(["--workload", GARVER, "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


# -- answer checks --------------------------------------------------------

def test_reference_answers_pass():
    result = score(_reference_answers(GARVER), REFERENCES[GARVER], completed=True)
    assert (result.attempted, result.failed) == (4, 0)
    assert result.plans_match and result.rows_identical


@pytest.mark.parametrize("factor", [1 + 1e-5, 1 - 1e-5, 1 - 1e-8])
def test_objective_off_the_reference_counts_as_a_failure(factor):
    objectives = dict(REFERENCES[GARVER]["objectives"])
    objectives["H,L"] *= factor
    result = score(_reference_answers(GARVER, objectives), REFERENCES[GARVER], completed=True)
    assert (result.attempted, result.failed) == (4, 1)


def test_objective_inside_the_default_gap_passes():
    objectives = dict(REFERENCES[GARVER]["objectives"])
    objectives["H,L"] *= 1 + 1e-7
    result = score(_reference_answers(GARVER, objectives), REFERENCES[GARVER], completed=True)
    assert result.failed == 0


def test_plan_and_row_flags_do_not_count_as_failures():
    ref = REFERENCES[GARVER]
    plans = {code: ["9"] * 4 for code in ref["plans"]}
    answers = Answers(dict(ref["objectives"]), plans, "different")
    result = score(answers, ref, completed=True)
    assert result.failed == 0
    assert not result.plans_match and not result.rows_identical


def test_incomplete_command_fails_every_scenario():
    result = score(_reference_answers(GARVER), REFERENCES[GARVER], completed=False)
    assert (result.attempted, result.failed) == (4, 4)


def test_sweep_header_lines_are_not_part_of_the_answer():
    rows = ["scenario,new_lines_built,cap_exp_built,new_line_cost,cap_exp_cost,"
            "total_exp_cost,gen_cost,total_cost",
            "L,1,0,5.000000,0.000000,5.000000,2.500000,7.500000"]
    one = workloads._sweep_answers("\n".join(["# enable_vis=True workers=1", *rows]))
    other = workloads._sweep_answers("\n".join(["# gap=1e-06", *rows]))
    assert one == other
    assert one.objectives == {"L": 7.5}


def test_stuck_command_is_killed_and_fails(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "COMMAND_TIMEOUT_S", 0.5)
    args = workloads.cli_args(WORKLOADS[GARVER], _garver_network(tmp_path),
                              str(tmp_path / "r.csv"))
    child = run.Runner(tmp_path).run(False, args)
    assert child.record is None and "timed out" in child.error
    result = score(None, REFERENCES[GARVER], completed=False)
    assert result.failed == result.attempted == 4


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", GARVER, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- tracing --------------------------------------------------------------

def test_absent_function_is_reported_not_raised(monkeypatch):
    import tepkit.cli

    monkeypatch.delattr(tepkit.cli, "generate_valid_inequalities")
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("ghost", "tepkit.no_such_module", "run", "ghost.run"),
        ("ghost", "tepkit.simplex", "NoSuchClass.solve", "ghost.solve"),
    ))
    original = tepkit.cli.build_tep_model
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tepkit.cli.build_tep_model is not original
        assert "tepkit.cli.generate_valid_inequalities" in tracer.absent
        assert tracer.layers["milp"] == "partial"
        assert tracer.layers["ghost"] == "absent"
        assert tracer.layers["simplex"] == "traced"
    finally:
        tracer.uninstall()
    assert tepkit.cli.build_tep_model is original
    metrics = tracer.summary(1.0)
    assert metrics["milp.cuts_s"] == 0.0
    assert metrics["cli.self_s"] == 1.0


def _run_twice(tmp_path, args: list[str]):
    runner = run.Runner(tmp_path)
    plain = runner.run(False, args)
    traced = runner.run(True, args)
    assert plain.record is not None and traced.record is not None
    return plain, traced


def _garver_network(tmp_path) -> str:
    network = tmp_path / "network.json"
    network.write_text(workloads.document_text(WORKLOADS[GARVER]), encoding="utf-8")
    return str(network)


def test_traced_and_untraced_sweeps_give_the_same_answers(tmp_path):
    report = tmp_path / "report.csv"
    args = ["sweep", "--network", _garver_network(tmp_path), "--no-vis", "--out", str(report)]
    plain, traced = _run_twice(tmp_path, args)
    answers = workloads._sweep_answers(report.read_text(encoding="utf-8"))
    # stdout carries the whole report table of each run
    assert plain.stdout == traced.stdout
    assert score(answers, REFERENCES[GARVER], completed=True).failed == 0
    summary = traced.record["trace"]
    assert summary["count_problems"] == []
    assert summary["metrics"]["scenario.realize_calls"] == 4
    assert summary["metrics"]["milp.cut_rows"] == 0
    assert summary["metrics"]["simplex.lp_solves"] == summary["metrics"]["solver.nodes"]


def test_traced_counts_match_stats_and_repeat(tmp_path):
    args = ["solve", "--network", _garver_network(tmp_path), "--scenario", "L,H"]
    plain, traced = _run_twice(tmp_path, args)
    again = run.Runner(tmp_path).run(True, args)
    assert workloads._solve_answers("L,H", plain.stdout) == \
        workloads._solve_answers("L,H", traced.stdout)
    nodes = int(next(line.split()[1] for line in plain.stdout.splitlines()
                     if line.startswith("nodes ")))
    iterations = int(next(line.split()[1] for line in plain.stdout.splitlines()
                          if line.startswith("iterations ")))
    first, second = traced.record["trace"], again.record["trace"]
    assert first["count_problems"] == []
    assert first["metrics"]["solver.nodes"] == nodes
    assert first["metrics"]["simplex.iterations"] == iterations
    counts = [k for k in first["metrics"] if k.endswith(("_calls", "compiles", "lp_solves",
                                                          "iterations", "nodes", "rows",
                                                          "binaries"))]
    assert {k: first["metrics"][k] for k in counts} == \
        {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["milp.cut_rows"] > 0
    assert 0 < first["metrics"]["solver.first_incumbent_s"] <= first["metrics"]["solver.milp_s"]
    names = {span[0] for span in first["spans"]}
    assert {"network.load", "scenario.realize", "thermal.derate", "milp.build", "milp.cuts",
            "model.check", "simplex.compile", "simplex.lp", "solver.milp",
            "solver.verify"} <= names


# -- second referee for the recorded references ---------------------------

def _highs_objective(model) -> float:
    np = pytest.importorskip("numpy")
    optimize = pytest.importorskip("scipy.optimize")
    from tepkit.model import BINARY, SENSE_GE, SENSE_LE

    index = model.variable_index()
    c = np.zeros(len(index))
    for name, coef in model.objective_terms:
        c[index[name]] += coef
    a = np.zeros((len(model.constraints), len(index)))
    lo = np.empty(len(model.constraints))
    up = np.empty(len(model.constraints))
    for i, con in enumerate(model.constraints):
        for name, coef in con.terms:
            a[i, index[name]] += coef
        lo[i] = -math.inf if con.sense == SENSE_LE else con.rhs
        up[i] = math.inf if con.sense == SENSE_GE else con.rhs
    result = optimize.milp(
        c,
        constraints=optimize.LinearConstraint(a, lo, up),
        integrality=[1 if v.kind == BINARY else 0 for v in model.variables],
        bounds=optimize.Bounds([v.lower for v in model.variables],
                               [v.upper for v in model.variables]),
        options={"mip_rel_gap": 0.0},
    )
    assert result.status == 0, result.message
    return float(result.fun) + model.objective_constant


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_references_agree_with_highs(name):
    pytest.importorskip("scipy.optimize")
    from tepkit import ScenarioCode, build_tep_model, load_network, realize_scenario

    net = load_network(workloads.document_text(WORKLOADS[name]))
    for code, reference in REFERENCES[name]["objectives"].items():
        params = realize_scenario(ScenarioCode.parse(code), net)
        model, _ = build_tep_model(net, params, 8760.0)
        highs = _highs_objective(model)
        assert abs(highs - reference) <= workloads.BETTER_TOL * abs(reference), (code, highs)
