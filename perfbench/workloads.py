"""The benchmark's workloads: the input each generates, the CLI call it
makes, and the checks of its answers against recorded references.

Inputs are generated here, outside the timed process, and handed to the
program only as a network document. Each document is pinned by its SHA-256,
so a change to the generators cannot silently change what is measured.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES_PATH = HERE / "references.json"

# A scenario fails when its objective is worse than the reference by more
# than the CLI's default relative gap, or better than it by more than
# BETTER_TOL (a better point than the proven optimum is a wrong answer).
WORSE_TOL = 1e-6
BETTER_TOL = 1e-9

# Lines of `tepkit solve` output that carry the answer; node and iteration
# counts are left out because they are not pinned.
_SOLVE_ANSWER_KEYS = ("status", "objective", "built lines", "expanded lines")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "sweep" or "solve"
    # SynthesisConfig arguments, or None for the bundled Garver system
    synthesis: dict | None = None
    scenario: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("garver-sweep", "sweep"),
        Workload("synth-sweep", "sweep",
                 synthesis=dict(n_buses=24, n_regions=4, seed=1, demand_total_mw=720.0)),
        Workload("synth-solve", "solve",
                 synthesis=dict(n_buses=20, n_regions=2, seed=6, demand_total_mw=1000.0),
                 scenario="H,H"),
    )
}


class InputMismatch(ValueError):
    """The generated network document differs from the pinned one."""


def load_references() -> dict:
    return json.loads(REFERENCES_PATH.read_text(encoding="utf-8"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def document_text(workload: Workload) -> str:
    """The network document the program receives, generated from the
    workload's pinned generator settings."""
    from tepkit import SynthesisConfig, builtin_garver, synthesize_grid, to_document

    if workload.synthesis is None:
        net = builtin_garver()
    else:
        net = synthesize_grid(SynthesisConfig(**workload.synthesis))
    return json.dumps(to_document(net), indent=2)


def check_document(text: str, reference: dict) -> None:
    digest = sha256(text)
    if digest != reference["document_sha256"]:
        raise InputMismatch(
            f"generated document has SHA-256 {digest}, "
            f"pinned {reference['document_sha256']}")


def cli_args(workload: Workload, network_path: str, report_path: str) -> list[str]:
    """The CLI call, with every option left at its default."""
    if workload.command == "sweep":
        return ["sweep", "--network", network_path, "--out", report_path]
    return ["solve", "--network", network_path, "--scenario", workload.scenario]


@dataclass(frozen=True)
class Answers:
    # scenario code -> objective, None when no optimal point was reported
    objectives: dict[str, float | None]
    # scenario code -> the chosen plan as the program reports it
    plans: dict[str, list[str]]
    # digest of the data rows (sweep report) or answer lines (solve output)
    rows_sha256: str


def read_answers(workload: Workload, stdout: str, report_path: Path) -> Answers:
    if workload.command == "sweep":
        try:
            text = report_path.read_text(encoding="utf-8")
        except OSError:
            text = ""
        return _sweep_answers(text)
    return _solve_answers(workload.scenario, stdout)


def _sweep_answers(report: str) -> Answers:
    # The '#' header lines carry option values that are not answers.
    rows = [line for line in report.splitlines() if not line.startswith("#")]
    objectives: dict[str, float | None] = {}
    plans: dict[str, list[str]] = {}
    for row in csv.DictReader(rows):
        code = row["scenario"]
        total = row.get("total_cost") or ""
        objectives[code] = float(total) if total else None
        plans[code] = [row.get(k) or "" for k in
                       ("new_lines_built", "cap_exp_built", "new_line_cost", "cap_exp_cost")]
    return Answers(objectives, plans, sha256("\n".join(rows)))


def _solve_answers(code: str, stdout: str) -> Answers:
    fields: dict[str, str] = {}
    kept = []
    for line in stdout.splitlines():
        for key in _SOLVE_ANSWER_KEYS:
            if line.startswith(key + " "):
                fields[key] = line[len(key):].strip()
                kept.append(line)
                break
    objective = None
    if fields.get("status") == "optimal" and "objective" in fields:
        objective = float(fields["objective"])
    plan = [fields.get("built lines", ""), fields.get("expanded lines", "")]
    return Answers({code: objective}, {code: plan}, sha256("\n".join(kept)))


def objective_problem(got: float | None, reference: float) -> str | None:
    """Why an objective fails against its reference, or None if it passes."""
    if got is None:
        return "no optimal solution"
    scale = max(1.0, abs(reference))
    if got > reference + WORSE_TOL * scale:
        return f"objective {got!r} worse than reference {reference!r}"
    if got < reference - BETTER_TOL * scale:
        return f"objective {got!r} better than reference {reference!r}"
    return None


@dataclass
class Score:
    attempted: int = 0
    failed: int = 0
    plans_match: bool = True
    rows_identical: bool = True
    problems: list[str] = field(default_factory=list)


def score(answers: Answers | None, reference: dict, completed: bool) -> Score:
    """Check one command's answers. Every scenario of a command that timed
    out or exited non-zero fails. Plan and row identity are reported as
    flags and do not count as failures."""
    expected = reference["objectives"]
    result = Score(attempted=len(expected))
    for code, ref in expected.items():
        if not completed or answers is None:
            problem = "command did not complete"
        else:
            problem = objective_problem(answers.objectives.get(code), ref)
        if problem is not None:
            result.failed += 1
            result.problems.append(f"{code}: {problem}")
    if answers is None:
        result.plans_match = result.rows_identical = False
    else:
        result.plans_match = answers.plans == reference["plans"]
        result.rows_identical = answers.rows_sha256 == reference["rows_sha256"]
    return result
