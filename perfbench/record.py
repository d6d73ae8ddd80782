"""Record the reference answers in perfbench/references.json.

Usage, from the repository root:

    python3 perfbench/record.py [WORKLOAD...]

Runs each named workload's command once (all of them by default) and
stores the input digest, the objectives, the plans and the digest of the
data rows. Objectives marked as pinned (the Garver values frozen in
tests/test_acceptance.py) are never overwritten; the run is checked
against them instead. Recording changes what every later run is compared
with, so only do it when the inputs are meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, WORK_ROOT, Runner
from workloads import (
    REFERENCES_PATH,
    WORKLOADS,
    cli_args,
    document_text,
    load_references,
    objective_problem,
    read_answers,
    sha256,
)


def record(name: str, reference: dict, work: Path) -> dict:
    workload = WORKLOADS[name]
    text = document_text(workload)
    network = work / "network.json"
    network.write_text(text, encoding="utf-8")
    report = work / "report.csv"
    run = Runner(work).run(False, cli_args(workload, str(network), str(report)))
    if run.record is None or run.record["exit_code"] != 0:
        raise SystemExit(f"{name}: command failed: {run.error or run.record}")
    answers = read_answers(workload, run.stdout, report)
    if reference.get("objectives_pinned"):
        for code, pinned in reference["objectives"].items():
            problem = objective_problem(answers.objectives.get(code), pinned)
            if problem is not None:
                raise SystemExit(f"{name} {code}: {problem}")
        objectives = reference["objectives"]
    else:
        objectives = answers.objectives
    return {
        **reference,
        "document_sha256": sha256(text),
        "objectives": objectives,
        "plans": answers.plans,
        "rows_sha256": answers.rows_sha256,
    }


def main(names: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    references = load_references() if REFERENCES_PATH.exists() else {}
    WORK_ROOT.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        work = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=WORK_ROOT))
        try:
            references[name] = record(name, references.get(name, {}), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"recorded {name}")
    REFERENCES_PATH.write_text(json.dumps(references, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
