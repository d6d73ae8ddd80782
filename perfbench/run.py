"""Benchmark for `tepkit sweep` and `tepkit solve`, run end to end.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop with one client: one CLI command at a time, each
in a fresh interpreter, with the CLI's defaults, until the next command
would end after S seconds (at least one runs). Every answer is checked
against perfbench/references.json. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it carries the details (environment, samples, flags).

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 untraced and traced commands alternate, and the metrics are
the per-layer ones, medians over the traced commands. The network
documents are fixed per workload and pinned by SHA-256; the seed picks
which of each traced/untraced pair runs first and names the run's
scratch directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import (
    WORKLOADS,
    Answers,
    InputMismatch,
    Score,
    Workload,
    check_document,
    cli_args,
    document_text,
    load_references,
    read_answers,
    score,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"

# A command still running after this many seconds is killed and all of
# its scenarios count as failed. About 5x the slowest workload today, and
# small enough that a traced pair of stuck commands ends inside 180 s.
COMMAND_TIMEOUT_S = 75.0
# Import-only interpreters started per run to sample setup_s, after one
# uncounted warm-up that compiles the bytecode.
SETUP_PROBES = 5


@dataclass
class ChildRun:
    record: dict | None  # what child.py wrote; None if it crashed or timed out
    stdout: str
    wall_s: float
    error: str


@dataclass
class Command:
    traced: bool
    run: ChildRun
    answers: Answers | None
    score: Score


class Runner:
    """Starts child.py in a fresh interpreter and waits for it to end."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0
        self.env = dict(os.environ)
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)

    def run(self, trace: bool, args: list[str]) -> ChildRun:
        self.count += 1
        result_path = self.work / f"child-{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
               "1" if trace else "0", *args]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            stdout, stderr = proc.communicate(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, _ = proc.communicate()
            return ChildRun(None, stdout, time.perf_counter() - start,
                            f"timed out after {COMMAND_TIMEOUT_S} s")
        wall = time.perf_counter() - start
        try:
            record = json.loads(result_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            tail = stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
            return ChildRun(None, stdout, wall, tail[0])
        return ChildRun(record, stdout, wall, "")


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k, "unset (library default)")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")},
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: Workload, reference: dict, text: str, seconds: float, trace: bool,
            seed: int, work: Path) -> tuple[dict, dict, Command | None]:
    network = work / "network.json"
    network.write_text(text, encoding="utf-8")
    report = work / "report.csv"
    args = cli_args(workload, str(network), str(report))
    runner = Runner(work)

    warm = runner.run(False, [])
    if warm.record is None:
        raise RuntimeError(f"cannot import tepkit.cli: {warm.error}")
    setup = [r.record["setup_s"] for r in (runner.run(False, []) for _ in range(SETUP_PROBES))
             if r.record is not None]

    def command(traced: bool) -> Command:
        report.unlink(missing_ok=True)
        run = runner.run(traced, args)
        answers = read_answers(workload, run.stdout, report) if run.record else None
        completed = run.record is not None and run.record["exit_code"] == 0
        return Command(traced, run, answers, score(answers, reference, completed))

    order = [seed % 2 == 1, seed % 2 == 0] if trace else [False]
    commands: list[Command] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        commands.extend(command(traced) for traced in order)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break

    plain = [c for c in commands if not c.traced]
    traced = [c for c in commands if c.traced]
    solve_s = [c.run.record["solve_s"] if c.run.record else c.run.wall_s for c in plain]
    setup += [c.run.record["setup_s"] for c in commands if c.run.record]
    rss = [c.run.record["peak_rss_mb"] for c in plain if c.run.record]
    problems = [c.run.error for c in commands if c.run.error]
    problems += [p for c in commands for p in c.score.problems]

    if trace:
        summaries = [c.run.record["trace"] for c in traced if c.run.record]
        metrics = {name: _median([s["metrics"][name] for s in summaries])
                   for name in (summaries[0]["metrics"] if summaries else ())}
        traced_s = [c.run.record["solve_s"] for c in traced if c.run.record]
        metrics["trace.overhead_share"] = (_median(traced_s) / _median(solve_s) - 1.0
                                           if traced_s and solve_s else 0.0)
        problems += [p for s in summaries for p in s["count_problems"]]
        first = plain[0].answers
        for c in traced:
            if first is None or c.answers != first:
                problems.append("traced and untraced answers differ")
                break
    else:
        metrics = {"solve_s": _median(solve_s), "setup_s": _median(setup),
                   "peak_rss_mb": _median(rss)}

    attempted = sum(c.score.attempted for c in commands)
    failed = sum(c.score.failed for c in commands)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(),
        "input_sha256": reference["document_sha256"],
        "commands": len(plain),
        "traced_commands": len(traced),
        "command_timeout_s": COMMAND_TIMEOUT_S,
        "samples": {"solve_s": solve_s, "setup_s": setup, "peak_rss_mb": rss},
        "fail_rate": failed / attempted,
        "plans_match": all(c.score.plans_match for c in commands),
        "rows_identical": all(c.score.rows_identical for c in commands),
        "problems": problems[:20],
    }
    last_traced = next((c for c in reversed(traced) if c.run.record), None)
    if last_traced is not None:
        detail["layers"] = last_traced.run.record["trace"]["layers"]
        detail["absent"] = last_traced.run.record["trace"]["absent"]
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail, last_traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not (ROOT / "src" / "tepkit" / "cli.py").is_file():
        print(f"error: no tepkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[opts.workload]
    reference = load_references()[workload.name]
    text = document_text(workload)
    try:
        check_document(text, reference)
    except InputMismatch as exc:
        print(f"error: {workload.name}: {exc}", file=sys.stderr)
        return 3

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-seed{opts.seed}-", dir=WORK_ROOT))
    try:
        result, detail, last_traced = measure(workload, reference, text, opts.seconds,
                                              bool(opts.trace), opts.seed, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if last_traced is not None:
        spans = last_traced.run.record["trace"]["spans"]
        (WORK_ROOT / f"{workload.name}.spans.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "request"],
                        "spans": spans}), encoding="utf-8")
    # a metric with no sample (every command failed) reads 0; correct is false then
    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]
    result["metrics"] = {m["name"]: {"value": result["metrics"].get(m["name"], 0.0),
                                     "unit": m["unit"]}
                         for m in wanted}
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
