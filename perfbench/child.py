"""Run one tepkit CLI command in this fresh interpreter and time it.

Usage: python3 child.py RESULT_JSON TRACE CLI_ARG...

Writes to RESULT_JSON the import time of ``tepkit.cli`` (setup_s), the
command's wall time from invocation to exit without interpreter start and
import (solve_s), its exit code and the process's peak resident set. With
TRACE=1 the layer wrappers are installed first and the per-layer summary,
count checks and spans are written too. With no CLI arguments only the
import is timed. The CLI's own output goes to this process's stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> None:
    result_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    start = time.perf_counter()
    import tepkit.cli
    record: dict = {"setup_s": time.perf_counter() - start}
    if cli_args:
        tracer = None
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            tepkit.cli.main.main(args=cli_args, prog_name="tepkit")
            exit_code = 0
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        sys.stdout.flush()
        solve_s = time.perf_counter() - start
        record.update(
            solve_s=solve_s,
            exit_code=exit_code,
            # Linux reports ru_maxrss in KiB
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            tracer.uninstall()
            record["trace"] = {
                "metrics": tracer.summary(solve_s),
                "count_problems": tracer.check_counts(),
                "absent": tracer.absent,
                "layers": tracer.layers,
                "spans": tracer.spans,
            }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
