"""Run one linrep CLI invocation in this fresh interpreter and report timings.

Usage: python3 perfbench/worker.py RESULT_FILE MODE [CLI_ARGS...]

MODE is "probe" (import linrep.cli and stop: a set-up sample), "plain"
(call linrep.cli.main untraced) or "traced" (rebind the package's public
functions first, see tracer.py).  RESULT_FILE receives a JSON object with
perf_counter stamps, the CLI exit code, the peak RSS and, when traced, the
spans.  perf_counter is CLOCK_MONOTONIC on Linux, so the stamps compare
with the parent's.
"""

import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import linrep.cli  # noqa: E402  (imported after the path is set up)

t_imported = time.perf_counter()


def main() -> int:
    result_file, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    result = {"t_imported": t_imported}
    tracer = None
    if mode == "traced":
        sys.path.insert(0, str(BENCH_DIR))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if mode != "probe":
        t_call = time.perf_counter()
        rc = linrep.cli.main(cli_args)
        result.update(t_call=t_call, t_end=time.perf_counter(), rc=rc)
        sys.stdout.flush()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.export()
    Path(result_file).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
