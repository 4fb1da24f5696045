"""Regenerate pinned.json: output digests and exact counts at the default seed.

Usage (from the repository root): python3 perfbench/pin.py

Runs each workload once, traced, and records the SHA-256 of its output
files and its exact counts.  Outputs must stay byte-identical, so the
digests are only re-pinned when a change is meant to alter the files;
the counts are the reference a later change compares its own against.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import sys

from layers import EXACT_COUNTS, layer_metrics
from run import PINNED_FILE, WORK_DIR, Invocation, check_outputs, layer_inputs, sha256
from workloads import DEFAULT_SEED, WORKLOADS, cli_argv, write_inputs


def main() -> int:
    pins = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": DEFAULT_SEED, "digests": {}, "counts": {}}
    for workload in WORKLOADS.values():
        directory = WORK_DIR / f"pin-{workload.name}"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        write_inputs(workload, DEFAULT_SEED, directory)
        inv = Invocation("traced", directory).run(cli_argv(workload, directory), 600)
        error = inv.error or check_outputs(workload, inv)
        if error:
            print(f"{workload.name}: {error}", file=sys.stderr)
            return 1
        metrics = layer_metrics(inv.result["trace"], *layer_inputs(workload, inv))
        pins["digests"][workload.name] = {n: sha256(directory / n) for n in workload.outputs}
        pins["counts"][workload.name] = {k: metrics[k] for k in EXACT_COUNTS}
        shutil.rmtree(directory)
        print(workload.name, f"{metrics['trace.wall_s']:.2f} s traced")
    PINNED_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
