"""Benchmark: time real linrep CLI invocations, one fresh worker interpreter each.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the run reports the end-to-end metrics: wall_s (time
inside linrep.cli.main), setup_s (interpreter start plus import of
linrep.cli), peak_rss_mb and ok_rate.  With --trace 1 it alternates traced
and untraced invocations and reports per-layer metrics derived from the
traced invocations' spans (see tracer.py and layers.py), plus the tracing
overhead.  Every invocation's outputs are checked; see check_outputs.

The load is one closed-loop client: one invocation at a time, no extra
threads.  Another invocation starts while its predicted end stays within
1.1 x --seconds of the first one's start.  The last stdout line is the
JSON result; the lines before it give every timing's samples, quartiles
and sample count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from layers import EXACT_COUNTS, layer_metrics, unit_of
from workloads import DEFAULT_SEED, WORKLOADS, cli_argv, write_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
WORKER = BENCH_DIR / "worker.py"
PINNED_FILE = BENCH_DIR / "pinned.json"

SETUP_PROBES = 10
OVERRUN = 1.1
RUN_LIMIT_S = 165.0  # the whole run, invocation timeouts included, ends within this
# Workers may write bytecode: an installed package has it, so users do not
# pay compilation on every call.  The run's first probe fills the cache.
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


class Invocation:
    """One worker process: its timings, stdout and verdict."""

    def __init__(self, mode: str, directory: Path):
        self.mode = mode
        self.directory = directory
        self.error: str | None = None
        self.result: dict = {}
        self.stdout = ""
        self.t_spawn = 0.0
        self.elapsed = 0.0

    @property
    def setup_s(self) -> float:
        return self.result["t_imported"] - self.t_spawn

    @property
    def wall_s(self) -> float:
        return self.result["t_end"] - self.result["t_call"]

    def run(self, argv: list[str], timeout: float) -> "Invocation":
        result_file = self.directory / "result.json"
        cmd = [sys.executable, str(WORKER), str(result_file), self.mode] + argv
        self.t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True,
                                  text=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self.error = f"timeout after {timeout:.0f} s"
            return self
        finally:
            self.elapsed = time.perf_counter() - self.t_spawn
        self.stdout = proc.stdout
        if proc.returncode != 0 or not result_file.is_file():
            self.error = f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
            return self
        self.result = json.loads(result_file.read_text(encoding="utf-8"))
        if self.mode != "probe" and self.result.get("rc") != 0:
            self.error = f"CLI exit code {self.result.get('rc')}: {proc.stdout.strip()[-500:]}"
        return self


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "linrep").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def read_report(inv: Invocation) -> dict | None:
    lines = inv.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_outputs(workload, inv: Invocation) -> str | None:
    """Reason the invocation's outputs are wrong, or None.

    The CLI's own report must say ok with the expected step and element
    counts; the digests of the output files are compared by the caller.
    """
    report = read_report(inv)
    if report is None or report.get("ok") is not True:
        return f"report not ok: {inv.stdout.strip()[-300:]}"
    if workload.steps and (report.get("steps"), report.get("elements")) != (
        workload.steps, workload.elements
    ):
        return f"expected {workload.steps} steps and {workload.elements} elements: {report}"
    for name in workload.outputs:
        if not (inv.directory / name).is_file():
            return f"missing output {name}"
    return None


def independent_check(workload, directory: Path) -> str | None:
    """Recheck a seeded workload's outputs without the library's kernel.

    Used for seeds whose digests are not pinned.  realize-double: every
    pair-sum count of the set stays within the target.  verify-mixed3:
    the profile is the full support and matches a direct recount at 40
    sampled integers plus 10 integers outside the support.
    """
    if workload.name == "realize-double":
        elems = [int(v) for v in json.loads((directory / "set.json").read_text())]
        target = json.loads((directory / "target.json").read_text())
        counts = Counter(x + y for i, x in enumerate(elems) for y in elems[i:])
        lo, hi = target["window"]
        for n, c in counts.items():
            allowed = target["values"].get(str(n), 1) if lo <= n <= hi else target["default"]
            if c > allowed:
                return f"pair-sum count {c} > {allowed} at {n}"
        return None
    if workload.name == "verify-mixed3":
        elems = [int(v) for v in json.loads((directory / "set.json").read_text())]
        profile = json.loads((directory / "profile.json").read_text())
        counts = {int(n): c for n, c in profile["counts"].items()}
        if str(min(counts)) != profile["support_min"] or str(max(counts)) != profile["support_max"]:
            return "profile does not cover the full support"
        rng = random.Random(0)
        probes = rng.sample(sorted(counts), 40) + [
            n for n in (rng.randrange(-6 * 10**6, 6 * 10**6) for _ in range(200))
            if n not in counts
        ][:10]
        members = set(elems)
        for n in probes:
            classes = set()
            for y in elems:
                for z in elems:
                    x = n - 2 * y + 3 * z
                    if x in members:
                        w = Counter()
                        w[x] += 1
                        w[y] += 2
                        w[z] -= 3
                        classes.add(frozenset((v, c) for v, c in w.items() if c))
            if len(classes) != counts.get(n, 0):
                return f"profile count at {n} is {counts.get(n, 0)}, recount {len(classes)}"
        return None
    return None


def quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def layer_inputs(workload, inv: Invocation) -> tuple[str | None, list[int], int]:
    """(trace file text, output elements, output bytes) for layer_metrics."""
    trace_path = inv.directory / "trace.jsonl"
    trace_text = trace_path.read_text(encoding="utf-8") if trace_path.is_file() else None
    set_path = inv.directory / "set.json"
    elements = [int(v) for v in json.loads(set_path.read_text(encoding="utf-8"))]
    written = sum((inv.directory / name).stat().st_size for name in workload.outputs)
    return trace_text, elements, written + len(inv.stdout.encode())


class SeenCache:
    """Digests and exact counts seen in earlier runs, keyed by source and seed."""

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        try:
            self.data = json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            self.data = {}

    def check(self, field: str, value: dict) -> str | None:
        entry = self.data.setdefault(self.key, {})
        if field in entry and entry[field] != value:
            return f"{field} differ from an earlier run of the same code and seed"
        entry[field] = value
        return None

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "linrep" / "cli.py").is_file():
        print(f"linrep sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_start = time.perf_counter()
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    run_dir = WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return run(workload, args, run_dir, run_start)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run(workload, args, run_dir: Path, run_start: float) -> int:
    input_dir = run_dir / "inputs"
    input_dir.mkdir()
    write_inputs(workload, args.seed, input_dir)
    pins = json.loads(PINNED_FILE.read_text(encoding="utf-8"))
    pinned = not workload.seeded or args.seed == DEFAULT_SEED
    cache = SeenCache(WORK_DIR / "seen.json",
                      f"{workload.name}:{args.seed}:{source_digest()}")
    deadline = run_start + RUN_LIMIT_S

    def timeout() -> float:
        return deadline - time.perf_counter()

    Invocation("probe", run_dir).run([], timeout())
    probes = [] if args.trace else [
        Invocation("probe", run_dir).run([], timeout()) for _ in range(SETUP_PROBES)
    ]

    modes = ["traced", "plain"] if args.trace else ["plain"]
    invocations: list[Invocation] = []
    failures: list[str] = []
    checked_independently = False
    counts_seen: dict | None = None
    layer_samples: list[dict] = []
    span_rows: list[list] = []
    measure_start = time.perf_counter()
    limit = measure_start + OVERRUN * args.seconds
    while True:
        mode = modes[len(invocations) % len(modes)]
        inv_dir = run_dir / f"inv{len(invocations)}"
        inv_dir.mkdir()
        for path in input_dir.iterdir():
            shutil.copy(path, inv_dir / path.name)
        inv = Invocation(mode, inv_dir).run(cli_argv(workload, inv_dir), timeout())
        invocations.append(inv)
        if inv.error is None:
            inv.error = check_outputs(workload, inv)
        if inv.error is None:
            digests = {name: sha256(inv_dir / name) for name in workload.outputs}
            if pinned and digests != pins["digests"][workload.name]:
                inv.error = f"output digests {digests} differ from the pinned ones"
            elif not pinned:
                inv.error = cache.check("digests", digests)
                if inv.error is None and not checked_independently:
                    inv.error = independent_check(workload, inv_dir)
                    checked_independently = True
        if inv.error is None and mode == "traced":
            metrics = layer_metrics(inv.result["trace"], *layer_inputs(workload, inv))
            counts = {k: metrics[k] for k in EXACT_COUNTS}
            if counts_seen is None:
                counts_seen = counts
                inv.error = cache.check("counts", counts)
            elif counts != counts_seen:
                inv.error = f"exact counts changed between invocations: {counts_seen} vs {counts}"
            layer_samples.append(metrics)
            run_id = f"{os.getpid()}-{len(invocations) - 1}"
            span_rows += [[run_id, i] + s[:4] for i, s in enumerate(inv.result["trace"]["spans"])]
        if inv.error is not None:
            failures.append(f"{mode} invocation {len(invocations) - 1}: {inv.error}")
            break
        shutil.rmtree(inv_dir)
        done_modes = {i.mode for i in invocations}
        mode_next = modes[len(invocations) % len(modes)]
        same = [i.elapsed for i in invocations if i.mode == mode_next] or [inv.elapsed]
        if done_modes == set(modes) and time.perf_counter() + statistics.median(same) > limit:
            break

    ok_probes = [p for p in probes if p.error is None]
    failures += [f"setup probe: {p.error}" for p in probes if p.error is not None]
    attempted = len(invocations) + len(probes)
    failed = len(failures)
    plain = [i for i in invocations if i.mode == "plain" and i.error is None]
    details: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                     "digests_pinned": pinned, "failures": failures}
    metrics: dict = {}
    if plain:
        wall = quartiles([i.wall_s for i in plain])
        details["wall_s"] = wall
    if args.trace and plain and layer_samples:
        traced = quartiles([m["trace.wall_s"] for m in layer_samples])
        layer = {k: statistics.median(m[k] for m in layer_samples) for k in layer_samples[0]}
        layer["trace.overhead_s"] = traced["median"] - wall["median"]
        details["traced_wall_s"] = traced
        details["exact_counts"] = counts_seen
        if pinned:
            details["exact_counts_match_pinned"] = counts_seen == pins["counts"][workload.name]
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layer.items())}
        write_spans(workload.name, args.seed, span_rows)
    elif not args.trace and plain:
        setup = quartiles([i.setup_s for i in ok_probes + plain])
        rss = quartiles([i.result["maxrss_kb"] / 1024 for i in plain])
        details.update(setup_s=setup, peak_rss_mb=rss)
        metrics = {
            "wall_s": {"value": wall["median"], "unit": "s"},
            "setup_s": {"value": setup["median"], "unit": "s"},
            "peak_rss_mb": {"value": rss["median"], "unit": "MB"},
            "ok_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    cache.save()
    print(json.dumps(details))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def write_spans(workload: str, seed: int, rows: list[list]) -> None:
    """Spans of the run's traced invocations: [run id, index, name, start, end, parent]."""
    spans_dir = WORK_DIR / "spans"
    spans_dir.mkdir(exist_ok=True)
    with open(spans_dir / f"{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


if __name__ == "__main__":
    sys.exit(main())
