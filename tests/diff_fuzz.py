"""Seeded differential fuzz of ``diff-realize --case infinite`` through the CLI.

Each run draws an even target with f(0) = 1, window values 1, 2, 3 or inf
and default inf, a geometric gap sequence of ratio 2 or 3, a step count
and a seed element, and runs ``linrep.cli.main`` in process.  A run passes
when it exits 0 or 3 without raising, and on exit 0 when the report says
``"ledger_coherent": true`` and a brute-force recount of the written set
(``oracles.brute_counts``, which shares no code with the library's
counting kernel) has count 1 at 0 and every count within the target.

As a script it prints the exit-code histogram and every failing run, and
exits 1 if any run failed:

    PYTHONPATH=src python tests/diff_fuzz.py --seed 11 --runs 400
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

from linrep import INFINITY, DIFFERENCE_FORM, GroundSet, PlentifulSequence, TargetFunction
from linrep.cli import main

from oracles import brute_counts

D0_CHOICES = (1, 1, 1, 2, 2, -1, 3, -3, 50)


def draw_case(rng: random.Random) -> dict:
    """One run's target, gap sequence, step count and seed element."""
    w = rng.randint(2, 8)
    values = {0: 1}
    for n in range(1, w + 1):
        values[n] = values[-n] = rng.choice((1, 2, 3, INFINITY))
    steps = rng.randint(5, 40)
    # a first term inside the window may land a partial sum on a value of 1
    first, ratio = rng.randint(1, 3 * w), rng.choice((2, 3))
    # a chained step takes one or two terms, so some runs exhaust the sequence
    terms = [first * ratio**i for i in range(rng.randint(steps + 8, 2 * steps + 16))]
    return {
        "target": TargetFunction.make((-w, w), values=values, default=INFINITY),
        "seq": PlentifulSequence(tuple(terms)),
        "steps": steps,
        "d0": rng.choice(D0_CHOICES),
    }


def run_case(case: dict, workdir: Path) -> tuple[int, list[str], bool]:
    """(exit code, problems, whether the set was recounted) for one run."""
    (workdir / "target.json").write_text(case["target"].to_json())
    (workdir / "seq.json").write_text(case["seq"].to_json())
    out = workdir / "set.json"
    out.unlink(missing_ok=True)
    argv = [
        "diff-realize", "--case", "infinite",
        "--target", str(workdir / "target.json"),
        "--seq", str(workdir / "seq.json"),
        "--steps", str(case["steps"]),
        "--d0", str(case["d0"]),
        "--out", str(out),
        "--format", "json",
    ]
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    except Exception:
        return -1, [f"raised: {traceback.format_exc(limit=3)}"], False
    if code not in (0, 3):
        return code, [f"exit {code}: {stdout.getvalue().strip()}"], False
    if code != 0:
        return code, [], False
    problems = []
    if json.loads(stdout.getvalue())["ledger_coherent"] is not True:
        problems.append("ledger_coherent is not true")
    elements = GroundSet.from_json(out.read_text()).elements
    counts = brute_counts(DIFFERENCE_FORM.coefficients, elements)
    if counts.get(0) != 1:
        problems.append(f"brute count at 0 is {counts.get(0)}")
    target = case["target"]
    problems += [
        f"brute count {c} exceeds target {target.value_at(n)} at {n}"
        for n, c in counts.items()
        if c > target.value_at(n)
    ]
    return code, problems, True


def sweep(seed: int, runs: int, workdir: Path) -> tuple[Counter, list[str], int]:
    """(exit-code histogram, failing runs, recounts) of ``runs`` seeded runs."""
    rng = random.Random(seed)
    histogram: Counter = Counter()
    failures: list[str] = []
    recounts = 0
    for i in range(runs):
        case = draw_case(rng)
        code, problems, recounted = run_case(case, workdir)
        histogram[code] += 1
        recounts += recounted
        if problems:
            failures.append(
                f"run {i} (window {case['target'].window_hi}, steps {case['steps']}, "
                f"d0 {case['d0']}): " + "; ".join(problems)
            )
    return histogram, failures, recounts


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--runs", type=int, default=400)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        histogram, failures, recounts = sweep(args.seed, args.runs, Path(tmp))
    print(json.dumps({
        "seed": args.seed,
        "runs": args.runs,
        "exit_codes": {str(k): v for k, v in sorted(histogram.items())},
        "recounts": recounts,
        "failures": len(failures),
    }))
    for line in failures:
        print(line)
    sys.exit(1 if failures else 0)
