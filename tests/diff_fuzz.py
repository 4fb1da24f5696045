"""Seeded differential fuzz of ``diff-realize`` (both cases), ``build``,
``realize`` and ``verify`` through the CLI.

Each run draws its arguments and runs ``linrep.cli.main`` in process.  The
written set is recounted by brute force (``oracles.brute_counts``, which
shares no code with the library's counting kernel).

- ``diff-realize``: an even target with f(0) = 1, window values 1, 2, 3 or
  inf and default inf, a geometric gap sequence of ratio 2 or 3, a step
  count and a seed element.  A run passes when it exits 0 or 3 without
  raising, and on exit 0 when the report says ``"ledger_coherent": true``
  and the recount has count 1 at 0, even counts and every count within the
  target.
- ``diff-unbounded`` (``diff-realize --case unbounded``): an even target
  with f(0) = 1 on [-w, w] (w from 2 to 8), window values 1 to 3, default
  1 or 2, and 3 to 25 steps.  A run passes when it exits 0 or 3 without
  raising; exit 5, a known defect of incidental pairs, is counted and not
  failed.  On exit 0 the recount is checked as for ``diff-realize``, and
  every traced target must have exactly its target count: a batch step
  fills its value in one go.
- ``build``: a primitive form of arity 2 to 4 with coefficients in
  +-1..+-5, 3 to 10 steps (3 to 5 at arity 4, so that every exit-0 set is
  recounted), ``--m0`` at its default or 1 to 3, and
  ``--half-line`` absent or in -50..50.  A run passes when it exits 0
  without raising, or exits 3 for a single-signed form under
  ``--half-line``; on exit 0 when |A|^h <= 3*10^5, the recount must have
  every count at most 1, count 1 at every traced target, and no element
  below the half-line bound.
- ``realize``: a primitive, partition-regular form of arity 2 or 3 with
  coefficients in +-1..+-3, a target with window values 1, 2 or inf on
  [-w, w] (w from 1 to 6) and default 1, 2 or inf, 2 to 8 steps,
  ``--d0`` drawn as for ``diff-realize`` and ``--m0`` as for ``build``.
  A run passes when it exits 0, 1 or a code in ``cli._FAILURES`` without
  raising; exit 5, a known forced-collision defect, is counted and not
  failed.  On exit 0 when |A|^h <= 3*10^5, the recount must keep every
  count within the target and cover every traced entry, each traced block
  must evaluate to its target, and each traced ``support_size`` must be
  the size of the brute-force support of the set up to that step.
- ``verify``: a form of arity 1 to 4 with coefficients in +-1..+-5
  (irregular and imprimitive forms included), a set of 0 to 12 distinct
  integers, some past +-10^20, a target with zeros or none, and
  ``--profile`` and ``--window`` each present or absent.  A run passes
  when it exits 0, 1 or a code in ``cli._FAILURES`` without raising, and
  exits 3 for a window without a profile or with lo > hi.  Otherwise
  every run is recounted: it must exit 0 exactly when no brute count
  overshoots, report the brute ``violations`` and ``support_size``, and
  write a profile with the brute counts inside the window and the brute
  support bounds.

As a script it prints the exit-code histogram and every failing run, and
exits 1 if any run failed.  ``--command`` is one of ``diff-realize`` (the
default), ``diff-unbounded``, ``build``, ``realize`` and ``verify``:

    PYTHONPATH=src python tests/diff_fuzz.py --command diff-realize --seed 11 --runs 400
    PYTHONPATH=src python tests/diff_fuzz.py --command verify --seed 11 --runs 400
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

from linrep import (
    INFINITY,
    DIFFERENCE_FORM,
    GroundSet,
    LinearForm,
    PlentifulSequence,
    TargetFunction,
    is_partition_regular,
    is_primitive,
)
from linrep.builder_target import ALL_ONES
from linrep.cli import _FAILURES, main

from oracles import brute_counts, target_overshoots

D0_CHOICES = (1, 1, 1, 2, 2, -1, 3, -3, 50)
RECOUNT_LIMIT = 3 * 10**5  # tuples the brute-force recount of a build may visit


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
    d0 = rng.choice(D0_CHOICES)
    return {
        "target": TargetFunction.make((-w, w), values=values, default=INFINITY),
        "seq": PlentifulSequence(tuple(terms)),
        "steps": steps,
        "d0": d0,
        "label": f"window {w}, steps {steps}, d0 {d0}",
    }


def call_main(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout) of one in-process CLI call, or (-1, the
    traceback) if it raised."""
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    except Exception:
        return -1, traceback.format_exc(limit=3)
    return code, stdout.getvalue()


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
    code, output = call_main(argv)
    if code == -1:
        return code, [f"raised: {output}"], False
    if code not in (0, 3):
        return code, [f"exit {code}: {output.strip()}"], False
    if code != 0:
        return code, [], False
    _, problems = recount_difference_set(case["target"], out, output)
    return code, problems, True


def recount_difference_set(
    target: TargetFunction, out: Path, output: str
) -> tuple[dict[int, int], list[str]]:
    """(brute counts, problems) of an exit-0 ``diff-realize`` run whose
    report is ``output`` and whose set is in ``out``."""
    problems = []
    if json.loads(output)["ledger_coherent"] is not True:
        problems.append("ledger_coherent is not true")
    elements = GroundSet.from_json(out.read_text()).elements
    counts = brute_counts(DIFFERENCE_FORM.coefficients, elements)
    if counts.get(0) != 1:
        problems.append(f"brute count at 0 is {counts.get(0)}")
    problems += [
        f"brute count {c} at {n}, but {counts.get(-n, 0)} at {-n}"
        for n, c in counts.items()
        if counts.get(-n) != c
    ]
    problems += [
        f"brute count {c} exceeds target {target.value_at(n)} at {n}"
        for n, c in counts.items()
        if c > target.value_at(n)
    ]
    return counts, problems


def draw_unbounded_case(rng: random.Random) -> dict:
    """One batch run's even, all-finite target and step count."""
    w = rng.randint(2, 8)
    values = {0: 1}
    for n in range(1, w + 1):
        values[n] = values[-n] = rng.randint(1, 3)
    default, steps = rng.choice((1, 2)), rng.randint(3, 25)
    return {
        "target": TargetFunction.make((-w, w), values=values, default=default),
        "steps": steps,
        "label": f"window {w}, default {default}, steps {steps}",
    }


def run_unbounded_case(case: dict, workdir: Path) -> tuple[int, list[str], bool]:
    """(exit code, problems, whether the set was recounted) for one batch run."""
    out, trace = workdir / "set.json", workdir / "trace.jsonl"
    out.unlink(missing_ok=True)
    trace.unlink(missing_ok=True)
    (workdir / "target.json").write_text(case["target"].to_json())
    argv = [
        "diff-realize", "--case", "unbounded",
        "--target", str(workdir / "target.json"),
        "--steps", str(case["steps"]),
        "--out", str(out), "--trace", str(trace), "--format", "json",
    ]
    code, output = call_main(argv)
    if code == -1:
        return code, [f"raised: {output}"], False
    if code not in (0, 3, 5):
        return code, [f"exit {code}: {output.strip()}"], False
    if code != 0:
        return code, [], False
    target = case["target"]
    counts, problems = recount_difference_set(target, out, output)
    for line in trace.read_text().splitlines():
        t = int(json.loads(line)["target"])
        if counts.get(t, 0) != target.value_at(t):
            problems.append(
                f"target {t} has brute count {counts.get(t, 0)}, not {target.value_at(t)}"
            )
    return code, problems, True


def draw_build_case(rng: random.Random) -> dict:
    """One build run's primitive form, step count, growth constant and bound."""
    while True:
        coeffs = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
        if math.gcd(*coeffs) == 1:
            break
    # at most 1 + 5*4 elements after 5 arity-4 steps, so |A|^4 <= RECOUNT_LIMIT
    steps = rng.randint(3, 5 if len(coeffs) == 4 else 10)
    m0 = rng.choice((None, 1, 2, 3))
    half_line = rng.choice((None, rng.randint(-50, 50)))
    return {
        "coeffs": tuple(coeffs),
        "steps": steps,
        "m0": m0,
        "half_line": half_line,
        "label": f"form {','.join(map(str, coeffs))}, steps {steps}, m0 {m0}, "
        f"half-line {half_line}",
    }


def run_build_case(case: dict, workdir: Path) -> tuple[int, list[str], bool]:
    """(exit code, problems, whether the set was recounted) for one build run."""
    out, trace = workdir / "set.json", workdir / "trace.jsonl"
    out.unlink(missing_ok=True)
    trace.unlink(missing_ok=True)
    coeffs, half_line = case["coeffs"], case["half_line"]
    argv = [
        "build", "--form=" + ",".join(map(str, coeffs)),
        "--steps", str(case["steps"]),
        "--out", str(out), "--trace", str(trace), "--format", "json",
    ]
    if case["m0"] is not None:
        argv += ["--m0", str(case["m0"])]
    if half_line is not None:
        argv.append(f"--half-line={half_line}")
    code, output = call_main(argv)
    if code == -1:
        return code, [f"raised: {output}"], False
    single_signed = len({c > 0 for c in coeffs}) == 1
    if code == 3 and half_line is not None and single_signed:
        return code, [], False
    if code != 0:
        return code, [f"exit {code}: {output.strip()}"], False
    elements = GroundSet.from_json(out.read_text()).elements
    if len(elements) ** len(coeffs) > RECOUNT_LIMIT:
        return code, [], False
    counts = brute_counts(coeffs, elements)
    problems = [f"brute count {c} exceeds 1 at {n}" for n, c in counts.items() if c > 1]
    targets = [int(json.loads(line)["target"]) for line in trace.read_text().splitlines()]
    problems += [f"target {t} has brute count {counts.get(t, 0)}" for t in targets
                 if counts.get(t, 0) != 1]
    if half_line is not None:
        problems += [f"element {e} lies below {half_line}" for e in elements if e < half_line]
    return code, problems, True


def draw_realize_case(rng: random.Random) -> dict:
    """One realize run's form, target, step count, seed element and growth constant."""
    while True:
        form = LinearForm(
            tuple(rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randint(2, 3)))
        )
        if is_primitive(form) and is_partition_regular(form):
            break
    w = rng.randint(1, 6)
    values = {n: rng.choice((1, 2, INFINITY)) for n in range(-w, w + 1)}
    default = rng.choice((1, 2, INFINITY))
    steps = rng.randint(2, 8)
    d0, m0 = rng.choice(D0_CHOICES), rng.choice((None, 1, 2, 3))
    return {
        "form": form,
        "target": TargetFunction.make((-w, w), values=values, default=default),
        "steps": steps,
        "d0": d0,
        "m0": m0,
        "label": f"form {form}, window {w}, default {default}, steps {steps}, d0 {d0}, "
        f"m0 {m0}",
    }


def run_realize_case(case: dict, workdir: Path) -> tuple[int, list[str], bool]:
    """(exit code, problems, whether the set was recounted) for one realize run."""
    out, trace = workdir / "set.json", workdir / "trace.jsonl"
    out.unlink(missing_ok=True)
    trace.unlink(missing_ok=True)
    (workdir / "target.json").write_text(case["target"].to_json())
    coeffs = case["form"].coefficients
    argv = [
        "realize", "--form=" + ",".join(map(str, coeffs)),
        "--target", str(workdir / "target.json"),
        "--steps", str(case["steps"]),
        "--d0", str(case["d0"]),
        "--out", str(out), "--trace", str(trace), "--format", "json",
    ]
    if case["m0"] is not None:
        argv += ["--m0", str(case["m0"])]
    code, output = call_main(argv)
    if code == -1:
        return code, [f"raised: {output}"], False
    if code not in {0, 1} | {row[1] for row in _FAILURES}:
        return code, [f"exit {code}: {output.strip()}"], False
    if code != 0:
        return code, [], False
    elements = GroundSet.from_json(out.read_text()).elements
    if len(elements) ** len(coeffs) > RECOUNT_LIMIT:
        return code, [], False
    target = case["target"]
    counts = brute_counts(coeffs, elements)
    problems = [
        f"brute count {c} exceeds target {target.value_at(n)} at {n}"
        for n, c in counts.items()
        if c > target.value_at(n)
    ]
    prefix = [case["d0"]]
    for line in trace.read_text().splitlines():
        record = json.loads(line)
        t, block = int(record["target"]), [int(b) for b in record["block"]]
        if sum(a * b for a, b in zip(coeffs, block)) != t:
            problems.append(f"step {record['step']} block {block} misses its target {t}")
        if counts.get(t, 0) < record["copy"] + 1:
            problems.append(f"target {t} copy {record['copy']} has brute count {counts.get(t, 0)}")
        prefix += block
        support = len(brute_counts(coeffs, prefix))
        if record["support_size"] != support:
            problems.append(
                f"step {record['step']} support_size {record['support_size']}, brute {support}"
            )
    return code, problems, True


def draw_verify_case(rng: random.Random) -> dict:
    """One verify run's form, set, and optional target, profile and window."""
    coeffs = tuple(rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
    size, elements = rng.randint(0, 12), []
    while len(elements) < size:
        v = rng.randint(-30, 30)
        if rng.random() < 0.2:  # past +-10^20, where no machine word holds it
            v = rng.choice((1, -1)) * (10**20 + rng.randint(0, 10**22))
        if v not in elements:
            elements.append(v)
    target = None
    if rng.random() < 0.5:
        w = rng.randint(1, 6)
        values = {
            n: rng.choice((0, 1, 2, 3, INFINITY))
            for n in range(-w, w + 1)
            if rng.random() < 0.6
        }
        zeros = tuple(n for n, v in values.items() if v == 0)
        default = rng.choice((1, 2, 3, INFINITY))
        target = TargetFunction.make((-w, w), values=values, default=default, zeros=zeros)
    profile = rng.random() < 0.5
    window = None
    if rng.random() < 0.5:
        lo = rng.randint(-40, 40)
        window = (lo, lo + rng.randint(-5, 60))  # lo > hi, or no profile, must exit 3
    return {
        "coeffs": coeffs,
        "elements": elements,
        "target": target,
        "profile": profile,
        "window": window,
        "label": f"form {','.join(map(str, coeffs))}, {len(elements)} elements, "
        f"target {target is not None}, profile {profile}, window {window}",
    }


def run_verify_case(case: dict, workdir: Path) -> tuple[int, list[str], bool]:
    """(exit code, problems, whether the set was recounted) for one verify run."""
    profile = workdir / "profile.json"
    profile.unlink(missing_ok=True)
    (workdir / "set.json").write_text(json.dumps([str(v) for v in case["elements"]]))
    coeffs, target, window = case["coeffs"], case["target"], case["window"]
    argv = [
        "verify", "--form=" + ",".join(map(str, coeffs)),
        "--set", str(workdir / "set.json"), "--format", "json",
    ]
    if target is not None:
        (workdir / "target.json").write_text(target.to_json())
        argv += ["--target", str(workdir / "target.json")]
    if case["profile"]:
        argv += ["--profile", str(profile)]
    if window is not None:
        argv += ["--window", str(window[0]), str(window[1])]
    code, output = call_main(argv)
    if code == -1:
        return code, [f"raised: {output}"], False
    if code not in {0, 1} | {row[1] for row in _FAILURES}:
        return code, [f"exit {code}: {output.strip()}"], False
    if window is not None and (not case["profile"] or window[0] > window[1]):
        return code, [] if code == 3 else [f"exit {code} for the window {window}"], False
    counts = brute_counts(coeffs, case["elements"])  # at most 12^4 <= RECOUNT_LIMIT tuples
    overshoots = target_overshoots(counts, target or ALL_ONES)
    if code != (1 if overshoots else 0):
        return code, [f"exit {code} with {len(overshoots)} brute overshoots: {output}"], True
    problems = []
    report = json.loads(output)
    violations = [
        {"n": str(n), "count": c, "allowed": "inf" if allowed == INFINITY else allowed}
        for n, c, allowed in overshoots
    ]
    if report["violations"] != violations:
        problems.append(f"violations {report['violations']}, brute {violations}")
    if report["support_size"] != len(counts):
        problems.append(f"support_size {report['support_size']}, brute {len(counts)}")
    if case["profile"]:
        written = json.loads(profile.read_text())
        lo, hi = window or (min(counts, default=0), max(counts, default=-1))
        inside = {str(n): c for n, c in counts.items() if lo <= n <= hi}
        if written["counts"] != inside:
            problems.append(f"profile counts differ from the brute counts in [{lo}, {hi}]")
        bounds = [None, None] if not counts else [str(max(counts)), str(min(counts))]
        if [written["support_max"], written["support_min"]] != bounds:
            problems.append(f"profile support bounds {written}, brute {bounds}")
    return code, problems, True


COMMANDS = {
    "diff-realize": (draw_case, run_case),
    "diff-unbounded": (draw_unbounded_case, run_unbounded_case),
    "build": (draw_build_case, run_build_case),
    "realize": (draw_realize_case, run_realize_case),
    "verify": (draw_verify_case, run_verify_case),
}


def sweep(
    seed: int, runs: int, workdir: Path, command: str = "diff-realize"
) -> tuple[Counter, list[str], int]:
    """(exit-code histogram, failing runs, recounts) of ``runs`` seeded runs
    of ``command``."""
    draw_case_of, run_case_of = COMMANDS[command]
    rng = random.Random(seed)
    histogram: Counter = Counter()
    failures: list[str] = []
    recounts = 0
    for i in range(runs):
        case = draw_case_of(rng)
        code, problems, recounted = run_case_of(case, workdir)
        histogram[code] += 1
        recounts += recounted
        if problems:
            failures.append(f"run {i} ({case['label']}): " + "; ".join(problems))
    return histogram, failures, recounts


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--command", choices=sorted(COMMANDS), default="diff-realize")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--runs", type=int, default=400)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        histogram, failures, recounts = sweep(args.seed, args.runs, Path(tmp), args.command)
    print(json.dumps({
        "command": args.command,
        "seed": args.seed,
        "runs": args.runs,
        "exit_codes": {str(k): v for k, v in sorted(histogram.items())},
        "recounts": recounts,
        "failures": len(failures),
    }))
    for line in failures:
        print(line)
    sys.exit(1 if failures else 0)
