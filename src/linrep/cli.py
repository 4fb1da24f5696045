"""Command-line front end: analyze, build, realize, diff-realize, verify, extract.

All file payloads are UTF-8 JSON with big integers rendered as decimal
strings; identical invocations produce byte-identical outputs.  Exit codes:
0 success, 1 verification failure, 2 parse error, 3 precondition error,
4 enumeration budget exceeded, 5 retry exhaustion / internal bug signal.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import builder_diff, builder_target, builder_unique
from .builder_diff import DIFFERENCE_FORM, PlentifulSequence
from .builder_target import TargetFunction, TargetReport
from .errors import (
    BudgetExceededError,
    ConstructionBugError,
    LinrepError,
    PreconditionViolationError,
    RetryExhaustedError,
    SearchSpaceTooLargeError,
)
from .forms import (
    LinearForm,
    bezout_witness,
    find_nontrivial_automorphism,
    has_ordered_unique_basis_obstruction,
    is_primitive,
    zero_sum_certificate,
)
from .repcount import DEFAULT_TUPLE_BUDGET, GroundSet, RepProfile, class_counts

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_BUDGET = 4
EXIT_RETRY = 5

# the final check of build, and of verify without --target: every count <= 1
ALL_ONES = TargetFunction.make((0, 0))

# (exception type, exit code, reported error name or None for the type's
# own name); the first row that matches wins.  ValueError covers
# FormParseError and json.JSONDecodeError.
_FAILURES = (
    (FileNotFoundError, EXIT_PARSE, "FileNotFound"),
    (ValueError, EXIT_PARSE, None),
    (BudgetExceededError, EXIT_BUDGET, "BudgetExceeded"),
    (RetryExhaustedError, EXIT_RETRY, None),
    (ConstructionBugError, EXIT_RETRY, None),
    (LinrepError, EXIT_PRECONDITION, None),
)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(obj, as_json: bool, text: str) -> None:
    print(_dump(obj) if as_json else text)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, content: str) -> None:
    Path(path).write_text(content, encoding="utf-8")


def _write_outputs(args, elements: GroundSet, trace: list[dict]) -> None:
    if getattr(args, "out", None):
        _write(args.out, elements.to_json() + "\n")
    if getattr(args, "trace", None):
        lines = "".join(_dump(rec) + "\n" for rec in trace)
        _write(args.trace, lines)


def cmd_analyze(args) -> int:
    form = LinearForm.parse(args.form)
    primitive = is_primitive(form)
    certificate = zero_sum_certificate(form)
    regular = certificate is None
    obstruction = has_ordered_unique_basis_obstruction(form)
    bezout = bezout_witness(form) if primitive else None
    try:
        witness = find_nontrivial_automorphism(form)
        witness_state = "none" if witness is None else "found"
    except SearchSpaceTooLargeError:
        witness = None
        witness_state = "skipped"

    def sub(m: Optional[int]) -> str:
        return "0" if m is None else f"x{m + 1}"

    report = {
        "form": str(form),
        "primitive": primitive,
        "partition_regular": regular,
        "zero_sum_certificate": None
        if certificate is None
        else {
            "positions": [i + 1 for i in certificate],
            "coefficients": [str(form.coefficients[i]) for i in certificate],
        },
        "automorphism": witness_state
        if witness is None
        else {"psi": [sub(t) for t in witness.psi], "chi": [sub(t) for t in witness.chi]},
        "ordered_unique_obstruction": obstruction,
        "bezout": None if bezout is None else [str(s) for s in bezout],
    }
    if args.format == "json":
        print(_dump(report))
    else:
        print(f"form: {form}")
        print(f"primitive: {primitive}")
        line = f"partition regular: {regular}"
        if certificate is not None:
            coeffs = ", ".join(str(form.coefficients[i]) for i in certificate)
            line += f" (zero-sum subset {{{coeffs}}})"
        print(line)
        if witness_state == "found":
            psi = ", ".join(f"psi(x{i + 1})={sub(t)}" for i, t in enumerate(witness.psi))
            chi = ", ".join(f"chi(x{i + 1})={sub(t)}" for i, t in enumerate(witness.chi))
            print(f"non-trivial automorphism: {psi}; {chi}")
        else:
            print(f"non-trivial automorphism: {witness_state}")
        print(f"ordered unique-basis obstruction: {obstruction}")
        if bezout is not None:
            print(f"bezout witness: ({', '.join(str(s) for s in bezout)})")
        else:
            print("bezout witness: none (form is not primitive)")
    return EXIT_OK


def cmd_build(args) -> int:
    form = LinearForm.parse(args.form)
    state = builder_unique.build(
        form,
        steps=args.steps,
        d0=args.d0,
        m0=args.m0,
        half_line=args.half_line,
        budget=args.budget,
    )
    if state.trivial_whole_line:
        _emit(
            {"ok": True, "trivial_whole_line": True},
            args.format == "json",
            "one-variable form: the unique representation basis is all of Z",
        )
        return EXIT_OK
    _write_outputs(args, state.elements, state.trace_records())
    counts = class_counts(form, state.elements, args.budget)
    over = [n for n, _, _ in TargetReport.of(counts, ALL_ONES).overshoots]
    missed = sorted(t for t in state.covered_targets if counts.get(t, 0) != 1)
    below = (
        sorted(e for e in state.elements if e < args.half_line)
        if args.half_line is not None
        else []
    )
    ok = not over and not missed and not below
    report = {
        "ok": ok,
        "elements": len(state.elements),
        "steps": state.step,
        "targets": [str(t) for t in state.covered_targets],
        "violations": {
            "doubly_represented": [str(n) for n in over],
            "targets_missed": [str(t) for t in missed],
            "below_half_line": [str(e) for e in below],
        },
    }
    text = (
        f"built {len(state.elements)} elements in {state.step} steps; "
        + ("all counts <= 1" if ok else f"VIOLATIONS: {report['violations']}")
    )
    _emit(report, args.format == "json", text)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_realize(args) -> int:
    form = LinearForm.parse(args.form)
    target = TargetFunction.from_json(_read(args.target))
    state = builder_target.build_for_target(
        form,
        target,
        steps=args.steps,
        m0=args.m0,
        d0=args.d0,
        budget=args.budget,
    )
    _write_outputs(args, state.elements, state.trace_records())
    check = builder_target.check_counts_against_target(
        form, state.elements, target, args.budget
    )
    report = {
        "ok": check.ok,
        "elements": len(state.elements),
        "steps": state.step,
        "covered": [
            {"target": str(r.target), "copy": r.copy_index} for r in state.records
        ],
        "violations": str(check) if not check.ok else None,
    }
    _emit(
        report,
        args.format == "json",
        f"realized {state.step} multiset entries with {len(state.elements)} elements; "
        + ("counts within target" if check.ok else f"VIOLATIONS: {check}"),
    )
    return EXIT_OK if check.ok else EXIT_VERIFY


def cmd_diff_realize(args) -> int:
    target = TargetFunction.from_json(_read(args.target))
    if args.case == "infinite":
        if not args.seq:
            raise PreconditionViolationError(
                "sequence", "--seq FILE is required for the infinite case"
            )
        seq = PlentifulSequence.from_json(_read(args.seq))
        state = builder_diff.build_infinite_case(
            target, seq, steps=args.steps, d0=args.d0, budget=args.budget
        )
    else:
        supply = builder_diff.window_plentiful_supply(target)
        state = builder_diff.build_unbounded_case(
            target,
            supply,
            steps=args.steps,
            d0=args.d0,
            quotient_bound=args.ratio,
            budget=args.budget,
        )
    _write_outputs(args, state.elements, state.trace_records())
    check = builder_target.check_counts_against_target(
        DIFFERENCE_FORM, state.elements, target, args.budget
    )
    ledger_ok = state.ledger_gaps_ok()
    ok = check.ok and ledger_ok
    report = {
        "ok": ok,
        "elements": len(state.elements),
        "steps": state.step,
        "covered": [{"target": str(t), "copy": c} for t, c in state.covered],
        "ledger_coherent": ledger_ok,
        "violations": str(check) if not check.ok else None,
    }
    _emit(
        report,
        args.format == "json",
        f"difference-form build of {state.step} steps, {len(state.elements)} elements; "
        + ("verified" if ok else f"VIOLATIONS: {check}; ledger ok: {ledger_ok}"),
    )
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_verify(args) -> int:
    form = LinearForm.parse(args.form)
    ground = GroundSet.from_json(_read(args.set))
    if args.window is not None:
        lo, hi = args.window
        if lo > hi:
            raise PreconditionViolationError("window", f"{lo} > {hi}")
    target = TargetFunction.from_json(_read(args.target)) if args.target else ALL_ONES
    # check every input before counting, which may exceed the budget
    counts = class_counts(form, ground, args.budget)
    if args.profile:
        window = None if args.window is None else tuple(args.window)
        _write(args.profile, RepProfile(counts, window).to_json() + "\n")
    violations = [
        {"n": str(n), "count": c, "allowed": "inf" if allowed == float("inf") else allowed}
        for n, c, allowed in TargetReport.of(counts, target).overshoots
    ]
    ok = not violations
    report = {"ok": ok, "violations": violations, "support_size": len(counts)}
    _emit(
        report,
        args.format == "json",
        "all counts within bounds"
        if ok
        else "violations: "
        + "; ".join(f"n={v['n']} count={v['count']} allowed={v['allowed']}" for v in violations),
    )
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_extract(args) -> int:
    form = LinearForm.parse(args.form)
    if form.coefficients != DIFFERENCE_FORM.coefficients:
        raise PreconditionViolationError(
            "form", "extraction is defined for the difference form 1,-1"
        )
    ground = GroundSet.from_json(_read(args.set))
    seq = builder_diff.extract_plentiful(ground, args.n, args.length, args.budget)
    if args.out:
        _write(args.out, seq.to_json() + "\n")
    _emit(
        {"ok": True, "terms": [str(t) for t in seq.terms]},
        args.format == "json",
        f"gap sequence: ({', '.join(str(t) for t in seq.terms)})",
    )
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_TUPLE_BUDGET,
        help="maximum number of tuples any one enumeration may visit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linrep",
        description="construct and verify sets with prescribed representation "
        "functions of integer linear forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structural report on a form")
    p.add_argument("--form", required=True, help='comma-separated coefficients, e.g. "1,2,-3"')
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("build", help="grow a unique representation basis")
    p.add_argument("--form", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--d0", type=int, default=1)
    p.add_argument("--m0", type=int, default=None)
    p.add_argument("--half-line", dest="half_line", type=int, default=None)
    p.add_argument("--out", help="write the set as a JSON array of decimal strings")
    p.add_argument("--trace", help="write one JSON record per step (JSON lines)")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("realize", help="grow a set matching a target function")
    p.add_argument("--form", required=True)
    p.add_argument("--target", required=True, help="target-function JSON file")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--d0", type=int, default=1)
    p.add_argument("--m0", type=int, default=None)
    p.add_argument("--out")
    p.add_argument("--trace")
    _add_common(p)
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser(
        "diff-realize", help="realize a target for the difference form x1 - x2"
    )
    p.add_argument("--target", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--case", choices=("infinite", "unbounded"), required=True)
    p.add_argument("--seq", help="plentiful sequence JSON file (infinite case)")
    p.add_argument(
        "--ratio",
        type=int,
        default=builder_diff.DEFAULT_QUOTIENT_BOUND,
        help="minimum term quotient requested from the supplier (unbounded case)",
    )
    p.add_argument("--d0", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--trace")
    _add_common(p)
    p.set_defaults(func=cmd_diff_realize)

    p = sub.add_parser("verify", help="recount a set file against a form")
    p.add_argument("--form", required=True)
    p.add_argument("--set", required=True, help="ground-set JSON file")
    p.add_argument(
        "--target",
        help="target-function JSON file; omitted means every count must be <= 1",
    )
    p.add_argument(
        "--window",
        type=int,
        nargs=2,
        metavar=("LO", "HI"),
        help="window for --profile (default: the full support)",
    )
    p.add_argument("--profile", help="also write the count profile as JSON")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("extract", help="extract a gap sequence at a difference")
    p.add_argument("--set", required=True)
    p.add_argument("--form", required=True, help="must be the difference form 1,-1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_extract)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.budget < 0:
            raise ValueError(f"--budget must be non-negative, got {args.budget}")
        return args.func(args)
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        _, code, name = next(row for row in _FAILURES if isinstance(exc, row[0]))
        report = {"ok": False, "error": name or type(exc).__name__, "message": str(exc)}
        if isinstance(exc, BudgetExceededError):
            report["required"] = str(exc.required)
        print(_dump(report))
        return code


if __name__ == "__main__":
    sys.exit(main())
