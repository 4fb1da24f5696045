"""Command-line front end: analyze, build, realize, diff-realize, verify, extract.

All file payloads are UTF-8 JSON with big integers rendered as decimal
strings; identical invocations produce byte-identical outputs.  Exit codes:
0 success, 1 verification failure, 2 parse error, 3 precondition error,
4 enumeration budget exceeded, 5 retry exhaustion / internal bug signal.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path
from typing import Optional

from . import builder_diff, builder_target, builder_unique
from .builder_diff import DIFFERENCE_FORM, PlentifulSequence
from .builder_target import ALL_ONES, TargetFunction, TargetReport
from .errors import (
    BudgetExceededError,
    ConstructionBugError,
    LinrepError,
    PreconditionViolationError,
    RetryExhaustedError,
)
from .forms import (
    LinearForm,
    _witness_from_certificate,
    bezout_witness,
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

# (exception type, exit code, reported error name or None for the type's
# own name); the first row that matches wins.  OSError covers every other
# path that cannot be read or written, and ValueError covers FormParseError
# and json.JSONDecodeError.
_FAILURES = (
    (FileNotFoundError, EXIT_PARSE, "FileNotFound"),
    (OSError, EXIT_PARSE, None),
    (ValueError, EXIT_PARSE, None),
    (BudgetExceededError, EXIT_BUDGET, "BudgetExceeded"),
    (RetryExhaustedError, EXIT_RETRY, None),
    (ConstructionBugError, EXIT_RETRY, None),
    (LinrepError, EXIT_PRECONDITION, None),
)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, content: str) -> None:
    Path(path).write_text(content, encoding="utf-8")


def _write_outputs(args, state) -> None:
    if getattr(args, "out", None):
        _write(args.out, state.elements.to_json() + "\n")
    if getattr(args, "trace", None):
        _write(args.trace, "".join(_dump(r.to_json_obj()) + "\n" for r in state.records))


def _realized(args, form: LinearForm, state, target: TargetFunction) -> tuple[dict, TargetReport]:
    """Write a target build's set and trace, recount the set, report the shared keys."""
    _write_outputs(args, state)
    check = builder_target.check_counts_against_target(
        form, state.elements, target, args.budget
    )
    report = {
        "ok": check.ok,
        "elements": len(state.elements),
        "steps": state.step,
        "covered": [{"target": str(t), "copy": c} for t, c in state.covered],
        "violations": str(check) if not check.ok else None,
    }
    return report, check


def cmd_analyze(args) -> tuple[dict, str]:
    form = LinearForm.parse(args.form)
    primitive = is_primitive(form)
    certificate = zero_sum_certificate(form)
    regular = certificate is None
    obstruction = has_ordered_unique_basis_obstruction(form)
    bezout = bezout_witness(form) if primitive else None
    witness = _witness_from_certificate(form, certificate)

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
        "automorphism": "none"
        if witness is None
        else {"psi": [sub(t) for t in witness.psi], "chi": [sub(t) for t in witness.chi]},
        "ordered_unique_obstruction": obstruction,
        "bezout": None if bezout is None else [str(s) for s in bezout],
    }
    lines = [f"form: {form}", f"primitive: {primitive}", f"partition regular: {regular}"]
    if certificate is not None:
        coeffs = ", ".join(str(form.coefficients[i]) for i in certificate)
        lines[-1] += f" (zero-sum subset {{{coeffs}}})"
    if witness is not None:
        psi = ", ".join(f"psi(x{i + 1})={sub(t)}" for i, t in enumerate(witness.psi))
        chi = ", ".join(f"chi(x{i + 1})={sub(t)}" for i, t in enumerate(witness.chi))
        lines.append(f"non-trivial automorphism: {psi}; {chi}")
    else:
        lines.append("non-trivial automorphism: none")
    lines.append(f"ordered unique-basis obstruction: {obstruction}")
    if bezout is not None:
        lines.append(f"bezout witness: ({', '.join(str(s) for s in bezout)})")
    else:
        lines.append("bezout witness: none (form is not primitive)")
    return report, "\n".join(lines)


def cmd_build(args) -> tuple[dict, str]:
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
        if args.out or args.trace:
            raise PreconditionViolationError(
                "arity", "a one-variable form's basis is all of Z, which no set file can hold"
            )
        return (
            {"ok": True, "trivial_whole_line": True},
            "one-variable form: the unique representation basis is all of Z",
        )
    _write_outputs(args, state)
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
    return report, (
        f"built {len(state.elements)} elements in {state.step} steps; "
        + ("all counts <= 1" if ok else f"VIOLATIONS: {report['violations']}")
    )


def cmd_realize(args) -> tuple[dict, str]:
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
    report, check = _realized(args, form, state, target)
    return report, (
        f"realized {state.step} multiset entries with {len(state.elements)} elements; "
        + ("counts within target" if check.ok else f"VIOLATIONS: {check}")
    )


def cmd_diff_realize(args) -> tuple[dict, str]:
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
    report, check = _realized(args, DIFFERENCE_FORM, state, target)
    ledger_ok = report["ledger_coherent"] = state.ledger_gaps_ok()
    ok = report["ok"] = check.ok and ledger_ok
    return report, (
        f"difference-form build of {state.step} steps, {len(state.elements)} elements; "
        + ("verified" if ok else f"VIOLATIONS: {check}; ledger ok: {ledger_ok}")
    )


def cmd_verify(args) -> tuple[dict, str]:
    form = LinearForm.parse(args.form)
    ground = GroundSet.from_json(_read(args.set))
    if args.window is not None:
        lo, hi = args.window
        if not args.profile:
            raise PreconditionViolationError("window", "--window applies only to --profile")
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
    return report, (
        "all counts within bounds"
        if ok
        else "violations: "
        + "; ".join(f"n={v['n']} count={v['count']} allowed={v['allowed']}" for v in violations)
    )


def cmd_extract(args) -> tuple[dict, str]:
    form = LinearForm.parse(args.form)
    if form.coefficients != DIFFERENCE_FORM.coefficients:
        raise PreconditionViolationError(
            "form", "extraction is defined for the difference form 1,-1"
        )
    ground = GroundSet.from_json(_read(args.set))
    seq = builder_diff.extract_plentiful(ground, args.n, args.length, args.budget)
    if args.out:
        _write(args.out, seq.to_json() + "\n")
    return (
        {"ok": True, "terms": [str(t) for t in seq.terms]},
        f"gap sequence: ({', '.join(str(t) for t in seq.terms)})",
    )


# every option's add_argument keywords, each declared once
_OPTIONS = {
    "--form": {"required": True, "help": 'comma-separated coefficients, e.g. "1,2,-3"'},
    "--set": {"required": True, "help": "ground-set JSON file"},
    "--target": {"required": True, "help": "target-function JSON file"},
    "--steps": {"type": int, "required": True},
    "--case": {"choices": ("infinite", "unbounded"), "required": True},
    "--seq": {"help": "plentiful sequence JSON file (infinite case)"},
    "--ratio": {"type": int, "default": builder_diff.DEFAULT_QUOTIENT_BOUND,
                "help": "minimum term quotient requested from the supplier (unbounded case)"},
    "--d0": {"type": int, "default": 1},
    "--m0": {"type": int},
    "--half-line": {"type": int},
    "--n": {"type": int, "required": True},
    "--length": {"type": int, "required": True},
    "--window": {"type": int, "nargs": 2, "metavar": ("LO", "HI"),
                 "help": "window for --profile, which it requires (default: the full support)"},
    "--profile": {"help": "also write the count profile as JSON"},
    "--out": {"help": "write the set or extract's gap sequence as a JSON array of decimal strings"},
    "--trace": {"help": "write one JSON record per step (JSON lines)"},
    "--format": {"choices": ("text", "json"), "default": "text"},
    "--budget": {"type": int, "default": DEFAULT_TUPLE_BUDGET,
                 "help": "maximum number of tuples any one enumeration may visit"},
}

# command: (handler, help, its options in order, keywords that override
# _OPTIONS for this command); every command takes --format and --budget last
_COMMANDS = {
    "analyze": (cmd_analyze, "structural report on a form", "--form", {}),
    "build": (cmd_build, "grow a unique representation basis",
              "--form --steps --d0 --m0 --half-line --out --trace", {}),
    "realize": (cmd_realize, "grow a set matching a target function",
                "--form --target --steps --d0 --m0 --out --trace", {}),
    "diff-realize": (cmd_diff_realize, "realize a target for the difference form x1 - x2",
                     "--target --steps --case --seq --ratio --d0 --out --trace", {}),
    "verify": (cmd_verify, "recount a set file against a form",
               "--form --set --target --window --profile",
               {"--target": {"required": False, "help": "target-function JSON file; "
                             "omitted means every count must be <= 1"}}),
    "extract": (cmd_extract, "extract a gap sequence at a difference (--form must be 1,-1)",
                "--set --form --n --length --out", {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linrep",
        description="construct and verify sets with prescribed representation "
        "functions of integer linear forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags, overrides) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in (*flags.split(), "--format", "--budget"):
            p.add_argument(flag, **{**_OPTIONS[flag], **overrides.get(flag, {})})
        p.set_defaults(func=func)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command, print its report or its error, and return the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):  # argparse reads "-1,2" as an option
        if argv[i] == "--form" and argv[i + 1][:1] == "-" and argv[i + 1][1:2].isdigit():
            argv[i : i + 2] = ["--form=" + argv[i + 1]]
    args = build_parser().parse_args(argv)
    try:
        if args.budget < 0:
            raise ValueError(f"--budget must be non-negative, got {args.budget}")
        for path in filter(None, (getattr(args, k, None) for k in ("out", "trace", "profile"))):
            # refuse a path the write would refuse, with its error, before the work
            if Path(path).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            try:
                Path(path).parent.stat()
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from None
        report, text = args.func(args)
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        _, code, name = next(row for row in _FAILURES if isinstance(exc, row[0]))
        report = {"ok": False, "error": name or type(exc).__name__, "message": str(exc)}
        if isinstance(exc, BudgetExceededError):
            report["required"] = str(exc.required)
        print(_dump(report))
        return code
    print(_dump(report) if args.format == "json" else text)
    return EXIT_OK if report.get("ok", True) else EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
