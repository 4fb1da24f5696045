import json
import re

import pytest

from linrep import GroundSet, INFINITY, PlentifulSequence, TargetFunction, builder_unique, repcount
from linrep import cli, forms
from linrep.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


COMMON = {"format": "text", "budget": 10**8}

# each command's smallest valid argv as (flag, value) pairs in the order of
# its usage line, every dest it parses to, and its options in that order
PARSER_PINS = {
    "analyze": (
        [("--form", "1,1")],
        {"form": "1,1"},
        ["--form"],
    ),
    "build": (
        [("--form", "1,2,-3"), ("--steps", "3")],
        {"form": "1,2,-3", "steps": 3, "d0": 1, "m0": None, "half_line": None,
         "out": None, "trace": None},
        ["--form", "--steps", "--d0", "--m0", "--half-line", "--out", "--trace"],
    ),
    "realize": (
        [("--form", "1,1"), ("--target", "t.json"), ("--steps", "3")],
        {"form": "1,1", "target": "t.json", "steps": 3, "d0": 1, "m0": None,
         "out": None, "trace": None},
        ["--form", "--target", "--steps", "--d0", "--m0", "--out", "--trace"],
    ),
    "diff-realize": (
        [("--target", "t.json"), ("--steps", "3"), ("--case", "unbounded")],
        {"target": "t.json", "steps": 3, "case": "unbounded", "seq": None,
         "ratio": 24, "d0": 1, "out": None, "trace": None},
        ["--target", "--steps", "--case", "--seq", "--ratio", "--d0", "--out", "--trace"],
    ),
    "verify": (
        [("--form", "1,1"), ("--set", "A.json")],
        {"form": "1,1", "set": "A.json", "target": None, "window": None, "profile": None},
        ["--form", "--set", "--target", "--window", "--profile"],
    ),
    "extract": (
        [("--set", "A.json"), ("--form", "1,-1"), ("--n", "2"), ("--length", "3")],
        {"set": "A.json", "form": "1,-1", "n": 2, "length": 3, "out": None},
        ["--set", "--form", "--n", "--length", "--out"],
    ),
}


class TestParser:
    @pytest.mark.parametrize("command", sorted(PARSER_PINS))
    def test_minimal_argv_parses_to_every_default(self, command):
        pairs, dests, _ = PARSER_PINS[command]
        ns = vars(build_parser().parse_args([command, *(a for pair in pairs for a in pair)]))
        assert callable(ns.pop("func"))
        assert ns == {"command": command, **dests, **COMMON}

    @pytest.mark.parametrize("command", sorted(PARSER_PINS))
    def test_options_keep_their_order(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        flags = re.findall(r"--[a-z0-9-]+", usage)
        assert flags == [*PARSER_PINS[command][2], "--format", "--budget"]

    @pytest.mark.parametrize(
        "command, dropped",
        [(c, i) for c, (pairs, _, _) in sorted(PARSER_PINS.items()) for i in range(len(pairs))],
    )
    def test_each_required_option_is_required(self, capsys, command, dropped):
        pairs = PARSER_PINS[command][0]
        argv = [a for i, pair in enumerate(pairs) if i != dropped for a in pair]
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, *argv])
        assert exc.value.code == 2
        assert pairs[dropped][0] in capsys.readouterr().err


class TestAnalyze:
    def test_irregular_form_text(self, capsys):
        code, out = run(capsys, "analyze", "--form", "1,-1")
        assert code == 0
        assert "partition regular: False" in out
        assert "zero-sum subset {1, -1}" in out
        assert "psi(x1)=0" in out and "chi(x2)=x1" in out

    def test_regular_form_json(self, capsys):
        code, out = run(capsys, "analyze", "--form", "1,1", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["primitive"] is True
        assert report["partition_regular"] is True
        assert report["ordered_unique_obstruction"] is True
        assert report["automorphism"] == "none"
        assert report["bezout"] == ["1", "0"]

    def test_imprimitive_form(self, capsys):
        code, out = run(capsys, "analyze", "--form", "2,4", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["primitive"] is False
        assert report["bezout"] is None

    def test_parse_error_exit_code(self, capsys):
        code, out = run(capsys, "analyze", "--form", "1,0,2")
        assert code == 2
        assert json.loads(out)["ok"] is False

    def test_subsets_walked_once(self, capsys, monkeypatch):
        calls = []
        search = forms.zero_sum_certificate

        def counted(form):
            calls.append(form)
            return search(form)

        # cli binds the name at import, so both references are counted
        monkeypatch.setattr(forms, "zero_sum_certificate", counted)
        monkeypatch.setattr(cli, "zero_sum_certificate", counted)
        code, out = run(capsys, "analyze", "--form", "1,1,1,1,1,1,1,1,1,1,1,1")
        assert code == 0 and "non-trivial automorphism: none" in out
        assert len(calls) == 1


class TestBuildVerifyRoundTrip:
    def test_build_writes_and_verifies(self, capsys, tmp_path):
        set_path = tmp_path / "basis.json"
        trace_path = tmp_path / "trace.jsonl"
        code, out = run(
            capsys,
            "build",
            "--form",
            "1,1",
            "--steps",
            "6",
            "--out",
            str(set_path),
            "--trace",
            str(trace_path),
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["elements"] == 13

        lines = trace_path.read_text().splitlines()
        assert len(lines) == 6
        assert json.loads(lines[0])["step"] == 1

        code, out = run(capsys, "verify", "--form", "1,1", "--set", str(set_path))
        assert code == 0

    def test_verify_flags_bad_set(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(GroundSet.of([0, 1, 2]).to_json())
        code, out = run(
            capsys, "verify", "--form", "1,1", "--set", str(bad), "--format", "json"
        )
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert report["violations"] == [{"n": "2", "count": 2, "allowed": 1}]

    def test_half_line_same_sign_exit_code(self, capsys):
        code, out = run(
            capsys, "build", "--form", "2,3", "--steps", "3", "--half-line", "0"
        )
        assert code == 3
        assert json.loads(out)["error"] == "MixedSignRequiredError"

    def test_imprimitive_build_exit_code(self, capsys):
        code, _ = run(capsys, "build", "--form", "2,4", "--steps", "3")
        assert code == 3

    def test_budget_overrun_exit_code(self, capsys):
        # the second block makes the set 7 elements, 7^3 = 343 tuples
        code, out = run(capsys, "build", "--form", "1,1,1", "--steps", "5", "--budget", "100")
        assert code == 4
        assert json.loads(out)["required"] == "343"

    def test_negative_budget_is_parse_error(self, capsys):
        code, out = run(capsys, "build", "--form", "1,1", "--steps", "2", "--budget", "-1")
        assert code == 2
        assert "--budget" in json.loads(out)["message"]

    @pytest.mark.parametrize(
        "flag, path, error",
        [("--out", ".", "IsADirectoryError"), ("--trace", "missing/t.jsonl", "FileNotFound")],
    )
    def test_bad_output_path_refused_before_the_build(
        self, capsys, tmp_path, monkeypatch, flag, path, error
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("the build ran")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(builder_unique, "build", unreachable)
        code, out = run(capsys, "build", "--form", "1,2,-3", "--steps", "20", flag, path)
        assert code == 2
        assert json.loads(out)["error"] == error

    def test_one_variable_build(self, capsys):
        code, out = run(capsys, "build", "--form", "1", "--steps", "3")
        assert code == 0
        assert "all of Z" in out

    @pytest.mark.parametrize("form, error", [
        ("1", "PreconditionViolationError"), ("3", "NotPrimitiveError"),
    ])
    def test_one_variable_build_writes_no_file(self, capsys, tmp_path, monkeypatch, form, error):
        # the basis is all of Z, which no set file can hold; primitivity is checked first
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, "build", "--form", form, "--steps", "3", "--trace", "t.jsonl")
        assert code == 3 and json.loads(out)["error"] == error
        assert list(tmp_path.iterdir()) == []

    def test_negative_leading_coefficient_as_its_own_argument(self, capsys):
        # argparse alone would read "-1,2" as an option and exit with usage
        joined = run(capsys, "build", "--form=-1,2", "--steps", "3", "--format", "json")
        split = run(capsys, "build", "--form", "-1,2", "--steps", "3", "--format", "json")
        assert split == joined
        assert joined[0] == 0 and json.loads(joined[1])["steps"] == 3

    def test_byte_identical_reruns(self, capsys, tmp_path):
        paths = []
        for tag in ("a", "b"):
            set_path = tmp_path / f"{tag}.json"
            trace_path = tmp_path / f"{tag}.jsonl"
            code, _ = run(
                capsys,
                "build",
                "--form",
                "1,-2",
                "--steps",
                "5",
                "--out",
                str(set_path),
                "--trace",
                str(trace_path),
            )
            assert code == 0
            paths.append((set_path.read_bytes(), trace_path.read_bytes()))
        assert paths[0] == paths[1]


class TestRealize:
    def test_target_round_trip(self, capsys, tmp_path):
        target = TargetFunction.make(
            (-15, 15), values={n: 2 for n in range(-15, 16)}, default=1
        )
        target_path = tmp_path / "target.json"
        target_path.write_text(target.to_json())
        set_path = tmp_path / "set.json"
        code, out = run(
            capsys,
            "realize",
            "--form",
            "1,1",
            "--target",
            str(target_path),
            "--steps",
            "6",
            "--out",
            str(set_path),
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

        code, _ = run(
            capsys,
            "verify",
            "--form",
            "1,1",
            "--set",
            str(set_path),
            "--target",
            str(target_path),
        )
        assert code == 0

    def test_boolean_window_bound_rejected(self, capsys, tmp_path):
        target_path = tmp_path / "t.json"
        target_path.write_text('{"window": [true, 5], "default": 1}')
        code, out = run(
            capsys, "realize", "--form", "1,1", "--target", str(target_path), "--steps", "2"
        )
        assert code == 2
        assert json.loads(out)["ok"] is False

    def test_irregular_form_exit_code(self, capsys, tmp_path):
        target_path = tmp_path / "t.json"
        target_path.write_text(TargetFunction.make((-5, 5)).to_json())
        code, _ = run(
            capsys,
            "realize",
            "--form",
            "1,-1",
            "--target",
            str(target_path),
            "--steps",
            "2",
        )
        assert code == 3


class TestDiffRealize:
    def test_infinite_case(self, capsys, tmp_path):
        target = TargetFunction.make((-4, 4), values={0: 1}, default=INFINITY)
        target_path = tmp_path / "target.json"
        target_path.write_text(target.to_json())
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(PlentifulSequence(tuple(2**i for i in range(1, 120))).to_json())
        set_path = tmp_path / "set.json"
        code, out = run(
            capsys,
            "diff-realize",
            "--target",
            str(target_path),
            "--steps",
            "8",
            "--case",
            "infinite",
            "--seq",
            str(seq_path),
            "--out",
            str(set_path),
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True and report["ledger_coherent"] is True

    def test_infinite_case_needs_seq(self, capsys, tmp_path):
        target_path = tmp_path / "target.json"
        target_path.write_text(
            TargetFunction.make((-4, 4), values={0: 1}, default=INFINITY).to_json()
        )
        code, _ = run(
            capsys,
            "diff-realize",
            "--target",
            str(target_path),
            "--steps",
            "2",
            "--case",
            "infinite",
        )
        assert code == 3

    @pytest.mark.parametrize("case", ["infinite", "unbounded"])
    def test_three_rep_obstruction_exit_code(self, capsys, tmp_path, case):
        # f(+-3) = inf needs a second doubled value, and the default is 1
        target = TargetFunction.make(
            (-5, 5), values={3: INFINITY, -3: INFINITY}, default=1
        )
        target_path = tmp_path / "target.json"
        target_path.write_text(target.to_json())
        seq_path = tmp_path / "seq.json"
        seq_path.write_text(PlentifulSequence((3, 6)).to_json())
        code, out = run(
            capsys,
            "diff-realize",
            "--target",
            str(target_path),
            "--steps",
            "3",
            "--case",
            case,
            "--seq",
            str(seq_path),
        )
        assert code == 3
        assert json.loads(out)["message"].startswith("three-rep")

    def test_unbounded_case(self, capsys, tmp_path):
        target = TargetFunction.make((-200, 200), values={2: 2, -2: 2, 50: 2, -50: 2})
        target_path = tmp_path / "target.json"
        target_path.write_text(target.to_json())
        code, out = run(
            capsys,
            "diff-realize",
            "--target",
            str(target_path),
            "--steps",
            "1",
            "--case",
            "unbounded",
            "--ratio",
            "2",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["ok"] is True


class TestExtract:
    def test_worked_example(self, capsys, tmp_path):
        set_path = tmp_path / "A.json"
        set_path.write_text(GroundSet.of([0, 1, 10, 11, 100, 101]).to_json())
        code, out = run(
            capsys,
            "extract",
            "--set",
            str(set_path),
            "--form",
            "1,-1",
            "--n",
            "1",
            "--length",
            "2",
            "--format",
            "json",
        )
        assert code == 0
        assert json.loads(out)["terms"] == ["10", "90"]

    def test_wrong_form_rejected(self, capsys, tmp_path):
        set_path = tmp_path / "A.json"
        set_path.write_text(GroundSet.of([0, 1]).to_json())
        code, _ = run(
            capsys,
            "extract",
            "--set",
            str(set_path),
            "--form",
            "1,1",
            "--n",
            "1",
            "--length",
            "1",
        )
        assert code == 3

    def test_insufficient_pairs_exit(self, capsys, tmp_path):
        set_path = tmp_path / "A.json"
        set_path.write_text(GroundSet.of([0, 1]).to_json())
        code, _ = run(
            capsys,
            "extract",
            "--set",
            str(set_path),
            "--form",
            "1,-1",
            "--n",
            "1",
            "--length",
            "3",
        )
        assert code == 3

    def test_missing_file_exit(self, capsys, tmp_path):
        code, _ = run(
            capsys,
            "extract",
            "--set",
            str(tmp_path / "nope.json"),
            "--form",
            "1,-1",
            "--n",
            "1",
            "--length",
            "1",
        )
        assert code == 2


class TestVerifyProfile:
    def test_profile_export(self, capsys, tmp_path):
        set_path = tmp_path / "A.json"
        set_path.write_text(GroundSet.of([0, 1, 2]).to_json())
        profile_path = tmp_path / "profile.json"
        code, _ = run(
            capsys,
            "verify",
            "--form",
            "1,1",
            "--set",
            str(set_path),
            "--window",
            "0",
            "4",
            "--profile",
            str(profile_path),
        )
        assert code == 1  # count 2 at n=2
        obj = json.loads(profile_path.read_text())
        assert obj["counts"] == {"0": 1, "1": 1, "2": 2, "3": 1, "4": 1}
        assert obj["support_min"] == "0" and obj["support_max"] == "4"

    def test_bad_window_rejected(self, capsys, tmp_path):
        set_path = tmp_path / "A.json"
        set_path.write_text(GroundSet.of([0]).to_json())
        code, _ = run(
            capsys,
            "verify",
            "--form",
            "1,1",
            "--set",
            str(set_path),
            "--window",
            "5",
            "-5",
        )
        assert code == 3

    @pytest.mark.parametrize(
        "extra, code",
        [
            # a malformed target is a parse error, before the count meets the budget
            (["--target", "target.json", "--budget", "2"], 2),
            (["--window", "5", "1", "--budget", "3"], 3),
        ],
    )
    def test_input_checked_before_counting(self, capsys, tmp_path, monkeypatch, extra, code):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "A.json").write_text(GroundSet.of([1, 3]).to_json())
        (tmp_path / "target.json").write_text('{"window": [-5, 5], "values": [2]}')
        argv = ["verify", "--form", "1,1", "--set", "A.json", "--profile", "p.json"]
        assert run(capsys, *argv, *extra)[0] == code
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize(
        "plan",
        [
            # a correction that drives the count at 0 negative
            lambda coeffs: (1, (coeffs, 1), ((0,), -5)),
            # an odd corrected count where den is 2
            lambda coeffs: (2, (coeffs, 2), ((0,), -1)),
            # slot symmetries that the first term's counts do not have
            lambda coeffs: (2, (coeffs, 1)),
        ],
    )
    def test_wrong_plan_is_a_bug_signal(self, capsys, tmp_path, monkeypatch, plan):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "A.json").write_text(GroundSet.of([1, 4, 9]).to_json())
        monkeypatch.setattr(repcount, "_terms", plan)
        code, out = run(capsys, "verify", "--form", "1,2,-3", "--set", "A.json")
        report = json.loads(out)
        assert code == 5
        assert report["ok"] is False and report["error"] == "ConstructionBugError"
        assert report["message"].startswith("plan of form (1, 2, -3): ")
