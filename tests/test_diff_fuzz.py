"""Fixed-seed fuzzes of ``diff-realize`` (both cases), ``build``,
``realize`` and ``verify`` through the CLI.

The harness and its checks live in ``diff_fuzz``; CI runs a longer sweep
of each at another seed.  Each slice also names every non-zero exit it
allows (``diff_fuzz.error_name``).
"""

import json
from pathlib import Path

from diff_fuzz import COMMANDS, sweep


def test_infinite_case_runs_exit_0_or_3_and_recount_within_target(tmp_path):
    histogram, errors, failures, recounts, _ = sweep(seed=7, runs=40, workdir=tmp_path)
    assert failures == []
    assert set(histogram) == {0, 3}
    assert set(errors) <= {"3 SequenceExhaustedError", "3 PreconditionViolationError plentiful"}
    assert recounts == histogram[0]


def test_batch_case_runs_recount_within_target_and_fill_every_traced_value(tmp_path):
    # exit 5 is the known incidental-pair defect, counted and not failed
    histogram, errors, failures, recounts, _ = sweep(
        seed=7, runs=40, workdir=tmp_path, command="diff-unbounded"
    )
    assert failures == []
    assert set(histogram) <= {0, 3, 5}
    assert set(errors) <= {
        "3 SupplyExhaustedError",
        "3 PreconditionViolationError three-rep",
        "5 RetryExhaustedError",
    }
    assert recounts == histogram[0] >= 15


def test_build_runs_exit_0_or_3_and_recount_unique(tmp_path):
    histogram, errors, failures, recounts, _ = sweep(
        seed=7, runs=40, workdir=tmp_path, command="build"
    )
    assert failures == []
    assert set(histogram) == {0, 3}
    assert set(errors) == {"3 MixedSignRequiredError"}  # a single-signed form's half-line
    assert recounts == histogram[0]


def test_realize_runs_recount_within_target_with_traced_support_sizes(tmp_path):
    # exit 5 is the known forced-collision defect, counted and not failed
    histogram, errors, failures, recounts, _ = sweep(
        seed=7, runs=40, workdir=tmp_path, command="realize"
    )
    assert failures == []
    assert set(histogram) <= {0, 3, 5}
    assert set(errors) <= {"5 RetryExhaustedError"}
    assert recounts == histogram[0] >= 30


def test_verify_runs_agree_with_the_brute_recount(tmp_path):
    # exit 3 is a reversed --window, refused before any count
    histogram, errors, failures, recounts, _ = sweep(
        seed=7, runs=40, workdir=tmp_path, command="verify"
    )
    assert failures == []
    assert set(histogram) == {0, 1, 3}
    assert set(errors) == {"1", "3 PreconditionViolationError window"}
    assert recounts == histogram[0] + histogram[1]


def test_outputs_digest_names_no_working_directory(tmp_path):
    # the same runs in two directories hash alike, and fewer runs do not
    digests = []
    for name, runs in (("a", 6), ("bb", 6), ("a", 5)):
        (tmp_path / name).mkdir(exist_ok=True)
        digests.append(sweep(seed=7, runs=runs, workdir=tmp_path / name, command="verify")[4])
    assert digests[0] == digests[1] != digests[2]


def test_checked_in_seed11_summaries_name_every_non_zero_exit():
    # CI compares each command's --seed 11 --runs 400 summary with this
    # file, the sha256 of every run's exit code, stdout and files included
    pinned = json.loads((Path(__file__).parent / "fuzz_seed11.json").read_text())
    assert set(pinned) == set(COMMANDS)
    for command, summary in pinned.items():
        assert (summary["command"], summary["seed"], summary["failures"]) == (command, 11, 0)
        assert len(bytes.fromhex(summary["outputs"])) == 32
        codes = summary["exit_codes"]
        assert sum(codes.values()) == summary["runs"] == 400
        assert sum(summary["errors"].values()) == summary["runs"] - codes.get("0", 0)
        assert {name.split()[0] for name in summary["errors"]} == set(codes) - {"0"}
