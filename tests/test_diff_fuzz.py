"""Fixed-seed fuzzes of ``diff-realize`` (both cases), ``build``,
``realize`` and ``verify`` through the CLI.

The harness and its checks live in ``diff_fuzz``; CI runs a longer sweep
of each at another seed.
"""

from diff_fuzz import sweep


def test_infinite_case_runs_exit_0_or_3_and_recount_within_target(tmp_path):
    histogram, failures, recounts = sweep(seed=7, runs=40, workdir=tmp_path)
    assert failures == []
    assert set(histogram) == {0, 3}
    assert recounts == histogram[0]


def test_batch_case_runs_recount_within_target_and_fill_every_traced_value(tmp_path):
    # exit 5 is the known incidental-pair defect, counted and not failed
    histogram, failures, recounts = sweep(
        seed=7, runs=40, workdir=tmp_path, command="diff-unbounded"
    )
    assert failures == []
    assert set(histogram) <= {0, 3, 5}
    assert recounts == histogram[0] >= 15


def test_build_runs_exit_0_or_3_and_recount_unique(tmp_path):
    histogram, failures, recounts = sweep(seed=7, runs=40, workdir=tmp_path, command="build")
    assert failures == []
    assert set(histogram) == {0, 3}
    assert recounts == histogram[0]


def test_realize_runs_recount_within_target_with_traced_support_sizes(tmp_path):
    # exit 5 is the known forced-collision defect, counted and not failed
    histogram, failures, recounts = sweep(seed=7, runs=40, workdir=tmp_path, command="realize")
    assert failures == []
    assert set(histogram) <= {0, 3, 5}
    assert recounts == histogram[0] >= 30


def test_verify_runs_agree_with_the_brute_recount(tmp_path):
    # exit 3 is a reversed --window, refused before any count
    histogram, failures, recounts = sweep(seed=7, runs=40, workdir=tmp_path, command="verify")
    assert failures == []
    assert set(histogram) == {0, 1, 3}
    assert recounts == histogram[0] + histogram[1]
