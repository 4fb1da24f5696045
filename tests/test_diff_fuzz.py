"""A fixed-seed fuzz of ``diff-realize --case infinite`` through the CLI.

The harness and its checks live in ``diff_fuzz``; CI runs a longer sweep
of it at another seed.
"""

from diff_fuzz import sweep


def test_infinite_case_runs_exit_0_or_3_and_recount_within_target(tmp_path):
    histogram, failures, recounts = sweep(seed=7, runs=40, workdir=tmp_path)
    assert failures == []
    assert set(histogram) == {0, 3}
    assert recounts == histogram[0]
