"""Golden CLI corpus: every case must reproduce its stored bytes exactly.

Each directory under ``tests/golden`` holds one ``linrep`` invocation:
``case.json`` has the argument list and the expected exit code, ``input/``
the files the invocation reads, and ``expected/`` its stdout
(``stdout.txt``) and every file it writes.  The invocation runs in process
inside a fresh directory with relative file names, so the outputs carry no
machine-specific paths.  A case changes only on purpose, by editing its
stored files.
"""

import json
import shutil
from pathlib import Path

import pytest

from linrep import repcount
from linrep.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "case.json").is_file())


def test_corpus_covers_every_subcommand_and_exit_code():
    specs = [json.loads((GOLDEN / name / "case.json").read_text()) for name in CASES]
    assert {s["argv"][0] for s in specs} == {
        "analyze", "build", "realize", "diff-realize", "verify", "extract"
    }
    assert {s["exit"] for s in specs} == set(range(6))


@pytest.mark.parametrize("name", CASES)
def test_golden_case(name, tmp_path, monkeypatch, capsys):
    check_case(name, tmp_path, monkeypatch, capsys)


RETRY_TRAILS = [
    name for name in CASES if json.loads((GOLDEN / name / "case.json").read_text())["exit"] == 5
]


@pytest.mark.parametrize("name", RETRY_TRAILS)
def test_retry_trail_with_many_shards(name, tmp_path, monkeypatch, capsys):
    # each step's delta in many residue shards: a rejection still names its
    # spiral-least offender, which no shard count moves
    monkeypatch.setattr(repcount, "_SHARD_TUPLES", 8)
    check_case(name, tmp_path, monkeypatch, capsys)


def check_case(name, tmp_path, monkeypatch, capsys):
    case = GOLDEN / name
    spec = json.loads((case / "case.json").read_text())
    inputs = case / "input"
    if inputs.is_dir():
        for path in inputs.iterdir():
            shutil.copy(path, tmp_path / path.name)
    before = {p.name for p in tmp_path.iterdir()}
    monkeypatch.chdir(tmp_path)

    code = main(list(spec["argv"]))

    expected = case / "expected"
    assert code == spec["exit"]
    assert capsys.readouterr().out == (expected / "stdout.txt").read_text(encoding="utf-8")
    written = {p.name for p in tmp_path.iterdir()} - before
    stored = {p.name for p in expected.iterdir()} - {"stdout.txt"}
    assert written == stored
    for fname in sorted(stored):
        assert (tmp_path / fname).read_bytes() == (expected / fname).read_bytes(), fname
