"""Workload definitions and the seeded input generators.

Each workload is one CLI invocation.  The seed drives only the generated
inputs: the realize target T and the verify set S.  The other inputs are
fixed because the constructions that consume them are deterministic.
Seed DEFAULT_SEED reproduces the inputs the pinned digests were taken from.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0

# realize-double: window [-30, 30]; count 2 on the selected positions.
REALIZE_WINDOW = 30
REALIZE_KEEP = 0.5  # share of window positions a non-default seed selects

# verify-mixed3: 70 distinct integers in [-10^6, 10^6].
VERIFY_SIZE = 70
VERIFY_RANGE = 10**6

# diff-batch: acceptance criterion 5(d)'s all-finite target.
T5D_WINDOW = 1_100_000
T5D_VALUES = [(2, 2), (3, 3), (552, 2), (41568, 2), (997632, 2), (1039200, 2)]


def realize_target(seed: int) -> dict:
    """Target T: count 2 at the seed's window positions, default 1.

    The default seed selects every position, which is acceptance
    criterion 3's target; any other seed keeps each position with
    probability REALIZE_KEEP.
    """
    positions = range(-REALIZE_WINDOW, REALIZE_WINDOW + 1)
    if seed == DEFAULT_SEED:
        chosen = list(positions)
    else:
        rng = random.Random(f"realize-double:{seed}")
        chosen = [n for n in positions if rng.random() < REALIZE_KEEP]
    return {
        "window": [-REALIZE_WINDOW, REALIZE_WINDOW],
        "values": {str(n): 2 for n in chosen},
        "default": 1,
        "zeros": [],
    }


def verify_set(seed: int) -> list[str]:
    """Set S: VERIFY_SIZE distinct seeded integers in [-VERIFY_RANGE, VERIFY_RANGE]."""
    rng = random.Random(f"verify-mixed3:{seed}")
    values = rng.sample(range(-VERIFY_RANGE, VERIFY_RANGE + 1), VERIFY_SIZE)
    return [str(v) for v in sorted(values)]


def t5d_target() -> dict:
    values = {}
    for n, v in T5D_VALUES:
        values[str(n)] = v
        values[str(-n)] = v
    return {"window": [-T5D_WINDOW, T5D_WINDOW], "values": values, "default": 1, "zeros": []}


def tinf_target() -> dict:
    """Every count allowed: the expected verdict is ok."""
    return {"window": [0, 0], "values": {}, "default": "inf", "zeros": []}


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool
    inputs: Callable[[int], dict[str, object]]  # file name -> JSON payload
    argv: tuple[str, ...]  # {name} placeholders are files in the run directory
    outputs: tuple[str, ...]  # files whose digests are checked
    steps: int  # expected "steps" in the report; 0 for verify
    elements: int  # expected "elements" in the report (verify: |S|)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="build-mixed3",
            seeded=False,
            inputs=lambda seed: {},
            argv=("build", "--form", "1,2,-3", "--steps", "20",
                  "--out", "{set.json}", "--trace", "{trace.jsonl}"),
            outputs=("set.json", "trace.jsonl"),
            steps=20,
            elements=61,
        ),
        Workload(
            name="realize-double",
            seeded=True,
            inputs=lambda seed: {"target.json": realize_target(seed)},
            argv=("realize", "--form", "1,1", "--steps", "200", "--target", "{target.json}",
                  "--out", "{set.json}", "--trace", "{trace.jsonl}"),
            outputs=("set.json", "trace.jsonl"),
            steps=200,
            elements=401,
        ),
        Workload(
            name="diff-batch",
            seeded=False,
            inputs=lambda seed: {"target.json": t5d_target()},
            argv=("diff-realize", "--case", "unbounded", "--steps", "90",
                  "--target", "{target.json}", "--out", "{set.json}", "--trace", "{trace.jsonl}"),
            outputs=("set.json", "trace.jsonl"),
            steps=90,
            elements=187,
        ),
        Workload(
            name="verify-mixed3",
            seeded=True,
            inputs=lambda seed: {"set.json": verify_set(seed), "target.json": tinf_target()},
            argv=("verify", "--form", "1,2,-3", "--set", "{set.json}",
                  "--target", "{target.json}", "--profile", "{profile.json}"),
            outputs=("profile.json",),
            steps=0,
            elements=VERIFY_SIZE,
        ),
    )
}


def write_inputs(workload: Workload, seed: int, directory: Path) -> None:
    for name, payload in workload.inputs(seed).items():
        (directory / name).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def cli_argv(workload: Workload, directory: Path) -> list[str]:
    """The workload's CLI arguments with file placeholders resolved."""
    out = []
    for arg in workload.argv:
        if arg.startswith("{") and arg.endswith("}"):
            arg = str(directory / arg[1:-1])
        out.append(arg)
    return out + ["--format", "json"]
