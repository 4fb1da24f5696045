"""Per-layer metrics derived from one traced invocation's spans.

A span is [name, start, end, parent index or -1, attrs]; its layer is the
part of the name before the first dot.  A span's self time is its
duration minus its direct children's durations (spans nest strictly: the
CLI is single-threaded).  The root span is cli.main, whose duration is the
traced wall time.
"""

from __future__ import annotations

import json
from collections import defaultdict

KERNEL = "repcount.class_counts"
FINAL_CHECKS = {KERNEL, "repcount.rep_function", "builder_target.check_counts_against_target"}
BUILDERS = {
    "builder_unique": ("builder_unique.build",),
    "builder_target": ("builder_target.build_for_target",),
    "builder_diff": ("builder_diff.build_infinite_case", "builder_diff.build_unbounded_case"),
}

# Metrics that are exact counts: identical on every run of the same code
# and inputs, so a later change can claim them as counts.
EXACT_COUNTS = (
    "repcount.calls",
    "repcount.tuples",
    "repcount.max_set_size",
    "builder_unique.steps",
    "builder_unique.retries",
    "builder_target.steps",
    "builder_target.retries",
    "builder_target.ordering_entries",
    "builder_diff.steps",
    "builder_diff.supply_calls",
    "builder_diff.plentiful_checks",
    "cli.output_bytes",
    "forms.calls",
    "output.elements",
    "output.max_bits",
)

UNITS = {"tuples_per_s": "1/s", "_s": "s", "share": "ratio", "yield": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _trace_file_counts(trace_text: str | None) -> tuple[int, int]:
    """(steps, retries) from a --trace JSON-lines file."""
    if not trace_text:
        return 0, 0
    records = [json.loads(line) for line in trace_text.splitlines() if line]
    return len(records), sum(r.get("retries", 0) for r in records)


def layer_metrics(trace: dict, trace_text: str | None, elements: list[int],
                  output_bytes: int) -> dict[str, float]:
    spans = trace["spans"]
    duration = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += duration[i]
    self_time = [d - c for d, c in zip(duration, child_time)]

    def outermost(i: int) -> bool:
        parent = spans[i][3]
        return parent < 0 or _layer(spans[parent][0]) != _layer(spans[i][0])

    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def total(name: str, times=duration) -> float:
        return sum(times[i] for i in by_name.get(name, ()))

    def busy(layer: str) -> float:
        return sum(duration[i] for i, s in enumerate(spans)
                   if _layer(s[0]) == layer and outermost(i))

    root = by_name["cli.main"][0]
    wall = duration[root]
    kernel = by_name.get(KERNEL, [])
    tuples = sum(spans[i][4]["tuples"] for i in kernel)
    kernel_s = total(KERNEL)
    m: dict[str, float] = {
        "trace.wall_s": wall,
        "repcount.calls": len(kernel),
        "repcount.tuples": tuples,
        "repcount.busy_s": busy("repcount"),
        "repcount.tuples_per_s": tuples / kernel_s if kernel_s else 0.0,
        "repcount.max_set_size": max((spans[i][4]["size"] for i in kernel), default=0),
        "repcount.share": busy("repcount") / wall,
        "repcount.yield": trace["largest_set_classes"] / tuples if tuples else 0.0,
    }

    trace_steps, trace_retries = _trace_file_counts(trace_text)
    for layer, entries in BUILDERS.items():
        ran = any(by_name.get(e) for e in entries)
        self_s = sum(total(e, self_time) for e in entries)
        m[f"{layer}.steps"] = trace_steps if ran else 0
        if layer != "builder_diff":
            m[f"{layer}.retries"] = trace_retries if ran else 0
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.self_share"] = self_s / wall

    m["builder_target.ordering_entries"] = len(by_name.get("builder_target.ordering_next", ()))
    m["builder_target.ordering_s"] = total("builder_target.ordering_next")
    m["builder_target.check_s"] = total("builder_target.check_counts_against_target", self_time)
    m["builder_diff.supply_calls"] = len(by_name.get("builder_diff.supply", ()))
    m["builder_diff.supply_s"] = (total("builder_diff.supply")
                                  + total("builder_diff.window_plentiful_supply"))
    m["builder_diff.plentiful_checks"] = len(by_name.get("builder_diff.is_plentiful", ()))
    m["builder_diff.plentiful_s"] = total("builder_diff.is_plentiful")

    cli_spans = {i for i, s in enumerate(spans) if _layer(s[0]) == "cli"}
    m["cli.final_check_s"] = sum(
        duration[i] for i, s in enumerate(spans)
        if s[0] in FINAL_CHECKS and s[3] in cli_spans
    )
    m["cli.self_s"] = sum(self_time[i] for i in cli_spans)
    m["cli.output_bytes"] = output_bytes
    m["forms.calls"] = sum(1 for i, s in enumerate(spans) if _layer(s[0]) == "forms" and outermost(i))
    m["forms.busy_s"] = busy("forms")
    m["output.elements"] = len(elements)
    m["output.max_bits"] = max((abs(e).bit_length() for e in elements), default=0)
    return m
