"""Realizing a prescribed representation function for regular forms.

A target function assigns every integer a desired class count (possibly
infinite), given as an explicit window of values plus a default for
everything else; its zero set must be an explicit finite list inside the
window.  The builder walks a fair enumeration of the multiset holding
f(n) copies of n and, per step, appends one block giving the current
entry a fresh representation class, verified by exhaustively counting the
classes the block adds, so that no count ever exceeds its target and the
zero set stays unrepresented.
"""

from __future__ import annotations

import json
import math
from functools import partial
from itertools import chain, islice
from typing import Iterator, NamedTuple, Optional, Union

from .builder_unique import (
    DEFAULT_RETRY_CAP,
    ConstructionState,
    StepRecord,
    Tally,
    Violation,
    _grow,
    _propose,
    default_growth_constant,
    mixed_sign_last,
)
from .errors import (
    NotPartitionRegularError,
    NotPrimitiveError,
    PreconditionViolationError,
)
from .forms import Frozen, LinearForm, bezout_witness, is_partition_regular, is_primitive
from .forms import spiral, spiral_index
from .repcount import DEFAULT_TUPLE_BUDGET, GroundSet, class_counts, int_from_json

INFINITY: float = math.inf

Count = Union[int, float]  # non-negative int, or INFINITY


def _validate_count(value: Count, what: str) -> Count:
    if value == INFINITY:
        return INFINITY
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{what} must be a non-negative integer or INFINITY")
    return value


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; a repeated key raises instead of keeping the last."""
    obj: dict = {}
    for k, v in pairs:
        if k in obj:
            raise ValueError(f"target file repeats the key {k!r}")
        obj[k] = v
    return obj


class TargetFunction(Frozen):
    """A prescribed count for every integer: window values plus a default.

    ``values`` fixes counts inside the window; every other integer takes
    ``default``.  Zeros may occur only at the listed ``zero_set`` positions,
    which must lie inside the window and take no non-zero value; the
    default is never zero, so the zero set is always finite and explicit.
    ``values`` is a dict, so a target function is not hashable.
    """

    __slots__ = ("window_lo", "window_hi", "values", "default", "zero_set")

    def __init__(
        self, window_lo: int, window_hi: int, values: dict, default: Count, zero_set: frozenset
    ):
        if window_lo > window_hi:
            raise ValueError("window lower bound exceeds upper bound")
        default = _validate_count(default, "default")
        if default == 0:
            raise ValueError("default count must never be zero")
        zeros = frozenset(zero_set)
        values = dict(values)
        for n in zeros:
            if not window_lo <= n <= window_hi:
                raise ValueError(f"zero at {n} lies outside the window")
            if values.setdefault(n, 0) != 0:
                raise ValueError(f"zero at {n} also has the non-zero value {values[n]}")
        for n, v in values.items():
            if not window_lo <= n <= window_hi:
                raise ValueError(f"explicit value at {n} lies outside the window")
            v = _validate_count(v, f"value at {n}")
            if v == 0 and n not in zeros:
                raise ValueError(f"zero value at {n} missing from the zero list")
            values[n] = v
        self._init(window_lo, window_hi, values, default, zeros)

    @classmethod
    def make(
        cls,
        window: tuple[int, int],
        values: Optional[dict[int, Count]] = None,
        default: Count = 1,
        zeros: tuple[int, ...] = (),
    ) -> "TargetFunction":
        return cls(
            window_lo=window[0],
            window_hi=window[1],
            values=dict(values or {}),
            default=default,
            zero_set=frozenset(zeros),
        )

    def value_at(self, n: int) -> Count:
        v = self.values.get(n)
        return self.default if v is None else v

    def has_infinite_value(self) -> bool:
        return self.default == INFINITY or any(
            v == INFINITY for v in self.values.values()
        )

    @classmethod
    def from_json(cls, text: str) -> "TargetFunction":
        """Load {"window": [lo, hi], "values": {"n": c|"inf"},
        "default": c|"inf", "zeros": [n, ...]}.

        Any other shape raises ValueError, and so does a key repeated in one
        object or two value keys naming one integer (``"2"`` and ``"02"``).
        """
        raw = json.loads(text, object_pairs_hook=_unique_keys)
        if not isinstance(raw, dict):
            raise ValueError("target file must be a JSON object")
        window = raw.get("window")
        if (
            not isinstance(window, list)
            or len(window) != 2
            or not all(isinstance(b, int) and not isinstance(b, bool) for b in window)
        ):
            raise ValueError('target file needs "window": [lo, hi]')

        def decode(v) -> Count:
            if v == "inf":
                return INFINITY
            if isinstance(v, int) and not isinstance(v, bool):
                return v
            raise ValueError(f"count must be an integer or \"inf\", got {v!r}")

        raw_values, raw_zeros = raw.get("values", {}), raw.get("zeros", [])
        if not isinstance(raw_values, dict):
            raise ValueError('target file needs "values" as a JSON object')
        if not isinstance(raw_zeros, list):
            raise ValueError('target file needs "zeros" as a JSON array')
        values: dict[int, Count] = {}
        for k, v in raw_values.items():
            n = int_from_json(k, "value key")
            if n in values:
                raise ValueError(f"value key {k!r} repeats the integer {n}")
            values[n] = decode(v)
        default = decode(raw.get("default", 1))
        zeros = tuple(int_from_json(z, "zero-set entry") for z in raw_zeros)
        return cls.make((window[0], window[1]), values, default, zeros)

    def to_json(self) -> str:
        def encode(v: Count):
            return "inf" if v == INFINITY else v

        obj = {
            "window": [self.window_lo, self.window_hi],
            "values": {str(n): encode(v) for n, v in sorted(self.values.items())},
            "default": encode(self.default),
            "zeros": sorted(self.zero_set),
        }
        return json.dumps(obj, sort_keys=True)


# every count at most 1: the target of build, and the final check of build
# and of verify without --target
ALL_ONES = TargetFunction.make((0, 0))


class MultisetOrdering(Frozen):
    """Fair enumeration of the multiset holding f(n) copies of n.

    Entry (n, c) is emitted at diagonal level max(spiral position of n, c),
    so every copy of every value appears at a finite position even when
    some counts are infinite.  Iteration yields (n, copy_index) pairs.

    Each level visits only the earlier positions whose count still exceeds
    it, so past a finite default a level costs O(explicit values above the
    default), not O(level).
    """

    __slots__ = ("target",)

    def __init__(self, target: TargetFunction):
        self._init(target)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        value_at = self.target.value_at
        # (spiral(i), f(spiral(i))) for i < level, in spiral order; a pair
        # leaves once the level reaches its count
        live: list[tuple[int, Count]] = []
        level = 0
        while True:
            n = spiral(level)
            fv = value_at(n)
            cap = level + 1 if fv == INFINITY else min(level + 1, int(fv))
            for c in range(cap):
                yield (n, c)
            live = [(m, v) for m, v in live if v > level]
            yield from ((m, level) for m, _ in live)
            live.append((n, fv))
            level += 1

    def entries(self, count: int) -> list[tuple[int, int]]:
        """The first ``count`` entries; a negative count raises ValueError."""
        return list(islice(self, count))


def _scheduled_before(entry: tuple[int, int]) -> range:
    """The numbers ``MultisetOrdering`` schedules before ``entry`` = (n, c),
    with n and the target's zeros left to the caller.

    (n, c) comes at level L = max(spiral_index(n), c): after every entry of
    levels 0 .. L-1 and, within level L, after spiral(L)'s own entries.  A
    number with a non-zero target has its first entry at the level of its
    spiral position, and a zero has none.  So the numbers scheduled before
    (n, c), other than n, are exactly those of spiral(0), ..., spiral(L)
    whose target is not 0: this range less n and the zeros.
    """
    n, c = entry
    level = max(spiral_index(n), c)
    return range(-(level // 2), (level + 1) // 2 + 1)


def enumerate_multiset(target: TargetFunction) -> MultisetOrdering:
    """Deterministic fair ordering of the target's copy multiset."""
    return MultisetOrdering(target)


def compute_X(n: int, l: int, m: int, p: int) -> set[int]:
    """All integers of the form (a/b)*n + c over the parameter box.

    a ranges over [-l, l], b over the non-zero part of [-m, m], c over
    [-p, p]; only exactly-integral quotients are kept.  Exact integer
    arithmetic throughout.  Requires l, m >= 1 and p >= 0.
    """
    if l < 1 or m < 1 or p < 0:
        raise ValueError("need l >= 1, m >= 1, p >= 0")
    out: set[int] = set()
    for a in range(-l, l + 1):
        num = a * n
        for b in chain(range(-m, 0), range(1, m + 1)):
            if num % b == 0:
                q = num // b
                for c in range(-p, p + 1):
                    out.add(q + c)
    return out


class TargetReport(NamedTuple):
    """Outcome of checking a set's counts against a target function."""

    overshoots: tuple[tuple[int, int, Count], ...]  # (n, count, allowed)

    @property
    def ok(self) -> bool:
        return not self.overshoots

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"count {c} > {allowed} at {n}" for n, c, allowed in self.overshoots)

    @classmethod
    def of(cls, counts: dict[int, int], target: TargetFunction) -> "TargetReport":
        """Every overshoot of full-support ``counts``, a represented zero included.

        The explicit values are checked one by one.  Every other value is
        allowed the default, and none of them can exceed it unless the
        largest count does (never, for an infinite default), so the other
        counts are walked only then.
        """
        values, default = target.values, target.default
        overshoots = [(n, counts[n], v) for n, v in values.items() if counts.get(n, 0) > v]
        if default != INFINITY and max(counts.values(), default=0) > default:
            overshoots += [
                (n, c, default) for n, c in counts.items() if c > default and n not in values
            ]
        overshoots.sort()
        return cls(overshoots=tuple(overshoots))


def check_counts_against_target(
    form: LinearForm,
    ground_set: GroundSet,
    target: TargetFunction,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> TargetReport:
    """Full-support count check: lists every overshoot."""
    return TargetReport.of(class_counts(form, ground_set, budget), target)


def _accept_target(
    target: TargetFunction,
    half_line: Optional[int],
    state: ConstructionState,
    tally: Tally,
    entry: tuple[int, int],
    block: tuple[int, ...],
) -> Optional[Violation]:
    """Keep every element at or above ``half_line`` (when set), never
    overshoot, leave the numbers scheduled before the entry untouched and
    cover the entry's copy.  A zero of the target carries the explicit
    value 0, so the overshoot rule keeps the zero set unrepresented, the
    zeros ``_scheduled_before`` spans included.

    The entry's own number t may move, and so may -t when the form's
    coefficients are closed under negation (the difference form): a
    class at t then always brings one at -t.
    """
    if half_line is not None and min(block) < half_line:
        return Violation("below-half-line-bound", min(block))
    t, copy_index = entry
    n = tally.overshoot(target.default, target.values)
    if n is not None:
        return Violation("count-exceeds-target", n)
    coeffs = state.form.coefficients
    moving = {t, -t} if sorted(coeffs) == sorted(-a for a in coeffs) else {t}
    frozen = (tally.delta.keys() & _scheduled_before(entry)) - moving
    if frozen:
        return Violation("frozen-count-changed", next(n for n in tally.delta if n in frozen))
    if tally.count(t) < copy_index + 1:
        return Violation("target-copy-missed", t)
    return None


def build_for_target(
    form: LinearForm,
    target: TargetFunction,
    steps: int,
    m0: Optional[int] = None,
    d0: int = 1,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> ConstructionState:
    """Grow a set whose counts march toward the target function.

    Requires a primitive, partition regular form of at least two variables.
    Each step takes the first multiset entry whose copy is not yet covered
    and appends a block representing it once more, subject to the per-step
    oracle checks (never overshoot, avoid the zero set, leave earlier
    scheduled numbers untouched) after the shared rejection of repeated
    or existing elements.  The growth constant doubles on every rejection,
    retry-capped as in the unique-basis builder.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if not is_primitive(form):
        raise NotPrimitiveError(f"form {form} has gcd > 1")
    if not is_partition_regular(form):
        raise NotPartitionRegularError(
            f"form {form} has a zero-sum coefficient subset"
        )
    if form.arity < 2:
        raise PreconditionViolationError(
            "arity", "target realization needs a form with at least 2 variables"
        )
    if d0 == 0:
        raise ValueError("d0 must be non-zero")
    seed_value = d0 * sum(form.coefficients)
    if target.value_at(seed_value) < 1:
        raise PreconditionViolationError(
            "seed",
            f"initial element {d0} represents {seed_value}, which the target "
            "forbids; choose a different d0",
        )

    return _realize(form, target, steps, m0, d0, budget)


def _realize(
    form: LinearForm,
    target: TargetFunction,
    steps: int,
    m0: Optional[int],
    d0: int,
    budget: int,
    half_line: Optional[int] = None,
) -> ConstructionState:
    """The step body of ``build_for_target`` and ``build``, past their
    preconditions.  With ``half_line`` set, it keeps every element at or
    above it and proposes under coefficients reordered so the last two have
    opposite signs; counts do not depend on the order, so they use ``form``.
    """
    ordered = form if half_line is None else mixed_sign_last(form)
    if half_line is not None and d0 < half_line:
        d0 = max(half_line, 1)
    bez = bezout_witness(ordered)
    m = m0 if m0 is not None else default_growth_constant(ordered)
    if m < 1:
        raise ValueError("growth constant must be positive")

    state = ConstructionState.initial(form, d0)

    def propose(state, tally, entry, m, attempt):
        t, copy_index = entry
        block, deltas = _propose(
            ordered, bez, t, m, state.elements.max_abs(), half_line, attempt
        )
        return StepRecord(state.step + 1, t, m, attempt, deltas, block, 0, copy_index)

    return _grow(
        state,
        enumerate_multiset(target),
        steps,
        propose,
        partial(_accept_target, target, half_line),
        budget,
        m=m,
        retry_cap=DEFAULT_RETRY_CAP,
    )
