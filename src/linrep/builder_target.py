"""Realizing a prescribed representation function for regular forms.

A target function assigns every integer a desired class count (possibly
infinite), given as an explicit window of values plus a default for
everything else; its zero set must be an explicit finite list inside the
window.  Every builder runs this module's step loop, ``_grow``: it walks a
fair enumeration of the multiset holding f(n) copies of n and, per step,
appends one block giving the current entry a fresh representation class.
The loop itself accepts each block through the one check,
``_accept_target``, on the exhaustively counted classes the block adds, so
that no count ever exceeds its target and the zero set stays unrepresented.

The module owns the state that loop runs on: ``ConstructionState``, the
snapshot every builder returns; ``Tally``, its running count over the
set's prefix tables, which stages a candidate block's classes and merges
them once they are accepted; the
``StepRecord`` of each accepted step; and ``_propose``, the block proposal
of ``build`` and ``build_for_target``: a growing ladder of offsets plus a
Bezout correction.

Every command proves its result with one final certificate, a full
recount taken one residue shard at a time: ``check_counts_against_target``.
"""

from __future__ import annotations

import json
import math
from functools import partial
from itertools import chain, islice, pairwise
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Container, Iterable, Iterator, Mapping, NamedTuple
from typing import Optional, Sequence, Union

from .errors import MixedSignRequiredError, NotPartitionRegularError, NotPrimitiveError
from .errors import PreconditionViolationError, RetryExhaustedError
from .forms import Frozen, LinearForm, bezout_witness, is_partition_regular, is_primitive
from .forms import spiral, spiral_index
from .repcount import DEFAULT_TUPLE_BUDGET, GroundSet, PrefixCount, class_count_shards
from .repcount import class_counts, delta_order, int_from_json

if TYPE_CHECKING:
    from .builder_diff import DiffStepRecord, PlentifulSequence

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
    """The final certificate of a set: its counts against a target function."""

    overshoots: tuple[tuple[int, int, Count], ...]  # (n, count, allowed)
    uncovered: tuple[tuple[int, int], ...]  # (target, copy) with count <= copy
    below_half_line: tuple[int, ...]
    ledger_coherent: bool
    support_size: int  # the number of represented integers

    @property
    def ok(self) -> bool:
        failed = self.overshoots or self.uncovered or self.below_half_line
        return self.ledger_coherent and not failed

    def __str__(self) -> str:
        parts = [f"count {c} > {allowed} at {n}" for n, c, allowed in self.overshoots]
        parts += [f"copy {c} of {t} uncovered" for t, c in self.uncovered]
        parts += [f"element {e} below the half-line" for e in self.below_half_line]
        if not self.ledger_coherent:
            parts.append("ledger incoherent")
        return "; ".join(parts) or "ok"


def check_counts_against_target(
    state: ConstructionState,
    target: TargetFunction,
    budget: int = DEFAULT_TUPLE_BUDGET,
    half_line: Optional[int] = None,
    whole: bool = False,
) -> tuple[Optional[dict[int, int]], TargetReport]:
    """Every command's final certificate: (counts, report) of one full
    recount of the state's set.  The recount is walked one residue shard at
    a time (``class_count_shards``), so no more than one shard of counts is
    held; with ``whole`` set it is one shard, returned as ``counts`` (a
    profile writes every count), and otherwise ``counts`` is None.

    The report lists the overshoots of ``target`` (a represented zero
    included), the recorded entries (t, c) whose count at t is at most c
    (no copy index counts as 0), the elements below ``half_line``, whether
    the gap-sequence ledger holds (true without a sequence) and the support
    size.  A shard's counts off the explicit values are walked only when
    its largest count exceeds a finite default.
    """
    form, elements = state.form, state.elements
    if whole:
        p, shards = 1, iter([class_counts(form, elements, budget)])
    else:
        p, shards = class_count_shards(form, GroundSet(()), elements, budget)
    values, default = target.values, target.default
    copies = [(t, c or 0) for t, c in state.covered]
    wanted: dict[int, list[int]] = {}  # residue -> numbers whose counts the report reads
    for n in {*values, *(t for t, _ in copies)}:
        wanted.setdefault(n % p, []).append(n)
    found: dict[int, int] = {}
    over, size = [], 0
    for r, counts in enumerate(shards):
        size += len(counts)
        found.update((n, counts.get(n, 0)) for n in wanted.get(r, ()))
        if default != INFINITY and max(counts.values(), default=0) > default:
            over += [(n, c, default) for n, c in counts.items() if c > default and n not in values]
    over += [(n, found[n], v) for n, v in values.items() if found[n] > v]
    return counts if whole else None, TargetReport(
        tuple(sorted(over)),
        tuple(sorted((t, c) for t, c in copies if found[t] <= c)),
        tuple(e for e in elements if half_line is not None and e < half_line),
        state.ledger_gaps_ok(),
        size,
    )


DEFAULT_RETRY_CAP = 64


def default_growth_constant(form: LinearForm) -> int:
    """Initial growth constant: 4 * sum|a_i| * (arity + 1)."""
    return 4 * sum(abs(c) for c in form.coefficients) * (form.arity + 1)


class Violation(NamedTuple):
    """A named reason a candidate block was rejected."""

    kind: str
    value: Optional[int] = None

    def __str__(self) -> str:
        if self.value is None:
            return self.kind
        return f"{self.kind}: {self.value}"


class StepRecord(NamedTuple):
    """Everything needed to audit one accepted construction step."""

    step: int
    target: int
    m: int
    retries: int
    block: tuple[int, ...]
    support_size: int
    copy_index: Optional[int] = None

    def to_json_obj(self) -> dict:
        obj = {
            "step": self.step,
            "target": str(self.target),
            "M": str(self.m),
            "retries": self.retries,
            "block": [str(b) for b in self.block],
            "support_size": self.support_size,
        }
        if self.copy_index is not None:
            obj["copy"] = self.copy_index
        return obj


class ConstructionState(NamedTuple):
    """Immutable snapshot of a construction after some number of steps.

    Every builder returns one: the set, the seed block it started from and
    one record per accepted step (a ``StepRecord``, or a ``DiffStepRecord``
    for the difference form).  ``form`` is the form as given by the caller,
    and every count is taken under it.  ``gap_sequence`` is the plentiful
    sequence an infinite-value difference-form build chains along;
    ``chain(n)`` reads the chain at n from the set.
    """

    form: LinearForm
    elements: GroundSet
    seed: tuple[int, ...]
    records: tuple[Union[StepRecord, DiffStepRecord], ...] = ()
    gap_sequence: Optional[PlentifulSequence] = None

    @classmethod
    def initial(cls, form: LinearForm, d0: int, **extras) -> "ConstructionState":
        return cls(form, GroundSet.of([d0]), (d0,), **extras)

    @property
    def trivial_whole_line(self) -> bool:
        """A one-variable form's basis is all of Z, so its build has no steps."""
        return self.form.arity == 1

    def extended(self, record) -> "ConstructionState":
        return self._replace(
            elements=self.elements.union(record.block), records=self.records + (record,)
        )

    @property
    def step(self) -> int:
        return len(self.records)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        head = (self.seed,) if self.seed else ()
        return head + tuple(r.block for r in self.records)

    @property
    def covered_targets(self) -> tuple[int, ...]:
        return tuple(r.target for r in self.records)

    @property
    def covered(self) -> tuple[tuple[int, Optional[int]], ...]:
        """(target, copy index) of every step."""
        return tuple((r.target, r.copy_index) for r in self.records)

    def chain(self, n: int) -> tuple[tuple[int, int, int], ...]:
        """Every pair (x, x - n, witness) of the set at difference n, anchors
        x increasing: for the difference form and n != 0, the classes at n.

        A record for target t with block (x, y) and witness w gives x the
        witness w at t, and y the witness w at -t.  A pair no step recorded
        (the seed and an early element may form one) has witness 0, so a
        chain on it starts at the sequence's first term.
        """
        witness = {}
        for r in self.records:
            if r.witness is not None and abs(r.target) == abs(n):
                x, y = r.block
                witness[x if r.target == n else y] = r.witness
        return tuple(
            (x, x - n, witness.get(x, 0)) for x in self.elements if x - n in self.elements
        )

    def ledger_gaps_ok(self) -> bool:
        """Every chain at a witnessed target follows ``gap_sequence``:
        witnesses rise strictly from 0 up, and consecutive anchors differ by
        the partial sum between their witnesses (lower exclusive, upper
        inclusive).  So an unrecorded pair can only be its chain's lowest
        anchor, and two of them fail the check.  chain(-n) mirrors chain(n)
        pair by pair, so one sign of each target covers both."""
        if self.gap_sequence is None:
            return True
        return all(
            0 <= m1 < m2 and a2 - a1 == self.gap_sequence.partial_sum(m1 + 1, m2)
            for n in {r.target for r in self.records if r.witness is not None}
            for (a1, _, m1), (a2, _, m2) in pairwise(self.chain(n))
        )


class Tally:
    """The step loop's running count, with one candidate block's classes
    staged.

    The verified count is the set's, answered one value at a time by
    ``source`` (a ``repcount.PrefixCount``), which holds the plan's prefix
    tables and no class sums.  The counts already asked for are kept in
    ``_known`` and each merged stage is added to them, so the cache grows
    with the queries, not with |A|^h.  ``size`` is the support's size,
    kept as blocks join.

    ``stage`` takes the classes a candidate block adds (its delta) one
    residue shard at a time and holds no shard past its turn.  Of each it
    keeps only what the step's check and ``merge`` read: the count, once
    the delta joins, of every delta value inside [source.lo, source.hi]
    (the extreme tuple sums of the set: no other delta value has an old
    count), in ``_new``; the delta values whose count would exceed their
    bound, in ``over``; the delta counts at the ``watch`` numbers, in
    ``moved``; and the number of delta values new to the support.  Every
    value asked for lies in [lo, hi], so the cached values a merge changes
    are exactly those of ``_new``.  Every delta count is positive.
    """

    def __init__(self, source: PrefixCount, size: int):
        self.source, self.size = source, size
        self._known: dict[int, int] = {}
        self.stage(())

    def stage(
        self,
        shards: Iterable[dict[int, int]],
        order: Callable[[], Iterable[int]] = tuple,
        default: Count = INFINITY,
        values: Mapping[int, Count] = MappingProxyType({}),
        watch: Iterable[int] = (),
    ) -> None:
        """Stage a candidate block's classes, given as ``shards`` that
        partition its delta, replacing any staged ones.  A value overshoots
        when its count would exceed ``values.get(n, default)``; ``order()``
        walks the delta's values in delta order (``repcount.delta_order``)
        for ``first``.

        The count already held is verified, so unless a shard's count
        exceeds the default, or a value with an explicit bound or an old
        count exceeds its bound, nothing in it overshoots and the shard's
        counts are not walked.
        """
        lo, hi = self.source.lo, self.source.hi
        self._order, self.over, self.moved = order, set(), {}
        self._new, self._added = {}, 0
        watch = tuple(watch)
        for delta in shards:
            old = {n: self._verified(n) for n in delta if lo <= n <= hi}
            if max(delta.values(), default=0) > default or not all(
                old.get(n, 0) + delta[n] <= values.get(n, default)
                for n in (delta.keys() & values.keys()) | old.keys()
            ):
                self.over.update(
                    n for n, d in delta.items() if old.get(n, 0) + d > values.get(n, default)
                )
            self._new.update((n, c + delta[n]) for n, c in old.items())
            self._added += len(delta) - sum(map(bool, old.values()))
            self.moved.update((n, delta[n]) for n in watch if n in delta)

    def _verified(self, n: int) -> int:
        c = self._known.get(n)
        if c is None:
            c = self._known[n] = self.source.count(n)
        return c

    def count(self, n: int) -> int:
        """The count at n once the staged delta joins; off [source.lo,
        source.hi] it is known only at the watched numbers, and is 0
        elsewhere."""
        c = self._new.get(n)
        if c is not None:
            return c
        if self.source.lo <= n <= self.source.hi:
            return self._verified(n)
        return self.moved.get(n, 0)

    def overshoot(self) -> Optional[int]:
        """The first staged value, in delta order, whose count would exceed
        its bound, or None: every builder's overshoot rule."""
        return self.first(self.over) if self.over else None

    def first(self, numbers: Container[int]) -> Optional[int]:
        """The first staged delta value in ``numbers``, in delta order: one
        walk of ``order()``, which stops there."""
        return next(filter(numbers.__contains__, self._order()), None)

    def merge(self, block: Sequence[int]) -> None:
        """Add the staged delta, the classes ``block`` brings, to the count:
        the source takes the block, and the cached counts the delta."""
        self._known.update(self._new)
        self.size += self._added
        self.source.extend(block)
        self.stage(())


def mixed_sign_last(form: LinearForm) -> LinearForm:
    """Reorder coefficients so the last two have opposite signs.

    Keeps the original order except for moving one opposite-signed
    coefficient into the second-to-last slot when needed.  Requires mixed
    signs.  Representation counting is invariant under this reordering.
    """
    coeffs = form.coefficients
    signs = {c > 0 for c in coeffs}
    if len(signs) < 2:
        raise MixedSignRequiredError(f"form {form} has single-signed coefficients")
    if (coeffs[-1] > 0) != (coeffs[-2] > 0):
        return form
    last_sign = coeffs[-1] > 0
    j = max(i for i in range(len(coeffs) - 1) if (coeffs[i] > 0) != last_sign)
    reordered = [c for i, c in enumerate(coeffs) if i != j]
    reordered.insert(len(reordered) - 1, coeffs[j])
    return LinearForm(tuple(reordered))


def _propose(
    form: LinearForm,
    bezout: Sequence[int],
    target: int,
    m: int,
    prev_max_abs: int,
    half_line: Optional[int] = None,
    attempt: int = 0,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Raw block proposal; returns (block, deltas).

    The offsets grow as delta_1 = m*base + 1 + attempt and
    delta_{i+1} = m*delta_i + 1, the smallest deterministic choice with all
    consecutive ratios above m.  epsilon is fixed by floored division so the
    raw sum u = sum(a_i*delta_i) + a_last*epsilon lies in [0, |a_last|), and
    the Bezout witness shifts the raw block onto the target:
    block = (deltas..., epsilon) + (target - u) * bezout.
    """
    coeffs = form.coefficients
    arity = form.arity
    if arity < 2:
        raise ValueError("block proposal needs a form with at least 2 variables")
    a_last = coeffs[-1]
    base = max(1, prev_max_abs)
    if half_line is not None:
        # inflate the ladder so every block element clears the bound
        margin = (abs(target) + sum(abs(c) for c in coeffs)) * (
            max(abs(s) for s in bezout) + 1
        ) + 1
        base = max(base, abs(a_last) * (abs(half_line) + margin))
    deltas = [m * base + 1 + attempt]
    for _ in range(arity - 2):
        deltas.append(m * deltas[-1] + 1)
    head = sum(a * d for a, d in zip(coeffs[:-1], deltas))
    q, remainder = divmod(head, abs(a_last))
    epsilon = -q if a_last > 0 else q
    shift = target - remainder
    block = tuple(
        v + shift * s for v, s in zip(deltas + [epsilon], bezout)
    )
    assert sum(a * b for a, b in zip(coeffs, block)) == target
    return block, tuple(deltas)


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
    n = tally.overshoot()
    if n is not None:
        return Violation("count-exceeds-target", n)
    coeffs = state.form.coefficients
    moving = {t, -t} if sorted(coeffs) == sorted(-a for a in coeffs) else {t}
    frozen = (tally.moved.keys() & _scheduled_before(entry)) - moving
    if frozen:
        return Violation("frozen-count-changed", tally.first(frozen))
    if tally.count(t) < copy_index + 1:
        return Violation("target-copy-missed", t)
    return None


def _check_block(
    state: ConstructionState,
    tally: Tally,
    target: TargetFunction,
    half_line: Optional[int],
    entry: tuple[int, int],
    block: tuple[int, ...],
    budget: int,
) -> Optional[Violation]:
    """The reason a candidate block is rejected, or None.

    Rejects repeated entries and elements already in the set, then stages
    the block's classes on ``tally``, one residue shard at a time from its
    prefix tables (``PrefixCount.shards``), against the target's bounds and
    watching the numbers ``_accept_target`` reads, those scheduled before
    the entry, t among them.  Then it applies ``_accept_target``.
    """
    if len(set(block)) != len(block):
        return Violation("duplicate-in-block")
    for v in block:
        if v in state.elements:
            return Violation("collision-with-existing", v)
    tally.stage(
        tally.source.shards(block, budget),
        partial(delta_order, state.form, state.elements.elements, block),
        target.default,
        target.values,
        _scheduled_before(entry),
    )
    return _accept_target(target, half_line, state, tally, entry, block)


def _grow(
    state: ConstructionState,
    target: TargetFunction,
    steps: int,
    propose: Callable[
        [ConstructionState, Tally, tuple[int, int], int, int],
        Union[StepRecord, DiffStepRecord],
    ],
    budget: int,
    m: int = 1,
    retry_cap: int = 0,
    half_line: Optional[int] = None,
) -> ConstructionState:
    """The greedy step loop every builder runs.

    The loop keeps the set's running count in a ``Tally`` over the set's
    prefix tables (``PrefixCount``), and counts the starting set's classes
    once, for its support size; the tally's count is always verified.  Each
    step takes the next entry (n, c) of ``enumerate_multiset(target)`` whose
    copy is still uncovered (count of n at most c), asks ``propose(state,
    tally, entry, m, attempt)`` for step ``state.step + 1``'s record and
    checks its block: ``_check_block`` stages its classes and calls
    ``_accept_target``.  A rejected block, whose classes never reach the
    count, doubles the growth constant ``m`` and is reproposed; more than
    ``retry_cap`` rejections in one step raise RetryExhaustedError with the
    whole retry trail.  An accepted block joins the tally's prefix tables
    and its classes the cached counts (``Tally.merge``), and its record
    joins the state with the new support size, which the tally keeps
    (``Tally.size``).
    """
    form, elements = state.form, state.elements
    tally = Tally(PrefixCount(form, elements), len(class_counts(form, elements, budget)))
    entries = iter(enumerate_multiset(target))
    trail: list[str] = []
    for k in range(1, steps + 1):
        for entry in entries:
            if tally.count(entry[0]) <= entry[1]:
                break
        retries = 0
        while True:
            record = propose(state, tally, entry, m, retries)
            violation = _check_block(state, tally, target, half_line, entry, record.block, budget)
            if violation is None:
                break
            retries += 1
            trail.append(f"step {k} retry {retries} (M={m}): {violation}")
            if retries > retry_cap:
                why = f"exhausted {retry_cap} retries"
                if not retry_cap:
                    why = "rejected a forced block, which cannot be retried"
                raise RetryExhaustedError(
                    f"step {k} entry {entry} {why}; trace:\n" + "\n".join(trail)
                )
            m *= 2
        tally.merge(record.block)
        state = state.extended(record._replace(support_size=tally.size))
    return state


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
    retry-capped at ``DEFAULT_RETRY_CAP``.
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
        block, _ = _propose(ordered, bez, t, m, state.elements.max_abs(), half_line, attempt)
        return StepRecord(state.step + 1, t, m, attempt, block, 0, copy_index)

    return _grow(
        state,
        target,
        steps,
        propose,
        budget,
        m=m,
        retry_cap=DEFAULT_RETRY_CAP,
        half_line=half_line,
    )
