"""Step-by-step construction of unique representation bases.

Each step appends a block of ``arity`` integers that represents exactly one
new target integer (the spiral-least one not yet represented) while keeping
every representation count at most 1.  Blocks are proposed from a ladder of
rapidly growing positive offsets plus a Bezout correction; correctness is
not argued from the growth constant but checked outright by the exhaustive
counting oracle (each step counts the classes its block adds), with the
growth constant doubled and the block reproposed whenever the check fails.

The step loop itself, ``_grow``, and the construction state are shared
with the target and difference-form builders, which differ only in their
entry ordering, their proposals and their acceptance checks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import count
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    MixedSignRequiredError,
    NotPrimitiveError,
    RetryExhaustedError,
)
from .forms import LinearForm, bezout_witness, is_primitive, spiral
from .repcount import (
    DEFAULT_TUPLE_BUDGET,
    GroundSet,
    class_count_delta,
    class_counts,
    merge_counts,
)

if TYPE_CHECKING:
    from .builder_diff import DiffStepRecord, PlentifulSequence

DEFAULT_RETRY_CAP = 64

Entry = tuple[int, int]  # (value, copy index) of a fair enumeration


def default_growth_constant(form: LinearForm) -> int:
    """Initial growth constant: 4 * sum|a_i| * (arity + 1)."""
    return 4 * sum(abs(c) for c in form.coefficients) * (form.arity + 1)


@dataclass(frozen=True)
class Violation:
    """A named reason a candidate block was rejected."""

    kind: str
    value: Optional[int] = None

    def __str__(self) -> str:
        if self.value is None:
            return self.kind
        return f"{self.kind}: {self.value}"


@dataclass(frozen=True)
class StepRecord:
    """Everything needed to audit one accepted construction step."""

    step: int
    target: int
    m: int
    retries: int
    deltas: tuple[int, ...]
    epsilon: int
    remainder: int
    shift: int
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


@dataclass(frozen=True)
class ConstructionState:
    """Immutable snapshot of a construction after some number of steps.

    Every builder returns one: the set, the seed block it started from and
    one record per accepted step (a ``StepRecord``, or a ``DiffStepRecord``
    for the difference form).  ``form`` is the form as given by the caller;
    ``builder_form`` is the coefficient order actually used internally
    (these differ only for half-line builds, which may reorder coefficients
    so the last two have opposite signs; representation functions are
    invariant under coefficient permutation, so every set-level guarantee
    transfers).  ``gap_sequence`` is the plentiful sequence an
    infinite-value difference-form build chains along.
    """

    form: LinearForm
    builder_form: LinearForm
    elements: GroundSet
    seed: tuple[int, ...]
    records: tuple[Union[StepRecord, DiffStepRecord], ...] = ()
    trivial_whole_line: bool = False
    gap_sequence: Optional[PlentifulSequence] = None

    @classmethod
    def initial(
        cls, form: LinearForm, d0: int, builder_form: Optional[LinearForm] = None, **extras
    ) -> "ConstructionState":
        return cls(form, builder_form or form, GroundSet.of([d0]), (d0,), **extras)

    @classmethod
    def whole_line(cls, form: LinearForm) -> "ConstructionState":
        """Designated state for one-variable forms: the basis is all of Z."""
        return cls(form, form, GroundSet.of([]), (), trivial_whole_line=True)

    def extended(self, record) -> "ConstructionState":
        return replace(
            self, elements=self.elements.union(record.block), records=self.records + (record,)
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

    @property
    def ledger(self) -> dict[int, tuple[tuple[int, int, int], ...]]:
        """Chained representations (anchor, partner, witness) per value.

        Only infinite-value difference-form builds keep one: each value with
        more than one allowed class lists its pairs, anchors strictly
        increasing; consecutive anchors differ by the partial sum of
        ``gap_sequence`` between the two witnesses (lower exclusive, upper
        inclusive).  Mirrored entries are kept for both signs.
        """
        if self.gap_sequence is None:
            return {}
        ledger: dict[int, list[tuple[int, int, int]]] = {}
        for r in self.records:
            if r.witness is not None:
                x, y = r.block
                ledger.setdefault(r.target, []).append((x, y, r.witness))
                ledger.setdefault(-r.target, []).append((y, x, r.witness))
        return {n: tuple(v) for n, v in ledger.items()}

    def ledger_gaps_ok(self) -> bool:
        """Recompute every ledger gap from the gap sequence and compare."""
        for entries in self.ledger.values():
            for (a1, _, m1), (a2, _, m2) in zip(entries, entries[1:]):
                if not 0 < m1 < m2:
                    return False
                if a2 - a1 != self.gap_sequence.partial_sum(m1 + 1, m2):
                    return False
        return True

    def trace_records(self) -> list[dict]:
        return [r.to_json_obj() for r in self.records]


Propose = Callable[
    [ConstructionState, dict[int, int], Entry, int, int], tuple[tuple[int, ...], Callable]
]
Accept = Callable[
    [ConstructionState, dict[int, int], Entry, tuple[int, ...], dict[int, int], set[int]],
    Optional[Violation],
]


def _check_block(
    state: ConstructionState,
    counts: dict[int, int],
    entry: Entry,
    block: tuple[int, ...],
    accept: Accept,
    budget: int,
) -> tuple[Optional[Violation], Optional[dict[int, int]], Optional[set[int]]]:
    """(violation, count delta, shared values) of a candidate block.

    Rejects repeated entries and elements already in the set, then counts
    the classes the block adds and hands them, with the verified ``counts``
    of the set and the values both already represent, to the builder's
    check.
    """
    if len(set(block)) != len(block):
        return Violation("duplicate-in-block"), None, None
    for v in block:
        if v in state.elements:
            return Violation("collision-with-existing", v), None, None
    delta = class_count_delta(state.builder_form, state.elements, block, budget)
    shared = delta.keys() & counts.keys()
    return accept(state, counts, entry, block, delta, shared), delta, shared


def _first_overshoot(
    counts: dict[int, int],
    delta: dict[int, int],
    shared: set[int],
    default: float,
    values: Mapping[int, float],
) -> Optional[int]:
    """The first n, in ``delta`` order, whose count would exceed
    ``values.get(n, default)``, or None: every builder's overshoot rule.

    ``counts`` were verified already and ``shared`` holds the values of
    ``delta`` they count, so unless a new count exceeds the default, or an
    explicit or shared value its bound, nothing overshoots and the delta
    is not walked.
    """
    if max(delta.values(), default=0) <= default and all(
        counts.get(n, 0) + delta[n] <= values.get(n, default)
        for n in (delta.keys() & values.keys()) | shared
    ):
        return None
    for n, d in delta.items():
        if counts.get(n, 0) + d > values.get(n, default):
            return n
    return None


def _grow(
    state: ConstructionState,
    entries: Iterable[Entry],
    steps: int,
    propose: Propose,
    accept: Accept,
    budget: int,
    m: int = 1,
    retry_cap: int = 0,
    describe: Callable[[Entry], str] = "entry {}".format,
) -> ConstructionState:
    """The greedy step loop every builder runs.

    The loop counts the classes of the starting set once and keeps that
    running count up to date.  Each step takes the next entry (n, c)
    whose copy is still uncovered (count of n at most c), asks
    ``propose(state, counts, entry, m, attempt)`` for a block and a record
    maker, and checks the block (``_check_block``, which calls
    ``accept(state, counts, entry, block, delta, shared)``).  A rejected block
    doubles the growth constant ``m`` and is reproposed; more than
    ``retry_cap`` rejections in one step raise RetryExhaustedError with the
    whole retry trail.  An accepted block's classes join the count and
    ``record(step, support_size)`` joins the state.
    """
    counts = class_counts(state.builder_form, state.elements, budget)
    entries = iter(entries)
    trail: list[str] = []
    for k in range(1, steps + 1):
        for entry in entries:
            if counts.get(entry[0], 0) <= entry[1]:
                break
        retries = 0
        while True:
            block, record = propose(state, counts, entry, m, retries)
            violation, delta, shared = _check_block(state, counts, entry, block, accept, budget)
            if violation is None:
                break
            retries += 1
            trail.append(f"step {k} retry {retries} (M={m}): {violation}")
            if retries > retry_cap:
                raise RetryExhaustedError(
                    f"step {k} {describe(entry)} exhausted {retry_cap} retries; "
                    "trace:\n" + "\n".join(trail)
                )
            m *= 2
        merge_counts(counts, delta, shared)
        state = state.extended(record(k, len(counts)))
    return state


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
) -> tuple[tuple[int, ...], tuple[int, ...], int, int, int]:
    """Raw block proposal; returns (block, deltas, epsilon, remainder, shift).

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
    return block, tuple(deltas), epsilon, remainder, shift


def _accept_unique(
    half_line: Optional[int],
    state: ConstructionState,
    counts: dict[int, int],
    entry: Entry,
    block: tuple[int, ...],
    delta: dict[int, int],
    shared: set[int],
) -> Optional[Violation]:
    """Every count stays at most 1, the target gets its class, and every
    element clears the half-line bound."""
    if half_line is not None and min(block) < half_line:
        return Violation("below-half-line-bound", min(block))
    n = _first_overshoot(counts, delta, shared, 1, {})
    if n is not None:
        return Violation("double-representation", n)
    target = entry[0]
    if counts.get(target, 0) + delta.get(target, 0) != 1:
        return Violation("target-unrepresented", target)
    return None


def build(
    form: LinearForm,
    steps: int,
    d0: int = 1,
    m0: Optional[int] = None,
    half_line: Optional[int] = None,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> ConstructionState:
    """Run `steps` accepted target/propose/verify iterations.

    Requires a primitive form.  One-variable forms short-circuit to the
    whole-line state (every integer is its own unique representation).
    With ``half_line`` set, all produced elements are kept at or above the
    bound; this requires coefficients of both signs and may internally
    reorder them (see ConstructionState.builder_form).  Targets run over
    the spiral 0, 1, -1, 2, ... of all of Z, skipping represented integers.
    The growth constant starts at ``m0`` (default: 4*sum|a|*(arity+1)), is
    doubled after every rejected proposal, and carries over between steps;
    exceeding DEFAULT_RETRY_CAP rejections in one step raises
    RetryExhaustedError, which would contradict the existence guarantee
    and is therefore reported with the full retry trace.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if not is_primitive(form):
        raise NotPrimitiveError(f"form {form} has gcd > 1")
    if half_line is not None:
        signs = {c > 0 for c in form.coefficients}
        if len(signs) < 2:
            raise MixedSignRequiredError(
                f"half-line construction needs mixed-sign coefficients, got {form}"
            )
    if form.arity == 1:
        return ConstructionState.whole_line(form)

    builder_form = form if half_line is None else mixed_sign_last(form)
    if d0 == 0:
        raise ValueError("d0 must be non-zero")
    if half_line is not None and d0 < half_line:
        d0 = max(half_line, 1)
    bez = bezout_witness(builder_form)
    m = m0 if m0 is not None else default_growth_constant(builder_form)
    if m < 1:
        raise ValueError("growth constant must be positive")

    state = ConstructionState.initial(form, d0, builder_form=builder_form)

    def propose(state, counts, entry, m, attempt):
        target = entry[0]
        block, deltas, eps, remainder, shift = _propose(
            builder_form,
            bez,
            target,
            m,
            prev_max_abs=state.elements.max_abs(),
            half_line=half_line,
            attempt=attempt,
        )
        return block, lambda k, support: StepRecord(
            k, target, m, attempt, deltas, eps, remainder, shift, block, support
        )

    return _grow(
        state,
        ((spiral(i), 0) for i in count()),
        steps,
        propose,
        partial(_accept_unique, half_line),
        budget,
        m=m,
        retry_cap=DEFAULT_RETRY_CAP,
        describe=lambda entry: f"target {entry[0]}",
    )
