"""Step-by-step construction of unique representation bases.

A unique representation basis realizes the target f = 1, so ``build`` runs
the target builder's body: each step appends a block of ``arity`` integers
that represents the spiral-least integer not yet represented while keeping
every count at most 1.  Blocks are proposed from a ladder of rapidly
growing positive offsets plus a Bezout correction; correctness is not
argued from the growth constant but checked outright by the exhaustive
counting oracle (each step counts the classes its block adds), with the
growth constant doubled and the block reproposed whenever the check fails.

The construction state and its running count, ``Tally``, are shared with
the target and difference-form builders.  All of them run the target
builder's step loop, ``builder_target._grow``, which walks a target's fair
multiset ordering and accepts a step through the one check,
``_accept_target``; they differ in their proposals and retry caps.
"""

from __future__ import annotations

from itertools import pairwise
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import MixedSignRequiredError, NotPrimitiveError
from .forms import LinearForm, is_primitive
from .repcount import DEFAULT_TUPLE_BUDGET, GroundSet

if TYPE_CHECKING:
    from .builder_diff import DiffStepRecord, PlentifulSequence

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
    deltas: tuple[int, ...]
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
    """The step loop's running count, kept in layers, with one staged delta.

    The verified count is the sum of ``layers``: the starting set's count,
    then each accepted delta as the kernel returned it.  ``lo`` and ``hi``
    bound its support, whose size ``size`` is kept as deltas join.  A staged
    ``delta`` (the classes a candidate block adds) joins only through
    ``merge``, after the step's check has accepted it.  ``stage`` finds once
    the old count of every value both count: only a delta value inside
    [lo, hi] can have one, and only those are looked up in the layers.
    Every count is positive.
    """

    def __init__(self, counts: dict[int, int]):
        self.layers: list[dict[int, int]] = []
        self.lo, self.hi, self.size = 0, -1, 0
        self.stage(counts)
        self.merge()

    def stage(self, delta: dict[int, int]) -> None:
        """Stage the classes a candidate block adds, replacing any staged ones."""
        self.delta = delta
        lo, hi = self.lo, self.hi
        self._old = {n: c for n in delta if lo <= n <= hi and (c := self._verified(n))}

    def _verified(self, n: int) -> int:
        return sum(layer.get(n, 0) for layer in self.layers)

    def count(self, n: int) -> int:
        """The count at n once the staged delta joins."""
        d = self.delta.get(n)
        if d is None:
            return self._verified(n) if self.lo <= n <= self.hi else 0
        return self._old.get(n, 0) + d

    def overshoot(self, default: float, values: Mapping[int, float]) -> Optional[int]:
        """The first n, in delta order, whose count would exceed
        ``values.get(n, default)``, or None: every builder's overshoot rule.

        The layers were verified already, so unless a delta value exceeds the
        default, or a value with an explicit bound or an old count exceeds
        its bound, nothing overshoots and the delta is not walked.
        """
        old, delta = self._old, self.delta
        if max(delta.values(), default=0) <= default and all(
            old.get(n, 0) + delta[n] <= values.get(n, default)
            for n in (delta.keys() & values.keys()) | old.keys()
        ):
            return None
        for n, d in delta.items():
            if old.get(n, 0) + d > values.get(n, default):
                return n
        return None

    def merge(self) -> None:
        """Add the staged delta to the count as a new layer and clear the stage."""
        delta = self.delta
        if delta:
            lo, hi = min(delta), max(delta)
            if self.layers:
                lo, hi = min(lo, self.lo), max(hi, self.hi)
            self.lo, self.hi = lo, hi
            self.size += len(delta) - len(self._old)
            self.layers.append(delta)
        self.stage({})


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


def build(
    form: LinearForm,
    steps: int,
    d0: int = 1,
    m0: Optional[int] = None,
    half_line: Optional[int] = None,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> ConstructionState:
    """Realize f = 1 in `steps` steps of the target builder's body.

    Requires a primitive form, but not a partition regular one.  One-variable
    forms short-circuit to a state with no elements and no steps (every
    integer is its own unique representation).  With ``half_line`` set, all
    produced elements are kept at or above the bound; this requires
    coefficients of both signs.
    Targets run over the spiral 0, 1, -1, 2, ... of all of Z, skipping
    represented integers.  The growth constant starts at ``m0`` (default:
    4*sum|a|*(arity+1)), is doubled after every rejected proposal, and
    carries over between steps; exceeding DEFAULT_RETRY_CAP rejections in
    one step raises RetryExhaustedError, which would contradict the
    existence guarantee and is therefore reported with the full retry trace.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if not is_primitive(form):
        raise NotPrimitiveError(f"form {form} has gcd > 1")
    if half_line is not None:
        mixed_sign_last(form)  # for its check: a half line needs both signs
    if form.arity == 1:
        return ConstructionState(form, GroundSet.of([]), ())
    if d0 == 0:
        raise ValueError("d0 must be non-zero")
    # builder_target imports this module, so its body is imported at call time
    from .builder_target import ALL_ONES, _realize

    state = _realize(form, ALL_ONES, steps, m0, d0, budget, half_line)
    return state._replace(records=tuple(r._replace(copy_index=None) for r in state.records))
