"""Constructions for the difference form x1 - x2.

The difference form is the simplest form with a zero-sum coefficient
subset, and the general machinery does not apply to it.  Any count
function it realizes must be even with exactly one class at 0, and a
value of 3 or more anywhere forces a second doubled value elsewhere.
The constructions here hang off gap sequences whose every consecutive
partial sum has a target count above 1 ("plentiful" sequences): chained
representations of a repeated value are spaced by such partial sums, so
the incidental differences they create are exactly the doubly-allowed
ones.

Two builders cover the two supported target shapes: one for targets
with infinite values (driven by a single long plentiful sequence), one
for all-finite targets (driven by a supplier of fresh plentiful
sequences with large term ratios).  Both make deterministic minimal
choices and verify every step by exhaustively counting the classes its
block adds, under the target builder's check; since no retry can fix a
forced choice, they allow no retry, and a rejected step exits the loop
with RetryExhaustedError.
"""

from __future__ import annotations

import json
from itertools import accumulate, pairwise
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Union

from .builder_target import ConstructionState, TargetFunction, _grow
from .errors import (
    ConstructionBugError,
    InsufficientPairsError,
    PreconditionViolationError,
    SequenceExhaustedError,
    SupplyExhaustedError,
)
from .forms import Frozen, LinearForm
from .repcount import DEFAULT_TUPLE_BUDGET, GroundSet, class_counts, int_from_json

DIFFERENCE_FORM = LinearForm((1, -1))

DEFAULT_QUOTIENT_BOUND = 24  # 8 * (1 + 2) for the two-variable difference form


class PlentifulSequence(Frozen):
    """A finite sequence of positive integers queried by partial sums.

    partial_sum(l, m) is the 1-based inclusive sum of terms l..m.  The
    sequence is plentiful for a count function f when every such sum s
    has f(s) > 1.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[int]):
        terms = tuple(terms)
        for t in terms:
            if not isinstance(t, int) or isinstance(t, bool) or t <= 0:
                raise ValueError("plentiful sequence terms must be positive integers")
        self._init(terms)

    def __len__(self) -> int:
        return len(self.terms)

    def partial_sum(self, l: int, m: int) -> int:
        if not 1 <= l <= m <= len(self.terms):
            raise ValueError(f"need 1 <= l <= m <= {len(self.terms)}")
        return sum(self.terms[l - 1 : m])

    def all_partial_sums(self) -> set[int]:
        terms = self.terms
        return {s for i in range(len(terms)) for s in accumulate(terms[i:])}

    @classmethod
    def from_json(cls, text: str) -> "PlentifulSequence":
        raw = json.loads(text)
        if not isinstance(raw, list):
            raise ValueError("sequence file must be a JSON array")
        return cls(tuple(int_from_json(s, "sequence term") for s in raw))

    def to_json(self) -> str:
        return json.dumps([str(t) for t in self.terms])


class DiffReport(NamedTuple):
    """Named violations from a difference-form admissibility check."""

    violations: tuple[tuple[str, int], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"{kind} at {n}" for kind, n in self.violations)


def check_even_normalized(target: TargetFunction) -> DiffReport:
    """Checks f(n) = f(-n) across the window and f(0) = 1.

    Away from the explicit values both sides fall back to the default, so
    only the explicitly listed positions can break evenness; the scan is
    restricted to them.
    """
    violations: list[tuple[str, int]] = []
    if target.value_at(0) != 1:
        violations.append(("zero-count-not-one", 0))
    for n in sorted({abs(k) for k in target.values} - {0}):
        if target.value_at(n) != target.value_at(-n):
            violations.append(("not-even", n))
    return DiffReport(tuple(violations))


def check_three_rep_obstruction(target: TargetFunction) -> DiffReport:
    """Any n with f(n) >= 3 needs some m outside {n, -n, 0} with f(m) >= 2.

    Three pairwise inequivalent difference representations of n force a
    repeated difference at some other value, so targets without one are
    unrealizable.  The window values and the default are both consulted;
    a default above 1 satisfies every such n outright, and values of 3 or
    more can otherwise only sit at explicit positions.
    """
    if target.default > 1:
        return DiffReport(())
    violations: list[tuple[str, int]] = []
    for n in sorted(n for n, v in target.values.items() if v >= 3):
        if any(v > 1 and m not in (n, -n, 0) for m, v in target.values.items()):
            continue
        violations.append(("needs-second-doubled-value", n))
    return DiffReport(tuple(violations))


def is_plentiful(
    seq: PlentifulSequence, counts: Union[TargetFunction, Mapping[int, int]]
) -> bool:
    """Exhaustive O(N^2) check that every partial sum has count above 1,
    under a target or a map of class counts."""
    if isinstance(counts, TargetFunction):
        return all(counts.value_at(s) > 1 for s in seq.all_partial_sums())
    return all(counts.get(s, 0) > 1 for s in seq.all_partial_sums())


def extract_plentiful(
    ground_set: GroundSet,
    n: int,
    length: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> PlentifulSequence:
    """Gap sequence extracted from the pairs of A at difference n.

    Collects all x in A with x - n in A (strictly increasing by
    construction) and returns the consecutive gaps of the first
    ``length``+1 of them.  The result is checked to be plentiful for A's
    own representation counts before returning.
    """
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    if n == 0:
        raise PreconditionViolationError(
            "difference", "extraction at difference 0 is degenerate"
        )
    anchors = sorted(x for x in ground_set if (x - n) in ground_set)
    if len(anchors) < length + 1:
        raise InsufficientPairsError(
            f"found {len(anchors)} pairs at difference {n}, need {length + 1}"
        )
    chosen = anchors[: length + 1]
    seq = PlentifulSequence(b - a for a, b in pairwise(chosen))
    own_counts = class_counts(DIFFERENCE_FORM, ground_set, budget)
    if not is_plentiful(seq, own_counts):
        raise ConstructionBugError(
            f"extracted gaps {seq.terms} are not plentiful for the set's own counts"
        )
    return seq


class DiffStepRecord(NamedTuple):
    """Audit record for one accepted difference-form step."""

    step: int
    case: str  # "fresh" (no prior class of the target) or "chained" / "batch"
    target: int
    copy_index: int
    m_bound: int  # the max-|element| bound the step had to clear
    gamma: int
    block: tuple[int, ...]
    witness: Optional[int]
    support_size: int
    # the target's chain after a witnessed step, a batch step's own pairs,
    # and () after a fresh step without a witness
    representations: tuple[tuple[int, int], ...]

    def to_json_obj(self) -> dict:
        return {
            "step": self.step,
            "case": self.case,
            "target": str(self.target),
            "copy": self.copy_index,
            "M": str(self.m_bound),
            "gamma": self.gamma,
            "block": [str(b) for b in self.block],
            "witness": self.witness,
            "support_size": self.support_size,
            "representations": [[str(a), str(b)] for a, b in self.representations],
        }


def _assert_diff_preconditions(target: TargetFunction) -> None:
    report = check_even_normalized(target)
    if not report.ok:
        raise PreconditionViolationError("even-normalized", str(report))
    report = check_three_rep_obstruction(target)
    if not report.ok:
        raise PreconditionViolationError("three-rep", str(report))


def build_infinite_case(
    target: TargetFunction,
    seq: PlentifulSequence,
    steps: int,
    d0: int = 1,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> ConstructionState:
    """Realize a target containing infinite values, one class per step.

    Requires an even target with f(0) = 1 and at least one infinite value
    (targets with all-finite values are handled by build_unbounded_case;
    bounded targets in the strict sense have no general construction and
    are rejected here).  ``seq`` must be plentiful for the target and long
    enough: chained steps consume terms until the running partial sum
    clears the size bound, and exhausting the sequence raises
    SequenceExhaustedError.

    Per step, the first multiset entry (n, c) whose copy is uncovered
    becomes the target t.  The classes at t are the set's pairs
    (x, x - t), read by ``state.chain(t)``.  A fresh pair with
    x > 2|t| + 3*max|B| is used when t has no class yet; otherwise x is
    chained onto t's largest anchor by the minimal sufficient partial sum
    of ``seq`` after that anchor's witness (0 for a pair no step recorded,
    such as one the seed forms with an early element), keeping every anchor
    gap a contiguous partial sum.  Every step is counted exhaustively and
    accepted by the target builder's check, with no retry.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if d0 == 0:
        raise ValueError("d0 must be non-zero")
    _assert_diff_preconditions(target)
    if not target.has_infinite_value():
        raise PreconditionViolationError(
            "infinite-value",
            "target has no infinite value; all-finite targets belong to "
            "build_unbounded_case (strictly bounded targets are an open case "
            "and are not attempted)",
        )
    if not is_plentiful(seq, target):
        raise PreconditionViolationError(
            "plentiful", "supplied sequence is not plentiful for the target"
        )
    state = ConstructionState.initial(DIFFERENCE_FORM, d0, gap_sequence=seq)

    def propose(state, tally, entry, m, attempt):
        t, copy_index = entry
        m_bound = state.elements.max_abs()
        bound = 2 * abs(t) + 3 * m_bound
        chain = state.chain(t)
        if not chain:
            x = bound + 1
            case = "fresh"
            witness: Optional[int] = 1 if target.value_at(t) > 1 else None
        else:
            a_p, _, m_p = chain[-1]
            sigma = 0
            m_next = m_p
            while a_p + sigma <= bound:
                m_next += 1
                if m_next > len(seq):
                    raise SequenceExhaustedError(
                        f"step {state.step + 1}: sequence of {len(seq)} terms cannot "
                        f"lift anchor {a_p} above {bound}"
                    )
                sigma += seq.terms[m_next - 1]
            x = a_p + sigma
            case = "chained"
            witness = m_next
        block = (x, x - t)
        # a value allowed one class gets no witness, and its record no chain
        reps = tuple((a, b) for a, b, _ in chain) + ((block,) if witness is not None else ())
        return DiffStepRecord(
            state.step + 1, case, t, copy_index, m_bound, 1, block, witness, 0, reps
        )

    return _grow(state, target, steps, propose, budget)


PlentifulSupply = Callable[[int, int, int], PlentifulSequence]
"""Supplier contract: (length, min_first, min_ratio) -> PlentifulSequence.

The returned sequence must have ``length`` terms, first term at least
``min_first``, each later term at least ``min_ratio`` times its
predecessor, and must be plentiful for the target in play.
"""


def build_unbounded_case(
    target: TargetFunction,
    plentiful_supply: PlentifulSupply,
    steps: int,
    d0: int = 1,
    quotient_bound: int = DEFAULT_QUOTIENT_BOUND,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> ConstructionState:
    """Realize an all-finite target, filling each value in one batch.

    Requires an even target with f(0) = 1 and no infinite value.  A window
    target with a finite default is, strictly speaking, globally bounded;
    the construction stands in for unbounded targets at desk scale and
    certifies the prefix invariants only.

    Per step, the uncovered entry's value t is brought from its current
    count p straight to f(t): with gamma = f(t) - p, the step adds the
    2*gamma elements x_1, ..., x_gamma and x_i - t, where
    x_1 > 2|t| + 3*max|B| and the later x gaps come from a supplied
    plentiful sequence whose quotients all exceed ``quotient_bound``
    (first term included, relative to x_1).  Every step is counted
    exhaustively and accepted by the target builder's check, with no
    retry: no count may pass the target, and only t and -t among the
    numbers scheduled before the entry may move.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    if d0 == 0:
        raise ValueError("d0 must be non-zero")
    if quotient_bound < 1:
        raise ValueError("quotient bound must be positive")
    _assert_diff_preconditions(target)
    if target.has_infinite_value():
        raise PreconditionViolationError(
            "finite-values",
            "target has infinite values; use build_infinite_case",
        )

    state = ConstructionState.initial(DIFFERENCE_FORM, d0)

    def propose(state, tally, entry, m, attempt):
        t, copy_index = entry
        k = state.step + 1
        m_bound = state.elements.max_abs()
        gamma = int(target.value_at(t)) - tally.count(t)
        if gamma < 1:
            raise ConstructionBugError(f"step {k}: non-positive gamma {gamma}")
        x1 = 2 * abs(t) + 3 * m_bound + 1

        gaps: tuple[int, ...] = ()
        if gamma >= 2:
            supplied = plentiful_supply(gamma - 1, x1 * quotient_bound, quotient_bound)
            if supplied is None or len(supplied) != gamma - 1:
                raise SupplyExhaustedError(
                    f"step {k}: supplier did not provide {gamma - 1} terms"
                )
            for prev, term in pairwise((x1, *supplied.terms)):
                if term < prev * quotient_bound:
                    raise SupplyExhaustedError(
                        f"step {k}: quotient below {quotient_bound} at term {term}"
                    )
            if not is_plentiful(supplied, target):
                raise SupplyExhaustedError(
                    f"step {k}: supplied sequence is not plentiful for the target"
                )
            gaps = supplied.terms

        xs = list(accumulate(gaps, initial=x1))
        ys = [x - t for x in xs]
        block = tuple(xs + ys)
        return DiffStepRecord(
            k, "batch", t, copy_index, m_bound, gamma, block, None, 0, tuple(zip(xs, ys))
        )

    return _grow(state, target, steps, propose, budget)


def window_plentiful_supply(target: TargetFunction) -> PlentifulSupply:
    """Bounded brute-force supplier drawing on the target's doubled values.

    With a default above 1, geometric choices beyond the window always
    work.  Otherwise candidates are the positive window values above 1 and
    the search walks increasing tuples whose every partial sum also has a
    value above 1, returning the lexicographically least fit.
    """

    def supply(length: int, min_first: int, min_ratio: int) -> PlentifulSequence:
        if length == 0:
            return PlentifulSequence(())
        if target.default > 1:
            first = max(min_first, target.window_hi + 1)
            ratio = max(min_ratio, 2)
            return PlentifulSequence(first * ratio**i for i in range(length))
        candidates = sorted(
            n for n, v in target.values.items() if n >= 1 and v > 1
        )

        def extend(prefix: list[int]) -> Optional[list[int]]:
            if len(prefix) == length:
                return prefix
            floor = min_first if not prefix else prefix[-1] * min_ratio
            for cand in candidates:
                if cand < floor:
                    continue
                # every partial sum ending at the new term must stay doubled
                if not all(target.value_at(s) > 1 for s in accumulate([cand, *reversed(prefix)])):
                    continue
                found = extend(prefix + [cand])
                if found is not None:
                    return found
            return None

        found = extend([])
        if found is None:
            raise SupplyExhaustedError(
                f"no plentiful sequence of length {length} with first term >= "
                f"{min_first} and ratio >= {min_ratio} in the target window"
            )
        return PlentifulSequence(tuple(found))

    return supply
