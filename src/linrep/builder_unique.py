"""Step-by-step construction of unique representation bases.

Each step appends a block of ``arity`` integers that represents exactly one
new target integer (the spiral-least one not yet represented) while keeping
every representation count at most 1.  Blocks are proposed from a ladder of
rapidly growing positive offsets plus a Bezout correction; correctness is
not argued from the growth constant but checked outright by the exhaustive
counting oracle (each step counts the classes its block adds), with the
growth constant doubled and the block reproposed whenever the check fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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

DEFAULT_RETRY_CAP = 64


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

    ``form`` is the form as given by the caller; ``builder_form`` is the
    coefficient order actually used internally (these differ only for
    half-line builds, which may reorder coefficients so the last two have
    opposite signs; representation functions are invariant under
    coefficient permutation, so every set-level guarantee transfers).
    """

    form: LinearForm
    builder_form: LinearForm
    blocks: tuple[tuple[int, ...], ...]
    elements: GroundSet
    covered_targets: tuple[int, ...]
    m_schedule: tuple[int, ...]
    retry_log: tuple[int, ...]
    records: tuple[StepRecord, ...]
    half_line_bound: Optional[int] = None
    trivial_whole_line: bool = False

    @property
    def step(self) -> int:
        return len(self.covered_targets)

    @classmethod
    def initial(
        cls,
        form: LinearForm,
        builder_form: LinearForm,
        d0: int,
        half_line_bound: Optional[int] = None,
    ) -> "ConstructionState":
        return cls(
            form=form,
            builder_form=builder_form,
            blocks=((d0,),),
            elements=GroundSet.of([d0]),
            covered_targets=(),
            m_schedule=(),
            retry_log=(),
            records=(),
            half_line_bound=half_line_bound,
        )

    @classmethod
    def whole_line(cls, form: LinearForm) -> "ConstructionState":
        """Designated state for one-variable forms: the basis is all of Z."""
        return cls(
            form=form,
            builder_form=form,
            blocks=(),
            elements=GroundSet.of([]),
            covered_targets=(),
            m_schedule=(),
            retry_log=(),
            records=(),
            trivial_whole_line=True,
        )

    def extended(
        self,
        block: tuple[int, ...],
        target: int,
        m: int,
        retries: int,
        record: StepRecord,
    ) -> "ConstructionState":
        return ConstructionState(
            form=self.form,
            builder_form=self.builder_form,
            blocks=self.blocks + (block,),
            elements=self.elements.union(block),
            covered_targets=self.covered_targets + (target,),
            m_schedule=self.m_schedule + (m,),
            retry_log=self.retry_log + (retries,),
            records=self.records + (record,),
            half_line_bound=self.half_line_bound,
            trivial_whole_line=False,
        )

    def trace_records(self) -> list[dict]:
        return [r.to_json_obj() for r in self.records]


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


def propose_block(
    state: ConstructionState,
    form: LinearForm,
    bezout: Sequence[int],
    target: int,
    m: int,
    attempt: int = 0,
) -> tuple[int, ...]:
    """Candidate block of ``form.arity`` integers whose form-sum is target."""
    if state.half_line_bound is not None:
        signs = {c > 0 for c in form.coefficients}
        if len(signs) < 2:
            raise MixedSignRequiredError(
                f"half-line bound {state.half_line_bound} needs mixed-sign coefficients"
            )
    block, _, _, _, _ = _propose(
        form,
        bezout,
        target,
        m,
        prev_max_abs=state.elements.max_abs(),
        half_line=state.half_line_bound,
        attempt=attempt,
    )
    return block


def _check_candidate(
    form: LinearForm,
    elements: GroundSet,
    counts: dict[int, int],
    candidate: tuple[int, ...],
    target: int,
    half_line: Optional[int],
    budget: int,
) -> tuple[Optional[Violation], Optional[dict[int, int]]]:
    """Oracle check of a candidate block; returns (violation, count delta).

    ``counts`` are the verified counts of ``elements``; only the values the
    block's new classes touch can change, so only those are checked.
    """
    seen: set[int] = set()
    for v in candidate:
        if v in seen:
            return Violation("duplicate-in-block", v), None
        seen.add(v)
    for v in candidate:
        if v in elements:
            return Violation("collision-with-existing", v), None
    if half_line is not None:
        low = min(candidate)
        if low < half_line:
            return Violation("below-half-line-bound", low), None
    delta = class_count_delta(form, elements, candidate, budget)
    for n, d in delta.items():
        if counts.get(n, 0) + d > 1:
            return Violation("double-representation", n), None
    if counts.get(target, 0) + delta.get(target, 0) != 1:
        return Violation("target-unrepresented", target), None
    return None, delta


def verify_block(
    state: ConstructionState,
    form: LinearForm,
    candidate: tuple[int, ...],
    target: int,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> Optional[Violation]:
    """None when the block keeps every count at most 1 and hits the target.

    Rejects blocks with internal duplicates or collisions with existing
    elements, then counts the classes the block adds on top of an
    exhaustive count of the current set.  A violation names the
    doubly-represented integer (or the offending element).
    """
    counts = class_counts(form, state.elements, budget)
    violation, _ = _check_candidate(
        form, state.elements, counts, candidate, target, state.half_line_bound, budget
    )
    return violation


def _spiral_least_unrepresented(counts: dict[int, int]) -> int:
    idx = 0
    while True:
        n = spiral(idx)
        if counts.get(n, 0) == 0:
            return n
        idx += 1


def next_target(
    state: ConstructionState,
    form: Optional[LinearForm] = None,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> int:
    """Spiral-least integer not represented by the state's current set.

    The scan order is the same for half-line builds: targets always range
    over all of Z.  Such an integer always exists because the set is finite.
    """
    f = form if form is not None else state.form
    counts = class_counts(f, state.elements, budget)
    return _spiral_least_unrepresented(counts)


def build(
    form: LinearForm,
    steps: int,
    d0: int = 1,
    m0: Optional[int] = None,
    half_line: Optional[int] = None,
    budget: int = DEFAULT_TUPLE_BUDGET,
    retry_cap: int = DEFAULT_RETRY_CAP,
) -> ConstructionState:
    """Run `steps` accepted target/propose/verify iterations.

    Requires a primitive form.  One-variable forms short-circuit to the
    whole-line state (every integer is its own unique representation).
    With ``half_line`` set, all produced elements are kept at or above the
    bound; this requires coefficients of both signs and may internally
    reorder them (see ConstructionState.builder_form).  The growth constant
    starts at ``m0`` (default: 4*sum|a|*(arity+1)), is doubled after every
    rejected proposal, and carries over between steps; exceeding
    ``retry_cap`` rejections in one step raises RetryExhaustedError, which
    would contradict the existence guarantee and is therefore reported with
    the full retry trace.
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

    state = ConstructionState.initial(form, builder_form, d0, half_line)
    counts = class_counts(builder_form, state.elements, budget)
    trail: list[str] = []

    for k in range(1, steps + 1):
        target = _spiral_least_unrepresented(counts)
        retries = 0
        while True:
            block, deltas, eps, remainder, shift = _propose(
                builder_form,
                bez,
                target,
                m,
                prev_max_abs=state.elements.max_abs(),
                half_line=half_line,
                attempt=retries,
            )
            violation, delta = _check_candidate(
                builder_form, state.elements, counts, block, target, half_line, budget
            )
            if violation is None:
                break
            retries += 1
            trail.append(f"step {k} retry {retries} (M={m}): {violation}")
            if retries > retry_cap:
                raise RetryExhaustedError(
                    f"step {k} target {target} exhausted {retry_cap} retries; "
                    "trace:\n" + "\n".join(trail)
                )
            m *= 2
        merge_counts(counts, delta)
        record = StepRecord(
            step=k,
            target=target,
            m=m,
            retries=retries,
            deltas=deltas,
            epsilon=eps,
            remainder=remainder,
            shift=shift,
            block=block,
            support_size=len(counts),
        )
        state = state.extended(block, target, m, retries, record)
    return state
