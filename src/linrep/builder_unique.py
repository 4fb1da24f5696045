"""Unique representation bases: the inverse problem at f = 1.

A unique representation basis realizes the target f = 1, so ``build`` is
the target builder's body, ``builder_target._realize``, run at ``ALL_ONES``:
each step appends a block of ``arity`` integers that represents the
spiral-least integer not yet represented while keeping every count at most
1.  The construction state, its running count, the step loop and the block
proposal all live in ``builder_target``.
"""

from __future__ import annotations

from typing import Optional

from .builder_target import ALL_ONES, ConstructionState, _realize, mixed_sign_last
from .errors import NotPrimitiveError
from .forms import LinearForm, is_primitive
from .repcount import DEFAULT_TUPLE_BUDGET, GroundSet


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
    state = _realize(form, ALL_ONES, steps, m0, d0, budget, half_line)
    return state._replace(records=tuple(r._replace(copy_index=None) for r in state.records))
