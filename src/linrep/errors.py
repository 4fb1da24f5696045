"""Exception hierarchy shared by all linrep modules."""

from __future__ import annotations


class LinrepError(Exception):
    """Base class for every linrep-specific error."""


class FormParseError(LinrepError, ValueError):
    """A coefficient string could not be parsed into a linear form."""


class NotPrimitiveError(LinrepError):
    """The form's coefficients have a common divisor greater than 1."""


class NotPartitionRegularError(LinrepError):
    """Some non-empty subset of the coefficients sums to zero."""


class BudgetExceededError(LinrepError):
    """An enumeration would require more tuples than the caller allows."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration requires {required} tuples, budget is {budget}"
        )
        self.required = required
        self.budget = budget


class MixedSignRequiredError(LinrepError):
    """A half-line construction needs coefficients of both signs."""


class RetryExhaustedError(LinrepError):
    """The step loop rejected more blocks in one step than its retry cap.

    ``build`` and ``realize`` double the growth constant after each
    rejection, and a large enough constant always succeeds, so hitting
    their cap signals an implementation bug.  The difference-form builders
    make forced choices and run with a cap of 0, so their first rejected
    block raises this error.  The message carries the full retry trace.
    """


class ConstructionBugError(LinrepError):
    """An internal invariant failed, which signals an implementation bug.

    Raised when the counting kernel's signed plan yields a count that is
    negative or not a multiple of its denominator, when
    ``extract_plentiful``'s sequence is not plentiful for the set's own
    counts, and when a batch difference-form step meets a non-positive gamma.
    """


class InsufficientPairsError(LinrepError):
    """The ground set does not contain enough pairs at the requested gap."""


class SequenceExhaustedError(LinrepError):
    """The supplied step-gap sequence ran out before the build finished."""


class SupplyExhaustedError(LinrepError):
    """The sequence supplier could not meet a ratio/length request."""


class PreconditionViolationError(LinrepError):
    """A builder precondition failed; `check` names the failed check."""

    def __init__(self, check: str, message: str):
        super().__init__(f"{check}: {message}")
        self.check = check

