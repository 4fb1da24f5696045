"""Representation functions of integer linear forms: analysis and construction.

The package answers two kinds of question about a linear form
a_1*x_1 + ... + a_h*x_h with fixed non-zero integer coefficients:

* structural: primitivity, partition regularity, automorphisms, the
  ordered-basis obstruction (module ``forms``), and exhaustive unordered
  representation counting over finite sets (module ``repcount``);
* constructive: growing sets whose representation function is identically
  1 (``builder_unique``), matches a prescribed target (``builder_target``),
  or realizes a target for the difference form x1 - x2 (``builder_diff``),
  each step machine-verified by the counting oracle.

``linrep.cli`` exposes the same operations as a command-line tool.
"""

from .builder_diff import (
    DIFFERENCE_FORM,
    DiffReport,
    DiffStepRecord,
    PlentifulSequence,
    build_infinite_case,
    build_unbounded_case,
    check_even_normalized,
    check_three_rep_obstruction,
    extract_plentiful,
    is_plentiful,
    window_plentiful_supply,
)
from .builder_target import (
    INFINITY,
    MultisetOrdering,
    TargetFunction,
    TargetReport,
    build_for_target,
    check_counts_against_target,
    compute_X,
    enumerate_multiset,
)
from .builder_unique import (
    ConstructionState,
    StepRecord,
    Violation,
    build,
    default_growth_constant,
    mixed_sign_last,
)
from .errors import (
    BudgetExceededError,
    ConstructionBugError,
    FormParseError,
    InsufficientPairsError,
    LinrepError,
    MixedSignRequiredError,
    NotPartitionRegularError,
    NotPrimitiveError,
    PreconditionViolationError,
    RetryExhaustedError,
    SearchSpaceTooLargeError,
    SequenceExhaustedError,
    SupplyExhaustedError,
)
from .forms import (
    AutomorphismWitness,
    LinearForm,
    bezout_witness,
    find_nontrivial_automorphism,
    has_ordered_unique_basis_obstruction,
    is_partition_regular,
    is_primitive,
    spiral,
    spiral_index,
    zero_sum_certificate,
)
from .repcount import (
    DEFAULT_TUPLE_BUDGET,
    GroundSet,
    RepProfile,
    class_counts,
    count_at,
    rep_function,
)

__version__ = "0.1.0"
