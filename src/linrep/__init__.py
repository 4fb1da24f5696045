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

The package namespace exports the builders, the counting oracle and the
types they take.  Everything else is imported from its module; the errors
live in ``linrep.errors``.  ``linrep.cli`` exposes the same operations as a
command-line tool.
"""

from .builder_diff import (
    DIFFERENCE_FORM,
    PlentifulSequence,
    build_infinite_case,
    build_unbounded_case,
    check_three_rep_obstruction,
    extract_plentiful,
    is_plentiful,
    window_plentiful_supply,
)
from .builder_target import (
    INFINITY,
    TargetFunction,
    build_for_target,
    compute_X,
    enumerate_multiset,
)
from .builder_unique import build
from .errors import MixedSignRequiredError
from .forms import LinearForm, find_nontrivial_automorphism, is_partition_regular, is_primitive
from .repcount import GroundSet, class_counts, rep_function

__version__ = "0.1.0"
