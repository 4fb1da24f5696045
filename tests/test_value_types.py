"""Value semantics of the public types and the records a build returns:
equal inputs give equal objects with equal hashes (a type holding a dict
is unhashable), the repr text is fixed, attributes are read-only, and a
pickle round trip gives back an equal object."""

import pickle

import pytest

from linrep import (
    INFINITY,
    GroundSet,
    LinearForm,
    PlentifulSequence,
    TargetFunction,
    build,
    build_infinite_case,
    enumerate_multiset,
)
from linrep.builder_diff import DiffReport
from linrep.builder_target import TargetReport, Violation
from linrep.forms import AutomorphismWitness
from linrep.repcount import RepProfile


def target():
    return TargetFunction.make((-2, 2), values={1: 2}, zeros=(0,), default=INFINITY)


def built():
    return build(LinearForm.parse("1,2"), 2)


def diff_built():
    seq = PlentifulSequence(tuple(2**i for i in range(1, 30)))
    return build_infinite_case(
        TargetFunction.make((-2, 2), values={0: 1}, default=INFINITY), seq, 2
    )


HASHABLE = {
    "LinearForm": lambda: LinearForm((1, 2, -3)),
    "GroundSet": lambda: GroundSet.of([5, -2, 5]),
    "PlentifulSequence": lambda: PlentifulSequence((2, 4)),
    "ConstructionState": built,
    "StepRecord": lambda: built().records[0],
    "DiffConstructionState": diff_built,
    "DiffStepRecord": lambda: diff_built().records[1],
    "Violation": lambda: Violation("double-representation", 7),
    "TargetReport": lambda: TargetReport(((3, 2, 1),)),
    "DiffReport": lambda: DiffReport((("not-even", 2),)),
    "AutomorphismWitness": lambda: AutomorphismWitness((None, 1), (None, 0)),
}
UNHASHABLE = {
    "TargetFunction": target,
    "MultisetOrdering": lambda: enumerate_multiset(target()),
    "RepProfile": lambda: RepProfile({1: 1}, (0, 2)),
}
# (maker, attribute) pairs that must refuse assignment
READ_ONLY = [
    (HASHABLE["LinearForm"], "coefficients"),
    (HASHABLE["GroundSet"], "elements"),
    (HASHABLE["PlentifulSequence"], "terms"),
    (HASHABLE["ConstructionState"], "elements"),
    (HASHABLE["ConstructionState"], "records"),
    (HASHABLE["StepRecord"], "block"),
    (HASHABLE["DiffStepRecord"], "witness"),
    (UNHASHABLE["TargetFunction"], "default"),
    (UNHASHABLE["TargetFunction"], "values"),
]


@pytest.mark.parametrize("name", sorted(HASHABLE))
def test_equal_inputs_give_equal_objects_and_hashes(name):
    a, b = HASHABLE[name](), HASHABLE[name]()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_types_holding_a_dict_are_equal_but_unhashable(name):
    a, b = UNHASHABLE[name](), UNHASHABLE[name]()
    assert a == b
    with pytest.raises(TypeError):
        hash(a)


def test_unequal_inputs_and_types_differ():
    assert LinearForm((1, 2)) != LinearForm((2, 1))
    assert GroundSet.of([1]) != GroundSet.of([2])
    assert PlentifulSequence((1,)) != GroundSet.of([1])
    assert target() != TargetFunction.make((-2, 2), values={1: 2}, zeros=(0,))
    assert built() != build(LinearForm.parse("1,2"), 3)


@pytest.mark.parametrize("make, attr", READ_ONLY)
def test_attributes_are_read_only(make, attr):
    obj = make()
    with pytest.raises(AttributeError):
        setattr(obj, attr, getattr(obj, attr))
    with pytest.raises(AttributeError):
        obj.extra = 1


def test_repr_text():
    assert repr(LinearForm((1, 2, -3))) == "LinearForm(coefficients=(1, 2, -3))"
    assert repr(GroundSet.of([5, -2, 5])) == "GroundSet(elements=(-2, 5))"
    assert repr(PlentifulSequence((2, 4))) == "PlentifulSequence(terms=(2, 4))"
    t = (
        "TargetFunction(window_lo=-2, window_hi=2, values={1: 2, 0: 0}, default=inf, "
        "zero_set=frozenset({0}))"
    )
    assert repr(target()) == t
    assert repr(enumerate_multiset(target())) == f"MultisetOrdering(target={t})"
    assert repr(built()) == (
        "ConstructionState(form=LinearForm(coefficients=(1, 2)), "
        "elements=GroundSet(elements=(-648, -18, 1, 36, 1297)), seed=(1,), "
        "records=(StepRecord(step=1, target=0, m=36, retries=0, "
        "block=(36, -18), support_size=9, copy_index=None), "
        "StepRecord(step=2, target=1, m=36, retries=0, "
        "block=(1297, -648), support_size=25, copy_index=None)), "
        "gap_sequence=None)"
    )
    assert repr(diff_built().records[1]) == (
        "DiffStepRecord(step=2, case='chained', target=1, copy_index=1, m_bound=6, "
        "gamma=1, block=(34, 33), witness=4, support_size=17, "
        "representations=((6, 5), (34, 33)))"
    )
    assert repr(Violation("double-representation", 7)) == (
        "Violation(kind='double-representation', value=7)"
    )
    assert repr(TargetReport(((3, 2, 1),))) == "TargetReport(overshoots=((3, 2, 1),))"
    assert repr(DiffReport((("not-even", 2),))) == "DiffReport(violations=(('not-even', 2),))"
    assert repr(AutomorphismWitness((None, 1), (None, 0))) == (
        "AutomorphismWitness(psi=(None, 1), chi=(None, 0))"
    )
    assert repr(RepProfile({1: 1}, (0, 2))) == "RepProfile(counts={1: 1}, window=(0, 2))"


def test_keyword_construction_matches_positional():
    assert LinearForm(coefficients=(1, 2)) == LinearForm((1, 2))
    assert GroundSet(elements=(2, 1)) == GroundSet.of([1, 2])
    assert PlentifulSequence(terms=(3,)) == PlentifulSequence((3,))
    assert TargetFunction(
        window_lo=-2, window_hi=2, values={1: 2}, default=INFINITY, zero_set=frozenset({0})
    ) == target()
    assert Violation(kind="k") == Violation("k", None)
