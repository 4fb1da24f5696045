import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrep import (
    INFINITY,
    GroundSet,
    LinearForm,
    MixedSignRequiredError,
    PlentifulSequence,
    TargetFunction,
    build,
    build_for_target,
    build_infinite_case,
    class_counts,
)
from linrep import builder_target
from linrep.builder_target import (
    ALL_ONES,
    ConstructionState,
    Tally,
    Violation,
    _accept_target,
    _check_block,
    _propose,
    _scheduled_before,
    mixed_sign_last,
)
from linrep.errors import NotPrimitiveError, RetryExhaustedError
from linrep.forms import bezout_witness, spiral
from linrep.repcount import DEFAULT_TUPLE_BUDGET, PrefixCount

from oracles import DictCount, brute_counts, first_overshoot, merged, stage_made_up
from oracles import unique_violation

ACCEPTANCE_FORMS = ["1,1", "1,1,1", "2,3", "1,-2", "3,-2", "1,2,-3"]


def verify_block(form, block, target, d0=1):
    """The unique builder's check of one block on top of the set {d0}."""
    state = ConstructionState.initial(form, d0)
    tally = Tally(PrefixCount(form, state.elements), len(class_counts(form, state.elements)))
    return _check_block(state, tally, ALL_ONES, None, (target, 0), block, DEFAULT_TUPLE_BUDGET)


def staged(counts, delta, default=INFINITY, values=None):
    """A tally of the made-up verified ``counts`` with ``delta`` staged on
    it against the bounds ``values.get(n, default)``."""
    return stage_made_up(Tally(DictCount(counts), len(counts)), delta, default, values)


def raw_last_entry(coeffs, deltas):
    """(epsilon, remainder) of a proposal, recomputed from its ladder: the
    floored epsilon that puts head + a_last*epsilon = remainder in
    [0, |a_last|), head being the ladder's part of the raw sum."""
    head = sum(a * d for a, d in zip(coeffs, deltas))
    q, remainder = divmod(head, abs(coeffs[-1]))
    return (-q if coeffs[-1] > 0 else q), remainder


class TestProposeBlock:
    def test_worked_example(self):
        # B0 = {1}, growth constant 10, target 0: offsets (11,), epsilon -11
        form = LinearForm.parse("1,1")
        block, deltas = _propose(form, bezout_witness(form), target=0, m=10, prev_max_abs=1)
        assert deltas == (11,)
        assert raw_last_entry(form.coefficients, deltas) == (-11, 0)
        assert block == (11, -11)
        assert sum(a * b for a, b in zip(form.coefficients, block)) == 0

    def test_two_three_remainder(self):
        # head = 2*11 = 22, so epsilon must land the remainder in [0, 3)
        form = LinearForm.parse("2,3")
        bez = bezout_witness(form)
        block, deltas = _propose(form, bez, target=0, m=10, prev_max_abs=1)
        assert deltas == (11,)
        eps, remainder = raw_last_entry(form.coefficients, deltas)
        assert eps == -7
        assert remainder == 1
        # two-candidate check: of eps and eps-1 only eps lands in range
        head = 2 * 11
        assert 0 <= head + 3 * eps < 3
        assert not 0 <= head + 3 * (eps - 1) < 3
        # the Bezout witness shifts the raw block (11, eps) onto the target
        assert block == tuple(v + (0 - remainder) * s for v, s in zip((11, eps), bez))

    @given(
        st.lists(st.integers(-7, 7).filter(bool), min_size=2, max_size=4),
        st.integers(-50, 50),
        st.integers(1, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_remainder_bound_and_sum(self, coeffs, target, m):
        import math

        if math.gcd(*(abs(c) for c in coeffs)) != 1:
            return
        form = LinearForm(tuple(coeffs))
        bez = bezout_witness(form)
        block, deltas = _propose(form, bez, target, m, prev_max_abs=3)
        eps, remainder = raw_last_entry(coeffs, deltas)
        assert 0 <= remainder < abs(coeffs[-1])
        head = sum(a * d for a, d in zip(coeffs, deltas))
        assert head + coeffs[-1] * eps == remainder
        assert not 0 <= head + coeffs[-1] * (eps - 1) < abs(coeffs[-1])
        assert sum(a * b for a, b in zip(coeffs, block)) == target
        raw = deltas + (eps,)
        assert block == tuple(v + (target - remainder) * s for v, s in zip(raw, bez))
        # ladder ratios exceed m
        assert deltas[0] > m * 3
        for lo, hi in zip(deltas, deltas[1:]):
            assert hi > m * lo


class TestVerifyBlock:
    def test_clean_candidate(self):
        assert verify_block(LinearForm.parse("1,1"), (11, -11), target=0) is None

    def test_duplicate_inside_block(self):
        violation = verify_block(LinearForm.parse("1,1"), (11, 11), target=22)
        assert violation is not None
        assert violation.kind == "duplicate-in-block"

    def test_small_cancelling_pair(self):
        assert verify_block(LinearForm.parse("1,1"), (2, -2), target=0) is None

    def test_collision_with_existing(self):
        violation = verify_block(LinearForm.parse("1,1"), (1, -1), target=0)
        assert violation.kind == "collision-with-existing"
        assert violation.value == 1

    def test_double_representation_named(self):
        # 3 + (-1) = 2 = 1 + 1: the doubled integer is reported
        violation = verify_block(LinearForm.parse("1,1"), (3, -1), target=2)
        assert violation.kind == "count-exceeds-target"
        assert violation.value == 2


def as_pair(violation):
    return None if violation is None else (violation.kind, violation.value)


# the unique-basis oracle's violation kinds, as the target check names them
TARGET_KINDS = {
    "double-representation": "count-exceeds-target",
    "target-unrepresented": "target-copy-missed",
}


def settled(counts, target):
    """``counts`` as the step loop holds them when it takes the entry
    (target, 0): every number scheduled before it has count 1 or more, and
    the target itself has none."""
    scheduled = {n: 1 for n in _scheduled_before((target, 0))}
    return {n: c for n, c in (scheduled | counts).items() if n != target}


def unique_check(counts, delta, target):
    """The target check at f = 1 of the entry (target, 0), and the
    unique-basis oracle's verdict in the target check's names."""
    state = ConstructionState.initial(LinearForm.parse("1,1"), 1)
    tally = staged(counts, delta, ALL_ONES.default, ALL_ONES.values)
    violation = _accept_target(ALL_ONES, None, state, tally, (target, 0), (0, 1))
    expected = unique_violation(counts, target, delta)
    return as_pair(violation), expected and (TARGET_KINDS[expected[0]], expected[1])


class TestAcceptUnique:
    """At f = 1 the target check decides as the unique-basis oracle does."""

    @given(
        st.dictionaries(st.integers(-12, 12), st.integers(1, 2), max_size=8),
        st.dictionaries(st.integers(-12, 12), st.integers(1, 2), max_size=8),
        st.integers(-12, 12),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_loop(self, counts, delta, target):
        found, expected = unique_check(settled(counts, target), delta, target)
        assert found == expected

    @pytest.mark.parametrize(
        "counts, delta, target, expected",
        [
            # 4 comes after every number of -3 .. 3
            ({9: 1}, {4: 1, 10: 1}, 4, None),
            ({}, {4: 1, 1: 1, 7: 1}, 4, ("count-exceeds-target", 1)),
            ({9: 1}, {4: 1, 7: 2, 9: 1}, 4, ("count-exceeds-target", 7)),
            ({}, {5: 1}, 4, ("target-copy-missed", 4)),
            ({}, {}, 0, ("target-copy-missed", 0)),
        ],
    )
    def test_named_cases(self, counts, delta, target, expected):
        assert unique_check(settled(counts, target), delta, target) == (expected, expected)

    def test_off_the_loop_invariant_the_frozen_rule_decides_first(self):
        # 0 comes before 4 yet has no count, which the step loop never holds
        found, expected = unique_check({}, {0: 1, 4: 1}, 4)
        assert found == ("frozen-count-changed", 0)
        assert expected is None


class UnwalkedDict(dict):
    """A delta that fails the test if its values are walked one by one."""

    def items(self):
        raise AssertionError("the delta was walked")


class TestFirstOvershoot:
    """The bulk test must name the spiral-least value the per-value loop finds."""

    @given(
        st.sampled_from([1, 2, INFINITY]),
        st.dictionaries(
            st.integers(-8, 8), st.one_of(st.integers(0, 4), st.just(INFINITY)), max_size=6
        ),
        st.dictionaries(st.integers(-8, 8), st.integers(1, 3), max_size=8),
        st.dictionaries(st.integers(-8, 8), st.integers(1, 3), max_size=8),
    )
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_the_loop(self, default, values, counts, delta):
        assert staged(counts, delta, default, values).overshoot() == first_overshoot(
            counts, delta, default, values
        )

    def test_bounds_reached_exactly_take_the_bulk_test(self):
        # the largest new count equals the default, and a shared value with
        # an explicit bound reaches it
        delta = UnwalkedDict({3: 1, 4: 2})
        assert staged({3: 1}, delta, 2, {3: 2}).overshoot() is None

    def test_a_shared_value_is_tested_at_its_old_count(self):
        assert staged({5: 1}, {4: 1, 5: 1}, 1).overshoot() == 5


count_maps = st.dictionaries(st.integers(-8, 8), st.integers(1, 3), max_size=8)


class TestTally:
    @given(count_maps, st.lists(st.tuples(count_maps, st.booleans()), max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_count_is_the_verified_count_plus_the_stage(self, counts, steps):
        # each step stages a delta, and only an accepted one is merged;
        # merging moves the delta into the count, so no count changes
        model = dict(counts)
        tally = Tally(DictCount(counts), len(counts))
        for delta, accepted in steps:
            stage_made_up(tally, delta)
            expected = {n: model.get(n, 0) + delta.get(n, 0) for n in [*model, *delta, 99]}
            assert {n: tally.count(n) for n in expected} == expected
            if accepted:
                tally.merge(delta)
                model = merged(model, delta)
                assert {n: tally.count(n) for n in expected} == expected
            assert tally.size == len(model)


def reject_first_proposals(monkeypatch):
    """Make the target check, which every ``build`` and ``build_for_target``
    step runs, reject the first proposal of every step; returns the list of
    tallies the check is handed."""
    check = builder_target._accept_target
    tallies, rejected = [], set()

    def first_rejected(target, half_line, state, tally, entry, block):
        tallies.append(tally)
        if state.step in rejected:
            return check(target, half_line, state, tally, entry, block)
        rejected.add(state.step)
        return Violation("first-proposal")

    monkeypatch.setattr(builder_target, "_accept_target", first_rejected)
    return tallies


@pytest.mark.parametrize(
    "run",
    [
        lambda: build(LinearForm.parse("1,2"), 8),
        lambda: build_for_target(
            LinearForm.parse("1,1"),
            TargetFunction.make((-20, 20), values={n: 2 for n in range(-20, 21)}),
            12,
        ),
        # proposes under 2,-1,3, and counts under -1,2,3
        lambda: build(LinearForm.parse("-1,2,3"), 5, half_line=3),
    ],
    ids=["build", "build_for_target", "build_half_line_reordered"],
)
def test_a_rejected_block_never_reaches_the_running_count(monkeypatch, run):
    tallies = reject_first_proposals(monkeypatch)
    state = run()
    form = state.form
    assert all(r.retries >= 1 for r in state.records)
    for k, record in enumerate(state.records, start=1):
        prefix = GroundSet.of(v for blk in state.blocks[: k + 1] for v in blk)
        assert record.support_size == len(class_counts(form, prefix))
    # the step loop's one tally, after its last merge
    expected = class_counts(form, state.elements)
    assert {n: tallies[-1].count(n) for n in expected} == expected
    assert tallies[-1].size == len(expected)


class TestNextTarget:
    # targets walk the spiral 0, 1, -1, 2, ... past represented integers
    def test_initial_target_is_zero(self):
        assert build(LinearForm.parse("1,1"), 1).covered_targets == (0,)

    def test_after_zero_comes_one(self):
        assert build(LinearForm.parse("1,1"), 2).covered_targets == (0, 1)


class TestBuild:
    def test_not_primitive(self):
        with pytest.raises(NotPrimitiveError):
            build(LinearForm.parse("2,4"), 3)

    def test_one_variable_whole_line(self):
        state = build(LinearForm.parse("1"), 5)
        assert state.trivial_whole_line
        state = build(LinearForm.parse("-1"), 5)
        assert state.trivial_whole_line

    def test_twenty_steps_all_counts_one(self):
        form = LinearForm.parse("1,1")
        state = build(form, 20)
        counts = class_counts(form, state.elements)
        assert max(counts.values()) <= 1
        assert len(state.covered_targets) == 20
        for t in state.covered_targets:
            assert counts.get(t, 0) == 1

    def test_monotone_coverage_rederivable(self):
        # replay the prefixes: each target is the spiral-least integer the
        # previous prefix misses
        form = LinearForm.parse("1,1")
        state = build(form, 12)
        prefix: tuple[int, ...] = state.blocks[0]
        for record in state.records:
            counts = class_counts(form, GroundSet.of(prefix))
            idx = 0
            while counts.get(spiral(idx), 0) != 0:
                idx += 1
            assert spiral(idx) == record.target
            prefix = prefix + record.block

    def test_growth_certificate(self):
        form = LinearForm.parse("1,2,-3")
        state = build(form, 6)
        prev_max = max(abs(e) for e in state.blocks[0])
        bez = bezout_witness(form)
        for record in state.records:
            # the record keeps the block; replaying its proposal gives the ladder
            block, deltas = _propose(
                form, bez, record.target, record.m, prev_max, None, record.retries
            )
            assert block == record.block
            assert deltas[0] > record.m * prev_max
            for lo, hi in zip(deltas, deltas[1:]):
                assert hi > record.m * lo
            prev_max = max(prev_max, max(abs(e) for e in record.block))

    def test_prefix_stability(self):
        # no late representations: every recorded target still counts exactly 1
        form = LinearForm.parse("2,3")
        state = build(form, 10)
        counts = class_counts(form, state.elements)
        assert all(counts.get(t, 0) == 1 for t in state.covered_targets)
        assert max(counts.values()) <= 1

    @pytest.mark.parametrize("text", ACCEPTANCE_FORMS)
    def test_small_growth_constant_still_converges(self, text):
        # m0=1 forces the retry loop to earn its keep
        form = LinearForm.parse(text)
        state = build(form, 8, m0=1)
        assert sum(r.retries for r in state.records) >= 1
        counts = brute_counts(form.coefficients, state.elements.elements)
        assert max(counts.values()) <= 1
        assert all(counts.get(t, 0) == 1 for t in state.covered_targets)

    def test_retry_exhaustion_names_the_entry_and_the_target_checks(self, monkeypatch):
        # a proposal held at M = 1 and attempt 0 overshoots at 1 on every retry
        propose = builder_target._propose
        monkeypatch.setattr(
            builder_target,
            "_propose",
            lambda form, bez, t, m, prev, half_line, attempt: propose(
                form, bez, t, 1, prev, half_line, 0
            ),
        )
        with pytest.raises(RetryExhaustedError) as exc:
            build(LinearForm.parse("1,-1"), 12, m0=1)
        header, *trail = str(exc.value).splitlines()
        assert header == "step 1 entry (1, 0) exhausted 64 retries; trace:"
        assert trail == [
            f"step 1 retry {r} (M={2 ** (r - 1)}): count-exceeds-target: 1" for r in range(1, 66)
        ]

    def test_blocks_disjoint_and_union(self):
        form = LinearForm.parse("1,-2")
        state = build(form, 8)
        seen = set()
        for blk in state.blocks:
            for v in blk:
                assert v not in seen
                seen.add(v)
        assert seen == set(state.elements)

    def test_support_size_matches_prefix_recount(self):
        form = LinearForm.parse("1,2,-3")
        state = build(form, 6)
        for k, record in enumerate(state.records, start=1):
            prefix = GroundSet.of(v for blk in state.blocks[: k + 1] for v in blk)
            assert record.support_size == len(class_counts(form, prefix))

    def test_trace_records_shape(self):
        form = LinearForm.parse("1,1")
        state = build(form, 3)
        recs = [r.to_json_obj() for r in state.records]
        assert [r["step"] for r in recs] == [1, 2, 3]
        for r in recs:
            assert set(r) >= {"step", "target", "M", "retries", "block", "support_size"}
            assert all(isinstance(b, str) for b in r["block"])


class TestHalfLine:
    def test_mixed_sign_required(self):
        with pytest.raises(MixedSignRequiredError):
            build(LinearForm.parse("2,3"), 4, half_line=0)
        with pytest.raises(MixedSignRequiredError):
            build(LinearForm.parse("-1,-2"), 4, half_line=-5)

    @pytest.mark.parametrize("bound", [0, 37, 10**6])
    def test_elements_clear_bound(self, bound):
        form = LinearForm.parse("1,-2")
        state = build(form, 6, half_line=bound)
        assert min(state.elements.elements) >= bound
        counts = class_counts(form, state.elements)
        assert max(counts.values()) <= 1
        assert all(counts.get(t, 0) == 1 for t in state.covered_targets)

    def test_negative_bound(self):
        form = LinearForm.parse("3,-2")
        state = build(form, 5, half_line=-1000)
        assert min(state.elements.elements) >= -1000

    def test_reordering_keeps_original_form_valid(self):
        # the builder may permute coefficients internally; the produced set
        # must verify against the form as given
        form = LinearForm.parse("-1,2,3")
        state = build(form, 5, half_line=3)
        assert mixed_sign_last(form) != form
        assert state.form == form
        counts = class_counts(form, state.elements)
        assert max(counts.values()) <= 1
        assert min(state.elements.elements) >= 3

    def test_mixed_sign_last_identity_when_already_mixed(self):
        form = LinearForm.parse("1,-2")
        assert mixed_sign_last(form) == form


@pytest.mark.parametrize(
    "run",
    [
        lambda: build(LinearForm.parse("1,2,-3"), 6),
        lambda: build(LinearForm.parse("2,2,-1,-1"), 4),
        lambda: build_for_target(
            LinearForm.parse("1,1"),
            TargetFunction.make((-20, 20), values={n: 2 for n in range(-20, 21)}),
            30,
        ),
        lambda: build_infinite_case(
            TargetFunction.make((-4, 4), values={0: 1}, default=INFINITY),
            PlentifulSequence(tuple(2**i for i in range(1, 200))),
            12,
        ),
    ],
    ids=["build", "build_repeated", "build_for_target", "diff_infinite"],
)
def test_every_merge_leaves_the_count_of_the_union(monkeypatch, run):
    # the cached counts and the extended prefix tables, after each merge,
    # against a full count of the set the tally now holds
    merge, checked = Tally.merge, []

    def checked_merge(tally, block):
        merge(tally, block)
        form = tally.source.form
        expected = class_counts(form, GroundSet.of(tally.source.elements))
        probes = [*expected, *(n + 1 for n in expected), *tally._known]
        assert {n: tally.count(n) for n in probes} == {n: expected.get(n, 0) for n in probes}
        assert tally.size == len(expected)
        checked.append(block)

    monkeypatch.setattr(Tally, "merge", checked_merge)
    state = run()
    assert checked == [r.block for r in state.records]
