import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linrep import (
    DIFFERENCE_FORM,
    GroundSet,
    INFINITY,
    PlentifulSequence,
    TargetFunction,
    build_infinite_case,
    build_unbounded_case,
    check_three_rep_obstruction,
    class_counts,
    enumerate_multiset,
    extract_plentiful,
    is_plentiful,
    window_plentiful_supply,
)
from linrep.builder_diff import DiffStepRecord, check_even_normalized
from linrep.builder_target import ConstructionState, Tally, _accept_target
from linrep.errors import (
    InsufficientPairsError,
    PreconditionViolationError,
    SequenceExhaustedError,
    SupplyExhaustedError,
)

from oracles import brute_counts, scheduled_numbers, target_violation


def even_values(pairs):
    values = {}
    for n, v in pairs:
        values[n] = v
        values[-n] = v
    return values


def assert_support_sizes(state):
    for k, record in enumerate(state.records, start=1):
        prefix = GroundSet.of(v for blk in state.blocks[: k + 1] for v in blk)
        assert record.support_size == len(class_counts(DIFFERENCE_FORM, prefix))


def inf_off_zero(window=4):
    return TargetFunction.make(
        (-window, window), values={0: 1}, default=INFINITY
    )


class TestEvenNormalized:
    def test_all_ones_ok(self):
        assert check_even_normalized(TargetFunction.make((-5, 5))).ok

    def test_uneven_flagged(self):
        t = TargetFunction.make((-5, 5), values={3: 2, -3: 1})
        report = check_even_normalized(t)
        assert not report.ok
        assert ("not-even", 3) in report.violations

    def test_zero_count_flagged(self):
        report = check_even_normalized(TargetFunction.make((-5, 5), values={0: 2}))
        assert ("zero-count-not-one", 0) in report.violations


class TestThreeRepObstruction:
    def test_lone_triple_flagged(self):
        t = TargetFunction.make((-10, 10), values=even_values([(7, 3)]))
        report = check_three_rep_obstruction(t)
        assert not report.ok
        assert any(n == 7 for _, n in report.violations)

    def test_second_doubled_value_clears(self):
        t = TargetFunction.make((-10, 10), values=even_values([(7, 3), (2, 2)]))
        assert check_three_rep_obstruction(t).ok

    def test_vacuous_when_capped_at_two(self):
        t = TargetFunction.make((-10, 10), values=even_values([(4, 2)]))
        assert check_three_rep_obstruction(t).ok

    def test_doubled_default_clears(self):
        t = TargetFunction.make((-10, 10), values=even_values([(7, 3)]), default=2)
        assert check_three_rep_obstruction(t).ok

    def test_infinite_counts_as_triple(self):
        t = TargetFunction.make((-10, 10), values=even_values([(7, INFINITY)]))
        assert not check_three_rep_obstruction(t).ok


@st.composite
def diff_steps(draw):
    """(old counts, delta, target, entry) of a difference-form step: the old
    counts are even-symmetric with one class at 0, the delta is symmetric or
    has one broken mirror, and the entry is one of the ordering's first 60."""
    def mirrored(halves):
        return {**halves, **{-n: c for n, c in halves.items()}}

    halves = st.dictionaries(st.integers(1, 8), st.integers(1, 3), max_size=5)
    old = {**mirrored(draw(halves)), 0: 1}
    delta = mirrored(draw(halves))
    if draw(st.integers(0, 7)) == 0:
        delta[0] = 1
    if delta and draw(st.booleans()):
        n = draw(st.sampled_from(sorted(delta)))
        bump = draw(st.sampled_from([None, 1, 2]))
        if bump is None:
            del delta[-n]
        else:
            delta[-n] += bump
    counts = st.sampled_from([1, 2, 3, 4, 6, INFINITY])
    values = draw(st.dictionaries(st.integers(-12, 12).filter(bool), counts, max_size=4))
    target = TargetFunction.make((-12, 12), values, draw(st.sampled_from([1, 2, INFINITY])))
    entry = draw(st.sampled_from(enumerate_multiset(target).entries(60)))
    return old, delta, target, entry


class TestCheckDiffStep:
    """A difference-form step goes through the target builder's check, which
    must name the same violation as the value-by-value loop."""

    @given(diff_steps())
    @settings(max_examples=400, deadline=None)
    # only the mirror of 5 is missing
    @example(({0: 1}, {5: 1}, TargetFunction.make((-12, 12), default=2), (5, 0)))
    # a double increment on an existing class
    @example(({0: 1, 3: 1, -3: 1}, {3: 2, -3: 2}, TargetFunction.make((-12, 12), default=3),
              (3, 0)))
    # a symmetric step that leaves the entry's second copy uncovered
    @example(({0: 1}, {5: 1, -5: 1}, TargetFunction.make((-12, 12), default=2), (5, 1)))
    def test_agrees_with_the_loop(self, step):
        old, delta, target, entry = step
        tally = Tally(old)
        tally.stage(delta)
        state = ConstructionState.initial(DIFFERENCE_FORM, 1)
        violation = _accept_target(target, None, state, tally, entry, (0, 1))
        frozen = scheduled_numbers(enumerate_multiset(target), entry)
        expected = target_violation(
            target, frozen, old, entry, delta, DIFFERENCE_FORM.coefficients
        )
        assert (None if violation is None else (violation.kind, violation.value)) == expected


class TestPlentiful:
    def test_partial_sums_doubled(self):
        t = TargetFunction.make((-5, 5), values=even_values([(1, 2), (2, 2), (3, 2)]))
        assert is_plentiful(PlentifulSequence((1, 1, 1)), t)

    def test_single_gap_breaks_it(self):
        t = TargetFunction.make((-5, 5), values=even_values([(1, 2), (3, 2)]))
        assert not is_plentiful(PlentifulSequence((1, 1, 1)), t)

    def test_empty_sequence_vacuous(self):
        assert is_plentiful(PlentifulSequence(()), TargetFunction.make((-2, 2)))

    def test_partial_sum_indexing(self):
        seq = PlentifulSequence((3, 5, 7))
        assert seq.partial_sum(1, 3) == 15
        assert seq.partial_sum(2, 2) == 5
        with pytest.raises(ValueError):
            seq.partial_sum(2, 1)

    def test_positive_terms_enforced(self):
        with pytest.raises(ValueError):
            PlentifulSequence((1, 0, 2))

    def test_json_roundtrip(self):
        seq = PlentifulSequence((10, 90, 2**70))
        assert PlentifulSequence.from_json(seq.to_json()) == seq
        assert json.loads(seq.to_json())[2] == str(2**70)

    def test_against_rep_profile(self):
        # plentifulness can be checked against a set's own counts
        counts = class_counts(DIFFERENCE_FORM, GroundSet.of([0, 1, 10, 11, 100, 101]))
        assert is_plentiful(PlentifulSequence((10, 90)), counts)


class TestExtractPlentiful:
    def test_worked_example(self):
        ground = GroundSet.of([0, 1, 10, 11, 100, 101])
        seq = extract_plentiful(ground, 1, 2)
        assert seq.terms == (10, 90)

    def test_insufficient_pairs(self):
        with pytest.raises(InsufficientPairsError):
            extract_plentiful(GroundSet.of([0, 1]), 1, 1)

    def test_zero_difference_rejected(self):
        with pytest.raises(PreconditionViolationError):
            extract_plentiful(GroundSet.of([0, 1, 2]), 0, 1)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            extract_plentiful(GroundSet.of([1, 3]), 2, -1)

    def test_postcondition_plentiful(self):
        ground = GroundSet.of([0, 1, 10, 11, 100, 101])
        seq = extract_plentiful(ground, 1, 2)
        assert is_plentiful(seq, class_counts(DIFFERENCE_FORM, ground))


class TestBuildInfiniteCase:
    def test_rejects_uneven(self):
        t = TargetFunction.make((-5, 5), values={3: 2, -3: 1, 4: INFINITY, -4: INFINITY})
        with pytest.raises(PreconditionViolationError, match="even"):
            build_infinite_case(t, PlentifulSequence((1,)), 2)

    def test_rejects_bad_zero_count(self):
        t = TargetFunction.make((-5, 5), values={0: 2}, default=INFINITY)
        with pytest.raises(PreconditionViolationError, match="even"):
            build_infinite_case(t, PlentifulSequence((1,)), 2)

    def test_rejects_all_finite_targets(self):
        t = TargetFunction.make((-5, 5))
        with pytest.raises(PreconditionViolationError, match="infinite"):
            build_infinite_case(t, PlentifulSequence((1,)), 2)

    def test_rejects_non_plentiful_sequence(self):
        # the doubled values at +-6 keep the three-rep obstruction away
        t = TargetFunction.make(
            (-6, 6), values={0: 1, 5: INFINITY, -5: INFINITY, 6: 2, -6: 2}, default=1
        )
        with pytest.raises(PreconditionViolationError, match="plentiful"):
            build_infinite_case(t, PlentifulSequence((1,)), 2)

    def test_partial_sums_are_built_once_per_build(self, monkeypatch):
        calls = []
        original = PlentifulSequence.all_partial_sums

        def spy(seq):
            calls.append(seq)
            return original(seq)

        monkeypatch.setattr(PlentifulSequence, "all_partial_sums", spy)
        seq = PlentifulSequence(tuple(2**i for i in range(1, 60)))
        state = build_infinite_case(inf_off_zero(), seq, 5)
        assert state.step == 5 and calls == [seq]
        # the plentiful precondition reads the same sums, and still fails
        t = TargetFunction.make(
            (-6, 6), values={0: 1, 5: INFINITY, -5: INFINITY, 6: 2, -6: 2}, default=1
        )
        with pytest.raises(PreconditionViolationError, match="plentiful"):
            build_infinite_case(t, PlentifulSequence((1,)), 2)
        assert len(calls) == 2

    def test_sequence_exhaustion(self):
        target = inf_off_zero()
        with pytest.raises(SequenceExhaustedError):
            build_infinite_case(target, PlentifulSequence((2, 4)), 8)

    def test_invariants_after_twelve_steps(self):
        target = inf_off_zero()
        seq = PlentifulSequence(tuple(2**i for i in range(1, 200)))
        state = build_infinite_case(target, seq, 12)
        counts = class_counts(DIFFERENCE_FORM, state.elements)
        assert counts.get(0) == 1
        assert all(counts[n] == counts.get(-n, 0) for n in counts)
        assert all(c <= target.value_at(n) for n, c in counts.items())
        assert state.ledger_gaps_ok()
        # every chained/fresh element cleared its size bound
        for record in state.records:
            bound = 2 * abs(record.target) + 3 * record.m_bound
            assert max(record.block) > bound

    def test_single_count_target_adds_exactly_one_class(self):
        # only values allowed above 1 ever chain; a plain value gets one
        # fresh pair and nothing else moves except mirrored fresh counts
        # (the doubled values at +-6 keep the three-rep obstruction away)
        target = TargetFunction.make(
            (-6, 6), values={0: 1, 5: INFINITY, -5: INFINITY, 6: 2, -6: 2}, default=1
        )
        seq = PlentifulSequence((5,))
        state = build_infinite_case(target, seq, 1)
        (record,) = state.records
        assert target.value_at(record.target) == 1
        counts = class_counts(DIFFERENCE_FORM, state.elements)
        assert counts.get(record.target) == 1

    def test_support_size_matches_prefix_recount(self):
        seq = PlentifulSequence(tuple(2**i for i in range(1, 200)))
        state = build_infinite_case(inf_off_zero(), seq, 10)
        assert_support_sizes(state)

    def test_ledger_anchors_strictly_increase(self):
        target = inf_off_zero()
        seq = PlentifulSequence(tuple(2**i for i in range(1, 200)))
        state = build_infinite_case(target, seq, 10)
        witnessed = {r.target for r in state.records if r.witness is not None}
        assert witnessed
        for n in witnessed | {-t for t in witnessed}:
            entries = state.chain(n)
            anchors = [a for a, _, _ in entries]
            assert anchors == sorted(anchors)
            witnesses = [m for _, _, m in entries]
            assert witnesses == sorted(witnesses)

    def test_extraction_round_trip(self):
        target = inf_off_zero()
        seq = PlentifulSequence(tuple(2**i for i in range(1, 200)))
        state = build_infinite_case(target, seq, 12)
        counts = class_counts(DIFFERENCE_FORM, state.elements)
        n = max((k for k, c in counts.items() if k > 0 and c >= 3), default=None)
        assert n is not None
        extracted = extract_plentiful(state.elements, n, counts[n] - 1)
        assert is_plentiful(extracted, counts)


def brute_chain(state, n):
    """(x, x - n, witness) for every pair of the set at difference n, by a
    nested scan; the witness is the record's, or 0 for an unrecorded pair."""
    recorded = {}
    for r in state.records:
        if r.witness is not None:
            x, y = r.block
            recorded[(r.target, x)] = r.witness
            recorded[(-r.target, y)] = r.witness
    elements = sorted(state.elements)
    return tuple(
        (x, y, recorded.get((n, x), 0)) for x in elements for y in elements if x - y == n
    )


def hand_built_state(elements, records):
    seq = PlentifulSequence((2, 4, 8))  # partial sums 2, 4, 6, 8, 12, 14
    return ConstructionState(
        DIFFERENCE_FORM, GroundSet.of(elements), (2,), records, gap_sequence=seq
    )


class TestChain:
    @pytest.mark.parametrize(
        "window, values, first, d0, steps, unrecorded",
        [
            # the golden diff-infinite-unrecorded-anchor-at-* shapes: the seed
            # 1 and the element 5 (or 6) form an unrecorded pair at 4 (or 5),
            # and the seed 2 and the element 8 one at 6
            (4, {}, 2, 1, 22, 4),
            (6, {1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: INFINITY}, 14, 1, 4, 5),
            (5, {1: 3, 2: 1, 3: 3, 4: 1, 5: 1}, 11, 2, 10, 6),
        ],
    )
    def test_matches_a_brute_anchor_scan(self, window, values, first, d0, steps, unrecorded):
        target = TargetFunction.make(
            (-window, window), values={0: 1, **even_values(values.items())}, default=INFINITY
        )
        seq = PlentifulSequence(tuple(first * 2**i for i in range(50)))
        state = build_infinite_case(target, seq, steps, d0=d0)
        counts = brute_counts(DIFFERENCE_FORM.coefficients, state.elements.elements)
        witnessed = {r.target for r in state.records if r.witness is not None}
        for n in (set(range(-12, 13)) - {0}) | witnessed | {-t for t in witnessed}:
            chain = state.chain(n)
            assert chain == brute_chain(state, n), n
            assert len(chain) == counts.get(n, 0)
            # the gap check walks one sign of each target
            assert state.chain(-n) == tuple((y, x, w) for x, y, w in chain)
        assert unrecorded in witnessed and state.chain(unrecorded)[0][2] == 0
        assert state.ledger_gaps_ok()

    @pytest.mark.parametrize("witness, ok", [(2, True), (1, False), (3, False)])
    def test_an_unrecorded_pair_starts_the_chain(self, witness, ok):
        # (3, 2) is unrecorded; the step's anchor 9 is 6 = 2 + 4 above it,
        # which is the partial sum up to witness 2 and no other
        record = DiffStepRecord(1, "chained", 1, 1, 3, 1, (9, 8), witness, 7, ((3, 2), (9, 8)))
        state = hand_built_state([2, 3, 8, 9], (record,))
        assert state.chain(1) == ((3, 2, 0), (9, 8, witness))
        assert state.chain(-1) == ((2, 3, 0), (8, 9, witness))
        assert state.ledger_gaps_ok() is ok

    def test_two_unrecorded_pairs_fail_the_gap_check(self):
        # (3, 2) and (6, 5) are both unrecorded at the witnessed difference
        # 1, and their anchor gap 3 is no partial sum of the sequence
        record = DiffStepRecord(1, "chained", 1, 1, 6, 1, (9, 8), 2, 7, ((9, 8),))
        state = hand_built_state([2, 3, 5, 6, 8, 9], (record,))
        assert [w for _, _, w in state.chain(1)] == [0, 0, 2]
        assert not state.ledger_gaps_ok()

    def test_gap_check_passes_without_a_gap_sequence(self):
        state = build_unbounded_case(
            TargetFunction.make((-10, 10)), lambda *a: PlentifulSequence(()), 3
        )
        assert state.gap_sequence is None and state.ledger_gaps_ok()


class TestBuildUnboundedCase:
    def test_rejects_infinite_values(self):
        with pytest.raises(PreconditionViolationError, match="infinite"):
            build_unbounded_case(inf_off_zero(), lambda *a: PlentifulSequence(()), 2)

    def test_rejects_uneven(self):
        t = TargetFunction.make((-5, 5), values={2: 2, -2: 1})
        with pytest.raises(PreconditionViolationError, match="even"):
            build_unbounded_case(t, lambda *a: PlentifulSequence(()), 2)

    def test_all_gamma_one_degenerates_to_fresh_pairs(self):
        target = TargetFunction.make((-10, 10))
        calls = []

        def supply(length, min_first, min_ratio):
            calls.append(length)
            return PlentifulSequence(())

        state = build_unbounded_case(target, supply, 5)
        assert calls == []  # no gap sequence ever needed
        assert all(r.gamma == 1 for r in state.records)
        counts = class_counts(DIFFERENCE_FORM, state.elements)
        assert max(counts.values()) <= 1

    def test_supplier_contract_enforced(self):
        target = TargetFunction.make(
            (-100, 100), values=even_values([(2, 2), (50, 2)])
        )

        def lazy_supply(length, min_first, min_ratio):
            return PlentifulSequence((50,) * length)  # ignores min_first

        with pytest.raises(SupplyExhaustedError):
            build_unbounded_case(target, lazy_supply, 4)

    def test_gamma_pattern_fills_exactly(self):
        W = 1_100_000
        values = even_values(
            [(2, 2), (3, 3), (552, 2), (41568, 2), (997632, 2), (1039200, 2)]
        )
        target = TargetFunction.make((-W, W), values=values, default=1)
        state = build_unbounded_case(target, window_plentiful_supply(target), 3)
        assert [r.gamma for r in state.records] == [1, 2, 3]
        counts = class_counts(DIFFERENCE_FORM, state.elements)
        for record in state.records:
            fv = target.value_at(record.target)
            assert counts.get(record.target) == fv
            assert counts.get(-record.target) == fv
        assert all(c <= target.value_at(n) for n, c in counts.items())

    def test_support_size_matches_prefix_recount(self):
        W = 1_100_000
        values = even_values(
            [(2, 2), (3, 3), (552, 2), (41568, 2), (997632, 2), (1039200, 2)]
        )
        target = TargetFunction.make((-W, W), values=values, default=1)
        state = build_unbounded_case(target, window_plentiful_supply(target), 12)
        assert {r.gamma for r in state.records} == {1, 2, 3}
        assert_support_sizes(state)

    def test_three_rep_obstruction_checked_up_front(self):
        target = TargetFunction.make((-5, 5), values=even_values([(3, 3)]))
        with pytest.raises(PreconditionViolationError, match="three-rep"):
            build_unbounded_case(target, window_plentiful_supply(target), 1)


class TestWindowSupply:
    def test_finds_minimal_candidates(self):
        target = TargetFunction.make(
            (-2000, 2000), values=even_values([(7, 2), (100, 2), (800, 2), (900, 2)])
        )
        supply = window_plentiful_supply(target)
        seq = supply(1, 50, 2)
        assert seq.terms == (100,)

    def test_partial_sums_must_be_doubled(self):
        # 100 then 800 fails because 900 must also be doubled; here it is
        target = TargetFunction.make(
            (-2000, 2000), values=even_values([(100, 2), (800, 2), (900, 2)])
        )
        seq = window_plentiful_supply(target)(2, 50, 2)
        assert seq.terms == (100, 800)

    def test_exhaustion(self):
        target = TargetFunction.make((-50, 50), values=even_values([(7, 2)]))
        with pytest.raises(SupplyExhaustedError):
            window_plentiful_supply(target)(2, 1, 2)

    def test_doubled_default_goes_outside_window(self):
        target = TargetFunction.make((-20, 20), default=2, values={0: 1})
        seq = window_plentiful_supply(target)(3, 5, 3)
        assert len(seq) == 3
        assert seq.terms[0] > 20
        assert is_plentiful(seq, target)
