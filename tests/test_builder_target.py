import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrep import (
    GroundSet,
    INFINITY,
    LinearForm,
    TargetFunction,
    build_for_target,
    class_counts,
    compute_X,
    enumerate_multiset,
)
from linrep.builder_target import TargetReport, check_counts_against_target
from linrep.errors import (
    NotPartitionRegularError,
    NotPrimitiveError,
    PreconditionViolationError,
)
from linrep.forms import spiral

from oracles import rational_box_values, target_overshoots


class TestTargetFunction:
    def test_value_lookup(self):
        t = TargetFunction.make((-5, 5), values={2: 3}, default=1, zeros=(4,))
        assert t.value_at(2) == 3
        assert t.value_at(4) == 0
        assert t.value_at(0) == 1
        assert t.value_at(100) == 1
        assert t.zero_set == frozenset({4})

    def test_zero_outside_window_rejected(self):
        with pytest.raises(ValueError, match="outside the window"):
            TargetFunction.make((-5, 5), zeros=(9,))

    def test_zero_default_rejected(self):
        with pytest.raises(ValueError, match="never be zero"):
            TargetFunction.make((-5, 5), default=0)

    def test_unlisted_zero_value_rejected(self):
        with pytest.raises(ValueError, match="missing from the zero list"):
            TargetFunction.make((-5, 5), values={3: 0})

    def test_value_outside_window_rejected(self):
        with pytest.raises(ValueError, match="outside the window"):
            TargetFunction.make((-5, 5), values={6: 2})

    def test_json_roundtrip(self):
        t = TargetFunction.make(
            (-8, 8), values={1: 2, -1: 2, 3: INFINITY}, default=1, zeros=(5,)
        )
        again = TargetFunction.from_json(t.to_json())
        assert again == t
        raw = json.loads(t.to_json())
        assert raw["values"]["3"] == "inf"
        assert raw["zeros"] == [5]

    def test_json_infinite_default(self):
        t = TargetFunction.from_json(
            '{"window": [-4, 4], "values": {"0": 1}, "default": "inf", "zeros": []}'
        )
        assert t.default == INFINITY
        assert t.has_infinite_value()

    def test_json_rejects_junk_count(self):
        with pytest.raises(ValueError):
            TargetFunction.from_json(
                '{"window": [0, 1], "values": {"0": 1.5}, "default": 1, "zeros": []}'
            )

    @pytest.mark.parametrize(
        "text",
        [
            '[[0, 1]]',
            '{"window": [0, 1], "values": [2]}',
            '{"window": [0, 1], "zeros": 0}',
            '{"window": [0, 1], "values": {"1": 2, "1": 3}}',
            '{"window": [0, 1], "values": {"1": 2, "01": 3}}',
            '{"window": [0, 1], "window": [0, 2]}',
        ],
    )
    def test_json_rejects_malformed_shape(self, text):
        with pytest.raises(ValueError):
            TargetFunction.from_json(text)


class TestMultisetOrdering:
    def test_all_ones_prefix(self):
        t = TargetFunction.make((-10, 10))
        assert enumerate_multiset(t).entries(3) == [(0, 0), (1, 0), (-1, 0)]

    def test_doubled_zero_appears_twice(self):
        t = TargetFunction.make((-10, 10), values={0: 2})
        entries = enumerate_multiset(t).entries(8)
        assert entries.count((0, 0)) == 1 and entries.count((0, 1)) == 1

    def test_infinite_value_does_not_block(self):
        t = TargetFunction.make((-50, 50), values={1: INFINITY})
        entries = enumerate_multiset(t).entries(40)
        present = {n for n, _ in entries}
        # every value within the first 20 spiral positions still shows up
        for idx in range(20):
            assert spiral(idx) in present
        # and copies of the infinite value keep arriving
        assert sum(1 for n, _ in entries if n == 1) >= 10

    def test_every_pair_exactly_once(self):
        t = TargetFunction.make((-6, 6), values={2: 3, -2: 3}, default=2)
        entries = enumerate_multiset(t).entries(60)
        assert len(set(entries)) == len(entries)
        for n, c in entries:
            assert c < t.value_at(n)

    def test_zero_set_never_emitted(self):
        t = TargetFunction.make((-6, 6), zeros=(3, -3))
        entries = enumerate_multiset(t).entries(30)
        assert all(n not in (3, -3) for n, _ in entries)


class TestComputeX:
    def test_zero_input(self):
        assert compute_X(0, 1, 1, 1) == {-1, 0, 1}

    def test_even_input_halves(self):
        assert compute_X(6, 1, 2, 0) == {-6, -3, 0, 3, 6}

    def test_odd_input_drops_halves(self):
        assert compute_X(5, 1, 2, 0) == {-5, 0, 5}

    def test_contains_n_and_symmetric(self):
        for n in (-7, 0, 9):
            values = compute_X(n, 2, 3, 2)
            assert n in values
            assert compute_X(-n, 2, 3, 2) == {-v for v in values}

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            compute_X(1, 0, 1, 1)
        with pytest.raises(ValueError):
            compute_X(1, 1, 0, 1)
        with pytest.raises(ValueError):
            compute_X(1, 1, 1, -1)

    @given(
        st.integers(-40, 40),
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_rational_oracle(self, n, l, m, p):
        assert compute_X(n, l, m, p) == rational_box_values(n, l, m, p)


class TestCheckCounts:
    def test_clean_set(self):
        t = TargetFunction.make((-5, 5))
        report = check_counts_against_target(
            LinearForm.parse("1,1"), GroundSet.of([0, 1]), t
        )
        assert report.ok
        assert str(report) == "ok"

    def test_zero_set_hit(self):
        t = TargetFunction.make((-10, 10), zeros=(5,))
        report = check_counts_against_target(
            LinearForm.parse("1,1"), GroundSet.of([0, 5]), t
        )
        assert not report.ok
        assert 5 in report.zero_hits
        assert any(n == 5 for n, _, _ in report.overshoots)

    def test_overshoot_listed(self):
        t = TargetFunction.make((-10, 10))
        report = check_counts_against_target(
            LinearForm.parse("1,1"), GroundSet.of([0, 1, 2]), t
        )
        assert (2, 2, 1) in report.overshoots

    @given(st.data())
    @settings(max_examples=300)
    def test_report_matches_per_value_oracle(self, data):
        lo = data.draw(st.integers(-15, 0))
        hi = data.draw(st.integers(0, 15))
        allowed = st.one_of(st.integers(1, 6), st.just(INFINITY))
        values = data.draw(st.dictionaries(st.integers(lo, hi), allowed, max_size=8))
        zeros = data.draw(st.sets(st.integers(lo, hi).filter(lambda n: n not in values)))
        default = data.draw(st.sampled_from([1, 2, 3, INFINITY]))
        target = TargetFunction.make((lo, hi), values, default, tuple(zeros))
        counts = data.draw(st.dictionaries(st.integers(-25, 25), st.integers(1, 6)))
        report = TargetReport.of(counts, target)
        assert list(report.overshoots) == target_overshoots(counts, target)
        assert report.zero_hits == tuple(sorted(zeros & counts.keys()))


class TestBuildForTarget:
    def test_rejects_imprimitive(self):
        with pytest.raises(NotPrimitiveError):
            build_for_target(LinearForm.parse("2,4"), TargetFunction.make((-3, 3)), 2)

    def test_rejects_irregular(self):
        with pytest.raises(NotPartitionRegularError):
            build_for_target(LinearForm.parse("1,-1"), TargetFunction.make((-3, 3)), 2)

    def test_rejects_arity_one(self):
        with pytest.raises(PreconditionViolationError):
            build_for_target(LinearForm.parse("1"), TargetFunction.make((-3, 3)), 2)

    def test_rejects_forbidden_seed(self):
        # d0 = 1 makes B0 represent 2 under (1,1); the target forbids 2
        target = TargetFunction.make((-5, 5), zeros=(2,))
        with pytest.raises(PreconditionViolationError, match="d0"):
            build_for_target(LinearForm.parse("1,1"), target, 2)

    def test_all_ones_target_reduces_to_unique_basis(self):
        form = LinearForm.parse("1,1")
        state = build_for_target(form, TargetFunction.make((-30, 30)), 8)
        counts = class_counts(form, state.elements)
        assert max(counts.values()) <= 1
        covered = [(r.target, r.copy_index) for r in state.records]
        assert all(c == 0 for _, c in covered)

    def test_doubled_window_never_overshoots_any_prefix(self):
        form = LinearForm.parse("1,1")
        target = TargetFunction.make(
            (-20, 20), values={n: 2 for n in range(-20, 21)}, default=1
        )
        state = build_for_target(form, target, 10)
        prefix: tuple[int, ...] = state.blocks[0]
        for record in state.records:
            prefix = prefix + record.block
            counts = class_counts(form, GroundSet.of(prefix))
            assert all(c <= target.value_at(n) for n, c in counts.items())
        final = class_counts(form, state.elements)
        # the first processed entries each carry a dedicated class
        for record in state.records:
            assert final.get(record.target, 0) >= record.copy_index + 1

    def test_support_size_matches_prefix_recount(self):
        form = LinearForm.parse("1,2")
        target = TargetFunction.make(
            (-20, 20), values={n: 2 for n in range(-20, 21)}, default=1, zeros=(7,)
        )
        state = build_for_target(form, target, 10)
        for k, record in enumerate(state.records, start=1):
            prefix = GroundSet.of(v for blk in state.blocks[: k + 1] for v in blk)
            assert record.support_size == len(class_counts(form, prefix))

    def test_zero_set_avoided_every_prefix(self):
        form = LinearForm.parse("1,1,1")
        target = TargetFunction.make((-30, 30), zeros=(5, -9))
        state = build_for_target(form, target, 6)
        prefix: tuple[int, ...] = state.blocks[0]
        for record in state.records:
            prefix = prefix + record.block
            counts = class_counts(form, GroundSet.of(prefix))
            assert 5 not in counts and -9 not in counts

    def test_block_elements_pairwise_distinct(self):
        form = LinearForm.parse("1,1")
        target = TargetFunction.make((-10, 10), values={n: 2 for n in range(-10, 11)})
        state = build_for_target(form, target, 8)
        for blk in state.blocks[1:]:
            assert len(set(blk)) == len(blk)

    def test_fairness_first_copy_position(self):
        # a value's first copy is handled no later than its enumeration position
        form = LinearForm.parse("1,1")
        target = TargetFunction.make((-15, 15))
        steps = 7
        state = build_for_target(form, target, steps)
        entries = enumerate_multiset(target).entries(steps)
        counts = class_counts(form, state.elements)
        for n, c in entries:
            assert counts.get(n, 0) >= c + 1

    def test_infinite_values_accepted(self):
        form = LinearForm.parse("1,1")
        target = TargetFunction.make((-10, 10), values={0: INFINITY}, default=1)
        state = build_for_target(form, target, 6)
        counts = class_counts(form, state.elements)
        assert all(c <= target.value_at(n) for n, c in counts.items())
