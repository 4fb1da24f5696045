import json
from functools import cache
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrep import (
    GroundSet,
    INFINITY,
    LinearForm,
    PlentifulSequence,
    TargetFunction,
    build,
    build_for_target,
    build_infinite_case,
    build_unbounded_case,
    class_counts,
    compute_X,
    enumerate_multiset,
    window_plentiful_supply,
)
from linrep import builder_target, repcount
from linrep.builder_target import (
    ALL_ONES,
    ConstructionState,
    Tally,
    TargetReport,
    _accept_target,
    _check_block,
    _scheduled_before,
    check_counts_against_target,
)
from linrep.errors import (
    NotPartitionRegularError,
    NotPrimitiveError,
    PreconditionViolationError,
)
from linrep.forms import spiral

from oracles import (
    DictCount,
    brute_counts,
    multiset_walk,
    rational_box_values,
    scheduled_numbers,
    stage_made_up,
    target_overshoots,
    target_violation,
)


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

    @pytest.mark.parametrize("value", [2, INFINITY])
    def test_zero_with_a_value_rejected(self, value):
        with pytest.raises(ValueError, match="non-zero value"):
            TargetFunction.make((-5, 5), values={3: value}, zeros=(3,))
        # an explicit zero agrees with the zero list
        assert TargetFunction.make((-5, 5), values={3: 0}, zeros=(3,)).value_at(3) == 0

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

    def test_entries_count_is_exact(self):
        ordering = enumerate_multiset(TargetFunction.make((-10, 10)))
        assert ordering.entries(0) == []
        with pytest.raises(ValueError):
            ordering.entries(-3)

    @pytest.mark.parametrize(
        "target",
        [
            TargetFunction.make((-6, 6), values={2: 1}, default=INFINITY),
            TargetFunction.make((-6, 6), values={-3: INFINITY}),
            TargetFunction.make((-6, 6), values={1: 1}, default=3),
            TargetFunction.make((-6, 6), values={4: 2}, zeros=(-1,)),
        ],
        ids=["inf-default", "inf-value", "default-3", "zero"],
    )
    def test_matches_the_quadratic_walk_named(self, target):
        assert enumerate_multiset(target).entries(300) == list(islice(multiset_walk(target), 300))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_quadratic_walk(self, data):
        target, k = data.draw(small_targets), data.draw(st.integers(0, 300))
        assert enumerate_multiset(target).entries(k) == list(islice(multiset_walk(target), k))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_scheduled_before_matches_the_walk(self, data):
        target = data.draw(small_targets)
        k = data.draw(st.integers(1, 60))
        entries = enumerate_multiset(target).entries(k)
        n = entries[-1][0]
        walked = {m for m, _ in entries} - {n}
        assert walked == set(_scheduled_before(entries[-1])) - {n} - target.zero_set


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


def bare(form, elements):
    """A state holding ``elements`` and no records, as verify certifies a set."""
    return ConstructionState(LinearForm.parse(form), GroundSet.of(elements), ())


def brute_of(state):
    return brute_counts(state.form.coefficients, state.elements.elements)


def forced_shards(form, size, p):
    """A shard constant under which ``size`` elements under ``form`` are
    counted in exactly ``p`` shards."""
    tuples = size**form.arity
    return -(-tuples // p)


class TestCheckCounts:
    def test_clean_set(self):
        t = TargetFunction.make((-5, 5))
        counts, report = check_counts_against_target(bare("1,1", [0, 1]), t, whole=True)
        assert counts == brute_counts((1, 1), (0, 1))
        assert report == TargetReport((), (), (), True, 3)
        assert report.ok
        assert str(report) == "ok"
        # walked in shards, the certificate returns no counts and the same report
        assert check_counts_against_target(bare("1,1", [0, 1]), t) == (None, report)

    def test_zero_set_hit(self):
        # a zero carries the value 0, so a represented zero is one overshoot
        t = TargetFunction.make((-10, 10), zeros=(4,))
        _, report = check_counts_against_target(bare("1,1", [1, 3]), t)
        assert not report.ok
        assert str(report) == "count 1 > 0 at 4"

    def test_overshoot_listed(self):
        t = TargetFunction.make((-10, 10))
        _, report = check_counts_against_target(bare("1,1", [0, 1, 2]), t)
        assert (2, 2, 1) in report.overshoots

    def test_counts_once(self, monkeypatch):
        calls = []
        for name in ("class_counts", "class_count_shards"):
            original = getattr(builder_target, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(builder_target, name, counted)
        target = TargetFunction.make((-4, 4))
        state = build_for_target(LinearForm.parse("1,2"), target, 4)
        for whole, kernel in ((False, "class_count_shards"), (True, "class_counts")):
            calls.clear()
            counts, report = check_counts_against_target(state, target, whole=whole)
            assert calls == [kernel] and report.ok
            assert counts == (brute_of(state) if whole else None)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_report_matches_per_value_oracle(self, data):
        lo = data.draw(st.integers(-15, 0))
        hi = data.draw(st.integers(0, 15))
        allowed = st.one_of(st.integers(1, 6), st.just(INFINITY))
        values = data.draw(st.dictionaries(st.integers(lo, hi), allowed, max_size=8))
        zeros = data.draw(st.sets(st.integers(lo, hi).filter(lambda n: n not in values)))
        default = data.draw(st.sampled_from([1, 2, 3, INFINITY]))
        target = TargetFunction.make((lo, hi), values, default, tuple(zeros))
        form = data.draw(st.sampled_from(["1,1", "1,-1", "1,2", "2,-1", "1,1,1", "1,2,-3"]))
        elements = data.draw(st.lists(st.integers(-12, 12), max_size=8, unique=True))
        counts, report = check_counts_against_target(bare(form, elements), target, whole=True)
        assert counts == brute_counts(LinearForm.parse(form).coefficients, elements)
        assert report.support_size == len(counts)
        assert list(report.overshoots) == target_overshoots(counts, target)
        assert report.ok == (not report.overshoots)
        assert all((n, counts[n], 0) in report.overshoots for n in zeros & counts.keys())
        # a count above its allowed count needs a finite one
        assert all(allowed != INFINITY for _, _, allowed in report.overshoots)


@cache
def built_states():
    """States whose certificates read every field: builds with records,
    copies and a ledger, some tampered so that a field fails."""
    realized = build_for_target(
        LinearForm.parse("1,2"), TargetFunction.make((-6, 6), values={1: 3, -2: 2}, default=2), 8
    )
    last = realized.records[-1]
    unique = build(LinearForm.parse("1,2,-3"), 4)
    return [
        (realized, TargetFunction.make((-6, 6), values={1: 3, -2: 2}, default=2)),
        (realized._replace(records=realized.records + (last._replace(copy_index=9),)),
         TargetFunction.make((-6, 6), default=2)),
        (unique, ALL_ONES),
        (unique._replace(elements=unique.elements.union([2, 5])), ALL_ONES),
        (build(LinearForm.parse("2,2,-1,-1"), 3), ALL_ONES),
        (bare("1,-2,3", range(-6, 6, 2)), TargetFunction.make((-9, 9), {0: 1}, 3, (4,))),
        (bare("3,-1,-1", range(0, 30, 3)), TargetFunction.make((0, 0), default=INFINITY)),
    ]


class TestShardedCertificate:
    """The certificate walked in p residue shards gives the one-shard report."""

    @pytest.mark.parametrize("p", [2, 3, 7])
    @pytest.mark.parametrize("case", range(7))
    def test_equals_the_one_shard_report(self, monkeypatch, p, case):
        state, target = built_states()[case]
        counts, whole = check_counts_against_target(state, target, whole=True)
        assert counts == brute_of(state)
        if len(set(state.form.coefficients)) == 1:
            p = 1  # equal coefficients are counted in one shard
        constant = forced_shards(state.form, len(state.elements), p)
        monkeypatch.setattr(repcount, "_SHARD_TUPLES", constant)
        assert repcount.shard_modulus(state.form, len(state.elements)) == p
        assert check_counts_against_target(state, target) == (None, whole)

    @given(
        st.sampled_from(["1,-1", "1,2", "2,-1", "1,2,-3", "1,1,-2", "2,2,-1,-1"]),
        st.lists(st.integers(-12, 12), min_size=7, max_size=9, unique=True),
        st.dictionaries(st.integers(-6, 6), st.integers(0, 3), max_size=6),
        st.sampled_from([1, 2, INFINITY]),
        st.sampled_from([2, 3, 7]),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_sets(self, form, elements, values, default, p):
        zeros = tuple(n for n, v in values.items() if v == 0)
        target = TargetFunction.make((-6, 6), values, default, zeros)
        state = bare(form, elements)
        _, whole = check_counts_against_target(state, target, whole=True)
        with patch.object(repcount, "_SHARD_TUPLES", forced_shards(state.form, len(elements), p)):
            assert repcount.shard_modulus(state.form, len(elements)) == p
            assert check_counts_against_target(state, target) == (None, whole)


class TestTamperedCertificate:
    """A state whose records claim more than its set holds fails the
    certificate in the field that names the claim, and its support size
    is the brute-force one."""

    def test_copy_beyond_the_count_is_uncovered(self):
        target = TargetFunction.make((-4, 4), default=2)
        state = build_for_target(LinearForm.parse("1,1"), target, 6)
        assert check_counts_against_target(state, target)[1].ok
        last = state.records[-1]
        brute = brute_of(state)
        claim = brute.get(last.target, 0)  # copy c needs a count above c
        tampered = state._replace(records=state.records[:-1] + (last._replace(copy_index=claim),))
        _, report = check_counts_against_target(tampered, target)
        assert report.support_size == len(brute)
        assert report.uncovered == ((last.target, claim),)
        assert report.overshoots == () and not report.ok
        assert str(report) == f"copy {claim} of {last.target} uncovered"

    def test_build_target_without_a_class_is_uncovered(self):
        # a build record has no copy index, which counts as copy 0
        state = build(LinearForm.parse("1,2,-3"), 4)
        assert check_counts_against_target(state, ALL_ONES)[1].ok
        brute = brute_of(state)
        missed = next(n for n in range(1, 100) if n not in brute)
        last = state.records[-1]
        tampered = state._replace(records=state.records[:-1] + (last._replace(target=missed),))
        _, report = check_counts_against_target(tampered, ALL_ONES)
        assert report.support_size == len(brute)
        assert report.uncovered == ((missed, 0),) and not report.ok

    def test_element_below_the_half_line(self):
        half_line = 10
        state = build(LinearForm.parse("1,-2"), 4, half_line=half_line)
        assert check_counts_against_target(state, ALL_ONES, half_line=half_line)[1].ok
        tampered = state._replace(elements=state.elements.union([half_line - 3]))
        _, report = check_counts_against_target(tampered, ALL_ONES, half_line=half_line)
        brute = brute_of(tampered)
        assert report.support_size == len(brute)
        assert report.below_half_line == (half_line - 3,) and not report.ok
        assert list(report.overshoots) == target_overshoots(brute, ALL_ONES)
        # without a bound, no element is below it
        assert check_counts_against_target(tampered, ALL_ONES)[1].below_half_line == ()

    def test_wrong_gap_term_breaks_the_ledger(self):
        target = TargetFunction.make((-4, 4), values={0: 1}, default=INFINITY)
        seq = PlentifulSequence(tuple(2**i for i in range(1, 200)))
        state = build_infinite_case(target, seq, 12)
        assert check_counts_against_target(state, target)[1].ok
        # a chained step's anchor gap to the pair below ends at its witness's term
        w = next(r.witness for r in state.records if r.case == "chained")
        terms = list(seq.terms)
        terms[w - 1] += 1
        tampered = state._replace(gap_sequence=PlentifulSequence(terms))
        _, report = check_counts_against_target(tampered, target)
        assert report.support_size == len(brute_of(state))
        assert report.overshoots == () == report.uncovered
        assert report.ledger_coherent is False and not report.ok
        assert str(report) == "ledger incoherent"


allowed = st.sampled_from([1, 2, 3, INFINITY])
# a zero takes no explicit value, so the zeros are drawn outside the values
small_targets = st.dictionaries(st.integers(-6, 6), allowed, max_size=6).flatmap(
    lambda values: st.builds(
        lambda default, zeros: TargetFunction.make((-6, 6), values, default, zeros),
        allowed,
        st.lists(st.integers(-6, 6).filter(lambda n: n not in values), max_size=3),
    )
)
count_maps = st.dictionaries(st.integers(-9, 9), st.integers(1, 3), max_size=8)


def target_check(target, counts, entry, delta, form):
    """The builder's check under ``form`` and the oracle's, which walks the
    ordering up to ``entry`` for the numbers scheduled before it."""
    form = LinearForm.parse(form)
    state = ConstructionState.initial(form, 1)
    tally = Tally(DictCount(counts), len(counts))
    stage_made_up(tally, delta, target.default, target.values)
    violation = _accept_target(target, None, state, tally, entry, (0, 1))
    frozen = scheduled_numbers(enumerate_multiset(target), entry)
    return (
        None if violation is None else (violation.kind, violation.value),
        target_violation(target, frozen, counts, entry, delta, form.coefficients),
    )


class TestAcceptTarget:
    """The bulk check must name the same violation as the value-by-value loop."""

    @given(
        small_targets, st.integers(1, 60), count_maps, count_maps,
        st.sampled_from(["1,1", "1,-1"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_the_loop(self, target, k, counts, delta, form):
        entry = enumerate_multiset(target).entries(k)[-1]
        found, expected = target_check(target, counts, entry, delta, form)
        assert found == expected

    @pytest.mark.parametrize(
        "values, default, zeros, frozen, counts, entry, delta, expected",
        [
            # an explicit value below the default
            ({-7: 1}, 3, (), set(), {}, (5, 0), {5: 2, -7: 2}, ("count-exceeds-target", -7)),
            ({-7: 1}, 3, (), set(), {}, (5, 0), {5: 3, -7: 1}, None),
            # an infinite default
            ({}, INFINITY, (), set(), {8: 40}, (8, 1), {8: 9, 30: 7}, None),
            ({1: 2}, INFINITY, (), {1}, {1: 1}, (8, 0), {8: 1, 1: 2}, ("count-exceeds-target", 1)),
            # a zero is never scheduled: its zero value catches it
            ({}, 2, (0, 3), set(), {}, (5, 0), {5: 1, 3: 1}, ("count-exceeds-target", 3)),
            # (5, 1) comes after every number of -4 .. 5, the entry's own aside
            ({}, 2, (), {3}, {}, (5, 1), {5: 2, 3: 1}, ("frozen-count-changed", 3)),
            ({}, 2, (), set(), {5: 1}, (5, 1), {5: 1}, None),
            # deltas overlapping the verified counts
            ({}, 2, (), set(), {7: 2}, (5, 0), {5: 1, 7: 1}, ("count-exceeds-target", 7)),
            ({}, 2, (), set(), {5: 1}, (5, 1), {9: 1}, ("target-copy-missed", 5)),
            # the ends of the scheduled range
            ({}, 2, (), {-4}, {}, (5, 1), {5: 2, -5: 1, -4: 1}, ("frozen-count-changed", -4)),
            ({}, 2, (), set(), {}, (5, 1), {5: 2, -5: 1, 6: 1}, None),
            # (-4, 0) comes after 4 but before 5
            ({}, 2, (), {4}, {}, (-4, 0), {-4: 1, 5: 1, 4: 1}, ("frozen-count-changed", 4)),
            ({}, 2, (), set(), {}, (-4, 0), {-4: 1, 5: 1}, None),
            # (1, 3) sits at level 3, after 2
            ({1: 4}, 2, (), {2}, {1: 3}, (1, 3), {1: 1, 2: 1}, ("frozen-count-changed", 2)),
        ],
    )
    def test_named_cases(self, values, default, zeros, frozen, counts, entry, delta, expected):
        # frozen: the delta's numbers, the entry's own aside, scheduled before it
        target = TargetFunction.make((-10, 10), values, default, zeros)
        walked = scheduled_numbers(enumerate_multiset(target), entry)
        assert (delta.keys() & walked) - {entry[0]} == frozen
        assert target_check(target, counts, entry, delta, "1,1") == (expected, expected)

    @pytest.mark.parametrize(
        "default, counts, entry, delta, expected",
        [
            # a second class at +-4, where the target allows one
            (1, {0: 1, 4: 1, -4: 1}, (7, 0), {4: 1, -4: 1, 7: 1, -7: 1},
             ("count-exceeds-target", 4)),
            # (-4, 0) comes after 4, which moves with -4 under 1,-1
            (2, {}, (-4, 0), {-4: 1, 5: 1, 4: 1}, None),
            (2, {}, (-4, 0), {-4: 1, 4: 1, 3: 1, -3: 1}, ("frozen-count-changed", 3)),
            # a step at +-5 that leaves the second copy of 5 uncovered
            (2, {0: 1}, (5, 1), {5: 1, -5: 1}, ("target-copy-missed", 5)),
        ],
    )
    def test_difference_form_cases(self, default, counts, entry, delta, expected):
        target = TargetFunction.make((-10, 10), default=default)
        assert target_check(target, counts, entry, delta, "1,-1") == (expected, expected)


# general forms, some with repeated coefficients, and one with equal ones
STAGE_FORMS = ["1,2,-3", "1,-1", "3,-2", "1,1,-2", "2,-1,3", "2,2,-1,-1", "1,1"]


@st.composite
def staged_steps(draw):
    """A form, a set, a disjoint block, a target and one of its entries;
    blocks reach past the set's sums, so that some delta values have no
    old count."""
    form = LinearForm.parse(draw(st.sampled_from(STAGE_FORMS)))
    values = draw(st.lists(st.integers(-30, 30), unique=True, min_size=2, max_size=9))
    cut = draw(st.integers(1, min(len(values) - 1, 6)))
    base, block = GroundSet.of(values[:cut]), tuple(values[cut:cut + 3])
    allowed = st.one_of(st.integers(0, 3), st.just(INFINITY))
    window = draw(st.dictionaries(st.integers(-12, 12), allowed, max_size=6))
    zeros = tuple(n for n, v in window.items() if v == 0)
    target = TargetFunction.make((-12, 12), window, draw(st.sampled_from([1, 2, INFINITY])), zeros)
    entry = draw(st.sampled_from(enumerate_multiset(target).entries(40)))
    return form, base, block, target, entry


class TestShardedStage:
    """A step staged in p > 1 residue shards decides as the value-by-value
    oracle does on the whole delta, and leaves the count of the union."""

    @given(staged_steps(), st.sampled_from([2, 3, 7]))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_the_whole_delta(self, step, shards):
        form, base, block, target, entry = step
        coeffs = form.coefficients
        old = brute_counts(coeffs, base.elements)
        delta = repcount.class_count_delta(form, base, block)
        tuples = (len(base) + len(block)) ** form.arity - len(base) ** form.arity
        with patch.object(repcount, "_SHARD_TUPLES", -(-tuples // shards)):
            p = repcount.shard_modulus(form, len(base) + len(block), len(base))
            assert p > 1 or len(set(coeffs)) == 1
            # the shards partition the delta by residue, from the prefix
            # tables as from the set
            for shards in (
                repcount.class_count_shards(form, base, block)[1],
                repcount.PrefixCount(form, base.elements).shards(block),
            ):
                whole = {}
                for r, shard in enumerate(shards):
                    assert all(n % p == r for n in shard)
                    whole.update(shard)
                assert whole == delta and r == p - 1
            state = ConstructionState(form, base, ())
            tally = Tally(repcount.PrefixCount(form, base.elements), len(old))
            violation = _check_block(state, tally, target, None, entry, block, 10**6)
        frozen = scheduled_numbers(enumerate_multiset(target), entry)
        expected = target_violation(target, frozen, old, entry, delta, coeffs)
        assert (None if violation is None else (violation.kind, violation.value)) == expected
        counts = old
        if violation is None:
            tally.merge(block)
            counts = brute_counts(coeffs, base.union(block).elements)
        assert tally.size == len(counts)
        assert tally._known == {n: counts.get(n, 0) for n in tally._known}


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
            (-20, 20), values={n: 2 for n in range(-20, 21) if n != 7}, default=1, zeros=(7,)
        )
        state = build_for_target(form, target, 10)
        for k, record in enumerate(state.records, start=1):
            prefix = GroundSet.of(v for blk in state.blocks[: k + 1] for v in blk)
            assert record.support_size == len(class_counts(form, prefix))

    def test_running_count_matches_a_recount(self, monkeypatch):
        # a second copy lands on a value already counted, so the step's
        # overlap is non-empty and its count must add up the layers
        accepted = []

        def spy(target, half_line, state, tally, entry, block):
            violation = _accept_target(target, half_line, state, tally, entry, block)
            if violation is None:
                # staged values whose old count, cached by the stage, is not 0
                overlap = [n for n in tally._new if tally._known[n]]
                accepted.append((tally, overlap))
            return violation

        monkeypatch.setattr(builder_target, "_accept_target", spy)
        form = LinearForm.parse("1,1")
        target = TargetFunction.make((-20, 20), values={n: 2 for n in range(-20, 21)})
        state = build_for_target(form, target, 12)
        assert any(overlap for _, overlap in accepted)
        running = accepted[-1][0]  # the step loop's one tally, one layer per step
        expected = class_counts(form, state.elements)
        assert {n: running.count(n) for n in expected} == expected
        assert running.size == len(expected)

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


BATCH_TARGET = TargetFunction.make((-4, 4), values={0: 1, 3: 3, -3: 3}, default=2)


@pytest.mark.parametrize(
    "run",
    [
        lambda: build(LinearForm.parse("1,2,-3"), 6),
        lambda: build_for_target(
            LinearForm.parse("1,1"),
            TargetFunction.make((-10, 10), values={n: 2 for n in range(-10, 11)}),
            10,
        ),
        lambda: build_infinite_case(
            TargetFunction.make((-4, 4), values={0: 1}, default=INFINITY),
            PlentifulSequence(tuple(2**i for i in range(1, 60))),
            10,
        ),
        lambda: build_unbounded_case(BATCH_TARGET, window_plentiful_supply(BATCH_TARGET), 6),
    ],
    ids=["build", "build_for_target", "build_infinite_case", "build_unbounded_case"],
)
def test_every_builder_accepts_each_step_through_the_one_check(monkeypatch, run):
    # the step loop calls builder_target._accept_target by name, so a spy
    # bound there sees every block of every builder
    check = builder_target._accept_target
    calls = []

    def spy(target, half_line, state, tally, entry, block):
        violation = check(target, half_line, state, tally, entry, block)
        calls.append((state.step, block, tally, violation))
        return violation

    monkeypatch.setattr(builder_target, "_accept_target", spy)
    state = run()
    assert state.step > 0
    accepted = [(step, block) for step, block, _, violation in calls if violation is None]
    assert accepted == [(r.step - 1, r.block) for r in state.records]
    tally = calls[0][2]
    assert all(t is tally for _, _, t, _ in calls)
    expected = class_counts(state.form, state.elements)
    assert {n: tally.count(n) for n in expected} == expected
    assert tally.size == len(expected)


FORM_12, FORM_11 = LinearForm.parse("1,2"), LinearForm.parse("1,1")
ONES = TargetFunction.make((0, 0))
INFINITE = TargetFunction.make((-4, 4), values={0: 1}, default=INFINITY)
SEQ = PlentifulSequence((2, 4))


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda: build(FORM_12, -1), "steps must be non-negative"),
        (lambda: build(FORM_12, 1, d0=0), "d0 must be non-zero"),
        (lambda: build(FORM_12, 1, m0=0), "growth constant must be positive"),
        (lambda: build_for_target(FORM_11, ONES, -1), "steps must be non-negative"),
        (lambda: build_for_target(FORM_11, ONES, 1, d0=0), "d0 must be non-zero"),
        (lambda: build_for_target(FORM_11, ONES, 1, m0=0), "growth constant must be positive"),
        (lambda: build_infinite_case(INFINITE, SEQ, -1), "steps must be non-negative"),
        (lambda: build_infinite_case(INFINITE, SEQ, 1, d0=0), "d0 must be non-zero"),
        (
            lambda: build_unbounded_case(BATCH_TARGET, window_plentiful_supply(BATCH_TARGET), -1),
            "steps must be non-negative",
        ),
        (
            lambda: build_unbounded_case(
                BATCH_TARGET, window_plentiful_supply(BATCH_TARGET), 1, d0=0
            ),
            "d0 must be non-zero",
        ),
        (
            lambda: build_unbounded_case(
                BATCH_TARGET, window_plentiful_supply(BATCH_TARGET), 1, quotient_bound=0
            ),
            "quotient bound must be positive",
        ),
        (lambda: TargetFunction.make((1, 0)), "window lower bound exceeds upper bound"),
        (lambda: TargetFunction.make((0, 1), values={1: -1}), "value at 1 must be a non-negative"),
    ],
    ids=[
        "build-steps", "build-d0", "build-m0",
        "build_for_target-steps", "build_for_target-d0", "build_for_target-m0",
        "build_infinite_case-steps", "build_infinite_case-d0",
        "build_unbounded_case-steps", "build_unbounded_case-d0", "build_unbounded_case-quotient",
        "target-reversed-window", "target-negative-count",
    ],
)
def test_argument_guards_raise_before_any_step(run, message):
    with pytest.raises(ValueError, match=message):
        run()
