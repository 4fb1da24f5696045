import json
from itertools import permutations, product as iproduct
from math import perm
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrep import (
    DIFFERENCE_FORM, INFINITY, GroundSet, LinearForm, class_counts, rep_function
)
from linrep import repcount
from linrep.builder_target import Tally
from linrep.errors import BudgetExceededError
from linrep.repcount import (
    PrefixCount,
    RepProfile,
    _class_types,
    _set_partitions,
    _terms,
    class_count_shards,
    count_at,
    shard_modulus,
    int_from_json,
)

from oracles import (
    DictCount,
    brute_counts,
    brute_delta,
    class_key,
    first_overshoot,
    merged,
    multiset_delta,
    ordered_solutions,
    stage_made_up,
)

nonzero = st.integers(min_value=-5, max_value=5).filter(bool)
forms3 = st.lists(nonzero, min_size=1, max_size=3).map(lambda c: LinearForm(tuple(c)))
small_sets = st.sets(st.integers(-30, 30), min_size=0, max_size=6).map(GroundSet.of)
# keys that are prefixes of one another, zero, and values beyond 64 bits
profile_keys = st.one_of(
    st.sampled_from([0, 1, 12, 123, 1234, -1, -12, -123, 10, 100, -10, 2**64 + 1, -(2**64) - 1]),
    st.integers(-(2**70), 2**70),
    st.integers(-200, 200),
)


class TestGroundSet:
    def test_sorted_distinct(self):
        g = GroundSet.of([3, -1, 3, 0])
        assert g.elements == (-1, 0, 3)
        assert len(g) == 3 and -1 in g and 2 not in g

    def test_json_roundtrip(self):
        g = GroundSet.of([10**40, -3, 7])
        again = GroundSet.from_json(g.to_json())
        assert again == g
        assert json.loads(g.to_json()) == ["-3", "7", str(10**40)]

    def test_max_abs(self):
        assert GroundSet.of([]).max_abs() == 0
        assert GroundSet.of([7]).max_abs() == 7
        assert GroundSet.of([-7]).max_abs() == 7
        assert GroundSet.of([0]).max_abs() == 0
        # either extreme may be the larger in magnitude
        assert GroundSet.of([-9, 4]).max_abs() == 9
        assert GroundSet.of([-4, 9]).max_abs() == 9
        assert GroundSet.of([-12, -3]).max_abs() == 12
        assert GroundSet.of([2, 5]).max_abs() == 5

    def test_union_inserts_below_between_and_above(self):
        g = GroundSet.of([-5, 0, 10])
        u = g.union((20, -8, 3))
        assert u.elements == (-8, -5, 0, 3, 10, 20)
        assert u == GroundSet.of([-5, 0, 10, 20, -8, 3]) and 3 in u and 20 in u
        assert g.elements == (-5, 0, 10)

    def test_of_sorts_and_drops_repeats(self):
        g = GroundSet.of([4, -2, 4, 0, -2])
        assert g.elements == (-2, 0, 4)
        assert g.union((0, 9, 9)) == GroundSet.of([4, -2, 4, 0, -2, 0, 9, 9])

    def test_union_of_empty_and_with_nothing(self):
        assert GroundSet.of([]).union((4, -1)).elements == (-1, 4)
        assert GroundSet.of([2]).union(()).elements == (2,)

    @given(st.sets(st.integers(-50, 50), max_size=8), st.lists(st.integers(-60, 60), max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_union_and_max_abs_match_a_rebuild(self, base, block):
        g = GroundSet.of(base)
        u = g.union(block)
        assert u == GroundSet.of(list(base) + block)
        assert u.max_abs() == max((abs(v) for v in u), default=0)

    @pytest.mark.parametrize("values", [[1.9, 2], [True, 2], [1, 1.0], ["3"]])
    def test_non_int_entry_rejected_not_truncated(self, values):
        with pytest.raises(ValueError, match="not an integer"):
            GroundSet.of(values)
        with pytest.raises(ValueError, match="not an integer"):
            GroundSet.of([0]).union(values)

    def test_membership_cache_leaves_identity_alone(self):
        g = GroundSet((5, -2, 5))
        assert g == GroundSet.of([-2, 5]) and hash(g) == hash(GroundSet.of([-2, 5]))
        assert repr(g) == "GroundSet(elements=(-2, 5))"
        assert 5 in g and -2 in g and 0 not in g


class TestCanonicalize:
    """The oracle's class key, which every count is checked against."""

    def test_symmetric_pair(self):
        assert class_key((1, 1), (1, 3)) == class_key((1, 1), (3, 1)) == ((1, 1), (3, 1))

    def test_zero_weights_drop(self):
        assert class_key((1, -1), (5, 5)) == ()

    def test_distinct_classes_same_value(self):
        a, b = class_key((2, 1), (1, 2)), class_key((2, 1), (0, 4))
        assert a == ((1, 2), (2, 1)) and b == ((0, 2), (4, 1))
        assert sum(x * w for x, w in a) == sum(x * w for x, w in b) == 4

    @given(forms3, st.lists(st.integers(-20, 20), min_size=3, max_size=3), st.randoms())
    def test_equal_coefficient_position_swap(self, form, values, rng):
        # permuting positions that carry equal coefficients never changes the class
        tup = tuple(values[: form.arity])
        coeffs = form.coefficients
        order = list(range(form.arity))
        rng.shuffle(order)
        if tuple(coeffs[i] for i in order) != coeffs:
            return
        permuted = tuple(tup[i] for i in order)
        assert class_key(coeffs, permuted) == class_key(coeffs, tup)


class TestRepFunction:
    def test_two_ones_small_set(self):
        prof = rep_function(LinearForm.parse("1,1"), GroundSet.of([0, 1, 2]), (0, 4))
        assert prof.counts == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}

    def test_difference_form_merges(self):
        prof = rep_function(LinearForm.parse("1,-1"), GroundSet.of([0, 5]), (-5, 5))
        assert prof.counts == {-5: 1, 0: 1, 5: 1}

    def test_empty_set(self):
        prof = rep_function(LinearForm.parse("1,1"), GroundSet.of([]), (-3, 3))
        assert prof.counts == {}
        assert prof.support_min is None and prof.support_max is None

    def test_export_shape(self):
        prof = rep_function(LinearForm.parse("1,1"), GroundSet.of([0, 1]), (0, 1))
        assert prof.to_json() == '{"counts":{"0":1,"1":1},"support_max":"2","support_min":"0"}'

    @given(
        st.dictionaries(profile_keys, st.integers(1, 2**70), max_size=40),
        st.one_of(st.none(), st.tuples(profile_keys, profile_keys).map(sorted)),
    )
    @settings(max_examples=300)
    def test_export_matches_json_dumps(self, counts, window):
        # no window means the full support
        prof = RepProfile(counts, window and tuple(window))
        lo, hi = window or (min(counts, default=0), max(counts, default=0))
        expected = json.dumps(
            {
                "counts": {str(n): c for n, c in counts.items() if lo <= n <= hi},
                "support_min": str(min(counts)) if counts else None,
                "support_max": str(max(counts)) if counts else None,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        assert prof.to_json() == expected

    def test_budget(self):
        with pytest.raises(BudgetExceededError) as err:
            rep_function(
                LinearForm.parse("1,1,1"), GroundSet.of(range(100)), (0, 1), budget=10**5
            )
        assert err.value.required == 100**3

    def test_bad_window(self):
        with pytest.raises(ValueError):
            rep_function(LinearForm.parse("1,1"), GroundSet.of([1]), (3, -3))


PLAN_FORMS = ["1,1", "1,1,1", "1,-1", "1,1,-2", "2,2,-1,-1", "1,-1,1,-1", "1,2,-3"]


def probes(counts):
    """The support values, their successors and -30..30."""
    return {*counts, *(n + 1 for n in counts), *range(-30, 31)}


class TestCountAt:
    def test_examples(self):
        assert count_at(LinearForm.parse("1,1"), GroundSet.of([0, 1, 2]), 2) == 2
        assert count_at(LinearForm.parse("1,1"), GroundSet.of([0]), 0) == 1
        assert count_at(LinearForm.parse("3,-2"), GroundSet.of([2, 3]), 0) == 1

    @given(st.sampled_from(PLAN_FORMS), st.lists(st.integers(-15, 15), max_size=6, unique=True))
    @settings(max_examples=120, deadline=None)
    def test_matches_the_brute_count(self, form, elements):
        # the prefix-table query, with no full count, at every probe
        form = LinearForm.parse(form)
        brute = brute_counts(form.coefficients, elements)
        ground = GroundSet.of(elements)
        assert {n: count_at(form, ground, n) for n in probes(brute)} == {
            n: brute.get(n, 0) for n in probes(brute)
        }

    def test_budget(self):
        with pytest.raises(BudgetExceededError) as err:
            count_at(LinearForm.parse("1,2,-3"), GroundSet.of(range(50)), 0, budget=10**5)
        assert err.value.required == 50**3

    @given(
        st.sampled_from(PLAN_FORMS),
        st.lists(
            st.tuples(
                st.lists(st.integers(-25, 25), min_size=1, max_size=3),
                st.sampled_from(["none", "own", "other"]),
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_extended_tables_match_the_brute_count(self, form, blocks):
        # blocks joining one at a time, the way the running count grows;
        # before a block joins, the shards of that block (whose head sums
        # extend then reuses) or of another, rejected block may be counted
        form, seen, prefix = LinearForm.parse(form), set(), PrefixCount(LinearForm.parse(form))
        for block, staged in blocks:
            block = [v for v in dict.fromkeys(block) if v not in seen]
            if staged != "none":
                candidate = block if staged == "own" else [v + 100 for v in block]
                list(prefix.shards(candidate))
            prefix.extend(block)
            seen.update(block)
            brute = brute_counts(form.coefficients, prefix.elements)
            assert {n: prefix.count(n) for n in probes(brute)} == {
                n: brute.get(n, 0) for n in probes(brute)
            }
            assert all(prefix.lo <= n <= prefix.hi for n in brute)


class TestShards:
    @given(
        st.sampled_from([*PLAN_FORMS, "1,2", "3,-2", "2,-1,3"]),
        st.lists(st.integers(-20, 20), max_size=7, unique=True),
        st.integers(1, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_shards_partition_the_brute_count(self, form, elements, constant):
        form = LinearForm.parse(form)
        with patch.object(repcount, "_SHARD_TUPLES", constant):
            p, shards = class_count_shards(form, GroundSet.of(elements))
            assert p == shard_modulus(form, len(elements))
        whole = {}
        for r, shard in enumerate(shards):
            assert all(n % p == r for n in shard)
            whole.update(shard)
        assert r == p - 1
        assert whole == brute_counts(form.coefficients, elements)

    def test_modulus(self):
        form = LinearForm.parse("1,2,-3")
        assert shard_modulus(form, 20) == 1  # 8,000 tuples, at most 2^13
        assert shard_modulus(form, 21) == 2
        assert shard_modulus(form, 61) == 29  # 226,981 tuples
        assert shard_modulus(form, 151) == 421
        # a step's delta: the 31,869 tuples that 3 new elements add to 58
        assert shard_modulus(form, 61, 58) == 5
        # equal coefficients stay one shard
        assert shard_modulus(LinearForm.parse("1,1,1"), 151) == 1

    def test_budget_checked_before_any_shard(self):
        with pytest.raises(BudgetExceededError) as err:
            class_count_shards(LinearForm.parse("1,2,-3"), GroundSet.of(range(50)), 10**5)
        assert err.value.required == 50**3

    def test_budget_checked_before_the_modulus(self, monkeypatch):
        # the prime search of shard_modulus runs trial division up to the
        # square root of tuples / _SHARD_TUPLES, about 10^10 steps for a
        # 10^6-element arity-4 set: a count over budget must not start it
        def no_search(*args):
            raise AssertionError("shard_modulus ran before the budget check")

        monkeypatch.setattr(repcount, "shard_modulus", no_search)
        form = LinearForm.parse("1,2,-3")
        with pytest.raises(BudgetExceededError):
            class_count_shards(form, GroundSet.of(range(50)), 10**5)
        with pytest.raises(BudgetExceededError):
            PrefixCount(form, range(40)).shards(range(100, 110), budget=10**5)


class TestOracleAgreement:
    @given(forms3, small_sets)
    @settings(max_examples=80, deadline=None)
    def test_counts_match_independent_enumeration(self, form, ground):
        assert class_counts(form, ground) == brute_counts(
            form.coefficients, ground.elements
        )

    @given(forms3, small_sets)
    @settings(max_examples=40, deadline=None)
    def test_unordered_at_most_ordered(self, form, ground):
        counts = class_counts(form, ground)
        for n, c in counts.items():
            assert c <= len(ordered_solutions(form.coefficients, ground.elements, n))

    @given(forms3, small_sets)
    @settings(max_examples=40, deadline=None)
    def test_total_classes(self, form, ground):
        # summing over the full support counts every class exactly once
        counts = class_counts(form, ground)
        all_classes = {
            class_key(form.coefficients, tup)
            for tup in iproduct(ground.elements, repeat=form.arity)
        }
        assert sum(counts.values()) == len(all_classes)


class TestAllOnesTranslation:
    @given(
        st.integers(1, 3),
        st.sets(st.integers(-15, 15), min_size=1, max_size=5),
        st.integers(-10, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_shift_moves_support(self, arity, values, t):
        form = LinearForm(tuple([1] * arity))
        base = class_counts(form, GroundSet.of(values))
        shifted = class_counts(form, GroundSet.of(v + t for v in values))
        assert shifted == {n + arity * t: c for n, c in base.items()}


class TestFastPaths:
    @given(
        st.integers(-3, 3).filter(bool),
        st.integers(1, 3),
        st.sets(st.integers(-12, 12), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_uniform_matches_general(self, coeff, arity, values):
        form = LinearForm(tuple([coeff] * arity))
        ground = GroundSet.of(values)
        assert class_counts(form, ground) == brute_counts(form.coefficients, ground.elements)


cancelling = st.sampled_from([(1, -1), (1, 1, -2), (2, -1, -1), (1, -1, 1, -1)])
# equal coefficients take the multiset path of the delta kernel
uniform = st.tuples(nonzero, st.integers(1, 4)).map(lambda ca: (ca[0],) * ca[1])
mixed4 = st.lists(nonzero, min_size=1, max_size=4).map(tuple)
delta_forms = st.one_of(cancelling, uniform, mixed4).map(LinearForm)


def split_sets(max_size):
    """Disjoint (base, block) pairs drawn from one set of distinct values."""
    return st.lists(st.integers(-25, 25), unique=True, max_size=max_size).flatmap(
        lambda vals: st.integers(0, len(vals)).map(
            lambda cut: (GroundSet.of(vals[:cut]), tuple(vals[cut:]))
        )
    )


def delta_of(form, base, block):
    """The classes ``block`` adds to ``base``: ``PrefixCount.shards``, the
    step check's one route, merged."""
    delta = {}
    for shard in PrefixCount(form, base.elements).shards(block):
        delta.update(shard)
    return delta


def merged_counts(form, base, block):
    old = brute_counts(form.coefficients, base.elements)
    return merged(old, delta_of(form, base, block))


def held(tally, keys):
    """The count ``tally`` gives each of ``keys``."""
    return {n: tally.count(n) for n in keys}


class TestDeltaCounting:
    @given(delta_forms, split_sets(8))
    @settings(max_examples=160, deadline=None)
    def test_old_plus_delta_matches_oracle(self, form, split):
        base, block = split
        assert merged_counts(form, base, block) == brute_counts(
            form.coefficients, base.union(block).elements
        )

    @given(
        delta_forms,
        st.lists(st.integers(-40, 40), unique=True, min_size=1, max_size=10),
        st.lists(st.integers(1, 3), min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_growth(self, form, values, sizes):
        # the step loop's tally over the set's prefix tables, one block at a
        # time; each step's queries are cached and later merges update them
        ground = GroundSet.of(values[:1])
        tally = Tally(PrefixCount(form, ground.elements), len(class_counts(form, ground)))
        rest = values[1:]
        for size in sizes:
            block, rest = tuple(rest[:size]), rest[size:]
            tally.stage(tally.source.shards(block))
            tally.merge(block)
            ground = ground.union(block)
            expected = brute_counts(form.coefficients, ground.elements)
            assert held(tally, [*expected, 10**6]) == {**expected, 10**6: 0}
            assert tally.size == len(expected)

    def test_budget_counts_the_union(self):
        prefix = PrefixCount(LinearForm.parse("1,1,1"), range(40))
        with pytest.raises(BudgetExceededError) as err:
            prefix.shards((100, 101), budget=42**3 - 1)
        assert err.value.required == 42**3


# forms whose equal coefficients give sym > 1 orderings per distinct-value class;
# 1,-1,1,-1 also merges positions into zero-sum parts
SYM_FORMS = [(1, 1, -2), (1, 1, 1, -3), (2, 2, -1, -1), (1, -1, 1, -1)]


def repeated_value_tuples(arity, old, new):
    """Every tuple with a repeated value and a block entry, built from its
    kernel: a partition from ``_set_partitions`` into fewer than ``arity``
    parts, with one distinct value per part.  Each tuple comes out once
    exactly when every partition is listed once."""
    out = []
    for parts in _set_partitions(arity):
        if len(parts) == arity:
            continue
        for values in permutations(old + new, len(parts)):
            if not set(values) & set(new):
                continue
            tup = [None] * arity
            for part, x in zip(parts, values):
                for p in part:
                    tup[p] = x
            out.append(tuple(tup))
    return out


# forms of the general kernel: coefficients in +-1..+-3, not all equal, so
# that repeated coefficients and zero-sum subsets come often
general_forms = st.one_of(
    st.sampled_from([(1, 1, -2), (2, 2, -1, -1), (1, 1, 1, -3), (1, -1, 1, -1), (3, -3, 1)]),
    st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=2, max_size=4)
    .map(tuple)
    .filter(lambda c: len(set(c)) > 1),
)


class TestDifferenceFormShape:
    """Under x1 - x2 the class (x, y) at n pairs with (y, x) at -n, and every
    (x, x) is the one empty class at 0.  So the counts of a non-empty set
    have count 1 at 0 and are even, and so are the classes a block adds:
    the difference-form builders rely on this without checking it."""

    @given(split_sets(12).filter(lambda split: len(split[0]) > 0))
    @settings(max_examples=300, deadline=None)
    def test_one_class_at_0_and_even_counts(self, split):
        base, block = split
        counts = class_counts(DIFFERENCE_FORM, base)
        delta = delta_of(DIFFERENCE_FORM, base, block)
        assert counts[0] == 1 and 0 not in delta
        assert counts == {-n: c for n, c in counts.items()}
        assert delta == {-n: d for n, d in delta.items()}


class TestGeneralKernel:
    @pytest.mark.parametrize("coeffs", SYM_FORMS)
    @given(split=split_sets(7))
    @settings(max_examples=40, deadline=None)
    def test_equal_coefficient_forms(self, coeffs, split):
        base, block = split
        form = LinearForm(coeffs)
        assert class_counts(form, base.union(block)) == brute_counts(
            coeffs, base.union(block).elements
        )
        assert merged_counts(form, base, block) == brute_counts(
            coeffs, base.union(block).elements
        )

    @pytest.mark.parametrize("coeffs", [(1, 2, -3), (3, -1)] + SYM_FORMS)
    @given(
        start=st.integers(-10, 10),
        step=st.integers(1, 4),
        size=st.integers(1, 7),
        cut=st.integers(0, 7),
    )
    @settings(max_examples=30, deadline=None)
    def test_arithmetic_progressions(self, coeffs, start, step, size, cut):
        # many prefixes share a sum, so most prefix sums carry multiplicity > 1
        values = [start + step * k for k in range(size)]
        base, block = GroundSet.of(values[:cut]), tuple(values[cut:])
        form = LinearForm(coeffs)
        assert class_counts(form, GroundSet.of(values)) == brute_counts(coeffs, values)
        assert merged_counts(form, base, block) == brute_counts(coeffs, values)

    @pytest.mark.parametrize("coeffs", [(1, 2, -3), (1, -1)] + SYM_FORMS)
    @given(st.lists(st.integers(-20, 20), unique=True, max_size=6), st.integers(-20, 20))
    @settings(max_examples=30, deadline=None)
    def test_one_element_block(self, coeffs, values, extra):
        form = LinearForm(coeffs)
        assert delta_of(form, GroundSet(()), (extra,)) == brute_counts(coeffs, (extra,))
        if extra not in values:
            assert merged_counts(form, GroundSet.of(values), (extra,)) == brute_counts(
                coeffs, GroundSet.of(values + [extra]).elements
            )

    @pytest.mark.parametrize("arity", [2, 3, 4])
    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_repeated_value_tuples_visited_once_each(self, arity, size):
        values = tuple(range(size))
        seen = repeated_value_tuples(arity, (), values)
        assert len(seen) == len(set(seen)) == size**arity - perm(size, arity)
        assert all(len(set(t)) < arity for t in seen)

    @pytest.mark.parametrize("arity", [2, 3, 4])
    def test_repeated_value_tuples_touch_the_block(self, arity):
        old, new = (-3, 0, 4), (7, 9)
        seen = repeated_value_tuples(arity, old, new)
        assert len(seen) == len(set(seen))
        assert set(seen) == {
            t
            for t in iproduct(old + new, repeat=arity)
            if len(set(t)) < arity and any(x in new for x in t)
        }

    def test_set_partitions_start_with_singletons(self):
        for size in range(5):
            assert next(_set_partitions(size)) == tuple((p,) for p in range(size))

    @pytest.mark.parametrize(
        "coeffs, types",
        [
            ((1, 1, -2), [(1, 1, -2), (-1, 1), (2, -2)]),
            ((1, -1, 1, -1), [(1, -1, 1, -1), (2, -1, -1), (1, -2, 1), (1, -1), (2, -2)]),
            ((1, 2, -3), [(1, 2, -3), (-2, 2), (1, -1), (3, -3)]),
        ],
    )
    def test_class_types(self, coeffs, types):
        # the coefficients first, then each weight multiset once, no zero weight
        found = list(_class_types(coeffs))
        assert found[0] == coeffs
        assert sorted(map(sorted, found)) == sorted(map(sorted, types))

    @given(general_forms, split_sets(7))
    @settings(max_examples=300, deadline=None)
    def test_delta_matches_brute_force(self, coeffs, split):
        base, block = split
        assert delta_of(LinearForm(coeffs), base, block) == brute_delta(coeffs, base, block)

    def test_plan_of_small_forms(self):
        # all tuples, minus the constant tuples at 0
        assert _terms((1, 2, -3)) == (1, ((1, 2, -3), 1), ((0,), -1))
        assert _terms((1, -1)) == (1, ((1, -1), 1), ((0,), -1))
        # (den, number of terms), the coefficients first at den / sym0
        forms = [(1, 2, 3, -5), (2, 2, -1, -1), (1, 1, 1, -3)]
        assert [(_terms(c)[0], len(_terms(c)) - 1) for c in forms] == [(2, 5), (4, 6), (6, 4)]
        assert [_terms(c)[1] for c in forms] == [(forms[0], 2), (forms[1], 1), (forms[2], 1)]


class TestMultisetPath:
    """The equal-coefficient delta against the plain multiset loop."""

    @given(
        st.sampled_from([1, -1, 2, 3, -5, 7]),
        st.integers(1, 4),
        split_sets(9),
    )
    @settings(max_examples=250, deadline=None)
    def test_matches_the_plain_loop(self, coeff, arity, split):
        base, block = split
        form = LinearForm((coeff,) * arity)
        assert delta_of(form, base, block) == multiset_delta(
            coeff, arity, base.elements, block
        )

    @pytest.mark.parametrize(
        "coeff, arity, base, block",
        [
            (3, 4, [], (5, -2, 9)),  # empty base
            (-5, 3, [-4, 0, 6], (2,)),  # one-element block
            (2, 2, [1, 8], (7, -3, 4)),  # unsorted block
            (1, 1, [0, 1], (-6, 3)),
            (7, 4, [-2, 5], (11, -9)),
        ],
    )
    def test_named_cases(self, coeff, arity, base, block):
        delta = delta_of(LinearForm((coeff,) * arity), GroundSet.of(base), block)
        assert delta == multiset_delta(coeff, arity, tuple(sorted(base)), block)


count_maps = st.dictionaries(st.integers(-8, 8), st.integers(1, 3), max_size=10)
# keys packed into a short range, so that most of a delta's keys are counted
# already, with some outside the range the count has reached
dense_maps = st.dictionaries(st.integers(-5, 5), st.integers(1, 3), max_size=11)
deltas = st.one_of(dense_maps, dense_maps, count_maps)
bounds = st.dictionaries(st.integers(-8, 8), st.integers(0, 6), max_size=6)


class TestMergeCounts:
    """The tally over made-up counts against one flat count (``oracles.merged``)."""

    @given(count_maps, count_maps)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_plain_loop(self, counts, delta):
        expected = merged(counts, delta)
        tally = stage_made_up(Tally(DictCount(counts), len(counts)), delta)
        tally.merge(delta)
        assert held(tally, [*expected, 99]) == {**expected, 99: 0}
        assert tally.size == len(expected)

    @given(
        dense_maps,
        st.lists(st.tuples(deltas, st.booleans()), max_size=8),
        st.sampled_from([1, 2, 3, INFINITY]),
        bounds,
    )
    @settings(max_examples=400, deadline=None)
    def test_staged_accepted_and_rejected_deltas(self, counts, steps, default, values):
        # each step stages a delta; an accepted one joins the flat model, a
        # rejected one is replaced by the next stage
        model = counts
        tally = Tally(DictCount(counts), len(counts))
        for delta, accepted in steps:
            stage_made_up(tally, delta, default, values)
            staged = merged(model, delta)
            assert held(tally, [*staged, 99]) == {**staged, 99: 0}
            assert tally.overshoot() == first_overshoot(model, delta, default, values)
            if accepted:
                tally.merge(delta)
                model = staged
            assert tally.size == len(model)
        tally.stage(())
        assert held(tally, [*model, 99]) == {**model, 99: 0}


class TestDeltaShape:
    @given(delta_forms, split_sets(8))
    @settings(max_examples=160, deadline=None)
    def test_no_zero_values(self, form, split):
        base, block = split
        assert all(all(shard.values()) for shard in PrefixCount(form, base.elements).shards(block))


# general-path forms with equal coefficients or zero-sum parts, so that many
# prefixes of a convolution share a sum and carry multiplicity > 1
REPEATING_FORMS = [(1, 1, -2), (2, 2, -1, -1), (1, 1, 1, -3), (1, -1)]
# distinct values packed into a short range, so that sums collide often
dense_splits = st.lists(st.integers(-6, 6), unique=True, min_size=1, max_size=9).flatmap(
    lambda vals: st.integers(0, len(vals) - 1).map(
        lambda cut: (GroundSet.of(vals[:cut]), tuple(vals[cut:]))
    )
)


class TestStreamedConvolution:
    """Each convolution streams every prefix sum once and adds the other
    c - 1 copies of a sum with multiplicity c afterwards; the counts must
    be those of the plain tuple walk."""

    @pytest.mark.parametrize("coeffs", REPEATING_FORMS)
    @given(split=dense_splits)
    @settings(max_examples=60, deadline=None)
    def test_dense_delta_counts(self, coeffs, split):
        base, block = split
        assert delta_of(LinearForm(coeffs), base, block) == brute_delta(coeffs, base, block)

    @pytest.mark.parametrize("coeffs", REPEATING_FORMS + [(1, 2, -3)])
    @given(values=st.lists(st.integers(-8, 8), unique=True, max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_counts_from_an_empty_base(self, coeffs, values):
        counts = class_counts(LinearForm(coeffs), GroundSet.of(values))
        assert counts == brute_counts(coeffs, tuple(sorted(values)))

    @pytest.mark.parametrize("coeffs", REPEATING_FORMS + [(1, 2, -3), (3, 3)])
    def test_delta_is_a_plain_dict(self, coeffs):
        # the step loop's tally reads each shard of a delta, and
        # class_counts' result goes to callers as is: a plain dict's update
        # replaces values and [n] raises on an absent key, where a Counter
        # adds and answers 0
        form = LinearForm(coeffs)
        shards = PrefixCount(form, (0, 2, 5)).shards((-4, 9))
        assert all(type(shard) is dict for shard in shards)
        assert type(class_counts(form, GroundSet.of([1, 2, 3, 7]))) is dict


class TestIntFromJson:
    @pytest.mark.parametrize("value, expected", [(7, 7), (-3, -3), ("12", 12), ("-0", 0), ("007", 7), (2**80, 2**80)])
    def test_accepts_integers_and_decimal_strings(self, value, expected):
        assert int_from_json(value, "entry") == expected

    @pytest.mark.parametrize("value", [1.7, 2.0, True, False, None, " 2", "+2", "2.0", "", "1e3", "٣", [1]])
    def test_rejects_everything_else(self, value):
        with pytest.raises(ValueError):
            int_from_json(value, "entry")

    @pytest.mark.parametrize("text", ['[1.7, true, "3"]', '["2", 2]', '[" 2"]'])
    def test_ground_set_file_rejects(self, text):
        with pytest.raises(ValueError):
            GroundSet.from_json(text)
