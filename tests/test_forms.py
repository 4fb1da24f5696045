import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrep import LinearForm, find_nontrivial_automorphism, is_partition_regular, is_primitive
from linrep.errors import FormParseError, NotPrimitiveError, SearchSpaceTooLargeError
from linrep.forms import (
    AutomorphismWitness,
    bezout_witness,
    has_ordered_unique_basis_obstruction,
    spiral,
    spiral_index,
    zero_sum_certificate,
)

from oracles import direct_pair_automorphism, subset_sums_collide, subset_zero_sum

nonzero_ints = st.integers(min_value=-9, max_value=9).filter(lambda c: c != 0)
small_forms = st.lists(nonzero_ints, min_size=1, max_size=4).map(
    lambda cs: LinearForm(tuple(cs))
)


class TestParsing:
    def test_roundtrip(self):
        form = LinearForm.parse(" 1, 2 , -3 ")
        assert form.coefficients == (1, 2, -3)
        assert str(form) == "1,2,-3"
        assert LinearForm.parse(str(form)) == form

    def test_zero_coefficient_names_position(self):
        with pytest.raises(FormParseError, match="position 2"):
            LinearForm.parse("1,0,2")

    def test_non_integer_rejected(self):
        with pytest.raises(FormParseError, match="position 1"):
            LinearForm.parse("x,1")

    def test_empty_rejected(self):
        with pytest.raises(FormParseError):
            LinearForm(())


class TestPrimitivity:
    def test_unit_coefficient(self):
        assert is_primitive(LinearForm.parse("1,1"))

    def test_common_factor(self):
        assert not is_primitive(LinearForm.parse("2,4"))

    def test_pairwise_composite_but_coprime(self):
        # gcd(6,10)=2, gcd(2,15)=1
        assert is_primitive(LinearForm.parse("6,10,15"))


class TestBezout:
    def test_leading_unit(self):
        assert bezout_witness(LinearForm.parse("1,1")) == (1, 0)

    def test_two_coefficients(self):
        assert bezout_witness(LinearForm.parse("2,3")) == (-1, 1)

    def test_negative_second(self):
        assert bezout_witness(LinearForm.parse("1,-1")) == (1, 0)

    def test_not_primitive(self):
        with pytest.raises(NotPrimitiveError):
            bezout_witness(LinearForm.parse("2,4"))

    @given(small_forms.filter(is_primitive))
    def test_witness_sums_to_one(self, form):
        witness = bezout_witness(form)
        assert sum(a * s for a, s in zip(form.coefficients, witness)) == 1

    @given(small_forms.filter(is_primitive))
    def test_deterministic(self, form):
        assert bezout_witness(form) == bezout_witness(form)


class TestPartitionRegularity:
    def test_all_positive(self):
        assert is_partition_regular(LinearForm.parse("1,1,1"))

    def test_difference_form(self):
        assert not is_partition_regular(LinearForm.parse("1,-1"))

    def test_full_subset_cancels(self):
        assert not is_partition_regular(LinearForm.parse("1,2,-3"))

    def test_certificate_sums_to_zero(self):
        form = LinearForm.parse("1,2,-3")
        cert = zero_sum_certificate(form)
        assert cert is not None
        assert sum(form.coefficients[i] for i in cert) == 0

    @given(small_forms)
    def test_matches_bitmask_oracle(self, form):
        assert is_partition_regular(form) == (not subset_zero_sum(form.coefficients))

    @given(small_forms, st.randoms())
    def test_invariant_under_permutation(self, form, rng):
        shuffled = list(form.coefficients)
        rng.shuffle(shuffled)
        assert is_partition_regular(form) == is_partition_regular(
            LinearForm(tuple(shuffled))
        )


class TestAutomorphisms:
    def test_difference_form_witness(self):
        # the canonical witness: psi kills x1, chi sends x2 to x1
        form = LinearForm.parse("1,-1")
        canonical = AutomorphismWitness(psi=(None, 1), chi=(None, 0))
        assert canonical.verifies(form)
        found = find_nontrivial_automorphism(form)
        assert found is not None
        assert found.verifies(form)
        assert any(t is not None for t in found.chi)

    def test_regular_form_has_none(self):
        assert find_nontrivial_automorphism(LinearForm.parse("1,1")) is None
        # direct nested-loop search agrees
        assert direct_pair_automorphism((1, 1)) is None

    def test_irregular_form_has_one(self):
        witness = find_nontrivial_automorphism(LinearForm.parse("1,2,-3"))
        assert witness is not None
        assert witness.verifies(LinearForm.parse("1,2,-3"))

    def test_arity_cap(self):
        form = LinearForm(tuple([1] * 6))
        with pytest.raises(SearchSpaceTooLargeError):
            find_nontrivial_automorphism(form)
        assert find_nontrivial_automorphism(form, arity_cap=6) is None

    @given(st.lists(st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_witness_exists_iff_irregular(self, coeffs):
        form = LinearForm(tuple(coeffs))
        witness = find_nontrivial_automorphism(form)
        assert (witness is not None) == (not is_partition_regular(form))
        if witness is not None:
            assert witness.verifies(form)

    @given(st.lists(st.integers(-2, 2).filter(bool), min_size=1, max_size=2))
    @settings(max_examples=30, deadline=None)
    def test_factored_search_matches_pair_loop(self, coeffs):
        factored = find_nontrivial_automorphism(LinearForm(tuple(coeffs)))
        direct = direct_pair_automorphism(tuple(coeffs))
        assert (factored is None) == (direct is None)


class TestOrderedObstruction:
    def test_equal_coefficients(self):
        assert has_ordered_unique_basis_obstruction(LinearForm.parse("1,1"))

    def test_distinct_subset_sums(self):
        assert not has_ordered_unique_basis_obstruction(LinearForm.parse("1,2"))

    def test_cancelling_pair(self):
        # whole set and empty set both sum to 0
        assert has_ordered_unique_basis_obstruction(LinearForm.parse("1,-1"))

    @given(small_forms)
    def test_matches_bitmask_oracle(self, form):
        assert has_ordered_unique_basis_obstruction(form) == subset_sums_collide(
            form.coefficients
        )


class TestSpiral:
    def test_listed_prefix(self):
        assert [spiral(i) for i in range(7)] == [0, 1, -1, 2, -2, 3, -3]

    def test_fourth_element(self):
        assert spiral(3) == 2

    def test_index_of_minus_two(self):
        assert spiral_index(-2) == 4

    def test_exhaustive_small_range(self):
        for i in range(500):
            assert spiral_index(spiral(i)) == i
        for n in range(-250, 251):
            assert spiral(spiral_index(n)) == n

    @given(st.integers(min_value=-10**12, max_value=10**12))
    def test_roundtrip_large(self, n):
        assert spiral(spiral_index(n)) == n

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            spiral(-1)
