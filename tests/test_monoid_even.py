from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spaceform import A0, A2, canonicalize, class_label, identity_even, multiply_even, odd
from spaceform.errors import DomainMismatchError, NotOddError


class TestCanonicalize:
    def test_multiples_of_four_collapse(self):
        assert canonicalize(8) == A0
        assert canonicalize(0) == A0
        assert canonicalize(-12) == A0

    def test_twos_mod_four_collapse(self):
        assert canonicalize(6) == A2
        assert canonicalize(2) == A2
        assert canonicalize(-2) == A2

    def test_odd_keeps_value(self):
        assert canonicalize(7) == odd(7)
        assert canonicalize(-3) == odd(-3)
        assert canonicalize(7) != canonicalize(9)

    def test_odd_rejects_even_payload(self):
        with pytest.raises(NotOddError):
            odd(4)

    @pytest.mark.parametrize("k", [3.0, True, "3", None])
    def test_odd_rejects_non_int(self, k):
        with pytest.raises(NotOddError):
            odd(k)

    @pytest.mark.parametrize("k", [3.0, "3", None], ids=["float", "str", "none"])
    def test_a_non_int_is_a_domain_mismatch(self, k):
        with pytest.raises(DomainMismatchError):
            canonicalize(k)
        with pytest.raises(DomainMismatchError):
            class_label(k)

    @pytest.mark.parametrize("k", [True, False, 3.0, 2.0])
    def test_class_label_refuses_a_bool_or_float(self, k):
        with pytest.raises(DomainMismatchError, match="is an int, got"):
            class_label(k)

    def test_multiply_even_refuses_a_float_through_canonicalize(self):
        for x, y in [(3.0, 3), (3, 3.0), (2.0, 2)]:
            with pytest.raises(DomainMismatchError):
                multiply_even(x, y)

    @pytest.mark.parametrize("x, y", [(None, 3), (3, None), ("a", "b"), ([1], (2,))])
    def test_multiply_even_refuses_operands_that_do_not_multiply(self, x, y):
        with pytest.raises(DomainMismatchError) as info:
            multiply_even(x, y)
        assert info.value.__cause__ is None

    def test_classes_are_plain_ints(self):
        assert (A0, A2, identity_even(), odd(-7)) == (0, 2, 1, -7)
        for x in (A0, A2, odd(3), canonicalize(-10), multiply_even(odd(3), A2)):
            assert type(x) is int


class TestMultiply:
    def test_even_times_even_is_a0(self):
        for x, y in product((A0, A2), repeat=2):
            assert multiply_even(x, y) == A0

    def test_even_absorbs_odd(self):
        for x in (A0, A2):
            for k in (-5, -1, 1, 3, 9):
                assert multiply_even(x, odd(k)) == x
                assert multiply_even(odd(k), x) == x

    def test_odd_times_odd(self):
        assert multiply_even(odd(3), odd(5)) == odd(15)
        assert multiply_even(odd(-3), odd(5)) == odd(-15)

    def test_identity(self):
        e = identity_even()
        for x in (A0, A2, odd(9), odd(-7)):
            assert multiply_even(e, x) == x
            assert multiply_even(x, e) == x

    def test_units_are_plus_minus_one(self):
        classes = [A0, A2, *map(odd, range(-9, 10, 2))]
        one = identity_even()
        units = [x for x in classes if any(multiply_even(x, y) == one for y in classes)]
        assert units == [odd(-1), odd(1)]


class TestQuotientStructure:
    def test_well_defined_on_classes(self):
        # canonicalize(x*y) must depend only on the classes of x and y
        reps = range(-200, 201)
        seen: dict[tuple[int, int], int] = {}
        for x in reps:
            for y in reps:
                key = (canonicalize(x), canonicalize(y))
                result = canonicalize(x * y)
                if key in seen:
                    assert seen[key] == result
                else:
                    seen[key] = result

    def test_class_table_matches_integer_multiplication_window(self):
        for a in range(-300, 301):
            ca = canonicalize(a)
            for b in range(-300, 301):
                assert multiply_even(ca, canonicalize(b)) == canonicalize(a * b)

    def test_commutative_and_associative(self):
        sample = [A0, A2, odd(-3), odd(-1), odd(1), odd(5), odd(9)]
        for x, y in product(sample, repeat=2):
            assert multiply_even(x, y) == multiply_even(y, x)
        for x, y, z in product(sample, repeat=3):
            assert multiply_even(multiply_even(x, y), z) == multiply_even(
                x, multiply_even(y, z)
            )

    @given(st.integers(), st.integers())
    def test_canonicalize_is_a_homomorphism(self, a, b):
        assert multiply_even(canonicalize(a), canonicalize(b)) == canonicalize(a * b)


@pytest.mark.parametrize(
    "x, label", [(0, "a0"), (2, "a2"), (1, "b[1]"), (-1, "b[-1]"), (15, "b[15]")]
)
def test_class_label(x, label):
    assert class_label(x) == label
