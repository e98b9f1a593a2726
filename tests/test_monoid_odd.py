import random

import pytest

from spaceform import (
    enumerate_endomorphisms,
    make_cyclic,
    monoid_context,
)
from spaceform.errors import DomainMismatchError, NotRealizableError


@pytest.fixture(scope="module")
def c5n1():
    return monoid_context(make_cyclic(5), 1)


@pytest.fixture(scope="module")
def q8ctx(q8):
    size = len(enumerate_endomorphisms(q8))
    return monoid_context(q8, 1, {i: 1 for i in range(size)})


class TestElementConstruction:
    def test_valid_element(self, c5n1):
        assert c5n1.element(2, 9) == (2, 9)  # d(2) = 4, 9 = 4 mod 5

    def test_identity_always_valid(self, c5n1, q8ctx):
        for ctx in (c5n1, q8ctx):
            assert ctx.is_valid(ctx.identity())

    def test_congruence_failure(self, c5n1):
        with pytest.raises(NotRealizableError):
            c5n1.element(2, 5)  # 5 = 0 != 4 mod 5

    def test_index_out_of_range(self, c5n1):
        with pytest.raises(DomainMismatchError):
            c5n1.element(7, 1)

    @pytest.mark.parametrize(
        "alpha, k",
        [(1.0, 6), ("1", 6), (True, 6), (1, 6.0), (1, "6")],
        ids=["float-alpha", "str-alpha", "bool-alpha", "float-k", "str-k"],
    )
    def test_non_int_pair_rejected(self, c5n1, alpha, k):
        with pytest.raises(DomainMismatchError):
            c5n1.element(alpha, k)

    def test_huge_degrees_are_exact(self, c5n1):
        k = 4 + 5 * 10**40
        x = c5n1.element(2, k)
        assert c5n1.multiply(x, x)[1] == k * k


class TestMultiply:
    def test_worked_product(self, c5n1):
        x = c5n1.element(2, 9)
        y = c5n1.element(3, 14)
        assert c5n1.multiply(x, y) == (1, 126)

    def test_identity_neutral(self, c5n1):
        ident = c5n1.identity()
        for alpha, k in [(0, 5), (1, -4), (2, 9), (4, 6)]:
            x = c5n1.element(alpha, k)
            assert c5n1.multiply(x, ident) == x
            assert c5n1.multiply(ident, x) == x

    def test_c2_is_integer_multiplication(self):
        ctx = monoid_context(make_cyclic(2), 4)
        x = ctx.element(1, 3)
        y = ctx.element(1, 5)
        assert ctx.multiply(x, y) == (1, 15)

    @pytest.mark.parametrize("bad", [(1, 6.0), (1.0, 6), (True, 6), (1, "6")],
                             ids=["float-degree", "float-index", "bool-index", "str-degree"])
    def test_non_int_entry_is_not_valid(self, c5n1, bad):
        assert c5n1.is_valid((1, 6))
        assert c5n1.is_valid(bad) is False

    def test_invalid_operand_rejected(self, c5n1):
        ident = c5n1.identity()
        d = c5n1.dhom.values
        last = (-1, d[-1])  # a negative index must not wrap round
        past_end = (len(d), d[0])  # fails at d[alpha], which must not leak an IndexError
        for bad in [(2, 5), (1, 4, 0), None, last, past_end, (10**9, 1)]:
            assert not c5n1.is_valid(bad)
            for x, y in [(bad, ident), (ident, bad)]:
                with pytest.raises(DomainMismatchError):
                    c5n1.multiply(x, y)

    @pytest.mark.parametrize("m,n", [(2, 1), (5, 1), (6, 2), (12, 3)])
    def test_closure_in_window(self, m, n):
        ctx = monoid_context(make_cyclic(m), n)
        elems = list(ctx.elements_in_window(3 * m))
        for x in elems:
            for y in elems:
                assert ctx.is_valid(ctx.multiply(x, y))


def test_closure_exhaustive_over_small_contexts():
    # every product of valid elements is valid: m <= 24, n <= 8,
    # degrees within three moduli of zero
    for m in range(1, 25):
        g = make_cyclic(m)
        for n in range(0, 9):
            ctx = monoid_context(g, n)
            elems = list(ctx.elements_in_window(3 * m))
            for x in elems:
                for y in elems:
                    assert ctx.is_valid(ctx.multiply(x, y))


def is_unit(ctx, x) -> bool:
    return x in ctx.equivalence_group().elements


class TestInvertibility:
    def test_identity_invertible(self, c5n1):
        assert is_unit(c5n1, c5n1.identity())

    def test_minus_one_over_squaring(self, c5n1):
        assert is_unit(c5n1, c5n1.element(2, -1))

    def test_large_degree_not_invertible(self, c5n1):
        assert not is_unit(c5n1, c5n1.element(1, 11))

    def test_non_automorphism_never_invertible(self):
        ctx = monoid_context(make_cyclic(4), 1)
        assert not is_unit(ctx, ctx.element(0, 4))  # r=0, d=0

    @pytest.mark.parametrize("m,n", [(5, 1), (7, 2), (8, 1), (12, 3)])
    def test_invertible_iff_two_sided_inverse_exists(self, m, n):
        ctx = monoid_context(make_cyclic(m), n)
        ident = ctx.identity()
        candidates = [
            ctx.element(e.canonical_index, k)
            for e in ctx.endos
            if e.is_automorphism
            for k in (1, -1)
            if (k - ctx.dhom(e.canonical_index)) % m == 0
        ]
        units = set(ctx.equivalence_group().elements)
        for x in ctx.elements_in_window(2 * m):
            has_inverse = any(
                ctx.multiply(x, y) == ident and ctx.multiply(y, x) == ident
                for y in candidates
            )
            assert (x in units) == has_inverse


def naive_unit_group_summary(eg) -> tuple[int, tuple[int, ...], bool]:
    """Identity position, element orders and commutativity of E(G, n), naively:
    the identity is the row fixing every column, and each order is a walk of
    its element's powers; the walks the package used before the shared
    ``groups`` routines."""
    size = eg.order
    ident = next(i for i in range(size) if all(eg.table[i][j] == j for j in range(size)))
    orders = []
    for i in range(size):
        acc, t = i, 1
        while acc != ident:
            acc = eg.table[acc][i]
            t += 1
        orders.append(t)
    abelian = all(eg.table[i][j] == eg.table[j][i] for i in range(size) for j in range(size))
    return ident, tuple(orders), abelian


class TestEquivalenceGroup:
    @pytest.mark.parametrize("n", range(4))
    def test_table_properties_match_the_naive_walk(self, n):
        # m = 1, 2 put (id, -1) first and the identity (id, 1) at position 1
        for m in range(1, 25):
            ctx = monoid_context(make_cyclic(m), n)
            eg = ctx.equivalence_group()
            got = (eg.identity_position(), eg.element_orders(), eg.is_abelian())
            assert got == naive_unit_group_summary(eg)
            assert eg.elements[got[0]] == ctx.identity()
            if m <= 2:
                assert got[0] == 1

    def test_c2_special_case(self):
        for n in (0, 1, 5):
            eg = monoid_context(make_cyclic(2), n).equivalence_group()
            assert eg.order == 2
            assert sorted(k for _, k in eg.elements) == [-1, 1]

    def test_c1_special_case(self):
        eg = monoid_context(make_cyclic(1), 0).equivalence_group()
        assert eg.order == 2

    def test_c5_n1(self, c5n1):
        eg = c5n1.equivalence_group()
        assert eg.order == 4
        assert set(eg.elements) == {(1, 1), (2, -1), (3, -1), (4, 1)}
        assert sorted(eg.element_orders()) == [1, 2, 4, 4]  # cyclic of order 4

    def test_c7_n2(self):
        eg = monoid_context(make_cyclic(7), 2).equivalence_group()
        assert eg.order == 6

    @pytest.mark.parametrize("m", range(3, 16))
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_group_axioms(self, m, n):
        eg = monoid_context(make_cyclic(m), n).equivalence_group()
        size = eg.order
        ident = eg.identity_position()
        for i in range(size):
            assert eg.table[ident][i] == i
            assert i in {eg.table[i][j] for j in range(size)}  # row is a bijection
            assert any(
                eg.table[i][j] == ident and eg.table[j][i] == ident
                for j in range(size)
            )

    @pytest.mark.parametrize("m", range(3, 16))
    def test_order_one_sign_per_automorphism(self, m):
        n = 2
        ctx = monoid_context(make_cyclic(m), n)
        expected = sum(
            1
            for e in ctx.endos
            if e.is_automorphism
            and ctx.dhom(e.canonical_index) in (1 % m, -1 % m)
        )
        assert ctx.equivalence_group().order == expected


class TestStructureQueries:
    def test_cyclic_always_abelian(self):
        for m in (1, 2, 5, 12):
            assert monoid_context(make_cyclic(m), 1).is_abelian()

    def test_q8_not_abelian(self, q8ctx):
        assert not q8ctx.is_abelian()

    def test_q8_noncommuting_witness(self, q8ctx):
        # exhibit an explicit pair found by enumeration
        pair = next(
            (x, y)
            for x in q8ctx.elements_in_window(8)
            for y in q8ctx.elements_in_window(8)
            if q8ctx.multiply(x, y) != q8ctx.multiply(y, x)
        )
        x, y = pair
        assert q8ctx.multiply(x, y) != q8ctx.multiply(y, x)

    def test_abelian_agrees_with_pairwise_commutation(self, q8ctx):
        reps = [
            q8ctx.element(e.canonical_index, q8ctx.dhom(e.canonical_index))
            for e in q8ctx.endos
        ]
        commutes = all(
            q8ctx.multiply(x, y) == q8ctx.multiply(y, x) for x in reps for y in reps
        )
        assert q8ctx.is_abelian() == commutes

    def test_realizable_degrees_c5(self, c5n1):
        assert sorted(c5n1.realizable_degrees()) == [0, 1, 4]
        assert c5n1.endos_realizing(7) == []  # 7 = 2 mod 5
        assert c5n1.endos_realizing(9) == [2, 3]

    def test_c2_every_degree_realizable(self):
        ctx = monoid_context(make_cyclic(2), 3)
        assert sorted(ctx.realizable_degrees()) == [0, 1]
        assert all(ctx.endos_realizing(k) for k in range(-50, 50))

    def test_trivial_group_every_degree_realizable(self):
        ctx = monoid_context(make_cyclic(1), 0)
        assert all(ctx.endos_realizing(k) for k in range(-50, 50))

    def test_every_degree_realizable_via_identity(self, c5n1, q8ctx):
        for ctx in (c5n1, q8ctx):
            assert ctx.identity_index in ctx.endos_realizing(1)


class TestSampledAxioms:
    @pytest.mark.parametrize("m,n", [(2, 0), (5, 1), (12, 2)])
    def test_associativity_on_random_triples(self, m, n):
        ctx = monoid_context(make_cyclic(m), n)
        elems = list(ctx.elements_in_window(4 * m))
        rng = random.Random(m * 100 + n)
        for _ in range(2000):
            x, y, z = (rng.choice(elems) for _ in range(3))
            assert ctx.multiply(ctx.multiply(x, y), z) == ctx.multiply(
                x, ctx.multiply(y, z)
            )
