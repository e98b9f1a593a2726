import json
import pickle
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spaceform import (
    direct_product,
    element_order,
    make_cyclic,
    make_from_table,
    make_generalized_quaternion,
    rank_one_check,
)
from spaceform.errors import (
    InputError,
    InvalidCapError,
    InvalidOrderError,
    NotAGroupError,
    SizeCapError,
    StructureError,
)
from spaceform.groups import group_from_json, group_to_json, load_group

# Latin square with identity 0 that is not associative (an order-5 loop),
# found by exhaustive search and frozen here.
NONASSOC_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]

KLEIN_4 = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]


class TestMakeCyclic:
    def test_trivial(self):
        g = make_cyclic(1)
        assert g.order == 1
        assert g.table == ((0,),)

    def test_c2(self):
        assert make_cyclic(2).table == ((0, 1), (1, 0))

    def test_c12_element_orders(self, c12):
        assert element_order(c12, 1) == 12
        assert element_order(c12, 4) == 3

    def test_zero_order_rejected(self):
        with pytest.raises(InvalidOrderError):
            make_cyclic(0)

    @pytest.mark.parametrize("m", range(1, 20))
    def test_cyclic_is_abelian(self, m):
        assert make_cyclic(m).is_abelian()


class TestMakeFromTable:
    def test_accepts_c2(self):
        g = make_from_table([[0, 1], [1, 0]])
        assert g.order == 2

    def test_accepts_klein_four(self):
        g = make_from_table(KLEIN_4)
        assert g.is_abelian()
        assert all(element_order(g, x) <= 2 for x in range(4))

    def test_identity_relocated_to_zero(self):
        # C_3 with labels rotated so the identity sits at index 1
        relabeled = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
        g = make_from_table(relabeled)
        assert all(g.table[0][x] == x for x in range(3))
        assert sorted(element_order(g, x) for x in range(3)) == [1, 3, 3]

    def test_nonassociative_loop_rejected(self):
        with pytest.raises(NotAGroupError, match="associativity"):
            make_from_table(NONASSOC_5)

    def test_non_latin_square_rejected(self):
        with pytest.raises(StructureError):
            make_from_table([[0, 0], [1, 1]])

    def test_no_identity_rejected(self):
        # x*y = x-y mod 3: a Latin square whose only right identity (0)
        # is not a left identity
        with pytest.raises(NotAGroupError, match="identity"):
            make_from_table([[(x - y) % 3 for y in range(3)] for x in range(3)])

    def test_left_identity_only_rejected(self):
        # x*y = y-x mod 3: row 0 is the identity row, column 0 is not
        with pytest.raises(NotAGroupError, match="identity"):
            make_from_table([[(y - x) % 3 for y in range(3)] for x in range(3)])

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(StructureError):
            make_from_table([[0, 5], [1, 0]])

    @pytest.mark.parametrize(
        "table",
        [5, [1, 2], [[0, [1]], [1, 0]], [[0, 1.7], [1.2, 0]], [[0, "1"], [1, 0]], None],
    )
    def test_malformed_table_is_structure_error(self, table):
        with pytest.raises(StructureError):
            make_from_table(table)

    def test_nonassociative_loop_with_identity_elsewhere_rejected(self):
        # NONASSOC_5 with labels 0 and 3 swapped: its identity sits at index 3
        swap = [3, 1, 2, 0, 4]
        table = [[swap[NONASSOC_5[swap[x]][swap[y]]] for y in range(5)] for x in range(5)]
        with pytest.raises(NotAGroupError, match="associativity"):
            make_from_table(table)


def naive_identity(table: list[list[int]]) -> int | None:
    n = len(table)
    return next(
        (e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))),
        None,
    )


def naive_is_group(table: list[list[int]]) -> bool:
    n = len(table)
    return naive_identity(table) is not None and all(
        table[table[x][y]][z] == table[x][table[y][z]]
        for x, y, z in product(range(n), repeat=3)
    )


@st.composite
def latin_squares(draw):
    """Isotopes a[b[x] + c[y] mod n] of C_n: Latin squares, some of them groups."""
    n = draw(st.integers(1, 6))
    a, b, c = (draw(st.permutations(range(n))) for _ in range(3))
    return [[a[(b[x] + c[y]) % n] for y in range(n)] for x in range(n)]


class TestSingleValidator:
    @settings(max_examples=200, deadline=None)
    @given(latin_squares())
    def test_accepts_exactly_the_groups_and_moves_the_identity_to_zero(self, table):
        n = len(table)
        if not naive_is_group(table):
            with pytest.raises(NotAGroupError):
                make_from_table(table)
            return
        e = naive_identity(table)
        swap = list(range(n))
        swap[0], swap[e] = e, 0
        expected = tuple(
            tuple(swap[table[swap[x]][swap[y]]] for y in range(n)) for x in range(n)
        )
        assert make_from_table(table).table == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    def test_random_tables_are_rejected_by_the_right_check(self, table):
        n = len(table)
        latin = all(sorted(row) == list(range(n)) for row in table) and all(
            sorted(col) == list(range(n)) for col in zip(*table)
        )
        if latin and naive_is_group(table):
            assert make_from_table(table).order == n
        else:
            with pytest.raises(NotAGroupError if latin else StructureError):
                make_from_table(table)


class TestGeneralizedQuaternion:
    def test_q8(self, q8):
        assert q8.order == 8
        assert not q8.is_abelian()
        assert sum(1 for x in range(8) if element_order(q8, x) == 2) == 1

    def test_invalid_orders(self):
        for bad in (6, 4, 10, 0):
            with pytest.raises(InvalidOrderError):
                make_generalized_quaternion(bad)

    def test_q16_admissibility(self):
        report = rank_one_check(make_generalized_quaternion(16))
        assert report.passed
        assert dict(report.counts)[2] == 2

    @pytest.mark.parametrize("order", [8, 12, 16, 20, 24])
    def test_family_nonabelian_with_unique_involution(self, order):
        g = make_generalized_quaternion(order)
        assert not g.is_abelian()
        assert sum(1 for x in range(order) if element_order(g, x) == 2) == 1


class TestElementOrder:
    def test_identity_has_order_one(self, q8, c12):
        for g in (q8, c12, make_cyclic(1)):
            assert element_order(g, 0) == 1

    def test_c12_element_8(self, c12):
        assert element_order(c12, 8) == 3

    @pytest.mark.parametrize("m", [1, 2, 6, 12, 16])
    def test_lagrange(self, m):
        g = make_cyclic(m)
        assert all(g.order % element_order(g, x) == 0 for x in range(g.order))


class TestRankOneCheck:
    def test_c12_passes(self, c12):
        report = rank_one_check(c12)
        assert report.passed
        assert dict(report.counts) == {2: 2, 3: 3}

    def test_klein_four_fails(self):
        report = rank_one_check(make_from_table(KLEIN_4))
        assert not report.passed
        assert report.failing_primes == (2,)
        assert dict(report.counts)[2] == 4

    def test_q8_passes(self, q8):
        assert rank_one_check(q8).passed

    def test_c3xc3_fails(self):
        g = direct_product(make_cyclic(3), make_cyclic(3))
        report = rank_one_check(g)
        assert not report.passed
        assert report.failing_primes == (3,)

    @pytest.mark.parametrize("m", range(1, 25))
    def test_all_cyclic_pass(self, m):
        assert rank_one_check(make_cyclic(m)).passed


class TestDirectProduct:
    def test_c2_c3_is_c6(self):
        g = direct_product(make_cyclic(2), make_cyclic(3))
        assert g.order == 6
        assert g.cyclic_generator is not None

    def test_order_cap(self, monkeypatch):
        monkeypatch.setenv("SPACEFORM_MAX_ORDER", "10")
        with pytest.raises(SizeCapError):
            direct_product(make_cyclic(4), make_cyclic(4))

    def test_cap_override_allows_larger(self, monkeypatch):
        monkeypatch.setenv("SPACEFORM_MAX_ORDER", "150")
        g = make_cyclic(130)
        assert g.order == 130

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "12.5"])
    def test_bad_cap_is_typed_input_error(self, monkeypatch, raw):
        monkeypatch.setenv("SPACEFORM_MAX_ORDER", raw)
        with pytest.raises(InvalidCapError, match="SPACEFORM_MAX_ORDER") as exc:
            make_cyclic(4)
        assert isinstance(exc.value, InputError)
        assert not isinstance(exc.value, ValueError)


class TestCyclicGenerator:
    @pytest.mark.parametrize("m", [1, 2, 12, 30])
    def test_cyclic_groups_have_a_full_order_generator(self, m):
        g = make_cyclic(m)
        assert element_order(g, g.cyclic_generator) == m

    def test_non_cyclic_groups_have_none(self, q8):
        assert make_from_table(KLEIN_4).cyclic_generator is None
        assert q8.cyclic_generator is None
        assert direct_product(make_cyclic(2), make_cyclic(4)).cyclic_generator is None

    def test_cached_on_the_instance_and_ignored_by_equality(self):
        a, b = make_cyclic(10), make_cyclic(10)
        assert a.cyclic_generator == 1
        assert a.__dict__["cyclic_generator"] == 1
        assert "cyclic_generator" not in b.__dict__
        assert a == b and hash(a) == hash(b)
        assert pickle.loads(pickle.dumps(a)).cyclic_generator == 1


class TestHash:
    def test_hash_is_stable_and_matches_equal_groups(self):
        a, b = make_cyclic(12), make_cyclic(12)
        assert a is not b
        assert a == b
        assert hash(a) == hash(a) == hash(b)

    def test_hash_survives_a_pickle_round_trip(self):
        a = make_cyclic(8)
        hash(a)
        b = pickle.loads(pickle.dumps(a))
        assert b == a and hash(b) == hash(a) == hash(make_cyclic(8))
        assert {a: 1}[b] == 1

    def test_equality_ignores_the_cached_hash(self):
        a, b = make_cyclic(6), make_cyclic(6)
        hash(a)  # only a has its hash cached
        assert a == b and b == a
        assert make_cyclic(6) != direct_product(make_cyclic(2), make_cyclic(3))


class TestGroupFiles:
    def test_round_trip(self, tmp_path, q8):
        path = tmp_path / "q8.json"
        path.write_text(json.dumps(group_to_json(q8)))
        loaded = load_group(path)
        assert loaded.table == q8.table

    def test_declared_order_mismatch(self):
        with pytest.raises(StructureError):
            group_from_json({"order": 3, "table": [[0, 1], [1, 0]]})

    def test_missing_table_key(self):
        with pytest.raises(StructureError):
            group_from_json({"order": 2})

    @pytest.mark.parametrize("order", ["2", [2], None])
    def test_declared_order_must_be_the_integer_size(self, order):
        with pytest.raises(StructureError):
            group_from_json({"order": order, "table": [[0, 1], [1, 0]]})
