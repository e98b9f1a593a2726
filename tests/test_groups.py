import json
import pickle
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spaceform import (
    direct_product,
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
from spaceform.groups import group_from_json, load_group
from tests.test_end_properties import candidates, end_and_aut, groups, relabel
from tests.test_verification_properties import commutes_pairwise

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
        assert c12.element_orders[1] == 12
        assert c12.element_orders[4] == 3

    def test_zero_order_rejected(self):
        with pytest.raises(InvalidOrderError):
            make_cyclic(0)

    @pytest.mark.parametrize("m", range(1, 20))
    def test_cyclic_is_abelian(self, m):
        assert commutes_pairwise(make_cyclic(m).table)


class TestMakeFromTable:
    def test_accepts_c2(self):
        g = make_from_table([[0, 1], [1, 0]])
        assert g.order == 2

    def test_accepts_klein_four(self):
        g = make_from_table(KLEIN_4)
        assert commutes_pairwise(g.table)
        assert all(g.element_orders[x] <= 2 for x in range(4))

    def test_identity_relocated_to_zero(self):
        # C_3 with labels rotated so the identity sits at index 1
        relabeled = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
        g = make_from_table(relabeled)
        assert all(g.table[0][x] == x for x in range(3))
        assert sorted(g.element_orders[x] for x in range(3)) == [1, 3, 3]

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
        [
            5,
            [1, 2],
            [[0, [1]], [1, 0]],
            [[0, 1.7], [1.2, 0]],
            [[0, "1"], [1, 0]],
            None,
            [[0, True], [True, 0]],
            [[False]],
        ],
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
        assert not commutes_pairwise(q8.table)
        assert sum(1 for x in range(8) if q8.element_orders[x] == 2) == 1

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
        assert not commutes_pairwise(g.table)
        assert sum(1 for x in range(order) if g.element_orders[x] == 2) == 1


class TestElementOrder:
    def test_identity_has_order_one(self, q8, c12):
        for g in (q8, c12, make_cyclic(1)):
            assert g.element_orders[0] == 1

    def test_c12_element_8(self, c12):
        assert c12.element_orders[8] == 3

    @pytest.mark.parametrize("m", [1, 2, 6, 12, 16])
    def test_lagrange(self, m):
        g = make_cyclic(m)
        assert all(g.order % g.element_orders[x] == 0 for x in range(g.order))


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


def sl23_table() -> list[list[int]]:
    """SL(2, 3): the 2 x 2 matrices over F_3 of determinant 1, as (a, b, c, d)."""
    mats = [m for m in product(range(3), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % 3 == 1]

    def mul(x, y):
        (a, b, c, d), (e, f, g, h) = x, y
        return mats.index(
            ((a * e + b * g) % 3, (a * f + b * h) % 3, (c * e + d * g) % 3, (c * f + d * h) % 3)
        )

    return [[mul(x, y) for y in mats] for x in mats]


def semidirect_table(m: int, r: int, k: int) -> list[list[int]]:
    """Z/m x|_r Z/k, b acting by a -> r^b a, on (a, b) encoded a*k + b; r^k = 1 mod m."""
    def mul(x, y):
        (a, b), (c, d) = divmod(x, k), divmod(y, k)
        return (a + pow(r, b, m) * c) % m * k + (b + d) % k

    return [[mul(x, y) for y in range(m * k)] for x in range(m * k)]


@st.composite
def semidirect_groups(draw):
    """Z/m x|_r Z/k of order <= 40 for any r with r^k = 1 mod m, relabelled."""
    m, k = draw(
        st.tuples(st.integers(1, 20), st.integers(1, 20)).filter(lambda mk: mk[0] * mk[1] <= 40)
    )
    r = draw(st.sampled_from([r for r in range(m) if pow(r, k, m) == 1 % m]))
    base, n = semidirect_table(m, r, k), m * k
    perm = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[perm[x]][perm[y]] = perm[base[x][y]]
    return make_from_table(table)


def small_subgroups_are_cyclic(g) -> bool:
    """Whether every subgroup of order p^2 or 2p is cyclic.  Each such group is
    generated by two elements, so the subgroups <x, y> hold all of them."""
    t, n = g.table, g.order

    def generated(*gens) -> list[int]:
        sub = [0]
        for z in sub:  # the list grows while it is walked
            sub += {t[z][s] for s in gens}.difference(sub)
        return sub

    for x in range(n):
        for y in range(x, n):
            sub = generated(x, y)
            k = len(sub)
            p = next((f for f in range(2, k + 1) if k % f == 0), 1)  # least prime
            q = k // p  # k is p^2 or 2p when q is a prime and q = p or p = 2
            if q > 1 and all(q % f for f in range(2, q)) and (q == p or p == 2):
                if not any(len(generated(z)) == k for z in sub):
                    return False
    return True


class TestExactAdmissibility:
    """``rank_one_check`` passes exactly when every subgroup of order p^2 or 2p
    is cyclic (Milnor; Madsen, Thomas and Wall)."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(groups(24), semidirect_groups()))
    @example(make_from_table(semidirect_table(3, 2, 2)))
    @example(make_from_table(semidirect_table(7, 2, 3)))
    def test_same_verdict_as_every_pair(self, g):
        assert rank_one_check(g).passed == small_subgroups_are_cyclic(g)

    @pytest.mark.parametrize(
        "table, passed",
        [
            (sl23_table(), True),
            (semidirect_table(7, 2, 3), True),
            (semidirect_table(11, 3, 5), True),
            (semidirect_table(3, 2, 2), False),
            (semidirect_table(5, 2, 4), False),
            (semidirect_table(3, 1, 3), False),
            (semidirect_table(2, 1, 4), False),
        ],
        ids=["SL(2,3)", "C7:C3", "C11:C5", "S3", "C5:C4", "C3xC3", "C2xC4"],
    )
    def test_fixed_groups(self, table, passed):
        g = make_from_table(table)
        assert rank_one_check(g).passed is small_subgroups_are_cyclic(g) is passed


SPACE_FORMS = [
    make_from_table(sl23_table()),
    direct_product(make_from_table(sl23_table()), make_cyclic(5)),
    make_from_table(semidirect_table(7, 2, 9)),
    make_from_table(semidirect_table(5, 4, 8)),
]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SPACE_FORMS), st.data())
def test_relabelled_space_forms_need_the_same_candidates(g, data):
    """SL(2, 3), SL(2, 3) x C5, C7:C9 and C5:C8, which act freely on S^3, under
    any labels: the same number of End(G) candidates, |End| and |Aut|."""
    h = make_from_table(relabel(g, data.draw(st.permutations(range(g.order)))))
    assert candidates(h, h.generators) == candidates(g, g.generators)
    assert end_and_aut(h) == end_and_aut(g)


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
        assert g.element_orders[g.cyclic_generator] == m

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
        hash(a)  # only a has been hashed
        assert a == b and b == a
        assert make_cyclic(6) != direct_product(make_cyclic(2), make_cyclic(3))


class TestGroupFiles:
    def test_round_trip(self, tmp_path, q8):
        path = tmp_path / "q8.json"
        path.write_text(json.dumps({"order": 8, "table": [list(row) for row in q8.table]}))
        loaded = load_group(path)
        assert loaded.table == q8.table

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"order": 2, "table": [[0, 1], [1, 0]',
            b'{"order": 2, "table": "\xff"}',
            b'{"order": ' + b"1" * 5000 + b"}",  # past int()'s digit limit
        ],
        ids=["truncated", "not-utf-8", "5000-digit-number"],
    )
    def test_unreadable_file_is_a_structure_error(self, tmp_path, raw):
        path = tmp_path / "g.json"
        path.write_bytes(raw)
        with pytest.raises(StructureError, match="group file is not valid JSON in UTF-8"):
            load_group(path)

    def test_declared_order_mismatch(self):
        with pytest.raises(StructureError):
            group_from_json({"order": 3, "table": [[0, 1], [1, 0]]})

    def test_missing_table_key(self):
        with pytest.raises(StructureError):
            group_from_json({"order": 2})

    @pytest.mark.parametrize("order", ["2", [2], None, 2.0])
    def test_declared_order_must_be_the_integer_size(self, order):
        with pytest.raises(StructureError):
            group_from_json({"order": order, "table": [[0, 1], [1, 0]]})

    def test_declared_order_true_is_not_one(self):
        with pytest.raises(StructureError):
            group_from_json({"order": True, "table": [[0]]})
