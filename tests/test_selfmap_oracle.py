import random

import pytest

from spaceform import (
    MonoidContext,
    OracleContext,
    compose_selfmaps,
    cross_check,
    degree,
    endomorphisms,
    make_cyclic,
    make_from_table,
    make_generalized_quaternion,
    monoid_context,
    selfmap_oracle,
)
from spaceform.errors import (
    DomainMismatchError,
    InvalidDimensionError,
    InvalidOrderError,
    InvalidWindowError,
    UnsupportedGroupError,
)
from tests.conftest import naive_power_mod


class TestOracleContext:
    def test_naive_degree(self):
        ctx = OracleContext(m=5, n=1)
        assert [ctx.naive_degree(r) for r in range(5)] == [0, 1, 4, 4, 1]

    @pytest.mark.parametrize("m", [1, 2, 7, 12])
    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_naive_degree_matches_reference(self, m, n):
        ctx = OracleContext(m=m, n=n)
        for r in range(m):
            assert ctx.naive_degree(r) == naive_power_mod(r, n + 1, m)

    def test_validity(self):
        ctx = OracleContext(m=5, n=1)
        assert ctx.is_valid((2, 9))
        assert ctx.is_valid((2, -6))
        assert not ctx.is_valid((2, 5))
        assert not ctx.is_valid((7, 1))

    @pytest.mark.parametrize("f", [(1, 2, 3), None, (1, "x")], ids=["triple", "none", "str"])
    def test_validity_of_a_non_pair_is_false(self, f):
        assert OracleContext(m=5, n=1).is_valid(f) is False

    @pytest.mark.parametrize("f", [(1.0, 1), (True, 1), (1, 6.0), (1, True)],
                             ids=["float-residue", "bool-residue", "float-degree",
                                  "bool-degree"])
    def test_validity_of_a_non_int_entry_is_false(self, f):
        ctx = OracleContext(m=5, n=1)
        assert ctx.is_valid((1, 1)) and ctx.is_valid((1, 6))
        assert ctx.is_valid(f) is False

    def test_coset_in_window(self):
        ctx = OracleContext(m=5, n=1)
        assert ctx.coset_in_window(2, 10) == [-6, -1, 4, 9]

    def test_classes_in_window_trivial_group(self):
        ctx = OracleContext(m=1, n=0)
        degrees = [k for _, k in ctx.classes_in_window(10)]
        assert degrees == list(range(-10, 11))

    def test_bad_parameters(self):
        with pytest.raises(InvalidOrderError):
            OracleContext(m=0, n=1)
        with pytest.raises(InvalidDimensionError):
            OracleContext(m=3, n=-1)


class TestCompose:
    def test_identity_neutral(self):
        ctx = OracleContext(m=5, n=1)
        ident = (1, 1)
        x = (2, 9)
        assert compose_selfmaps(ctx, ident, x) == x
        assert compose_selfmaps(ctx, x, ident) == x

    def test_squaring_example(self):
        ctx = OracleContext(m=5, n=1)
        assert compose_selfmaps(ctx, (2, 4), (2, 4)) == (4, 16)

    def test_c2_example(self):
        ctx = OracleContext(m=2, n=1)
        assert compose_selfmaps(ctx, (1, 3), (0, 2)) == (0, 6)

    def test_out_of_range_residue(self):
        ctx = OracleContext(m=2, n=1)
        with pytest.raises(DomainMismatchError):
            compose_selfmaps(ctx, (2, 3), (0, 2))

    @pytest.mark.parametrize("m,n", [(3, 1), (6, 2), (10, 3)])
    def test_closure(self, m, n):
        ctx = OracleContext(m=m, n=n)
        classes = ctx.classes_in_window(3 * m)
        for f in classes:
            for g in classes:
                assert ctx.is_valid(compose_selfmaps(ctx, f, g))


class TestCrossCheck:
    def test_c5_n1(self):
        report = cross_check(make_cyclic(5), 1, 50)
        assert report.passed
        # each coset meets [-50, 50] in 20 or 21 degrees
        assert report.element_count == sum(
            len(OracleContext(5, 1).coset_in_window(r, 50)) for r in range(5)
        )
        per_class = [
            len(OracleContext(5, 1).coset_in_window(r, 50)) for r in range(5)
        ]
        assert set(per_class) <= {20, 21}

    def test_trivial_group(self):
        report = cross_check(make_cyclic(1), 0, 10)
        assert report.passed
        assert report.element_count == 21

    def test_c12_n2(self):
        assert cross_check(make_cyclic(12), 2, 100).passed

    def test_rejects_non_cyclic(self):
        with pytest.raises(UnsupportedGroupError):
            cross_check(make_generalized_quaternion(8), 1, 10)

    def test_window_validation(self):
        with pytest.raises(InvalidWindowError):
            cross_check(make_cyclic(3), 1, 0)

    def test_a_context_is_checked_with_its_own_d(self):
        g = make_cyclic(8)
        assert cross_check(monoid_context(g, 1), 1, 20) == cross_check(g, 1, 20)
        # d(r) = r is a law-abiding d-table, but not the oracle's r^2 mod 8
        report = cross_check(monoid_context(g, 1, {r: r for r in range(8)}), 1, 10)
        assert not report.passed
        assert report.witness == "valid-element sets differ, e.g. (2, -6)"

    def test_a_wrong_product_is_reported_at_the_first_mismatch(self):
        g = make_cyclic(6)
        comp = [list(row) for row in endomorphisms.stored_composition_table(g)]
        comp[2][3] = (comp[2][3] + 1) % 6
        report = cross_check(MonoidContext(monoid_context(g, 1).dhom, comp), 1, 12)
        assert report.to_json() == {
            "m": 6,
            "n": 1,
            "window": 12,
            "passed": False,
            "element_count": 25,
            "product_count": 239,
            "witness": "product mismatch at (2, -8)*(3, -9): "
            "monoid gave (1, 72), oracle gave (0, 72)",
        }

    def test_a_context_for_another_n_is_refused(self):
        with pytest.raises(DomainMismatchError, match="context is for n=1, not n=2"):
            cross_check(monoid_context(make_cyclic(5), 1), 2, 10)

    def test_report_serializes(self):
        report = cross_check(make_cyclic(6), 1, 20)
        data = report.to_json()
        assert data["passed"] is True
        assert data["m"] == 6
        assert data["witness"] is None
        assert list(data) == [
            "m", "n", "window", "passed", "element_count", "product_count", "witness",
        ]

    @pytest.mark.parametrize("m", [1, 2, 6, 12, 30])
    def test_a_relabelled_cyclic_table_passes(self, m):
        # neither the identity nor a generator sits where make_cyclic puts it
        label = list(range(m))
        random.Random(m).shuffle(label)
        table = [[0] * m for _ in range(m)]
        for x in range(m):
            for y in range(m):
                table[label[x]][label[y]] = label[(x + y) % m]
        report = cross_check(make_from_table(table), 1, 2 * m)
        assert report.passed
        assert report.element_count == cross_check(make_cyclic(m), 1, 2 * m).element_count

    def test_the_oracle_does_not_read_residues_through_the_fast_path(self, monkeypatch):
        # r -> r^5 is a multiplicative bijection of Z/7, so a fast path that
        # reads residues through it still builds a lawful d; an oracle that
        # shared endo_residue would agree with that d.  Every module that
        # binds the name is patched, as a change to the function would be.
        real = degree.endo_residue
        for module in (degree, selfmap_oracle):
            monkeypatch.setattr(
                module, "endo_residue", lambda e: pow(real(e), 5, 7), raising=False
            )
        g = make_cyclic(7)
        assert monoid_context(g, 1).dhom.values == (0, 1, 2, 4, 4, 2, 1)
        assert not cross_check(g, 1, 30).passed
