import pytest

from spaceform import (
    OracleContext,
    SelfMapClass,
    compose_selfmaps,
    cross_check,
    make_cyclic,
    make_generalized_quaternion,
    monoid_context,
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
        assert ctx.is_valid(SelfMapClass(2, 9))
        assert ctx.is_valid(SelfMapClass(2, -6))
        assert not ctx.is_valid(SelfMapClass(2, 5))
        assert not ctx.is_valid(SelfMapClass(7, 1))

    def test_coset_in_window(self):
        ctx = OracleContext(m=5, n=1)
        assert ctx.coset_in_window(2, 10) == [-6, -1, 4, 9]

    def test_classes_in_window_trivial_group(self):
        ctx = OracleContext(m=1, n=0)
        degrees = [f.degree for f in ctx.classes_in_window(10)]
        assert degrees == list(range(-10, 11))

    def test_bad_parameters(self):
        with pytest.raises(InvalidOrderError):
            OracleContext(m=0, n=1)
        with pytest.raises(InvalidDimensionError):
            OracleContext(m=3, n=-1)


class TestCompose:
    def test_identity_neutral(self):
        ctx = OracleContext(m=5, n=1)
        ident = SelfMapClass(1, 1)
        x = SelfMapClass(2, 9)
        assert compose_selfmaps(ctx, ident, x) == x
        assert compose_selfmaps(ctx, x, ident) == x

    def test_squaring_example(self):
        ctx = OracleContext(m=5, n=1)
        assert compose_selfmaps(ctx, SelfMapClass(2, 4), SelfMapClass(2, 4)) == SelfMapClass(4, 16)

    def test_c2_example(self):
        ctx = OracleContext(m=2, n=1)
        assert compose_selfmaps(ctx, SelfMapClass(1, 3), SelfMapClass(0, 2)) == SelfMapClass(0, 6)

    def test_out_of_range_residue(self):
        ctx = OracleContext(m=2, n=1)
        with pytest.raises(DomainMismatchError):
            compose_selfmaps(ctx, SelfMapClass(2, 3), SelfMapClass(0, 2))

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

    def test_a_context_for_another_n_is_refused(self):
        with pytest.raises(DomainMismatchError, match="context is for n=1, not n=2"):
            cross_check(monoid_context(make_cyclic(5), 1), 2, 10)

    def test_report_serializes(self):
        report = cross_check(make_cyclic(6), 1, 20)
        data = report.to_json()
        assert data["passed"] is True
        assert data["m"] == 6
        assert data["witness"] is None
