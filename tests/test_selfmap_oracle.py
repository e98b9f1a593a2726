import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from spaceform.selfmap_oracle import CrossCheckReport, _discrete_log
from tests.conftest import naive_power_mod


def reference_cross_check(ctx, n, window):
    """cross_check on a context, with its earlier per-product loop.

    Each product is rebuilt as (residue, degree) and compared whole, and
    a counter runs along; the report must be the same as cross_check's.
    """
    group = ctx.group
    z, log = _discrete_log(group.table)
    oracle = OracleContext(group.order, n)
    report = partial(CrossCheckReport, m=group.order, n=n, window=window)
    to_residue = tuple(log[e.images[z]] for e in ctx.endos)
    to_index = {r: i for i, r in enumerate(to_residue)}
    monoid_side = {(to_residue[a], k) for a, k in ctx.elements_in_window(window)}
    oracle_side = set(oracle.classes_in_window(window))
    if monoid_side != oracle_side:
        diff = (monoid_side - oracle_side) | (oracle_side - monoid_side)
        return report(
            passed=False,
            element_count=len(monoid_side),
            product_count=0,
            witness=f"valid-element sets differ, e.g. {sorted(diff)[0]}",
        )
    pairs = sorted(monoid_side)
    monoid_elems = [ctx.element(to_index[r], k) for r, k in pairs]
    products = 0
    for x, f in zip(monoid_elems, pairs):
        for y, g in zip(monoid_elems, pairs):
            alpha, k = ctx.multiply(x, y)
            want = compose_selfmaps(oracle, f, g)
            products += 1
            if (to_residue[alpha], k) != want:
                return report(
                    passed=False,
                    element_count=len(pairs),
                    product_count=products,
                    witness=(
                        f"product mismatch at {f}*{g}: "
                        f"monoid gave {(to_residue[alpha], k)}, oracle gave {want}"
                    ),
                )
    return report(passed=True, element_count=len(pairs), product_count=products)


def corrupted_context(m, n, a, b, shift):
    """M(C_m, n) whose composition table has residue a o residue b moved by shift."""
    g = make_cyclic(m)
    z, log = _discrete_log(g.table)
    index = {log[e.images[z]]: e.canonical_index for e in endomorphisms.enumerate_endomorphisms(g)}
    comp = [list(row) for row in endomorphisms.stored_composition_table(g)]
    i, j = index[a], index[b]
    comp[i][j] = (comp[i][j] + shift) % m
    return MonoidContext(monoid_context(g, n).dhom, comp)


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 10**12), st.data())
    def test_naive_degree_for_huge_n_matches_pow(self, m, n, data):
        r = data.draw(st.integers(0, m - 1))
        assert OracleContext(m=m, n=n).naive_degree(r) == pow(r, n + 1, m)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 12), st.sampled_from([10**12, -(10**12)]),
           st.integers(-130, 130), st.data())
    def test_validity_of_huge_degrees(self, m, n, big, small, data):
        r, k = data.draw(st.integers(0, m - 1)), big + small
        assert OracleContext(m=m, n=n).is_valid((r, k)) == (k % m == r ** (n + 1) % m)

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
        assert ctx.coset_in_window(2, 5, center=100) == [99, 104]

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

    @pytest.mark.parametrize("bad", [(1, 2, 3), None, (1, "x")], ids=["triple", "none", "str"])
    def test_a_non_pair_is_a_domain_mismatch(self, bad):
        ctx = OracleContext(m=5, n=1)
        for f, g in [(bad, (1, 1)), ((1, 1), bad), (bad, (2, 4)), ((2, 4), bad)]:
            with pytest.raises(DomainMismatchError):
                compose_selfmaps(ctx, f, g)

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


class TestCrossCheckAuditStrength:
    """cross_check compares every ordered pair, once each, up to the first mismatch."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12).flatmap(lambda m: st.tuples(
        st.just(m), st.integers(0, 3), st.integers(1, 2 * m),
        st.integers(0, m - 1), st.integers(0, m - 1), st.integers(1, m - 1))))
    def test_a_one_entry_corruption_is_reported_as_by_the_reference(self, case):
        m, n, window, a, b, shift = case
        ctx = corrupted_context(m, n, a, b, shift)
        assert cross_check(ctx, n, window) == reference_cross_check(ctx, n, window)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 3), st.integers(1, 24), st.data())
    def test_a_wrong_degree_is_reported_as_by_the_reference(self, m, n, window, data):
        ctx = monoid_context(make_cyclic(m), n)
        count = len(list(ctx.elements_in_window(window)))
        fault = data.draw(st.integers(0, count**2 - 1), label="faulty call")
        real_multiply, calls = ctx.multiply, [0]

        def multiply_with_one_wrong_degree(x, y):
            alpha, k = real_multiply(x, y)
            calls[0] += 1
            return alpha, k + m if calls[0] == fault + 1 else k

        ctx.multiply = multiply_with_one_wrong_degree
        report = cross_check(ctx, n, window)
        assert not report.passed and report.product_count == fault + 1
        calls[0] = 0
        assert report == reference_cross_check(ctx, n, window)

    # on C12, n = 1, window 5, residue 0 holds the least pair and residue 11
    # the greatest, each with one degree in [-5, 5]
    @pytest.mark.parametrize("a,b,where", [(0, 7, "first row"), (11, 3, "last row"),
                                           (11, 11, "last pair")])
    def test_the_first_row_last_row_and_last_pair_are_reached(self, a, b, where):
        ctx = corrupted_context(12, 1, a, b, 1)
        report = cross_check(ctx, 1, 5)
        assert report == reference_cross_check(ctx, 1, 5)
        count = report.element_count
        assert not report.passed
        if where == "first row":
            assert report.product_count <= count
        elif where == "last row":
            assert count * (count - 1) < report.product_count < count**2
        else:
            assert report.product_count == count**2

    @pytest.mark.parametrize("corrupt", [False, True], ids=["passing", "failing"])
    def test_multiply_and_compose_run_once_per_pair_in_order(self, corrupt, monkeypatch):
        ctx = corrupted_context(6, 1, 2, 3, 1) if corrupt else monoid_context(make_cyclic(6), 1)
        multiplied, composed = [], []
        real_multiply, real_compose = ctx.multiply, selfmap_oracle.compose_selfmaps

        def counting_multiply(x, y):
            multiplied.append((x, y))
            return real_multiply(x, y)

        def counting_compose(oracle, f, g):
            composed.append((f, g))
            return real_compose(oracle, f, g)

        ctx.multiply = counting_multiply
        monkeypatch.setattr(selfmap_oracle, "compose_selfmaps", counting_compose)
        report = cross_check(ctx, 1, 12)
        assert report.passed is not corrupt
        expected = report.product_count if corrupt else report.element_count**2
        assert report.product_count == expected == len(multiplied) == len(composed)
        pairs = sorted(OracleContext(6, 1).classes_in_window(12))
        assert composed == [(f, g) for f in pairs for g in pairs][:expected]
        # on make_cyclic, the endomorphism of index r has residue r
        assert multiplied == [(ctx.element(*f), ctx.element(*g)) for f, g in composed]
