"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible
with ``pytest -s`` or ``-rP``) and enforces its runtime budget.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from math import gcd
from time import perf_counter

import pytest

from spaceform import (
    A0,
    A2,
    canonicalize,
    cross_check,
    enumerate_automorphisms,
    enumerate_endomorphisms,
    make_cyclic,
    make_generalized_quaternion,
    monoid_context,
    multiply_even,
    odd,
)
from tests.conftest import brute_force_endomorphisms, naive_power_mod


@contextmanager
def criterion(label: str, budget_seconds: float):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    elapsed = perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL"
    print(f"{status} {label} ({elapsed:.2f}s, budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"{label} exceeded {budget_seconds}s"


def test_criterion_1_rp_odd_is_integer_multiplication():
    """The degree map identifies M(C_2, n) with the integers under product."""
    with criterion("criterion 1: M(C_2, n) = Z_x via degree", 5.0):
        contexts = {n: monoid_context(make_cyclic(2), n) for n in range(11)}
        reference = [contexts[3].dhom(i) for i in range(2)]
        assert reference == [0, 1]
        for n, ctx in contexts.items():
            # identical degree table for every n, hence identical arithmetic
            assert [ctx.dhom(i) for i in range(2)] == reference
            # bijectivity: each integer is the degree of exactly one element
            for k in range(-1000, 1001):
                assert ctx.is_valid((k % 2, k))
                assert not ctx.is_valid((1 - k % 2, k))
        ctx = contexts[3]
        elements = [ctx.element(k % 2, k) for k in range(-1000, 1001)]
        multiply = ctx.multiply
        for x in elements:
            xk = x[1]
            for y in elements:
                prod = xk * y[1]
                if multiply(x, y) != (prod & 1, prod):
                    pytest.fail(f"product of {x} and {y} does not map to {prod}")


def test_criterion_2_unit_group_orders():
    """|E(C_m, n)| matches an independent scan of units with a^{n+1} = +-1."""
    with criterion("criterion 2: unit group orders for cyclic m=2..24", 10.0):
        for m in range(2, 25):
            g = make_cyclic(m)
            for n in range(1, 13):
                got = monoid_context(g, n).equivalence_group().order
                if m == 2:
                    assert got == 2, f"(m={m}, n={n})"
                    continue
                expected = sum(
                    1
                    for a in range(1, m)
                    if gcd(a, m) == 1
                    and naive_power_mod(a, n + 1, m) in (1, m - 1)
                )
                assert got == expected, f"(m={m}, n={n})"
        assert monoid_context(make_cyclic(5), 1).equivalence_group().order == 4
        assert monoid_context(make_cyclic(7), 2).equivalence_group().order == 6


def test_criterion_3_even_monoid_matches_integer_quotient():
    """Class arithmetic of M(RP^{2n}) agrees with multiplying representatives."""
    with criterion("criterion 3: RP^{2n} quotient arithmetic", 5.0):
        rng = range(-1000, 1001)
        canon = [canonicalize(k) for k in rng]
        for i, a in enumerate(rng):
            ca = canon[i]
            for j, b in enumerate(rng):
                if multiply_even(ca, canon[j]) != canonicalize(a * b):
                    pytest.fail(f"class product mismatch at ({a}, {b})")
        # the three relation families, exhaustively on classes
        odds = [odd(k) for k in range(-199, 200, 2)]
        for x in (A0, A2):
            for y in (A0, A2):
                assert multiply_even(x, y) is A0
            for b in odds:
                assert multiply_even(x, b) is x
                assert multiply_even(b, x) is x
        for b1 in odds:
            for b2 in odds:
                assert multiply_even(b1, b2) == odd(b1.k * b2.k)


def test_criterion_4_oracle_equivalence():
    """Monoid arithmetic and the independent self-map model always agree."""
    with criterion("criterion 4: oracle cross-check m<=30, n<=10", 60.0):
        for m in range(1, 31):
            g = make_cyclic(m)
            for n in range(0, 11):
                report = cross_check(g, n, 5 * m)
                assert report.passed, report.witness


def test_criterion_5_enumeration_counts():
    """Endomorphism counts for cyclic groups and Q8 match independent counts."""
    with criterion("criterion 5: |End|, |Aut| counts", 30.0):
        for m in range(1, 51):
            g = make_cyclic(m)
            phi = sum(1 for r in range(1, m + 1) if gcd(r, m) == 1)
            assert len(enumerate_endomorphisms(g)) == m
            assert len(enumerate_automorphisms(g)) == phi
        q8 = make_generalized_quaternion(8)
        expected = brute_force_endomorphisms(q8)
        assert len(enumerate_endomorphisms(q8)) == len(expected) == 28
        assert len(enumerate_automorphisms(q8)) == 24
        assert sum(1 for phi in expected if len(set(phi)) == 8) == 24


def test_criterion_6_validator_matches_law_checker():
    """Degree-table validation accepts exactly the tables satisfying the laws."""
    from spaceform import build_degree_hom
    from spaceform.errors import InvalidTableError, NotAHomomorphismError
    from tests.test_degree import independent_law_check

    with criterion("criterion 6: d-table validation iff laws hold", 30.0):
        rng = random.Random(6)
        for g in (make_cyclic(6), make_generalized_quaternion(8)):
            size = len(enumerate_endomorphisms(g))
            tables = [
                {i: rng.randrange(g.order) for i in range(size)} for _ in range(100)
            ]
            tables.append({i: 1 for i in range(size)})
            accepted_any = False
            witnessed_any = False
            for table in tables:
                try:
                    build_degree_hom(g, 1, table)
                    accepted = True
                except NotAHomomorphismError as exc:
                    accepted = False
                    assert exc.witness is not None
                    witnessed_any = True
                except InvalidTableError:
                    accepted = False
                assert accepted == independent_law_check(g, table)
                accepted_any |= accepted
            assert accepted_any and witnessed_any


def test_criterion_7_monoid_axioms():
    """Associativity, identity, and closure hold in every tested context."""
    with criterion("criterion 7: monoid axiom suites", 60.0):
        q8 = make_generalized_quaternion(8)
        q8_table = {i: 1 for i in range(len(enumerate_endomorphisms(q8)))}
        contexts = [
            monoid_context(make_cyclic(2), 3),
            monoid_context(make_cyclic(5), 1),
            monoid_context(make_cyclic(12), 2),
            monoid_context(make_cyclic(24), 8),
            monoid_context(q8, 1, q8_table),
        ]
        rng = random.Random(7)
        for ctx in contexts:
            m = ctx.group.order
            elems = list(ctx.elements_in_window(3 * m))
            ident = ctx.identity()
            for _ in range(10_000):
                x, y, z = (rng.choice(elems) for _ in range(3))
                xy = ctx.multiply(x, y)
                assert ctx.multiply(xy, z) == ctx.multiply(x, ctx.multiply(y, z))
                assert ctx.multiply(x, ident) == x
                assert ctx.multiply(ident, x) == x
            for x in elems:
                for y in elems:
                    assert ctx.is_valid(ctx.multiply(x, y))
