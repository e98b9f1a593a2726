"""Shared fixtures and independent oracles used across the suite."""

from __future__ import annotations

import pytest

from spaceform import make_cyclic, make_generalized_quaternion
from spaceform.cli import NAMED_GROUPS
from spaceform.endomorphisms import cayley_graph
from spaceform.groups import FiniteGroup


@pytest.fixture(autouse=True)
def no_kept_named_groups():
    """Every test starts with no group kept by ``cli.named_group``, so that no
    test sees End(G) built, or patched, by a test that ran before it."""
    NAMED_GROUPS.clear()


@pytest.fixture(scope="session")
def q8():
    return make_generalized_quaternion(8)


@pytest.fixture(scope="session")
def c12():
    return make_cyclic(12)


def with_composition(g, comp) -> FiniteGroup:
    """A fresh copy of ``g`` whose End(G) composition table reads ``comp``.

    The rows are written into the copy's Cayley graph, the one place a
    context reads products from, so that ``g``, which may be shared with
    other tests, keeps its own.
    """
    h = FiniteGroup(g.order, g.table, g.name)
    cayley_graph(h).rows[:] = map(tuple, comp)
    return h


def with_columns(g, columns) -> FiniteGroup:
    """A fresh copy of ``g`` whose End(G) Cayley graph reads ``columns``.

    ``columns[i][x]`` stands for x o ``generators[i]``.  The walk's
    generators and parent edges are kept, so every row the copy gathers
    is derived from ``columns``, as in ``with_composition`` for rows.
    """
    h = FiniteGroup(g.order, g.table, g.name)
    cayley_graph(h).columns = tuple(map(tuple, columns))
    return h


def brute_force_endomorphisms(g) -> set[tuple[int, ...]]:
    """Enumerate End(G) by backtracking over images of every element.

    Deliberately ignores generating sets: images are assigned element by
    element in index order, checking the homomorphism law against all
    previously assigned pairs.  Serves as an oracle for the pruned
    generator-image search.
    """
    n = g.order
    t = g.table
    results: set[tuple[int, ...]] = set()
    phi = [0] * n

    def consistent(upto: int) -> bool:
        return all(
            phi[t[a][b]] == t[phi[a]][phi[b]]
            for a in range(upto + 1)
            for b in range(upto + 1)
            if t[a][b] <= upto
        )

    def rec(i: int) -> None:
        if i == n:
            results.add(tuple(phi))
            return
        for img in range(n):
            phi[i] = img
            if consistent(i):
                rec(i + 1)

    rec(1)
    return results


def naive_power_mod(base: int, exp: int, mod: int) -> int:
    """Repeated multiplication, as an oracle for pow(base, exp, mod)."""
    acc = 1 % mod
    for _ in range(exp):
        acc = acc * base % mod
    return acc
