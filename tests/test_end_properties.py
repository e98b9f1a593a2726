"""Property tests for the generator-image End(G) search and composition.

Groups are drawn at random: cyclic, generalized quaternion, direct
products of two small cyclics, and relabellings of those through
``make_from_table`` with the identity moved off index 0.  The orbit search
is also drawn against :func:`exhaustive_search`, which extends every
candidate, on groups up to order 64 that include Q8 x C_k and Q16 x C2.
Every oracle here is written in this file or in ``conftest`` and shares
no code with ``spaceform.endomorphisms``.
"""

from __future__ import annotations

import gc
import random
import sys
import weakref
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from spaceform import (
    build_degree_hom,
    cross_check,
    direct_product,
    enumerate_endomorphisms,
    make_cyclic,
    make_from_table,
    make_generalized_quaternion,
    monoid_context,
    rank_one_check,
    validate_degree_hom,
)
from spaceform import endomorphisms
from spaceform.degree import DegreeHom
from spaceform.errors import InvalidTableError, NotAHomomorphismError, SizeCapError
from spaceform.groups import greedy_walk
from tests.conftest import brute_force_endomorphisms
from tests.test_degree import independent_law_check

PROPERTY = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def base_groups(max_order: int):
    cyclic = st.integers(1, max_order).map(make_cyclic)
    quaternion = st.sampled_from(
        [q for q in (8, 12, 16, 20, 24) if q <= max_order]
    ).map(make_generalized_quaternion)
    products = (
        st.tuples(st.integers(1, 6), st.integers(1, 6))
        .filter(lambda ab: ab[0] * ab[1] <= max_order)
        .map(lambda ab: direct_product(make_cyclic(ab[0]), make_cyclic(ab[1])))
    )
    return st.one_of(cyclic, quaternion, products)


def relabel(g, perm) -> list[list[int]]:
    """G's table under new labels: new[perm[x]][perm[y]] = perm[x*y]."""
    table = [[0] * g.order for _ in range(g.order)]
    for x in range(g.order):
        for y in range(g.order):
            table[perm[x]][perm[y]] = perm[g.table[x][y]]
    return table


@st.composite
def relabelled(draw, base):
    """A group drawn from ``base``, given by a table whose identity is not at index 0."""
    g = draw(base.filter(lambda g: g.order > 1))
    perm = draw(st.permutations(range(g.order)).filter(lambda p: p[0] != 0))
    return make_from_table(relabel(g, perm))


def groups(max_order: int):
    base = base_groups(max_order)
    return st.one_of(base, relabelled(base))


def search_groups():
    """Groups of order <= 64 for the End(G) search, also relabelled: cyclic,
    Q8-Q64, C_a x C_b, Q8 x C_k and Q16 x C2."""
    base = st.one_of(
        st.integers(1, 64).map(make_cyclic),
        st.sampled_from(range(8, 65, 4)).map(make_generalized_quaternion),
        st.tuples(st.integers(2, 32), st.integers(2, 32))
        .filter(lambda ab: ab[0] * ab[1] <= 64)
        .map(lambda ab: direct_product(make_cyclic(ab[0]), make_cyclic(ab[1]))),
        st.integers(1, 8).map(
            lambda k: direct_product(make_generalized_quaternion(8), make_cyclic(k))
        ),
        st.builds(
            direct_product, st.just(make_generalized_quaternion(16)), st.just(make_cyclic(2))
        ),
    )
    return st.one_of(base, relabelled(base))


def exhaustive_search(g) -> tuple[list[tuple[int, ...]] | None, int]:
    """End(G) as found by extending every candidate, and the number of candidates.

    The search without orbits: every image of the generators, chosen by the
    rule of ``FiniteGroup.generators``, whose order divides its generator's
    is extended along the right Cayley graph and kept if no edge conflicts.
    Returns the sorted image arrays, or None in their place when the
    candidates are more than ``MAX_CANDIDATES``.
    """
    t, n = g.table, g.order
    gens = naive_greedy_generators(t, 0, by_powers_outside(t))

    def extend(imgs: tuple[int, ...]) -> tuple[int, ...] | None:
        phi = {0: 0}
        queue = [0]
        for x in queue:  # the queue grows while it is walked
            for s, c in zip(gens, imgs):
                y, v = t[x][s], t[phi[x]][c]
                if y not in phi:
                    phi[y] = v
                    queue.append(y)
                elif phi[y] != v:
                    return None
        return tuple(phi[x] for x in range(n))

    orders = [naive_order(t, y) for y in range(n)]
    candidates = [[y for y in range(n) if orders[s] % orders[y] == 0] for s in gens]
    count = prod(map(len, candidates))
    if count > endomorphisms.MAX_CANDIDATES:
        return None, count
    found = [phi for phi in map(extend, product(*candidates)) if phi is not None]
    return sorted(found), count


def naive_composition_table(g, images: list[tuple[int, ...]]):
    """Compose full image arrays and look the result up by its whole array."""
    lookup = {a: i for i, a in enumerate(images)}
    return tuple(naive_row(images, lookup, a) for a in images)


def naive_row(images: list[tuple[int, ...]], lookup: dict, a: tuple[int, ...]):
    """Row a of :func:`naive_composition_table`, ``lookup`` its index of ``images``."""
    return tuple(lookup[tuple(map(a.__getitem__, b))] for b in images)


def naive_law_failures(
    g, values: list[int], images: list[tuple[int, ...]] | None = None
) -> list[tuple[str, tuple[int, ...], str]]:
    """The identity, multiplicativity and unit failures in the order d reports them.

    A full row-major scan of every pair; End(G) is found by backtracking
    unless its sorted image arrays are given.
    """
    m = g.order
    images = sorted(brute_force_endomorphisms(g)) if images is None else images
    comp = naive_composition_table(g, images)
    out = []
    ident = images.index(tuple(range(m)))
    if values[ident] != 1 % m:
        out.append(
            ("identity", (ident,),
             f"d(identity endo {ident}) = {values[ident]}, expected {1 % m}")
        )
    for i in range(len(images)):
        for j in range(len(images)):
            want = values[i] * values[j] % m
            if values[comp[i][j]] != want:
                out.append(
                    ("multiplicativity", (i, j),
                     f"d(endo {i} o endo {j}) = {values[comp[i][j]]} "
                     f"!= d({i})*d({j}) = {want} mod {m}")
                )
    for i, a in enumerate(images):
        if len(set(a)) == m and gcd(values[i], m) != 1:
            out.append(
                ("unit", (i,), f"automorphism {i} maps to non-unit {values[i]} mod {m}")
            )
    return out


@PROPERTY
@given(groups(12))
def test_enumeration_equals_backtracking(g):
    endos = enumerate_endomorphisms(g)
    assert [e.images for e in endos] == sorted(brute_force_endomorphisms(g))
    assert [e.canonical_index for e in endos] == list(range(len(endos)))
    assert all(e.is_automorphism == (len(set(e.images)) == g.order) for e in endos)


@settings(PROPERTY, max_examples=30)
@given(search_groups())
def test_orbit_search_equals_exhaustive_search(g):
    images, count = exhaustive_search(g)
    if images is None:
        # Ties between generators go to the least index, so a relabelling
        # could make them many: the search is then refused before it starts.
        with pytest.raises(SizeCapError, match=f"would search {count} candidate"):
            enumerate_endomorphisms(g)
        return
    endos = enumerate_endomorphisms(g)
    assert len(endos) == len(images)
    assert [e.images for e in endos] == images
    assert [e.canonical_index for e in endos] == list(range(len(images)))
    assert [e.is_automorphism for e in endos] == [len(set(x)) == g.order for x in images]


@pytest.mark.parametrize(
    "g", [make_generalized_quaternion(64), make_cyclic(128)], ids=repr
)
def test_orbit_search_extends_under_a_tenth_of_the_candidates(monkeypatch, g):
    real = endomorphisms._extend
    calls = []

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(endomorphisms, "_extend", counting)
    endos = enumerate_endomorphisms(g)
    images, candidates = exhaustive_search(g)
    assert [e.images for e in endos] == images
    assert 0 < len(calls) < candidates / 10
    assert len(set(calls)) == len(calls)  # no candidate is extended twice


@PROPERTY
@given(groups(24))
def test_composition_table_equals_full_image_composition(g):
    images = [e.images for e in enumerate_endomorphisms(g)]
    assert endomorphisms.composition_table(g) == naive_composition_table(g, images)


@PROPERTY
@given(groups(24), st.data())
def test_compose_and_identity_agree_with_full_images(g, data):
    endos = enumerate_endomorphisms(g)
    a, b = data.draw(st.sampled_from(endos)), data.draw(st.sampled_from(endos))
    assert endomorphisms.compose(a, b).images == tuple(a.images[v] for v in b.images)
    assert endomorphisms.identity_endomorphism(g).images == tuple(range(g.order))


@PROPERTY
@given(groups(24), st.integers(0, 3), st.data())
def test_multiply_agrees_with_full_image_composition(g, n, data):
    size = len(enumerate_endomorphisms(g))
    # the built-in d where there is one, else the all-ones table, lawful on every G
    table = None if g.cyclic_generator is not None else dict.fromkeys(range(size), 1)
    ctx = monoid_context(g, n, table)
    images = [e.images for e in ctx.endos]
    lookup = {a: i for i, a in enumerate(images)}
    element = st.builds(
        lambda a, t: (a, ctx.dhom.values[a] + g.order * t),
        st.integers(0, size - 1),
        st.integers(-50, 50),
    )
    pairs = data.draw(st.lists(st.tuples(element, element), min_size=1, max_size=20))
    for (xa, xk), (ya, yk) in pairs:
        result = ctx.multiply((xa, xk), (ya, yk))
        assert type(result) is tuple
        assert result == (lookup[tuple(images[xa][v] for v in images[ya])], xk * yk)
        assert ctx.is_valid(result)


@PROPERTY
@given(st.sampled_from([make_cyclic(6), make_generalized_quaternion(8),
                        direct_product(make_cyclic(2), make_cyclic(2))]),
       st.data())
def test_law_failures_keep_their_order_and_messages(g, data):
    size = len(enumerate_endomorphisms(g))
    values = data.draw(st.lists(st.integers(0, g.order - 1), min_size=size, max_size=size))
    expected = naive_law_failures(g, values)
    report_values = tuple(values)
    failures = validate_degree_hom(
        DegreeHom(group=g, n=1, values=report_values, provenance="user-supplied")
    )
    assert [(f.law, f.witness, f.message) for f in failures] == expected
    table = dict(enumerate(values))
    mult = [f for f in expected if f[0] == "multiplicativity"]
    if mult:
        with pytest.raises(NotAHomomorphismError) as exc:
            build_degree_hom(g, 1, table)
        assert exc.value.witness == mult[0][1]
        assert str(exc.value) == mult[0][2]
    elif expected:
        with pytest.raises(InvalidTableError) as exc:
            build_degree_hom(g, 1, table)
        assert str(exc.value) == "; ".join(f[2] for f in expected)
    else:
        assert build_degree_hom(g, 1, table).values == report_values


def lawful_dtables(g) -> list[list[int]]:
    """d-tables that satisfy every law on any G.

    All ones; 1 on Aut(G) and 0 elsewhere (a o b is bijective exactly when
    a and b are); and on a cyclic group the built-in d for n = 0..3.
    """
    endos = enumerate_endomorphisms(g)
    m = g.order
    tables = [[1 % m] * len(endos), [int(e.is_automorphism) % m for e in endos]]
    if g.cyclic_generator is not None:
        tables += [list(build_degree_hom(g, n).values) for n in range(4)]
    return tables


@PROPERTY
@given(groups(12), st.data())
def test_law_decision_agrees_with_independent_check(g, data):
    images = [e.images for e in enumerate_endomorphisms(g)]
    values = list(data.draw(st.sampled_from(lawful_dtables(g))))
    if g.order > 1 and data.draw(st.booleans()):  # corrupt one entry
        i = data.draw(st.integers(0, len(values) - 1))
        values[i] = data.draw(
            st.integers(0, g.order - 1).filter(lambda v: v != values[i])
        )
    table = dict(enumerate(values))
    try:
        build_degree_hom(g, 1, table)
        accepted = True
    except (NotAHomomorphismError, InvalidTableError):
        accepted = False
    assert accepted == independent_law_check(g, table)
    failures = validate_degree_hom(
        DegreeHom(group=g, n=1, values=tuple(values), provenance="user-supplied")
    )
    assert [(f.law, f.witness, f.message) for f in failures] == naive_law_failures(
        g, values, images
    )
    assert accepted == (not failures)


@pytest.mark.parametrize(
    "index, value, witness, count, last",
    [
        (3, 5, (0, 3), 387, ("multiplicativity", (131, 130))),
        (73, 16, (0, 73), 388, ("unit", (73,))),
    ],
    ids=["seed-1", "seed-2"],
)
def test_corrupted_q32_keeps_its_witness(index, value, witness, count, last):
    """The benchmark's corrupted Q32 d-tables (build workload, seeds 1 and 2)."""
    g = make_generalized_quaternion(32)
    values = [1] * len(enumerate_endomorphisms(g))
    values[index] = value
    with pytest.raises(NotAHomomorphismError) as exc:
        monoid_context(g, 1, dict(enumerate(values)))
    assert exc.value.witness == witness
    assert str(exc.value) == (
        f"d(endo 0 o endo {index}) = 1 != d(0)*d({index}) = {value} mod 32"
    )
    failures = validate_degree_hom(
        DegreeHom(group=g, n=1, values=tuple(values), provenance="user-supplied")
    )
    assert len(failures) == count
    assert (failures[-1].law, failures[-1].witness) == last


def naive_order(table, y: int) -> int:
    """ord(y) in a group table with identity 0, by multiplying up its powers."""
    k, acc = 1, y
    while acc != 0:
        acc, k = table[acc][y], k + 1
    return k


def by_powers_outside(table):
    """The rule for G's generators on a group table with identity 0, as a key
    on y outside the subgroup H reached so far: the most powers y, y^2, ...
    outside H first, then the least order, then the least index."""
    orders = [naive_order(table, y) for y in range(len(table))]

    def key(reached: set, y: int) -> tuple[int, int, int]:
        k, acc = 1, y
        while acc not in reached:
            acc, k = table[acc][y], k + 1
        return -k, orders[y], y

    return key


def naive_greedy_generators(table, ident: int, key=None) -> list[int]:
    """The least element by ``key(reached, y)`` (by index when None) outside
    the closure of {ident} under o s, for s chosen so far, recomputing that
    closure from scratch after every choice."""
    gens: list[int] = []
    while True:
        reached, todo = {ident}, [ident]
        while todo:
            row = table[todo.pop()]
            for s in gens:
                if row[s] not in reached:
                    reached.add(row[s])
                    todo.append(row[s])
        if len(reached) == len(table):
            return gens
        gens.append(least_outside(len(table), reached, key))


def least_outside(size: int, reached: set, key=None) -> int:
    """The least y of 0..size-1 outside ``reached`` by ``key(reached, y)``,
    by index when None."""
    rest = set(range(size)) - reached
    return min(rest, key=lambda y: key(reached, y)) if key else min(rest)


@PROPERTY
@given(groups(24), st.data())
def test_greedy_generators_equal_naive_closure(g, data):
    assert list(g.generators) == naive_greedy_generators(g.table, 0, by_powers_outside(g.table))
    # the same group with its identity moved off index 0
    perm = data.draw(st.permutations(range(g.order)))
    table = relabel(g, perm)
    assert table_walk_generators(table, perm[0]) == naive_greedy_generators(table, perm[0])
    h = make_from_table(table)
    assert list(h.generators) == naive_greedy_generators(h.table, 0, by_powers_outside(h.table))
    comp = endomorphisms.composition_table(g)
    ident = endomorphisms.identity_endomorphism(g).canonical_index
    assert table_walk_generators(comp, ident) == naive_greedy_generators(comp, ident)


def table_walk_generators(table, ident: int) -> list[int]:
    """The generators ``greedy_walk`` picks on a table's columns, trying the
    elements in index order, as End(G)'s walk does."""
    return greedy_walk(
        len(table), ident, lambda t: [row[t] for row in table], lambda r: r.index(False)
    )[0]


def check_greedy_walk(table, ident: int, key=None) -> tuple:
    """``greedy_walk`` on a table's columns, picking the least element by
    ``key(reached, y)`` (by index when None), against the table itself;
    returns the walk."""

    def pick(reached: list[bool]) -> int:
        return least_outside(len(table), {y for y, r in enumerate(reached) if r}, key)

    walk = greedy_walk(len(table), ident, lambda t: [row[t] for row in table], pick)
    gens, columns, order, parents = walk
    assert sorted(order) == list(range(len(table))) and order[0] == ident
    assert parents[ident] is None
    place = {y: i for i, y in enumerate(order)}
    column = dict(zip(gens, columns))
    for y in order[1:]:
        x, t = parents[y]
        assert place[x] < place[y]
        assert column[t][x] == table[x][t] == y
        assert (x == ident) == (y in gens)  # a generator's edge is (ident, t)
    assert gens == naive_greedy_generators(table, ident, key)
    return walk


@PROPERTY
@given(groups(24), st.data())
def test_greedy_walk_records_an_edge_into_each_element(g, data):
    assert tuple(check_greedy_walk(g.table, 0, by_powers_outside(g.table))[0]) == g.generators
    perm = data.draw(st.permutations(range(g.order)))  # the identity moved to perm[0]
    table = relabel(g, perm)
    check_greedy_walk(table, perm[0])
    comp = endomorphisms.composition_table(g)
    ident = endomorphisms.identity_endomorphism(g).canonical_index
    gens, columns, order, parents = check_greedy_walk(comp, ident)
    graph = endomorphisms.cayley_graph(g)
    assert graph.columns == tuple(map(tuple, columns))
    assert (graph.walk_order, graph._parents) == (tuple(order), parents)


@PROPERTY
@given(groups(24))
def test_the_table_walk_records_the_greedy_monoid_generators(g):
    comp = endomorphisms.composition_table(g)
    ident = endomorphisms.identity_endomorphism(g).canonical_index
    gens = tuple(table_walk_generators(comp, ident))
    assert endomorphisms.cayley_graph(g).generators == gens


C2 = make_cyclic(2)
HARD_SHAPES = [
    (make_cyclic(1), 0),
    (C2, 1),
    (direct_product(direct_product(C2, C2), C2), 56),
    (direct_product(make_cyclic(4), make_cyclic(8)), 33),
    (make_generalized_quaternion(64), 6),
]


@pytest.mark.parametrize("g, end_gens", HARD_SHAPES, ids=[repr(g) for g, _ in HARD_SHAPES])
def test_composition_table_on_hard_shapes(monkeypatch, g, end_gens):
    """One-element End, a single generator, 56 generators, |End| = 512 and 516."""
    images = [e.images for e in enumerate_endomorphisms(g)]
    searches = count_end_searches(monkeypatch)
    comp = endomorphisms.composition_table(g)
    assert searches == []  # the closure walk is no End(G) search
    assert comp == naive_composition_table(g, images)
    ident = images.index(tuple(range(g.order)))
    gens = table_walk_generators(comp, ident)
    assert len(gens) == end_gens
    assert gens == naive_greedy_generators(comp, ident)
    assert endomorphisms.cayley_graph(g).generators == tuple(gens)


def searched(g) -> list:
    """End(G) of a drawn group; a draw whose search is refused is rejected
    (ties between generators go to the least index, so a relabelling could
    make them many)."""
    try:
        return enumerate_endomorphisms(g)
    except SizeCapError:
        assume(False)


@settings(PROPERTY, max_examples=30)
@given(search_groups(), st.data())
def test_rows_gathered_on_demand_equal_full_image_composition(g, data):
    """Rows touched through ``multiply`` in a drawn order, each gathered with
    whatever ancestors it needs, equal the rows of the naive table."""
    endos = searched(g)
    images = [e.images for e in endos]
    lookup = {a: i for i, a in enumerate(images)}
    ctx = monoid_context(g, 1, dict.fromkeys(range(len(endos)), 1))  # lawful on every G
    index = st.integers(0, len(endos) - 1)
    touched = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=12))
    for x, y in touched:
        assert ctx.multiply((x, 1), (y, 1)) == (lookup[tuple(map(images[x].__getitem__,
                                                                 images[y]))], 1)
    rows = endomorphisms.cayley_graph(g).rows
    assert all(rows[x] is not None for x, _ in touched)
    for x, row in enumerate(rows):
        assert row is None or row == naive_row(images, lookup, images[x])


@settings(PROPERTY, max_examples=20)
@given(search_groups())
def test_stored_columns_equal_full_image_composition(g):
    images = [e.images for e in searched(g)]
    lookup = {a: i for i, a in enumerate(images)}
    graph = endomorphisms.cayley_graph(g)
    assert graph.columns == tuple(
        tuple(lookup[tuple(map(x.__getitem__, images[t]))] for x in images)
        for t in graph.generators
    )


@settings(PROPERTY, max_examples=30)
@given(search_groups(), st.data())
def test_rejection_names_the_first_failure_of_the_full_scan(g, data):
    """A one-entry-corrupted d-table is refused, its rows gathered on demand,
    at the first multiplicativity failure that ``validate_degree_hom`` names."""
    endos = searched(g)
    assume(g.order > 1 and len(endos) <= 600)  # the full scan makes |End|^2 products
    values = list(data.draw(st.sampled_from(lawful_dtables(g))))
    i = data.draw(st.integers(0, len(values) - 1))
    values[i] = data.draw(st.integers(0, g.order - 1).filter(lambda v: v != values[i]))
    try:
        build_degree_hom(g, 1, dict(enumerate(values)))
        witness = None
    except NotAHomomorphismError as exc:
        witness = exc.witness
    except InvalidTableError:
        witness = None
    failures = validate_degree_hom(DegreeHom(g, 1, tuple(values), "user-supplied"))
    first = next((f.witness for f in failures if f.law == "multiplicativity"), None)
    assert witness == first


def count_composition_tables(monkeypatch) -> list:
    """Patch composition_table wherever the package holds it; return the call log."""
    real = endomorphisms.composition_table
    calls = []

    def counting(g):
        calls.append(g)
        return real(g)

    for name, mod in list(sys.modules.items()):
        if name.startswith("spaceform") and getattr(mod, "composition_table", None) is real:
            monkeypatch.setattr(mod, "composition_table", counting)
    return calls


def gathered(g) -> list[int]:
    """The rows of End(G)'s composition table gathered so far."""
    return [i for i, row in enumerate(endomorphisms.cayley_graph(g).rows) if row is not None]


@pytest.mark.parametrize(
    "g",
    [
        make_generalized_quaternion(8),
        make_generalized_quaternion(16),
        direct_product(make_cyclic(4), make_cyclic(2)),
    ],
    ids=repr,
)
def test_dtable_context_builds_no_composition_table(monkeypatch, g):
    calls = count_composition_tables(monkeypatch)
    size = len(enumerate_endomorphisms(g))
    ctx = monoid_context(g, 1, {i: 1 for i in range(size)})
    assert calls == []
    assert gathered(g) == [ctx.identity_index]  # the law is decided on the columns
    assert ctx.multiply(ctx.identity(), ctx.identity()) == ctx.identity()
    assert calls == []


Q32_SEED_1 = dict.fromkeys(range(132), 1) | {3: 5}  # the build workload's, seed 1


@pytest.mark.parametrize(
    "g, table",
    [
        (make_cyclic(6), {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 1}),
        (make_generalized_quaternion(32), Q32_SEED_1),
    ],
    ids=["C6", "Q32"],
)
def test_rejected_dtable_gathers_no_row_after_its_witness(monkeypatch, g, table):
    calls = count_composition_tables(monkeypatch)
    with pytest.raises(NotAHomomorphismError) as exc:
        monoid_context(g, 1, table)
    assert calls == []
    row = exc.value.witness[0]
    ident = endomorphisms.identity_endomorphism(g).canonical_index
    assert row in gathered(g)
    assert all(i <= row for i in gathered(g) if i != ident)  # the identity's comes free


@pytest.mark.parametrize(
    "g, table",
    [
        (make_cyclic(12), None),
        (make_generalized_quaternion(16), dict.fromkeys(range(36), 1)),
        (direct_product(make_cyclic(4), make_cyclic(8)), dict.fromkeys(range(512), 1)),
    ],
    ids=repr,
)
def test_the_unit_group_gathers_only_unit_rows(g, table):
    """Every walk ancestor of a unit is a unit, so no other row is gathered."""
    ctx = monoid_context(g, 1, table)
    ctx.equivalence_group()
    assert gathered(g) == [e.canonical_index for e in ctx.endos if e.is_automorphism]


def test_builtin_context_builds_no_composition_table(monkeypatch):
    calls = count_composition_tables(monkeypatch)
    ctx = monoid_context(make_cyclic(9), 2)
    assert calls == []
    assert gathered(ctx.group) == [ctx.identity_index]


def count_end_searches(monkeypatch) -> list:
    """Log each End(G) search: every search walks G's Cayley graph once, by
    ``_cayley_edges``."""
    real = endomorphisms._cayley_edges
    calls = []

    def counting(g, gens):
        calls.append(g)
        return real(g, gens)

    monkeypatch.setattr(endomorphisms, "_cayley_edges", counting)
    return calls


class LoggedRows(list):
    """A row list that logs the index of every row written into it."""

    def __init__(self, rows):
        super().__init__(rows)
        self.log: list[int] = []

    def __setitem__(self, i, row):
        self.log.append(i)
        super().__setitem__(i, row)


def test_one_group_searches_end_once_and_gathers_each_row_once(monkeypatch):
    g = make_cyclic(10)
    tables = count_composition_tables(monkeypatch)
    searches = count_end_searches(monkeypatch)
    graph = endomorphisms.cayley_graph(g)
    monkeypatch.setattr(graph, "rows", LoggedRows(graph.rows))
    contexts = [monoid_context(g, 1), monoid_context(g, 2)]
    assert not validate_degree_hom(contexts[1].dhom)
    assert graph.rows.log == []  # the law holds on the columns
    assert cross_check(g, 2, 12).passed  # multiplies every pair
    ident = contexts[0].identity_index
    assert sorted(graph.rows.log) == [i for i in range(len(graph.rows)) if i != ident]
    assert tables == []
    assert len(searches) == 1


@pytest.mark.parametrize(
    "make, order, table",
    [(make_cyclic, 12, None), (make_generalized_quaternion, 16, dict.fromkeys(range(36), 1))],
    ids=["C12", "Q16"],
)
def test_end_and_its_cayley_graph_are_one_record_walked_once(monkeypatch, make, order, table):
    g = make(order)  # a fresh group: End(G) not yet searched
    real = endomorphisms.greedy_walk
    walks = []

    def counting(*args):
        walks.append(args[0])
        return real(*args)

    monkeypatch.setattr(endomorphisms, "greedy_walk", counting)
    record = endomorphisms.cayley_graph(g)
    assert record.endos == tuple(enumerate_endomorphisms(g))
    assert record.identity == endomorphisms.identity_endomorphism(g).canonical_index
    assert gathered(g) == [record.identity]  # the search gathers no other row
    contexts = [monoid_context(g, 1, table), monoid_context(g, 2, table)]
    contexts[0].equivalence_group()
    contexts[1].is_abelian()
    endomorphisms.composition_table(g)
    assert walks == [len(record.endos)]


def test_g_is_walked_for_generators_once(monkeypatch):
    """G's walk, when the group is built, serves Light's test and the End(G)
    search; End(G)'s walk serves its Cayley graph.  No other walk is made."""
    walks = []

    def counting(*args):
        walks.append(args)
        return greedy_walk(*args)

    monkeypatch.setattr("spaceform.groups.greedy_walk", counting)
    monkeypatch.setattr(endomorphisms, "greedy_walk", counting)
    ctx = monoid_context(make_cyclic(12), 1)
    ctx.equivalence_group().is_abelian()
    ctx.is_abelian()
    assert len(walks) == 2


def end_and_aut(g) -> tuple[int, int]:
    endos = enumerate_endomorphisms(g)
    return len(endos), sum(e.is_automorphism for e in endos)


@pytest.mark.parametrize("order, seed, counts", [(64, 5, (516, 512)), (128, 3, (2052, 2048))])
def test_a_relabelled_quaternion_table_is_searched_like_the_named_group(order, seed, counts):
    """Tables that a least-index choice of generators sent over the candidate
    cap (3 317 760 and 47 349 760 candidates)."""
    q = make_generalized_quaternion(order)
    perm = list(range(order))
    random.Random(seed).shuffle(perm)
    g = make_from_table(relabel(q, perm))
    assert len(g.generators) == 2
    assert end_and_aut(g) == end_and_aut(q) == counts


@settings(PROPERTY, max_examples=30)
@given(
    st.one_of(
        st.integers(1, 64).map(make_cyclic),
        st.sampled_from(range(8, 65, 4)).map(make_generalized_quaternion),
        st.just(direct_product(make_generalized_quaternion(8), make_cyclic(3))),
    ),
    st.data(),
)
def test_relabelled_space_forms_are_searched_like_the_named_group(g, data):
    """Never refused by the candidate cap, and the same |End| and |Aut|."""
    h = make_from_table(relabel(g, data.draw(st.permutations(range(g.order)))))
    assert end_and_aut(h) == end_and_aut(g)
    if g.name.startswith("C"):
        assert len(h.generators) == (g.order > 1)
    elif g.name.startswith("Q") and "x" not in g.name:
        assert len(h.generators) == 2


def candidates(g, gens) -> int:
    """The End(G) search's candidate count on generators ``gens``: per
    generator, the elements whose order divides its own."""
    orders = g.element_orders
    return prod(sum(orders[s] % o == 0 for o in orders) for s in gens)


C, Q = make_cyclic, make_generalized_quaternion
# products whose generators, taken by largest order alone, exceed the cap
# (C2 x Q64: 1 179 648 candidates), and C12 x C8 (884 736); with |End| and
# |Aut| where the search takes well under a second
PRODUCTS = [
    (C(2), Q(64), (8256, 4096)),
    (Q(64), C(2), (8256, 4096)),
    (C(4), Q(32), None),
    (Q(32), C(4), None),
    (C(8), Q(16), None),
    (Q(16), C(8), None),
    (C(14), Q(8), (3136, 1152)),
    (Q(8), C(14), (3136, 1152)),
    (C(16), Q(8), None),
    (Q(8), C(16), (5120, 1536)),
    (C(12), C(8), (1536, 256)),
]


@pytest.mark.parametrize(
    "a, b, counts", PRODUCTS, ids=[f"{a.name}x{b.name}" for a, b, _ in PRODUCTS]
)
def test_a_product_needs_no_more_candidates_than_by_index(a, b, counts):
    """G's generators never cost more candidates than the least-index rule's,
    which keeps each of these under the cap: none is refused."""
    g = direct_product(a, b)
    by_index = candidates(g, naive_greedy_generators(g.table, 0))
    assert candidates(g, g.generators) <= by_index <= endomorphisms.MAX_CANDIDATES
    if counts:
        assert end_and_aut(g) == counts


@settings(PROPERTY, max_examples=60)
@given(st.data())
def test_named_products_need_no_more_candidates_than_by_index(data):
    """C_m or Q_4k times C_m or Q_4k, up to order 128."""
    factor = st.one_of(
        st.integers(1, 64).map(make_cyclic),
        st.sampled_from(range(8, 65, 4)).map(make_generalized_quaternion),
    )
    a = data.draw(factor)
    b = data.draw(factor.filter(lambda b: a.order * b.order <= 128))
    g = direct_product(a, b)
    assert candidates(g, g.generators) <= candidates(g, naive_greedy_generators(g.table, 0))


def test_equal_groups_do_not_share_end():
    a, b = make_generalized_quaternion(8), make_generalized_quaternion(8)
    assert a == b and a is not b
    end_a, end_b = enumerate_endomorphisms(a), enumerate_endomorphisms(b)
    assert [e.images for e in end_a] == [e.images for e in end_b]
    assert all(e.group is a for e in end_a)
    assert all(e.group is b for e in end_b)


def test_group_and_its_contexts_are_freed():
    g = make_generalized_quaternion(16)
    size = len(enumerate_endomorphisms(g))
    ctx = monoid_context(g, 1, {i: 1 for i in range(size)})
    assert not validate_degree_hom(ctx.dhom)
    refs = [weakref.ref(g), weakref.ref(ctx), weakref.ref(ctx.endos[0])]
    del g, ctx
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def naive_power(g, x: int, e: int) -> int:
    """x^e by e multiplications."""
    acc = 0
    for _ in range(e):
        acc = g.table[acc][x]
    return acc


@PROPERTY
@given(groups(24))
def test_element_orders_and_rank_one_counts_match_a_power_loop(g):
    n = g.order
    orders = tuple(
        next(t for t in range(1, n + 1) if naive_power(g, x, t) == 0) for x in range(n)
    )
    assert g.element_orders == orders
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    counts = tuple(
        (p, sum(1 for x in range(n) if naive_power(g, x, p) == 0)) for p in primes
    )
    report = rank_one_check(g)
    assert report.counts == counts
    assert report.passed == all(c <= p for p, c in counts)
