"""Property tests for the generator-image End(G) search and composition.

Groups are drawn at random: cyclic, generalized quaternion, direct
products of two small cyclics, and relabellings of those through
``make_from_table`` with the identity moved off index 0.  Every oracle
here is written in this file or in ``conftest`` and shares no code with
``spaceform.endomorphisms``.
"""

from __future__ import annotations

import gc
import sys
import weakref
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
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
from spaceform.errors import InvalidTableError, NotAHomomorphismError
from spaceform.groups import greedy_generators
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


@st.composite
def relabelled(draw, max_order: int):
    """A group given by a table whose identity is not at index 0."""
    g = draw(base_groups(max_order).filter(lambda g: g.order > 1))
    perm = draw(st.permutations(range(g.order)).filter(lambda p: p[0] != 0))
    table = [[0] * g.order for _ in range(g.order)]
    for x in range(g.order):
        for y in range(g.order):
            table[perm[x]][perm[y]] = perm[g.table[x][y]]
    return make_from_table(table)


def groups(max_order: int):
    return st.one_of(base_groups(max_order), relabelled(max_order))


def naive_composition_table(g, images: list[tuple[int, ...]]):
    """Compose full image arrays and look the result up by its whole array."""
    lookup = {a: i for i, a in enumerate(images)}
    return tuple(
        tuple(lookup[tuple(map(a.__getitem__, b))] for b in images) for a in images
    )


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


def naive_greedy_generators(table, ident: int) -> list[int]:
    """The smallest element outside the closure of {ident} under o s, for s chosen
    so far, recomputing that closure from scratch after every choice."""
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
        gens.append(min(set(range(len(table))) - reached))


@PROPERTY
@given(groups(24), st.data())
def test_greedy_generators_equal_naive_closure(g, data):
    assert greedy_generators(g.table) == naive_greedy_generators(g.table, 0)
    # the same group with its identity moved off index 0
    perm = data.draw(st.permutations(range(g.order)))
    table = [[0] * g.order for _ in range(g.order)]
    for x in range(g.order):
        for y in range(g.order):
            table[perm[x]][perm[y]] = perm[g.table[x][y]]
    assert greedy_generators(table, perm[0]) == naive_greedy_generators(table, perm[0])
    comp = endomorphisms.composition_table(g)
    ident = endomorphisms.identity_endomorphism(g).canonical_index
    assert greedy_generators(comp, ident) == naive_greedy_generators(comp, ident)


@PROPERTY
@given(groups(24))
def test_the_table_walk_records_the_greedy_monoid_generators(g):
    comp = endomorphisms.stored_composition_table(g)
    ident = endomorphisms.identity_endomorphism(g).canonical_index
    gens = tuple(greedy_generators(comp, ident))
    assert endomorphisms.stored_monoid_generators(g) == gens
    assert monoid_context(g, 1, {i: 1 for i in range(len(comp))}).generators == gens


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
    gens = greedy_generators(comp, ident)
    assert len(gens) == end_gens
    assert gens == naive_greedy_generators(comp, ident)
    assert endomorphisms.stored_monoid_generators(g) == tuple(gens)


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


@pytest.mark.parametrize(
    "g",
    [
        make_generalized_quaternion(8),
        make_generalized_quaternion(16),
        direct_product(make_cyclic(4), make_cyclic(2)),
    ],
    ids=repr,
)
def test_dtable_context_computes_composition_table_once(monkeypatch, g):
    calls = count_composition_tables(monkeypatch)
    size = len(enumerate_endomorphisms(g))
    ctx = monoid_context(g, 1, {i: 1 for i in range(size)})
    assert len(calls) == 1
    assert ctx.multiply(ctx.identity(), ctx.identity()) == ctx.identity()
    assert len(calls) == 1


def test_rejected_dtable_computes_composition_table_once(monkeypatch):
    g = make_cyclic(6)
    calls = count_composition_tables(monkeypatch)
    with pytest.raises(NotAHomomorphismError):
        monoid_context(g, 1, {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 1})
    assert len(calls) == 1


def test_builtin_context_computes_composition_table_once(monkeypatch):
    calls = count_composition_tables(monkeypatch)
    monoid_context(make_cyclic(9), 2)
    assert len(calls) == 1


def count_end_searches(monkeypatch) -> list:
    """Log each End(G) search: every search starts from ``greedy_generators``."""
    real = endomorphisms.greedy_generators
    calls = []

    def counting(table):
        calls.append(table)
        return real(table)

    monkeypatch.setattr(endomorphisms, "greedy_generators", counting)
    return calls


def test_one_group_computes_end_and_its_table_once(monkeypatch):
    g = make_cyclic(10)
    tables = count_composition_tables(monkeypatch)
    searches = count_end_searches(monkeypatch)
    contexts = [monoid_context(g, 1), monoid_context(g, 2)]
    assert not validate_degree_hom(contexts[1].dhom)
    assert cross_check(g, 2, 12).passed
    assert len(tables) == 1
    assert len(searches) == 1


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
