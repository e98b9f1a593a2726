"""Property tests for the exact checks that replaced brute-force scans.

- ``groups._finish`` decides associativity by Light's test over the
  group's generators; the reference is the O(n^3) scan it replaced,
  and the triple it names must really fail.
- ``check`` decides closure of the window |k| <= 3|G| + 1 from the
  multiplicativity failures of ``validate_degree_hom``; the reference is
  the product of every pair of window elements.
- ``monoid_odd.monoid_axioms`` decides the axioms from d(id), the
  identity endomorphism's images and the columns of End(G)'s Cayley graph,
  each entry x o t checked against x's images at t's; the columns, End(G)'s
  or one entry corrupted by ``conftest.with_columns``, are read where every
  context reads them, off the group's record.  The reference is d(id) = 1
  and the columns of the naive composition of image arrays; a pass also
  means that ``composition_table`` is that naive table, in which every
  triple associates, and each witness it returns is checked against the
  record.
- ``MonoidContext.is_abelian`` compares only End(G)'s monoid generators,
  pairwise, off the columns of its Cayley graph, and
  ``EquivalenceGroup.is_abelian`` compares the unit group's table with its
  transpose; the reference compares every pair, on End(G) tables and
  unit-group tables, the identity anywhere.
- ``groups._finish`` scans the columns only to name a failure; the
  reference is the full check, on tables whose rows permute but whose
  columns need not.
- ``MonoidContext.equivalence_group`` reads products off End(G)'s rows,
  gathering the units' rows alone,
  ``make_cyclic`` builds its rows as slices and ``degree.endo_residue``
  reads a stored discrete log; the references are ``multiply``,
  (i + j) mod m and the walk z, z^2, ... to the image of z.

The references are written out here and share no code with the package.
"""

from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spaceform import (
    build_degree_hom,
    direct_product,
    enumerate_endomorphisms,
    identity_endomorphism,
    make_cyclic,
    make_from_table,
    make_generalized_quaternion,
    monoid_context,
)
from spaceform.degree import DegreeHom, endo_residue, validate_degree_hom
from spaceform.endomorphisms import cayley_graph, composition_table
from spaceform.errors import NotAGroupError, StructureError
from spaceform.groups import FiniteGroup, _check_table, _finish
from spaceform.monoid_odd import EquivalenceGroup, MonoidContext, monoid_axioms
from tests.conftest import with_columns
from tests.test_end_properties import (
    by_powers_outside,
    groups,
    least_outside,
    naive_composition_table,
    relabel,
    table_walk_generators,
)

PROPERTY = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SMALL_GROUPS = (
    *(make_cyclic(n) for n in range(1, 13)),
    make_generalized_quaternion(8),
    direct_product(make_cyclic(2), make_cyclic(4)),
)
BASES = tuple(g.table for g in SMALL_GROUPS)


def brute_force_check_table(table) -> int:
    """The validator before Light's test: every triple (x, y, z) is checked."""
    n = len(table)
    elems = set(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise StructureError(f"row {i} has length {len(row)}, expected {n}")
        if set(row) != elems:
            raise StructureError(f"row {i} is not a permutation of 0..{n - 1}")
    for j in range(n):
        if {row[j] for row in table} != elems:
            raise StructureError(f"column {j} is not a permutation of 0..{n - 1}")
    identity_row = tuple(range(n))
    ident = next((e for e, row in enumerate(table) if row == identity_row), None)
    if ident is None or any(row[ident] != x for x, row in enumerate(table)):
        raise NotAGroupError("table has no two-sided identity")
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    raise NotAGroupError(
                        f"associativity fails at ({x}*{y})*{z} != {x}*({y}*{z})"
                    )
    return ident


def random_loop(base, rng: random.Random, switches: int) -> tuple[tuple[int, ...], ...]:
    """A normalised isotope of ``base``, after ``switches`` row-cycle switches.

    The isotope a[base[b[x]][c[y]]] is a Latin square; a row-cycle switch
    (swap two rows on one cycle of columns) keeps it Latin and usually
    breaks associativity; normalising by x o y = L[R_v^-1 x][L_u^-1 y]
    gives a loop with identity L[u][v].
    """
    n = len(base)
    a, b, c = (rng.sample(range(n), n) for _ in range(3))
    sq = [[a[base[b[x]][c[y]]] for y in range(n)] for x in range(n)]
    for _ in range(switches if n > 1 else 0):
        r1, r2 = rng.sample(range(n), 2)
        cols = [rng.randrange(n)]
        while True:
            nxt = sq[r1].index(sq[r2][cols[-1]])
            if nxt == cols[0]:
                break
            cols.append(nxt)
        for col in cols:
            sq[r1][col], sq[r2][col] = sq[r2][col], sq[r1][col]
    u, v = rng.randrange(n), rng.randrange(n)
    right_inv = {sq[x][v]: x for x in range(n)}
    left_inv = {sq[u][y]: y for y in range(n)}
    return tuple(
        tuple(sq[right_inv[x]][left_inv[y]] for y in range(n)) for x in range(n)
    )


def product_table(a, b) -> tuple[tuple[int, ...], ...]:
    """The direct product of two loops, the pair (x, y) encoded as x*|b| + y."""
    nb = len(b)
    return tuple(
        tuple(a[x // nb][y // nb] * nb + b[x % nb][y % nb] for y in range(len(a) * nb))
        for x in range(len(a) * nb)
    )


@st.composite
def loops(draw):
    """Random loops, alone or times a group on either side.

    In a product with a group the group's elements associate with
    everything, so Light's test must not stop at the first generators.
    """
    rng = draw(st.randoms(use_true_random=False))
    loop = random_loop(draw(st.sampled_from(BASES)), rng, draw(st.integers(0, 3)))
    if len(loop) > 6 or draw(st.booleans()):
        return loop
    group = draw(st.sampled_from(BASES[1:4]))
    return draw(st.sampled_from([product_table(loop, group), product_table(group, loop)]))


def lights_test(table) -> int:
    """The validator that runs Light's test, ``groups._finish``; returns the
    identity's index, as ``_check_table`` finds it."""
    _finish(table, "")
    return _check_table(table)


def verdict(check, table):
    try:
        return ("group", check(table))
    except NotAGroupError as exc:
        return ("not a group", str(exc))
    except StructureError as exc:
        return ("not a Latin square", str(exc))


# a loop whose lexicographically first failing triple, (0*2)*0, is not the
# one Light's test meets first, (0*5)*0: 2 is not among G's generators
LOOP_6 = (
    (2, 0, 3, 5, 1, 4),
    (0, 1, 2, 3, 4, 5),
    (3, 2, 5, 4, 0, 1),
    (1, 3, 4, 2, 5, 0),
    (5, 4, 0, 1, 2, 3),
    (4, 5, 1, 0, 3, 2),
)


def named_triple_fails(table, message: str) -> bool:
    """Whether the triple in "associativity fails at (x*y)*z ..." fails in ``table``."""
    match = re.match(r"associativity fails at \((\d+)\*(\d+)\)\*(\d+) ", message)
    x, y, z = map(int, match.groups())
    return table[table[x][y]][z] != table[x][table[y][z]]


class TestLightsTest:
    @PROPERTY
    @given(loops())
    @example(LOOP_6)
    def test_same_verdict_as_the_full_scan_and_a_failing_triple(self, table):
        got = verdict(lights_test, table)
        assert got[0] == verdict(brute_force_check_table, table)[0]
        assert got[0] == "group" or named_triple_fails(table, got[1])

    def test_the_named_triple_is_lights_not_the_first(self):
        assert verdict(brute_force_check_table, LOOP_6)[1].startswith(
            "associativity fails at (0*2)*0"
        )
        assert verdict(lights_test, LOOP_6) == (
            "not a group", "associativity fails at (0*5)*0 != 0*(5*0)"
        )

    @PROPERTY
    @given(st.data())
    def test_a_repeated_column_is_named_as_by_the_full_check(self, data):
        """Rows that permute, often with a two-sided identity, columns at random."""
        n = data.draw(st.integers(2, 7))
        ident = data.draw(st.integers(0, n - 1))
        two_sided = data.draw(st.booleans())
        table = []
        for x in range(n):
            row = data.draw(st.permutations(range(n)))
            if x == ident:
                row = range(n)
            elif two_sided:  # move x to column ident
                row = list(row)
                at = row.index(x)
                row[at], row[ident] = row[ident], x
            table.append(tuple(row))
        want = verdict(brute_force_check_table, tuple(table))
        got = verdict(lights_test, tuple(table))
        assert got[0] == want[0]
        assert got == want or got[0] == "not a group"  # Light may name another triple

    def test_the_loops_include_groups_and_non_groups(self):
        rng = random.Random(4)
        verdicts = {
            verdict(brute_force_check_table, random_loop(base, rng, 1))[0]
            for base in BASES
            for _ in range(5)
        }
        assert verdicts == {"group", "not a group"}


def old_generating_set(g, key=None) -> list[int]:
    """The generating set by two-sided closure, as before the shared routine,
    each next generator the least outside the closure by ``key(closure, y)``
    (by index when None)."""
    gens: list[int] = []
    closure = {0}
    while len(closure) < g.order:
        x = least_outside(g.order, closure, key)
        gens.append(x)
        frontier = [x]
        closure.add(x)
        while frontier:
            a = frontier.pop()
            for b in list(closure):
                for c in (g.table[a][b], g.table[b][a]):
                    if c not in closure:
                        closure.add(c)
                        frontier.append(c)
    return gens


@st.composite
def dihedral_groups(draw):
    """D_n from a relabelled table, so the generators tried in index order
    may be two reflections: then the product of the cyclic subgroups they
    generate is not the whole group, and the closure must keep applying every
    generator."""
    n = draw(st.integers(3, 8))

    def mul(a: int, b: int) -> int:  # r^i s^f encoded as f*n + i
        (f, i), (g, j) = divmod(a, n), divmod(b, n)
        return (f ^ g) * n + (i + (-j if f else j)) % n

    perm = draw(st.permutations(range(2 * n)))
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for a in range(2 * n):
        for b in range(2 * n):
            table[perm[a]][perm[b]] = perm[mul(a, b)]
    return make_from_table(table)


@settings(max_examples=100, deadline=None)
@given(st.one_of(groups(32), dihedral_groups()))
def test_generating_set_is_unchanged(g):
    """G's generators by their rule, and the walk in index order as End(G)'s
    walk makes it."""
    assert list(g.generators) == old_generating_set(g, by_powers_outside(g.table))
    assert table_walk_generators(g.table, 0) == old_generating_set(g)


@st.composite
def contexts(draw):
    """Contexts whose d or Cayley-graph columns may break the monoid laws."""
    g = draw(st.sampled_from(SMALL_GROUPS))
    n = draw(st.integers(0, 3))
    columns = [list(col) for col in cayley_graph(g).columns]
    size = len(enumerate_endomorphisms(g))
    if columns and draw(st.booleans()):  # one corrupted column entry
        i, x = draw(st.integers(0, len(columns) - 1)), draw(st.integers(0, size - 1))
        columns[i][x] = draw(st.integers(0, size - 1))
    if g.cyclic_generator is not None and draw(st.booleans()):
        values = build_degree_hom(g, n).values
    else:  # a DegreeHom that need not be multiplicative, often with d(id) = 1
        values = draw(st.lists(st.integers(0, g.order - 1), min_size=size, max_size=size))
        if draw(st.booleans()):
            values[identity_endomorphism(g).canonical_index] = 1 % g.order
    h = with_columns(g, columns)
    return MonoidContext(DegreeHom(h, n, tuple(values), "user-supplied"))


@st.composite
def stored_table_contexts(draw):
    """Contexts over End(G)'s stored composition table whose d may or may not
    be multiplicative: the built-in d or d = 1, kept, with one entry changed,
    or replaced by arbitrary residues."""
    g = draw(st.sampled_from(SMALL_GROUPS))
    n = draw(st.integers(0, 3))
    size = len(composition_table(g))
    if g.cyclic_generator is not None and draw(st.booleans()):
        values = list(build_degree_hom(g, n).values)
    else:
        values = [1 % g.order] * size
    residues = st.integers(0, g.order - 1)
    kind = draw(st.sampled_from(["kept", "one changed", "arbitrary"]))
    if kind == "one changed":
        values[draw(st.integers(0, size - 1))] = draw(residues)
    elif kind == "arbitrary":
        values = draw(st.lists(residues, min_size=size, max_size=size))
    return MonoidContext(DegreeHom(g, n, tuple(values), "user-supplied"))


class TestClosure:
    @PROPERTY
    @given(stored_table_contexts())
    def test_same_answer_as_every_pair(self, ctx):
        elems = list(ctx.elements_in_window(3 * ctx.group.order + 1))
        every_pair = all(ctx.is_valid(ctx.multiply(x, y)) for x in elems for y in elems)
        laws = validate_degree_hom(ctx.dhom)
        assert every_pair == (not any(f.law == "multiplicativity" for f in laws))


def user_context(g, values) -> MonoidContext:
    return MonoidContext(DegreeHom(g, 1, tuple(values), "user-supplied"))


# C_3 with d = 1 and every column entry x o t = t: lawful for d, but the
# composition of 0 (x -> 0) with 2 (x -> -x) is 0, not 2
RIGHT_ZERO = user_context(with_columns(make_cyclic(3), ((0, 0, 0), (2, 2, 2))), (1, 1, 1))


def with_record(g, identity: int | None = None, images: dict | None = None):
    """A fresh copy of ``g`` whose End(G) record names another identity, or
    holds other image arrays ({index: images}) for some endomorphisms."""
    h = FiniteGroup(g.order, g.table, g.name)
    graph = cayley_graph(h)
    graph.identity = graph.identity if identity is None else identity
    graph.endos = tuple(
        dataclasses.replace(e, images=(images or {}).get(i, e.images))
        for i, e in enumerate(graph.endos)
    )
    return h


def naive_columns(g) -> tuple[tuple[int, ...], ...]:
    """The columns x -> x o t of End(G)'s record, t its generators, read off
    the test-side composition of full image arrays."""
    naive = naive_composition_table(g, [e.images for e in enumerate_endomorphisms(g)])
    return tuple(tuple(row[t] for row in naive) for t in cayley_graph(g).generators)


def witness_fails(ctx, witness: str) -> bool:
    """Whether the failure that ``witness`` names holds in ``ctx``'s record and d."""
    g, d, i, m = ctx.group, ctx.dhom.values, ctx.identity_index, ctx.group.order
    images = [e.images for e in enumerate_endomorphisms(g)]
    ints = [int(v) for v in re.findall(r"\d+", witness)]
    if witness.startswith("(id, 1) is not an element: "):
        return ints[1:] == [i, d[i], m] and d[i] != 1 % m
    if witness.startswith("identity endo "):
        return ints == [i, *images[i]] and images[i] != tuple(range(m))
    x, t, c = ints[:3]
    column = cayley_graph(g).columns[cayley_graph(g).generators.index(t)]
    composed = tuple(images[x][images[t][y]] for y in range(m))
    if witness.endswith("gives an array outside End(G)"):
        return column[x] == c and composed not in images
    return column[x] == c != ints[3] == images.index(composed)


class TestAxiomSuite:
    def test_sound_context_passes(self, monkeypatch):
        def no_element(*args):
            pytest.fail("a window element was built or multiplied")

        sound = [
            monoid_context(make_cyclic(6), 2),
            monoid_context(make_cyclic(12), 2),
            monoid_context(make_generalized_quaternion(8), 1, {i: 1 for i in range(28)}),
        ]
        monkeypatch.setattr(MonoidContext, "elements_in_window", no_element)
        monkeypatch.setattr(MonoidContext, "multiply", no_element)
        for ctx in sound:
            assert monoid_axioms(ctx) is None

    def test_a_corruption_that_keeps_d_is_reported(self):
        # Q32 with d = 1 and 54 o 3 -> 22 in one column: every product stays
        # valid, so only the columns show the failure
        q32 = make_generalized_quaternion(32)
        graph = cayley_graph(q32)
        columns = [list(col) for col in graph.columns]
        columns[graph.generators.index(3)][54] = 22
        ones = dict.fromkeys(range(len(graph.endos)), 1)
        ctx = monoid_context(with_columns(q32, columns), 1, ones)
        witness = monoid_axioms(ctx)
        assert witness is not None
        assert witness_fails(ctx, witness)

    def test_each_witness_kind_names_a_real_failure(self):
        c3, c4 = make_cyclic(3), make_cyclic(4)
        cases = {
            "(id, 1) is not an element: d(identity endo 1) = 0 mod 4": user_context(
                c4, (0,) * 4
            ),
            "identity endo 0 has images [0, 0, 0]": user_context(
                with_record(c3, identity=0), (1, 1, 1)
            ),
            "endo 0 o endo 2 = endo 2, but composing their images gives endo 0": RIGHT_ZERO,
            # 2's images (1, 2, 0), no endomorphism: 2 o 0 has images (1, 1, 1)
            "endo 2 o endo 0 = endo 0, but composing their images gives an array "
            "outside End(G)": user_context(with_record(c3, images={2: (1, 2, 0)}), (1, 1, 1)),
        }
        for witness, ctx in cases.items():
            assert monoid_axioms(ctx) == witness
            assert witness_fails(ctx, witness)


def every_triple_is_a_monoid(comp, ident) -> bool:
    """Both identity laws for ``ident`` and associativity of every triple."""
    n = len(comp)
    return all(comp[ident][x] == x == comp[x][ident] for x in range(n)) and all(
        comp[comp[x][y]][z] == comp[x][comp[y][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


@PROPERTY
@given(contexts())
@example(RIGHT_ZERO)
def test_exact_decision_agrees_with_every_triple(ctx):
    """None exactly when d(id) = 1 and the record's columns are the naive
    ones; then the table is the naive one, and every triple associates."""
    g, ident = ctx.group, ctx.identity_index
    witness = monoid_axioms(ctx)
    d_ident_is_one = ctx.dhom.values[ident] == 1 % g.order
    columns_are_naive = cayley_graph(g).columns == naive_columns(g)
    assert (witness is None) == (d_ident_is_one and columns_are_naive)
    assert witness is None or witness_fails(ctx, witness)
    if witness is None:
        comp = composition_table(g)
        assert comp == naive_composition_table(g, [e.images for e in ctx.endos])
        assert every_triple_is_a_monoid(comp, ident)


def commutes_pairwise(table) -> bool:
    """x*y = y*x for every pair."""
    return all(row[y] == table[y][x] for x, row in enumerate(table) for y in range(x))


def ones_context(g, n: int):
    """M(G, n) with the built-in d for a cyclic G, else d = 1."""
    table = None if g.cyclic_generator is not None else {
        i: 1 for i in range(len(composition_table(g)))
    }
    return monoid_context(g, n, table)


class TestCommutativity:
    @PROPERTY
    @given(groups(24), st.integers(0, 3))
    def test_same_answer_as_every_pair(self, g, n):
        ctx = ones_context(g, n)
        assert ctx.is_abelian() == commutes_pairwise(composition_table(g))
        eg = ctx.equivalence_group()
        assert eg.is_abelian() == commutes_pairwise(eg.table)

    @PROPERTY
    @given(groups(24), st.integers(0, 3), st.data())
    def test_the_identity_may_sit_anywhere(self, g, n, data):
        """The unit group with its elements listed in a drawn order."""
        eg = ones_context(g, n).equivalence_group()
        perm = data.draw(st.permutations(range(eg.order)))
        elements = [None] * eg.order
        for x, p in enumerate(perm):
            elements[p] = eg.elements[x]
        moved = EquivalenceGroup(tuple(elements), tuple(map(tuple, relabel(eg, perm))))
        assert moved.is_abelian() == commutes_pairwise(moved.table) == eg.is_abelian()

    def test_both_answers_occur(self):
        # End(C_m) is Z/m under multiplication; End(C2 x C2) holds 2x2 matrices
        klein = direct_product(make_cyclic(2), make_cyclic(2))
        assert ones_context(make_cyclic(12), 1).is_abelian()
        assert not ones_context(klein, 1).is_abelian()
        assert not ones_context(klein, 1).equivalence_group().is_abelian()


def units_by_multiply(ctx):
    """The unit group's table as it was built: every pair through ``multiply``."""
    elems = ctx.equivalence_group().elements
    pos = {x: i for i, x in enumerate(elems)}
    return tuple(tuple(pos[ctx.multiply(x, y)] for y in elems) for x in elems)


@PROPERTY
@given(
    st.one_of(
        st.tuples(st.integers(1, 40).map(make_cyclic), st.integers(0, 4)),
        st.tuples(
            st.sampled_from([8, 12, 16, 20, 24, 32]).map(make_generalized_quaternion),
            st.integers(1, 2),
        ),
    )
)
@example((make_cyclic(1), 0))
@example((make_cyclic(2), 3))
def test_unit_table_equals_the_one_built_by_multiply(case):
    g, n = case
    ctx = ones_context(g, n)
    assert ctx.equivalence_group().table == units_by_multiply(ctx)


def test_cyclic_tables_are_addition_mod_m():
    for m in range(1, 129):
        assert make_cyclic(m).table == tuple(
            tuple((i + j) % m for j in range(m)) for i in range(m)
        )


def residue_by_walk(e) -> int:
    """The walk endo_residue replaced: z, z^2, ... until e(z)."""
    g = e.group
    z = g.cyclic_generator
    acc, r = 0, 0
    while acc != e.images[z]:
        acc = g.table[acc][z]
        r += 1
    return r


@PROPERTY
@given(st.integers(1, 40), st.randoms(use_true_random=False))
def test_endo_residue_equals_the_walk_on_relabelled_cyclic_tables(m, rng):
    label = rng.sample(range(m), m)
    table = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            table[label[x]][label[y]] = label[(x + y) % m]
    g = make_from_table(table)
    assert [endo_residue(e) for e in enumerate_endomorphisms(g)] == [
        residue_by_walk(e) for e in enumerate_endomorphisms(g)
    ]
