"""Property tests for the exact checks that replaced brute-force scans.

- ``groups._check_table`` decides associativity by Light's test over a
  greedy generating set; the reference is the O(n^3) scan it replaced,
  and the triple it names must really fail.
- ``check`` decides closure of the window |k| <= 3|G| + 1 from the
  multiplicativity failures of ``validate_degree_hom``; the reference is
  the product of every pair of window elements.
- ``monoid_odd.monoid_axioms`` decides the axioms from d(id) and End(G)'s
  composition table by an identity check and Light's test; the reference
  is d(id) = 1 and every triple of the table, and each witness it
  returns is checked against the table.

The references are written out here and share no code with the package.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spaceform import (
    build_degree_hom,
    direct_product,
    identity_endomorphism,
    make_cyclic,
    make_from_table,
    make_generalized_quaternion,
    monoid_context,
)
from spaceform.degree import DegreeHom, validate_degree_hom
from spaceform.endomorphisms import composition_table, generating_set, stored_composition_table
from spaceform.errors import NotAGroupError, StructureError
from spaceform.groups import _check_table
from spaceform.monoid_odd import MonoidContext, monoid_axioms
from tests.test_end_properties import groups

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


def verdict(check, table):
    try:
        return ("group", check(table))
    except NotAGroupError as exc:
        return ("not a group", str(exc))


# a loop whose lexicographically first failing triple, (0*2)*0, is not the
# one Light's test meets first, (0*4)*0: 2 is no greedy generator
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
        got = verdict(_check_table, table)
        assert got[0] == verdict(brute_force_check_table, table)[0]
        assert got[0] == "group" or named_triple_fails(table, got[1])

    def test_the_named_triple_is_lights_not_the_first(self):
        assert verdict(brute_force_check_table, LOOP_6)[1].startswith(
            "associativity fails at (0*2)*0"
        )
        assert verdict(_check_table, LOOP_6) == (
            "not a group", "associativity fails at (0*4)*0 != 0*(4*0)"
        )

    def test_the_loops_include_groups_and_non_groups(self):
        rng = random.Random(4)
        verdicts = {
            verdict(brute_force_check_table, random_loop(base, rng, 1))[0]
            for base in BASES
            for _ in range(5)
        }
        assert verdicts == {"group", "not a group"}


def old_generating_set(g) -> list[int]:
    """The greedy generating set before the shared routine: two-sided closure."""
    gens: list[int] = []
    closure = {0}
    while len(closure) < g.order:
        x = min(set(range(g.order)) - closure)
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
    """D_n from a relabelled table, so the greedy generators may be two
    reflections: then the product of the cyclic subgroups they generate is
    not the whole group, and the closure must keep applying every generator."""
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
    assert generating_set(g) == old_generating_set(g)


@st.composite
def contexts(draw):
    """Contexts whose d or composition table may break the monoid laws."""
    g = draw(st.sampled_from(SMALL_GROUPS))
    n = draw(st.integers(0, 3))
    comp = [list(row) for row in composition_table(g)]
    size = len(comp)
    if draw(st.booleans()):  # one corrupted composition entry
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        comp[i][j] = draw(st.integers(0, size - 1))
    if g.cyclic_generator is not None and draw(st.booleans()):
        values = build_degree_hom(g, n).values
    else:  # a DegreeHom that need not be multiplicative, often with d(id) = 1
        values = draw(st.lists(st.integers(0, g.order - 1), min_size=size, max_size=size))
        if draw(st.booleans()):
            values[identity_endomorphism(g).canonical_index] = 1 % g.order
    dhom = DegreeHom(group=g, n=n, values=tuple(values), provenance="user-supplied")
    return MonoidContext(g, n, dhom, tuple(map(tuple, comp)))


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
    return MonoidContext(g, n, DegreeHom(g, n, tuple(values), "user-supplied"))


class TestClosure:
    @PROPERTY
    @given(stored_table_contexts())
    def test_same_answer_as_every_pair(self, ctx):
        elems = list(ctx.elements_in_window(3 * ctx.group.order + 1))
        every_pair = all(ctx.is_valid(ctx.multiply(x, y)) for x in elems for y in elems)
        laws = validate_degree_hom(ctx.dhom)
        assert every_pair == (not any(f.law == "multiplicativity" for f in laws))


# C_3 with d = 1 and the composition x o y = y: associative, every product
# valid, but the identity endomorphism is only a left identity
RIGHT_ZERO = MonoidContext(
    make_cyclic(3),
    1,
    DegreeHom(make_cyclic(3), 1, (1, 1, 1), "user-supplied"),
    ((0, 1, 2),) * 3,
)


def witness_fails(ctx, witness: str) -> bool:
    """Whether the failure that ``witness`` names holds in ``ctx``'s table and d."""
    comp, d, m, i = ctx._comp, ctx.dhom.values, ctx.group.order, ctx.identity_index
    ints = [int(v) for v in re.findall(r"\d+", witness)]
    if witness.startswith("(id, 1) is not an element: "):
        return ints[1:] == [i, d[i], m] and d[i] != 1 % m
    if witness.startswith("identity endo "):
        x, c = ints[1:]
        return ints[0] == i and comp[i][x] == c != x
    if " o identity endo " in witness:
        x, _, c = ints
        return ints[1] == i and comp[x][i] == c != x
    x, y, z, left, _, _, _, right = ints
    return ints[4:7] == [x, y, z] and comp[comp[x][y]][z] == left != right == comp[x][comp[y][z]]


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
        # Q32 with d = 1 and 54 o 9 -> 22: every product stays valid, and the
        # 10 000 sampled triples that decided this before met no failure
        q32 = make_generalized_quaternion(32)
        comp = [list(row) for row in stored_composition_table(q32)]
        comp[54][9] = 22
        dhom = build_degree_hom(q32, 1, {i: 1 for i in range(len(comp))})
        ctx = MonoidContext(q32, 1, dhom, tuple(map(tuple, comp)))
        witness = monoid_axioms(ctx)
        assert witness is not None
        assert witness_fails(ctx, witness)

    def test_each_witness_kind_names_a_real_failure(self):
        g = make_cyclic(4)
        dhom = build_degree_hom(g, 1)
        comp = [list(row) for row in composition_table(g)]
        comp[0][0] = 2  # d(0) = d(2) = 0: products stay valid, associativity breaks
        cases = {
            "(id, 1) is not an element: d(identity endo 1) = 0 mod 4": MonoidContext(
                g, 1, DegreeHom(g, 1, (0,) * 4, "user-supplied")
            ),
            "endo 0 o identity endo 1 = endo 1": RIGHT_ZERO,
            "(endo 0 o endo 0) o endo 2 = endo 0 != endo 0 o (endo 0 o endo 2) = endo 2": (
                MonoidContext(g, 1, dhom, tuple(map(tuple, comp)))
            ),
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
    comp, ident = ctx._comp, ctx.identity_index
    witness = monoid_axioms(ctx)
    d_ident_is_one = ctx.dhom.values[ident] == 1 % ctx.group.order
    assert (witness is None) == (d_ident_is_one and every_triple_is_a_monoid(comp, ident))
    assert witness is None or witness_fails(ctx, witness)
