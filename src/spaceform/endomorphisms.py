"""Exhaustive enumeration of End(G) and Aut(G) over Cayley-table groups.

An endomorphism is fixed by its images on a generating set S (greedy
closure), so the search runs over generator images only: |G|^|S|
candidates instead of |G|^|G|, minus every candidate image whose order
does not divide the order of its generator.  A candidate is extended
by a breadth-first walk of the right Cayley graph from phi(0) = 0,
checking phi(x*s) = phi(x)*phi(s) on every edge (x, s) with s in S.
Those |G|*|S| edge checks imply the homomorphism law on all of G x G
(Holt, Eick & O'Brien, Handbook of Computational Group Theory, ch. 2-3).
The candidates are counted first, and a search above
:data:`MAX_CANDIDATES` is refused before it starts.

Most candidates are decided without being extended.  For an automorphism
a, a o phi is an endomorphism exactly when phi is one (phi is
a^-1 o (a o phi)), and its images on S are a(phi(s)).  So the group A of
automorphisms found so far acts on the candidates by c -> a(c), and one
extension decides a whole orbit: either every candidate in it extends to
no endomorphism, or the orbit is {a o phi : a in A}.  The loop takes the
candidates in product order and extends those not yet decided.  A failure
refuses its orbit, a non-injective phi adds its orbit to End(G), and a new
automorphism grows A to <A, phi> by the walk that :func:`composition_table`
uses.  An orbit is walked by A's generators alone, one gather a step.
Each candidate is decided as extending it would decide it, so End(G), its
order and its indexing are those of the exhaustive search; Q64 extends 93
of its 2304 candidates, C128 11 of 128.  A group with one generator is
cyclic, and there every candidate extends, so a refused candidate has two
images or more.

Composition is keyed the same way: a o b is found by its images on S,
a(b(s)).  The composition table composes that way only the rows of the
greedy monoid generators T of End(G); every other row is a gather,
row(x o t)[j] = row(x)[row(t)[j]], along End(G)'s right Cayley graph
from the identity.  That is |T| |End| |S| lookups plus one gather of
|End| entries per row, instead of |End|^2 |S| lookups.  T is kept with
the table, for the checks that decide a property of End(G) on its
generators: d's multiplicativity, Light's test and commutativity.

End(G) lives on the FiniteGroup it describes, in its ``__dict__`` (see
:func:`_enumerate`), with its composition table, computed once.  Two group
objects share nothing, even when equal, and End(G) is freed with its group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import prod
from operator import itemgetter

from .errors import DomainMismatchError, SizeCapError
from .groups import FiniteGroup, greedy_generators, max_order

# The End(G) search refuses more candidate generator images than this.  No
# group that acts freely on a sphere within the order cap comes near it
# (Q128 has 8.7e3); C2^6, which acts freely on none, has 6.9e10.
MAX_CANDIDATES = 10**6


@dataclass(frozen=True)
class Endomorphism:
    """A homomorphism G -> G stored as its image array."""

    group: FiniteGroup
    images: tuple[int, ...]
    is_automorphism: bool
    canonical_index: int

    def __call__(self, x: int) -> int:
        return self.images[x]


def _cayley_edges(g: FiniteGroup, gens: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Edges (x, i, x*gens[i]) of the right Cayley graph, in BFS order from 0.

    Every edge's source is reached by an earlier edge (or is 0).
    """
    t = g.table
    seen = [False] * g.order
    seen[0] = True
    queue = [0]
    edges = []
    for x in queue:  # the queue grows while it is walked
        for i, s in enumerate(gens):
            y = t[x][s]
            edges.append((x, i, y))
            if not seen[y]:
                seen[y] = True
                queue.append(y)
    return edges


def _extend(
    g: FiniteGroup, edges: list[tuple[int, int, int]], imgs: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Extend generator images to a full endomorphism, or None on conflict.

    phi(x*s) = phi(x)*phi(s) holds on every Cayley-graph edge of a
    returned image array, hence on all of G x G.
    """
    t = g.table
    phi = [-1] * g.order
    phi[0] = 0
    for x, i, y in edges:
        v = t[phi[x]][imgs[i]]
        if phi[y] < 0:
            phi[y] = v
        elif phi[y] != v:
            return None
    return tuple(phi)


@dataclass(eq=False)
class _EndData:
    """End(G) in canonical order, indexed by images of the generating set.

    ``monoid_gens`` are End(G)'s greedy monoid generators, recorded by the
    walk of :func:`composition_table` that builds ``table``.
    """

    group: FiniteGroup
    endos: tuple[Endomorphism, ...]
    gens: tuple[int, ...]
    index: dict[tuple[int, ...], int]  # generator images -> canonical index
    monoid_gens: tuple[int, ...] | None = None

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        return composition_table(self.group)


def _tuple_getter(idx: tuple[int, ...]) -> itemgetter:
    """``itemgetter(*idx)``, giving a tuple for a single index too."""
    if len(idx) == 1:
        return itemgetter(slice(idx[0], idx[0] + 1))
    return itemgetter(*idx)


def _orbit(auts: list, key: tuple[int, ...]) -> set:
    """{a(key) : a in A}, A the group generated by the image arrays ``auts``.

    The orbit is walked by the generators alone, one gather a step.
    """
    orbit = {key}
    todo = [key] if auts else []  # a trivial A fixes the key: build no getter
    for k in todo:  # the list grows while it is walked
        at = itemgetter(*k)  # two entries or more: see the module docstring
        for a in auts:
            y = at(a)
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


def _orbit_maps(auts: list, key: tuple[int, ...], images: tuple[int, ...]) -> dict:
    """{a(key): a o images} for a in the group generated by ``auts``, walked
    as :func:`_orbit` walks the keys."""
    orbit = {key: images}
    todo = [(key, images)] if auts else []
    for k, x in todo:  # the list grows while it is walked
        at_k, at_x = _tuple_getter(k), itemgetter(*x)
        for a in auts:
            y = at_k(a)
            if y not in orbit:
                orbit[y] = z = at_x(a)
                todo.append((y, z))
    return orbit


def _enumerate(g: FiniteGroup) -> _EndData:
    """End(G), searched on the first call for ``g`` and kept on it."""
    if "_end" in g.__dict__:
        return g.__dict__["_end"]
    if g.order > max_order():
        raise SizeCapError(f"order {g.order} exceeds cap {max_order()}")
    gens = tuple(greedy_generators(g.table))
    orders = g.element_orders
    candidates = [
        [y for y in range(g.order) if orders[s] % orders[y] == 0] for s in gens
    ]
    count = prod(map(len, candidates))
    if count > MAX_CANDIDATES:
        raise SizeCapError(
            f"End(G) of {g!r} would search {count} candidate generator images, "
            f"above the cap {MAX_CANDIDATES}"
        )
    edges = _cayley_edges(g, gens)
    auts = [tuple(range(g.order))]  # the group A of automorphisms found so far
    found = {gens: auts[0]}  # generator images -> image array, for End(G)
    refused = set()  # candidates known to extend to no endomorphism
    agens = []  # generators of A
    steps = []  # per generator t of A: x -> x o t and the generator images of x o t
    for imgs in product(*candidates):
        if imgs in found:
            continue
        if imgs in refused:
            refused.remove(imgs)  # the loop never comes back to it
            continue
        phi = _extend(g, edges, imgs)
        if phi is None:
            refused |= _orbit(agens, imgs)
        elif phi.count(0) > 1:  # a nontrivial kernel
            found.update(_orbit_maps(agens, imgs, phi))
        else:  # close A to <A, phi>, walked as composition_table walks End(G)
            agens.append(phi)
            steps.append((itemgetter(*phi), _tuple_getter(imgs)))
            gather, key = steps[-1]
            fresh = []
            for x in auts:  # closed under the earlier generators already
                k = key(x)
                if k not in found:
                    found[k] = y = gather(x)
                    fresh.append(y)
            for x in fresh:  # the list grows while it is walked
                for gather, key in steps:
                    k = key(x)
                    if k not in found:
                        found[k] = y = gather(x)
                        fresh.append(y)
            auts += fresh
    keys = sorted(found, key=found.__getitem__)
    endos = tuple(
        Endomorphism(
            group=g,
            images=x,
            is_automorphism=x.count(0) == 1,  # a trivial kernel
            canonical_index=i,
        )
        for i, x in enumerate(map(found.__getitem__, keys))
    )
    index = {k: i for i, k in enumerate(keys)}
    return g.__dict__.setdefault("_end", _EndData(g, endos, gens, index))


def enumerate_endomorphisms(g: FiniteGroup) -> list[Endomorphism]:
    """All endomorphisms of G, sorted lexicographically by image array."""
    return list(_enumerate(g).endos)


def enumerate_automorphisms(g: FiniteGroup) -> list[Endomorphism]:
    """The automorphisms among :func:`enumerate_endomorphisms`, same indexing."""
    return [e for e in _enumerate(g).endos if e.is_automorphism]


def compose(a: Endomorphism, b: Endomorphism) -> Endomorphism:
    """(a o b)(x) = a(b(x)), resolved against the canonical enumeration."""
    if a.group != b.group:
        raise DomainMismatchError("cannot compose endomorphisms of different groups")
    data = _enumerate(a.group)
    key = tuple(a.images[b.images[s]] for s in data.gens)
    return data.endos[data.index[key]]


def identity_endomorphism(g: FiniteGroup) -> Endomorphism:
    data = _enumerate(g)
    return data.endos[data.index[data.gens]]


def composition_table(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Index-level composition: entry [i][j] is the index of endo_i o endo_j.

    Only the rows of End(G)'s greedy monoid generators are composed image
    by image; every other row is a gather along the right Cayley graph of
    End(G), walked as :func:`greedy_generators` walks a table.  The walk
    records those generators on End(G)'s record, for the readers of the
    stored table (:func:`stored_monoid_generators`).
    """
    data = _enumerate(g)
    endos, gens, index = data.endos, data.gens, data.index
    size = len(endos)
    if size == 1:  # trivial group; itemgetter of one index gives no tuple
        data.monoid_gens = ()
        return ((0,),)
    # at_gens[k][j] = endo_j(gens[k]), so a o endo_j has key (a(at_gens[k][j]) for k)
    at_gens = [tuple(b.images[s] for b in endos) for s in gens]
    rows: list[tuple[int, ...] | None] = [None] * size
    ident = index[gens]
    rows[ident] = tuple(range(size))
    seen = [ident]
    steps: list[tuple[int, itemgetter]] = []
    nxt = 0
    while len(seen) < size:
        while rows[nxt] is not None:
            nxt += 1
        image = endos[nxt].images.__getitem__
        rows[nxt] = row = tuple(
            map(index.__getitem__, zip(*(map(image, col) for col in at_gens)))
        )
        # row(x o s)[j] = row(x)[row(s)[j]], as (x o s) o b = x o (s o b)
        step = itemgetter(*row)
        steps.append((nxt, step))
        fresh = [nxt]
        for x in seen:  # closed under the earlier generators already
            y = rows[x][nxt]
            if rows[y] is None:
                rows[y] = step(rows[x])
                fresh.append(y)
        for x in fresh:  # the list grows while it is walked
            rx = rows[x]
            for s, step in steps:
                y = rx[s]
                if rows[y] is None:
                    rows[y] = step(rx)
                    fresh.append(y)
        seen += fresh
    data.monoid_gens = tuple(s for s, _ in steps)
    return tuple(rows)


def stored_composition_table(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """:func:`composition_table` of ``g``, computed on first use and kept with End(G)."""
    return _enumerate(g).table


def stored_monoid_generators(g: FiniteGroup) -> tuple[int, ...]:
    """``greedy_generators`` of :func:`stored_composition_table` from the identity,
    as the walk that built that table found them."""
    stored_composition_table(g)  # the walk that builds it records them
    return _enumerate(g).monoid_gens
