"""Exhaustive enumeration of End(G) and Aut(G) over Cayley-table groups.

An endomorphism is fixed by its images on a generating set S, G's own
(``FiniteGroup.generators``), so the search runs over generator images
only: |G|^|S| candidates instead of |G|^|G|, minus every candidate image
whose order does not divide the order of its generator.  A candidate is
extended by a breadth-first walk of the right Cayley graph from phi(0) =
0, checking phi(x*s) = phi(x)*phi(s) on every edge (x, s) with s in S.
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
automorphism grows A to <A, phi> by the walk :func:`groups.greedy_walk`
makes on End(G).  An orbit is walked by A's generators alone, one gather
a step.  Each candidate is decided as extending it would decide it, so
End(G), its order and its indexing are those of the exhaustive search;
Q64 extends 93 of its 2304 candidates, C128 11 of 128.  A group with one
generator is cyclic, and there every candidate extends, so a refused
candidate has two images or more.

Composition is keyed the same way: a o b is found by its images on S,
a(b(s)).  Once End(G) is found, its right Cayley graph is walked from the
identity by :func:`groups.greedy_walk` adding the least unreached index,
finding End(G)'s greedy monoid generators T.  A column x -> x o t
costs, per x, one gather of x's images at t's generator images and one
``index`` lookup: |End| |T| lookups, no composition table.  The walk keeps
each element's parent edge (p, t), x = p o t, and the columns, from which
d's multiplicativity, End(G)'s commutativity and the monoid axioms are
decided (``monoid_odd.monoid_axioms`` checks each column against the
composed full image arrays).  A row of the table is gathered, once, only
when a caller reads it: row(t) for t in T is read off the columns along the
walk, and every other row is a gather of its parent's, row(p o t)[j] =
row(p)[row(t)[j]].  So the columns fix every row.  The rows of the units
cost no others: x o t invertible makes x onto and t one-to-one, so both
are invertible, and every walk ancestor of a unit is a unit.

End(G) lives on the FiniteGroup it describes, in its ``__dict__`` (see
:func:`_enumerate`): one record holds End(G), its Cayley graph and the rows
gathered so far, and :func:`cayley_graph` returns it.  Two group objects
share nothing, even when equal, and End(G) is freed with its group.  The
CLI keeps its named groups of order <= 64 for the life of the process
(``cli.named_group``), and so their End(G) too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from operator import itemgetter

from .errors import DomainMismatchError, SizeCapError
from .groups import FiniteGroup, _check_cap, greedy_walk

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


def _cayley_edges(g: FiniteGroup, gens: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Edges (x, i, x*gens[i]) of the right Cayley graph, in BFS order from 0.

    Every edge's source is reached by an earlier edge (or is 0).  Breadth-first
    order, not :func:`groups.greedy_walk`'s, keeps :func:`_extend`'s edge steps
    down: greedy order took 1654 -> 2420 on Q32, 5497 -> 6529 on Q64 and
    54 138 -> 123 809 on Q8 x C4 (Q128 alone fell, 19 400 -> 17 864).
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


class _EndData:
    """End(G) in canonical order, indexed by images of the generating set, and
    its right Cayley graph on its greedy monoid generators T, walked by
    :func:`groups.greedy_walk` when End(G) is searched, with the table's rows
    gathered on demand.

    ``index`` maps generator images to canonical indices, ``identity`` is the
    identity's index, ``generators`` is T, ``columns[i][x]`` is x o
    ``generators[i]``, ``walk_order`` the elements in the order the walk from
    the identity reached them, and ``rows[x]`` row x of the table, or None
    until :meth:`row` gathers it.
    """

    def __init__(self, endos: tuple[Endomorphism, ...], gens: tuple[int, ...], index: dict):
        self.endos, self.gens, self.index = endos, gens, index
        self.identity = ident = index[gens]
        images = [e.images for e in endos]

        def column(t: int) -> list[int]:
            # x o t has generator images x(t(s)): x's images at t's own
            key = _tuple_getter(tuple(images[t][s] for s in gens))
            return [index[key(x)] for x in images]

        walk = greedy_walk(len(images), ident, column, lambda reached: reached.index(False))
        generators, columns, order, self._parents = walk
        self.generators = tuple(generators)
        self.columns = tuple(map(tuple, columns))
        self.walk_order = tuple(order)
        self.rows: list[tuple[int, ...] | None] = [None] * len(images)
        self.rows[ident] = tuple(range(len(images)))
        self._gathers: dict[int, itemgetter] = {}  # t -> itemgetter(*row(t))

    def row(self, x: int) -> tuple[int, ...]:
        """Row x, gathered on first use and kept, after its walk ancestors.

        Row t of a generator, reached by the edge (id, t), is read off the
        columns (:meth:`_generator_row`); every other row is a gather of its
        parent's, row(p o t)[j] = row(p)[row(t)[j]], since (p o t) o b = p o (t o b).
        """
        rows, parents = self.rows, self._parents
        chain, y = [], x
        while rows[y] is None:  # up to the nearest gathered ancestor
            chain.append(y)
            y = parents[y][0]
        for y in reversed(chain):
            p, t = parents[y]
            if p == self.identity:  # a generator
                rows[y] = self._generator_row(y)
            else:
                if t not in self._gathers:
                    self._gathers[t] = itemgetter(*self.row(t))
                rows[y] = self._gathers[t](rows[p])
        return rows[x]

    def _generator_row(self, t: int) -> tuple[int, ...]:
        """Row t, entry by entry in walk order: t o (p o u) = (t o p) o u is
        column u at row(t)[p], and t o id = t."""
        columns = dict(zip(self.generators, self.columns))
        row = [t] * len(self.rows)
        for j in self.walk_order[1:]:  # every element but the identity
            p, u = self._parents[j]
            row[j] = columns[u][row[p]]
        return tuple(row)


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
    _check_cap(g.order)
    gens = g.generators
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
        else:  # close A to <A, phi>, walked as greedy_walk walks End(G)
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
    return g.__dict__.setdefault("_end", _EndData(endos, gens, index))


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
    return data.endos[data.identity]


def composition_table(g: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Index-level composition: entry [i][j] is the index of endo_i o endo_j.

    Every row is gathered, in the walk order of :func:`cayley_graph`, so
    each row's parent is gathered before it; rows gathered earlier are kept.
    """
    graph = cayley_graph(g)
    for x in graph.walk_order:
        graph.row(x)
    return tuple(graph.rows)


def cayley_graph(g: FiniteGroup) -> _EndData:
    """End(G) with its right Cayley graph and the rows gathered so far: the
    one record kept on ``g``."""
    return _enumerate(g)
