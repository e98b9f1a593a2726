"""The self-map monoid of an odd-dimensional spherical space form.

An element is a plain tuple (alpha, k) of ints: the canonical index of
an endomorphism of the fundamental group and an exact integer mapping
degree, subject to k = d(alpha) mod |G|.  Products multiply degrees and
compose the endomorphisms.  Degrees are never reduced mod |G|: distinct
integers are distinct homotopy classes and the monoid is infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .degree import DegreeHom, build_degree_hom
from .endomorphisms import Endomorphism, cayley_graph
from .errors import DomainMismatchError, NotRealizableError
from .groups import FiniteGroup, as_int, identity_row, orders_in


@dataclass(frozen=True)
class EquivalenceGroup:
    """The group of invertible elements, with its Cayley table."""

    elements: tuple[tuple[int, int], ...]
    table: tuple[tuple[int, ...], ...]  # indices into `elements`

    @property
    def order(self) -> int:
        return len(self.elements)

    def identity_position(self) -> int:
        """Where (id, 1) sits; not first when |G| <= 2, after (id, -1)."""
        return identity_row(self.table)

    def element_orders(self) -> tuple[int, ...]:
        return orders_in(self.table, self.identity_position())

    def is_abelian(self) -> bool:
        return all(r == c for r, c in zip(self.table, zip(*self.table)))  # built in full


class MonoidContext:
    """Everything needed to do arithmetic in M(G, n).

    End(G), its identity and the rows of its composition table come from the
    one End(G) record kept on the group (``cayley_graph``); products are read
    off those rows, each gathered when first read.
    """

    def __init__(self, dhom: DegreeHom):
        self.group = group = dhom.group
        self.n = dhom.n
        self.dhom = dhom
        self._end = end = cayley_graph(group)
        self.endos: tuple[Endomorphism, ...] = end.endos
        self.identity_index = end.identity
        self._rows = end.rows
        self._d = dhom.values
        self._order = group.order
        self._size = len(self.endos)

    def __repr__(self) -> str:
        return f"MonoidContext({self.group!r}, n={self.n})"

    # -- element construction and arithmetic --

    def element(self, alpha: int, k: int) -> tuple[int, int]:
        """Accept ints (alpha, k) iff alpha indexes End(G) and k = d(alpha) mod |G|."""
        try:
            alpha, k = as_int(alpha), as_int(k)
        except TypeError:
            raise DomainMismatchError(f"not a pair of ints: ({alpha!r}, {k!r})") from None
        if not 0 <= alpha < self._size:
            raise DomainMismatchError(f"endomorphism index {alpha} out of range")
        m = self._order
        if k % m != self._d[alpha]:
            raise NotRealizableError(
                f"degree {k} = {k % m} mod {m} but d(endo {alpha}) = {self._d[alpha]}; "
                "no self-map has this (pi_1, degree) pair"
            )
        return alpha, k

    def is_valid(self, x) -> bool:
        """False for anything but a pair (alpha, k) of ints of this context."""
        try:
            alpha, k = map(as_int, x)
            return 0 <= alpha < self._size and k % self._order == self._d[alpha]
        except (TypeError, ValueError):  # not a pair, or not of ints
            return False

    def identity(self) -> tuple[int, int]:
        return self.identity_index, 1

    def multiply(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        """(a o b, kl) for elements built by ``element``, ``identity`` or a product.

        No type is checked, so an integral float degree passes; any other
        operand that is no element of this context raises DomainMismatchError.
        """
        # hot path, validity checks inlined: a negative index is refused here
        # (it would wrap round), one >= |End| fails at d[...] with IndexError
        # before its row is gathered; the try costs nothing until it raises
        m, d = self._order, self._d
        try:
            xa, xk = x
            ya, yk = y
            if xa >= 0 <= ya and xk % m == d[xa] and yk % m == d[ya]:
                return (self._rows[xa] or self._end.row(xa))[ya], xk * yk
        except (IndexError, TypeError, ValueError):  # not a pair of ints of this context
            pass
        raise DomainMismatchError("operand is not a valid element of this monoid context")

    # -- global structure --

    def equivalence_group(self) -> EquivalenceGroup:
        """All invertible elements with their multiplication table.

        Scanning both signs per automorphism covers |G| <= 2, where
        +1 and -1 both sit over the identity automorphism, as well as
        the |G| >= 3 case where at most one sign survives per alpha.
        """
        elems = [
            (e.canonical_index, k)
            for e in self.endos
            if e.is_automorphism
            for k in (1, -1)
            if k % self.group.order == self._d[e.canonical_index]
        ]
        elems.sort()
        pos = {x: i for i, x in enumerate(elems)}
        # units are elements, so each product is read off End(G)'s row of alpha;
        # only the units' rows are gathered, as every walk ancestor of a unit is one
        rows = [(self._end.row(a), k) for a, k in elems]
        table = tuple(tuple(pos[row[b], k * l] for b, l in elems) for row, k in rows)
        return EquivalenceGroup(elements=tuple(elems), table=table)

    def is_abelian(self) -> bool:
        """M(G, n) is abelian iff End(G) commutes (degrees always commute).

        A monoid commutes when its generators commute pairwise, so only
        t o u = u o t is checked, read off the Cayley graph's columns.
        """
        cols = dict(zip(self._end.generators, self._end.columns))  # cols[u][t] = t o u
        return all(cols[u][t] == cols[t][u] for t in cols for u in cols if u < t)

    def realizable_degrees(self) -> set[int]:
        """{ d(alpha) : alpha in End(G) } as least non-negative residues mod |G|."""
        return set(self._d)

    def endos_realizing(self, k: int) -> list[int]:
        m = self.group.order
        return [i for i, v in enumerate(self._d) if v == k % m]

    def elements_in_window(self, window: int) -> Iterator[tuple[int, int]]:
        """All valid elements with |degree| <= window."""
        m = self.group.order
        for i, v in enumerate(self._d):
            k = -window + (v - (-window)) % m  # smallest degree >= -window in coset
            while k <= window:
                yield i, k
                k += m


def monoid_context(
    group: FiniteGroup, n: int, user_table: dict[int, int] | None = None
) -> MonoidContext:
    """Build M(G, n), using the built-in d for cyclic groups.

    A user d-table is law-checked against the composition table that the
    context multiplies with: the one stored with End(G) on ``group``.
    """
    return MonoidContext(build_degree_hom(group, n, user_table))


def monoid_axioms(ctx: MonoidContext) -> str | None:
    """None if M(G, n) is a monoid with identity (id, 1), else a witness.

    Degrees multiply as integers, so that holds exactly when (id, 1) is an
    element and End(G)'s table composes its maps, which is associative with
    the identity map as unit.  Every row is derived from the Cayley graph's
    columns, with row(id) the identity (``endomorphisms`` docstring), so it is
    enough that id's images are G's elements in order and that each x o t in
    the columns has x's images at t's, found by whole image array: |End| |T|
    gathers, no row read.  Closure is d's multiplicativity (validate_degree_hom).
    """
    end, ident, d, m = ctx._end, ctx.identity_index, ctx._d, ctx._order
    if d[ident] != 1 % m:
        return f"(id, 1) is not an element: d(identity endo {ident}) = {d[ident]} mod {m}"
    images = [e.images for e in ctx.endos]
    if images[ident] != tuple(range(m)):
        return f"identity endo {ident} has images {list(images[ident])}"
    lookup = {a: i for i, a in enumerate(images)}
    for t, col in zip(end.generators, end.columns):
        at_t = itemgetter(*images[t])  # End(G) has generators only when |G| > 1
        for x, c in enumerate(col):
            if (xt := lookup.get(at_t(images[x]))) != c:
                xt = "an array outside End(G)" if xt is None else f"endo {xt}"
                return f"endo {x} o endo {t} = endo {c}, but composing their images gives {xt}"
    return None
