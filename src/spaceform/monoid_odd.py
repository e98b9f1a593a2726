"""The self-map monoid of an odd-dimensional spherical space form.

An element is a pair (alpha, k): an endomorphism of the fundamental
group together with an exact integer mapping degree, subject to
k = d(alpha) mod |G|.  Products multiply degrees and compose the
endomorphisms.  Degrees are never reduced mod |G|: distinct integers
are distinct homotopy classes and the monoid is infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .degree import DegreeHom, build_degree_hom
from .endomorphisms import (
    Endomorphism,
    enumerate_endomorphisms,
    identity_endomorphism,
    stored_composition_table,
)
from .errors import DomainMismatchError, NotRealizableError
from .groups import FiniteGroup, first_nonassociative, greedy_generators


class SpaceFormElement(NamedTuple):
    """(endomorphism canonical index, exact mapping degree)."""

    alpha: int
    k: int


# What SpaceFormElement(alpha, k) calls, without the Python-level __new__
# frame; multiply builds its result this way on the hot path.
_new_element = tuple.__new__


@dataclass(frozen=True)
class EquivalenceGroup:
    """The group of invertible elements, with its Cayley table."""

    elements: tuple[SpaceFormElement, ...]
    table: tuple[tuple[int, ...], ...]  # indices into `elements`

    @property
    def order(self) -> int:
        return len(self.elements)

    def identity_position(self) -> int:
        return next(
            i
            for i in range(self.order)
            if all(self.table[i][j] == j for j in range(self.order))
        )

    def element_orders(self) -> tuple[int, ...]:
        ident = self.identity_position()
        orders = []
        for i in range(self.order):
            acc, t = i, 1
            while acc != ident:
                acc = self.table[acc][i]
                t += 1
            orders.append(t)
        return tuple(orders)

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[i][j] == t[j][i] for i in range(self.order) for j in range(i))


class MonoidContext:
    """Everything needed to do arithmetic in M(G, n)."""

    def __init__(
        self,
        group: FiniteGroup,
        n: int,
        dhom: DegreeHom,
        comp: tuple[tuple[int, ...], ...] | None = None,
    ):
        """``comp`` replaces the stored composition table (tests corrupt it)."""
        if dhom.group != group or dhom.n != n:
            raise DomainMismatchError("degree homomorphism does not match (G, n)")
        self.group = group
        self.n = n
        self.dhom = dhom
        self.endos: tuple[Endomorphism, ...] = tuple(enumerate_endomorphisms(group))
        self._comp = stored_composition_table(group) if comp is None else comp
        self._d = dhom.values
        self._order = group.order
        self._size = len(self.endos)
        self.identity_index = identity_endomorphism(group).canonical_index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonoidContext)
            and self.group == other.group
            and self.n == other.n
            and self.dhom == other.dhom
        )

    def __repr__(self) -> str:
        return f"MonoidContext({self.group!r}, n={self.n})"

    # -- element construction and arithmetic --

    def element(self, alpha: int, k: int) -> SpaceFormElement:
        """Accept (alpha, k) iff k = d(alpha) mod |G|."""
        if not 0 <= alpha < len(self.endos):
            raise DomainMismatchError(f"endomorphism index {alpha} out of range")
        m = self.group.order
        if k % m != self._d[alpha]:
            raise NotRealizableError(
                f"degree {k} = {k % m} mod {m} but d(endo {alpha}) = {self._d[alpha]}; "
                "no self-map has this (pi_1, degree) pair"
            )
        return SpaceFormElement(alpha, k)

    def is_valid(self, x: SpaceFormElement) -> bool:
        return (
            0 <= x.alpha < len(self.endos)
            and x.k % self.group.order == self._d[x.alpha]
        )

    def identity(self) -> SpaceFormElement:
        return SpaceFormElement(self.identity_index, 1)

    def multiply(self, x: SpaceFormElement, y: SpaceFormElement) -> SpaceFormElement:
        # hot path: validity checks inlined
        xa, xk = x
        ya, yk = y
        m = self._order
        d = self._d
        if (
            not 0 <= xa < self._size
            or not 0 <= ya < self._size
            or xk % m != d[xa]
            or yk % m != d[ya]
        ):
            raise DomainMismatchError(
                "operand is not a valid element of this monoid context"
            )
        return _new_element(SpaceFormElement, (self._comp[xa][ya], xk * yk))

    def is_invertible(self, x: SpaceFormElement) -> bool:
        if not self.is_valid(x):
            raise DomainMismatchError(
                "operand is not a valid element of this monoid context"
            )
        return self.endos[x.alpha].is_automorphism and x.k in (1, -1)

    # -- global structure --

    def equivalence_group(self) -> EquivalenceGroup:
        """All invertible elements with their multiplication table.

        Scanning both signs per automorphism covers |G| <= 2, where
        +1 and -1 both sit over the identity automorphism, as well as
        the |G| >= 3 case where at most one sign survives per alpha.
        """
        elems = [
            SpaceFormElement(e.canonical_index, k)
            for e in self.endos
            if e.is_automorphism
            for k in (1, -1)
            if k % self.group.order == self._d[e.canonical_index]
        ]
        elems.sort()
        pos = {x: i for i, x in enumerate(elems)}
        table = tuple(
            tuple(pos[self.multiply(x, y)] for y in elems) for x in elems
        )
        return EquivalenceGroup(elements=tuple(elems), table=table)

    def is_abelian(self) -> bool:
        """M(G, n) is abelian iff End(G) commutes (degrees always commute)."""
        c = self._comp
        k = len(self.endos)
        return all(c[i][j] == c[j][i] for i in range(k) for j in range(i))

    def realizable_degrees(self) -> set[int]:
        """{ d(alpha) : alpha in End(G) } as least non-negative residues mod |G|."""
        return set(self._d)

    def is_realizable(self, k: int) -> bool:
        return k % self.group.order in set(self._d)

    def endos_realizing(self, k: int) -> list[int]:
        m = self.group.order
        return [i for i, v in enumerate(self._d) if v == k % m]

    def elements_in_window(self, window: int) -> Iterator[SpaceFormElement]:
        """All valid elements with |degree| <= window."""
        m = self.group.order
        for i, v in enumerate(self._d):
            k = -window + (v - (-window)) % m  # smallest degree >= -window in coset
            while k <= window:
                yield SpaceFormElement(i, k)
                k += m


def monoid_context(
    group: FiniteGroup, n: int, user_table: dict[int, int] | None = None
) -> MonoidContext:
    """Build M(G, n), using the built-in d for cyclic groups.

    A user d-table is law-checked against the composition table that the
    context multiplies with: the one stored with End(G) on ``group``.
    """
    return MonoidContext(group, n, build_degree_hom(group, n, user_table))


def monoid_axioms(ctx: MonoidContext) -> str | None:
    """None if M(G, n) is a monoid with identity (id, 1), else a witness.

    Degrees multiply as integers, so that holds exactly when (id, 1) is an
    element and End(G)'s composition table is associative with two-sided
    identity id; no element is built or multiplied.  The identity comes
    first: Light's test (``groups`` docstring) grows its generators from
    id, which must be a left identity for that walk to end.  O(|End|) for
    the identity and O(|gens| |End|^2) for Light's test.  Closure of
    M(G, n) is not tested here: it is multiplicativity of d, which
    ``validate_degree_hom`` decides.
    """
    comp, ident, d, m = ctx._comp, ctx.identity_index, ctx._d, ctx._order
    if d[ident] != 1 % m:
        return f"(id, 1) is not an element: d(identity endo {ident}) = {d[ident]} mod {m}"
    for x, (left, row) in enumerate(zip(comp[ident], comp)):
        if left != x:
            return f"identity endo {ident} o endo {x} = endo {left}"
        if row[ident] != x:
            return f"endo {x} o identity endo {ident} = endo {row[ident]}"
    triple = first_nonassociative(comp, greedy_generators(comp, ident))
    if triple is None:
        return None
    x, y, z = triple
    return (
        f"(endo {x} o endo {y}) o endo {z} = endo {comp[comp[x][y]][z]} "
        f"!= endo {x} o (endo {y} o endo {z}) = endo {comp[x][comp[y][z]]}"
    )
