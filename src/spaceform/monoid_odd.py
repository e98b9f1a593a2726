"""The self-map monoid of an odd-dimensional spherical space form.

An element is a plain tuple (alpha, k) of ints: the canonical index of
an endomorphism of the fundamental group and an exact integer mapping
degree, subject to k = d(alpha) mod |G|.  Products multiply degrees and
compose the endomorphisms.  Degrees are never reduced mod |G|: distinct
integers are distinct homotopy classes and the monoid is infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .degree import DegreeHom, build_degree_hom
from .endomorphisms import (
    Endomorphism,
    enumerate_endomorphisms,
    identity_endomorphism,
    stored_composition_table,
)
from .errors import DomainMismatchError, NotRealizableError
from .groups import FiniteGroup, first_nonassociative, identity_row, is_commutative, orders_in


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
        return is_commutative(self.table)


class MonoidContext:
    """Everything needed to do arithmetic in M(G, n)."""

    def __init__(self, dhom: DegreeHom, comp: tuple[tuple[int, ...], ...] | None = None):
        """``comp`` replaces the stored composition table (tests corrupt it)."""
        self.group = group = dhom.group
        self.n = dhom.n
        self.dhom = dhom
        self.endos: tuple[Endomorphism, ...] = tuple(enumerate_endomorphisms(group))
        self._comp = stored_composition_table(group) if comp is None else comp
        self._d = dhom.values
        self._order = group.order
        self._size = len(self.endos)
        self.identity_index = identity_endomorphism(group).canonical_index

    def __repr__(self) -> str:
        return f"MonoidContext({self.group!r}, n={self.n})"

    # -- element construction and arithmetic --

    def element(self, alpha: int, k: int) -> tuple[int, int]:
        """Accept (alpha, k) iff k = d(alpha) mod |G|."""
        if not 0 <= alpha < len(self.endos):
            raise DomainMismatchError(f"endomorphism index {alpha} out of range")
        m = self.group.order
        if k % m != self._d[alpha]:
            raise NotRealizableError(
                f"degree {k} = {k % m} mod {m} but d(endo {alpha}) = {self._d[alpha]}; "
                "no self-map has this (pi_1, degree) pair"
            )
        return alpha, k

    def is_valid(self, x) -> bool:
        """False for anything but a pair (alpha, k) of this context."""
        try:
            alpha, k = x
            return 0 <= alpha < self._size and k % self._order == self._d[alpha]
        except (TypeError, ValueError):  # not a pair, or not of ints
            return False

    def identity(self) -> tuple[int, int]:
        return self.identity_index, 1

    def multiply(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        # hot path: validity checks inlined; the try costs nothing until it raises
        m, d, size = self._order, self._d, self._size
        try:
            xa, xk = x
            ya, yk = y
            if 0 <= xa < size and 0 <= ya < size and xk % m == d[xa] and yk % m == d[ya]:
                return self._comp[xa][ya], xk * yk
        except (TypeError, ValueError):  # not a pair, or not of ints
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
        table = tuple(
            tuple(pos[self.multiply(x, y)] for y in elems) for x in elems
        )
        return EquivalenceGroup(elements=tuple(elems), table=table)

    def is_abelian(self) -> bool:
        """M(G, n) is abelian iff End(G) commutes (degrees always commute)."""
        return is_commutative(self._comp)

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
    triple = first_nonassociative(comp, ident)
    if triple is None:
        return None
    x, y, z = triple
    return (
        f"(endo {x} o endo {y}) o endo {z} = endo {comp[comp[x][y]][z]} "
        f"!= endo {x} o (endo {y} o endo {z}) = endo {comp[x][comp[y][z]]}"
    )
