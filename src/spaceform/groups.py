"""Finite groups represented by explicit multiplication tables.

All groups live as immutable Cayley tables with the identity pinned at
index 0.  Every constructor ends in :func:`_finish`, and every table
passes through :func:`_check_table` there, the one validator: shape,
Latin square, a two-sided identity (relabelled to index 0 when it sits
elsewhere) and associativity.  So any :class:`FiniteGroup` in
circulation is a genuine group.  G's table, End(G)'s composition table
and the units E(G, n) share one routine per table property:
:func:`is_commutative`, :func:`orders_in` (relative to a given identity),
:func:`identity_row` and :func:`first_nonassociative`.

Associativity is decided exactly by Light's test (Clifford & Preston,
*Algebraic Theory of Semigroups* I, 1961): the set T of elements y with
(x*y)*z = x*(y*z) for all x, z is closed under the product, because
(x*(y*y'))*z = ((x*y)*y')*z = (x*y)*(y'*z) = x*(y*(y'*z)) = x*((y*y')*z)
for y, y' in T.  T contains the identity, so once it contains a set A
whose products, grown from the identity, reach every element, T is the
whole table.  Checking y in A only costs O(n^2 |A|) instead of O(n^3).
The argument uses no inverses, so it decides associativity of any finite
table with a two-sided identity, such as the composition table of End(G).
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from pathlib import Path

from .errors import (
    InvalidCapError,
    InvalidOrderError,
    NotAGroupError,
    SizeCapError,
    StructureError,
)

DEFAULT_MAX_ORDER = 128


def max_order() -> int:
    """Current order cap; overridable via SPACEFORM_MAX_ORDER."""
    raw = os.environ.get("SPACEFORM_MAX_ORDER")
    if not raw:
        return DEFAULT_MAX_ORDER
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise InvalidCapError(
            f"SPACEFORM_MAX_ORDER must be a positive integer, got {raw!r}"
        )
    return cap


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group: ``table[x][y]`` is the product x*y, identity is 0.

    What is derived from the table (element orders, End(G), ...) is
    computed at most once and kept in ``__dict__``, out of ``==`` and hash.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    name: str = ""

    def is_abelian(self) -> bool:
        return is_commutative(self.table)

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        return orders_in(self.table, 0)

    @cached_property
    def cyclic_generator(self) -> int | None:
        """Some element of full order, or None if the group is not cyclic."""
        orders = self.element_orders
        return orders.index(self.order) if self.order in orders else None

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order})"


def is_commutative(table: tuple[tuple[int, ...], ...]) -> bool:
    """Whether x*y = y*x for every pair of elements."""
    return all(row[y] == table[y][x] for x, row in enumerate(table) for y in range(x))


def orders_in(table: tuple[tuple[int, ...], ...], ident: int) -> tuple[int, ...]:
    """ord(x) for every x of a group table with identity ``ident``.

    One walk x, x^2, ... per cyclic subgroup not yet covered, since
    ord(x^k) = ord(x) / gcd(k, ord(x)).
    """
    orders = [0] * len(table)
    for x in range(len(table)):
        if not orders[x]:
            powers = [x]
            while powers[-1] != ident:
                powers.append(table[powers[-1]][x])
            for k, y in enumerate(powers, 1):
                orders[y] = len(powers) // gcd(k, len(powers))
    return tuple(orders)


def identity_row(table: tuple[tuple[int, ...], ...]) -> int | None:
    """The first e whose row is 0, 1, ..., n-1 (a left identity), or None."""
    row_of_identity = tuple(range(len(table)))
    return next((e for e, row in enumerate(table) if row == row_of_identity), None)


def greedy_generators(table: tuple[tuple[int, ...], ...], ident: int = 0) -> list[int]:
    """Greedy generators: repeatedly add the smallest element not yet reached.

    An element is reached when it is a product (((ident*a1)*a2)*...)*ak of
    chosen generators; in a finite group these products form the subgroup
    the generators generate.  Any square table will do, provided ``ident``
    is a left identity: then each new generator a = ident*a is reached at
    once.  Otherwise the walk may never end.
    """
    n = len(table)
    reached = [False] * n
    reached[ident] = True
    seen = [ident]
    gens: list[int] = []
    nxt = 0
    while len(seen) < n:
        while reached[nxt]:
            nxt += 1
        gens.append(nxt)
        for x in seen:  # the list grows while it is walked
            row = table[x]
            for s in gens:
                y = row[s]
                if not reached[y]:
                    reached[y] = True
                    seen.append(y)
    return gens


def _check_table(table: tuple[tuple[int, ...], ...]) -> int:
    """Latin square + two-sided identity + associativity, or raise.

    Returns the index of the identity.
    """
    n = len(table)
    elems = set(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise StructureError(f"row {i} has length {len(row)}, expected {n}")
        if set(row) != elems:
            raise StructureError(f"row {i} is not a permutation of 0..{n - 1}")
    for j, col in enumerate(zip(*table)):
        if set(col) != elems:
            raise StructureError(f"column {j} is not a permutation of 0..{n - 1}")
    # in a Latin square at most one row is the identity row
    ident = identity_row(table)
    if ident is None or any(row[ident] != x for x, row in enumerate(table)):
        raise NotAGroupError("table has no two-sided identity")
    # Light's test (module docstring) decides and names the triple it found
    if triple := first_nonassociative(table, ident):
        x, y, z = triple
        raise NotAGroupError(f"associativity fails at ({x}*{y})*{z} != {x}*({y}*{z})")
    return ident


def first_nonassociative(
    table: tuple[tuple[int, ...], ...], ident: int
) -> tuple[int, int, int] | None:
    """A triple (x, y, z) with (x*y)*z != x*(y*z), or None if there is none.

    Light's test (module docstring), y in ``greedy_generators(table, ident)``
    only; ``ident`` must already be a two-sided identity, or the generators
    may never end.  Compares whole rows: row (x*y) against x applied to row y.
    """
    ys = greedy_generators(table, ident)
    for x, tx in enumerate(table):
        for y in ys:
            txy = table[tx[y]]
            x_yz = tuple(map(tx.__getitem__, table[y]))
            if txy != x_yz:
                z = next(z for z, (a, b) in enumerate(zip(txy, x_yz)) if a != b)
                return x, y, z
    return None


def _finish(table: tuple[tuple[int, ...], ...], name: str) -> FiniteGroup:
    n = len(table)
    if n == 0:
        raise InvalidOrderError("a group must have at least one element")
    if n > max_order():
        raise SizeCapError(f"order {n} exceeds cap {max_order()}")
    ident = _check_table(table)
    if ident != 0:
        perm = list(range(n))
        perm[0], perm[ident] = ident, 0  # swap labels 0 <-> identity
        table = tuple(
            tuple(perm[table[perm[x]][perm[y]]] for y in range(n)) for x in range(n)
        )
    return FiniteGroup(order=n, table=table, name=name)


def make_cyclic(m: int) -> FiniteGroup:
    """The cyclic group C_m with i*j = (i+j) mod m."""
    if m < 1:
        raise InvalidOrderError(f"cyclic group order must be >= 1, got {m}")
    table = tuple(tuple((i + j) % m for j in range(m)) for i in range(m))
    return _finish(table, f"C{m}")


def make_generalized_quaternion(order: int) -> FiniteGroup:
    """Q_{4k} = <x, y | x^{2k} = 1, y^2 = x^k, y x y^-1 = x^-1>.

    Elements are x^i (index i) and x^i y (index 2k + i) for 0 <= i < 2k.
    """
    if order < 8 or order % 4 != 0:
        raise InvalidOrderError(
            f"generalized quaternion order must be 4k with k >= 2, got {order}"
        )
    k = order // 4
    n2 = 2 * k  # order of x

    def mul(a: int, b: int) -> int:
        i, s = a % n2, a // n2
        j, t = b % n2, b // n2
        # (x^i y^s)(x^j y^t): push x^j through y^s
        jj = -j % n2 if s else j
        i2 = (i + jj) % n2
        if s and t:
            return (i2 + k) % n2  # y^2 = x^k
        return i2 + (n2 if s != t else 0)

    table = tuple(tuple(mul(a, b) for b in range(order)) for a in range(order))
    return _finish(table, f"Q{order}")


def as_int(value) -> int:
    """``operator.index``, except that a bool (JSON true/false) is no integer."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool, not an integer")
    return operator.index(value)


def make_from_table(table) -> FiniteGroup:
    """Validate an arbitrary square table; relabel so the identity is 0."""
    if not isinstance(table, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in table
    ):
        raise StructureError("a group table must be a list of rows")
    try:
        rows = tuple(tuple(map(as_int, row)) for row in table)
    except TypeError:
        raise StructureError("group table entries must be integers") from None
    return _finish(rows, f"table[{len(rows)}]")


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """A x B with pair (i, j) encoded as i * |B| + j."""
    nb = b.order
    n = a.order * nb
    if n > max_order():
        raise SizeCapError(f"order {n} exceeds cap {max_order()}")
    table = tuple(
        tuple(
            a.table[x // nb][y // nb] * nb + b.table[x % nb][y % nb]
            for y in range(n)
        )
        for x in range(n)
    )
    return _finish(table, f"{a.name or 'A'}x{b.name or 'B'}")


def element_order(g: FiniteGroup, x: int) -> int:
    """Least t >= 1 with x^t = identity."""
    if not 0 <= x < g.order:
        raise StructureError(f"element index {x} out of range")
    return g.element_orders[x]


@dataclass(frozen=True)
class AdmissibilityReport:
    """Counts of solutions of x^p = e per prime p | |G|, with verdict.

    A group acting freely on a sphere has at most p solutions of
    x^p = e for each prime p (all subgroups of order p^2 are cyclic):
    more means G contains Z/p x Z/p, which acts freely on no sphere
    (P. A. Smith, 1944).  So a failure fails ``check``; the condition is
    necessary, not sufficient, and a pass proves nothing.
    """

    counts: tuple[tuple[int, int], ...]  # (prime, count) pairs
    passed: bool
    failing_primes: tuple[int, ...]


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def rank_one_check(g: FiniteGroup) -> AdmissibilityReport:
    orders = g.element_orders  # x^p = e iff ord(x) divides p
    counts = tuple((p, sum(p % o == 0 for o in orders)) for p in _prime_divisors(g.order))
    failing = tuple(p for p, c in counts if c > p)
    return AdmissibilityReport(counts=counts, passed=not failing, failing_primes=failing)


# --- group-table file format: {"order": m, "table": [[...], ...]} ---


def group_to_json(g: FiniteGroup) -> dict:
    return {"order": g.order, "table": [list(row) for row in g.table]}


def group_from_json(data: dict) -> FiniteGroup:
    if not isinstance(data, dict) or "table" not in data:
        raise StructureError("group file must be an object with a 'table' key")
    g = make_from_table(data["table"])
    if "order" in data and (isinstance(data["order"], bool) or data["order"] != g.order):
        raise StructureError(
            f"declared order {data['order']} does not match table size {g.order}"
        )
    return g


def load_group(path: str | Path) -> FiniteGroup:
    with open(path) as fh:
        return group_from_json(json.load(fh))
