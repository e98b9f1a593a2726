"""Finite groups represented by explicit multiplication tables.

All groups live as immutable Cayley tables with the identity pinned at
index 0.  Every constructor ends in :func:`_finish`, the one validator:
shape, rows that permute and a two-sided identity (:func:`_check_table`,
the identity relabelled to index 0 when it sits elsewhere), then
associativity on the group's generators.  The columns then permute too: a
finite monoid whose left multiplications are bijections is a group, so
they are scanned only to name the failure of a table that is none.  So
any :class:`FiniteGroup` in circulation is a genuine group.  G's table and
the units E(G, n) share :func:`orders_in` and :func:`identity_row`; G's
table alone takes Light's test below (End(G)'s table composes maps, which
associate).  :func:`greedy_walk` finds G's generators
(``FiniteGroup.generators``, read by Light's test and the End(G) search)
and, as End(G) is searched, End(G)'s Cayley graph.

Associativity is decided exactly by Light's test (Clifford & Preston,
*Algebraic Theory of Semigroups* I, 1961): the set T of elements y with
(x*y)*z = x*(y*z) for all x, z is closed under the product, because
(x*(y*y'))*z = ((x*y)*y')*z = (x*y)*(y'*z) = x*(y*(y'*z)) = x*((y*y')*z)
for y, y' in T.  T contains the identity, so once it contains a set A
whose products, grown from the identity, reach every element, T is the
whole table.  Checking y in A only costs O(n^2 |A|) instead of O(n^3).
The argument uses no inverses, so it decides associativity of any finite
table with a two-sided identity.
"""

from __future__ import annotations

import json
import operator
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from pathlib import Path

from .errors import (
    InputError,
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

    What is derived from the table (element orders, generators, End(G), ...) is
    computed at most once and kept in ``__dict__``, out of ``==`` and hash.
    """

    order: int
    table: tuple[tuple[int, ...], ...]
    name: str = ""

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        return orders_in(self.table, 0)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """G's generators by :func:`greedy_walk` on the columns: next, the unreached
        x whose least k with x^k in the subgroup H reached so far is largest, then
        the least order (fewest End(G) candidates), then the least index."""
        orders, t = self.element_orders, self.table

        def pick(reached: list[bool]) -> int:
            first = reached.count(True) == 1  # H = {0}: k is ord(x), read off the orders

            def key(x: int) -> tuple[int, int, int]:
                k, y = (orders[x], 0) if first else (1, x)  # y = x^k
                while not reached[y]:
                    k, y = k + 1, t[x][y]
                return -k, orders[x], x

            return min((x for x, r in enumerate(reached) if not r), key=key)

        return tuple(greedy_walk(self.order, 0, lambda s: [row[s] for row in t], pick)[0])

    @cached_property
    def cyclic_generator(self) -> int | None:
        """Some element of full order, or None if the group is not cyclic."""
        orders = self.element_orders
        return orders.index(self.order) if self.order in orders else None

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order})"


def orders_in(table: tuple[tuple[int, ...], ...], ident: int) -> tuple[int, ...]:
    """ord(x) for every x of a group table with identity ``ident``.

    One walk x, x^2, ... per cyclic subgroup not yet covered, since
    ord(x^k) = ord(x) / gcd(k, ord(x)).  The powers are taken on the left,
    x^(k+1) = x*x^k: row x permutes and maps ``ident`` to x, so the walk
    ends on any table whose rows permute, associative or not.
    """
    orders = [0] * len(table)
    for x in range(len(table)):
        if not orders[x]:
            powers = [x]
            while powers[-1] != ident:
                powers.append(table[x][powers[-1]])
            for k, y in enumerate(powers, 1):
                orders[y] = len(powers) // gcd(k, len(powers))
    return tuple(orders)


def identity_row(table: tuple[tuple[int, ...], ...]) -> int | None:
    """The first e whose row is 0, 1, ..., n-1 (a left identity), or None."""
    row_of_identity = tuple(range(len(table)))
    return next((e for e, row in enumerate(table) if row == row_of_identity), None)


def greedy_walk(
    size: int, ident: int, column: Callable[[int], Sequence[int]], pick: Callable[[list], int]
) -> tuple[list[int], list[Sequence[int]], list[int], list[tuple[int, int] | None]]:
    """Greedy generators: repeatedly add ``pick(reached)``, an unreached element.

    ``column(t)`` lists x*t for every x.  An element is reached when it is a
    product (((ident*a1)*a2)*...)*ak of chosen generators; in a finite group
    these products form the subgroup the generators generate.  Any square
    table will do, provided ``ident`` is a left identity: then each new
    generator a = ident*a is reached at once.  Otherwise the walk may never end.

    Each element is walked once with each generator: what was reached
    before a generator was added is closed under the earlier ones, so it
    needs only the new one, O(n |S|) steps in all.  Returns the generators,
    their columns, the elements in the order reached, and the edge (x, t)
    that first reached each y = x*t: (ident, t) for a generator t, None for ident.
    """
    reached = [False] * size
    reached[ident] = True
    order = [ident]
    parents: list[tuple[int, int] | None] = [None] * size
    steps: list[tuple[int, Sequence[int]]] = []  # (t, column x -> x*t)
    while len(order) < size:
        nxt = pick(reached)
        col = column(nxt)
        steps.append((nxt, col))
        fresh = []
        for x in order:  # closed under the earlier generators already
            y = col[x]
            if not reached[y]:
                reached[y] = True
                parents[y] = (x, nxt)
                fresh.append(y)
        for x in fresh:  # the list grows while it is walked
            for t, col in steps:
                y = col[x]
                if not reached[y]:
                    reached[y] = True
                    parents[y] = (x, t)
                    fresh.append(y)
        order += fresh
    return [t for t, _ in steps], [col for _, col in steps], order, parents


def _check_table(table: tuple[tuple[int, ...], ...]) -> int:
    """Rows that permute and a two-sided identity, or raise; returns the
    identity's index.  The columns are scanned only when the identity check
    fails, to name a repeated column first; :func:`_finish` runs Light's test.
    """
    n = len(table)
    elems = set(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise StructureError(f"row {i} has length {len(row)}, expected {n}")
        if set(row) != elems:
            raise StructureError(f"row {i} is not a permutation of 0..{n - 1}")
    # the first identity row; a second one would repeat every column
    ident = identity_row(table)
    if ident is None or any(row[ident] != x for x, row in enumerate(table)):
        _check_columns(table)
        raise NotAGroupError("table has no two-sided identity")
    return ident


def _check_columns(table: tuple[tuple[int, ...], ...]) -> None:
    n = len(table)
    for j, col in enumerate(zip(*table)):
        if set(col) != set(range(n)):
            raise StructureError(f"column {j} is not a permutation of 0..{n - 1}")


def first_nonassociative(
    table: tuple[tuple[int, ...], ...], gens: Sequence[int]
) -> tuple[int, int, int] | None:
    """A triple (x, y, z) with (x*y)*z != x*(y*z), or None if there is none.

    Light's test (module docstring), y in ``gens`` only, which must generate
    the table from a two-sided identity, as ``FiniteGroup.generators`` does.
    Compares whole rows: row (x*y) against row x gathered at row y.
    """
    # a table with one element has no generators, so each gather gives a tuple
    gathers = [(y, operator.itemgetter(*table[y])) for y in gens]
    for x, tx in enumerate(table):
        for y, gather in gathers:
            txy = table[tx[y]]
            x_yz = gather(tx)
            if txy != x_yz:
                z = next(z for z, (a, b) in enumerate(zip(txy, x_yz)) if a != b)
                return x, y, z
    return None


def _check_cap(n: int) -> None:
    if n > max_order():
        raise SizeCapError(f"order {n} exceeds cap {max_order()}")


def _finish(table: tuple[tuple[int, ...], ...], name: str) -> FiniteGroup:
    n = len(table)
    if n == 0:
        raise InvalidOrderError("a group must have at least one element")
    _check_cap(n)
    ident = _check_table(table)
    perm = list(range(n))
    perm[0], perm[ident] = ident, 0  # swap labels 0 <-> identity
    relabelled = table if ident == 0 else tuple(
        tuple(perm[table[perm[x]][perm[y]]] for y in range(n)) for x in range(n)
    )
    g = FiniteGroup(order=n, table=relabelled, name=name)
    # Light's test (module docstring) on G's generators, in the table's own labels
    if triple := first_nonassociative(table, [perm[s] for s in g.generators]):
        _check_columns(table)
        x, y, z = triple
        raise NotAGroupError(f"associativity fails at ({x}*{y})*{z} != {x}*({y}*{z})")
    return g


def make_cyclic(m: int) -> FiniteGroup:
    """The cyclic group C_m with i*j = (i+j) mod m."""
    if m < 1:
        raise InvalidOrderError(f"cyclic group order must be >= 1, got {m}")
    _check_cap(m)
    twice = tuple(range(m)) * 2
    return _finish(tuple(twice[i:i + m] for i in range(m)), f"C{m}")


def make_generalized_quaternion(order: int) -> FiniteGroup:
    """Q_{4k} = <x, y | x^{2k} = 1, y^2 = x^k, y x y^-1 = x^-1>.

    Elements are x^i (index i) and x^i y (index 2k + i) for 0 <= i < 2k.
    """
    if order < 8 or order % 4 != 0:
        raise InvalidOrderError(
            f"generalized quaternion order must be 4k with k >= 2, got {order}"
        )
    _check_cap(order)
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
    _check_cap(n)
    table = tuple(
        tuple(
            a.table[x // nb][y // nb] * nb + b.table[x % nb][y % nb]
            for y in range(n)
        )
        for x in range(n)
    )
    return _finish(table, f"{a.name or 'A'}x{b.name or 'B'}")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Counts of solutions of x^p = e per prime p | |G|, with verdict.

    A prime fails when G has a non-cyclic subgroup of order p^2 or 2p, which
    no group acting freely on a sphere has.  p = 2 fails when G has two
    involutions: they generate a dihedral group, holding Z/2 x Z/2 or a D_q.
    An odd p fails when two commuting elements of order p lie in different
    cyclic subgroups, a Z/p x Z/p; a count above p alone does not (SL(2, 3)
    has 9 solutions of x^3 = e and acts freely on S^3).  A pass means that G
    acts freely on some sphere (Madsen, Thomas and Wall 1976), not that it
    acts on S^{2n+1}: the period is not checked.
    """

    counts: tuple[tuple[int, int], ...]  # (prime, count) pairs
    passed: bool
    failing_primes: tuple[int, ...]


def rank_one_check(g: FiniteGroup) -> AdmissibilityReport:
    orders, t = g.element_orders, g.table  # x^p = e iff ord(x) divides p
    # by Cauchy, p divides |G| iff an element has order p; any other order
    # o > 1 is divisible by a smaller one, that of x^(o/q) for a prime q | o
    primes: list[int] = []
    for o in sorted(set(orders) - {1}):
        if all(o % q for q in primes):
            primes.append(o)
    counts = tuple((p, sum(p % o == 0 for o in orders)) for p in primes)

    def fails(p: int, count: int) -> bool:
        if p == 2:  # two involutions
            return count > 2
        if count < p * p:  # a Z/p x Z/p alone holds p^2 solutions of x^p = e
            return False
        # some x of order p commutes with one beyond its own p - 1 powers of order p
        xs = [x for x, o in enumerate(orders) if o == p]
        return any(sum(t[x][y] == t[y][x] for y in xs) >= p for x in xs)

    failing = tuple(p for p, c in counts if fails(p, c))
    return AdmissibilityReport(counts=counts, passed=not failing, failing_primes=failing)


# --- group-table file format: {"order": m, "table": [[...], ...]} ---


def group_from_json(data: dict) -> FiniteGroup:
    if not isinstance(data, dict) or "table" not in data:
        raise StructureError("group file must be an object with a 'table' key")
    g = make_from_table(data["table"])
    try:
        declared = as_int(data.get("order", g.order))
    except TypeError:
        declared = None
    if declared != g.order:
        raise StructureError(
            f"declared order {data['order']} does not match table size {g.order}"
        )
    return g


def _read_json(path: str | Path, error: type[InputError], what: str):
    """The JSON value in a file; one the decoder cannot read raises ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:  # the decoder recurses once per level of nesting
        raise error(f"{what} file is nested too deeply to read") from None
    except ValueError as exc:  # not UTF-8, not JSON, or a number too long to convert
        raise error(f"{what} file is not valid JSON in UTF-8: {exc}") from None


def load_group(path: str | Path) -> FiniteGroup:
    return group_from_json(_read_json(path, StructureError, "group"))
