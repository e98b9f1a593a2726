"""Finite groups represented by explicit multiplication tables.

All groups live as immutable Cayley tables with the identity pinned at
index 0.  Construction always runs the full battery of checks (Latin
square, identity, inverses, exhaustive associativity), so any
:class:`FiniteGroup` in circulation is a genuine group.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
    """A finite group: ``table[x][y]`` is the product x*y, identity is 0."""

    order: int
    table: tuple[tuple[int, ...], ...]
    inverses: tuple[int, ...]
    name: str = ""

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def inv(self, x: int) -> int:
        return self.inverses[x]

    def power(self, x: int, e: int) -> int:
        if e < 0:
            x, e = self.inverses[x], -e
        acc = 0
        for _ in range(e):
            acc = self.table[acc][x]
        return acc

    def is_abelian(self) -> bool:
        t = self.table
        n = self.order
        return all(t[x][y] == t[y][x] for x in range(n) for y in range(x))

    def is_cyclic(self) -> bool:
        return any(element_order(self, x) == self.order for x in range(self.order))

    @cached_property
    def _hash(self) -> int:
        # Equal groups have equal tables.  A table of ints hashes the same in
        # every process, so the cached value survives pickling.
        return hash(self.table)

    def __hash__(self) -> int:
        # hashing the table costs O(|G|^2), and every cache keyed by the group pays it
        return self._hash

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"FiniteGroup({label}, order={self.order})"


def _check_table(table: tuple[tuple[int, ...], ...]) -> None:
    """Latin square + identity-at-0 + associativity, or raise."""
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
    for x in range(n):
        if table[0][x] != x or table[x][0] != x:
            raise NotAGroupError("index 0 is not a two-sided identity")
    # O(n^3); the cap keeps this affordable.
    for x in range(n):
        tx = table[x]
        for y in range(n):
            txy = table[tx[y]]
            ty = table[y]
            if any(txy[z] != tx[ty[z]] for z in range(n)):
                z = next(z for z in range(n) if txy[z] != tx[ty[z]])
                raise NotAGroupError(
                    f"associativity fails at ({x}*{y})*{z} != {x}*({y}*{z})"
                )


def _inverses(table: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    return tuple(row.index(0) for row in table)


def _finish(table: tuple[tuple[int, ...], ...], name: str) -> FiniteGroup:
    n = len(table)
    if n == 0:
        raise InvalidOrderError("a group must have at least one element")
    if n > max_order():
        raise SizeCapError(f"order {n} exceeds cap {max_order()}")
    _check_table(table)
    return FiniteGroup(order=n, table=table, inverses=_inverses(table), name=name)


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


def make_from_table(table) -> FiniteGroup:
    """Validate an arbitrary square table; relabel so the identity is 0."""
    rows = tuple(tuple(int(v) for v in row) for row in table)
    n = len(rows)
    if n == 0:
        raise InvalidOrderError("empty table")
    if n > max_order():
        raise SizeCapError(f"order {n} exceeds cap {max_order()}")
    elems = set(range(n))
    for i, row in enumerate(rows):
        if len(row) != n:
            raise StructureError(f"row {i} has length {len(row)}, expected {n}")
        if any(v < 0 or v >= n for v in row):
            raise StructureError(f"row {i} has an entry out of range 0..{n - 1}")
        if set(row) != elems:
            raise StructureError(f"row {i} is not a permutation of 0..{n - 1}")
    for j in range(n):
        if {row[j] for row in rows} != elems:
            raise StructureError(f"column {j} is not a permutation of 0..{n - 1}")
    ident = next(
        (
            e
            for e in range(n)
            if all(rows[e][x] == x and rows[x][e] == x for x in range(n))
        ),
        None,
    )
    if ident is None:
        raise NotAGroupError("table has no two-sided identity")
    if ident != 0:
        perm = list(range(n))
        perm[0], perm[ident] = ident, 0  # swap labels 0 <-> identity
        relabeled = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                relabeled[perm[x]][perm[y]] = perm[rows[x][y]]
        rows = tuple(tuple(row) for row in relabeled)
    return _finish(rows, f"table[{n}]")


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
    acc, t = x, 1
    while acc != 0:
        acc = g.table[acc][x]
        t += 1
    return t


@dataclass(frozen=True)
class AdmissibilityReport:
    """Counts of solutions of x^p = e per prime p | |G|, with verdict.

    A group acting freely on a sphere has at most p solutions of
    x^p = e for each prime p (all subgroups of order p^2 are cyclic).
    Necessary, not sufficient: a pass is a diagnostic only.
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
    counts = []
    failing = []
    for p in _prime_divisors(g.order):
        c = sum(1 for x in range(g.order) if g.power(x, p) == 0)
        counts.append((p, c))
        if c > p:
            failing.append(p)
    return AdmissibilityReport(
        counts=tuple(counts), passed=not failing, failing_primes=tuple(failing)
    )


# --- group-table file format: {"order": m, "table": [[...], ...]} ---


def group_to_json(g: FiniteGroup) -> dict:
    return {"order": g.order, "table": [list(row) for row in g.table]}


def group_from_json(data: dict) -> FiniteGroup:
    if not isinstance(data, dict) or "table" not in data:
        raise StructureError("group file must be an object with a 'table' key")
    g = make_from_table(data["table"])
    if "order" in data and int(data["order"]) != g.order:
        raise StructureError(
            f"declared order {data['order']} does not match table size {g.order}"
        )
    return g


def load_group(path: str | Path) -> FiniteGroup:
    with open(path) as fh:
        return group_from_json(json.load(fh))


@lru_cache(maxsize=None)
def cyclic_generator(g: FiniteGroup) -> int | None:
    """Some element of full order, or None if the group is not cyclic."""
    for x in range(g.order):
        if element_order(g, x) == g.order:
            return x
    return None
