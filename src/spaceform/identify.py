"""Name-matching for small groups by invariant fingerprint.

Used by the CLI to label the group of units E(G, n) for orders <= 16.
The fingerprint is (order, abelian?, sorted element-order profile),
which separates all groups of order <= 16 except 16 itself, where a
few profiles collide; unmatched or ambiguous profiles report as
"unrecognized".
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import product
from math import gcd, lcm

from .groups import _prime_divisors

Fingerprint = tuple[int, bool, tuple[int, ...]]


def _cyclic_orders(m: int) -> list[int]:
    return [m // gcd(m, i) for i in range(m)]


def _product_orders(factors: list[int]) -> list[int]:
    per = [_cyclic_orders(m) for m in factors]
    return [lcm(*combo) if combo else 1 for combo in product(*per)]


def _partitions_into_prime_powers(n: int) -> list[list[int]]:
    """All multisets of integers > 1, each a prime power, with product n."""
    out: list[list[int]] = []

    def rec(n: int, acc: list[int], minimum: int) -> None:
        if n == 1:
            out.append(list(acc))
            return
        for q in range(minimum, n + 1):
            if n % q:
                continue
            ps = _prime_divisors(q)
            if len(ps) != 1:
                continue
            acc.append(q)
            rec(n // q, acc, q)
            acc.pop()

    rec(n, [], 2)
    return out


def _invariant_factors(prime_powers: list[int]) -> list[int]:
    """Combine a prime-power multiset into invariant factors d1 | d2 | ..."""
    by_prime: dict[int, list[int]] = defaultdict(list)
    for q in prime_powers:
        by_prime[_prime_divisors(q)[0]].append(q)
    for powers in by_prime.values():
        powers.sort(reverse=True)
    depth = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for i in range(depth):
        d = 1
        for powers in by_prime.values():
            if i < len(powers):
                d *= powers[i]
        factors.append(d)
    return sorted(factors)


def _dihedral_orders(k: int) -> list[int]:
    # k rotations plus k reflections of order 2
    return _cyclic_orders(k) + [2] * k


def _quaternion_orders(order: int) -> list[int]:
    k = order // 4
    n2 = 2 * k
    rot = [n2 // gcd(n2, i) for i in range(n2)]
    # x^i y squares to x^k, whose order is 2, so all such elements have order 4
    return rot + [4] * n2


_EXTRA_PROFILES: dict[str, tuple[int, bool, list[int]]] = {
    "A4": (12, False, [1] + [2] * 3 + [3] * 8),
    "Dic3": (12, False, [1, 2] + [3] * 2 + [4] * 6 + [6] * 2),
}


@lru_cache(maxsize=1)
def _catalog() -> dict[Fingerprint, str]:
    table: dict[Fingerprint, str | None] = {}

    def add(name: str, order: int, abelian: bool, orders: list[int]) -> None:
        fp: Fingerprint = (order, abelian, tuple(sorted(orders)))
        if fp in table and table[fp] != name:
            table[fp] = None  # ambiguous profile
        else:
            table[fp] = name

    for m in range(1, 17):
        for factors in _partitions_into_prime_powers(m):
            name = " x ".join(f"C{d}" for d in _invariant_factors(factors)) or "C1"
            add(name, m, True, _product_orders(factors))
    for k in range(3, 9):
        add(f"D{k}", 2 * k, False, _dihedral_orders(k))
    for order in (8, 16):
        add(f"Q{order}", order, False, _quaternion_orders(order))
    for name, (order, abelian, orders) in _EXTRA_PROFILES.items():
        add(name, order, abelian, orders)
    return {fp: name for fp, name in table.items() if name is not None}


def identify_group(order: int, abelian: bool, element_orders: tuple[int, ...]) -> str:
    """Best-effort name for a group of order <= 16, else 'unrecognized'."""
    if order > 16:
        return "unrecognized (order > 16)"
    fp: Fingerprint = (order, abelian, tuple(sorted(element_orders)))
    return _catalog().get(fp, "unrecognized")
