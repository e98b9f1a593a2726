"""Name-matching for small groups by invariant fingerprint.

Used by the CLI to label the group of units E(G, n) for orders <= 16.
The fingerprint is (order, abelian?, sorted element-order profile),
which separates all groups of order <= 16 except 16 itself, where a
few profiles collide; unmatched or ambiguous profiles report as
"unrecognized".
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd, lcm

Fingerprint = tuple[int, bool, tuple[int, ...]]


def _cyclic_orders(m: int) -> list[int]:
    return [m // gcd(m, i) for i in range(m)]


def _product_orders(factors: tuple[int, ...]) -> list[int]:
    per = [_cyclic_orders(m) for m in factors]
    return [lcm(*combo) if combo else 1 for combo in product(*per)]


def _invariant_factor_chains(m: int, least: int = 1):
    """Every chain d1 | d2 | ... of integers > 1 with product m, d1 a multiple of least.

    These name the abelian groups of order m, C_d1 x C_d2 x ..., once each.
    """
    if m == 1:
        yield ()
    for d in range(least, m + 1, least):
        if d > 1 and m % d == 0:
            for rest in _invariant_factor_chains(m // d, d):
                yield (d, *rest)


def _dihedral_orders(k: int) -> list[int]:
    # k rotations plus k reflections of order 2
    return _cyclic_orders(k) + [2] * k


def _quaternion_orders(order: int) -> list[int]:
    # x^i y squares to x^k, whose order is 2, so all such elements have order 4
    return _cyclic_orders(order // 2) + [4] * (order // 2)


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
        for factors in _invariant_factor_chains(m):
            name = " x ".join(f"C{d}" for d in factors) or "C1"
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
