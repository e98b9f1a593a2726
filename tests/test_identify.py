import pytest

from spaceform import element_order, make_cyclic, make_generalized_quaternion
from spaceform.identify import _catalog, _product_orders, identify_group


def profile(g):
    return tuple(element_order(g, x) for x in range(g.order))


def prime_of(q: int) -> int | None:
    """The prime p if q is a power of p, else None."""
    p = next((p for p in range(2, q + 1) if q % p == 0), None)
    while p and q % p == 0:
        q //= p
    return p if q == 1 else None


def prime_power_partitions(n: int, minimum: int = 2):
    """Every multiset of prime powers > 1 with product n, ascending."""
    if n == 1:
        yield []
    for q in range(minimum, n + 1):
        if n % q == 0 and prime_of(q):
            for rest in prime_power_partitions(n // q, q):
                yield [q, *rest]


def invariant_factors(prime_powers: list[int]) -> list[int]:
    """Multiply the i-th largest power of each prime together: d1 | d2 | ..."""
    by_prime: dict[int, list[int]] = {}
    for q in prime_powers:
        by_prime.setdefault(prime_of(q), []).append(q)
    columns = [sorted(powers, reverse=True) for powers in by_prime.values()]
    depth = max(map(len, columns), default=0)
    factors = []
    for i in range(depth):
        d = 1
        for powers in columns:
            d *= powers[i] if i < len(powers) else 1
        factors.append(d)
    return sorted(factors)


def test_abelian_names_match_the_prime_power_construction():
    # the construction the catalog used before it enumerated chains d1 | d2 | ...
    # directly: prime-power multisets, merged into invariant factors
    reference = {
        (m, True, tuple(sorted(_product_orders(powers)))):
            " x ".join(f"C{d}" for d in invariant_factors(powers)) or "C1"
        for m in range(1, 17)
        for powers in prime_power_partitions(m)
    }
    assert {fp: name for fp, name in _catalog().items() if fp[1]} == reference
    assert len(_catalog()) == 35


class TestIdentifyGroup:
    @pytest.mark.parametrize("m", range(1, 17))
    def test_cyclic(self, m):
        g = make_cyclic(m)
        assert identify_group(m, True, profile(g)) == f"C{m}"

    def test_klein_four(self):
        assert identify_group(4, True, (1, 2, 2, 2)) == "C2 x C2"

    def test_q8(self):
        g = make_generalized_quaternion(8)
        assert identify_group(8, False, profile(g)) == "Q8"

    def test_q16(self):
        g = make_generalized_quaternion(16)
        assert identify_group(16, False, profile(g)) == "Q16"

    def test_unknown_profile(self):
        assert identify_group(8, False, (1,) * 8) == "unrecognized"

    def test_large_order(self):
        assert identify_group(24, True, ()) == "unrecognized (order > 16)"
