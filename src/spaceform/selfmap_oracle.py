"""Second, independent model of self-map classes for cross-validation.

A homotopy class of self-maps of a lens space is exactly a pair
(action on pi_1, mapping degree), here a plain tuple (pi1, degree) of
ints; composition multiplies both.  This module recomputes everything
for cyclic groups from scratch: residues 0..m-1 stand in for End(C_m),
each endomorphism's residue is read off a discrete log built by
repeated multiplication in G's table, the degree map is evaluated by
naive repeated multiplication (no shared code with the fast path), and
membership is decided by scanning the coset directly.  The cross-check against :mod:`spaceform.monoid_odd` is only
meaningful because the two paths share no arithmetic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial

from .errors import (
    DomainMismatchError,
    InvalidDimensionError,
    InvalidOrderError,
    InvalidWindowError,
    UnsupportedGroupError,
)
from .monoid_odd import MonoidContext, monoid_context


@dataclass(frozen=True)
class OracleContext:
    """Cyclic group of order m acting on S^{2n+1}."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1:
            raise InvalidOrderError(f"oracle order m must be >= 1, got {self.m}")
        if self.n < 0:
            raise InvalidDimensionError(f"n must be >= 0, got {self.n}")

    def naive_degree(self, r: int) -> int:
        """r^{n+1} mod m by repeated multiplication (deliberately not pow)."""
        acc = 1 % self.m
        for _ in range(self.n + 1):
            acc = acc * r % self.m
        return acc

    def coset_in_window(self, r: int, window: int) -> list[int]:
        """All representatives of d(r) + mZ with absolute value <= window."""
        d = self.naive_degree(r)
        rep = d
        while rep - self.m >= -window:
            rep -= self.m
        out = []
        while rep <= window:
            if rep >= -window:
                out.append(rep)
            rep += self.m
        return out

    def is_valid(self, f: tuple[int, int]) -> bool:
        """Membership by direct coset scan around the queried degree."""
        pi1, degree = f
        if not 0 <= pi1 < self.m:
            return False
        return degree in self.coset_in_window(pi1, abs(degree) + self.m)

    def classes_in_window(self, window: int) -> list[tuple[int, int]]:
        return [(r, k) for r in range(self.m) for k in self.coset_in_window(r, window)]


def compose_selfmaps(
    ctx: OracleContext, f: tuple[int, int], g: tuple[int, int]
) -> tuple[int, int]:
    m = ctx.m
    (fr, fk), (gr, gk) = f, g
    if not (0 <= fr < m and 0 <= gr < m):
        raise DomainMismatchError("pi_1 residue out of range for this context")
    return fr * gr % m, fk * gk


@dataclass(frozen=True)
class CrossCheckReport:
    m: int
    n: int
    window: int
    passed: bool
    element_count: int
    product_count: int
    witness: str | None = None

    def to_json(self) -> dict:
        return asdict(self)


def _discrete_log(table) -> tuple[int, dict[int, int]]:
    """A generator z of a cyclic group table and its log {z^r: r mod m}.

    Both come from walking z, z^2, ... in the table for z = 0, 1, ...
    until one walk covers the group; if none does, the group is refused.
    """
    m = len(table)
    for z in range(m):
        log, acc = {}, z
        while acc not in log:
            log[acc] = (len(log) + 1) % m
            acc = table[acc][z]
        if len(log) == m:
            return z, log
    raise UnsupportedGroupError("cross_check is defined for cyclic groups only")


def cross_check(group, n: int, window: int) -> CrossCheckReport:
    """Compare the monoid path with the oracle path on a cyclic context.

    ``group`` is a cyclic group, checked with its built-in d, or a
    ``MonoidContext`` for (G, n), checked with the d it was built with.
    Enumerates every valid element with |degree| <= window in both
    models, matches them under the endomorphism <-> residue bijection,
    and compares all pairwise products.  Stops at the first discrepancy.
    """
    ctx = group if isinstance(group, MonoidContext) else None
    group = ctx.group if ctx else group
    if ctx and ctx.n != n:
        raise DomainMismatchError(f"context is for n={ctx.n}, not n={n}")
    z, log = _discrete_log(group.table)  # refuses a non-cyclic group
    if window < 1:
        raise InvalidWindowError(f"window must be >= 1, got {window}")

    ctx = ctx or monoid_context(group, n)
    oracle = OracleContext(group.order, n)
    report = partial(CrossCheckReport, m=group.order, n=n, window=window)

    # endomorphism canonical index <-> residue r, where e(z) = z^r
    to_residue = tuple(log[e.images[z]] for e in ctx.endos)
    to_index = {r: i for i, r in enumerate(to_residue)}

    monoid_side = {(to_residue[a], k) for a, k in ctx.elements_in_window(window)}
    oracle_side = set(oracle.classes_in_window(window))
    if monoid_side != oracle_side:
        diff = (monoid_side - oracle_side) | (oracle_side - monoid_side)
        return report(
            passed=False,
            element_count=len(monoid_side),
            product_count=0,
            witness=f"valid-element sets differ, e.g. {sorted(diff)[0]}",
        )

    pairs = sorted(monoid_side)
    monoid_elems = [ctx.element(to_index[r], k) for r, k in pairs]
    multiply = ctx.multiply
    products = 0
    for x, f in zip(monoid_elems, pairs):
        for y, g in zip(monoid_elems, pairs):
            alpha, k = multiply(x, y)
            want = compose_selfmaps(oracle, f, g)
            products += 1
            if (to_residue[alpha], k) != want:
                return report(
                    passed=False,
                    element_count=len(pairs),
                    product_count=products,
                    witness=(
                        f"product mismatch at {f}*{g}: "
                        f"monoid gave {(to_residue[alpha], k)}, oracle gave {want}"
                    ),
                )
    return report(passed=True, element_count=len(pairs), product_count=products)
