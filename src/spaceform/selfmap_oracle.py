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
from .groups import as_int
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
        """r^{n+1} mod m by repeated multiplication (deliberately not pow).

        The powers r^0, r^1, ... mod m repeat within m steps; once one
        does, r^{n+1} is read off the cycle, so at most min(n+1, m)
        products are taken.
        """
        m, e = self.m, self.n + 1
        powers = [1 % m]  # powers[i] = r^i mod m
        first = {powers[0]: 0}
        while len(powers) <= e:
            acc = powers[-1] * r % m
            if acc in first:  # r^i = r^(start + (i - start) % period) from start on
                start = first[acc]
                return powers[start + (e - start) % (len(powers) - start)]
            first[acc] = len(powers)
            powers.append(acc)
        return powers[e]

    def coset_in_window(self, r: int, window: int, center: int = 0) -> list[int]:
        """All representatives of d(r) + mZ within ``window`` of ``center``."""
        d = self.naive_degree(r)
        rep = d - (d - center + window) // self.m * self.m  # the least >= center - window
        out = []
        while rep <= center + window:
            out.append(rep)
            rep += self.m
        return out

    def is_valid(self, f: tuple[int, int]) -> bool:
        """Membership by direct scan of the coset near the degree; False but
        for a pair of ints (no float, bool)."""
        try:
            pi1, degree = map(as_int, f)
            if not 0 <= pi1 < self.m:
                return False
            return degree in self.coset_in_window(pi1, self.m, degree)
        except (TypeError, ValueError):  # not a pair, or not of ints
            return False

    def classes_in_window(self, window: int) -> list[tuple[int, int]]:
        return [(r, k) for r in range(self.m) for k in self.coset_in_window(r, window)]


def compose_selfmaps(
    ctx: OracleContext, f: tuple[int, int], g: tuple[int, int]
) -> tuple[int, int]:
    """(fr gr mod m, fk gk) of classes from ``classes_in_window`` or a product.

    No type is checked; DomainMismatchError unless f, g are pairs with residues in 0..m-1.
    """
    m = ctx.m
    try:  # costs nothing until it raises
        fr, fk = f
        gr, gk = g
        if 0 <= fr < m and 0 <= gr < m:
            return fr * gr % m, fk * gk + 0  # + 0 refuses a str or sequence degree
    except (TypeError, ValueError):  # not a pair, or not of numbers
        raise DomainMismatchError(f"not a pair of ints: {f!r} o {g!r}") from None
    raise DomainMismatchError("pi_1 residue out of range for this context")


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
    models and matches them under the endomorphism <-> residue
    bijection.  Then, row by row in sorted order, every ordered pair
    (f, g) goes once through ``MonoidContext.multiply`` and once through
    ``compose_selfmaps``, and the two products are compared.  Stops at
    the first discrepancy; ``product_count`` is the number of pairs
    compared, all element_count**2 of them on a pass.
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
    both = [(ctx.element(to_index[r], k), (r, k)) for r, k in pairs]
    multiply = ctx.multiply
    for row, (x, f) in enumerate(both):
        for y, g in both:
            alpha, k = multiply(x, y)
            r, degree = compose_selfmaps(oracle, f, g)
            if k != degree or to_residue[alpha] != r:
                return report(
                    passed=False,
                    element_count=len(pairs),
                    product_count=row * len(pairs) + pairs.index(g) + 1,
                    witness=(
                        f"product mismatch at {f}*{g}: "
                        f"monoid gave {(to_residue[alpha], k)}, oracle gave {(r, degree)}"
                    ),
                )
    return report(passed=True, element_count=len(pairs), product_count=len(pairs) ** 2)
