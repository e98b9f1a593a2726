"""Second, independent model of self-map classes for cross-validation.

A homotopy class of self-maps of a lens space is exactly a pair
(action on pi_1, mapping degree); composition multiplies both.  This
module recomputes everything for cyclic groups from scratch: residues
0..m-1 stand in for End(C_m), the degree map is evaluated by naive
repeated multiplication (no shared code with the fast path), and
membership is decided by scanning the coset directly.  The cross-check
against :mod:`spaceform.monoid_odd` is only meaningful because the two
paths share no arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .degree import endo_residue
from .errors import (
    DomainMismatchError,
    InvalidDimensionError,
    InvalidOrderError,
    InvalidWindowError,
    UnsupportedGroupError,
)
from .monoid_odd import MonoidContext, monoid_context


class SelfMapClass(NamedTuple):
    """(induced residue on pi_1, exact mapping degree)."""

    pi1: int
    degree: int


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

    def is_valid(self, f: SelfMapClass) -> bool:
        """Membership by direct coset scan around the queried degree."""
        if not 0 <= f.pi1 < self.m:
            return False
        return f.degree in self.coset_in_window(f.pi1, abs(f.degree) + self.m)

    def classes_in_window(self, window: int) -> list[SelfMapClass]:
        return [
            SelfMapClass(r, k)
            for r in range(self.m)
            for k in self.coset_in_window(r, window)
        ]


def compose_selfmaps(ctx: OracleContext, f: SelfMapClass, g: SelfMapClass) -> SelfMapClass:
    m = ctx.m
    if not (0 <= f.pi1 < m and 0 <= g.pi1 < m):
        raise DomainMismatchError("pi_1 residue out of range for this context")
    return SelfMapClass(f.pi1 * g.pi1 % m, f.degree * g.degree)


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
        return {
            "m": self.m,
            "n": self.n,
            "window": self.window,
            "passed": self.passed,
            "element_count": self.element_count,
            "product_count": self.product_count,
            "witness": self.witness,
        }


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
    if group.cyclic_generator is None:
        raise UnsupportedGroupError("cross_check is defined for cyclic groups only")
    if window < 1:
        raise InvalidWindowError(f"window must be >= 1, got {window}")

    ctx = ctx or monoid_context(group, n)
    oracle = OracleContext(group.order, n)
    report = partial(CrossCheckReport, m=group.order, n=n, window=window)

    # endomorphism canonical index <-> residue
    to_residue = tuple(endo_residue(e) for e in ctx.endos)
    to_index = {r: i for i, r in enumerate(to_residue)}

    monoid_side = {
        (to_residue[x.alpha], x.k) for x in ctx.elements_in_window(window)
    }
    oracle_side = {(f.pi1, f.degree) for f in oracle.classes_in_window(window)}
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
    oracle_elems = [SelfMapClass(r, k) for r, k in pairs]
    multiply = ctx.multiply
    products = 0
    for x, f in zip(monoid_elems, oracle_elems):
        for y, g in zip(monoid_elems, oracle_elems):
            got = multiply(x, y)
            want = compose_selfmaps(oracle, f, g)
            products += 1
            if to_residue[got.alpha] != want.pi1 or got.k != want.degree:
                return report(
                    passed=False,
                    element_count=len(pairs),
                    product_count=products,
                    witness=(
                        f"product mismatch at {tuple(f)}*{tuple(g)}: "
                        f"monoid gave {(to_residue[got.alpha], got.k)}, "
                        f"oracle gave {tuple(want)}"
                    ),
                )
    return report(passed=True, element_count=len(pairs), product_count=products)
