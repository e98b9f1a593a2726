"""The degree homomorphism d: End(G) -> (Z/|G|)_x.

Values are plain ints, least non-negative residues mod |G|.  For a
cyclic group of order m acting on S^{2n+1}, an endomorphism given by
the residue r has d(r) = r^{n+1} mod m, and this is built in.  For
any other group the table must be supplied by the user and is accepted
only if it satisfies the monoid-homomorphism laws, checked exhaustively.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from math import gcd
from pathlib import Path

from .endomorphisms import (
    Endomorphism,
    composition_table,
    enumerate_endomorphisms,
    identity_endomorphism,
)
from .errors import (
    DTableFormatError,
    IncompleteTableError,
    InvalidTableError,
    NotAHomomorphismError,
    UnsupportedGroupError,
)
from .groups import FiniteGroup


def endo_residue(e: Endomorphism) -> int:
    """The residue r with e(z) = z^r for a generator z of a cyclic group.

    Independent of the choice of generator: if w = z^s then e(w) = w^r
    for the same r.
    """
    g = e.group
    z = g.cyclic_generator
    if z is None:
        raise UnsupportedGroupError(f"{g!r} is not cyclic")
    target = e.images[z]
    acc, r = 0, 0
    while acc != target:
        acc = g.table[acc][z]
        r += 1
    return r


@dataclass(frozen=True)
class DegreeHom:
    """Table of d over the canonical endomorphism enumeration.

    Each value is the least non-negative residue of d(alpha) mod |G|.
    """

    group: FiniteGroup
    n: int
    values: tuple[int, ...]
    provenance: str  # "builtin-cyclic" | "user-supplied"

    def __call__(self, endo_index: int) -> int:
        return self.values[endo_index]


@dataclass(frozen=True)
class LawFailure:
    law: str  # "identity" | "multiplicativity" | "unit"
    witness: tuple[int, ...]  # endomorphism indices involved
    message: str


@dataclass(frozen=True)
class HomValidationReport:
    passed: bool
    failures: tuple[LawFailure, ...]

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "failures": [
                {"law": f.law, "witness": list(f.witness), "message": f.message}
                for f in self.failures
            ],
        }


def _law_failures(
    g: FiniteGroup, d: tuple[int, ...], comp: tuple[tuple[int, ...], ...]
) -> list[LawFailure]:
    endos = enumerate_endomorphisms(g)
    m = g.order
    failures: list[LawFailure] = []
    ident = identity_endomorphism(g).canonical_index
    if d[ident] != 1 % m:
        failures.append(
            LawFailure(
                "identity",
                (ident,),
                f"d(identity endo {ident}) = {d[ident]}, expected {1 % m}",
            )
        )
    for i, row in enumerate(comp):
        di = d[i]
        for j, c in enumerate(row):
            if d[c] != di * d[j] % m:
                failures.append(
                    LawFailure(
                        "multiplicativity",
                        (i, j),
                        f"d(endo {i} o endo {j}) = {d[c]} "
                        f"!= d({i})*d({j}) = {di * d[j] % m} mod {m}",
                    )
                )
    for e in endos:
        if e.is_automorphism and gcd(d[e.canonical_index], m) != 1:
            failures.append(
                LawFailure(
                    "unit",
                    (e.canonical_index,),
                    f"automorphism {e.canonical_index} maps to non-unit "
                    f"{d[e.canonical_index]} mod {m}",
                )
            )
    return failures


def build_degree_hom(
    g: FiniteGroup,
    n: int,
    user_table: dict[int, int] | None = None,
    comp: tuple[tuple[int, ...], ...] | None = None,
) -> DegreeHom:
    """Construct d for (G, n); cyclic groups need no table.

    A user table is law-checked against ``comp``, the composition table
    of G, computed here unless the caller already holds it.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    endos = enumerate_endomorphisms(g)
    m = g.order
    if user_table is None:
        if g.cyclic_generator is None:
            raise UnsupportedGroupError(
                f"no built-in degree homomorphism for non-cyclic {g!r}; "
                "supply a d-table"
            )
        values = tuple(pow(endo_residue(e), n + 1, m) for e in endos)
        return DegreeHom(group=g, n=n, values=values, provenance="builtin-cyclic")

    missing = [e.canonical_index for e in endos if e.canonical_index not in user_table]
    if missing:
        raise IncompleteTableError(
            f"d-table missing entries for endomorphism indices {missing}"
        )
    values = tuple(user_table[e.canonical_index] % m for e in endos)
    if comp is None:
        comp = composition_table(g)
    failures = _law_failures(g, values, comp)
    for f in failures:
        if f.law == "multiplicativity":
            raise NotAHomomorphismError(f.message, witness=(f.witness[0], f.witness[1]))
    if failures:
        raise InvalidTableError("; ".join(f.message for f in failures))
    return DegreeHom(group=g, n=n, values=values, provenance="user-supplied")


def validate_degree_hom(d: DegreeHom) -> HomValidationReport:
    """Certify the homomorphism laws; failures carry explicit witnesses."""
    failures = _law_failures(d.group, d.values, composition_table(d.group))
    return HomValidationReport(passed=not failures, failures=tuple(failures))


# --- d-table file format: {"n": n, "values": {"<endo_index>": residue}} ---


def dtable_to_json(d: DegreeHom) -> dict:
    return {
        "n": d.n,
        "values": {str(i): v for i, v in enumerate(d.values)},
    }


def dtable_from_json(data: dict) -> tuple[int | None, dict[int, int]]:
    if not isinstance(data, dict) or not isinstance(data.get("values", {}), dict):
        raise DTableFormatError('a d-table must be an object {"n": n, "values": {...}}')
    n = data.get("n")
    try:
        values = {int(k): operator.index(v) for k, v in data.get("values", {}).items()}
        return (None if n is None else operator.index(n), values)
    except (TypeError, ValueError):
        raise DTableFormatError("d-table keys, values and n must be integers") from None


def load_dtable(path: str | Path) -> tuple[int | None, dict[int, int]]:
    with open(path) as fh:
        return dtable_from_json(json.load(fh))
