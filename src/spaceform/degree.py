"""The degree homomorphism d: End(G) -> (Z/|G|)_x.

Values are plain ints, least non-negative residues mod |G|.  For a
cyclic group of order m acting on S^{2n+1}, an endomorphism given by
the residue r has d(r) = r^{n+1} mod m, and this is built in.  For
any other group the table must be supplied by the user and is accepted
only if it satisfies the monoid-homomorphism laws, checked exhaustively.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd
from pathlib import Path

from .endomorphisms import (
    Endomorphism,
    composition_table,  # noqa: F401  (perfbench/test_perfbench.py patches it here)
    enumerate_endomorphisms,
    identity_endomorphism,
    stored_composition_table,
)
from .errors import (
    DTableFormatError,
    IncompleteTableError,
    InvalidDimensionError,
    InvalidTableError,
    NotAHomomorphismError,
    UnknownIndexError,
    UnsupportedGroupError,
)
from .groups import FiniteGroup, as_int


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


def _law_failures(g: FiniteGroup, d: tuple[int, ...]) -> list[LawFailure]:
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
    for i, row in enumerate(stored_composition_table(g)):
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
    g: FiniteGroup, n: int, user_table: dict[int, int] | None = None
) -> DegreeHom:
    """Construct d for (G, n); cyclic groups need no table.

    A user table must have exactly the indices of End(G), and is
    law-checked against the composition table stored with End(G).
    """
    if n < 0:
        raise InvalidDimensionError(f"n must be >= 0, got {n}")
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
    unknown = sorted(i for i in user_table if not 0 <= i < len(endos))
    if unknown:
        raise UnknownIndexError(
            f"d-table has entries for unknown endomorphism indices {unknown} "
            f"(End(G) has 0..{len(endos) - 1})"
        )
    values = tuple(user_table[e.canonical_index] % m for e in endos)
    failures = _law_failures(g, values)
    for f in failures:
        if f.law == "multiplicativity":
            raise NotAHomomorphismError(f.message, witness=(f.witness[0], f.witness[1]))
    if failures:
        raise InvalidTableError("; ".join(f.message for f in failures))
    return DegreeHom(group=g, n=n, values=values, provenance="user-supplied")


def validate_degree_hom(d: DegreeHom) -> tuple[LawFailure, ...]:
    """Every broken homomorphism law, each with its explicit witness.

    Empty exactly when d is lawful.  The failures come in the order
    identity, multiplicativity (row by row of the composition table),
    unit.
    """
    return tuple(_law_failures(d.group, d.values))


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
        values = {int(k): as_int(v) for k, v in data.get("values", {}).items()}
        return (None if n is None else as_int(n), values)
    except (TypeError, ValueError):
        raise DTableFormatError("d-table keys, values and n must be integers") from None


def load_dtable(path: str | Path) -> tuple[int | None, dict[int, int]]:
    with open(path) as fh:
        return dtable_from_json(json.load(fh))
