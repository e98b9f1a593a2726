"""The degree homomorphism d: End(G) -> (Z/|G|)_x.

Values are plain ints, least non-negative residues mod |G|.  For a
cyclic group of order m acting on S^{2n+1}, an endomorphism given by
the residue r has d(r) = r^{n+1} mod m, and this is built in.  For
any other group the table must be supplied by the user and is accepted
only if it satisfies the monoid-homomorphism laws.  Multiplicativity is
decided exactly on the generator edges d(x o s) = d(x) d(s), with s among
End(G)'s greedy monoid generators (see :func:`_edges_hold`), read off the
columns of End(G)'s Cayley graph, walked when End(G) is searched and kept
in one record with it (``endomorphisms.cayley_graph``), with no
composition table.  The scan of the table runs only to name the failures,
and gathers its rows only as far as it reads: :func:`build_degree_hom`
stops at the first multiplicativity failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Iterator

from .endomorphisms import (
    Endomorphism,
    cayley_graph,
    composition_table,  # noqa: F401  (perfbench/test_perfbench.py patches it here)
    enumerate_endomorphisms,
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
from .groups import FiniteGroup, _read_json, as_int


def endo_residue(e: Endomorphism) -> int:
    """The residue r with e(z) = z^r for a generator z of a cyclic group.

    Independent of the choice of generator: if w = z^s then e(w) = w^r
    for the same r.  Read off the discrete log of z, built on the first
    call for a group and kept on it.
    """
    log = _log(e.group)  # refuses a group that is not cyclic
    return log[e.images[e.group.cyclic_generator]]


def _log(g: FiniteGroup) -> tuple[int, ...]:
    """log[z^r] = r for the generator z = ``g.cyclic_generator``, kept on ``g``."""
    if "_log" in g.__dict__:
        return g.__dict__["_log"]
    z = g.cyclic_generator
    if z is None:
        raise UnsupportedGroupError(f"{g!r} is not cyclic")
    log, acc = [0] * g.order, z
    for r in range(1, g.order):
        log[acc] = r
        acc = g.table[acc][z]
    return g.__dict__.setdefault("_log", tuple(log))


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


def _edges_hold(
    gens: tuple[int, ...], columns: tuple[tuple[int, ...], ...], d: tuple[int, ...], m: int
) -> bool:
    """d(x o s) = d(x) d(s) for every x and every s of End(G)'s monoid generators,
    with ``columns[i][x]`` = x o ``gens[i]``.

    With d(id) = 1 that is multiplicativity on all pairs: the set of y with
    d(x o y) = d(x) d(y) for all x holds id and is closed under o s, since
    d(x o (y o s)) = d((x o y) o s) = d(x) d(y) d(s) = d(x) d(y o s).  So it
    holds every word in the generators, which is all of End(G).
    """
    return all(
        d[xs] == dx * d[s] % m
        for s, col in zip(gens, columns)
        for dx, xs in zip(d, col)
    )


def _law_failures(g: FiniteGroup, d: tuple[int, ...]) -> Iterator[LawFailure]:
    """The failures in the order identity, multiplicativity (row-major), unit,
    found as they are read: a row is gathered when the scan reaches it."""
    end = cayley_graph(g)
    endos, ident, m = end.endos, end.identity, g.order
    bad_identity = d[ident] != 1 % m
    if bad_identity:
        yield LawFailure(
            "identity",
            (ident,),
            f"d(identity endo {ident}) = {d[ident]}, expected {1 % m}",
        )
    # the edges decide the law; the full scan runs only to name its failures
    if bad_identity or not _edges_hold(end.generators, end.columns, d, m):
        for i in range(len(endos)):
            di = d[i]
            for j, c in enumerate(end.row(i)):
                if d[c] != di * d[j] % m:
                    yield LawFailure(
                        "multiplicativity",
                        (i, j),
                        f"d(endo {i} o endo {j}) = {d[c]} "
                        f"!= d({i})*d({j}) = {di * d[j] % m} mod {m}",
                    )
    for e in endos:
        if e.is_automorphism and gcd(d[e.canonical_index], m) != 1:
            yield LawFailure(
                "unit",
                (e.canonical_index,),
                f"automorphism {e.canonical_index} maps to non-unit "
                f"{d[e.canonical_index]} mod {m}",
            )


def build_degree_hom(
    g: FiniteGroup, n: int, user_table: dict[int, int] | None = None
) -> DegreeHom:
    """Construct d for (G, n); cyclic groups need no table.

    A user table must have exactly the indices of End(G), and is
    law-checked against the composition of End(G) kept with ``g``.
    """
    if n < 0:
        raise InvalidDimensionError(f"n must be >= 0, got {n}")
    if user_table is None and g.cyclic_generator is None:  # before the End(G) search
        raise UnsupportedGroupError(
            f"no built-in degree homomorphism for non-cyclic {g!r}; supply a d-table"
        )
    endos = enumerate_endomorphisms(g)
    m = g.order
    if user_table is None:
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
    failures = []
    for f in _law_failures(g, values):  # no row past the first product that fails
        if f.law == "multiplicativity":
            raise NotAHomomorphismError(f.message, witness=(f.witness[0], f.witness[1]))
        failures.append(f)
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


def dtable_from_json(data: dict) -> tuple[int | None, dict[int, int]]:
    if not isinstance(data, dict) or not isinstance(data.get("values", {}), dict):
        raise DTableFormatError('a d-table must be an object {"n": n, "values": {...}}')
    n, raw = data.get("n"), data.get("values", {})
    try:
        values = {int(k): as_int(v) for k, v in raw.items()}
        n = None if n is None else as_int(n)
    except (TypeError, ValueError):
        raise DTableFormatError("d-table keys, values and n must be integers") from None
    # int() also reads "04", " 4" and "1_0", which would merge with or fake an index
    if key := next((k for k in raw if k != str(int(k))), None):
        raise DTableFormatError(f"d-table key {key!r} is not an index in decimal")
    return n, values


def load_dtable(path: str | Path) -> tuple[int | None, dict[int, int]]:
    return dtable_from_json(_read_json(path, DTableFormatError, "d-table"))
