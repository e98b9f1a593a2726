import random
from math import gcd

import pytest

from spaceform import (
    build_degree_hom,
    enumerate_endomorphisms,
    make_cyclic,
    validate_degree_hom,
)
from spaceform.degree import DegreeHom
from spaceform.endomorphisms import composition_table
from spaceform.errors import (
    DTableFormatError,
    IncompleteTableError,
    InvalidDimensionError,
    InvalidTableError,
    NotAHomomorphismError,
    UnknownIndexError,
    UnsupportedGroupError,
    ValidationError,
)
from tests.conftest import naive_power_mod


class TestResidue:
    """Degree residues are plain ints: least non-negative residues mod |G|."""

    def test_normalizes_negative(self):
        # the builtin table of C_5, n=1, is [0, 1, 4, 4, 1]; 4 = -1 mod 5
        d = build_degree_hom(make_cyclic(5), 1, {0: 0, 1: 1, 2: -1, 3: -6, 4: 6})
        assert d.values == (0, 1, 4, 4, 1)
        assert all(type(v) is int for v in d.values)

    def test_multiplication(self):
        g = make_cyclic(7)
        d = build_degree_hom(g, 2)
        for i, row in enumerate(composition_table(g)):
            for j, c in enumerate(row):
                assert d(c) == d(i) * d(j) % 7

    def test_modulus_one(self):
        d = build_degree_hom(make_cyclic(1), 4, {0: 17})
        assert d.values == (0,)


def builtin_cyclic_values(m: int, n: int) -> tuple[int, ...]:
    """d over End(C_m), indexed by residue: endo r has images[1] == r."""
    endos = enumerate_endomorphisms(make_cyclic(m))
    assert [e.images[1 % m] for e in endos] == [r % m for r in range(m)]
    return build_degree_hom(make_cyclic(m), n).values


class TestDCyclic:
    def test_identity_residue_is_fixed(self):
        for n in range(6):
            for m in (2, 5, 9):
                assert builtin_cyclic_values(m, n)[1] == 1

    def test_squaring_mod_5(self):
        assert builtin_cyclic_values(5, 1)[2] == 4

    def test_c2_gives_parities(self):
        assert builtin_cyclic_values(2, 3) == (0, 1)

    @pytest.mark.parametrize("m", range(1, 51))
    def test_agrees_with_repeated_multiplication(self, m):
        for n in range(13):
            values = builtin_cyclic_values(m, n)
            assert values == tuple(naive_power_mod(r, n + 1, m) for r in range(m))


class TestBuildCyclic:
    def test_c5_n1_values(self):
        d = build_degree_hom(make_cyclic(5), 1)
        assert d.values == (0, 1, 4, 4, 1)
        assert d.provenance == "builtin-cyclic"

    def test_trivial_group(self):
        d = build_degree_hom(make_cyclic(1), 0)
        assert len(d.values) == 1
        assert not validate_degree_hom(d)

    @pytest.mark.parametrize("m", range(1, 21))
    @pytest.mark.parametrize("n", [0, 1, 3, 7])
    def test_builtin_always_validates(self, m, n):
        assert not validate_degree_hom(build_degree_hom(make_cyclic(m), n))

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidDimensionError):
            build_degree_hom(make_cyclic(3), -1)

    def test_endo_residue_generator_independent(self):
        # relabel C_5 so its generator structure differs from make_cyclic
        from spaceform import make_from_table

        g = make_from_table([[(x + y) % 5 for y in range(5)] for x in range(5)])
        d = build_degree_hom(g, 1)
        assert sorted(d.values) == [0, 1, 1, 4, 4]


class TestUserTables:
    def test_non_cyclic_requires_table(self, q8):
        with pytest.raises(UnsupportedGroupError):
            build_degree_hom(q8, 1)

    def test_constant_one_table_accepted(self, q8):
        size = len(enumerate_endomorphisms(q8))
        d = build_degree_hom(q8, 1, {i: 1 for i in range(size)})
        assert d.provenance == "user-supplied"
        assert not validate_degree_hom(d)

    def test_missing_entries(self, q8):
        with pytest.raises(IncompleteTableError):
            build_degree_hom(q8, 1, {0: 1})

    def test_indices_outside_end_are_named(self, q8):
        table = {i: 1 for i in range(28)}  # |End(Q8)| = 28
        table.update({999: 1, -1: 1, 28: 1})
        with pytest.raises(UnknownIndexError) as exc:
            build_degree_hom(q8, 1, table)
        assert isinstance(exc.value, ValidationError)
        assert str(exc.value) == (
            "d-table has entries for unknown endomorphism indices [-1, 28, 999] "
            "(End(G) has 0..27)"
        )

    def test_table_for_a_larger_group_is_rejected(self, q8):
        # the all-ones table of Q16 (|End| = 36) holds every law on Q8 too
        with pytest.raises(UnknownIndexError, match=r"\[28, 29, .*, 35\]"):
            build_degree_hom(q8, 1, {i: 1 for i in range(36)})

    def test_identity_violation_on_c3(self):
        g = make_cyclic(3)
        with pytest.raises(InvalidTableError, match="identity"):
            build_degree_hom(g, 1, {i: 0 for i in range(3)})
        failures = validate_degree_hom(
            DegreeHom(group=g, n=1, values=(0, 0, 0), provenance="user-supplied")
        )
        assert failures
        assert any(f.law == "identity" for f in failures)

    def test_non_unit_on_automorphism_of_c12(self, c12):
        # keep identity and multiplicativity failures out of the way by
        # modifying the builtin table at a single automorphism
        good = dict(enumerate(build_degree_hom(c12, 2).values))
        endos = enumerate_endomorphisms(c12)
        aut = next(
            e.canonical_index
            for e in endos
            if e.is_automorphism and e.images[1] != 1
        )
        bad = dict(good)
        bad[aut] = 6  # gcd(6, 12) != 1
        with pytest.raises((InvalidTableError, NotAHomomorphismError)):
            build_degree_hom(c12, 2, bad)
        failures = validate_degree_hom(
            DegreeHom(
                group=c12,
                n=2,
                values=tuple(bad[i] for i in range(len(endos))),
                provenance="user-supplied",
            )
        )
        assert any(f.law == "unit" and f.witness == (aut,) for f in failures)

    def test_multiplicativity_witness_frozen_from_search(self):
        # C_6, n=1: builtin d = [0,1,4,3,4,1]; flipping d(2) to 2 keeps the
        # identity and unit laws but breaks d(2 o 5) = d(4) = 4 != 2*1.
        # Found by search over single-entry perturbations, frozen here.
        g = make_cyclic(6)
        table = {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 1}
        with pytest.raises(NotAHomomorphismError) as exc:
            build_degree_hom(g, 1, table)
        assert exc.value.witness is not None
        i, j = exc.value.witness
        # the reported pair really is a violation
        comp = composition_table(g)
        assert table[comp[i][j]] % 6 != table[i] * table[j] % 6


class TestSerialization:
    def test_dtable_round_trip(self):
        from spaceform.degree import dtable_from_json, dtable_to_json

        d = build_degree_hom(make_cyclic(5), 1)
        n, values = dtable_from_json(dtable_to_json(d))
        assert n == 1
        assert build_degree_hom(make_cyclic(5), 1, values).values == d.values

    @pytest.mark.parametrize(
        "data",
        [
            [1],
            {"values": [1, 1]},
            {"values": {"0": None}},
            {"values": {"0": 1.9}},
            {"values": {"0": "1"}},
            {"values": {"x": 1}},
            {"values": {"1.5": 1}},
            {"n": 1.5, "values": {"0": 1}},
            {"n": "1", "values": {"0": 1}},
            {"values": {"0": True}},
            {"n": True, "values": {"0": 1}},
        ],
    )
    def test_malformed_dtable_is_typed_input_error(self, data):
        from spaceform.degree import dtable_from_json

        with pytest.raises(DTableFormatError):
            dtable_from_json(data)

    def test_dtable_n_is_optional(self):
        from spaceform.degree import dtable_from_json

        assert dtable_from_json({"values": {"0": -1}}) == (None, {0: -1})

    def test_endo_list_serializes(self):
        from spaceform.endomorphisms import endomorphisms_to_json

        endos = enumerate_endomorphisms(make_cyclic(3))
        assert endomorphisms_to_json(endos) == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]


def independent_law_check(g, values: dict[int, int]) -> bool:
    """Naive re-check of all three laws, sharing no code with the validator."""
    endos = enumerate_endomorphisms(g)
    m = g.order
    ident = tuple(range(m))
    for e in endos:
        if e.images == ident and values[e.canonical_index] % m != 1 % m:
            return False
        if e.is_automorphism and gcd(values[e.canonical_index] % m, m) != 1:
            return False
    lookup = {e.images: e.canonical_index for e in endos}
    for a in endos:
        for b in endos:
            ab = lookup[tuple(a.images[x] for x in b.images)]
            if values[ab] % m != (values[a.canonical_index] * values[b.canonical_index]) % m:
                return False
    return True


class TestValidatorAgainstIndependentChecker:
    @pytest.mark.parametrize("group_name", ["c6", "q8"])
    def test_accept_iff_laws_hold(self, group_name, q8):
        g = make_cyclic(6) if group_name == "c6" else q8
        size = len(enumerate_endomorphisms(g))
        rng = random.Random(20240824)
        tables = [{i: rng.randrange(g.order) for i in range(size)} for _ in range(100)]
        # make sure the accepting side is exercised too
        tables.append({i: 1 for i in range(size)})
        if group_name == "c6":
            tables.append(
                dict(enumerate(build_degree_hom(g, 1).values))
            )
        accepted_counts = 0
        for table in tables:
            try:
                build_degree_hom(g, 1, table)
                accepted = True
            except (NotAHomomorphismError, InvalidTableError):
                accepted = False
            assert accepted == independent_law_check(g, table)
            accepted_counts += accepted
        assert accepted_counts >= 1
