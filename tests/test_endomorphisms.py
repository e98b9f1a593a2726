from itertools import product
from math import gcd

import pytest

from spaceform import (
    compose,
    direct_product,
    enumerate_automorphisms,
    enumerate_endomorphisms,
    identity_endomorphism,
    make_cyclic,
    make_generalized_quaternion,
)
from spaceform.endomorphisms import composition_table
from spaceform.errors import DomainMismatchError, SizeCapError
from tests.conftest import brute_force_endomorphisms


def cyclic_residue(endo) -> int:
    """For C_m built here, the endo x -> r*x has r = images[1]."""
    return endo.images[1] if endo.group.order > 1 else 0


class TestEnumeration:
    def test_c6_has_one_endo_per_residue(self):
        endos = enumerate_endomorphisms(make_cyclic(6))
        assert len(endos) == 6
        assert sorted(cyclic_residue(e) for e in endos) == list(range(6))

    def test_trivial_group(self):
        endos = enumerate_endomorphisms(make_cyclic(1))
        assert len(endos) == 1
        assert endos[0].is_automorphism

    def test_q8_counts(self, q8):
        endos = enumerate_endomorphisms(q8)
        auts = enumerate_automorphisms(q8)
        # 24 automorphisms plus 4 maps through the abelianization onto {1, y^2}
        assert len(endos) == 28
        assert len(auts) == 24

    def test_q8_against_element_by_element_backtracking(self, q8):
        expected = brute_force_endomorphisms(q8)
        assert {e.images for e in enumerate_endomorphisms(q8)} == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8, 12])
    def test_cyclic_against_backtracking(self, m):
        g = make_cyclic(m)
        assert {e.images for e in enumerate_endomorphisms(g)} == brute_force_endomorphisms(g)

    def test_sorted_lexicographically(self, q8):
        endos = enumerate_endomorphisms(q8)
        images = [e.images for e in endos]
        assert images == sorted(images)
        assert [e.canonical_index for e in endos] == list(range(len(endos)))

    def test_c12_automorphisms(self, c12):
        auts = enumerate_automorphisms(c12)
        assert sorted(cyclic_residue(a) for a in auts) == [1, 5, 7, 11]

    def test_c2_single_automorphism(self):
        assert len(enumerate_automorphisms(make_cyclic(2))) == 1

    @pytest.mark.parametrize("m", range(1, 31))
    def test_cyclic_counts(self, m):
        g = make_cyclic(m)
        phi = sum(1 for r in range(1, m + 1) if gcd(r, m) == 1)
        assert len(enumerate_endomorphisms(g)) == m
        assert len(enumerate_automorphisms(g)) == phi

    def test_cap_exceeded(self, monkeypatch):
        g = make_cyclic(20)
        monkeypatch.setenv("SPACEFORM_MAX_ORDER", "10")
        with pytest.raises(SizeCapError):
            enumerate_endomorphisms(g)

    def test_a_search_above_the_candidate_cap_is_refused_before_it_starts(self):
        # C2^6 is within the order cap; each of its 6 generators has 64 images
        g = make_cyclic(2)
        for _ in range(5):
            g = direct_product(g, make_cyclic(2))
        with pytest.raises(SizeCapError, match=f"search {64 ** 6} candidate generator images"):
            enumerate_endomorphisms(g)
        # C2^3 has 8^3 = 512 candidates, all of them endomorphisms
        c2_3 = direct_product(direct_product(make_cyclic(2), make_cyclic(2)), make_cyclic(2))
        assert len(enumerate_endomorphisms(c2_3)) == 512


class TestGeneratingSet:
    def test_cyclic_needs_one_generator(self):
        assert make_cyclic(12).generators == (1,)

    def test_q8_uses_two_generators(self, q8):
        assert len(q8.generators) == 2

    def test_trivial_group_needs_none(self):
        assert make_cyclic(1).generators == ()


class TestCompose:
    def test_identity_is_neutral(self, q8):
        ident = identity_endomorphism(q8)
        for e in enumerate_endomorphisms(q8):
            assert compose(ident, e) == e
            assert compose(e, ident) == e

    def test_c5_residues_multiply(self):
        endos = enumerate_endomorphisms(make_cyclic(5))
        by_r = {cyclic_residue(e): e for e in endos}
        assert compose(by_r[2], by_r[3]) == by_r[1]  # 6 mod 5

    def test_c6_collapses_to_trivial(self):
        endos = enumerate_endomorphisms(make_cyclic(6))
        by_r = {cyclic_residue(e): e for e in endos}
        assert compose(by_r[2], by_r[3]) == by_r[0]  # 6 mod 6

    @pytest.mark.parametrize("m", [4, 6, 9, 10])
    def test_cyclic_compose_is_residue_multiplication(self, m):
        endos = enumerate_endomorphisms(make_cyclic(m))
        by_r = {cyclic_residue(e): e for e in endos}
        for a, b in product(range(m), repeat=2):
            assert compose(by_r[a], by_r[b]) == by_r[a * b % m]

    def test_mismatched_groups_rejected(self):
        a = enumerate_endomorphisms(make_cyclic(4))[1]
        b = enumerate_endomorphisms(make_cyclic(5))[1]
        with pytest.raises(DomainMismatchError):
            compose(a, b)

    def test_closure_and_associativity(self, q8):
        endos = enumerate_endomorphisms(q8)
        table = composition_table(q8)
        size = len(endos)
        assert all(0 <= table[i][j] < size for i in range(size) for j in range(size))
        for i, j, k in product(range(size), repeat=3):
            assert table[table[i][j]][k] == table[i][table[j][k]]

    def test_composition_table_matches_compose(self):
        g = make_cyclic(10)
        endos = enumerate_endomorphisms(g)
        table = composition_table(g)
        for a in endos:
            for b in endos:
                assert (
                    compose(a, b).canonical_index
                    == table[a.canonical_index][b.canonical_index]
                )


class TestHomomorphismLaw:
    @pytest.mark.parametrize("m", [6, 8, 12])
    def test_every_enumerated_endo_satisfies_law(self, m):
        g = make_cyclic(m)
        for e in enumerate_endomorphisms(g):
            for x in range(m):
                for y in range(m):
                    assert e.images[g.table[x][y]] == g.table[e.images[x]][e.images[y]]

    def test_automorphism_flag(self, q8):
        for e in enumerate_endomorphisms(q8):
            assert e.is_automorphism == (len(set(e.images)) == q8.order)
