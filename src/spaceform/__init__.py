"""Exact computation of self-map monoids of spherical space forms.

The odd-dimensional monoid M(G, n) of a space form S^{2n+1}/G, its
group of units, and the even-dimensional monoid of RP^{2n}, all in
exact integer arithmetic, with an independent oracle for
cross-validation on cyclic groups.
"""

from .degree import DegreeHom, build_degree_hom, validate_degree_hom
from .endomorphisms import (
    compose,
    enumerate_automorphisms,
    enumerate_endomorphisms,
    identity_endomorphism,
)
from .groups import (
    direct_product,
    load_group,
    make_cyclic,
    make_from_table,
    make_generalized_quaternion,
    rank_one_check,
)
from .monoid_even import A0, A2, canonicalize, identity_even, multiply_even, odd
from .monoid_odd import MonoidContext, monoid_context
from .selfmap_oracle import OracleContext, compose_selfmaps, cross_check

__version__ = "0.1.0"

__all__ = [
    "A0",
    "A2",
    "DegreeHom",
    "MonoidContext",
    "OracleContext",
    "build_degree_hom",
    "canonicalize",
    "compose",
    "compose_selfmaps",
    "cross_check",
    "direct_product",
    "enumerate_automorphisms",
    "enumerate_endomorphisms",
    "identity_endomorphism",
    "identity_even",
    "load_group",
    "make_cyclic",
    "make_from_table",
    "make_generalized_quaternion",
    "monoid_context",
    "multiply_even",
    "odd",
    "rank_one_check",
    "validate_degree_hom",
]
