"""Galois-module cohomology of conic-bundle Picard lattices.

Computes H^1(G, Pic) for subgroups G of the Weyl group W(D_n) acting on
the rank n+2 Picard lattice of a conic bundle, checks the cohomological
obstruction and (relative) minimality, builds the 24 parametric group
families, and reproduces the per-rank subgroup tables.
"""

__version__ = "0.1.0"

from .cohomology import (
    H1ConditionResult,
    H1Report,
    h1_condition,
    h1_condition_cyclic,
    h1_cyclic,
    h1_halfsum,
    h1_oracle,
)
from .conditions import (
    ConditionReport,
    OrbitDecomposition,
    check_conditions,
    fiber_pair_condition,
    orbit_count_filter,
    orbits,
    project,
    relative_minimality,
)
from .classes import ClassSpec, class_generators, field_labeling, smallest_param_tuples, verify_class
from .enumeration import enumerate_wdn, verify_tables
from .groups import FiniteGroup, all_subgroups, canonical_form, closure, sylow2
from .intlinalg import (
    IntMatrix,
    LatticeBasis,
    integer_kernel,
    quotient_invariants,
    smith_normal_form,
)
from .picard import PicLattice, fixed_sublattice, phi, psi, verify_aut0
from .signedperm import (
    SignedCycle,
    SignedPerm,
    format_element,
    lambda_count,
    parse_element,
    sigma,
    signed_cycles,
)

__all__ = [
    "ClassSpec",
    "ConditionReport",
    "FiniteGroup",
    "H1ConditionResult",
    "H1Report",
    "IntMatrix",
    "LatticeBasis",
    "OrbitDecomposition",
    "PicLattice",
    "SignedCycle",
    "SignedPerm",
    "all_subgroups",
    "canonical_form",
    "check_conditions",
    "class_generators",
    "closure",
    "enumerate_wdn",
    "fiber_pair_condition",
    "field_labeling",
    "fixed_sublattice",
    "format_element",
    "h1_condition",
    "h1_condition_cyclic",
    "h1_cyclic",
    "h1_halfsum",
    "h1_oracle",
    "integer_kernel",
    "lambda_count",
    "orbit_count_filter",
    "orbits",
    "parse_element",
    "phi",
    "project",
    "psi",
    "quotient_invariants",
    "relative_minimality",
    "sigma",
    "signed_cycles",
    "smallest_param_tuples",
    "smith_normal_form",
    "sylow2",
    "verify_aut0",
    "verify_class",
    "verify_tables",
]
