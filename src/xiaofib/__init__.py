"""Exact verification engine for dihedral-cover fibration numerology.

Modules: ``monodromy`` (permutation covers and Riemann-Hurwitz),
``numerology`` (closed-form genera, bounds and dimensions), ``lattice``
(integer intersection theory on product and symmetric-square lattices),
``invariants`` (double-cover surface invariants), ``polynomials`` and
``quartic`` (exact resultant-based plane-curve certificates), and
``ledger``/``cli`` (the claim ledger and its command line).
"""

__version__ = "0.1.0"

from .invariants import SurfaceProfile, assemble_profile
from .lattice import (
    DivisorClass,
    IntersectionLattice,
    LatticeMorphism,
    branch_class,
    product_with_diagonal_lattice,
    symmetric_square_lattice,
)
from .ledger import ClaimReport, verify_paper
from .monodromy import BranchedCover, GroupDescriptor, Permutation, build_dihedral_cover, rh_genus
from .numerology import CoverParams, FibrationProfile, cover_genera, xiao_report
from .polynomials import UnivariatePoly
from .quartic import TernaryForm, flexes_all_simple, hessian, is_smooth, parse_ternary_form

__all__ = [
    "BranchedCover",
    "ClaimReport",
    "CoverParams",
    "DivisorClass",
    "FibrationProfile",
    "GroupDescriptor",
    "IntersectionLattice",
    "LatticeMorphism",
    "Permutation",
    "SurfaceProfile",
    "TernaryForm",
    "UnivariatePoly",
    "assemble_profile",
    "branch_class",
    "build_dihedral_cover",
    "cover_genera",
    "flexes_all_simple",
    "hessian",
    "is_smooth",
    "parse_ternary_form",
    "product_with_diagonal_lattice",
    "rh_genus",
    "symmetric_square_lattice",
    "verify_paper",
    "xiao_report",
]
