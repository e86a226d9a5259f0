"""Exact verification engine for dihedral-cover fibration numerology.

Modules: ``monodromy`` (permutation covers and Riemann-Hurwitz),
``numerology`` (closed-form genera, bounds and dimensions), ``lattice``
(integer intersection theory on product and symmetric-square lattices),
``invariants`` (double-cover surface invariants), ``polynomials`` and
``quartic`` (exact resultant-based plane-curve certificates),
``errors`` (the input-error base class), and ``ledger``/``cli`` (the
claim ledger and its command line).  Import names from their modules,
for example ``from xiaofib.ledger import verify_paper``.
"""

__version__ = "0.1.0"
