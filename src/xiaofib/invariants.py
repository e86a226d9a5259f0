"""Surface invariants: double covers, Noether's formula, fibration Euler numbers.

All formulas are exact integer bookkeeping.  The chi double-cover
formula is the standard companion of the K^2 one and serves as an
independent route to the holomorphic Euler characteristic; the two
routes must agree on any consistent input.
"""

from __future__ import annotations

from .record import Record


class InvariantError(ValueError):
    """Input fails an integrality or parity requirement."""


class SurfaceProfile(Record):
    """Collected numerical invariants of a surface.

    Enforces Noether's identity 12 chi = K^2 + c2 and chi = 1 - q + p_g.
    """

    __slots__ = ("q", "chi_O", "K2", "c2", "p_g")

    def __init__(self, q: int, chi_O: int, K2: int, c2: int, p_g: int):
        super().__init__(q, chi_O, K2, c2, p_g)
        if 12 * self.chi_O != self.K2 + self.c2:
            raise InvariantError(
                f"Noether violated: 12*{self.chi_O} != {self.K2} + {self.c2}"
            )
        if self.chi_O != 1 - self.q + self.p_g:
            raise InvariantError(
                f"chi identity violated: {self.chi_O} != 1 - {self.q} + {self.p_g}"
            )


def double_cover_K2(K2_base: int, L_dot_K: int, L2: int) -> int:
    """K^2 of a double cover branched along 2L: 2 K^2 + 4 L.K + 2 L^2."""
    return 2 * K2_base + 4 * L_dot_K + 2 * L2


def double_cover_chi(chi_base: int, L_dot_K: int, L2: int) -> int:
    """chi(O) of the same double cover: 2 chi + L(L + K)/2."""
    if (L2 + L_dot_K) % 2:
        raise InvariantError(f"L(L + K) = {L2 + L_dot_K} is odd: no such double cover")
    return 2 * chi_base + (L2 + L_dot_K) // 2


def noether_chi(K2: int, c2: int) -> int:
    """chi(O) = (K^2 + c2)/12; non-divisibility signals a non-smooth surface."""
    if (K2 + c2) % 12:
        raise InvariantError(f"K^2 + c2 = {K2 + c2} is not divisible by 12")
    return (K2 + c2) // 12


def fibration_euler(g_base: int, g_fiber: int, fiber_defects: list[int]) -> int:
    """Topological Euler number of a fibration with the listed fiber defects.

    Each irreducible one-node fiber contributes defect 1 on top of the
    product of the Euler numbers of base and general fiber.
    """
    if g_base < 0 or g_fiber < 0:
        raise InvariantError("genera must be non-negative")
    if any(d < 0 for d in fiber_defects):
        raise InvariantError("fiber defects must be non-negative")
    return (2 - 2 * g_base) * (2 - 2 * g_fiber) + sum(fiber_defects)


def double_cover_curve_genus(g_base: int, branch_points: int) -> int:
    """Genus of a double cover of a genus-g curve with the given branch count."""
    if branch_points < 0 or branch_points % 2:
        raise InvariantError(f"branch count must be even and non-negative, got {branch_points}")
    return 2 * g_base - 1 + branch_points // 2


def assemble_profile(q_rel: int, g_base: int, K2: int, c2: int) -> SurfaceProfile:
    """Full invariant profile from relative irregularity, base genus, K^2 and c2."""
    q = q_rel + g_base
    chi = noether_chi(K2, c2)
    p_g = chi - 1 + q
    return SurfaceProfile(q=q, chi_O=chi, K2=K2, c2=c2, p_g=p_g)
