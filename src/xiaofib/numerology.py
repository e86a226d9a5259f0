"""Closed-form arithmetic for dihedral-cover fibrations.

Everything here is exact integer arithmetic: genera of the
cover tower, self-intersections of the embedded curve in D x D, the
finite/positive-dimensional classification of the moduli fiber, bound
checks (Xiao, BGN, Brill-Noether) and the character-by-character
dimension bookkeeping of the cover's canonical system.
"""

from __future__ import annotations

import itertools

from .errors import InputError
from .record import Record

FINITE = "finite"
POSITIVE_DIMENSIONAL = "positive_dimensional"


class NumerologyError(InputError, ValueError):
    """Parameters outside the range of a closed formula."""


# Miller-Rabin with the thirteen prime bases up to 41 is exact for every
# n below PRIMALITY_LIMIT, the least strong pseudoprime to all of them
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_LIMIT = 3317044064679887385961981

# Below this genus every number derived from (g, p) prints in decimal within
# the interpreter's 4300-digit limit for converting an int to text: the
# largest, (p - 1)/2 * (g - 1)^2, then has at most 2 * 2000 + 25 digits.
GENUS_LIMIT = 10**2000


def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin on ``PRIME_BASES``.

    Raises ``NumerologyError`` for an odd ``p >= PRIMALITY_LIMIT``,
    where the bases no longer decide primality.
    """
    if p < 3 or p % 2 == 0:
        return False
    if p <= PRIME_BASES[-1]:
        return p in PRIME_BASES
    if p >= PRIMALITY_LIMIT:
        raise NumerologyError(
            f"cannot decide whether {p} is prime: the test is exact below {PRIMALITY_LIMIT}"
        )
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class CoverParams(Record):
    """Genus g >= 2 of the hyperelliptic curve and odd prime degree p of the etale cover."""

    __slots__ = ("g", "p")

    def __init__(self, g: int, p: int):
        super().__init__(g, p)
        if self.g < 2:
            raise NumerologyError(f"hyperelliptic genus must be >= 2, got {self.g}")
        if self.g >= GENUS_LIMIT:
            raise NumerologyError("hyperelliptic genus must be below 10^2000")
        if not is_odd_prime(self.p):
            raise NumerologyError(f"cover degree must be an odd prime, got {self.p}")


class FiberClass(Record):
    """Fiber classification of the cover-to-curve moduli map.

    ``kind`` is FINITE or POSITIVE_DIMENSIONAL; ``dimension`` is 0 for
    finite fibers.
    """

    __slots__ = ("kind", "dimension")

    @property
    def finite(self) -> bool:
        return self.kind == FINITE

    def __str__(self) -> str:
        if self.finite:
            return "finite"
        return f"positive-dimensional of dimension {self.dimension}"


class XiaoReport(Record):
    """Bound comparison for one fibration: q_rel against (g_fiber + 1)/2.

    ``bound`` is that number written exactly, as ``"7/2"`` or ``"4"``.
    """

    __slots__ = ("bound", "is_xiao", "meets_ceiling", "bgn_bound_at_generic_clifford")


class Runs(Record):
    """A sequence of integers stored as (value, count) runs, never expanded in memory."""

    __slots__ = ("runs",)

    def __len__(self) -> int:
        return sum(count for _, count in self.runs)

    def __iter__(self):
        for value, count in self.runs:
            yield from itertools.repeat(value, count)

    def __str__(self) -> str:
        return " + ".join(f"[{v}]" if count == 1 else f"[{v}]*{count}" for v, count in self.runs)


class ChevalleyWeil(Record):
    """Character-space dimensions of the pushed-forward canonical bundle.

    ``dims`` holds one dimension per character, as ``Runs``.
    """

    __slots__ = ("dims", "prym_dim", "sym2_invariant_dim")


def cover_genera(params: CoverParams) -> tuple[int, int]:
    """(g_C, g_D): genus of the cyclic cover and of the involution quotient."""
    g, p = params.g, params.p
    g_c = p * (g - 1) + 1
    g_d = (p - 1) * (g - 1) // 2
    return g_c, g_d


def relative_irregularity(g_d: int) -> int:
    """q_pi = 2 g_D, the relative irregularity when the cover's Jacobian is indecomposable."""
    return 2 * g_d


def gamma_self_intersection(params: CoverParams) -> int:
    """Self-intersection 8 - 2(g - 1)(p - 2) of the embedded cover curve in D x D."""
    return 8 - 2 * (params.g - 1) * (params.p - 2)


# Fiber dimensions other than dim H - dim M: at (2, 5), dim H = dim M = 3, yet the fibers are curves (S4)
_KNOWN_FIBER_DIMS = {(2, 5): 1}


def psi_fiber_class(params: CoverParams) -> FiberClass:
    """Finite fibers iff p >= 7, or p = 5 and g >= 3, or p = 3 and g >= 5."""
    g, p = params.g, params.p
    if p >= 7 or (p == 5 and g >= 3) or (p == 3 and g >= 5):
        return FiberClass(FINITE, 0)
    if (g, p) in _KNOWN_FIBER_DIMS:
        return FiberClass(POSITIVE_DIMENSIONAL, _KNOWN_FIBER_DIMS[(g, p)])
    dim_h, dim_m = moduli_dims(params)  # p is an odd prime, so p = 3 and g <= 4 is all that is left
    return FiberClass(POSITIVE_DIMENSIONAL, dim_h - dim_m)


def moduli_dims(params: CoverParams) -> tuple[int, int]:
    """(dim of the cover moduli, dim of the target curve moduli)."""
    g_d = cover_genera(params)[1]
    dim_h = 2 * params.g - 1
    if g_d >= 2:
        dim_m = 3 * g_d - 3
    else:
        dim_m = g_d  # 1 for genus 1, 0 for genus 0
    return dim_h, dim_m


def bgn_bound(g_fiber: int) -> int:
    """Upper bound g - c for the relative irregularity, at the generic Clifford index.

    The Clifford index c is never computed: it is taken to be the generic
    value floor((g - 1)/2), for which the bound becomes ceil((g + 1)/2).
    """
    if g_fiber < 2:
        raise NumerologyError("fiber genus must be at least 2")
    return g_fiber - (g_fiber - 1) // 2


def xiao_report(g_fiber: int, q_rel: int) -> XiaoReport:
    """Compare q_rel against the bound (g_fiber + 1)/2 and its ceiling."""
    if g_fiber < 2:
        raise NumerologyError("fiber genus must be at least 2")
    twice = g_fiber + 1
    return XiaoReport(
        bound=f"{twice}/2" if twice % 2 else str(twice // 2),
        is_xiao=2 * q_rel > twice,
        meets_ceiling=q_rel == (twice + 1) // 2,
        bgn_bound_at_generic_clifford=bgn_bound(g_fiber),
    )


def brill_noether_range(q: int, g_a: int) -> bool:
    """True iff q < g_a < 2q - 1."""
    if q < 0 or g_a < 0:
        raise NumerologyError("irregularity and arithmetic genus must be non-negative")
    return q < g_a < 2 * q - 1


def chevalley_weil(params: CoverParams) -> ChevalleyWeil:
    """Eigenspace dimensions of the canonical system under the cyclic action.

    The trivial character contributes g; each of the p - 1 nontrivial
    torsion twists contributes g - 1 (Riemann-Roch with no sections for
    nontrivial degree-0 twists).  The dimensions sum to g_C, the Prym
    part has dimension (p - 1)(g - 1), and the invariant part of the
    symmetric square pairs characters {i, p - i}, each pair contributing
    (g - 1)^2.
    """
    g, p = params.g, params.p
    dims = Runs(((g, 1), (g - 1, p - 1)))
    prym_dim = (p - 1) * (g - 1)
    sym2_invariant_dim = (p - 1) // 2 * (g - 1) ** 2
    return ChevalleyWeil(dims, prym_dim, sym2_invariant_dim)


def geometric_genus(p_a: int, nodes: int) -> int:
    """Geometric genus of an irreducible curve with the given number of simple nodes."""
    if nodes < 0:
        raise NumerologyError("node count must be non-negative")
    if nodes > p_a:
        raise NumerologyError(f"invalid curve: {nodes} nodes exceed arithmetic genus {p_a}")
    return p_a - nodes
