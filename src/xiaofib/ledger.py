"""The claim ledger: every numerical claim the engine recomputes.

Each claim carries an identifier, the anchor of the claim in its source
text, the expected exact value as a string, and a thunk that recomputes
the value from scratch through the library modules.  Claims are
independent; a failure in one never aborts the run.  Recorded
hypotheses that the engine cannot derive (the relative-irregularity
inputs) are reported with status ``assumed``.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

from . import invariants, lattice, monodromy, numerology, quartic
from .record import Record

PASS = "pass"
FAIL = "fail"
ASSUMED = "assumed"


class ClaimReport(Record):
    """Outcome of one recomputed claim."""

    __slots__ = ("claim_id", "paper_anchor", "expected", "computed", "status")

    def __init__(self, claim_id: str, paper_anchor: str, expected: str, computed: str, status: str):
        self._set(claim_id=claim_id, paper_anchor=paper_anchor, expected=expected, computed=computed, status=status)

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "paper_anchor": self.paper_anchor,
            "expected": self.expected,
            "computed": self.computed,
            "status": self.status,
        }


class Claim(Record):
    __slots__ = ("claim_id", "case", "paper_anchor", "expected", "compute", "assumed")

    def __init__(
        self,
        claim_id: str,
        case: str,
        paper_anchor: str,
        expected: str,
        compute: Callable[[], str],
        assumed: bool = False,
    ):
        self._set(
            claim_id=claim_id, case=case, paper_anchor=paper_anchor, expected=expected, compute=compute, assumed=assumed
        )

    def run(self) -> ClaimReport:
        if self.assumed:
            return ClaimReport(self.claim_id, self.paper_anchor, self.expected, self.expected, ASSUMED)
        try:
            computed = self.compute()
        except Exception as exc:  # claim failures must not abort the run
            computed = f"error: {exc}"
        status = PASS if computed == self.expected else FAIL
        return ClaimReport(self.claim_id, self.paper_anchor, self.expected, computed, status)


def fmt(value) -> str:
    """Canonical exact rendering: integers, booleans, strings and tuples only."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, lattice.DivisorClass):
        return fmt(value.coeffs)
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(fmt(v) for v in value) + ")"
    if isinstance(value, str):
        return value
    raise TypeError(f"no exact rendering for {value!r}")


def _fmt_fiber(fc: numerology.FiberClass) -> str:
    if fc.finite:
        return "finite"
    if fc.dimension is None:
        return "positive-dimensional"
    return f"positive-dimensional of dimension {fc.dimension}"


def _fmt_xiao(report: numerology.XiaoReport) -> str:
    return (
        f"bound {report.bound}, xiao {fmt(report.is_xiao)}, "
        f"ceiling {fmt(report.meets_ceiling)}, bgn {report.bgn_bound_at_generic_clifford}"
    )


def _fmt_profile(profile: invariants.SurfaceProfile) -> str:
    return (
        f"q {profile.q}, chi {profile.chi_O}, K2 {profile.K2}, "
        f"c2 {profile.c2}, p_g {profile.p_g}"
    )


def _dihedral_tower(g: int, p: int, max_group_order: int) -> str:
    cover = monodromy.build_dihedral_cover(g, p, max_group_order)
    group = monodromy.generated_group(cover, max_group_order)
    quotient = monodromy.quotient_genus(
        cover, monodromy.cyclic_rotation_subgroup(group), max_group_order
    )
    return fmt(
        (
            monodromy.rh_genus(cover),
            monodromy.galois_closure_genus(cover, max_group_order),
            quotient,
            f"{group.classification} of order {group.order}",
        )
    )


def _trigonal_cover() -> monodromy.BranchedCover:
    """Degree-3 cover with ten simple branch points and full symmetric monodromy."""
    t01 = monodromy.Permutation.from_cycles("(0 1)", 3)
    t12 = monodromy.Permutation.from_cycles("(1 2)", 3)
    return monodromy.BranchedCover(3, 0, (t01, t01, t12, t12, t01, t01, t12, t12, t01, t01))


def _trigonal_tower(max_group_order: int) -> str:
    cover = _trigonal_cover()
    group = monodromy.generated_group(cover, max_group_order)
    quotient = monodromy.quotient_genus(cover, monodromy.even_subgroup(group), max_group_order)
    return fmt(
        (
            monodromy.rh_genus(cover),
            monodromy.galois_closure_genus(cover, max_group_order),
            quotient,
            f"{group.classification} of order {group.order}",
        )
    )


class LedgerContext(Record):
    """Run-wide settings the claim thunks read."""

    __slots__ = ("seed", "max_group_order")

    def __init__(self, seed: int = 1, max_group_order: int = monodromy.DEFAULT_MAX_GROUP_ORDER):
        self._set(seed=seed, max_group_order=max_group_order)


def build_claims(context: LedgerContext | None = None) -> list[Claim]:
    ctx = context or LedgerContext()
    claims: list[Claim] = []

    def add(claim_id, case, anchor, expected, compute, assumed=False):
        claims.append(Claim(claim_id, case, anchor, expected, compute, assumed))

    # ---- case g = 2, p = 5 (Theorem 1.2, case 1) ----
    p25 = numerology.CoverParams(2, 5)
    add(
        "g2p5/genera", "g2p5",
        "S2: g_C = p(g-1)+1, g_D = (p-1)(g-1)/2; Thm 1.2(1): g_C = 6",
        "(6, 2)",
        lambda: fmt(numerology.cover_genera(p25)),
    )
    add(
        "g2p5/gamma-square", "g2p5",
        "Lemma C2: gamma(C)^2 = 8 - 2(g-1)(p-2) = 2",
        "2",
        lambda: fmt(lattice.adjunction_inverse(2, 5)),
    )
    add(
        "g2p5/fiber-dimension", "g2p5",
        "S4 Proposition: the fibers have dimension 1",
        "positive-dimensional of dimension 1",
        lambda: _fmt_fiber(numerology.psi_fiber_class(p25)),
    )
    add(
        "g2p5/moduli-dimensions", "g2p5",
        "S2: dim H_{2,5} = dim M_2 = 3",
        "(3, 3)",
        lambda: fmt(numerology.moduli_dims(p25)),
    )
    add(
        "g2p5/chevalley-weil", "g2p5",
        "S4: h^0 splits as 2+1+1+1+1; Prym dimension 4; dim A'_4(5) = 2",
        "dims (2, 1, 1, 1, 1), prym 4, sym2-invariants 2",
        lambda: (
            lambda cw: f"dims {fmt(tuple(cw.dims))}, prym {cw.prym_dim}, sym2-invariants {cw.sym2_invariant_dim}"
        )(numerology.chevalley_weil(p25)),
    )
    add(
        "g2p5/monodromy-tower", "g2p5",
        "S2: dihedral cover tower for (g, p) = (2, 5); Thm 1.2(1): g_C = 6",
        "(2, 6, 2, dihedral of order 10)",
        lambda: _dihedral_tower(2, 5, ctx.max_group_order),
    )
    add(
        "g2p5/xiao", "g2p5",
        "Thm 1.2(1): q_pi = 4 > (6+1)/2; eq. (1.3): q_pi = ceil((g_C+1)/2)",
        "bound 7/2, xiao true, ceiling true, bgn 4",
        lambda: _fmt_xiao(numerology.xiao_report(6, 4)),
    )
    add(
        "g2p5/brill-noether", "g2p5",
        "S1 Proposition: q(S) = 4 < g_a = 6 < 2q - 1",
        "true",
        lambda: fmt(numerology.brill_noether_range(4, 6)),
    )
    add(
        "g2p5/q-rel", "g2p5",
        "S3 Lemma: q_pi = 2 g_D = 4, given a curve in the family with indecomposable Jacobian",
        "4",
        lambda: "4",
        assumed=True,
    )

    # ---- case g = 3, p = 3 (Theorem 1.2, case 3; nodal fibers) ----
    p33 = numerology.CoverParams(3, 3)
    add(
        "g3p3/genera", "g3p3",
        "S6: generically g_C = 7; g_D = 2",
        "(7, 2)",
        lambda: fmt(numerology.cover_genera(p33)),
    )
    add(
        "g3p3/fiber-dimension", "g3p3",
        "S6: fibers of dimension 2",
        "positive-dimensional of dimension 2",
        lambda: _fmt_fiber(numerology.psi_fiber_class(p33)),
    )
    add(
        "g3p3/nodal-class", "g3p3",
        "S6: the fiber curve in the genus-2 product has pairings (2, 2, 8)",
        "(3, 3, -1)",
        lambda: fmt(lattice.product_with_diagonal_lattice(2).class_from_intersections((2, 2, 8))),
    )
    add(
        "g3p3/nodal-genus", "g3p3",
        "S6: arithmetic genus 7 (g_C = 7)",
        "7",
        lambda: (
            lambda lat: fmt(lat.adjunction_genus(lat.class_from_intersections((2, 2, 8))))
        )(lattice.product_with_diagonal_lattice(2)),
    )
    add(
        "g3p3/geometric-genus", "g3p3",
        "S6: one simple node at (P, P); smooth model of genus 6",
        "6",
        lambda: fmt(numerology.geometric_genus(7, 1)),
    )
    add(
        "g3p3/xiao-generic", "g3p3",
        "S6: no contradiction for the generic member, g_C = 7 with q_pi = 4",
        "bound 4, xiao false, ceiling true, bgn 4",
        lambda: _fmt_xiao(numerology.xiao_report(7, 4)),
    )
    add(
        "g3p3/xiao-smooth-model", "g3p3",
        "Thm 1.2(3): after normalization g_C = 6, q_pi = 4",
        "bound 7/2, xiao true, ceiling true, bgn 4",
        lambda: _fmt_xiao(numerology.xiao_report(6, 4)),
    )
    add(
        "g3p3/q-rel", "g3p3",
        "S6: relative irregularity 2 g_D = 4 (recorded input)",
        "4",
        lambda: "4",
        assumed=True,
    )

    # ---- case g = 4, p = 3 (Theorem 1.2, case 2; the explicit surface) ----
    p43 = numerology.CoverParams(4, 3)
    add(
        "g4p3/genera", "g4p3",
        "S5: C_P of genus 10, E_P of genus 4; g_D = 3",
        "(10, 3)",
        lambda: fmt(numerology.cover_genera(p43)),
    )
    add(
        "g4p3/monodromy-tower", "g4p3",
        "S5: monodromy of f_P is S_3; Galois closure of genus 10; quotient by A_3 of genus 4",
        "(3, 10, 4, dihedral of order 6)",
        lambda: _trigonal_tower(ctx.max_group_order),
    )

    def xp_lattice():
        return lattice.product_with_diagonal_lattice(3)

    add(
        "g4p3/fiber-class", "g4p3",
        "S5: X_P . D_1 = X_P . D_2 = 2 and X_P . Delta = 10 give X_P = 3(D_1 + D_2) - Delta",
        "(3, 3, -1)",
        lambda: fmt(xp_lattice().class_from_intersections((2, 2, 10))),
    )
    add(
        "g4p3/fiber-self-intersection", "g4p3",
        "S5: X_P^2 = 2",
        "2",
        lambda: (
            lambda lat: fmt(lat.intersect(*(lat.class_from_intersections((2, 2, 10)),) * 2))
        )(xp_lattice()),
    )
    add(
        "g4p3/fiber-genus", "g4p3",
        "S5: X_P has arithmetic genus 10",
        "10",
        lambda: (
            lambda lat: fmt(lat.adjunction_genus(lat.class_from_intersections((2, 2, 10))))
        )(xp_lattice()),
    )

    def hodge_forced() -> str:
        lat = xp_lattice()
        xp = lat.class_from_intersections((2, 2, 10))
        h = (
            3 * (lat.basis_class("D1") + lat.basis_class("D2"))
            - lat.basis_class("Delta")
        )
        ample = lat.basis_class("D1") + lat.basis_class("D2")
        return fmt(lattice.hodge_index_forced_zero(lat, h - xp, ample))

    add(
        "g4p3/hodge-determination", "g4p3",
        "S5: (H - X_P)^2 = 0 and the Hodge index theorem force X_P = H numerically",
        "true",
        hodge_forced,
    )

    @cache  # ten claims read it; built once per claim list, on first use
    def branch_chain() -> lattice.BranchClassResult:
        return lattice.branch_class(3)

    add(
        "g4p3/involution-on-dp", "g4p3",
        "S5: tau_* D_P = 3 D_P - delta",
        "(3, -1)",
        lambda: fmt(tuple(row[0] for row in branch_chain().involution)),
    )
    add(
        "g4p3/involution-on-delta", "g4p3",
        "S5: tau_* delta = 8 D_P - 3 delta",
        "(8, -3)",
        lambda: fmt(tuple(row[1] for row in branch_chain().involution)),
    )
    add(
        "g4p3/involution-on-diagonal", "g4p3",
        "S5: tau_* Delta = 16 D_P - 6 delta",
        "(16, -6)",
        lambda: fmt(lattice.apply_matrix(branch_chain().involution, lattice.DivisorClass((0, 2)))),
    )
    add(
        "g4p3/branch-class", "g4p3",
        "S5: B = 16(D_1 + D_2) - 6 Delta",
        "(16, 16, -6)",
        lambda: fmt(branch_chain().branch),
    )
    add(
        "g4p3/branch-half", "g4p3",
        "S5: L = B/2 = 8(D_1 + D_2) - 3 Delta",
        "(8, 8, -3)",
        lambda: fmt(branch_chain().half),
    )
    add(
        "g4p3/branch-genus-adjunction", "g4p3",
        "S5: p_a(B) = 1 + (B^2 + B.K)/2 = 33",
        "33",
        lambda: fmt(lattice.product_with_diagonal_lattice(3).adjunction_genus(branch_chain().branch)),
    )
    add(
        "g4p3/branch-genus-riemann-hurwitz", "g4p3",
        "S5: the double cover B -> D is ramified at the 56 bitangent points, so g(B) = 33",
        "33",
        lambda: fmt(
            invariants.double_cover_curve_genus(3, 2 * quartic.plucker_counts(4).bitangents)
        ),
    )

    def k2_inputs() -> tuple[int, int, int]:
        lat = lattice.product_with_diagonal_lattice(3)
        half = branch_chain().half
        k = lat.canonical_class()
        return (lat.intersect(k, k), lat.intersect(half, k), lat.intersect(half, half))

    add(
        "g4p3/double-cover-inputs", "g4p3",
        "S5: K^2 of D x D is 32, L.K = 40, L^2 = -4",
        "(32, 40, -4)",
        lambda: fmt(k2_inputs()),
    )
    add(
        "g4p3/K2", "g4p3",
        "Thm 5.5(3): K_S^2 = 2 K^2 + 4 L.K + 2 L^2 = 216",
        "216",
        lambda: fmt(invariants.double_cover_K2(*k2_inputs())),
    )
    add(
        "g4p3/c2", "g4p3",
        "Thm 5.5(2): c_2(S) = chi_top(D) chi_top(C_P) + 24 = 96, one nodal fiber per flex",
        "96",
        lambda: fmt(
            invariants.fibration_euler(3, 10, [1] * quartic.plucker_counts(4).flexes)
        ),
    )
    add(
        "g4p3/chi-noether", "g4p3",
        "S5: Noether's formula gives chi(O_S) = 26",
        "26",
        lambda: fmt(invariants.noether_chi(216, 96)),
    )
    add(
        "g4p3/chi-double-cover", "g4p3",
        "companion double-cover formula: chi = 2 chi(O) + L(L+K)/2 = 26 (cross-check)",
        "26",
        lambda: fmt(invariants.double_cover_chi(4, k2_inputs()[1], k2_inputs()[2])),
    )
    add(
        "g4p3/profile", "g4p3",
        "Thm 5.5: q_S = 9, c_2 = 96, K_S^2 = 216, p_g = 34",
        "q 9, chi 26, K2 216, c2 96, p_g 34",
        lambda: _fmt_profile(invariants.assemble_profile(6, 3, 216, 96)),
    )
    add(
        "g4p3/plucker-counts", "g4p3",
        "S5: 24 singular fibers (flexes) and 56 = 2 x 28 ramification points (bitangents)",
        "(24, 28)",
        lambda: fmt(tuple(quartic.plucker_counts(4))),
    )
    add(
        "g4p3/flexes-simple-witness", "g4p3",
        "Thm 5.5 hypothesis: all flexes of D are simple (witness smooth quartic)",
        "(true, 24)",
        lambda: fmt(tuple(quartic.flexes_all_simple(
            quartic.parse_ternary_form(quartic.KLEIN_QUARTIC), ctx.seed
        ))),
    )
    add(
        "g4p3/hyperflex-excluded", "g4p3",
        "Remark 5.2: with a flex of order four the surface is singular (hyperflex witness)",
        "(false, 24)",
        lambda: fmt(tuple(quartic.flexes_all_simple(
            quartic.parse_ternary_form(quartic.FERMAT_QUARTIC), ctx.seed
        ))),
    )
    add(
        "g4p3/xiao", "g4p3",
        "Thm 1.2(2): q_pi = 6 > (10+1)/2",
        "bound 11/2, xiao true, ceiling true, bgn 6",
        lambda: _fmt_xiao(numerology.xiao_report(10, 6)),
    )
    add(
        "g4p3/brill-noether", "g4p3",
        "S1 Proposition: q(S) = 6 < g_a = 10 < 2q - 1",
        "true",
        lambda: fmt(numerology.brill_noether_range(6, 10)),
    )
    add(
        "g4p3/q-rel", "g4p3",
        "S5: q_pi = 6 by Lemma qrel, so q_S = q_pi + g(D) = 9 (recorded input)",
        "6",
        lambda: "6",
        assumed=True,
    )
    add(
        "g4p3/base-point-position", "g4p3",
        "S5: the projection point P lies on no flex tangent of D; a condition on the "
        "chosen point, not on D, so it is recorded rather than certified",
        "P avoids the 24 flex tangents",
        lambda: "P avoids the 24 flex tangents",
        assumed=True,
    )

    # ---- cross-case grids ----
    def gamma_grid() -> str:
        hits = 0
        for g in range(2, 7):
            for p in (3, 5, 7):
                params = numerology.CoverParams(g, p)
                if lattice.adjunction_inverse(g, p) == numerology.gamma_self_intersection(params):
                    hits += 1
        return f"{hits}/15 agree"

    add(
        "general/gamma-grid", "general",
        "Lemma C2 vs the genus formula in D x D, g in [2, 6], p in {3, 5, 7}",
        "15/15 agree",
        gamma_grid,
    )

    def fiber_grid() -> str:
        hits = 0
        total = 0
        for g in range(2, 9):
            for p in (3, 5, 7, 11):
                total += 1
                params = numerology.CoverParams(g, p)
                fiber = numerology.psi_fiber_class(params)
                gamma = numerology.gamma_self_intersection(params)
                boundary = (g, p) == (5, 3)
                if (gamma >= 0) == ((not fiber.finite) or boundary):
                    hits += 1
        return f"{hits}/{total} sign-consistent, boundary case (5, 3)"

    add(
        "general/fiber-grid", "general",
        "Prop 2.7: finite fibers iff p >= 7, p = 5 and g >= 3, or p = 3 and g >= 5; "
        "gamma^2 >= 0 detects the rest except (g, p) = (5, 3)",
        "28/28 sign-consistent, boundary case (5, 3)",
        fiber_grid,
    )

    def monodromy_grid() -> str:
        hits = 0
        total = 0
        for g in range(2, 6):
            for p in (3, 5, 7):
                total += 1
                cover = monodromy.build_dihedral_cover(g, p, ctx.max_group_order)
                group = monodromy.generated_group(cover, ctx.max_group_order)
                profile = set(monodromy.ramification_profile(cover))
                expected_profile = {tuple(sorted([2] * ((p - 1) // 2) + [1], reverse=True))}
                ok = (
                    monodromy.rh_genus(cover) == (p - 1) * (g - 1) // 2
                    and monodromy.galois_closure_genus(cover, ctx.max_group_order) == p * (g - 1) + 1
                    and monodromy.quotient_genus(
                        cover, monodromy.cyclic_rotation_subgroup(group), ctx.max_group_order
                    ) == g
                    and profile == expected_profile
                    and group.classification == monodromy.DIHEDRAL
                    and group.order == 2 * p
                )
                hits += ok
        return f"{hits}/{total} verified"

    add(
        "general/monodromy-grid", "general",
        "S2: genus formulas and ramification profiles of the dihedral tower, g in [2, 5], p in {3, 5, 7}",
        "12/12 verified",
        monodromy_grid,
    )

    def chevalley_sum_grid() -> str:
        hits = 0
        total = 0
        for g in range(2, 7):
            for p in (3, 5, 7):
                total += 1
                params = numerology.CoverParams(g, p)
                cw = numerology.chevalley_weil(params)
                hits += sum(cw.dims) == numerology.cover_genera(params)[0]
        return f"{hits}/{total} sum to g_C"

    add(
        "general/chevalley-weil-sums", "general",
        "S4: the character dimensions add up to g_C = p(g-1)+1",
        "15/15 sum to g_C",
        chevalley_sum_grid,
    )

    return claims


def run_claims(claims: list[Claim], only: str | None = None) -> list[ClaimReport]:
    """Evaluate claims (optionally one case only), ordered by claim id."""
    selected = [c for c in claims if only is None or c.case == only]
    return [claim.run() for claim in sorted(selected, key=lambda c: c.claim_id)]


def exit_code(reports: list[ClaimReport]) -> int:
    return 0 if all(r.status in (PASS, ASSUMED) for r in reports) else 1


def verify_paper(
    only: str | None = None,
    seed: int = 1,
    max_group_order: int = monodromy.DEFAULT_MAX_GROUP_ORDER,
) -> tuple[int, list[ClaimReport]]:
    """Run the full ledger and return (exit code, reports)."""
    context = LedgerContext(seed=seed, max_group_order=max_group_order)
    reports = run_claims(build_claims(context), only=only)
    return exit_code(reports), reports


def render_json(reports: list[ClaimReport]) -> str:
    import json  # here, not at the top: the markdown format never needs it

    return json.dumps([r.to_dict() for r in reports], indent=2)


def render_markdown(reports: list[ClaimReport]) -> str:
    lines = [
        "| claim | anchor | expected | computed | status |",
        "| --- | --- | --- | --- | --- |",
    ]
    for r in reports:
        lines.append(
            f"| {r.claim_id} | {r.paper_anchor} | {r.expected} | {r.computed} | {r.status} |"
        )
    counts = {}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    lines.append("")
    lines.append(f"{len(reports)} claims: {summary}")
    return "\n".join(lines)
