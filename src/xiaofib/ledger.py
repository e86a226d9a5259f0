"""The claim ledger: every numerical claim the engine recomputes, as one table.

Each row of the table is a ``Claim``: an identifier ``case/name``, the
anchor of the claim in its source text, the expected exact value as a
string, the identifiers of the claims it reads, and a function of their
values that returns its own value.  The table lists every input before
its readers.  One pass evaluates the rows in table order with one memo
of values, so each value is computed once per run; ``fmt`` renders each
value centrally.  A claim's value is passed on only when its rendering
matches the expected string.  A claim with an input that did not match
reports ``fail`` with computed ``blocked by <id>``; the claim where an
error arose reports ``error: ...``, so the root cause is always in the
report.  A failure never aborts the run.  Restricting the run to one
case still evaluates the claims that case reads, and reports only the
case.  Recorded hypotheses that the engine cannot derive, such as the
indecomposable Jacobian behind the relative irregularity q_pi = 2 g_D,
are reported with status ``assumed``; their values are still computed
from upstream claims.
"""

from __future__ import annotations

from . import errors, invariants, lattice, monodromy, numerology, quartic
from .record import Record

PASS = "pass"
FAIL = "fail"
ASSUMED = "assumed"


class ClaimReport(Record):
    """Outcome of one recomputed claim."""

    __slots__ = ("claim_id", "paper_anchor", "expected", "computed", "status")

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._values()))


class Claim(Record):
    """One row of the ledger: ``compute`` takes the values of the claims named in ``inputs``."""

    __slots__ = ("claim_id", "paper_anchor", "expected", "inputs", "compute", "assumed")

    def __init__(self, claim_id: str, paper_anchor: str, expected: str, inputs: tuple, compute, assumed=False):
        self._set(
            claim_id=claim_id, paper_anchor=paper_anchor, expected=expected, inputs=inputs, compute=compute,
            assumed=assumed,
        )

    def run(self, values: dict) -> ClaimReport:
        """Report this claim; on a match, store its value in ``values`` for its readers."""
        blocked = [name for name in self.inputs if name not in values]
        status = FAIL
        if blocked:
            computed = f"blocked by {blocked[0]}"
        else:
            try:
                value = self.compute(*[values[name] for name in self.inputs])
                computed = fmt(value)
            except Exception as exc:  # claim failures must not abort the run
                computed = f"error: {exc}"
            else:
                if computed == self.expected:
                    values[self.claim_id] = value
                    status = ASSUMED if self.assumed else PASS
        return ClaimReport(self.claim_id, self.paper_anchor, self.expected, computed, status)


def fmt(value) -> str:
    """Canonical exact rendering of a claim's value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str, numerology.FiberClass)):
        return str(value)
    if isinstance(value, tuple) and value and isinstance(value[0], lattice.IntersectionLattice):
        return fmt(value[1])  # a class with the lattice it lives in
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(map(fmt, value)) + ")"
    if isinstance(value, lattice.DivisorClass):
        return fmt(value.coeffs)
    if isinstance(value, lattice.BranchClassResult):
        return fmt(value.branch)
    if isinstance(value, numerology.XiaoReport):
        return (
            f"bound {value.bound}, xiao {fmt(value.is_xiao)}, "
            f"ceiling {fmt(value.meets_ceiling)}, bgn {value.bgn_bound_at_generic_clifford}"
        )
    if isinstance(value, numerology.ChevalleyWeil):
        return f"dims {fmt(tuple(value.dims))}, prym {value.prym_dim}, sym2-invariants {value.sym2_invariant_dim}"
    if isinstance(value, invariants.SurfaceProfile):
        return f"q {value.q}, chi {value.chi_O}, K2 {value.K2}, c2 {value.c2}, p_g {value.p_g}"
    raise TypeError(f"no exact rendering for {value!r}")


def _xiao(genera, q_rel) -> numerology.XiaoReport:
    return numerology.xiao_report(genera[0], q_rel)


def _brill_noether(genera, q_rel) -> bool:
    return numerology.brill_noether_range(q_rel, genera[0])


def _genus(on_product) -> int:
    lat, curve = on_product
    return lat.adjunction_genus(curve)


def _hodge_forced(on_product) -> bool:
    lat, xp = on_product
    ample = lat.basis_class("D1") + lat.basis_class("D2")
    h = 3 * ample - lat.basis_class("Delta")
    return lattice.hodge_index_forced_zero(lat, h - xp, ample)


def _k2_inputs(on_product, chain) -> tuple[int, int, int]:
    """(K^2, L.K, L^2) on D x D, for L half the branch class."""
    lat = on_product[0]
    k = lat.canonical_class()
    return lat.intersect(k, k), lat.intersect(chain.half, k), lat.intersect(chain.half, chain.half)


def _tower(cover: monodromy.BranchedCover, cut, bound: int) -> tuple:
    """(genus, Galois-closure genus, genus of the quotient by ``cut(group)``, group label)."""
    group = monodromy.generated_group(cover, bound)
    return (
        monodromy.rh_genus(cover),
        monodromy.galois_closure_genus(cover, bound),
        monodromy.quotient_genus(cover, cut(group), bound),
        f"{group.classification} of order {group.order}",
    )


def _case_tower(genera, g: int, cover: monodromy.BranchedCover, cut, bound: int) -> tuple:
    """``_tower`` of a case's cover; raises unless its three genera are the case's (g_D, g_C, g)."""
    tower = _tower(cover, cut, bound)
    g_c, g_d = genera
    if tower[:3] != (g_d, g_c, g):
        raise ValueError(f"tower genera {tower[:3]} differ from the case's (g_D, g_C, g) = {(g_d, g_c, g)}")
    return tower


def _trigonal_cover() -> monodromy.BranchedCover:
    """Degree-3 cover with ten simple branch points and full symmetric monodromy."""
    t01 = monodromy.Permutation.from_cycles("(0 1)", 3)
    t12 = monodromy.Permutation.from_cycles("(1 2)", 3)
    return monodromy.BranchedCover(3, 0, (t01, t01, t12, t12) * 2 + (t01, t01))


def _gamma_grid() -> str:
    cases = [numerology.CoverParams(g, p) for g in range(2, 7) for p in (3, 5, 7)]
    hits = sum(
        lattice.adjunction_inverse(*numerology.cover_genera(c)) == numerology.gamma_self_intersection(c)
        for c in cases
    )
    return f"{hits}/{len(cases)} agree"


def _fiber_grid() -> str:
    hits = total = 0
    for g in range(2, 9):
        for p in (3, 5, 7, 11):
            total += 1
            params = numerology.CoverParams(g, p)
            fiber = numerology.psi_fiber_class(params)
            gamma = numerology.gamma_self_intersection(params)
            hits += (gamma >= 0) == ((not fiber.finite) or (g, p) == (5, 3))
    return f"{hits}/{total} sign-consistent, boundary case (5, 3)"


def _monodromy_grid(bound: int) -> str:
    hits = total = 0
    for g in range(2, 6):
        for p in (3, 5, 7):
            total += 1
            cover = monodromy.build_dihedral_cover(g, p, bound)
            g_c, g_d = numerology.cover_genera(numerology.CoverParams(g, p))
            hits += (
                _tower(cover, monodromy.cyclic_rotation_subgroup, bound)
                == (g_d, g_c, g, f"{monodromy.DIHEDRAL} of order {2 * p}")
                and set(monodromy.ramification_profile(cover)) == {(2,) * ((p - 1) // 2) + (1,)}
            )
    return f"{hits}/{total} verified"


def _chevalley_sum_grid() -> str:
    cases = [numerology.CoverParams(g, p) for g in range(2, 7) for p in (3, 5, 7)]
    hits = sum(sum(numerology.chevalley_weil(c).dims) == numerology.cover_genera(c)[0] for c in cases)
    return f"{hits}/{len(cases)} sum to g_C"


def build_claims(seed: int, max_group_order: int) -> list[Claim]:
    """The ledger's table, every input listed before its readers."""
    p25, p33, p43 = numerology.CoverParams(2, 5), numerology.CoverParams(3, 3), numerology.CoverParams(4, 3)
    return _checked([
        # ---- case g = 2, p = 5 (Theorem 1.2, case 1) ----
        Claim("g2p5/genera", "S2: g_C = p(g-1)+1, g_D = (p-1)(g-1)/2; Thm 1.2(1): g_C = 6", "(6, 2)",
              (), lambda: numerology.cover_genera(p25)),
        Claim("g2p5/gamma-square", "Lemma C2: gamma(C)^2 = 8 - 2(g-1)(p-2) = 2", "2",
              ("g2p5/genera",), lambda genera: lattice.adjunction_inverse(*genera)),
        Claim("g2p5/fiber-dimension", "S4 Proposition: the fibers have dimension 1",
              "positive-dimensional of dimension 1", (), lambda: numerology.psi_fiber_class(p25)),
        Claim("g2p5/moduli-dimensions", "S2: dim H_{2,5} = dim M_2 = 3", "(3, 3)",
              (), lambda: numerology.moduli_dims(p25)),
        Claim("g2p5/chevalley-weil", "S4: h^0 splits as 2+1+1+1+1; Prym dimension 4; dim A'_4(5) = 2",
              "dims (2, 1, 1, 1, 1), prym 4, sym2-invariants 2", (), lambda: numerology.chevalley_weil(p25)),
        Claim("g2p5/monodromy-tower", "S2: dihedral cover tower for (g, p) = (2, 5); Thm 1.2(1): g_C = 6",
              "(2, 6, 2, dihedral of order 10)", ("g2p5/genera",),
              lambda genera: _case_tower(
                  genera, p25.g, monodromy.build_dihedral_cover(p25.g, p25.p, max_group_order),
                  monodromy.cyclic_rotation_subgroup, max_group_order)),
        Claim("g2p5/q-rel",
              "S3 Lemma: q_pi = 2 g_D = 4, given a curve in the family with indecomposable Jacobian", "4",
              ("g2p5/genera",), lambda genera: numerology.relative_irregularity(genera[1]), assumed=True),
        Claim("g2p5/xiao", "Thm 1.2(1): q_pi = 4 > (6+1)/2; eq. (1.3): q_pi = ceil((g_C+1)/2)",
              "bound 7/2, xiao true, ceiling true, bgn 4", ("g2p5/genera", "g2p5/q-rel"), _xiao),
        Claim("g2p5/brill-noether", "S1 Proposition: q(S) = 4 < g_a = 6 < 2q - 1", "true",
              ("g2p5/genera", "g2p5/q-rel"), _brill_noether),
        # ---- case g = 3, p = 3 (Theorem 1.2, case 3; nodal fibers) ----
        Claim("g3p3/genera", "S6: generically g_C = 7; g_D = 2", "(7, 2)",
              (), lambda: numerology.cover_genera(p33)),
        Claim("g3p3/fiber-dimension", "S6: fibers of dimension 2", "positive-dimensional of dimension 2",
              (), lambda: numerology.psi_fiber_class(p33)),
        Claim("g3p3/nodal-class", "S6: the fiber curve in the genus-2 product has pairings (2, 2, 8)",
              "(3, 3, -1)", ("g3p3/genera",), lambda genera: lattice.correspondence_class(genera[1], p33.p)),
        Claim("g3p3/nodal-genus", "S6: arithmetic genus 7 (g_C = 7)", "7", ("g3p3/nodal-class",), _genus),
        Claim("g3p3/geometric-genus", "S6: one simple node at (P, P); smooth model of genus 6", "6",
              ("g3p3/nodal-genus",), lambda p_a: numerology.geometric_genus(p_a, 1)),
        Claim("g3p3/q-rel", "S6: relative irregularity 2 g_D = 4 (recorded input)", "4",
              ("g3p3/genera",), lambda genera: numerology.relative_irregularity(genera[1]), assumed=True),
        Claim("g3p3/xiao-generic", "S6: no contradiction for the generic member, g_C = 7 with q_pi = 4",
              "bound 4, xiao false, ceiling true, bgn 4", ("g3p3/genera", "g3p3/q-rel"), _xiao),
        Claim("g3p3/xiao-smooth-model", "Thm 1.2(3): after normalization g_C = 6, q_pi = 4",
              "bound 7/2, xiao true, ceiling true, bgn 4", ("g3p3/geometric-genus", "g3p3/q-rel"),
              lambda g_c, q_rel: numerology.xiao_report(g_c, q_rel)),
        # ---- case g = 4, p = 3 (Theorem 1.2, case 2; the explicit surface) ----
        Claim("g4p3/genera", "S5: C_P of genus 10, E_P of genus 4; g_D = 3", "(10, 3)",
              (), lambda: numerology.cover_genera(p43)),
        Claim("g4p3/monodromy-tower",
              "S5: monodromy of f_P is S_3; Galois closure of genus 10; quotient by A_3 of genus 4",
              "(3, 10, 4, dihedral of order 6)", ("g4p3/genera",),
              lambda genera: _case_tower(genera, p43.g, _trigonal_cover(), monodromy.even_subgroup, max_group_order)),
        Claim("g4p3/fiber-class",
              "S5: X_P . D_1 = X_P . D_2 = 2 and X_P . Delta = 10 give X_P = 3(D_1 + D_2) - Delta",
              "(3, 3, -1)", ("g4p3/genera",), lambda genera: lattice.correspondence_class(genera[1], p43.p)),
        Claim("g4p3/fiber-self-intersection", "S5: X_P^2 = 2", "2",
              ("g4p3/fiber-class",), lambda fiber: fiber[0].intersect(fiber[1], fiber[1])),
        Claim("g4p3/fiber-genus", "S5: X_P has arithmetic genus 10", "10", ("g4p3/fiber-class",), _genus),
        Claim("g4p3/hodge-determination",
              "S5: (H - X_P)^2 = 0 and the Hodge index theorem force X_P = H numerically", "true",
              ("g4p3/fiber-class",), _hodge_forced),
        Claim("g4p3/branch-class", "S5: B = 16(D_1 + D_2) - 6 Delta", "(16, 16, -6)",
              ("g4p3/fiber-class",), lambda fiber: lattice.branch_class(*fiber)),
        Claim("g4p3/involution-on-dp", "S5: tau_* D_P = 3 D_P - delta", "(3, -1)",
              ("g4p3/branch-class",), lambda chain: tuple(row[0] for row in chain.involution)),
        Claim("g4p3/involution-on-delta", "S5: tau_* delta = 8 D_P - 3 delta", "(8, -3)",
              ("g4p3/branch-class",), lambda chain: tuple(row[1] for row in chain.involution)),
        Claim("g4p3/involution-on-diagonal", "S5: tau_* Delta = 16 D_P - 6 delta", "(16, -6)",
              ("g4p3/branch-class",), lambda chain: chain.tau_diagonal),
        Claim("g4p3/branch-half", "S5: L = B/2 = 8(D_1 + D_2) - 3 Delta", "(8, 8, -3)",
              ("g4p3/branch-class",), lambda chain: chain.half),
        Claim("g4p3/branch-genus-adjunction", "S5: p_a(B) = 1 + (B^2 + B.K)/2 = 33", "33",
              ("g4p3/fiber-class", "g4p3/branch-class"),
              lambda fiber, chain: fiber[0].adjunction_genus(chain.branch)),
        Claim("g4p3/plucker-counts",
              "S5: 24 singular fibers (flexes) and 56 = 2 x 28 ramification points (bitangents)", "(24, 28)",
              (), lambda: quartic.plucker_counts(4)),
        Claim("g4p3/branch-genus-riemann-hurwitz",
              "S5: the double cover B -> D is ramified at the 56 bitangent points, so g(B) = 33", "33",
              ("g4p3/genera", "g4p3/plucker-counts"),
              lambda genera, counts: invariants.double_cover_curve_genus(genera[1], 2 * counts.bitangents)),
        Claim("g4p3/double-cover-inputs", "S5: K^2 of D x D is 32, L.K = 40, L^2 = -4", "(32, 40, -4)",
              ("g4p3/fiber-class", "g4p3/branch-class"), _k2_inputs),
        Claim("g4p3/K2", "Thm 5.5(3): K_S^2 = 2 K^2 + 4 L.K + 2 L^2 = 216", "216",
              ("g4p3/double-cover-inputs",), lambda inputs: invariants.double_cover_K2(*inputs)),
        Claim("g4p3/c2", "Thm 5.5(2): c_2(S) = chi_top(D) chi_top(C_P) + 24 = 96, one nodal fiber per flex",
              "96", ("g4p3/genera", "g4p3/plucker-counts"),
              lambda genera, counts: invariants.fibration_euler(genera[1], genera[0], [1] * counts.flexes)),
        Claim("g4p3/chi-noether", "S5: Noether's formula gives chi(O_S) = 26", "26",
              ("g4p3/K2", "g4p3/c2"), lambda k2, c2: invariants.noether_chi(k2, c2)),
        Claim("g4p3/chi-double-cover",
              "companion double-cover formula: chi = 2 chi(O) + L(L+K)/2 = 26 (cross-check)", "26",
              ("g4p3/genera", "g4p3/double-cover-inputs"),
              lambda genera, inputs: invariants.double_cover_chi((1 - genera[1]) ** 2, *inputs[1:])),
        Claim("g4p3/q-rel", "S5: q_pi = 6 by Lemma qrel, so q_S = q_pi + g(D) = 9 (recorded input)", "6",
              ("g4p3/genera",), lambda genera: numerology.relative_irregularity(genera[1]), assumed=True),
        Claim("g4p3/profile", "Thm 5.5: q_S = 9, c_2 = 96, K_S^2 = 216, p_g = 34",
              "q 9, chi 26, K2 216, c2 96, p_g 34", ("g4p3/q-rel", "g4p3/genera", "g4p3/K2", "g4p3/c2"),
              lambda q_rel, genera, k2, c2: invariants.assemble_profile(q_rel, genera[1], k2, c2)),
        Claim("g4p3/flexes-simple-witness",
              "Thm 5.5 hypothesis: all flexes of D are simple (witness smooth quartic)", "(true, 24)",
              (), lambda: quartic.flexes_all_simple(quartic.parse_ternary_form(quartic.KLEIN_QUARTIC), seed)),
        Claim("g4p3/hyperflex-excluded",
              "Remark 5.2: with a flex of order four the surface is singular (hyperflex witness)", "(false, 24)",
              (), lambda: quartic.flexes_all_simple(quartic.parse_ternary_form(quartic.FERMAT_QUARTIC), seed)),
        Claim("g4p3/xiao", "Thm 1.2(2): q_pi = 6 > (10+1)/2", "bound 11/2, xiao true, ceiling true, bgn 6",
              ("g4p3/genera", "g4p3/q-rel"), _xiao),
        Claim("g4p3/brill-noether", "S1 Proposition: q(S) = 6 < g_a = 10 < 2q - 1", "true",
              ("g4p3/genera", "g4p3/q-rel"), _brill_noether),
        Claim("g4p3/base-point-position",
              "S5: the projection point P lies on no flex tangent of D; a condition on the "
              "chosen point, not on D, so it is recorded rather than certified",
              "P avoids the 24 flex tangents", ("g4p3/plucker-counts",),
              lambda counts: f"P avoids the {counts.flexes} flex tangents", assumed=True),
        # ---- cross-case grids ----
        Claim("general/gamma-grid", "Lemma C2 vs the genus formula in D x D, g in [2, 6], p in {3, 5, 7}",
              "15/15 agree", (), _gamma_grid),
        Claim("general/fiber-grid",
              "Prop 2.7: finite fibers iff p >= 7, p = 5 and g >= 3, or p = 3 and g >= 5; "
              "gamma^2 >= 0 detects the rest except (g, p) = (5, 3)",
              "28/28 sign-consistent, boundary case (5, 3)", (), _fiber_grid),
        Claim("general/monodromy-grid",
              "S2: genus formulas and ramification profiles of the dihedral tower, g in [2, 5], p in {3, 5, 7}",
              "12/12 verified", (), lambda: _monodromy_grid(max_group_order)),
        Claim("general/chevalley-weil-sums", "S4: the character dimensions add up to g_C = p(g-1)+1",
              "15/15 sum to g_C", (), _chevalley_sum_grid),
    ])


def _checked(claims: list[Claim]) -> list[Claim]:
    """The table itself, once every claim reads only claims listed before it."""
    declared = set()
    for claim in claims:
        for name in claim.inputs:
            if name not in declared:
                raise ValueError(f"claim {claim.claim_id} reads {name}, which is unknown or declared later")
        declared.add(claim.claim_id)
    return claims


def run_claims(claims: list[Claim], only: str | None = None) -> list[ClaimReport]:
    """Evaluate the claims of one case (all when ``only`` is None) and the claims they read.

    Returns the reports of that case, ordered by claim id.
    """
    wanted = {c.claim_id for c in claims if only is None or c.claim_id.partition("/")[0] == only}
    needed = set(wanted)
    for claim in reversed(claims):
        if claim.claim_id in needed:
            needed.update(claim.inputs)
    values = {}
    reports = [claim.run(values) for claim in claims if claim.claim_id in needed]
    return sorted((r for r in reports if r.claim_id in wanted), key=lambda r: r.claim_id)


def exit_code(reports: list[ClaimReport]) -> int:
    return 0 if all(r.status in (PASS, ASSUMED) for r in reports) else 1


def verify_paper(
    only: str | None = None,
    seed: int = 1,
    max_group_order: int = errors.DEFAULT_MAX_GROUP_ORDER,
) -> tuple[int, list[ClaimReport]]:
    """Run the full ledger and return (exit code, reports)."""
    reports = run_claims(build_claims(seed, max_group_order), only)
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
