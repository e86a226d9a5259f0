"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact (tolerance zero).  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

from oracles import pairings
from xiaofib import invariants, lattice, ledger, monodromy, numerology, quartic


def _report(criterion: str, ok: bool):
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {criterion}"


def test_criterion_01_surface_profile_end_to_end():
    lat = lattice.product_with_diagonal_lattice(3)
    chain = lattice.branch_class(*lattice.correspondence_class(3, 3))
    k = lat.canonical_class()
    inputs = (
        lat.intersect(k, k),
        lat.intersect(chain.half, k),
        lat.intersect(chain.half, chain.half),
    )
    k2 = invariants.double_cover_K2(*inputs)
    c2 = invariants.fibration_euler(3, 10, [1] * 24)
    profile = invariants.assemble_profile(6, 3, k2, c2)
    ok = (
        inputs == (32, 40, -4)
        and k2 == 216
        and c2 == 96
        and profile == invariants.SurfaceProfile(q=9, chi_O=26, K2=216, c2=96, p_g=34)
    )
    _report("01 surface profile (q 9, chi 26, K2 216, c2 96, p_g 34)", ok)


def test_criterion_02_fiber_class_chain():
    lat = lattice.product_with_diagonal_lattice(3)
    xp = lat.class_from_intersections((2, 2, 10))
    h = 3 * (lat.basis_class("D1") + lat.basis_class("D2")) - lat.basis_class("Delta")
    ample = lat.basis_class("D1") + lat.basis_class("D2")
    ok = (
        xp == lattice.DivisorClass((3, 3, -1))
        and lat.intersect(xp, xp) == 2
        and lat.adjunction_genus(xp) == 10
        and lattice.hodge_index_forced_zero(lat, h - xp, ample) is True
    )
    _report("02 fiber class (3,3,-1), square 2, genus 10, hodge-forced", ok)


def test_criterion_03_branch_curve():
    sym = lattice.symmetric_square_lattice(3)
    chain = lattice.branch_class(*lattice.correspondence_class(3, 3))
    tau = chain.involution
    identity = ((1, 0), (0, 1))
    squared = tuple(
        tuple(sum(tau[i][k] * tau[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )
    gram_preserved = all(
        sym.intersect(
            lattice.apply_matrix(tau, sym.basis_class(a)),
            lattice.apply_matrix(tau, sym.basis_class(b)),
        )
        == sym.intersect(sym.basis_class(a), sym.basis_class(b))
        for a in sym.basis_labels
        for b in sym.basis_labels
    )
    prod = lattice.product_with_diagonal_lattice(3)
    ok = (
        lattice.apply_matrix(tau, lattice.DivisorClass((1, 0))) == lattice.DivisorClass((3, -1))
        and lattice.apply_matrix(tau, lattice.DivisorClass((0, 1))) == lattice.DivisorClass((8, -3))
        and squared == identity
        and gram_preserved
        and chain.branch == lattice.DivisorClass((16, 16, -6))
        and prod.adjunction_genus(chain.branch) == 33
        and invariants.double_cover_curve_genus(3, 56) == 33
    )
    _report("03 branch curve: tau, B = (16,16,-6), genus 33 both routes", ok)


def test_criterion_04_gamma_square_equivalence():
    cases = [(g, p) for g in range(2, 7) for p in (3, 5, 7)]
    hits = sum(
        lattice.adjunction_inverse(*numerology.cover_genera(numerology.CoverParams(g, p)))
        == 8 - 2 * (g - 1) * (p - 2)
        for g, p in cases
    )
    ok = hits == 15
    _report(f"04 adjunction inversion equals 8 - 2(g-1)(p-2) on {hits}/15 cases", ok)


def test_criterion_05_fiber_truth_table():
    ok = True
    for g in range(2, 9):
        for p in (3, 5, 7, 11):
            params = numerology.CoverParams(g, p)
            finite = numerology.psi_fiber_class(params).finite
            stated = p >= 7 or (p == 5 and g >= 3) or (p == 3 and g >= 5)
            ok = ok and finite == stated
            gamma = numerology.gamma_self_intersection(params)
            consistent = (gamma >= 0) == ((not finite) or (g, p) == (5, 3))
            ok = ok and consistent
    _report("05 fiber classification truth table with boundary case (5, 3)", ok)


def test_criterion_06_monodromy_closure_grid():
    start = time.time()
    ok = True
    for g in range(2, 6):
        for p in (3, 5, 7):
            cover = monodromy.build_dihedral_cover(g, p)
            group = monodromy.generated_group(cover)
            profile = set(monodromy.ramification_profile(cover))
            wanted = {tuple(sorted([2] * ((p - 1) // 2) + [1], reverse=True))}
            ok = ok and monodromy.rh_genus(cover) == (p - 1) * (g - 1) // 2
            ok = ok and monodromy.galois_closure_genus(cover) == p * (g - 1) + 1
            ok = ok and monodromy.quotient_genus(
                cover, monodromy.cyclic_rotation_subgroup(group)
            ) == g
            ok = ok and profile == wanted
            ok = ok and (group.order, group.classification) == (2 * p, "dihedral")
    elapsed = time.time() - start
    ok = ok and elapsed < 5.0
    _report(f"06 monodromy closure grid, 12 cases in {elapsed:.2f}s (< 5s)", ok)


def test_criterion_07_xiao_ledger():
    reports = [numerology.xiao_report(6, 4), numerology.xiao_report(10, 6), numerology.xiao_report(6, 4)]
    ok = all(r.is_xiao and r.meets_ceiling for r in reports)
    generic = numerology.xiao_report(7, 4)
    ok = ok and not generic.is_xiao
    ok = ok and numerology.brill_noether_range(4, 6) and numerology.brill_noether_range(6, 10)
    _report("07 xiao + brill-noether ledger on the three cases and the generic member", ok)


def test_criterion_08_nodal_case():
    lat = lattice.product_with_diagonal_lattice(2)
    fiber = lat.class_from_intersections((2, 2, 8))
    ok = (
        fiber == lattice.DivisorClass((3, 3, -1))
        and lat.adjunction_genus(fiber) == 7
        and numerology.geometric_genus(7, 1) == 6
    )
    _report("08 nodal case: class (3,3,-1), p_a 7, geometric genus 6", ok)


def test_criterion_09_chevalley_weil():
    cw = numerology.chevalley_weil(numerology.CoverParams(2, 5))
    ok = (tuple(cw.dims), cw.prym_dim, cw.sym2_invariant_dim) == ((2, 1, 1, 1, 1), 4, 2)
    for g in range(2, 7):
        for p in (3, 5, 7, 11):
            params = numerology.CoverParams(g, p)
            ok = ok and sum(numerology.chevalley_weil(params).dims) == numerology.cover_genera(params)[0]
    _report("09 chevalley-weil dims (2,1,1,1,1), prym 4, sym2 2; sums = g_C", ok)


def test_criterion_10_quartic_certificates():
    start = time.time()
    ok = tuple(quartic.plucker_counts(4)) == (24, 28)
    klein = quartic.parse_ternary_form(quartic.KLEIN_QUARTIC)
    fermat = quartic.parse_ternary_form(quartic.FERMAT_QUARTIC)
    for seed in (1, 2, 3, 4, 5):
        ok = ok and tuple(quartic.flexes_all_simple(klein, seed)) == (True, 24)
        ok = ok and tuple(quartic.flexes_all_simple(fermat, seed)) == (False, 24)

    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    rng = random.Random(10)
    checked = 0
    while checked < 20:
        terms = {}
        for i in range(5):
            for j in range(5 - i):
                if rng.random() < 0.6:
                    terms[(i, j, 4 - i - j)] = Fraction(rng.randint(-9, 9))
        terms[(4, 0, 0)] = Fraction(rng.choice([1, 2, 3, -2]))
        form = quartic.TernaryForm(4, terms)
        matrix = quartic.random_unimodular(rng)
        try:
            hess = quartic.hessian(form)
        except quartic.DegenerateFormError:
            continue
        lhs = quartic.hessian(form.compose(matrix))
        rhs = hess.compose(matrix).scale(Fraction(det3(matrix)) ** 2)
        ok = ok and lhs == rhs
        checked += 1
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    _report(f"10 quartic certificates in {elapsed:.1f}s (< 60s)", ok)


def test_criterion_11_property_suites():
    ok = True
    rng = random.Random(11)
    for g in range(2, 7):
        # the projection formula is checked against the product lattice's Gram matrix
        sym = lattice.symmetric_square_quotient(lattice.product_with_diagonal_lattice(g))
        for label in sym.basis_labels:
            y = sym.basis_class(label)
            ok = ok and lattice.apply_matrix(lattice.SYM2_PUSH, lattice.apply_matrix(lattice.SYM2_PULL, y)) == 2 * y
        for lat in (lattice.product_with_diagonal_lattice(g), lattice.symmetric_square_lattice(g)):
            for _ in range(100):
                c = lattice.DivisorClass(tuple(rng.randint(-40, 40) for _ in range(lat.rank)))
                ok = ok and lat.class_from_intersections(pairings(lat, c)) == c
    ok = ok and invariants.noether_chi(216, 96) == invariants.double_cover_chi(4, 40, -4)
    _report("11 projection formula, 100-class round-trips, chi cross-check", ok)


def test_full_ledger_passes():
    code, reports = ledger.verify_paper()
    counts = {}
    for report in reports:
        counts[report.status] = counts.get(report.status, 0) + 1
    print(f"acceptance ledger: exit {code}, {counts}")
    assert code == 0
    assert counts.get("fail", 0) == 0
