import math
from fractions import Fraction

import pytest

from oracles import FibrationProfile, trial_division_is_odd_prime
from xiaofib.monodromy import build_dihedral_cover, galois_closure_genus, rh_genus
from xiaofib.numerology import (
    ChevalleyWeil,
    CoverParams,
    FiberClass,
    GENUS_LIMIT,
    NumerologyError,
    PRIMALITY_LIMIT,
    bgn_bound,
    brill_noether_range,
    chevalley_weil,
    cover_genera,
    gamma_self_intersection,
    geometric_genus,
    is_odd_prime,
    moduli_dims,
    psi_fiber_class,
    xiao_report,
)


def test_cover_params_validation():
    CoverParams(2, 3)
    with pytest.raises(ValueError):
        CoverParams(1, 3)
    with pytest.raises(ValueError):
        CoverParams(2, 4)
    with pytest.raises(ValueError):
        CoverParams(2, 9)


def test_every_number_of_the_largest_genus_prints():
    params = CoverParams(GENUS_LIMIT - 1, 3317044064679887385961813)  # the largest prime below PRIMALITY_LIMIT
    assert len(str(chevalley_weil(params).sym2_invariant_dim)) <= 4300
    with pytest.raises(NumerologyError, match="below 10"):
        CoverParams(GENUS_LIMIT, 3)


def test_primality_matches_trial_division_below_20000():
    assert [n for n in range(-3, 20000) if is_odd_prime(n) != trial_division_is_odd_prime(n)] == []


@pytest.mark.parametrize("n", [
    3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
    3825123056546413051,  # to every prime base up to 23
    318665857834031151167461,  # to every prime base up to 37: only 41 catches it
])
def test_strong_pseudoprimes_are_composite(n):
    assert not is_odd_prime(n)


def test_primality_is_refused_at_the_limit():
    assert is_odd_prime(10**18 + 3)
    assert is_odd_prime(2**61 - 1)
    assert is_odd_prime(PRIMALITY_LIMIT - 1) is False  # even
    assert is_odd_prime(PRIMALITY_LIMIT + 1) is False  # even numbers are refused before the limit
    # a strong pseudoprime to all thirteen bases
    with pytest.raises(NumerologyError, match="cannot decide"):
        is_odd_prime(3317044064679887385961981)
    with pytest.raises(NumerologyError, match="cannot decide"):
        CoverParams(2, 2**89 - 1)


def test_cover_genera_examples():
    assert cover_genera(CoverParams(2, 5)) == (6, 2)
    assert cover_genera(CoverParams(4, 3)) == (10, 3)
    assert cover_genera(CoverParams(2, 3)) == (4, 1)


def test_cover_genera_match_monodromy():
    for g in range(2, 6):
        for p in (3, 5, 7):
            g_c, g_d = cover_genera(CoverParams(g, p))
            cover = build_dihedral_cover(g, p)
            assert rh_genus(cover) == g_d
            assert galois_closure_genus(cover) == g_c


def test_gamma_self_intersection():
    assert gamma_self_intersection(CoverParams(2, 5)) == 2
    assert gamma_self_intersection(CoverParams(5, 3)) == 0
    assert gamma_self_intersection(CoverParams(2, 7)) == -2


def test_fiber_classification():
    assert psi_fiber_class(CoverParams(2, 5)) == FiberClass("positive_dimensional", 1)
    assert psi_fiber_class(CoverParams(5, 3)) == FiberClass("finite", 0)
    assert psi_fiber_class(CoverParams(3, 3)) == FiberClass("positive_dimensional", 2)
    assert psi_fiber_class(CoverParams(4, 3)) == FiberClass("positive_dimensional", 1)
    assert psi_fiber_class(CoverParams(2, 3)) == FiberClass("positive_dimensional", 2)
    assert psi_fiber_class(CoverParams(3, 5)).finite
    assert psi_fiber_class(CoverParams(2, 7)).finite


def test_fiber_class_renders_each_case():
    assert str(FiberClass("finite", 0)) == "finite"
    assert str(FiberClass("positive_dimensional", 2)) == "positive-dimensional of dimension 2"
    assert str(FiberClass("positive_dimensional", None)) == "positive-dimensional"


def test_fiber_sign_consistency_with_gamma():
    for g in range(2, 9):
        for p in (3, 5, 7, 11):
            params = CoverParams(g, p)
            positive = not psi_fiber_class(params).finite
            gamma_nonnegative = gamma_self_intersection(params) >= 0
            assert gamma_nonnegative == (positive or (g, p) == (5, 3))


def test_moduli_dims():
    assert moduli_dims(CoverParams(2, 5)) == (3, 3)
    assert moduli_dims(CoverParams(4, 3)) == (7, 6)
    assert moduli_dims(CoverParams(2, 3)) == (3, 1)


def test_xiao_report_examples():
    report = xiao_report(6, 4)
    assert report.bound == "7/2"
    assert report.is_xiao and report.meets_ceiling
    assert report.bgn_bound_at_generic_clifford == 4

    report = xiao_report(10, 6)
    assert report.bound == "11/2"
    assert report.is_xiao and report.meets_ceiling
    assert report.bgn_bound_at_generic_clifford == 6

    report = xiao_report(7, 4)
    assert report.bound == "4"
    assert not report.is_xiao
    assert report.meets_ceiling
    assert report.bgn_bound_at_generic_clifford == 4

    for g in range(2, 30):
        bound = Fraction(g + 1, 2)
        for q in range(g + 3):
            report = xiao_report(g, q)
            assert Fraction(report.bound) == bound
            assert report.is_xiao == (q > bound)
            assert report.meets_ceiling == (q == math.ceil(bound))


def test_bgn_bound():
    # generic Clifford index: bound is ceil((g + 1)/2)
    for g in range(2, 12):
        assert bgn_bound(g) == -(-(g + 1) // 2)
        assert bgn_bound(g) == xiao_report(g, 0).bgn_bound_at_generic_clifford
    # supplied Clifford index just shifts the genus
    assert bgn_bound(6, 2) == 4
    assert bgn_bound(6, 0) == 6
    with pytest.raises(ValueError):
        bgn_bound(6, -1)


def test_brill_noether_range():
    assert brill_noether_range(4, 6)
    assert brill_noether_range(6, 10)
    assert not brill_noether_range(4, 4)
    assert not brill_noether_range(4, 7)  # 7 = 2q - 1 excluded
    with pytest.raises(ValueError):
        brill_noether_range(-1, 3)


def test_chevalley_weil():
    assert chevalley_weil(CoverParams(2, 5)) == ChevalleyWeil((2, 1, 1, 1, 1), 4, 2)
    assert chevalley_weil(CoverParams(2, 3)) == ChevalleyWeil((2, 1, 1), 2, 1)
    for g in range(2, 7):
        for p in (3, 5, 7, 11):
            params = CoverParams(g, p)
            cw = chevalley_weil(params)
            assert len(cw.dims) == p
            assert sum(cw.dims) == cover_genera(params)[0]
            assert cw.prym_dim == (p - 1) * (g - 1)


def test_geometric_genus():
    assert geometric_genus(7, 1) == 6
    assert geometric_genus(10, 0) == 10
    assert geometric_genus(10, 1) == 9
    with pytest.raises(ValueError):
        geometric_genus(2, 3)
    with pytest.raises(ValueError):
        geometric_genus(2, -1)


def test_fibration_profile_invariants():
    profile = FibrationProfile(g_fiber=10, q_rel=6, g_base=3, q_total=9)
    assert profile.q_total == profile.q_rel + profile.g_base
    with pytest.raises(ValueError):
        FibrationProfile(g_fiber=10, q_rel=6, g_base=3, q_total=8)
    with pytest.raises(ValueError):
        FibrationProfile(g_fiber=1, q_rel=0, g_base=0, q_total=0)
