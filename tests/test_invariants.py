import random
import typing

import pytest

from xiaofib.invariants import (
    InvariantError,
    SurfaceProfile,
    assemble_profile,
    double_cover_K2,
    double_cover_chi,
    double_cover_curve_genus,
    fibration_euler,
    noether_chi,
)


def test_double_cover_K2():
    assert double_cover_K2(32, 40, -4) == 216
    assert double_cover_K2(0, 0, 0) == 0


def test_double_cover_chi():
    assert double_cover_chi(4, 40, -4) == 26
    assert double_cover_chi(1, 0, 0) == 2
    with pytest.raises(InvariantError):
        double_cover_chi(1, 1, 0)


def test_noether_chi():
    assert noether_chi(216, 96) == 26
    assert noether_chi(0, 12) == 1
    assert noether_chi(1, 11) == 1  # K^2 - c2 = -10 is not divisible by 12
    with pytest.raises(InvariantError):
        noether_chi(216, 95)


def test_chi_routes_agree_on_the_surface_instance():
    assert noether_chi(216, 96) == double_cover_chi(4, 40, -4)


def test_fibration_euler():
    assert fibration_euler(3, 10, [1] * 24) == 96
    assert fibration_euler(3, 10, [1] * 23) == 95
    assert fibration_euler(2, 5, []) == (2 - 4) * (2 - 10)
    with pytest.raises(InvariantError):
        fibration_euler(3, 10, [-1])
    assert typing.get_type_hints(fibration_euler)["fiber_defects"] == list[int]  # every annotation resolves


def test_fibration_euler_properties():
    rng = random.Random(9)
    for _ in range(30):
        b, f = rng.randint(0, 6), rng.randint(0, 12)
        defects = [rng.randint(0, 3) for _ in range(rng.randint(0, 5))]
        base = fibration_euler(b, f, [])
        assert fibration_euler(b, f, defects) == base + sum(defects)
        assert base == fibration_euler(f, b, [])


def test_double_cover_curve_genus():
    assert double_cover_curve_genus(3, 56) == 33
    for g in range(0, 8):
        assert double_cover_curve_genus(g, 0) == 2 * g - 1
        # the hyperelliptic count: a double cover of the line with 2g + 2 branch points
        assert double_cover_curve_genus(0, 2 * g + 2) == g
    with pytest.raises(InvariantError):
        double_cover_curve_genus(3, 55)


def test_assemble_profile():
    profile = assemble_profile(6, 3, 216, 96)
    assert profile == SurfaceProfile(q=9, chi_O=26, K2=216, c2=96, p_g=34)
    small = assemble_profile(0, 0, 0, 12)
    assert (small.q, small.chi_O, small.p_g) == (0, 1, 0)
    with pytest.raises(InvariantError):
        assemble_profile(6, 3, 216, 95)


def test_surface_profile_invariants_enforced():
    with pytest.raises(InvariantError):
        SurfaceProfile(q=9, chi_O=26, K2=216, c2=95, p_g=34)
    with pytest.raises(InvariantError):
        SurfaceProfile(q=9, chi_O=26, K2=216, c2=96, p_g=35)
