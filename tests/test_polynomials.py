import random
import re
from fractions import Fraction
from math import lcm

import pytest

from oracles import (
    BiPoly,
    coprime_bipolys,
    evaluate_bipoly,
    evaluate_poly,
    fraction_divmod,
    is_squarefree,
    poly_gcd_euclid,
    res_y,
    resultant,
    ring_mul,
    ring_sub,
    sylvester_matrix,
    term_map,
    terms_exact_div,
    times,
)
from xiaofib import polynomials
from xiaofib.polynomials import (
    MODULUS,
    PolynomialError,
    UnivariatePoly,
    bipoly_gcd,
    common_affine_zero,
    poly_gcd,
    _coprime_mod_p,
    res_y_prs,
    squarefree_part,
    subresultant_chain_y,
    subresultant_y,
)

U = UnivariatePoly


def from_roots(roots, lead=1):
    poly = U((lead,))
    for r in roots:
        poly = times(poly, U((-r, 1)))
    return poly


def lin(a, b, c):
    """a*x + b*y + c as a bivariate polynomial."""
    return BiPoly({(1, 0): a, (0, 1): b, (0, 0): c})


X = BiPoly({(1, 0): 1})
Y = BiPoly({(0, 1): 1})
ONE = BiPoly.constant(1)


def rand_poly(rng, max_degree, zero_ok=False):
    degree = rng.randint(0 if zero_ok else 1, max_degree)
    coeffs = [rng.randint(-6, 6) for _ in range(degree)] + [rng.choice([1, 2, -1, 3])]
    return U(tuple(coeffs))


def rand_bipoly(rng, dx, dy):
    terms = {}
    for i in range(dx + 1):
        for j in range(dy + 1):
            if rng.random() < 0.7:
                terms[(i, j)] = rng.randint(-5, 5)
    terms[(rng.randint(0, dx), dy)] = rng.choice([1, 2, -3])
    return BiPoly(terms)


# ---- univariate arithmetic ----


def test_normalization_and_degree():
    assert U((1, 2, 0, 0)).coeffs == (1, 2)
    assert U(()).is_zero()
    assert U(()).degree == -1
    assert U((0, 0)).is_zero()
    assert U((3, -2, 0)).coeffs == (3, -2)


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, True])
def test_constructors_refuse_coefficients_that_are_not_int(bad):
    with pytest.raises(PolynomialError, match=re.escape(repr(bad))):
        U((1, bad))
    with pytest.raises(PolynomialError, match=re.escape(repr(bad))):
        BiPoly({(0, 0): 1, (1, 2): bad})
    with pytest.raises(PolynomialError, match=re.escape(repr(bad))):
        polynomials.BiPoly(((1,), (), (0, bad)))


def test_divmod_is_exact_division_with_remainder():
    rng = random.Random(23)
    for _ in range(60):
        f = rand_poly(rng, 7, zero_ok=True)
        g = rand_poly(rng, 4)
        q, r = fraction_divmod(f.coeffs, g.coeffs)  # the oracle, over Q
        scale = lcm(*(c.denominator for c in q + r))
        quotient, remainder = (U(tuple(int(c * scale) for c in cs)) for cs in (q, r))
        assert ring_mul(quotient.coeffs, g.coeffs) == ring_sub(ring_mul(f.coeffs, (scale,)), remainder.coeffs)
        assert remainder.degree < g.degree
        assert times(f, g).exact_div(g) == f
        if remainder.is_zero() and scale == 1:
            assert f.exact_div(g) == quotient
        else:  # g does not divide f in Z[x]
            with pytest.raises(PolynomialError):
                f.exact_div(g)
    assert U((2, 2)).exact_div(U((2,))) == U((1, 1))
    with pytest.raises(PolynomialError):
        U((1, 1)).exact_div(U((2, 2)))  # the quotient 1/2 is not in Z[x]
    with pytest.raises(PolynomialError):
        U((1, 1)).exact_div(U(()))


def test_gcd_properties():
    rng = random.Random(31)
    for _ in range(40):
        common = rand_poly(rng, 3)
        f = times(common, rand_poly(rng, 3))
        g = times(common, rand_poly(rng, 3))
        d = poly_gcd(f, g)
        assert d.degree >= common.degree
        assert d == d.primitive()  # coprime coefficients, positive leading coefficient
        f.exact_div(d)  # raises unless the gcd divides f in Z[x]
        g.exact_div(d)
    assert poly_gcd(U(()), U(())).is_zero()
    assert poly_gcd(U((2,)), U((0, 1))) == U((1,))
    assert poly_gcd(U((-4, 0, 4)), U((6, -6))) == U((-1, 1))


def test_squarefree_detection():
    double = times(U((1, 1)), U((1, 1)), U((3, 1)))
    assert not is_squarefree(double)
    assert squarefree_part(double) == times(U((1, 1)), U((3, 1)))
    # 6 (2x + 1)^2 (x - 1): the monic part would be x^2 - x/2 - 1/2
    assert squarefree_part(times(U((6,)), U((1, 2)), U((1, 2)), U((-1, 1)))) == U((-1, -1, 2))
    assert is_squarefree(U((-1, 0, 1)))


def test_coprime_mod_p_is_one_way():
    """The modular kernel on (f, f'): True certifies f squarefree, and the exact gcd decides the rest."""
    def kernel(f):
        return _coprime_mod_p(f, f.derivative())

    assert kernel(U((-1, 0, 1))) is True
    assert kernel(U((7,))) is True
    assert kernel(times(U((1, 1)), U((1, 1)), U((3, 1)))) is False
    assert kernel(U.zero()) is False
    # x^2 + p is squarefree, but x^2 mod p is not: False decides nothing
    assert kernel(U((MODULUS, 0, 1))) is False
    # the leading coefficient vanishes mod p
    assert kernel(U((1, 1, MODULUS))) is False
    for f in (U((MODULUS, 0, 1)), U((1, 1, MODULUS))):
        assert poly_gcd(f, f.derivative()) == poly_gcd_euclid(f, f.derivative()) == U((1,))


def test_evaluation_and_derivative():
    f = U((1, -2, 3))  # 3x^2 - 2x + 1
    assert evaluate_poly(f, Fraction(1, 2)) == Fraction(3, 4)
    assert f.derivative() == U((-2, 6))


# ---- resultants ----


def test_resultant_sign_convention():
    # Sylvester with f-rows first: res(x - a, x - b) = a - b
    assert resultant(U((-5, 1)), U((-2, 1))) == 3
    assert resultant(U((-2, 1)), U((-5, 1))) == -3


def test_resultant_shared_root_vanishes():
    f = from_roots([1, 2, 3])
    g = from_roots([3, 7])
    assert resultant(f, g) == 0
    assert poly_gcd(f, g).degree == 1


def test_resultant_against_root_expansion_oracle():
    rng = random.Random(7)
    for _ in range(40):
        roots_f = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        roots_g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
        lead_f, lead_g = rng.choice([1, 2, -3]), rng.choice([1, -2, 5])
        oracle = lead_f ** len(roots_g) * lead_g ** len(roots_f)
        for a in roots_f:
            for b in roots_g:
                oracle *= a - b
        got = resultant(from_roots(roots_f, lead_f), from_roots(roots_g, lead_g))
        assert got == oracle


def test_degree_4_by_6_resultant_oracle():
    rng = random.Random(41)
    for _ in range(10):
        roots_f = [rng.randint(-3, 3) for _ in range(4)]
        roots_g = [rng.randint(-3, 3) for _ in range(6)]
        oracle = 1
        for a in roots_f:
            for b in roots_g:
                oracle *= a - b
        assert resultant(from_roots(roots_f), from_roots(roots_g)) == oracle


def test_resultant_constant_inputs():
    assert resultant(U((3,)), U((1, 1, 1))) == 9
    assert resultant(U((1, 2)), U((5,))) == 5
    with pytest.raises(PolynomialError):
        resultant(U(()), U((1,)))


def test_sylvester_shape():
    rows = sylvester_matrix(U((1, 2, 3)), U((4, 5)))
    assert len(rows) == 3 and all(len(r) == 3 for r in rows)


# ---- bivariate layer ----


def test_bipoly_shear_preserves_zero_sets():
    rng = random.Random(13)
    for _ in range(20):
        p = rand_bipoly(rng, 3, 3)
        a = rng.randint(-3, 3)
        x0, y0 = rng.randint(-4, 4), rng.randint(-4, 4)
        # shear substitutes x -> x + a y, so evaluate accordingly
        assert evaluate_bipoly(p.shear(a), x0, y0) == evaluate_bipoly(p, x0 + a * y0, y0)


def test_bipoly_gcd_with_planted_factor():
    rng = random.Random(29)
    for _ in range(20):
        h = rand_bipoly(rng, 2, 1)
        f = h * rand_bipoly(rng, 1, 2)
        g = h * rand_bipoly(rng, 2, 1)
        d = bipoly_gcd(f, g)
        terms_exact_div(f.terms, term_map(d))  # raises unless the gcd divides both
        terms_exact_div(g.terms, term_map(d))
        # the planted factor divides the gcd
        assert bipoly_gcd(d, h).total_degree() == h.total_degree()


def test_res_y_matches_prs():
    rng = random.Random(37)
    for _ in range(30):
        p = rand_bipoly(rng, 2, rng.randint(1, 4))
        q = rand_bipoly(rng, 2, rng.randint(1, 4))
        assert res_y(p, q) == res_y_prs(p, q)


def test_res_y_detects_common_factor():
    h = X + Y
    p = h * (X * X + Y)
    q = h * (Y + ONE)
    assert res_y(p, q).is_zero()
    assert res_y_prs(p, q).is_zero()


def test_subresultant_specialization_gcd_degree():
    # at a specialization x = x0 with constant leading coefficients, the gcd
    # degree is the least k whose principal subresultant coefficient survives
    rng = random.Random(43)
    for _ in range(15):
        common = BiPoly({(0, 1): 1, (1, 0): rng.randint(-3, 3), (0, 0): rng.randint(-3, 3)})
        p = common * rand_bipoly(rng, 1, 2) + BiPoly({(0, 4): 1})
        q = common * rand_bipoly(rng, 1, 1) + BiPoly({(0, 3): 1})
        if p.deg_y() < q.deg_y():
            p, q = q, p
        chain = subresultant_chain_y(p, q)
        for x0 in (0, 1, -2):
            pu = U(tuple(evaluate_poly(U(c), x0) for c in p.y_coeffs))
            qu = U(tuple(evaluate_poly(U(c), x0) for c in q.y_coeffs))
            gcd_degree = poly_gcd(pu, qu).degree
            least = next(
                (
                    k
                    for k in range(len(chain))
                    if len(chain[k].y_coeffs) > k and evaluate_poly(chain[k].y_coeff(k), x0) != 0
                ),
                q.deg_y(),
            )
            assert gcd_degree == least


def test_subresultant_y_reads_the_chain_and_checks_its_range():
    p = Y * Y * Y + X * Y + ONE
    q = Y * Y - X
    chain = subresultant_chain_y(p, q)
    assert [subresultant_y(p, q, k) for k in range(2)] == chain
    for k in (-1, 2):  # the chain holds S_0 and S_1 only
        with pytest.raises(PolynomialError):
            subresultant_y(p, q, k)
    with pytest.raises(PolynomialError):
        subresultant_y(q, p, 0)  # deg_y(p) < deg_y(q)
    with pytest.raises(PolynomialError):
        subresultant_y(p, X + ONE, 0)  # deg_y(q) = 0 leaves no subresultant


# ---- the common-zero decision ----


def test_common_zero_trivial_families():
    assert common_affine_zero([]) is True
    assert common_affine_zero([BiPoly.zero()]) is True
    assert common_affine_zero([ONE]) is False
    assert common_affine_zero([X * X + Y]) is True


def test_common_zero_two_polynomials():
    assert common_affine_zero([lin(1, 0, 0), lin(1, 0, -1)]) is False  # parallel lines
    assert common_affine_zero([lin(1, 0, 0), lin(0, 1, 0)]) is True  # axes meet
    hyperbola = X * Y - ONE
    assert common_affine_zero([hyperbola, X]) is False  # asymptote
    assert common_affine_zero([hyperbola, lin(1, -1, 0)]) is True
    # complex-only intersection still counts
    circle = X * X + Y * Y + ONE
    assert common_affine_zero([circle, X]) is True  # x = 0, y^2 = -1


def test_common_zero_three_polynomials():
    planted = [lin(1, 1, -5), lin(1, -1, 1), lin(2, 1, -7)]  # all through (2, 3)
    assert common_affine_zero(planted) is True
    pairwise_only = [X * (Y - ONE), Y * (X - ONE), lin(1, -1, -5)]
    assert common_affine_zero(pairwise_only) is False
    through_origin = [X * (X + Y), Y, X * (Y - ONE - ONE)]
    assert common_affine_zero(through_origin) is True
    line_excluded = [X * (X + Y - ONE), ONE + X * X, X * (Y - ONE)]
    assert common_affine_zero(line_excluded) is False
    # the first two share the factor x: outside the precondition, refused
    for shared in ([X * (X + Y), X * (Y - ONE - ONE), Y], [X * (X + Y - ONE), X * (Y - ONE), ONE + X * X]):
        with pytest.raises(PolynomialError, match="share a factor"):
            common_affine_zero(shared)


def test_common_zero_refuses_a_first_pair_with_a_common_factor():
    """The first two nonzero inputs must be coprime: a planted common factor is refused, whatever else is listed."""
    rng = random.Random(31)
    for planted in [X + ONE, X * Y - ONE] + [rand_bipoly(rng, 1, 1) for _ in range(10)]:
        p, q = planted * rand_bipoly(rng, 1, 2), planted * rand_bipoly(rng, 2, 1)
        for polys in ([p, q], [BiPoly.zero(), q, p], [p, q, lin(1, 1, 1)]):
            with pytest.raises(PolynomialError, match="share a factor"):
                common_affine_zero(polys)


def test_common_zero_skips_an_x_value_whose_gcd_degree_is_higher():
    # At x = 0, p and q share y^2 - 1: the principal coefficients of S_0 and
    # S_1 vanish there, S_1 vanishes identically, and so does its resultant
    # with any r.  Only the gcd-degree-2 branch may count x = 0.
    c = BiPoly.constant
    p = (Y * Y - ONE) * (Y - c(2)) + X * (Y - c(3))
    q = (Y * Y - ONE) * (Y - c(3)) - X.scale(3)
    assert common_affine_zero([p, q]) is True
    assert common_affine_zero([p, q, Y - ONE]) is True  # (0, 1)
    # y = -6 puts p's zero at x = -280/9 and q's at x = -105
    assert common_affine_zero([p, q, Y + c(6)]) is False


def test_common_zero_planted_random_points():
    rng = random.Random(53)
    for _ in range(20):
        x0, y0 = rng.randint(-4, 4), rng.randint(-4, 4)
        polys = []
        for _ in range(3):
            base = rand_bipoly(rng, 2, 2)
            value = evaluate_bipoly(base, x0, y0)
            polys.append(base - BiPoly.constant(value))
        first, second = [p for p in polys if not p.is_zero()][:2]
        if coprime_bipolys(first, second):
            assert common_affine_zero(polys) is True
        else:
            with pytest.raises(PolynomialError, match="share a factor"):
                common_affine_zero(polys)


def test_common_zero_tangential_contact():
    # parabola and its tangent line at the origin, plus a curve through it
    parabola = Y - X * X
    tangent = Y
    through = X * X + Y * Y - X * Y
    assert common_affine_zero([parabola, tangent, through]) is True
    missed = X * X + Y * Y - X * Y + ONE
    assert common_affine_zero([parabola, tangent, missed]) is False
