"""Property tests: the integer polynomial kernels against independent oracles.

Inputs have ``int`` coefficients.  Results must equal the oracle's and
hold only ``int`` coefficients.  The oracles compute gcds over Fraction
and return the primitive associate of the monic gcd, so a gcd and a
squarefree part compare exactly.
"""

from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from oracles import (  # noqa: E402
    BiPoly,
    bipoly_gcd_prs,
    coprime_bipolys,
    is_squarefree,
    poly_gcd_euclid,
    primitive_associate,
    res_y,
    ring_exact_div,
    ring_mul,
    ring_pow,
    ring_primitive,
    ring_sub,
    squarefree_part_euclid,
    subresultant_det,
    term_map,
    terms_exact_div,
    terms_shear,
    terms_top_form_at,
    terms_total_degree,
    times,
    trim,
)
from xiaofib.polynomials import (  # noqa: E402
    MODULUS,
    PolynomialError,
    UnivariatePoly,
    _coprime_mod_p,
    _exact_div,
    _mul,
    _pow,
    _primitive,
    _sub,
    bipoly_gcd,
    poly_gcd,
    res_y_prs,
    squarefree_part,
    subresultant_chain_y,
)

U = UnivariatePoly
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coefficients = st.integers(-30, 30)
univariate = st.lists(coefficients, max_size=6).map(lambda cs: U(tuple(cs)))
nonconstant = univariate.filter(lambda f: f.degree >= 1)
bivariate = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 3)), coefficients, max_size=6
).map(BiPoly)
nonzero_bivariate = bivariate.filter(lambda p: not p.is_zero())
small_bivariate = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), coefficients, max_size=5
).map(BiPoly)
with_zero_and_constants = st.one_of(st.just(BiPoly.zero()), coefficients.map(BiPoly.constant), bivariate)


def in_powers_of_y(poly: BiPoly, step: int) -> BiPoly:
    """poly with y replaced by y^step."""
    return BiPoly({(i, j * step): c for (i, j), c in poly.terms.items()})


# Generic pairs have a regular chain.  A planted common factor of positive
# y-degree makes the low entries vanish.  Polynomials in y^2 or y^3 have
# remainders whose y-degrees skip, so the chain has defective entries.
chain_inputs = st.one_of(
    st.tuples(st.just("generic"), nonzero_bivariate, nonzero_bivariate),
    st.builds(
        lambda h, u, v: ("common factor", h * u, h * v),
        nonzero_bivariate.filter(lambda h: h.deg_y() >= 1), small_bivariate, small_bivariate,
    ),
    st.builds(
        lambda step, u, v: ("gapped", in_powers_of_y(u, step), in_powers_of_y(v, step)),
        st.integers(2, 3), small_bivariate, small_bivariate,
    ),
)


def assert_exact(values) -> None:
    for c in values:
        assert type(c) is int, repr(c)


# The kernels' inputs as the module keeps them, ascending int tuples without trailing zeros:
# zero, nonzero constants, and polynomials whose leading coefficient has either sign.
kernel_input = st.one_of(
    st.just(()), coefficients.filter(bool).map(lambda c: (c,)), st.lists(coefficients, max_size=6).map(trim)
)


@PROPERTY
@given(kernel_input, kernel_input, st.integers(0, 3))
@example((), (), 0)
@example((-4,), (6, 0, -2), 2)
@example((2, 4, -6), (-1, 2), 3)
def test_kernels_match_the_oracle_ring_functions(a, b, k):
    assert _mul(a, b) == ring_mul(a, b)
    assert _sub(a, b) == ring_sub(a, b)
    assert _sub((), b) == ring_sub((), b)
    assert _pow(a, k) == ring_pow(a, k)
    assert _primitive(a) == ring_primitive(a)
    for result in (_mul(a, b), _sub(a, b), _pow(a, k), _primitive(a)):
        assert_exact(result)
    if not b:
        with pytest.raises(PolynomialError):
            _exact_div(a, b)
        return
    assert _exact_div(ring_mul(a, b), b) == a
    try:
        expected = ring_exact_div(a, b)
    except PolynomialError:
        with pytest.raises(PolynomialError):
            _exact_div(a, b)
    else:
        assert _exact_div(a, b) == expected


@PROPERTY
@given(univariate, univariate, univariate)
def test_poly_gcd_matches_euclid_over_fractions(common, f, g):
    f, g = times(common, f), times(common, g)
    got = poly_gcd(f, g)
    assert got == poly_gcd_euclid(f, g)
    assert_exact(got.coeffs)


@PROPERTY
@given(univariate, univariate)
def test_squarefree_part_and_test_match_the_oracle(f, square):
    f = times(f, square, square)
    part = squarefree_part(f)
    assert part == squarefree_part_euclid(f)
    assert_exact(part.coeffs)
    assert is_squarefree(f) is (not f.is_zero() and poly_gcd_euclid(f, f.derivative()).degree == 0)


@PROPERTY
@given(nonconstant, univariate)
def test_planted_square_is_never_squarefree(h, k):
    e = times(h, h, k)
    assert not is_squarefree(e)
    assert not _coprime_mod_p(e, e.derivative())


# Coefficients around the modulus and its multiples reduce to small residues,
# so reductions that drop the degree or plant a square mod p come up often.
near_modulus = st.builds(
    lambda k, r: k * MODULUS + r, st.integers(-2, 2), st.integers(-3, 3)
) | st.integers(-(2**70), 2**70)
wide_univariate = st.lists(near_modulus | coefficients, max_size=7).map(lambda cs: U(tuple(cs)))


@PROPERTY
@given(wide_univariate, wide_univariate, wide_univariate)
def test_coprime_mod_p_certifies_only_coprime_pairs(f, g, h):
    """True from the kernel is a proof, planted factor or not; ``poly_gcd`` matches the oracle either way."""
    for a, b in ((f, g), (times(f, h), times(g, h))):
        if _coprime_mod_p(a, b):
            assert poly_gcd_euclid(a, b).degree == 0
    got = poly_gcd(times(f, h), times(g, h))
    assert got == poly_gcd_euclid(times(f, h), times(g, h))
    assert_exact(got.coeffs)


@PROPERTY
@given(wide_univariate, wide_univariate)
def test_coprime_mod_p_on_a_derivative_certifies_only_squarefree_polynomials(f, square):
    for g in (f, times(f, square, square), U(ring_sub(f.coeffs, ring_mul(square.coeffs, (MODULUS,))))):
        if _coprime_mod_p(g, g.derivative()):
            assert poly_gcd_euclid(g, g.derivative()).degree == 0


@PROPERTY
@given(wide_univariate, st.integers(-3, 3).filter(bool))
def test_coprime_mod_p_refuses_a_leading_coefficient_divisible_by_p(f, k):
    g = U(f.coeffs[:-1] + (k * MODULUS,))
    assert not _coprime_mod_p(g, g.derivative())
    assert not _coprime_mod_p(g, U((1,)))


@PROPERTY
@given(with_zero_and_constants, st.integers(-3, 3))
def test_operations_on_y_coefficients_match_the_term_map_oracle(p, a):
    terms = p.terms
    assert p.total_degree() == terms_total_degree(terms)
    assert p.top_form_at(a) == terms_top_form_at(terms, a)
    assert term_map(p.shear(a)) == terms_shear(terms, a)


@PROPERTY
@given(nonzero_bivariate, nonzero_bivariate)
def test_res_y_prs_matches_the_sylvester_determinant(p, q):
    got = res_y_prs(p, q)
    assert got == res_y(p, q)
    assert_exact(got.coeffs)


@PROPERTY
@given(chain_inputs)
def test_subresultant_chain_matches_the_determinants(case):
    kind, p, q = case
    if p.deg_y() < q.deg_y():
        p, q = q, p
    assume(q.deg_y() >= 1)
    chain = subresultant_chain_y(p, q)
    assert [BiPoly.of(entry) for entry in chain] == [subresultant_det(p, q, k) for k in range(q.deg_y())]
    for entry in chain:
        assert_exact(term_map(entry).values())
    if kind == "common factor":
        assert chain[0].is_zero()
    if kind == "gapped":  # S_(n-1) is a polynomial in y^2 or y^3 of degree below n
        assert chain[-1].is_zero() or chain[-1].deg_y() < len(chain) - 1


@PROPERTY
@given(nonzero_bivariate, nonzero_bivariate, nonzero_bivariate)
def test_bipoly_gcd_divides_both_with_coprime_cofactors(h, u, v):
    p, q = h * u, h * v
    d = bipoly_gcd(p, q)
    assert_exact(term_map(d).values())
    assert coprime_bipolys(*(BiPoly(terms_exact_div(f.terms, term_map(d))) for f in (p, q)))
    content = gcd(*h.terms.values())
    terms_exact_div(term_map(d), {k: c // content for k, c in h.terms.items()})  # so h divides d over Q


in_x_only = st.dictionaries(
    st.tuples(st.integers(0, 3), st.just(0)), coefficients, max_size=4
).map(BiPoly)
gcd_inputs = st.one_of(
    st.tuples(bivariate, bivariate),
    st.builds(lambda h, u, v: (h * u, h * v), nonzero_bivariate, small_bivariate, small_bivariate),
    st.tuples(in_x_only, bivariate),
    st.tuples(bivariate, in_x_only),
    st.tuples(st.just(BiPoly.zero()), bivariate),
)


@PROPERTY
@given(gcd_inputs)
def test_bipoly_gcd_matches_the_primitive_remainder_sequence(pair):
    p, q = pair
    got = bipoly_gcd(p, q)
    expected = bipoly_gcd_prs(p, q)
    assert BiPoly.of(got) in (expected, -expected)
    terms = term_map(got)
    assert_exact(terms.values())
    if terms:
        assert terms[max(terms, key=lambda k: (k[1], k[0]))] > 0


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(univariate, univariate, nonzero_bivariate, nonzero_bivariate, nonzero_bivariate)
def test_kernels_match_sympy(f, g, h, u, v):
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")

    def uni(poly):
        return sum((sympy.Integer(c) * x**i for i, c in enumerate(poly.coeffs)), sympy.Integer(0))

    def bi(poly):
        return sum((sympy.Integer(c) * x**i * y**j for (i, j), c in term_map(poly).items()), sympy.Integer(0))

    f, g = times(f, g), times(g, g)
    expected = sympy.Poly(sympy.gcd(uni(f), uni(g)), x, domain="QQ")
    expected = expected.monic() if not expected.is_zero else expected
    monic = [Fraction(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())]
    assert poly_gcd(f, g) == primitive_associate(monic)
    p, q = h * u, h * v
    assert sympy.expand(uni(res_y_prs(p, q)) - sympy.resultant(bi(p), bi(q), y)) == 0
    ratio = sympy.cancel(bi(bipoly_gcd(p, q)) / sympy.gcd(bi(p), bi(q)))
    assert ratio.is_Rational and ratio != 0
