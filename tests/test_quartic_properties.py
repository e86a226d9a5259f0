"""Property tests: plane-curve smoothness against the three-chart oracle, and the form parser.

``is_smooth`` eliminates on the chart z = 1 and decides the line at
infinity with a univariate gcd; the oracle eliminates on all three
affine charts.  Forms are drawn sparse (mostly singular), as a Fermat
curve plus a few terms (mostly smooth), as products (always singular),
and as A(x, y)^2 L + z^2 C, singular wherever A vanishes on z = 0; each
may be moved by a unimodular change of coordinates.  Both certificates
give the same answer on a form and on its rational multiples.
"""

import random
import time
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from oracles import is_smooth_three_charts  # noqa: E402
from xiaofib import quartic  # noqa: E402
from xiaofib.quartic import (  # noqa: E402
    MAX_FORM_DEGREE,
    FormParseError,
    TernaryForm,
    flexes_all_simple,
    is_smooth,
    parse_ternary_form,
    random_unimodular,
)

coefficients = st.integers(-3, 3).filter(bool)


@st.composite
def sparse_forms(draw, degree, max_terms=5, variables=3):
    """A nonzero form of the given degree in the first ``variables`` of x, y, z."""
    monomials = [
        (i, j, degree - i - j)
        for i in range(degree + 1)
        for j in range(degree + 1 - i)
        if variables == 3 or degree - i - j == 0
    ]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=max_terms, unique=True))
    return TernaryForm(degree, {key: draw(coefficients) for key in chosen})


def z_power(e: int) -> TernaryForm:
    return TernaryForm(e, {(0, 0, e): 1})


@st.composite
def plane_curves(draw):
    degree = draw(st.integers(2, MAX_FORM_DEGREE))
    kind = draw(st.sampled_from(["sparse", "near Fermat", "product", "singular at infinity"]))
    if kind == "sparse":
        form = draw(sparse_forms(degree))
    elif kind == "near Fermat":
        fermat = TernaryForm(degree, {(degree, 0, 0): 1, (0, degree, 0): 1, (0, 0, degree): 1})
        form = fermat + draw(sparse_forms(degree, 3))
    elif kind == "product":
        a = draw(st.integers(1, degree - 1))
        form = draw(sparse_forms(a, 3)) * draw(sparse_forms(degree - a, 3))
    else:
        a = draw(st.integers(1, degree // 2))
        square = draw(sparse_forms(a, 3, variables=2))
        form = square * square * draw(sparse_forms(degree - 2 * a, 3))
        form = form + z_power(2) * draw(sparse_forms(degree - 2, 3))
    operations = draw(st.integers(0, 3))
    if operations:
        form = form.compose(random_unimodular(random.Random(draw(st.integers(0, 2**16))), operations))
    assume(not form.is_zero())
    return form


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(plane_curves())
@example(parse_ternary_form("x*y^2 + z^3"))
@example(parse_ternary_form("x^4 - 4*x^2*y^2 + 4*y^4 + x*z^3"))
@example(parse_ternary_form("x^2*z^2 + y^2*z^2 + z^4"))
@example(parse_ternary_form("x^6 + y^6 + z^6"))
# non-reduced: F_x and F_y share the squared factor
@example(parse_ternary_form("x + 2*y - z") * parse_ternary_form("x + 2*y - z") * parse_ternary_form("x^2 + y^2 + z^2"))
@example(parse_ternary_form("x^2 + y*z") * parse_ternary_form("x^2 + y*z") * parse_ternary_form("x - y + 3*z"))
# in two variables: one partial is zero, and in the second F_x and F_y share x*y
@example(parse_ternary_form("x^3*y - x*y^3"))
@example(parse_ternary_form("x^3*y^2 + x^2*y^3"))
@example(parse_ternary_form("y^3*z + y*z^3"))
@example(parse_ternary_form("x^3*z + x*z^3"))
def test_is_smooth_matches_the_three_chart_oracle(form):
    assert is_smooth(form) is is_smooth_three_charts(form)


# ---- rational multiples: TernaryForm.primitive is where a form becomes integer ----

QUARTIC_MONOMIALS = [(i, j, 4 - i - j) for i in range(5) for j in range(5 - i)]
quartics = st.lists(
    st.integers(-9, 9), min_size=len(QUARTIC_MONOMIALS), max_size=len(QUARTIC_MONOMIALS)
).map(lambda cs: TernaryForm(4, dict(zip(QUARTIC_MONOMIALS, cs)))).filter(lambda f: not f.is_zero())
rationals = st.builds(Fraction, st.integers(-60, 60).filter(bool), st.integers(1, 60))


def flex_outcome(form: TernaryForm, seed: int):
    """The flex certificate, or the error it raises, and the coordinate changes it drew."""
    with mock.patch.object(quartic, "random_unimodular", wraps=random_unimodular) as drawn:
        try:
            outcome = flexes_all_simple(form, seed)
        except quartic.DegenerateFormError as error:
            outcome = str(error)
    return outcome, drawn.call_count


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(quartics, rationals, st.integers(1, 2**31))
@example(parse_ternary_form(quartic.KLEIN_QUARTIC), Fraction(3, 2), 1)
@example(parse_ternary_form(quartic.FERMAT_QUARTIC), Fraction(-1, 2), 5)
def test_certificates_ignore_a_rational_scalar(form, c, seed):
    scaled = form.scale(c)
    assert scaled.primitive() == form.primitive().scale(1 if c > 0 else -1)
    assert all(type(v) is int for v in scaled.primitive().coefficients.values())
    assert is_smooth(scaled) is is_smooth(form)
    assert flex_outcome(scaled, seed) == flex_outcome(form, seed)


# ---- parse_ternary_form fuzz: a form within the degree limit or a parse error, within a second ----

numerals = st.one_of(
    st.integers(0, 12).map(str),
    st.integers(0, 10**12).map(str),
    st.integers(4290, 4310).map(lambda k: "9" * k),  # around the interpreter's conversion limit
)
coefficient_texts = st.one_of(numerals, st.builds("{}/{}".format, numerals, numerals))


@st.composite
def exponent_triples(draw):
    """Exponents of x, y and z that sum to 5-8, around the degree limit."""
    total = draw(st.integers(5, 8))
    i = draw(st.integers(0, total))
    j = draw(st.integers(0, total - i))
    return i, j, total - i - j


term_texts = st.builds(
    lambda c, e: f"{c}*x^{e[0]}*y^{e[1]}*z^{e[2]}", coefficient_texts, exponent_triples()
)
form_texts = st.one_of(
    st.text(alphabet=" xyz0123456789^*/+-", max_size=40),
    st.lists(term_texts, min_size=1, max_size=4).map(" + ".join),
    st.builds(lambda c, v, e: f"{c}*{v}^{e}", coefficient_texts, st.sampled_from("xyz"), numerals),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(form_texts)
@example("x^" + "9" * 4300)
@example("9" * 4301 + "*x^4")
@example("x^3*y^3 + z^6")
@example("x^4*y^3 + z^7")
@example("0*x^0*y^0*z^5 + 1*x^0*y^0*z^6")
def test_parse_ternary_form_returns_a_bounded_form_or_a_parse_error(text):
    start = time.perf_counter()
    try:
        form = parse_ternary_form(text)
    except FormParseError:
        pass
    else:
        assert isinstance(form, TernaryForm)
        assert 1 <= form.degree <= MAX_FORM_DEGREE
        assert not form.is_zero()
    assert time.perf_counter() - start < 1.0
