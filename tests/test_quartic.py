import random
from fractions import Fraction

import pytest

from oracles import evaluate_form
from xiaofib import polynomials, quartic
from xiaofib.polynomials import common_affine_zero
from xiaofib.quartic import (
    FERMAT_QUARTIC,
    KLEIN_QUARTIC,
    MAX_FORM_DEGREE,
    DegenerateFormError,
    FormParseError,
    TernaryForm,
    flexes_all_simple,
    hessian,
    is_smooth,
    parse_ternary_form,
    plucker_counts,
    random_unimodular,
)


def det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def random_quartic(rng):
    terms = {}
    for i in range(5):
        for j in range(5 - i):
            if rng.random() < 0.6:
                terms[(i, j, 4 - i - j)] = Fraction(rng.randint(-9, 9))
    terms[(4, 0, 0)] = Fraction(rng.choice([1, 2, 3, -2]))
    return TernaryForm(4, terms)


# ---- parsing ----


def test_parse_standard_forms():
    klein = parse_ternary_form(KLEIN_QUARTIC)
    assert klein.degree == 4
    assert klein.coefficients == {
        (3, 1, 0): Fraction(1),
        (0, 3, 1): Fraction(1),
        (1, 0, 3): Fraction(1),
    }
    fermat = parse_ternary_form("x^4+y^4+z^4")
    assert len(fermat.coefficients) == 3


def test_parse_grammar_flexibility():
    form = parse_ternary_form("3/2*x^2*y^2 - z^4 + x^4")
    assert form.coefficients[(2, 2, 0)] == Fraction(3, 2)
    assert form.coefficients[(0, 0, 4)] == Fraction(-1)
    assert parse_ternary_form("3\t/\n2*x^2*y^2 - z^4 + x^4") == form  # any whitespace around "/"
    assert parse_ternary_form("2 x y z^2").coefficients == {(1, 1, 2): Fraction(2)}
    assert parse_ternary_form("x^1*y^1*z^2") == parse_ternary_form("x y z^2")
    assert parse_ternary_form("-x^4 + 2*x^4").coefficients == {(4, 0, 0): Fraction(1)}
    # a term with coefficient zero does not count towards homogeneity
    assert parse_ternary_form("0*z^5 + z^6").coefficients == {(0, 0, 6): Fraction(1)}
    # repeated variables multiply
    assert parse_ternary_form("x*x*y*y").coefficients == {(2, 2, 0): Fraction(1)}


def test_parse_errors_have_positions():
    with pytest.raises(FormParseError) as info:
        parse_ternary_form("x^4 + w")
    assert info.value.position == 6
    with pytest.raises(FormParseError):
        parse_ternary_form("x + y^2")  # non-homogeneous
    with pytest.raises(FormParseError):
        parse_ternary_form("x^4 - x^4")  # zero form
    with pytest.raises(FormParseError):
        parse_ternary_form("")
    with pytest.raises(FormParseError):
        parse_ternary_form("x^")
    with pytest.raises(FormParseError):
        parse_ternary_form("x^4 +")
    with pytest.raises(FormParseError):
        parse_ternary_form("* x^4")
    with pytest.raises(FormParseError):
        parse_ternary_form("x^1/2")
    with pytest.raises(FormParseError, match="zero denominator") as info:
        parse_ternary_form("x^4 + 3/0*y^4")
    assert info.value.position == 6
    # longer than the interpreter converts to int: a parse error, not a ValueError
    for text in ("x^" + "9" * 5000, "9" * 5000 + "*x^4"):
        with pytest.raises(FormParseError, match="too many digits"):
            parse_ternary_form(text)


def test_form_degree_limit():
    assert MAX_FORM_DEGREE == 6
    assert is_smooth(parse_ternary_form("x^6 + y^6 + z^6")) is True
    for text in ("x^7 + y^7 + z^7", "x^40*y^40 - z^80", "x^200*y^200 - z^400"):
        with pytest.raises(FormParseError, match="exceeds the limit 6"):
            parse_ternary_form(text)
    with pytest.raises(DegenerateFormError, match="exceeds the smoothness limit 6"):
        is_smooth(TernaryForm(7, {(7, 0, 0): 1, (0, 7, 0): 1, (0, 0, 7): 1}))


# ---- hessian ----


def test_hessian_of_fermat():
    fermat = parse_ternary_form(FERMAT_QUARTIC)
    hess = hessian(fermat)
    assert hess.degree == 6
    assert hess.coefficients == {(2, 2, 2): Fraction(1728)}


def test_hessian_degree_and_degenerate():
    rng = random.Random(71)
    hess = hessian(random_quartic(rng))
    assert hess.degree == 6
    with pytest.raises(DegenerateFormError):
        hessian(parse_ternary_form("x^4"))
    with pytest.raises(DegenerateFormError):
        hessian(parse_ternary_form("x^2 + y^2"))  # degree too small
    cubic_hessian = hessian(parse_ternary_form("x^3 + y^3 + z^3"))
    assert cubic_hessian.degree == 3


def test_hessian_covariance():
    rng = random.Random(2024)
    checked = 0
    while checked < 20:
        form = random_quartic(rng)
        matrix = random_unimodular(rng)
        try:
            hess = hessian(form)
        except DegenerateFormError:
            continue
        lhs = hessian(form.compose(matrix))
        rhs = hess.compose(matrix).scale(Fraction(det3(matrix)) ** 2)
        assert lhs == rhs
        checked += 1


# ---- smoothness ----


def test_is_smooth_classical_curves():
    assert is_smooth(parse_ternary_form(FERMAT_QUARTIC)) is True
    assert is_smooth(parse_ternary_form(KLEIN_QUARTIC)) is True
    assert is_smooth(parse_ternary_form("x^2 + y^2 + z^2")) is True


def test_is_smooth_rejects_singular_curves():
    assert is_smooth(parse_ternary_form("x^4")) is False
    assert is_smooth(parse_ternary_form("x^2*y^2")) is False
    # node at (0 : 0 : 1)
    assert is_smooth(parse_ternary_form("x^4 + y^4 - x^2*z^2")) is False
    # cuspidal cubic
    assert is_smooth(parse_ternary_form("y^2*z - x^3")) is False
    with pytest.raises(DegenerateFormError):
        is_smooth(parse_ternary_form("x + y"))


def test_is_smooth_irrational_singularities():
    # smooth cubic times a line: singular exactly where they meet, at points
    # with x/z a cube root of 2, so no rational shortcut applies
    assert is_smooth(parse_ternary_form("y^3*z - x^3*y + 2*y*z^3")) is False
    # double conic: singular along a whole curve
    double_conic = "x^4 + y^4 + z^4 + 2*x^2*y^2 + 2*y^2*z^2 + 2*x^2*z^2"
    assert is_smooth(parse_ternary_form(double_conic)) is False


@pytest.mark.parametrize("text", [
    "x*y^2 + z^3",  # only at (1 : 0 : 0)
    "x^4 - 4*x^2*y^2 + 4*y^4 + x*z^3",  # (x^2 - 2y^2)^2 + x z^3: only at (+-sqrt 2 : 1 : 0)
    "x^2*z^2 + y^2*z^2 + z^4",  # along the whole line z = 0
])
def test_is_smooth_finds_singularities_the_chart_z1_misses(text):
    form = parse_ternary_form(text)
    partials = [form.partial(v) for v in range(3)]
    assert common_affine_zero([p.chart(2) for p in partials]) is False
    assert is_smooth(form) is False


def random_binary_form(rng, degree):
    """A nonzero form in x and y alone, as a ternary form."""
    while True:
        terms = {(i, degree - i, 0): rng.randint(-3, 3) for i in range(degree + 1)}
        form = TernaryForm(degree, terms)
        if not form.is_zero():
            return form


def test_is_smooth_decides_shared_factors_of_f_x_and_f_y_on_the_line_at_infinity(monkeypatch):
    """F = A(x, y)^2 B(x, y) + c z^d, moved by x -> x + a z, y -> y + b z: F_x and F_y share A.

    On a shared factor H of F_x and F_y, Euler's relation makes F_z a
    constant times z^(d-1), so F is singular where H meets z = 0, and
    the line-at-infinity test decides before the chart procedure runs.
    """
    def never(polys):
        raise AssertionError("is_smooth reached common_affine_zero")

    monkeypatch.setattr(quartic, "common_affine_zero", never)
    rng = random.Random(29)
    for d in range(3, 7):
        for _ in range(60):
            a_degree = rng.randint(1, d // 2)
            a_form = random_binary_form(rng, a_degree)
            form = a_form * a_form * random_binary_form(rng, d - 2 * a_degree)
            form = form + TernaryForm(d, {(0, 0, d): rng.choice((-2, -1, 1, 3))})
            form = form.compose([[1, 0, rng.randint(-3, 3)], [0, 1, rng.randint(-3, 3)], [0, 0, 1]])
            fx, fy = (form.partial(v).chart(2) for v in range(2))
            assert polynomials.bipoly_gcd(fx, fy).total_degree() >= 1
            assert is_smooth(form) is False


def random_conic(rng):
    terms = {}
    for i in range(3):
        for j in range(3 - i):
            if rng.random() < 0.8:
                terms[(i, j, 2 - i - j)] = Fraction(rng.randint(-4, 4))
    terms[(2, 0, 0)] = Fraction(rng.choice([1, 2, -1]))
    return TernaryForm(2, terms)


def test_reducible_quartics_are_singular():
    # two plane curves always intersect, so a product of conics is singular
    rng = random.Random(101)
    checked = 0
    while checked < 8:
        product = random_conic(rng) * random_conic(rng)
        if product.is_zero():
            continue
        assert is_smooth(product) is False
        checked += 1


# ---- flexes ----


def test_flex_certificates_stable_across_seeds():
    klein = parse_ternary_form(KLEIN_QUARTIC)
    fermat = parse_ternary_form(FERMAT_QUARTIC)
    for seed in (1, 2):
        assert tuple(flexes_all_simple(klein, seed)) == (True, 24)
        assert tuple(flexes_all_simple(fermat, seed)) == (False, 24)


def test_flex_certificates_agree_without_the_modular_test(monkeypatch):
    """Forcing the exact remainder sequence in every ``poly_gcd`` gives the same certificates."""
    rng = random.Random(29)
    forms = [parse_ternary_form(KLEIN_QUARTIC), parse_ternary_form(FERMAT_QUARTIC)]
    forms += [random_quartic(rng) for _ in range(6)]
    cases = [(form, seed) for form in forms for seed in (1, 2, 77)]

    def outcomes():
        out = [is_smooth(form) for form in forms]
        for form, seed in cases:
            try:
                out.append(tuple(flexes_all_simple(form, seed)))
            except DegenerateFormError as error:
                out.append(str(error))
        return out

    fast = outcomes()
    forced = []
    monkeypatch.setattr(polynomials, "_coprime_mod_p", lambda f, g: forced.append(f) or False)
    assert outcomes() == fast
    assert forced
    assert fast.count((True, 24)) >= 2 and (False, 24) in fast
    assert True in fast[: len(forms)]


def test_klein_certificate_builds_one_chain_and_one_modular_gcd(monkeypatch):
    """After ``is_smooth``, each Klein certificate is one subresultant chain and one ``poly_gcd``.

    The modular test inside ``poly_gcd`` decides it: no integer remainder sequence runs.
    """
    calls = []
    original_smooth = quartic.is_smooth

    def smooth(form):
        answer = original_smooth(form)
        calls.clear()
        return answer

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setattr(quartic, "is_smooth", smooth)
    count(quartic, "subresultant_chain_y")
    count(quartic, "poly_gcd")
    count(polynomials, "_pseudo_rem")
    klein = parse_ternary_form(KLEIN_QUARTIC)
    for seed in range(1, 51):
        assert tuple(flexes_all_simple(klein, seed)) == (True, 24)
        assert calls == ["subresultant_chain_y", "poly_gcd"], seed


def test_klein_smoothness_reads_one_chain_of_the_partials(monkeypatch):
    """The (F_x, F_y) chain decides coprimality and feeds the branches: built once, no bivariate gcd."""
    klein = parse_ternary_form(KLEIN_QUARTIC)
    fx, fy, fz = (klein.partial(v).chart(2) for v in range(3))
    calls = {"bipoly_gcd": [], "subresultant_chain_y": [], "squarefree_part": []}

    def counted(name):
        original = getattr(polynomials, name)

        def wrapper(*args):
            calls[name].append(set(args))
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(polynomials, name, counted(name))
    assert common_affine_zero([fx, fy, fz]) is False
    assert calls["bipoly_gcd"] == []
    shears = [s for s in range(-5, 6) if {fx.shear(s), fy.shear(s)} in calls["subresultant_chain_y"]]
    assert len(shears) == 1
    assert calls["subresultant_chain_y"].count({fx.shear(shears[0]), fy.shear(shears[0])}) == 1
    assert len(calls["squarefree_part"]) == 1


def test_flex_certificate_preconditions():
    with pytest.raises(DegenerateFormError):
        flexes_all_simple(parse_ternary_form("x^3 + y^3 + z^3"), 1)
    with pytest.raises(DegenerateFormError):
        flexes_all_simple(parse_ternary_form("x^4 + y^4 - x^2*z^2"), 1)


# ---- counts and matrices ----


def test_plucker_counts():
    assert tuple(plucker_counts(4)) == (24, 28)
    assert tuple(plucker_counts(3)) == (9, 0)
    assert tuple(plucker_counts(5)) == (45, 120)
    with pytest.raises(ValueError):
        plucker_counts(2)


def test_random_unimodular_determinant():
    rng = random.Random(77)
    for _ in range(50):
        assert det3(random_unimodular(rng)) in (1, -1)


def test_compose_is_substitution():
    """Forms of degree 0-6: random quartics and their sextic Hessians, sparse integer and rational
    forms, and the zero form."""
    rng = random.Random(83)
    quartics = [random_quartic(rng) for _ in range(10)]
    forms = quartics + [hessian(q) for q in quartics] + [TernaryForm(d, {}) for d in (0, 1, 4)]
    for degree in range(1, 7):
        for denominators in ((1,), (1, 2, 3, 7)):
            for _ in range(3):
                terms = {
                    (i, j, degree - i - j): Fraction(rng.randint(-9, 9), rng.choice(denominators))
                    for i in range(degree + 1) for j in range(degree + 1 - i) if rng.random() < 0.5
                }
                forms.append(TernaryForm(degree, terms))
    for form in forms:
        matrix = random_unimodular(rng)
        composed = form.compose(matrix)
        assert composed.degree == form.degree and composed.is_zero() == form.is_zero()
        for _ in range(3):
            x, y, z = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3))
            image = [sum(matrix[i][j] * v for j, v in enumerate((x, y, z))) for i in range(3)]
            assert evaluate_form(composed, x, y, z) == evaluate_form(form, *image)
