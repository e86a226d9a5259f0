"""Exact certificates for plane curves: smoothness, simple flexes, classical counts.

A ternary form is a homogeneous polynomial in (x, y, z) with exact
rational coefficients, as parsed and printed.  ``TernaryForm.primitive``
is where a form becomes integer: both certificates first scale the form
to its primitive integer multiple, which changes neither answer, and
hand only ``int`` coefficients to the integer kernel in ``polynomials``.
Smoothness is decided on the partial derivatives by bivariate
elimination on the chart z = 1 and by a univariate gcd on the line at
infinity; the flex certificate eliminates one variable from the curve
and its Hessian after a seeded random unimodular change of coordinates
and tests the degree-24 eliminant, the entry S_0 of one subresultant
chain, for repeated roots by one gcd with its derivative; ``poly_gcd``
certifies coprimality modulo the prime 2^31 - 1 before it runs the
exact integer remainder sequence.  Integer input is
parsed to ``int`` coefficients, so ``fractions`` is imported only when
the input holds a ``/``.
"""

from __future__ import annotations

import random
import re
from collections import namedtuple
from math import gcd, lcm

from .errors import InputError
from .polynomials import (
    BiPoly,
    PolynomialError,
    UnivariatePoly,
    common_affine_zero,
    poly_gcd,
    squarefree_part,
    subresultant_chain_y,
)

FLEX_RETRY_BUDGET = 32

# Highest form degree the parser and ``is_smooth`` accept.  A smooth
# dense form, where the modular test in ``poly_gcd`` decides every
# coprimality, takes about 0.005 s at degree 6, 0.012 s at degree 7 and
# 0.03 s at degree 8 with coefficients up to +-3, and 0.02 s at degree 6
# with 12-digit ones (the corpus's ``dense_sextic(5)``).  A singular form
# runs the exact remainder sequences: the corpus's ``singular_sextic(1, k)``,
# a product of two dense cubics with k-digit coefficients, takes 0.1 s at
# k = 1, 0.6 s at k = 3 and 2.2-2.4 s at k = 6 (Python 3.11 on a shared
# 2-core Linux machine).
MAX_FORM_DEGREE = 6

# The type of a coefficient, as text: ``typing.get_type_hints`` imports ``fractions`` to resolve
# it, as rational input does, and integer input never does.
Coefficient = 'int | __import__("fractions").Fraction'


class FormParseError(InputError, ValueError):
    """Polynomial text that does not match the input grammar."""

    prefix = "parse error"

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegenerateFormError(InputError, ValueError):
    """A form whose requested certificate is undefined or out of budget.

    Zero Hessian, singular input, or a degree above ``MAX_FORM_DEGREE``.
    """


class RetryBudgetError(InputError, RuntimeError):
    """No usable coordinate change found within the retry budget."""


class TernaryForm:
    """Homogeneous polynomial in (x, y, z) with exact rational coefficients.

    Coefficients map exponent triples (i, j, k) with i + j + k = degree
    to nonzero rationals, stored as ``int`` when integral.  Arithmetic
    may produce the zero form internally; the parser rejects it.
    """

    __slots__ = ("degree", "coefficients")

    def __init__(self, degree: int, coefficients: dict[tuple[int, int, int], Coefficient]):
        cleaned = {}
        for key, value in coefficients.items():
            i, j, k = key
            if i < 0 or j < 0 or k < 0 or i + j + k != degree:
                raise DegenerateFormError(
                    f"exponents {key} do not sum to the declared degree {degree}"
                )
            if value.__class__ is not int:
                from fractions import Fraction  # only rational input pays for this import

                if not isinstance(value, (int, Fraction)):
                    raise PolynomialError(f"form coefficients must be int or Fraction, got {value!r}")
                if value.denominator == 1:
                    value = value.numerator
            if value:
                cleaned[(i, j, k)] = value
        self.degree = degree
        self.coefficients = cleaned

    def is_zero(self) -> bool:
        return not self.coefficients

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TernaryForm)
            and self.degree == other.degree
            and self.coefficients == other.coefficients
        )

    def __add__(self, other: "TernaryForm") -> "TernaryForm":
        if self.degree != other.degree:
            raise DegenerateFormError("adding forms of different degrees")
        terms = dict(self.coefficients)
        for key, c in other.coefficients.items():
            terms[key] = terms.get(key, 0) + c
        return TernaryForm(self.degree, terms)

    def __sub__(self, other: "TernaryForm") -> "TernaryForm":
        return self + other.scale(-1)

    def __mul__(self, other: "TernaryForm") -> "TernaryForm":
        terms: dict[tuple[int, int, int], Coefficient] = {}
        for (a, b, c), u in self.coefficients.items():
            for (d, e, f), v in other.coefficients.items():
                key = (a + d, b + e, c + f)
                terms[key] = terms.get(key, 0) + u * v
        return TernaryForm(self.degree + other.degree, terms)

    def scale(self, c) -> "TernaryForm":
        return TernaryForm(self.degree, {k: v * c for k, v in self.coefficients.items()})

    def primitive(self) -> "TernaryForm":
        """The positive multiple with coprime ``int`` coefficients: the same curve."""
        values = self.coefficients.values()
        common = lcm(*(c.denominator for c in values))
        numerators = [c.numerator * (common // c.denominator) for c in values]
        content = gcd(*numerators) or 1
        return TernaryForm(
            self.degree, {key: n // content for key, n in zip(self.coefficients, numerators)}
        )

    def partial(self, var: int) -> "TernaryForm":
        """Partial derivative with respect to variable 0, 1 or 2; may be zero."""
        terms = {}
        for key, c in self.coefficients.items():
            e = key[var]
            if e == 0:
                continue
            new_key = tuple(v - 1 if idx == var else v for idx, v in enumerate(key))
            terms[new_key] = c * e
        return TernaryForm(max(self.degree - 1, 0), terms)

    def compose(self, matrix: list[list[int]]) -> "TernaryForm":
        """The form (F o M)(v) = F(M v) for an integer 3x3 matrix M."""
        linear = [TernaryForm(1, {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}) for a, b, c in matrix]
        terms: dict[tuple[int, int, int], Coefficient] = {}
        for exponents, c in self.coefficients.items():
            image = TernaryForm(0, {(0, 0, 0): c})
            for form, e in zip(linear, exponents):
                for _ in range(e):
                    image = image * form
            for key, v in image.coefficients.items():
                terms[key] = terms.get(key, 0) + v
        return TernaryForm(self.degree, terms)

    def chart(self, var: int) -> BiPoly:
        """Dehomogenize an integer form by setting one variable to 1, keeping the other two in order."""
        x, y = (v for v in range(3) if v != var)
        rows = [[0] * (self.degree + 1) for _ in range(self.degree + 1)]  # rows[j][i]: x^i y^j
        for key, c in self.coefficients.items():
            rows[key[y]][key[x]] = c
        return BiPoly([UnivariatePoly(tuple(row)) for row in rows])

    def __str__(self) -> str:
        parts = []
        for key in sorted(self.coefficients, reverse=True):
            c = self.coefficients[key]
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip("xyz", key)
                if e > 0
            )
            mag = str(abs(c)) if (abs(c) != 1 or not mono) else ""
            core = mag + ("*" if mag and mono else "") + mono
            parts.append(("- " if c < 0 else ("+ " if parts else "")) + core)
        return " ".join(parts)


_TOKEN_RE = re.compile(
    r"(?P<space>\s+)|(?P<num>\d+(?:\s*/\s*\d+)?)|(?P<var>[xyz])"
    r"|(?P<pow>\^)|(?P<mul>\*)|(?P<plus>\+)|(?P<minus>-)"
)


def _numeral(text: str, position: int) -> Coefficient:
    """Exact value of a ``num`` token: an ``int`` unless it holds a ``/``."""
    try:
        if "/" not in text:
            return int(text)
        from fractions import Fraction  # only rational input pays for this import

        return Fraction("".join(text.split()))  # the token allows any whitespace around "/"
    except ZeroDivisionError:
        raise FormParseError("zero denominator", position) from None
    except ValueError:  # more digits than the interpreter converts
        raise FormParseError("number has too many digits", position) from None


def parse_ternary_form(text: str) -> TernaryForm:
    """Parse the input grammar: terms ``c*x^i*y^j*z^k`` joined by ``+``/``-``.

    Rational or integer coefficients, ``*`` and ``^1`` optional,
    variables fixed as x, y, z.  The result must be homogeneous,
    nonzero and of degree at most ``MAX_FORM_DEGREE``.
    """
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise FormParseError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "space":
            tokens.append((match.lastgroup, match.group(), pos))
        pos = match.end()
    if not tokens:
        raise FormParseError("empty polynomial", 0)

    terms: dict[tuple[int, int, int], Coefficient] = {}
    idx = 0
    var_index = {"x": 0, "y": 1, "z": 2}

    while idx < len(tokens):
        sign = 1
        saw_sign = False
        while idx < len(tokens) and tokens[idx][0] in ("plus", "minus"):
            if tokens[idx][0] == "minus":
                sign = -sign
            if saw_sign:
                raise FormParseError("repeated sign", tokens[idx][2])
            saw_sign = True
            idx += 1
        if idx >= len(tokens):
            raise FormParseError("dangling sign at end of input", tokens[-1][2])
        coeff = sign
        exponents = [0, 0, 0]
        saw_factor = False
        while idx < len(tokens) and tokens[idx][0] in ("num", "var", "mul"):
            kind, value, token_pos = tokens[idx]
            if kind == "mul":
                if not saw_factor:
                    raise FormParseError("'*' with nothing to its left", token_pos)
                idx += 1
                if idx >= len(tokens) or tokens[idx][0] not in ("num", "var"):
                    raise FormParseError("'*' with nothing to its right", token_pos)
                continue
            if kind == "num":
                coeff *= _numeral(value, token_pos)
                idx += 1
            else:
                var = var_index[value]
                exponent = 1
                idx += 1
                if idx < len(tokens) and tokens[idx][0] == "pow":
                    caret_pos = tokens[idx][2]
                    idx += 1
                    if idx >= len(tokens) or tokens[idx][0] != "num" or "/" in tokens[idx][1]:
                        raise FormParseError("'^' must be followed by an integer", caret_pos)
                    exponent = _numeral(tokens[idx][1], tokens[idx][2])
                    idx += 1
                exponents[var] += exponent
            saw_factor = True
        if not saw_factor:
            raise FormParseError("expected a term", tokens[idx][2] if idx < len(tokens) else len(text))
        key = tuple(exponents)
        terms[key] = terms.get(key, 0) + coeff

    terms = {key: c for key, c in terms.items() if c != 0}  # "0*z^5 + z^6" has degree 6
    degrees = {sum(key) for key in terms}
    if len(degrees) > 1:
        raise FormParseError(f"non-homogeneous input: term degrees {sorted(degrees)}", 0)
    if not degrees:
        raise FormParseError("all terms cancel: the zero form is not allowed", 0)
    degree = degrees.pop()
    if degree < 1:
        raise FormParseError("a positive-degree form is required", 0)
    if degree > MAX_FORM_DEGREE:
        raise FormParseError(f"form degree {degree} exceeds the limit {MAX_FORM_DEGREE}", 0)
    return TernaryForm(degree, terms)


def hessian(form: TernaryForm) -> TernaryForm:
    """Determinant of the matrix of second partials; degree 3(d - 2)."""
    if form.degree < 3:
        raise DegenerateFormError("hessian certificate needs degree at least 3")
    h = [[form.partial(a).partial(b) for b in range(3)] for a in range(3)]
    det = (
        h[0][0] * (h[1][1] * h[2][2] - h[1][2] * h[2][1])
        - h[0][1] * (h[1][0] * h[2][2] - h[1][2] * h[2][0])
        + h[0][2] * (h[1][0] * h[2][1] - h[1][1] * h[2][0])
    )
    if det.is_zero():
        raise DegenerateFormError("identically zero hessian: degenerate form")
    return det


def is_smooth(form: TernaryForm) -> bool:
    """Whether the projective plane curve cut out by the form is smooth.

    True iff the three partial derivatives have no common projective
    zero, decided on the primitive integer multiple of the form: on the
    chart z = 1 by the exact bivariate common-zero procedure, and on the
    line at infinity z = 0, whose points are (x : 1 : 0) and (1 : 0 : 0),
    by the partials restricted to it.  They meet at some (x : 1 : 0)
    exactly when the polynomials F_i(x, 1, 0) all vanish or have a
    nonconstant gcd, and at (1 : 0 : 0) exactly when each partial's
    x^(d-1) coefficient is zero.
    """
    if form.degree < 2:
        raise DegenerateFormError("smoothness certificate needs degree at least 2")
    if form.degree > MAX_FORM_DEGREE:
        raise DegenerateFormError(
            f"form degree {form.degree} exceeds the smoothness limit {MAX_FORM_DEGREE}"
        )
    form = form.primitive()
    partials = [form.partial(v) for v in range(3)]
    top = form.degree - 1
    if all((top, 0, 0) not in p.coefficients for p in partials):
        return False  # singular at (1 : 0 : 0)
    on_line = UnivariatePoly.zero()  # the gcd of the F_i(x, 1, 0)
    for p in partials:
        restricted = [p.coefficients.get((i, top - i, 0), 0) for i in range(top + 1)]
        on_line = poly_gcd(on_line, UnivariatePoly(tuple(restricted)))
    if on_line.degree != 0:
        return False  # singular at some (x : 1 : 0), or along the whole line
    # common_affine_zero needs its first two nonzero inputs coprime, and here they are.  F_x = 0
    # makes F a form in y and z, singular at (1 : 0 : 0), and F_y = 0 one in x and z, singular at
    # (0 : 1 : 0): both returned above, so the pair is F_x, F_y.  On a factor H they share, Euler's
    # relation d F = x F_x + y F_y + z F_z gives d F = z F_z, and dF = F_z dz along H; so
    # (d - 1) F_z dz = z dF_z there, F_z is a constant times z^(d-1) on H, and every point where H
    # meets z = 0 is singular, and returned above.
    return not common_affine_zero([p.chart(2) for p in partials])


PluckerCounts = namedtuple("PluckerCounts", "flexes bitangents")


def plucker_counts(d: int) -> PluckerCounts:
    """Flex and bitangent counts of a smooth plane curve of degree d."""
    if d < 3:
        raise ValueError("counts are for curves of degree at least 3")
    flexes = 3 * d * (d - 2)
    bitangents = d * (d - 2) * (d - 3) * (d + 3) // 2
    return PluckerCounts(flexes, bitangents)


FlexCertificate = namedtuple("FlexCertificate", "all_simple flex_degree")


def random_unimodular(rng: random.Random, operations: int = 12) -> list[list[int]]:
    """Small random integer matrix of determinant +-1, built from shears and swaps."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(operations):
        kind = rng.randrange(5)
        i, j = rng.sample(range(3), 2)
        if kind == 0:
            m[i], m[j] = m[j], m[i]
        else:
            s = rng.choice((1, -1, 2, -2))
            m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    return m


def flexes_all_simple(form: TernaryForm, seed: int) -> FlexCertificate:
    """Decide whether all flexes of a smooth quartic are simple.

    A seeded unimodular coordinate change puts the curve and its Hessian
    in generic position, where both have full degree in z.  One
    subresultant chain in z of the two, computed once per coordinate
    change, gives both the eliminant S_0, a degree-24 polynomial whose
    roots are the projected flexes, and the first principal subresultant
    coefficient, the z coefficient of S_1.  A squarefree eliminant
    certifies that all flexes are simple.  A repeated root is a hyperflex
    exactly when a single intersection point sits above it, that is when
    the first principal coefficient does not vanish there; repeated
    roots carrying two distinct points are projection collisions, so the
    coordinate change is rejected and retried, as are changes with
    extraneous or deficient eliminant degree.

    Two cheap steps come first.  A change is skipped before composing
    when its projection centre M (0:0:1), the third column of M, lies on
    a side of the coordinate triangle, or when the line that the chart
    y = 1 puts at infinity, through M (1:0:0) and M (0:0:1), passes
    through a vertex.  Sparse forms have flexes there: Klein's quartic
    has one at each vertex, so such changes collide or lose degree.  A
    skipped change never yields an answer, so skipping is sound.  No
    answer depends on which change decided it, nor on whether
    ``poly_gcd`` decided coprimality modulo its prime or by the exact
    remainder sequence.
    """
    if form.degree != 4:
        raise DegenerateFormError("the flex certificate is for quartics")
    form = form.primitive()
    if not is_smooth(form):
        raise DegenerateFormError("the flex certificate needs a smooth quartic")
    hess = hessian(form)
    rng = random.Random(seed)
    for _ in range(FLEX_RETRY_BUDGET):
        matrix = random_unimodular(rng)
        (a0, c0), (a1, c1), (a2, c2) = ((row[0], row[2]) for row in matrix)
        if not (c0 and c1 and c2 and a1 * c2 - a2 * c1 and a2 * c0 - a0 * c2 and a0 * c1 - a1 * c0):
            continue  # centre on a side, or the line y = 0 through a vertex, of the coordinate triangle
        moved_form = form.compose(matrix)
        moved_hess = hess.compose(matrix)
        if (0, 0, 4) not in moved_form.coefficients or (0, 0, 6) not in moved_hess.coefficients:
            continue
        chain = subresultant_chain_y(moved_hess.chart(1), moved_form.chart(1))
        eliminant = chain[0].y_coeff(0)
        if eliminant.degree != 24:
            continue
        repeated = poly_gcd(eliminant, eliminant.derivative())
        if repeated.degree == 0:
            return FlexCertificate(True, 24)
        lonely = squarefree_part(repeated)
        lonely = lonely.exact_div(poly_gcd(lonely, chain[1].y_coeff(1)))
        if lonely.degree >= 1:
            return FlexCertificate(False, 24)
        # every repeated root carries two distinct points: projection artifact
    raise RetryBudgetError(
        f"no usable coordinate change in {FLEX_RETRY_BUDGET} attempts (seed {seed})"
    )


KLEIN_QUARTIC = "x^3*y + y^3*z + z^3*x"
FERMAT_QUARTIC = "x^4 + y^4 + z^4"
