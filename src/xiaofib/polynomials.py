"""Exact polynomial arithmetic over the integers: gcds, resultants, subresultants.

Every coefficient is an ``int``: the constructors refuse anything else,
``bool``, ``float`` and ``Fraction`` included, so a rational input is
scaled to an integer one before it gets here.  Gcds are primitive
integer polynomials with positive leading coefficient; by Gauss's lemma a
primitive divisor leaves an integer quotient, so each division they make
is an exact integer division.  All arithmetic runs on bare ascending
tuples of ``int`` with no trailing zero, one kernel per operation
(``_mul``, ``_sub``, ``_pow``, ``_exact_div``, ``_primitive``);
``UnivariatePoly`` is the type the functions take and return.  A
primitive remainder sequence over Z gives univariate gcds only.  A
bivariate polynomial in (x, y) has y as the main variable and is stored
as ``BiPoly.y_coeffs``, the tuple of its coefficients of 1, y, y^2, ...
in Z[x], each such an int tuple, with no trailing zero row, the zero
polynomial being ``()``; one subresultant remainder sequence in y runs on
those rows as given, with no content taken, and gives the whole
determinantal subresultant chain of two of them.  Everything in y is
read off that chain: the resultant is its entry S_0, its first nonzero
entry is a gcd over Q(x), and two polynomials with constant leading
y-coefficients are coprime exactly when S_0 is nonzero.  On top sits an
exact decision for whether up to three bivariate polynomials, the first
two of them coprime, share a complex zero, which backs the smoothness
certificate for plane curves.  One test is modular and one-way:
``poly_gcd`` first runs Euclid modulo the prime 2^31 - 1, and only a
coprime answer there is a certificate; otherwise the exact remainder
sequence decides.
"""

from __future__ import annotations

from itertools import zip_longest
from math import comb, gcd

from .record import Record


class PolynomialError(ValueError):
    """Invalid polynomial input for an exact operation."""


def _strip(coeffs: list) -> list:
    """Drop trailing zeros, of ints or of rows alike, in place; returns the list."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _ints(coeffs) -> tuple[int, ...]:
    """The coefficients as an ascending tuple with no trailing zero; raises unless each is an ``int``."""
    cs = list(coeffs)
    for c in cs:
        if type(c) is not int:
            raise PolynomialError(f"polynomial coefficients must be int, got {c!r}")
    return tuple(_strip(cs))


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b, i):
                out[j] += u * v
    return tuple(out)


def _sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a - b; ``_sub((), b)`` is -b."""
    return tuple(_strip([u - v for u, v in zip_longest(a, b, fillvalue=0)]))


def _pow(a: tuple[int, ...], k: int) -> tuple[int, ...]:
    """a^k for k >= 0, by k products: every exponent the chain takes is small."""
    result = (1,)
    for _ in range(k):
        result = _mul(result, a)
    return result


def _exact_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The quotient in Z[x]; raises unless b divides a there."""
    if not b:
        raise PolynomialError("polynomial division by zero")
    rem = list(a)
    d = len(b) - 1
    lead = b[-1]
    quotient = [0] * max(len(rem) - d, 0)
    for shift in range(len(rem) - 1 - d, -1, -1):
        factor, left = divmod(rem[shift + d], lead)
        if left:
            raise PolynomialError("division expected to be exact left a fraction")
        if factor:
            quotient[shift] = factor
            for i in range(d):
                rem[shift + i] -= factor * b[i]
    if any(rem[:d]):
        raise PolynomialError("division expected to be exact left a remainder")
    return tuple(quotient)


def _primitive(a: tuple[int, ...]) -> tuple[int, ...]:
    """The associate with coprime coefficients and positive leading coefficient; () for zero."""
    if not a:
        return a
    content = gcd(*a)
    if a[-1] < 0:
        content = -content
    return a if content == 1 else tuple(c // content for c in a)


class UnivariatePoly(Record):
    """Dense univariate polynomial over Z, coefficients ascending.

    The zero polynomial is the empty coefficient tuple; any nonzero
    polynomial has a nonzero leading coefficient.  This is the type the
    module's functions take and return; inside, they compute on bare
    coefficient tuples.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", _ints(coeffs))

    @classmethod
    def zero(cls) -> "UnivariatePoly":
        return cls(())

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def derivative(self) -> "UnivariatePoly":
        return UnivariatePoly(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def exact_div(self, other: "UnivariatePoly") -> "UnivariatePoly":
        """The quotient in Z[x]; raises unless other divides self there."""
        return UnivariatePoly(_exact_div(self.coeffs, other.coeffs))

    def primitive(self) -> "UnivariatePoly":
        """The associate with coprime coefficients and positive leading coefficient."""
        return UnivariatePoly(_primitive(self.coeffs))


def _pseudo_rem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """A nonzero integer multiple of the remainder of a by b, for integer coefficients.

    Each elimination step scales by the cofactors of gcd(lc(r), lc(b))
    only, which keeps the coefficients smaller than a full
    pseudo-remainder.
    """
    r = list(a)
    d = len(b) - 1
    lead = b[-1]
    for shift in range(len(r) - 1 - d, -1, -1):
        top = r.pop()
        if not top:
            continue
        g = gcd(top, lead)
        s, t = lead // g, top // g
        if s != 1:
            r = [s * c for c in r]
        for i in range(d):
            r[shift + i] -= t * b[i]
    return tuple(_strip(r))


MODULUS = 2**31 - 1  # a prime


def _coprime_mod_p(f: UnivariatePoly, g: UnivariatePoly) -> bool:
    """Whether f mod ``MODULUS`` keeps its degree and Euclid over GF(p) on f, g ends in a nonzero constant.

    True certifies gcd(f, g) = 1: a common factor h of positive degree
    has lc(h) | lc(f), so h mod p keeps its degree and divides both
    reductions.  False decides nothing.
    """
    p = MODULUS
    a = [c % p for c in f.coeffs]
    if not a or not a[-1]:
        return False
    b = [c % p for c in g.coeffs]
    while True:  # Euclid over GF(p): a, b = b, a mod b
        while b and not b[-1]:
            b.pop()
        if not b:
            return len(a) == 1
        inverse = pow(b[-1], -1, p)
        d = len(b) - 1
        while len(a) > d:
            q = a.pop() * inverse % p
            shift = len(a) - d
            for i in range(d):
                a[shift + i] = (a[shift + i] - q * b[i]) % p
        a, b = b, a


def poly_gcd(f: UnivariatePoly, g: UnivariatePoly) -> UnivariatePoly:
    """The primitive gcd with positive leading coefficient; gcd(0, 0) = 0.

    1 when ``_coprime_mod_p(f, g)`` certifies it, before any content is
    taken.  Otherwise a primitive remainder sequence over Z on the
    primitive associates of f and g: every remainder is divided by its
    integer content.
    """
    if _coprime_mod_p(f, g):
        return UnivariatePoly((1,))
    a, b = _primitive(f.coeffs), _primitive(g.coeffs)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return UnivariatePoly(a)


def squarefree_part(f: UnivariatePoly) -> UnivariatePoly:
    """f divided by gcd(f, f'): primitive, with positive leading coefficient."""
    if f.is_zero():
        return f
    f = f.primitive()
    return f.exact_div(poly_gcd(f, f.derivative()))


class BiPoly(Record):
    """Polynomial in (x, y) over Z with y as the main variable.

    ``y_coeffs`` holds the coefficients of 1, y, y^2, ... as polynomials
    in x, each an ascending tuple of ``int`` with no trailing zero, the
    form the subresultant chain computes in, with no trailing zero row:
    the zero polynomial is ``()``.
    """

    __slots__ = ("y_coeffs",)

    def __init__(self, y_coeffs: tuple[tuple[int, ...], ...]):
        self._set(y_coeffs=tuple(_strip([_ints(row) for row in y_coeffs])))

    def is_zero(self) -> bool:
        return not self.y_coeffs

    def total_degree(self) -> int:
        """Total degree, -1 for zero."""
        return max((j + len(c) - 1 for j, c in enumerate(self.y_coeffs)), default=-1)

    def deg_y(self) -> int:
        return len(self.y_coeffs) - 1

    def y_coeff(self, k: int) -> UnivariatePoly:
        """The coefficient of y^k as a polynomial in x."""
        return UnivariatePoly(self.y_coeffs[k] if 0 <= k < len(self.y_coeffs) else ())

    def top_form_at(self, a: int) -> int:
        """The top-degree homogeneous part evaluated at (a, 1)."""
        d = self.total_degree()
        return sum(c[d - j] * a ** (d - j) for j, c in enumerate(self.y_coeffs) if d - j < len(c))

    def shear(self, a: int) -> "BiPoly":
        """Substitute x -> x + a*y; common zeros correspond bijectively."""
        d = self.total_degree()
        rows = [[0] * (d + 1) for _ in range(d + 1)]  # rows[j][i]: the coefficient of x^i y^j
        for j, row in enumerate(self.y_coeffs):
            for i, c in enumerate(row):
                for t in range(i + 1):  # (x + a y)^i expanded by binomials
                    rows[j + t][i - t] += c * comb(i, t) * a**t
        return BiPoly(rows)


def _content_y(coeffs: tuple[tuple[int, ...], ...]) -> UnivariatePoly:
    """Content in Z[x] of the polynomial in y with these coefficients.

    Dividing every coefficient by it leaves a primitive polynomial in
    Z[x][y]: the integer gcd of all coefficients times the primitive gcd
    of the y-coefficients.
    """
    content = UnivariatePoly.zero()
    for c in coeffs:
        content = poly_gcd(content, UnivariatePoly(c))
        if content.degree == 0:
            break
    return UnivariatePoly(_mul(content.coeffs, (gcd(*(v for c in coeffs for v in c)),)))


def _pseudo_rem_y(a: list[tuple[int, ...]], b: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Pseudo-remainder in y of two lists of rows: lc(b)^(deg a - deg b + 1) * a modulo b."""
    if not b:
        raise PolynomialError("pseudo-division by zero")
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    e = len(r) - db
    while len(r) > db:
        lr = r.pop()
        shift = len(r) - db
        r = [_mul(lb, c) for c in r]
        for i in range(db):
            r[shift + i] = _sub(r[shift + i], _mul(lr, b[i]))
        _strip(r)
        e -= 1
    if e > 0:
        factor = _pow(lb, e)
        r = [_mul(factor, c) for c in r]
    return r


def subresultant_chain_y(p: BiPoly, q: BiPoly) -> list[BiPoly]:
    """The determinantal subresultants S_k(p, q) in y for k = 0, ..., deg_y(q) - 1.

    S_k has y-degree at most k, its y^k coefficient is the k-th principal
    subresultant coefficient, and S_0 is the resultant.  Requires
    deg_y(p) >= deg_y(q) >= 1.

    One subresultant remainder sequence gives the whole chain (Brown &
    Traub 1971): the remainder after a divisor of degree d is S_(d-1),
    its degree e < d - 1 makes the entries strictly between vanish, and
    the regular S_e is S_(d-1) scaled by (lc S_(d-1) / s_d)^(d-1-e)
    (Lazard; Ducos 2000), s_d being the y^d coefficient of S_d.  Each
    division the sequence makes is exact in Z[x] whether or not p and q
    are primitive, so it runs on them as given and takes no content.
    """
    a, b = p.y_coeffs, q.y_coeffs
    m, n = len(a) - 1, len(b) - 1
    if m < n or n < 1:
        raise PolynomialError("subresultants need deg_y(p) >= deg_y(q) >= 1")
    chain: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    s = _pow(b[-1], m - n)  # y^n coefficient of S_n = lc(q)^(m-n-1) q
    r = _pseudo_rem_y(a, b)
    if (m - n) % 2 == 0:
        r = [_sub((), c) for c in r]  # S_(n-1) = (-1)^(m-n+1) prem(p, q)
    d = n
    while r:
        e = len(r) - 1
        chain[d - 1] = r
        if e < d - 1:
            lift, drop = _pow(r[-1], d - 1 - e), _pow(s, d - 1 - e)
            chain[e] = [_exact_div(_mul(c, lift), drop) for c in r]
        if e == 0:
            break
        beta = _mul(_sub((), b[-1]), _pow(_sub((), s), d - e))  # -lc(b) (-s)^(d-e)
        b, r = r, [_exact_div(c, beta) for c in _pseudo_rem_y(b, r)]
        s, d = chain[e][-1], e
    return [BiPoly(entry) for entry in chain]


def subresultant_y(p: BiPoly, q: BiPoly, k: int) -> BiPoly:
    """The k-th entry of ``subresultant_chain_y(p, q)``, 0 <= k < deg_y(q)."""
    chain = subresultant_chain_y(p, q)
    if not 0 <= k < len(chain):
        raise PolynomialError(f"subresultant index {k} out of range 0..{len(chain) - 1}")
    return chain[k]


def bipoly_gcd(p: BiPoly, q: BiPoly) -> BiPoly:
    """The primitive gcd of p and q in Z[x, y]; a zero input gives the other one.

    Read off the subresultant chain, the one remainder sequence in y:
    the primitive content gcd in Z[x] times the primitive part of the
    chain's first nonzero entry S_d, a gcd over Q(x) of degree d by the
    fundamental theorem of subresultants, or of the input of lower
    y-degree when every entry vanishes.  The result's sign makes the
    coefficient of the highest power of y, then of x, positive.
    """
    if p.is_zero() or q.is_zero():
        coeffs = (q if p.is_zero() else p).y_coeffs
    else:
        content = poly_gcd(_content_y(p.y_coeffs), _content_y(q.y_coeffs)).coeffs
        if p.deg_y() < q.deg_y():
            p, q = q, p
        chain = subresultant_chain_y(p, q) if q.deg_y() >= 1 else []
        coeffs = next((s for s in chain if not s.is_zero()), q).y_coeffs
        cont_g = _content_y(coeffs).coeffs
        coeffs = [_mul(_exact_div(c, cont_g), content) for c in coeffs]
    if coeffs and coeffs[-1][-1] < 0:
        coeffs = [_sub((), c) for c in coeffs]
    return BiPoly(coeffs)


def res_y_prs(p: BiPoly, q: BiPoly) -> UnivariatePoly:
    """Resultant of p and q with respect to y, equal to the Sylvester determinant.

    S_0 of the subresultant chain once the larger y-degree comes first;
    a constant in y is raised to the other polynomial's y-degree.
    """
    if p.is_zero() or q.is_zero():
        raise PolynomialError("resultant needs two nonzero polynomials")
    sign = 1
    if p.deg_y() < q.deg_y():
        sign = -1 if p.deg_y() * q.deg_y() % 2 else 1
        p, q = q, p
    if q.deg_y() == 0:
        result = _pow(q.y_coeffs[0], p.deg_y())
    else:
        result = subresultant_chain_y(p, q)[0].y_coeff(0).coeffs
    return UnivariatePoly(_mul((sign,), result))


def common_affine_zero(polys: list[BiPoly]) -> bool:
    """Whether the listed bivariate polynomials share a complex affine zero.

    Exact decision for at most three polynomials, of which the first two
    nonzero ones must be coprime: they share no nonconstant factor.  Zero
    polynomials impose nothing, a nonzero constant makes the answer no and
    a single nonconstant polynomial always has zeros.  Otherwise the
    variables are sheared so every leading y-coefficient is a nonzero
    constant; then no factor lies in Z[x] alone, so the first pair's
    resultant S_0 vanishes exactly when the pair shares a factor, which
    the precondition excludes and this refuses.  Two coprime polynomials
    meet exactly when S_0 has a root; a third is decided by
    ``_coprime_pair_meets``.
    """
    ps = [p for p in polys if not p.is_zero()]
    if len(ps) > 3:
        raise PolynomialError("common-zero decision implemented for at most three polynomials")
    if not ps:
        return True
    if any(p.total_degree() == 0 for p in ps):
        return False
    if len(ps) == 1:
        return True
    a = 0
    while not all(p.top_form_at(a) != 0 for p in ps):
        a = -a if a > 0 else -a + 1
    p, q, *rest = (p.shear(a) for p in ps)
    if p.deg_y() < q.deg_y():
        p, q = q, p
    chain = subresultant_chain_y(p, q)
    resultant = chain[0].y_coeff(0)
    if resultant.is_zero():
        raise PolynomialError("the first two polynomials of a common-zero decision share a factor")
    if not rest:
        return resultant.degree >= 1
    return _coprime_pair_meets(chain + [q], rest[0])


def _coprime_pair_meets(entries: list[BiPoly], r: BiPoly) -> bool:
    """Common zero of coprime p, q together with r, all with constant leading y-coefficients.

    ``entries`` is ``subresultant_chain_y(p, q)`` followed by q as S_n,
    n = deg_y(q) <= deg_y(p), and the resultant S_0 is nonzero.  Branches
    on the gcd degree j of p and q at a specialization: S_j is the gcd
    wherever the lower principal coefficients vanish and the j-th does
    not (that of S_n is a nonzero constant), so a common zero with r over
    some x-value is witnessed by a common root of the vanishing locus
    polynomials.
    """
    principal = [entry.y_coeff(k) for k, entry in enumerate(entries)]
    roots = squarefree_part(principal[0])
    for j in range(1, len(entries)):
        if principal[j].is_zero():
            continue  # this gcd degree never occurs
        u = roots
        for t in range(1, j):
            if u.degree == 0:
                break
            u = poly_gcd(u, principal[t])
        if u.degree >= 1:
            u = poly_gcd(u, res_y_prs(entries[j], r))
            if u.exact_div(poly_gcd(u, principal[j])).degree >= 1:
                return True
    return False
