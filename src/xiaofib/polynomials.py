"""Exact polynomial arithmetic over the integers: gcds, resultants, subresultants.

Every coefficient is an ``int``: the constructors refuse anything else,
``bool``, ``float`` and ``Fraction`` included, so a rational input is
scaled to an integer one before it gets here.  Gcds are primitive
integer polynomials with positive leading coefficient; by Gauss's lemma a
primitive divisor leaves an integer quotient, so each division they make
is an exact integer division.  A primitive remainder sequence over Z
gives univariate gcds only.  A bivariate polynomial in (x, y) has y as
the main variable and is stored as ``BiPoly.y_coeffs``, the tuple of its
coefficients of 1, y, y^2, ... in Z[x] with no trailing zero, the zero
polynomial being ``()``; one subresultant remainder sequence in y runs on
those tuples as given, with no content taken, and gives the whole
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

from math import comb, gcd

from .record import Record


class PolynomialError(ValueError):
    """Invalid polynomial input for an exact operation."""


class UnivariatePoly(Record):
    """Dense univariate polynomial over Z, coefficients ascending.

    The zero polynomial is the empty coefficient tuple; any nonzero
    polynomial has a nonzero leading coefficient.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int:
                raise PolynomialError(f"polynomial coefficients must be int, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "UnivariatePoly":
        return cls(())

    @classmethod
    def one(cls) -> "UnivariatePoly":
        return cls((1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __sub__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePoly(tuple(self.coeff(i) - other.coeff(i) for i in range(n)))

    def __neg__(self) -> "UnivariatePoly":
        return UnivariatePoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        if self.is_zero() or other.is_zero():
            return UnivariatePoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs, i):
                    out[j] += a * b
        return UnivariatePoly(tuple(out))

    def scale(self, c: int) -> "UnivariatePoly":
        return UnivariatePoly(tuple(a * c for a in self.coeffs))

    def __pow__(self, k: int) -> "UnivariatePoly":
        if k < 0:
            raise PolynomialError("negative polynomial power")
        result = UnivariatePoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def derivative(self) -> "UnivariatePoly":
        return UnivariatePoly(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def exact_div(self, other: "UnivariatePoly") -> "UnivariatePoly":
        """The quotient in Z[x]; raises unless other divides self there."""
        if other.is_zero():
            raise PolynomialError("polynomial division by zero")
        rem = list(self.coeffs)
        divisor = other.coeffs
        d = len(divisor) - 1
        lead = divisor[-1]
        quotient = [0] * max(len(rem) - d, 0)
        for shift in range(len(rem) - 1 - d, -1, -1):
            factor, left = divmod(rem[shift + d], lead)
            if left:
                raise PolynomialError("division expected to be exact left a fraction")
            if factor:
                quotient[shift] = factor
                for i in range(d):
                    rem[shift + i] -= factor * divisor[i]
        if any(rem[:d]):
            raise PolynomialError("division expected to be exact left a remainder")
        return UnivariatePoly(tuple(quotient))

    def primitive(self) -> "UnivariatePoly":
        """The associate with coprime coefficients and positive leading coefficient."""
        if self.is_zero():
            return self
        content = gcd(*self.coeffs)
        if self.coeffs[-1] < 0:
            content = -content
        if content == 1:
            return self
        return UnivariatePoly(tuple(c // content for c in self.coeffs))


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
    while r and not r[-1]:
        r.pop()
    return tuple(r)


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
        return UnivariatePoly.one()
    a, b = f.primitive(), g.primitive()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        a, b = b, UnivariatePoly(_pseudo_rem(a.coeffs, b.coeffs)).primitive()
    return a


def squarefree_part(f: UnivariatePoly) -> UnivariatePoly:
    """f divided by gcd(f, f'): primitive, with positive leading coefficient."""
    if f.is_zero():
        return f
    f = f.primitive()
    return f.exact_div(poly_gcd(f, f.derivative()))


class BiPoly(Record):
    """Polynomial in (x, y) over Z with y as the main variable.

    ``y_coeffs`` holds the coefficients of 1, y, y^2, ... as polynomials
    in x, the form the subresultant chain computes in, with no trailing
    zero polynomial: the zero polynomial is ``()``.
    """

    __slots__ = ("y_coeffs",)

    def __init__(self, y_coeffs: tuple[UnivariatePoly, ...]):
        self._set(y_coeffs=tuple(_strip(list(y_coeffs))))

    def is_zero(self) -> bool:
        return not self.y_coeffs

    def total_degree(self) -> int:
        """Total degree, -1 for zero."""
        return max((j + c.degree for j, c in enumerate(self.y_coeffs)), default=-1)

    def deg_y(self) -> int:
        return len(self.y_coeffs) - 1

    def y_coeff(self, k: int) -> UnivariatePoly:
        """The coefficient of y^k as a polynomial in x."""
        return self.y_coeffs[k] if 0 <= k < len(self.y_coeffs) else UnivariatePoly.zero()

    def top_form_at(self, a: int) -> int:
        """The top-degree homogeneous part evaluated at (a, 1)."""
        d = self.total_degree()
        return sum(c.coeff(d - j) * a ** (d - j) for j, c in enumerate(self.y_coeffs))

    def shear(self, a: int) -> "BiPoly":
        """Substitute x -> x + a*y; common zeros correspond bijectively."""
        d = self.total_degree()
        rows = [[0] * (d + 1) for _ in range(d + 1)]  # rows[j][i]: the coefficient of x^i y^j
        for j, poly in enumerate(self.y_coeffs):
            for i, c in enumerate(poly.coeffs):
                for t in range(i + 1):  # (x + a y)^i expanded by binomials
                    rows[j + t][i - t] += c * comb(i, t) * a**t
        return BiPoly([UnivariatePoly(tuple(row)) for row in rows])


def _strip(coeffs: list[UnivariatePoly]) -> list[UnivariatePoly]:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _content_y(coeffs: list[UnivariatePoly]) -> UnivariatePoly:
    """Content in Z[x] of the polynomial in y with these coefficients.

    Dividing every coefficient by it leaves a primitive polynomial in
    Z[x][y]: the integer gcd of all coefficients times the primitive gcd
    of the y-coefficients.
    """
    content = UnivariatePoly.zero()
    for c in coeffs:
        content = poly_gcd(content, c)
        if content.degree == 0:
            break
    return content.scale(gcd(*(v for c in coeffs for v in c.coeffs)))


def _pseudo_rem_y(a: list[UnivariatePoly], b: list[UnivariatePoly]) -> list[UnivariatePoly]:
    """Pseudo-remainder in y: lc(b)^(deg a - deg b + 1) * a modulo b."""
    r = _strip(list(a))
    b = _strip(list(b))
    if not b:
        raise PolynomialError("pseudo-division by zero")
    db = len(b) - 1
    lb = b[-1]
    e = len(r) - 1 - db + 1
    while r and len(r) - 1 >= db:
        lr = r[-1]
        shift = len(r) - 1 - db
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] = r[shift + i] - lr * bc
        r = _strip(r)
        e -= 1
    if e > 0:
        factor = lb**e
        r = [factor * c for c in r]
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
    chain: list[list[UnivariatePoly]] = [[] for _ in range(n)]
    s = b[-1] ** (m - n)  # y^n coefficient of S_n = lc(q)^(m-n-1) q
    r = _pseudo_rem_y(a, b)
    if (m - n) % 2 == 0:
        r = [-c for c in r]  # S_(n-1) = (-1)^(m-n+1) prem(p, q)
    d = n
    while r:
        e = len(r) - 1
        chain[d - 1] = r
        if e < d - 1:
            lift, drop = r[-1] ** (d - 1 - e), s ** (d - 1 - e)
            chain[e] = [(c * lift).exact_div(drop) for c in r]
        if e == 0:
            break
        beta = -(b[-1] * (-s) ** (d - e))
        b, r = r, [c.exact_div(beta) for c in _pseudo_rem_y(b, r)]
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
        content = poly_gcd(_content_y(p.y_coeffs), _content_y(q.y_coeffs))
        if p.deg_y() < q.deg_y():
            p, q = q, p
        chain = subresultant_chain_y(p, q) if q.deg_y() >= 1 else []
        coeffs = next((s for s in chain if not s.is_zero()), q).y_coeffs
        cont_g = _content_y(coeffs)
        coeffs = [c.exact_div(cont_g) * content for c in coeffs]
    if coeffs and coeffs[-1].coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
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
        result = q.y_coeff(0) ** p.deg_y()
    else:
        result = subresultant_chain_y(p, q)[0].y_coeff(0)
    return result if sign == 1 else -result


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
