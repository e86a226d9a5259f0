"""Independent reference implementations, for tests only.

Each one computes a value the program also computes, by a different
route: Sylvester determinants and their fraction-free Bareiss
elimination instead of remainder sequences, Euclid over Fraction
coefficients instead of integer remainder sequences, and for
permutations, breadth-first closure over all generators and orders by
repeated composition instead of the greedy span and cycle lengths, and
trial division instead of Miller-Rabin for primality.
"""

from fractions import Fraction

from xiaofib.polynomials import BiPoly, PolynomialError, UnivariatePoly


def _fraction_det(matrix: list[list[Fraction]]) -> Fraction:
    n = len(matrix)
    m = [[Fraction(c) for c in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def sylvester_matrix(f: UnivariatePoly, g: UnivariatePoly) -> list[list[Fraction]]:
    """Sylvester matrix with the rows of f first."""
    if f.is_zero() or g.is_zero():
        raise PolynomialError("resultant needs two nonzero polynomials")
    m, n = f.degree, g.degree
    size = m + n
    rows = []
    for shift in range(n):
        row = [Fraction(0)] * size
        for i, c in enumerate(reversed(f.coeffs)):
            row[shift + i] = c
        rows.append(row)
    for shift in range(m):
        row = [Fraction(0)] * size
        for i, c in enumerate(reversed(g.coeffs)):
            row[shift + i] = c
        rows.append(row)
    return rows


def resultant(f: UnivariatePoly, g: UnivariatePoly) -> Fraction:
    """Resultant as the Sylvester determinant (f-rows first)."""
    if f.is_zero() or g.is_zero():
        raise PolynomialError("resultant needs two nonzero polynomials")
    if f.degree == 0 and g.degree == 0:
        return Fraction(1)
    if f.degree == 0:
        return f.leading() ** g.degree
    if g.degree == 0:
        return g.leading() ** f.degree
    return _fraction_det(sylvester_matrix(f, g))


def _poly_matrix_det(matrix: list[list[UnivariatePoly]]) -> UnivariatePoly:
    """Fraction-free Bareiss determinant; every division is exact in Z[x] for integer input."""
    n = len(matrix)
    if n == 0:
        return UnivariatePoly.one()
    m = [row[:] for row in matrix]
    sign = 1
    prev = UnivariatePoly.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot = next((r for r in range(k + 1, n) if not m[r][k].is_zero()), None)
            if pivot is None:
                return UnivariatePoly.zero()
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                numerator = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = numerator.exact_div(prev)
            m[i][k] = UnivariatePoly.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def _poly_coeff(coeffs: list[UnivariatePoly], k: int) -> UnivariatePoly:
    return coeffs[k] if 0 <= k < len(coeffs) else UnivariatePoly.zero()


def subresultant_det(p: BiPoly, q: BiPoly, k: int) -> BiPoly:
    """The k-th determinantal subresultant of p and q in y, 0 <= k < deg_y(q) <= deg_y(p).

    The rows y^(n-k-1) p, ..., p, y^(m-k-1) q, ..., q of the Sylvester
    matrix; the y^(k-l) coefficient is the Bareiss determinant of its
    first m + n - 2k - 1 columns and the column of y^(k-l).
    """
    pc = p.y_coeffs()
    qc = q.y_coeffs()
    m, n = len(pc) - 1, len(qc) - 1
    r = m + n - 2 * k
    c = m + n - k
    rows = []
    for t in range(n - k - 1, -1, -1):  # rows y^t * p
        rows.append([_poly_coeff(pc, c - 1 - col - t) for col in range(c)])
    for t in range(m - k - 1, -1, -1):  # rows y^t * q
        rows.append([_poly_coeff(qc, c - 1 - col - t) for col in range(c)])
    result = BiPoly.zero()
    for l in range(k + 1):
        cols = list(range(r - 1)) + [r - 1 + l]
        minor = _poly_matrix_det([[row[col] for col in cols] for row in rows])
        result = result + BiPoly.from_y_coeffs([UnivariatePoly.zero()] * (k - l) + [minor])
    return result


def res_y(p: BiPoly, q: BiPoly) -> UnivariatePoly:
    """Resultant of p and q with respect to y, as the Bareiss determinant of the Sylvester matrix."""
    if p.is_zero() or q.is_zero():
        raise PolynomialError("resultant needs two nonzero polynomials")
    m, n = p.deg_y(), q.deg_y()
    if m < n:
        r = res_y(q, p)
        return r if (m * n) % 2 == 0 else -r
    if n == 0:
        return q.y_coeffs()[0] ** m if m > 0 else UnivariatePoly.one()
    pc, qc = p.y_coeffs(), q.y_coeffs()
    size = m + n
    rows = []
    for t in range(n - 1, -1, -1):
        rows.append([_poly_coeff(pc, size - 1 - col - t) for col in range(size)])
    for t in range(m - 1, -1, -1):
        rows.append([_poly_coeff(qc, size - 1 - col - t) for col in range(size)])
    return _poly_matrix_det(rows)


def _fraction_divmod(f: list[Fraction], g: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of f by nonzero g over Q, coefficient lists ascending."""
    rem = list(f)
    d = len(g) - 1
    quotient = [Fraction(0)] * max(len(rem) - d, 0)
    while len(rem) - 1 >= d and rem:
        factor = rem[-1] / g[-1]
        shift = len(rem) - 1 - d
        quotient[shift] = factor
        for i, c in enumerate(g):
            rem[shift + i] -= factor * c
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return quotient, rem


def _gcd_euclid(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    while b:
        a, b = b, _fraction_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else []


def poly_gcd_euclid(f: UnivariatePoly, g: UnivariatePoly) -> UnivariatePoly:
    """Monic gcd by Euclid's algorithm over Fraction coefficients; gcd(0, 0) = 0."""
    return UnivariatePoly(tuple(_gcd_euclid([Fraction(c) for c in f.coeffs], [Fraction(c) for c in g.coeffs])))


def squarefree_part_euclid(f: UnivariatePoly) -> UnivariatePoly:
    """f divided by its Euclid gcd with f', made monic."""
    if f.is_zero():
        return f
    coeffs = [Fraction(c) for c in f.coeffs]
    derivative = [i * c for i, c in enumerate(coeffs)][1:]
    while derivative and derivative[-1] == 0:
        derivative.pop()
    quotient, _ = _fraction_divmod(coeffs, _gcd_euclid(coeffs, derivative))
    return UnivariatePoly(tuple(c / quotient[-1] for c in quotient))


def coprime_bipolys(p: BiPoly, q: BiPoly) -> bool:
    """Whether nonzero p and q share no nonconstant factor, decided by resultants.

    A common factor of positive y-degree makes res_y vanish; a common
    factor in x alone divides every y-coefficient of both.
    """
    shared = UnivariatePoly.zero()
    for c in p.y_coeffs() + q.y_coeffs():
        shared = poly_gcd_euclid(shared, c)
    if shared.degree >= 1:
        return False
    if p.deg_y() == 0 or q.deg_y() == 0:
        return True
    return not res_y(p, q).is_zero()


def brute_closure(generators: list[tuple[int, ...]], degree: int) -> set[tuple[int, ...]]:
    """The group generated by image tuples, every element composed with every generator."""

    def compose(a, b):
        return tuple(b[i] for i in a)

    elements = {tuple(range(degree))}
    frontier = list(elements)
    while frontier:
        fresh = []
        for g in frontier:
            for s in generators:
                h = compose(g, s)
                if h not in elements:
                    elements.add(h)
                    fresh.append(h)
        frontier = fresh
    return elements


def composition_order(perm) -> int:
    """Order by repeated composition: the reference for the cycle-length lcm."""
    power, k = perm, 1
    while not power.is_identity():
        power, k = power.then(perm), k + 1
    return k


def trial_division_is_odd_prime(p: int) -> bool:
    """Odd primality by trial division by odd numbers up to the square root."""
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True
