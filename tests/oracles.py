"""Independent reference implementations, for tests only.

Each one computes a value the program also computes, by a different
route: Sylvester determinants and their fraction-free Bareiss
elimination instead of remainder sequences, Euclid over Fraction
coefficients instead of integer remainder sequences (its monic gcd
returned as the primitive integer associate), a primitive remainder
sequence in y instead of the subresultant chain for bivariate gcds,
total degree, top form and shear on term maps (``terms_*``) instead
of on tuples of y-coefficients, and for
permutations, breadth-first closure over all generators instead of
closure a coset at a time, orders by repeated composition instead of
cycle lengths, a
group label read from every element's order up front instead of from
the few orders the label needs, quotient genera from the full coset
table instead of the index-2 reading, even elements by each element's
sign instead of the generators' parities, rotations by repeated
composition instead of commutation with the rotation, a dihedral label
from every pair of elements instead of the first rotation and the first
element not commuting with it, cycle notation read by regular
expressions instead of string methods, transitivity by a search over
every permutation instead of the n-cycle test, trial division instead of Miller-Rabin
for primality, smoothness by bivariate elimination on all three
affine charts, with shared factors split off by the remainder-sequence
gcd, instead of one chart and the line at infinity, lattice
signatures by congruence diagonalization instead of the signs of the
characteristic polynomial, and classes solved from their pairings by
fraction-free Gauss-Jordan elimination instead of the adjugate that the
same characteristic-polynomial recurrence gives.

The permutation helpers ``identity``, ``inverse``, ``sign`` and
``internal``, ``term_map``, ``terms_exact_div`` and the term-map
constructor and ring operations of the ``BiPoly`` subclass, the
evaluators ``evaluate_poly``, ``evaluate_bipoly`` and ``evaluate_form``, ``pairings``, ``parse_reports``, ``is_squarefree`` and
the ``FibrationProfile`` record serve tests only; the program never needs
them.
"""

import json
import re
from fractions import Fraction
from functools import reduce
from math import comb, factorial, gcd, lcm

from xiaofib import monodromy, polynomials
from xiaofib.ledger import ClaimReport
from xiaofib.monodromy import Permutation
from xiaofib.numerology import NumerologyError
from xiaofib.polynomials import PolynomialError, UnivariatePoly, common_affine_zero, poly_gcd
from xiaofib.record import Record


def term_map(p: polynomials.BiPoly) -> dict[tuple[int, int], int]:
    """The nonzero terms of a bivariate polynomial, (x-exponent, y-exponent) -> int."""
    return {(i, j): c for j, poly in enumerate(p.y_coeffs) for i, c in enumerate(poly.coeffs) if c}


class BiPoly(polynomials.BiPoly):
    """A bivariate polynomial built from its term map, with the ring operations, so that test
    expressions read as algebra.

    Results are of this class.  The program's own values are of the base
    class, so they compare unequal to these; ``BiPoly.of(p)`` converts one.
    """

    __slots__ = ()

    def __init__(self, terms: dict[tuple[int, int], int]):
        width = max((i + 1 for i, _ in terms), default=0)
        rows = [[0] * width for _ in range(max((j + 1 for _, j in terms), default=0))]
        for (i, j), c in terms.items():
            rows[j][i] = c
        super().__init__([UnivariatePoly(tuple(row)) for row in rows])

    @classmethod
    def of(cls, p: polynomials.BiPoly) -> "BiPoly":
        return cls(term_map(p))

    @property
    def terms(self) -> dict[tuple[int, int], int]:
        return term_map(self)

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls({})

    @classmethod
    def constant(cls, c) -> "BiPoly":
        return cls({(0, 0): c})

    def __add__(self, other) -> "BiPoly":
        terms = self.terms
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return BiPoly(terms)

    def __sub__(self, other) -> "BiPoly":
        terms = self.terms
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) - c
        return BiPoly(terms)

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other) -> "BiPoly":
        terms: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                terms[key] = terms.get(key, 0) + c1 * c2
        return BiPoly(terms)

    def scale(self, c: int) -> "BiPoly":
        return BiPoly({k: v * c for k, v in self.terms.items()})

    def __repr__(self) -> str:
        return f"BiPoly({self.terms!r})"


def terms_total_degree(terms: dict[tuple[int, int], int]) -> int:
    """Total degree of a term map, -1 for zero."""
    return max((i + j for i, j in terms), default=-1)


def terms_top_form_at(terms: dict[tuple[int, int], int], a: int) -> int:
    """The top-degree homogeneous part of a term map evaluated at (a, 1)."""
    d = terms_total_degree(terms)
    return sum(c * a**i for (i, j), c in terms.items() if i + j == d)


def terms_shear(terms: dict[tuple[int, int], int], a: int) -> dict[tuple[int, int], int]:
    """The term map after x -> x + a*y, each (x + a y)^i expanded by binomials."""
    out: dict[tuple[int, int], int] = {}
    for (i, j), c in terms.items():
        for t in range(i + 1):
            key = (i - t, j + t)
            out[key] = out.get(key, 0) + c * comb(i, t) * a**t
    return {key: c for key, c in out.items() if c}


def terms_exact_div(terms: dict[tuple[int, int], int], divisor: dict[tuple[int, int], int]):
    """The quotient of two term maps by division on the leading term in (y, x) order; raises unless exact."""
    if not divisor:
        raise PolynomialError("division by the zero polynomial")
    remainder = dict(terms)
    quotient: dict[tuple[int, int], int] = {}
    lead_key = max(divisor, key=lambda k: (k[1], k[0]))
    while remainder:
        key = max(remainder, key=lambda k: (k[1], k[0]))
        di, dj = key[0] - lead_key[0], key[1] - lead_key[1]
        factor, left = divmod(remainder[key], divisor[lead_key])
        if di < 0 or dj < 0 or left:
            raise PolynomialError("bivariate division expected to be exact failed")
        quotient[(di, dj)] = factor
        for (i, j), c in divisor.items():
            k2 = (i + di, j + dj)
            remainder[k2] = remainder.get(k2, 0) - factor * c
            if not remainder[k2]:
                del remainder[k2]
    return quotient


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
        return f.coeffs[-1] ** g.degree
    if g.degree == 0:
        return g.coeffs[-1] ** f.degree
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
    pc, qc = p.y_coeffs, q.y_coeffs
    m, n = len(pc) - 1, len(qc) - 1
    r = m + n - 2 * k
    c = m + n - k
    rows = []
    for t in range(n - k - 1, -1, -1):  # rows y^t * p
        rows.append([_poly_coeff(pc, c - 1 - col - t) for col in range(c)])
    for t in range(m - k - 1, -1, -1):  # rows y^t * q
        rows.append([_poly_coeff(qc, c - 1 - col - t) for col in range(c)])
    coeffs = [UnivariatePoly.zero()] * (k + 1)
    for l in range(k + 1):
        cols = list(range(r - 1)) + [r - 1 + l]
        coeffs[k - l] = _poly_matrix_det([[row[col] for col in cols] for row in rows])
    return BiPoly.of(polynomials.BiPoly(coeffs))


def res_y(p: BiPoly, q: BiPoly) -> UnivariatePoly:
    """Resultant of p and q with respect to y, as the Bareiss determinant of the Sylvester matrix."""
    if p.is_zero() or q.is_zero():
        raise PolynomialError("resultant needs two nonzero polynomials")
    m, n = p.deg_y(), q.deg_y()
    if m < n:
        r = res_y(q, p)
        return r if (m * n) % 2 == 0 else -r
    if n == 0:
        return q.y_coeffs[0] ** m if m > 0 else UnivariatePoly.one()
    pc, qc = p.y_coeffs, q.y_coeffs
    size = m + n
    rows = []
    for t in range(n - 1, -1, -1):
        rows.append([_poly_coeff(pc, size - 1 - col - t) for col in range(size)])
    for t in range(m - 1, -1, -1):
        rows.append([_poly_coeff(qc, size - 1 - col - t) for col in range(size)])
    return _poly_matrix_det(rows)


def fraction_divmod(f, g) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of f by nonzero g over Q, coefficient lists ascending."""
    rem = [Fraction(c) for c in f]
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
        a, b = b, fraction_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else []


def primitive_associate(monic: list[Fraction]) -> UnivariatePoly:
    """The integer multiple of a monic polynomial with coprime coefficients.

    Scaled by the lcm L of its denominators, a monic polynomial has
    integer coefficients with no common prime: a prime dividing L misses
    the coefficient whose denominator it divides most, and any other
    prime misses the leading coefficient L.
    """
    scale = lcm(*(c.denominator for c in monic))
    return UnivariatePoly(tuple(int(c * scale) for c in monic))


def poly_gcd_euclid(f: UnivariatePoly, g: UnivariatePoly) -> UnivariatePoly:
    """The monic gcd by Euclid's algorithm over Fraction coefficients, as its primitive associate.

    gcd(0, 0) = 0.
    """
    return primitive_associate(_gcd_euclid([Fraction(c) for c in f.coeffs], [Fraction(c) for c in g.coeffs]))


def squarefree_part_euclid(f: UnivariatePoly) -> UnivariatePoly:
    """f divided by its Euclid gcd with f', made monic, as its primitive associate."""
    if f.is_zero():
        return f
    coeffs = [Fraction(c) for c in f.coeffs]
    derivative = [i * c for i, c in enumerate(coeffs)][1:]
    while derivative and derivative[-1] == 0:
        derivative.pop()
    quotient, _ = fraction_divmod(coeffs, _gcd_euclid(coeffs, derivative))
    return primitive_associate([c / quotient[-1] for c in quotient])


def coprime_bipolys(p: BiPoly, q: BiPoly) -> bool:
    """Whether nonzero p and q share no nonconstant factor, decided by resultants.

    A common factor of positive y-degree makes res_y vanish; a common
    factor in x alone divides every y-coefficient of both.
    """
    shared = UnivariatePoly.zero()
    for c in p.y_coeffs + q.y_coeffs:
        shared = poly_gcd_euclid(shared, c)
    if shared.degree >= 1:
        return False
    if p.deg_y() == 0 or q.deg_y() == 0:
        return True
    return not res_y(p, q).is_zero()


def _content_in_x(coeffs: list[UnivariatePoly]) -> UnivariatePoly:
    """The primitive gcd of the y-coefficients times the integer gcd of all their coefficients."""
    content = UnivariatePoly.zero()
    for c in coeffs:
        content = poly_gcd(content, c)
    return content.scale(gcd(*(v for c in coeffs for v in c.coeffs)))


def _primitive_in_y(coeffs: list[UnivariatePoly]) -> list[UnivariatePoly]:
    content = _content_in_x(coeffs)
    return [c.exact_div(content) for c in coeffs] if coeffs else coeffs


def _pseudo_rem_in_y(a: list[UnivariatePoly], b: list[UnivariatePoly]) -> list[UnivariatePoly]:
    """lc(b)^(deg a - deg b + 1) a modulo b, for coefficient lists with nonzero last entries."""
    r = list(a)
    for _ in range(len(a) - len(b) + 1):
        lead, shift = r[-1], len(r) - len(b)
        r = [c * b[-1] for c in r]
        for i, c in enumerate(b):
            r[shift + i] = r[shift + i] - lead * c
        r.pop()
    while r and r[-1].is_zero():
        r.pop()
    return r


def bipoly_gcd_prs(p: BiPoly, q: BiPoly) -> BiPoly:
    """The gcd in Z[x, y] by a primitive remainder sequence in y, of unnormalized sign.

    Both inputs are divided by their contents in Z[x], every remainder
    by its own, and the last nonzero remainder is multiplied by the gcd
    of the two contents.  gcd(0, q) = q.
    """
    if p.is_zero():
        return q
    if q.is_zero():
        return p
    pc, qc = p.y_coeffs, q.y_coeffs
    content = poly_gcd(_content_in_x(pc), _content_in_x(qc))
    a, b = _primitive_in_y(pc), _primitive_in_y(qc)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive_in_y(_pseudo_rem_in_y(a, b))
    return BiPoly.of(polynomials.BiPoly([c * content for c in a]))


def identity(degree: int) -> Permutation:
    return Permutation(tuple(range(degree)))


def inverse(perm: Permutation) -> Permutation:
    images = [0] * perm.degree
    for i, j in enumerate(perm.images):
        images[j] = i
    return Permutation(tuple(images))


def sign(perm: Permutation) -> int:
    """+1 or -1, from the number of cycles: an r-cycle is a product of r - 1 transpositions."""
    return -1 if (perm.degree - len(perm.cycle_type())) % 2 else 1


def internal(perms) -> list:
    """The program's internal form of each permutation, its images, for the closure and the classifier."""
    return [p.images for p in perms]


def bfs_span(candidates, degree: int, max_order: int) -> dict:
    """The group generated by image tuples, breadth first, as a dict's keys: ``_span``'s reference.

    Each candidate outside the span is taken as a generator, and every
    new element is composed with every generator taken, index by index.
    Raises ``EnumerationLimitError`` before the span exceeds ``max_order``
    elements.
    """
    span = dict.fromkeys([tuple(range(degree))])
    steps = []  # - then s, for each generator s taken
    for u in candidates:
        if u in span:
            continue
        steps.append(lambda h, s=u: tuple(s[i] for i in h))
        # the old span is closed under the old generators; new elements meet all of them
        fresh, maps = list(span), steps[-1:]
        while fresh:
            products = [then_s(h) for then_s in maps for h in fresh]
            fresh, maps = [], steps
            for h in products:
                if h in span:
                    continue
                if len(span) >= max_order:
                    raise monodromy.EnumerationLimitError(f"group closure exceeds the configured bound {max_order}")
                span[h] = None
                fresh.append(h)
    return span


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


def cycles(perm) -> list[tuple[int, ...]]:
    """All cycles of a permutation, fixed points included, each listed from its least point."""
    out, seen = [], set()
    for start in range(perm.degree):
        if start not in seen:
            cycle = [start]
            seen.add(start)
            while perm.images[cycle[-1]] != start:
                cycle.append(perm.images[cycle[-1]])
                seen.add(cycle[-1])
            out.append(tuple(cycle))
    return out


def cycle_string(perm) -> str:
    """Cycle notation, fixed points omitted, ``()`` for the identity: the input ``from_cycles`` reads."""
    parts = ["(" + " ".join(map(str, c)) + ")" for c in cycles(perm) if len(c) > 1]
    return "".join(parts) if parts else "()"


def permutation_from_cycles(text: str, degree: int) -> Permutation:
    """Cycle notation read by regular expressions, every image checked: ``from_cycles``'s reference."""
    stripped = re.sub(r"\s+", "", text)
    if re.sub(r"\([0-9,]*\)", "", stripped):
        raise monodromy.MonodromyDataError(f"unparseable cycle notation: {text!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for body in re.findall(r"\(([^()]*)\)", text):
        entries = [e for e in re.split(r"[,\s]+", body.strip()) if e]
        cycle = [monodromy._numeral(e) for e in entries]
        if any(i < 0 or i >= degree for i in cycle):
            raise monodromy.MonodromyDataError(f"sheet index out of range 0..{degree - 1}: {text!r}")
        if seen.intersection(cycle) or len(set(cycle)) != len(cycle):
            raise monodromy.MonodromyDataError(f"repeated sheet index in cycles: {text!r}")
        seen.update(cycle)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return Permutation(tuple(images))


def is_transitive(perms, degree: int) -> bool:
    """Whether the sheets form one orbit, by a breadth-first search over every permutation."""
    reached, frontier = {0}, [0]
    while frontier:
        frontier = [p.images[i] for i in frontier for p in perms if p.images[i] not in reached]
        reached.update(frontier)
    return len(reached) == degree


def plain_product(word, degree: int) -> tuple[int, ...]:
    """Images of the left-to-right product of a branch word, one composition per letter.

    The reference for ``BranchedCover``'s product check, which composes
    only each run's residue.
    """
    return reduce(lambda a, b: tuple(b[i] for i in a), (sigma.images for sigma in word), tuple(range(degree)))


def pointwise_rh_genus(cover) -> int:
    """Riemann-Hurwitz with one term per branch point, each from that point's own cycles."""
    n = cover.degree
    rhs = n * (2 * cover.base_genus - 2) + sum(n - len(cycles(sigma)) for sigma in cover.branch_monodromy)
    return rhs // 2 + 1


def composition_order(perm) -> int:
    """Order by repeated composition: the reference for the cycle-length lcm."""
    power, k = perm, 1
    while power != identity(perm.degree):
        power, k = power.then(perm), k + 1
    return k


def classify_by_orders(elements) -> str:
    """The coarse group label from the orders of all elements, computed first.

    Cyclic when an element has order |G|.  Dihedral when |G| >= 6 and the
    first element r of order |G|/2 is inverted by an involution outside
    <r>.  Symmetric when the group moves k >= 3 points and |G| = k!.
    Otherwise other.
    """
    n = len(elements)
    orders = [e.order() for e in elements]
    if n in orders:
        return "cyclic"
    if n % 2 == 0 and n >= 6:
        m = n // 2
        for r, order in zip(elements, orders):
            if order != m:
                continue
            rotations, power = set(), r
            while power not in rotations:
                rotations.add(power)
                power = power.then(r)
            r_inv = inverse(r)
            for s in set(elements) - rotations:
                if s.then(s) == identity(r.degree) and s.then(r).then(s) == r_inv:
                    return "dihedral"
            break
    moved = {i for e in elements for i, j in enumerate(e.images) if i != j}
    if len(moved) >= 3 and n == factorial(len(moved)):
        return "symmetric"
    return "other"


def is_dihedral(elements) -> bool:
    """Whether the group of these permutations is D_m with m >= 3, tried on every pair of elements.

    True when |G| = 2m with m >= 3 and some r of order m, by repeated
    composition, and some s outside the powers of r satisfy s s = 1 and
    s r s = r^-1: such r and s generate D_m.
    """
    n = len(elements)
    if n % 2 or n < 6:
        return False
    one = identity(elements[0].degree)
    for r in elements:
        if composition_order(r) != n // 2:
            continue
        rotations, power, r_inv = {one}, r, inverse(r)
        while power != one:
            rotations.add(power)
            power = power.then(r)
        if any(s not in rotations and s.then(s) == one and s.then(r).then(s) == r_inv for s in elements):
            return True
    return False


def coset_quotient_genus(cover, subgroup) -> int:
    """Genus of the quotient of the Galois closure by ``subgroup``, from the full coset table.

    ``subgroup`` is a set of image tuples.  Each branch permutation sigma
    acts on the right cosets Hg by Hg -> Hg sigma, whatever the index;
    Riemann-Hurwitz on the induced permutations gives the genus.
    """

    def compose(a, b):
        return tuple(b[i] for i in a)

    coset_of, reps = {}, []
    for g in sorted(brute_closure([s.images for s in cover.branch_monodromy], cover.degree)):
        if g not in coset_of:
            for u in subgroup:
                coset_of[compose(u, g)] = len(reps)
            reps.append(g)
    ramification = 0
    for sigma in cover.branch_monodromy:
        action = [coset_of[compose(rep, sigma.images)] for rep in reps]
        seen, cycles = set(), 0
        for start in range(len(reps)):
            if start not in seen:
                cycles += 1
                while start not in seen:
                    seen.add(start)
                    start = action[start]
        ramification += len(reps) - cycles
    return (len(reps) * (2 * cover.base_genus - 2) + ramification) // 2 + 1


def brute_regular_genus(cover):
    """Riemann-Hurwitz on the translation action, rebuilt from raw tuples."""

    def compose(a, b):
        return tuple(b[i] for i in a)

    def cycle_count(perm):
        seen, count = set(), 0
        for start in range(len(perm)):
            if start in seen:
                continue
            count += 1
            j = start
            while j not in seen:
                seen.add(j)
                j = perm[j]
        return count

    elements = sorted(brute_closure([p.images for p in cover.branch_monodromy], cover.degree))
    index = {e: i for i, e in enumerate(elements)}
    total = 0
    for sigma in cover.branch_monodromy:
        action = tuple(index[compose(e, sigma.images)] for e in elements)
        total += len(elements) - cycle_count(action)
    rhs = len(elements) * (2 * cover.base_genus - 2) + total
    assert rhs % 2 == 0
    return (rhs + 2) // 2


def even_by_sign(elements) -> tuple:
    """The elements of sign +1, each sign read from its own cycle type."""
    return tuple(e for e in elements if sign(e) == 1)


def rotations_of(group) -> set[tuple[int, ...]]:
    """The image tuples of the powers of a dihedral descriptor's rotation, by repeated composition."""
    r = Permutation(tuple(group._rotation))
    found, power = set(), r
    while power.images not in found:
        found.add(power.images)
        power = power.then(r)
    return found


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


def common_zero_splitting_shared_factors(polys) -> bool:
    """``common_affine_zero`` for up to three polynomials, the first two of them not necessarily coprime.

    A gcd h of positive degree of the first two nonzero ones splits the
    question: the common zeros lie on h with the rest, or on the two
    cofactors, which are coprime, with the rest.
    """
    ps = [BiPoly.of(p) for p in polys if not p.is_zero()]
    if len(ps) >= 2:
        h = bipoly_gcd_prs(ps[0], ps[1])
        if h.total_degree() >= 1:
            cofactors = [BiPoly(terms_exact_div(p.terms, h.terms)) for p in ps[:2]]
            return (common_zero_splitting_shared_factors([h] + ps[2:])
                    or common_zero_splitting_shared_factors(cofactors + ps[2:]))
    return common_affine_zero(ps)


def is_smooth_three_charts(form) -> bool:
    """Smoothness of a plane curve: no common zero of the partials on the charts x, y, z = 1.

    The three charts overlap and together cover the projective plane.
    On the charts x = 1 and y = 1 two partials can share a factor, so
    shared factors are split off first.
    """
    form = form.primitive()
    partials = [form.partial(v) for v in range(3)]
    for chart_var in range(3):
        charted = [p.chart(chart_var) for p in partials]
        if common_zero_splitting_shared_factors(charted):
            return False
    return True


def evaluate_poly(f: UnivariatePoly, x):
    """The value f(x), by Horner's rule."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def evaluate_bipoly(p: BiPoly, x, y):
    """The value p(x, y), term by term."""
    return sum(c * x**i * y**j for (i, j), c in term_map(p).items())


def pairings(lattice, c) -> tuple[int, ...]:
    """Intersections of the class c with each basis class, i.e. gram . c."""
    return tuple(sum(g * v for g, v in zip(row, c.coeffs)) for row in lattice.gram)


def congruence_signature(gram) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia indices of a symmetric integer matrix.

    Congruence diagonalization: each step replaces row and column i by d
    times themselves minus a times row and column k, d being the pivot
    and a the entry to clear, an invertible rational congruence that
    keeps the inertia (Sylvester's law) and the entries integral.  A zero
    pivot is swapped for a later nonzero diagonal entry, or, when the
    rest of the diagonal vanishes, row and column k get a partner row and
    column with a nonzero entry in row k added to them.
    """
    n = len(gram)
    m = [list(row) for row in gram]
    pos = neg = zero = 0
    for k in range(n):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][i] != 0), None)
            if pivot is not None:
                m[k], m[pivot] = m[pivot], m[k]
                for row in m:
                    row[k], row[pivot] = row[pivot], row[k]
            else:
                partner = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if partner is None:
                    zero += 1
                    continue
                m[k] = [a + b for a, b in zip(m[k], m[partner])]
                for row in m:
                    row[k] += row[partner]
        d = m[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            a = m[i][k]
            if a == 0:
                continue
            for j in range(n):
                m[i][j] = d * m[i][j] - a * m[k][j]
            for j in range(n):
                m[j][i] = d * m[j][i] - a * m[j][k]
    return pos, neg, zero


def solve_exact(gram, rhs) -> tuple[list[int], int] | None:
    """Numerators and common denominator of the solution of gram . x = rhs; None when gram is singular.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968): every entry
    stays a minor of the augmented matrix, so each division is exact,
    and the diagonal ends as d = +-det(gram) with d * x in the last
    column.
    """
    n = len(gram)
    aug = [list(gram[i]) + [rhs[i]] for i in range(n)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col]
        d = lead[col]
        for r in range(n):
            if r != col:
                a = aug[r][col]
                aug[r] = [(d * v - a * w) // prev for v, w in zip(aug[r], lead)]
        prev = d
    return [aug[i][n] for i in range(n)], prev


def parse_reports(text: str) -> list[ClaimReport]:
    """The claim reports of a ``verify --format json`` document."""
    return [ClaimReport(**entry) for entry in json.loads(text)]


def evaluate_form(form, x, y, z):
    """The value of a ternary form at the point (x, y, z), term by term."""
    return sum(c * x**i * y**j * z**k for (i, j, k), c in form.coefficients.items())


def is_squarefree(f: UnivariatePoly) -> bool:
    """Whether f has no repeated factor over Q; the zero polynomial has one."""
    if f.is_zero():
        return False
    return poly_gcd(f, f.derivative()).degree == 0


class FibrationProfile(Record):
    """Fiber genus, relative irregularity, base genus and total irregularity."""

    __slots__ = ("g_fiber", "q_rel", "g_base", "q_total")

    def __init__(self, g_fiber: int, q_rel: int, g_base: int, q_total: int):
        object.__setattr__(self, "g_fiber", g_fiber)
        object.__setattr__(self, "q_rel", q_rel)
        object.__setattr__(self, "g_base", g_base)
        object.__setattr__(self, "q_total", q_total)
        if self.q_total != self.q_rel + self.g_base:
            raise NumerologyError("q_total must equal q_rel + g_base")
        if self.q_rel < 0:
            raise NumerologyError("relative irregularity must be non-negative")
        if self.g_fiber < 2:
            raise NumerologyError("fiber genus must be at least 2")
