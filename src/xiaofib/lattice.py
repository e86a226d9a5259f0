"""Exact integer intersection theory on numerical divisor lattices.

Lattices are symmetric integer Gram matrices over a named basis,
together with the canonical class.  Two families matter here: the
product of a curve with itself (basis D1, D2, diagonal) and its
symmetric square (basis D_P, half-diagonal delta).  The degree-2
quotient between them is a fixed pair of push and pull matrices,
checked against the Gram matrix of the product lattice each time it is
used.  The branch-class chain of the plane-quartic case completes the
canonical involution tau of the symmetric square from tau_* D_P by one
formula, tau_* delta = (2g - 2) tau_* D_P - K, which holds because tau
fixes K = (2g - 2) D_P - delta.  Everything is exact integer
arithmetic.  One recurrence (Faddeev-LeVerrier) gives the integer
characteristic polynomial, whose signs are the signature by Descartes'
rule, so Hodge-index conclusions are certificates, and the adjugate up
to sign, which solves a class from its pairings.
"""

from __future__ import annotations

from .record import Record


class LatticeError(ValueError):
    """Structural problem with a lattice, a class, or an operation's input."""


class DivisorClass(Record):
    """Integer coefficient vector in a fixed lattice basis."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        super().__init__(tuple(int(c) for c in coeffs))

    def _combine(self, other: "DivisorClass", sign: int) -> "DivisorClass":
        if len(self.coeffs) != len(other.coeffs):
            raise LatticeError(
                f"combining classes of ranks {len(self.coeffs)} and {len(other.coeffs)}"
            )
        return DivisorClass(tuple(a + sign * b for a, b in zip(self.coeffs, other.coeffs)))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, 1)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self._combine(other, -1)

    def __rmul__(self, scalar: int) -> "DivisorClass":
        return DivisorClass(tuple(scalar * a for a in self.coeffs))

    def halved(self) -> "DivisorClass":
        """The class divided by 2; raises if any coefficient is odd."""
        if any(c % 2 for c in self.coeffs):
            raise LatticeError(f"class {self.coeffs} is not divisible by 2")
        return DivisorClass(tuple(c // 2 for c in self.coeffs))


class IntersectionLattice(Record):
    """Named basis, symmetric integer Gram matrix, and canonical class vector."""

    __slots__ = ("basis_labels", "gram", "canonical")

    def __init__(
        self,
        basis_labels: tuple[str, ...],
        gram: tuple[tuple[int, ...], ...],
        canonical: tuple[int, ...],
    ):
        super().__init__(tuple(basis_labels), tuple(tuple(row) for row in gram), tuple(canonical))
        n = len(self.basis_labels)
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise LatticeError("gram matrix shape does not match the basis")
        if len(self.canonical) != n:
            raise LatticeError("canonical vector length does not match the basis")
        if self.gram != _transpose(self.gram):
            raise LatticeError("gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    def canonical_class(self) -> DivisorClass:
        return DivisorClass(self.canonical)

    def basis_class(self, label: str) -> DivisorClass:
        idx = self.basis_labels.index(label)
        return DivisorClass(tuple(1 if i == idx else 0 for i in range(self.rank)))

    def _check_rank(self, c: DivisorClass):
        if len(c.coeffs) != self.rank:
            raise LatticeError(
                f"class of rank {len(c.coeffs)} in a lattice of rank {self.rank}"
            )

    def intersect(self, a: DivisorClass, b: DivisorClass) -> int:
        """The pairing a . b through the Gram matrix."""
        self._check_rank(a)
        self._check_rank(b)
        return sum(x * y for x, y in zip(a.coeffs, _apply(self.gram, b.coeffs)))

    def adjunction_genus(self, c: DivisorClass) -> int:
        """Arithmetic genus 1 + (c.c + c.K)/2."""
        total = self.intersect(c, c) + self.intersect(c, self.canonical_class())
        if total % 2:
            raise LatticeError(f"c^2 + c.K = {total} is odd: genus is not an integer")
        return 1 + total // 2

    def class_from_intersections(self, pairings) -> DivisorClass:
        """Solve gram . c = pairings exactly; the solution must be integral.

        ``_characteristic`` gives G M_n = -c_0 I, so c_0 c = -M_n . pairings.
        """
        target = tuple(pairings)
        if len(target) != self.rank:
            raise LatticeError("pairing vector length does not match the lattice rank")
        coeffs, m_n = _characteristic(self.gram)
        c_0 = coeffs[-1]
        if not c_0:
            raise LatticeError("gram matrix is degenerate: pairings do not determine a class")
        numerators = tuple(-x for x in _apply(m_n, target))
        if any(x % c_0 for x in numerators):
            raise LatticeError(f"pairings {target} solve to non-integral coefficients {numerators}/{c_0}")
        return DivisorClass(tuple(x // c_0 for x in numerators))

    def signature(self) -> tuple[int, int, int]:
        """(positive, negative, zero) inertia indices, read off the characteristic polynomial.

        A symmetric G has only real eigenvalues, so Descartes' rule of
        signs is exact on the coefficients of det(t I - G) that
        ``_characteristic`` gives: the positive ones number the sign
        changes of the coefficients, the zero ones the vanishing lowest
        coefficients, and the negative ones the rest.
        """
        coeffs, _ = _characteristic(self.gram)
        zero = 0
        while not coeffs[-1]:
            coeffs.pop()
            zero += 1
        signs = [c > 0 for c in coeffs if c]
        pos = sum(a != b for a, b in zip(signs, signs[1:]))
        return pos, self.rank - pos - zero, zero

    def to_json_dict(self, classes: dict[str, DivisorClass] | None = None) -> dict:
        """Serializable dump: {basis, gram, canonical, classes}."""
        return {
            "basis": list(self.basis_labels),
            "gram": [list(row) for row in self.gram],
            "canonical": list(self.canonical),
            "classes": {name: list(c.coeffs) for name, c in (classes or {}).items()},
        }


def _characteristic(gram) -> tuple[list[int], list[list[int]]]:
    """The coefficients c_n = 1, ..., c_0 of det(t I - G), from t^n down, and the matrix M_n.

    The Faddeev-LeVerrier recurrence, with integer coefficients and exact
    divisions: M_1 = I, c_(n-k) = -tr(G M_k) / k and M_(k+1) = G M_k +
    c_(n-k) I.  Cayley-Hamilton makes M_(n+1) zero, so G M_n = -c_0 I,
    with c_0 = (-1)^n det G: M_n is the adjugate of G up to sign.
    """
    n = len(gram)
    coeffs = [1]
    m = product = [[0] * n for _ in range(n)]  # G M_(k-1), with M_0 = 0
    for k in range(1, n + 1):
        m = [[x + (coeffs[-1] if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(product)]
        product = _mat_mul(gram, m)
        coeffs.append(-sum(product[i][i] for i in range(n)) // k)
    return coeffs, m


def product_with_diagonal_lattice(g: int) -> IntersectionLattice:
    """Numerical lattice of C x C for a genus-g curve: basis (D1, D2, Delta).

    D1.D2 = D1.Delta = D2.Delta = 1, D1^2 = D2^2 = 0, Delta^2 = 2 - 2g,
    canonical class (2g - 2)(D1 + D2).  Genus 0 and 1 are allowed so the
    same lattice serves quotient curves of any genus.
    """
    if g < 0:
        raise LatticeError("curve genus must be non-negative")
    gram = (
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 2 - 2 * g),
    )
    k = 2 * g - 2
    return IntersectionLattice(("D1", "D2", "Delta"), gram, (k, k, 0))


def correspondence_class(g: int, d: int) -> tuple[IntersectionLattice, DivisorClass]:
    """The lattice of C x C, for C of genus g, and the correspondence X of a simply branched degree-d map.

    For f: C -> P^1, X is the closure of {(x, y) : x != y, f(x) = f(y)}.  From
    (f x f)^* Delta_(P^1) = X + Delta = d (D1 + D2), X meets each ruling in
    d - 1 points and the diagonal in the b = 2g - 2 + 2d branch points
    (Hartshorne, Algebraic Geometry, V.1).
    """
    lat = product_with_diagonal_lattice(g)
    return lat, lat.class_from_intersections((d - 1, d - 1, 2 * g - 2 + 2 * d))


def symmetric_square_lattice(g: int) -> IntersectionLattice:
    """Numerical lattice of the symmetric square of a genus-g curve: basis (D_P, delta).

    D_P^2 = 1, D_P.delta = 1, delta^2 = 1 - g, canonical (2g - 2) D_P - delta.
    """
    if g < 2:
        raise LatticeError("symmetric-square lattice needs genus at least 2")
    gram = (
        (1, 1),
        (1, 1 - g),
    )
    return IntersectionLattice(("D_P", "delta"), gram, (2 * g - 2, -1))


def hodge_index_forced_zero(
    lattice: IntersectionLattice, v: DivisorClass, ample: DivisorClass
) -> bool:
    """True iff v.v = 0 and v.ample = 0, which forces v = 0 in a (1, n-1) lattice.

    The signature precondition is checked exactly.  With signature
    (1, n-1) and ample^2 > 0, the orthogonal complement of ample is
    negative definite (the Hodge index theorem, Hartshorne, Algebraic
    Geometry, V.1.9), so a class with both pairings zero is zero.
    """
    pos, neg, zero = lattice.signature()
    if (pos, neg, zero) != (1, lattice.rank - 1, 0):
        raise LatticeError(
            f"hodge-index argument needs signature (1, {lattice.rank - 1}), got "
            f"({pos}, {neg}) with {zero} null directions"
        )
    if lattice.intersect(ample, ample) <= 0:
        raise LatticeError("the ample witness must have positive self-intersection")
    return lattice.intersect(v, v) == 0 and lattice.intersect(v, ample) == 0


def apply_matrix(matrix: tuple[tuple[int, ...], ...], c: DivisorClass) -> DivisorClass:
    """The class matrix . c; the matrix may be rectangular, with one column per coordinate of c."""
    rank = len(c.coeffs)
    if any(len(row) != rank for row in matrix):
        raise LatticeError(f"matrix columns do not match a class of rank {rank}")
    return DivisorClass(_apply(matrix, c.coeffs))


def _apply(matrix, coeffs) -> tuple[int, ...]:
    """Matrix times vector, each row dotted with ``coeffs``: every product here runs on it."""
    return tuple(sum(a * b for a, b in zip(row, coeffs)) for row in matrix)


def _transpose(matrix) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*matrix))


def _mat_mul(a, b) -> tuple[tuple[int, ...], ...]:
    """The product a . b of rectangular matrices: row i of it is b^T applied to row i of a."""
    columns = _transpose(b)
    return tuple(_apply(columns, row) for row in a)


# The degree-2 quotient C x C -> Sym^2 C, bases (D1, D2, Delta) and (D_P, delta): the
# pushforward sends D1 and D2 to D_P and the diagonal to 2 delta, the pullback sends
# D_P to D1 + D2 and delta to the diagonal
SYM2_PUSH = ((1, 1, 0), (0, 0, 2))
SYM2_PULL = ((1, 0), (1, 0), (0, 1))


def symmetric_square_quotient(product: IntersectionLattice) -> IntersectionLattice:
    """The symmetric-square lattice that a product lattice C x C pushes forward to.

    The genus is read off D1 = C x {pt}.  The projection formula
    (push x).y = x.(pull y) on all basis pairs is the matrix identity
    push^T G_sym = G_product pull, checked against the Gram matrix of
    ``product``.
    """
    sym = symmetric_square_lattice(product.adjunction_genus(product.basis_class("D1")))
    # entry (i, j) of each side is (push e_i).f_j and e_i.(pull f_j) for basis vectors e_i, f_j
    left = _mat_mul(_transpose(SYM2_PUSH), sym.gram)
    right = _mat_mul(product.gram, SYM2_PULL)
    for i, (left_row, right_row) in enumerate(zip(left, right)):
        for j, (a, b) in enumerate(zip(left_row, right_row)):
            if a != b:
                raise LatticeError(f"projection formula fails on basis pair ({i}, {j}): {a} != {b}")
    return sym


class BranchClassResult(Record):
    """Branch class of the double cover of the genus-3 product, its half, and tau_* of the diagonal."""

    __slots__ = ("branch", "half", "involution", "tau_diagonal")


def branch_class(product: IntersectionLattice, fiber: DivisorClass) -> BranchClassResult:
    """Branch locus of the double cover of D x D for the plane-quartic case.

    Runs the whole chain from the fiber class X_P in ``product``: push
    it to the symmetric square and halve it to get tau_* D_P, the image
    of D_P under the canonical involution tau.  The canonical class
    K = (2g - 2) D_P - delta is fixed by tau, so
    tau_* delta = (2g - 2) tau_* D_P - K; tau is checked to square to
    the identity and to preserve the intersection form.  The diagonal
    is pushed through tau and the result pulled back to D x D.  Only
    genus 3 is meaningful here.
    """
    sym = symmetric_square_quotient(product)
    g = sym.adjunction_genus(sym.basis_class("D_P"))  # D_P = {P} + C is a copy of C
    if g != 3:
        raise LatticeError("the branch-class chain is specific to the genus-3 case")
    tau_dp = apply_matrix(SYM2_PUSH, fiber).halved()
    tau_delta = (2 * g - 2) * tau_dp - sym.canonical_class()
    tau = _transpose((tau_dp.coeffs, tau_delta.coeffs))  # column j is the image of basis vector j
    if _mat_mul(tau, tau) != ((1, 0), (0, 1)):
        raise LatticeError("completed action does not square to the identity")
    if _mat_mul(_mat_mul(_transpose(tau), sym.gram), tau) != sym.gram:
        raise LatticeError("completed action does not preserve the intersection form")
    tau_diagonal = apply_matrix(tau, apply_matrix(SYM2_PUSH, product.basis_class("Delta")))
    branch = apply_matrix(SYM2_PULL, tau_diagonal)
    return BranchClassResult(branch=branch, half=branch.halved(), involution=tau, tau_diagonal=tau_diagonal)


def adjunction_inverse(g_c: int, g_d: int) -> int:
    """Self-intersection of the embedded cover curve, inverted from adjunction.

    Works in the product lattice of the quotient curve D of genus g_D:
    the cover curve C meets both rulings in 2 points and has arithmetic
    genus g_C, so its self-intersection is 2 g_C - 2 - gamma.K.  For
    the genera of a dihedral cover it must equal 8 - 2(g - 1)(p - 2).
    """
    k = product_with_diagonal_lattice(g_d).canonical  # (2 g_D - 2)(D1 + D2): no diagonal component
    gamma_dot_k = 2 * k[0] + 2 * k[1]
    return 2 * g_c - 2 - gamma_dot_k
