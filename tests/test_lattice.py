import ast
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import congruence_signature, pairings, solve_exact
from xiaofib.lattice import (
    SYM2_PULL,
    SYM2_PUSH,
    DivisorClass,
    IntersectionLattice,
    LatticeError,
    adjunction_inverse,
    apply_matrix,
    branch_class,
    correspondence_class,
    hodge_index_forced_zero,
    product_with_diagonal_lattice,
    symmetric_square_lattice,
    symmetric_square_quotient,
)
from xiaofib.numerology import CoverParams, cover_genera, gamma_self_intersection


def refuses(message: str):
    """``pytest.raises`` for a ``LatticeError`` with exactly this message."""
    return pytest.raises(LatticeError, match=f"^{re.escape(message)}$")


def fraction_det(gram):
    n = len(gram)
    m = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


# ---- lattice constructors ----


def test_product_lattice_values():
    lat = product_with_diagonal_lattice(3)
    assert lat.basis_labels == ("D1", "D2", "Delta")
    delta = lat.basis_class("Delta")
    assert lat.intersect(delta, delta) == -4
    assert lat.canonical == (4, 4, 0)
    assert fraction_det(lat.gram) == 6

    lat2 = product_with_diagonal_lattice(2)
    assert lat2.intersect(lat2.basis_class("Delta"), lat2.basis_class("Delta")) == -2
    assert lat2.canonical == (2, 2, 0)


def test_symmetric_square_values():
    lat = symmetric_square_lattice(3)
    assert lat.canonical == (4, -1)
    assert lat.gram == ((1, 1), (1, -2))
    assert lat.adjunction_genus(lat.basis_class("D_P")) == 3
    assert symmetric_square_lattice(2).canonical == (2, -1)


def test_gram_must_be_symmetric():
    with refuses("gram matrix must be symmetric"):
        IntersectionLattice(("a", "b"), ((0, 1), (2, 0)), (0, 0))


# ---- intersection, adjunction, solving ----


def test_intersect_examples():
    lat = product_with_diagonal_lattice(3)
    xp = DivisorClass((3, 3, -1))
    assert lat.intersect(xp, xp) == 2
    zero = DivisorClass((0, 0, 0))
    assert lat.intersect(zero, xp) == 0
    b = DivisorClass((16, 16, -6))
    assert lat.intersect(b, b) == -16


def test_adjunction_examples():
    lat3 = product_with_diagonal_lattice(3)
    assert lat3.adjunction_genus(DivisorClass((3, 3, -1))) == 10
    assert lat3.adjunction_genus(DivisorClass((16, 16, -6))) == 33
    lat2 = product_with_diagonal_lattice(2)
    assert lat2.adjunction_genus(DivisorClass((3, 3, -1))) == 7
    # c^2 + c.K is always even in a product lattice: the parity guard below
    # needs a lattice without a characteristic canonical class
    assert lat3.adjunction_genus(lat3.basis_class("D1")) == 3


def test_adjunction_parity_error():
    lat = IntersectionLattice(("a",), ((1,),), (0,))
    with refuses("c^2 + c.K = 1 is odd: genus is not an integer"):
        lat.adjunction_genus(DivisorClass((1,)))


def test_class_from_intersections():
    lat3 = product_with_diagonal_lattice(3)
    assert lat3.class_from_intersections((2, 2, 10)) == DivisorClass((3, 3, -1))
    lat2 = product_with_diagonal_lattice(2)
    assert lat2.class_from_intersections((2, 2, 8)) == DivisorClass((3, 3, -1))
    for label in lat3.basis_labels:
        basis = lat3.basis_class(label)
        assert lat3.class_from_intersections(pairings(lat3, basis)) == basis
    with refuses("pairings (1, 0, 0) solve to non-integral coefficients (1, -5, -1)/-6"):
        lat3.class_from_intersections((1, 0, 0))


def test_class_roundtrip_random():
    rng = random.Random(17)
    for g in range(2, 7):
        for lat in (product_with_diagonal_lattice(g), symmetric_square_lattice(g)):
            for _ in range(100):
                coeffs = tuple(rng.randint(-30, 30) for _ in range(lat.rank))
                c = DivisorClass(coeffs)
                assert lat.class_from_intersections(pairings(lat, c)) == c


def test_singular_gram_rejected():
    degenerate = IntersectionLattice(("a", "b"), ((1, 1), (1, 1)), (0, 0))
    with refuses("gram matrix is degenerate: pairings do not determine a class"):
        degenerate.class_from_intersections((1, 0))


# ---- signature and the Hodge index argument ----


def test_signatures():
    for g in range(2, 7):
        assert product_with_diagonal_lattice(g).signature() == (1, 2, 0)
        assert symmetric_square_lattice(g).signature() == (1, 1, 0)
    hyperbolic = IntersectionLattice(("a", "b"), ((0, 1), (1, 0)), (0, 0))
    assert hyperbolic.signature() == (1, 1, 0)
    null = IntersectionLattice(("a", "b"), ((0, 0), (0, -1)), (0, 0))
    assert null.signature() == (0, 1, 1)


def test_signature_matches_congruence_diagonalization():
    """Random symmetric matrices of rank 1-5, mostly zeros: the oracle's zero-pivot cases all run."""
    rng = random.Random(11)
    partner_cases = 0
    for _ in range(3000):
        n = rng.randint(1, 5)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = rng.choice((0, 0, 0, 0, 1, -1, 2, -3, 7))
        lattice = IntersectionLattice(tuple(f"e{i}" for i in range(n)), gram, (0,) * n)
        assert lattice.signature() == congruence_signature(gram), gram
        # with the whole diagonal zero, a nonzero matrix sends the oracle to a partner row
        partner_cases += all(gram[i][i] == 0 for i in range(n)) and any(map(any, gram))
    assert partner_cases >= 50


def test_class_from_intersections_matches_fraction_free_elimination():
    """Random symmetric matrices of rank 1-5, mostly zeros, with random pairings: the refusal when
    the oracle finds no pivot, its solution when that is integral, and its fractions otherwise."""
    rng = random.Random(13)
    outcomes = {"degenerate": 0, "integral": 0, "fractional": 0}
    for _ in range(3000):
        n = rng.randint(1, 5)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = rng.choice((0, 0, 0, 0, 1, -1, 2, -3, 7))
        target = tuple(rng.randint(-9, 9) for _ in range(n))
        lattice = IntersectionLattice(tuple(f"e{i}" for i in range(n)), gram, (0,) * n)
        solution = solve_exact(gram, target)
        if solution is None:
            outcomes["degenerate"] += 1
            with refuses("gram matrix is degenerate: pairings do not determine a class"):
                lattice.class_from_intersections(target)
            continue
        numerators, det = solution
        expected = [Fraction(x, det) for x in numerators]
        if all(x.denominator == 1 for x in expected):
            outcomes["integral"] += 1
            assert lattice.class_from_intersections(target) == DivisorClass(tuple(map(int, expected))), gram
            continue
        outcomes["fractional"] += 1
        with pytest.raises(LatticeError) as refusal:
            lattice.class_from_intersections(target)
        prefix = f"pairings {target} solve to non-integral coefficients "
        assert str(refusal.value).startswith(prefix)
        numerators_text, denominator = str(refusal.value).removeprefix(prefix).rsplit("/", 1)
        assert [Fraction(x, int(denominator)) for x in ast.literal_eval(numerators_text)] == expected, gram
    assert min(outcomes.values()) >= 300, outcomes


def test_hodge_index_forced_zero():
    lat = product_with_diagonal_lattice(3)
    xp = lat.class_from_intersections((2, 2, 10))
    h = 3 * (lat.basis_class("D1") + lat.basis_class("D2")) - lat.basis_class("Delta")
    ample = lat.basis_class("D1") + lat.basis_class("D2")
    assert hodge_index_forced_zero(lat, h - xp, ample) is True
    assert hodge_index_forced_zero(lat, lat.basis_class("D1") - lat.basis_class("D2"), ample) is False
    v = lat.basis_class("Delta") - ample
    assert hodge_index_forced_zero(lat, v, ample) is False
    with refuses("the ample witness must have positive self-intersection"):
        hodge_index_forced_zero(lat, h - xp, lat.basis_class("D1"))  # D1^2 = 0 not ample witness
    negative = IntersectionLattice(("a", "b"), ((-1, 0), (0, -1)), (0, 0))
    with refuses("hodge-index argument needs signature (1, 1), got (0, 2) with 0 null directions"):
        hodge_index_forced_zero(negative, DivisorClass((0, 0)), DivisorClass((1, 0)))


# ---- the degree-2 quotient ----


def test_symmetric_square_quotient():
    for g in range(2, 7):
        sym = symmetric_square_quotient(product_with_diagonal_lattice(g))
        assert sym == symmetric_square_lattice(g)
        for label in sym.basis_labels:
            y = sym.basis_class(label)
            assert apply_matrix(SYM2_PUSH, apply_matrix(SYM2_PULL, y)) == 2 * y
    assert apply_matrix(SYM2_PULL, DivisorClass((0, 1))) == DivisorClass((0, 0, 1))
    assert apply_matrix(SYM2_PULL, DivisorClass((3, -1))) == DivisorClass((3, 3, -1))
    assert apply_matrix(SYM2_PUSH, DivisorClass((3, 3, -1))) == DivisorClass((6, -2))


def first_projection_failure(source, target, push, pull):
    """The projection formula checked one basis pair at a time, source index first."""
    for i, label in enumerate(source.basis_labels):
        x = source.basis_class(label)
        for j, other in enumerate(target.basis_labels):
            y = target.basis_class(other)
            left = target.intersect(apply_matrix(push, x), y)
            right = source.intersect(x, apply_matrix(pull, y))
            if left != right:
                return f"projection formula fails on basis pair ({i}, {j}): {left} != {right}"
    return None


def test_quotient_checks_the_projection_formula_against_the_gram_it_is_given():
    """Every change of the Gram entries D2^2, D2.Delta and Delta^2 by -1, 0 or 1; D1's row fixes the genus."""
    product, sym = product_with_diagonal_lattice(3), symmetric_square_lattice(3)
    assert first_projection_failure(product, sym, SYM2_PUSH, SYM2_PULL) is None
    refused = 0
    for d22 in (-1, 0, 1):
        for d23 in (-1, 0, 1):
            for d33 in (-1, 0, 1):
                gram = [list(row) for row in product.gram]
                gram[1][1] += d22
                gram[1][2] += d23
                gram[2][1] += d23
                gram[2][2] += d33
                changed = IntersectionLattice(product.basis_labels, gram, product.canonical)
                message = first_projection_failure(changed, sym, SYM2_PUSH, SYM2_PULL)
                if message is None:
                    assert symmetric_square_quotient(changed) == sym
                    continue
                refused += 1
                with refuses(message):
                    symmetric_square_quotient(changed)
    assert refused == 26


def test_rank_mismatches_are_refused():
    lat = product_with_diagonal_lattice(3)
    c, short = DivisorClass((3, 3, -1)), DivisorClass((3, -1))
    for matrix, wrong in ((SYM2_PUSH, short), (SYM2_PULL, c), (lat.gram, short)):
        with refuses(f"matrix columns do not match a class of rank {len(wrong.coeffs)}"):
            apply_matrix(matrix, wrong)
    with refuses("class of rank 2 in a lattice of rank 3"):
        lat.intersect(c, short)
    with refuses("class of rank 2 in a lattice of rank 3"):
        lat.intersect(short, c)
    with refuses("combining classes of ranks 3 and 2"):
        c + short
    with refuses("combining classes of ranks 2 and 3"):
        short - c


def test_correspondence_class_is_d_times_the_rulings_minus_the_diagonal():
    """(f x f)^* Delta_(P^1) = X + Delta = d (D1 + D2) for a simply branched degree-d map f."""
    assert correspondence_class(3, 3) == (product_with_diagonal_lattice(3), DivisorClass((3, 3, -1)))
    assert correspondence_class(2, 3) == (product_with_diagonal_lattice(2), DivisorClass((3, 3, -1)))
    for g in range(1, 9):
        for d in range(2, 6):
            lat, x = correspondence_class(g, d)
            assert lat == product_with_diagonal_lattice(g)
            assert x == d * (lat.basis_class("D1") + lat.basis_class("D2")) - lat.basis_class("Delta")
            assert pairings(lat, x) == (d - 1, d - 1, 2 * g - 2 + 2 * d)


def test_branch_class_chain():
    lat, fiber = correspondence_class(3, 3)
    result = branch_class(lat, fiber)
    assert result.branch == DivisorClass((16, 16, -6))
    assert result.half == DivisorClass((8, 8, -3))
    assert result.involution == ((3, 8), (-1, -3))
    assert result.tau_diagonal == DivisorClass((16, -6))
    assert apply_matrix(result.involution, DivisorClass((0, 1))) == DivisorClass((8, -3))
    assert apply_matrix(result.involution, DivisorClass((0, 2))) == DivisorClass((16, -6))
    assert lat.adjunction_genus(result.branch) == 33
    k = lat.canonical_class()
    assert lat.intersect(k, k) == 32
    assert lat.intersect(result.half, k) == 40
    assert lat.intersect(result.half, result.half) == -4
    with refuses("the branch-class chain is specific to the genus-3 case"):
        branch_class(*correspondence_class(2, 3))


def test_branch_class_of_a_fiber_pushing_to_2_d_p_is_the_identity_involution():
    lat = product_with_diagonal_lattice(3)
    result = branch_class(lat, lat.basis_class("D1") + lat.basis_class("D2"))
    assert result.involution == ((1, 0), (0, 1))
    assert result.tau_diagonal == DivisorClass((0, 2))


def test_branch_class_refuses_a_poisoned_gram():
    """The chain checks the projection formula against the Gram matrix it is given, not a rebuilt one."""
    built = product_with_diagonal_lattice(3)
    gram = [list(row) for row in built.gram]
    gram[2][2] += 1
    poisoned = IntersectionLattice(built.basis_labels, gram, built.canonical)
    with refuses("projection formula fails on basis pair (2, 1): -4 != -3"):
        branch_class(poisoned, DivisorClass((3, 3, -1)))


@pytest.mark.parametrize("fiber, message", [
    ((2, 2, -1), "completed action does not square to the identity"),
    ((-1, -1, 0), "completed action does not preserve the intersection form"),
    ((1, 0, 0), "class (1, 0) is not divisible by 2"),
], ids=["not-an-involution", "not-an-isometry", "odd-pushforward"])
def test_branch_class_refuses_a_fiber_that_gives_no_involution(fiber, message):
    with refuses(message):
        branch_class(product_with_diagonal_lattice(3), DivisorClass(fiber))


def test_halved():
    assert DivisorClass((16, 16, -6)).halved() == DivisorClass((8, 8, -3))
    with refuses("class (1, 2) is not divisible by 2"):
        DivisorClass((1, 2)).halved()


# ---- adjunction inversion ----


def test_adjunction_inverse_matches_formula():
    for g in range(2, 7):
        for p in (3, 5, 7):
            params = CoverParams(g, p)
            assert adjunction_inverse(*cover_genera(params)) == gamma_self_intersection(params)
    assert adjunction_inverse(6, 2) == 2  # (g, p) = (2, 5)
    assert adjunction_inverse(10, 3) == 2  # (4, 3)
    assert adjunction_inverse(7, 2) == 4  # (3, 3)


def test_lattice_imports_no_numerology():
    """The lattice engine reads genera from its callers: importing it loads no ``numerology``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = "import sys, xiaofib.lattice; print('xiaofib.numerology' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={"PYTHONPATH": src}, timeout=60)
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


def test_json_dump():
    lat = symmetric_square_lattice(3)
    data = lat.to_json_dict({"K": lat.canonical_class()})
    assert data["basis"] == ["D_P", "delta"]
    assert data["gram"] == [[1, 1], [1, -2]]
    assert data["canonical"] == [4, -1]
    assert data["classes"]["K"] == [4, -1]
