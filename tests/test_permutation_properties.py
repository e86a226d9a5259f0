"""Property tests: the permutation kernel against independent references.

Products skip the bijection check, so each one must still pass it when
rebuilt through ``Permutation(...)``.  The composition kernel on group
elements is compared with the map reference on both of its forms,
byte strings up to 256 sheets and tuples above.  Orders, signs and
groups are compared with references that use neither the cycle-length
memo nor the greedy span.
"""

import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from oracles import brute_closure, composition_order, inverse, sign  # noqa: E402
from xiaofib import monodromy  # noqa: E402
from xiaofib.monodromy import (  # noqa: E402
    BranchedCover,
    EnumerationLimitError,
    MonodromyDataError,
    Permutation,
    generated_group,
    parse_cover,
)

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def permutations_of(n: int):
    return st.permutations(range(n)).map(lambda images: Permutation(tuple(images)))


degrees = st.integers(1, 12)
single = degrees.flatmap(permutations_of)
pairs = degrees.flatmap(lambda n: st.tuples(permutations_of(n), permutations_of(n)))


@PROPERTY
@given(pairs)
def test_then_matches_the_map_reference(pair):
    a, b = pair
    assert a.then(b).images == tuple(map(b.images.__getitem__, a.images))


@PROPERTY
@given(st.one_of(st.integers(1, 3), st.integers(250, 262)).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
@example(((0,), (0,)))
@example((tuple(range(255, -1, -1)), tuple(range(1, 256)) + (0,)))
@example((tuple(range(256, -1, -1)), tuple(range(1, 257)) + (0,)))
def test_kernel_matches_the_map_reference_on_both_sides_of_256_sheets(pair):
    a, b = map(tuple, pair)
    first, second = monodromy._element(a), monodromy._element(b)
    assert type(first) is (bytes if len(a) <= 256 else tuple)
    product = monodromy._right(second)(first)
    assert type(product) is type(first) and tuple(product) == tuple(map(b.__getitem__, a))


@PROPERTY
@given(pairs)
def test_products_and_inverses_pass_the_boundary_check(pair):
    a, b = pair
    for result in (a.then(b), b.then(a), a.then(inverse(b))):
        assert Permutation(result.images) == result
    assert a.then(inverse(a)).is_identity() and inverse(a).then(a).is_identity()


@PROPERTY
@given(single)
def test_order_is_the_repeated_composition_count(p):
    assert p.order() == composition_order(p)


@PROPERTY
@given(single)
def test_sign_is_the_parity_of_the_inversion_count(p):
    images = p.images
    inversions = sum(images[i] > images[j] for i in range(p.degree) for j in range(i + 1, p.degree))
    assert sign(p) == (-1) ** inversions


@PROPERTY
@given(single)
def test_memoised_cycle_type_is_invisible_to_equality_and_hash(p):
    fresh = Permutation(p.images)
    p.order()
    assert p._cycle_type is not None and fresh._cycle_type is None
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    assert len({p, fresh}) == 1
    assert fresh.cycle_type() == p.cycle_type() and sum(p.cycle_type()) == p.degree


def test_images_must_be_integers():
    for images in ((1.0, 0.0), (True, False), ("1", "0"), (0, 1.0)):
        with pytest.raises(MonodromyDataError, match="integers"):
            Permutation(images)
    assert Permutation((1, 0)).order() == 2


@st.composite
def covers(draw):
    """A transitive cover: random branch permutations closed up by the inverse of their product."""
    n = draw(st.integers(1, 6))
    perms = [p for p in draw(st.lists(permutations_of(n), max_size=3)) if not p.is_identity()]
    if perms:
        product = perms[0]
        for q in perms[1:]:
            product = product.then(q)
        if not product.is_identity():
            perms.append(inverse(product))
    try:
        return BranchedCover(n, 0, tuple(perms))
    except MonodromyDataError:
        assume(False)


@PROPERTY
@given(covers())
@example(BranchedCover(1, 0, ()))
@example(BranchedCover(2, 0, (Permutation((1, 0)),) * 2))
@example(BranchedCover(2, 0, (Permutation((1, 0)),) * 4))
def test_generated_group_matches_the_breadth_first_closure(cover):
    group = generated_group(cover)
    expected = brute_closure([sigma.images for sigma in cover.branch_monodromy], cover.degree)
    assert [e.images for e in group.elements] == sorted(expected)
    assert group.order == len(expected)
    for element in group.elements:
        assert Permutation(element.images) == element


# ---- parse_cover fuzz: a cover or a documented error, within a second ----

numerals = st.one_of(
    st.integers(0, 12).map(str),
    st.integers(0, 10**12).map(str),
    st.integers(4290, 4400).map(lambda k: "9" * k),  # around the interpreter's conversion limit
)
cycles = st.lists(numerals, max_size=5).map(lambda entries: "(" + " ".join(entries) + ")")
cycle_lines = st.one_of(
    st.lists(cycles, max_size=3).map("".join),
    st.text(alphabet="()0123456789 ,-x;", max_size=30),
)
cover_texts = st.one_of(
    st.text(max_size=200),
    st.builds(
        lambda n, g, lines, sep: f"degree {n}; base_genus {g}{sep}" + sep.join(lines),
        st.one_of(st.integers(0, 8).map(str), numerals),
        numerals,
        st.lists(cycle_lines, max_size=8),
        st.sampled_from(["\n", "\r\n", "\n\n"]),
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cover_texts)
@example("degree 5000; base_genus 0\n" + "(0 1)\n" * 8)
@example("degree " + "9" * 5000 + "; base_genus 0\n(0 1)\n(0 1)\n")
def test_parse_cover_returns_a_cover_or_a_documented_error(text):
    start = time.perf_counter()
    try:
        cover = parse_cover(text)
    except (MonodromyDataError, EnumerationLimitError):
        pass
    else:
        assert isinstance(cover, BranchedCover)
    assert time.perf_counter() - start < 1.0
