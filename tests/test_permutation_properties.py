"""Property tests: the permutation kernel against independent references.

Products skip the bijection check, so each one must still pass it when
rebuilt through ``Permutation(...)``.  The composition kernel on image
tuples is compared with the map reference at every degree.  Orders, signs and
groups are compared with references that use neither the cycle-length
memo nor the coset-at-a-time closure; that closure is compared, element
set for element set or refusal for refusal, with the breadth-first one
it replaced, and its first elements with the powers of the first
generator it takes.
Cycle notation is compared with the regular-expression reader it
replaced, and the n-cycle transitivity test with a search over every
permutation.
"""

import random
import time

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from oracles import (  # noqa: E402
    bfs_span,
    brute_closure,
    brute_regular_genus,
    classify_by_orders,
    composition_order,
    coset_quotient_genus,
    even_by_sign,
    identity,
    internal,
    inverse,
    is_dihedral,
    is_transitive,
    permutation_from_cycles,
    rotations_of,
    sign,
)
from xiaofib import monodromy  # noqa: E402
from xiaofib.monodromy import (  # noqa: E402
    BranchedCover,
    EnumerationLimitError,
    MonodromyDataError,
    Permutation,
    build_dihedral_cover,
    cyclic_rotation_subgroup,
    even_subgroup,
    galois_closure_genus,
    generated_group,
    parse_cover,
    quotient_genus,
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
    product = monodromy._right(b)(a)  # one sheet too: a one-index itemgetter returns a bare item
    assert type(product) is tuple and product == tuple(map(b.__getitem__, a))


@PROPERTY
@given(pairs)
def test_products_and_inverses_pass_the_boundary_check(pair):
    a, b = pair
    for result in (a.then(b), b.then(a), a.then(inverse(b))):
        assert Permutation(result.images) == result
    assert a.then(inverse(a)) == identity(a.degree) == inverse(a).then(a)


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
    perms = [p for p in draw(st.lists(permutations_of(n), max_size=3)) if p != identity(n)]
    if perms:
        product = perms[0]
        for q in perms[1:]:
            product = product.then(q)
        if product != identity(n):
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
    assert group.order == len(expected)
    # one permutation per distinct image tuple in first-seen order, led by r, the product of the first two
    distinct = list({sigma.images: sigma for sigma in cover.branch_monodromy}.values())
    r = [distinct[0].then(distinct[1])] if len(distinct) > 1 else []
    assert [g.images for g in cover._generators] == [g.images for g in r + distinct]
    span = monodromy._span(cover._generators, cover.degree, group.order)
    assert {tuple(h) for h in span} == expected
    for h in span:  # every product the closure made passes the bijection check
        assert Permutation(tuple(h)).images == tuple(h)


def relabel(images, sheets):
    """The permutation with these images, its sheets renamed i -> sheets[i]."""
    renamed = [0] * len(images)
    for i, j in enumerate(images):
        renamed[sheets[i]] = sheets[j]
    return Permutation(tuple(renamed))


@st.composite
def labelled_covers(draw):
    """A transitive cover of 2 to 7 sheets whose group may be cyclic, dihedral, symmetric or other.

    Branch permutations are drawn from all of S_n, or from the powers of an
    n-cycle, or from the dihedral group of the n-gon, on relabelled
    sheets.  Half the time the first two are mutually inverse: their
    product is the identity, so the closure takes the first of them first.
    """
    n = draw(st.integers(2, 7))
    sheets = draw(st.permutations(range(n)))
    pool = draw(st.sampled_from(["symmetric", "cyclic", "dihedral"]))
    if pool == "symmetric":
        perms = draw(st.lists(permutations_of(n), min_size=1, max_size=3))
    else:
        words = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, pool == "dihedral")),
                              min_size=1, max_size=3))
        # x -> k +- x (mod n): a rotation, or a reflection of the n-gon
        perms = [relabel([(k + (-x if e else x)) % n for x in range(n)], sheets) for k, e in words]
    perms = [p for p in perms if p != identity(n)]
    assume(perms)
    if draw(st.booleans()):
        perms.insert(1, inverse(perms[0]))
    product = perms[0]
    for q in perms[1:]:
        product = product.then(q)
    if product != identity(n):
        perms.append(inverse(product))
    try:
        return BranchedCover(n, 0, tuple(perms))
    except MonodromyDataError:
        assume(False)


def reflections_of(n, ks):
    return [Permutation(tuple((k - x) % n for x in range(n))) for k in ks]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(labelled_covers())
# D_5 from a rotation and its inverse, then two equal reflections: the closure takes the rotation first
@example(BranchedCover(5, 0, (Permutation((1, 2, 3, 4, 0)), Permutation((4, 0, 1, 2, 3)),
                              *reflections_of(5, (0, 0)))))
@example(BranchedCover(6, 0, (Permutation((1, 2, 3, 4, 5, 0)), Permutation((5, 0, 1, 2, 3, 4)))))  # C_6
@example(parse_cover("degree 4; base_genus 0\n(0 1)\n(0 1)\n(1 2 3)\n(1 3 2)\n"))  # S_4, inverse pair second
def test_the_label_from_the_closures_generators_matches_the_eager_oracle(cover):
    group = generated_group(cover, max_order=5040)  # S_7 passes the default bound
    span = bfs_span(internal(cover.branch_monodromy), cover.degree, 5040)
    elements = [Permutation(tuple(h)) for h in span]
    label = classify_by_orders(elements)
    assert group.classification == label
    assert monodromy._classify(internal(elements), ())[0] == label  # the scan, without generators
    if label == "dihedral":
        rotations = cyclic_rotation_subgroup(group)
        powers = rotations_of(group)
        assert 2 * rotations.order == group.order == 2 * len(powers)
        assert powers <= {e.images for e in elements}
        assert classify_by_orders([Permutation(images) for images in powers]) == "cyclic"


def span_outcome(span, candidates, degree, max_order):
    """The span's element set, or the class of the refusal it raised."""
    try:
        return set(span(list(candidates), degree, max_order))
    except EnumerationLimitError as error:
        return type(error)


def assert_spans_agree(candidates, degree):
    """Dimino's closure of the permutations and the breadth-first one of their images agree at |G| and |G| - 1.

    Dimino's keys start with the identity and the powers of the first
    candidate that is not the identity: the one it takes first.
    """
    perms = [Permutation(tuple(h)) for h in candidates]
    group = bfs_span(candidates, degree, 10**6)
    keys = [tuple(h) for h in monodromy._span(perms, degree, len(group))]
    assert set(keys) == {tuple(h) for h in group}
    first = next((g for g in perms if g != identity(degree)), None)
    powers = [identity(degree)]
    while first and powers[-1].then(first) != powers[0]:
        powers.append(powers[-1].then(first))
    assert keys[:len(powers)] == [g.images for g in powers]
    for max_order in (len(group) - 1, len(group)):
        assert span_outcome(monodromy._span, perms, degree, max_order) == span_outcome(
            bfs_span, candidates, degree, max_order
        )


@st.composite
def generator_lists(draw):
    """Image tuples of S_1 .. S_7, with the identity, repeats or an inverse pair mixed in."""
    n = draw(st.integers(1, 7))
    perms = draw(st.lists(permutations_of(n), max_size=4))
    for extra in draw(st.lists(st.sampled_from(["identity", "repeat", "inverse"]), max_size=3)):
        if extra == "identity":
            perms.append(Permutation(tuple(range(n))))
        elif perms:
            chosen = draw(st.sampled_from(perms))
            perms.append(chosen if extra == "repeat" else inverse(chosen))
    perms = draw(st.permutations(perms))
    return n, internal(perms)


@PROPERTY
@given(generator_lists())
@example((3, [(1, 2, 0), (2, 0, 1)]))  # an inverse pair: the product is the identity
@example((1, [(0,)]))
def test_span_matches_the_breadth_first_closure(case):
    degree, candidates = case
    assert_spans_agree(candidates, degree)


@st.composite
def small_groups(draw):
    """Image tuples generating a subgroup of S_3 .. S_6: random permutations and involutions.

    Two involutions generate a dihedral group, so dihedral groups of many
    orders come up, and so do groups of order 2m that are not dihedral.
    """
    n = draw(st.integers(3, 6))
    generators = []
    for involution in draw(st.lists(st.booleans(), min_size=1, max_size=3)):
        points = draw(st.permutations(range(n)))
        if involution:  # k disjoint transpositions
            k = draw(st.integers(1, n // 2))
            images = list(range(n))
            for a, b in zip(points[:k], points[k:2 * k]):
                images[a], images[b] = b, a
            points = images
        generators.append(tuple(points))
    return n, generators


def twisted(m, twist):
    """C_m x| C_2 with s r s = r^twist, acting on its elements r^k s^e = 2k + e by right multiplication.

    The generators are right multiplication by r and by s.  The group is
    dihedral exactly when twist = -1 (mod m); for m = 8, twist 3 gives the
    semidihedral and twist 5 the modular group, where s is an involution
    outside <r> that does not invert r.
    """
    def times(h, g):
        (k, e), (l, f) = divmod(h, 2), divmod(g, 2)
        return 2 * ((k + l * twist ** e) % m) + (e ^ f)

    return 2 * m, [tuple(times(h, g) for h in range(2 * m)) for g in (2, 1)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(small_groups(), st.randoms(use_true_random=False))
@example(twisted(8, 7), random.Random(0))
@example(twisted(8, 3), random.Random(0))
@example(twisted(8, 5), random.Random(0))
@example((4, [(1, 2, 3, 0), (0, 3, 2, 1)]), random.Random(0))  # D_4 on a square
@example((5, [(1, 2, 0, 3, 4), (1, 0, 2, 3, 4), (0, 1, 2, 4, 3)]), random.Random(0))  # S_3 x C_2, that is D_6
@example((6, [(1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)]), random.Random(0))  # C_4 x C_2: every element commutes
def test_the_dihedral_label_matches_a_search_over_every_pair_of_elements(case, rng):
    """The first rotation and the first element not commuting with it decide as every pair does."""
    degree, generators = case
    elements = [Permutation(images) for images in brute_closure(generators, degree)]
    rng.shuffle(elements)
    label, rotation = monodromy._classify(internal(elements), ())
    assert (label == "dihedral") == is_dihedral(elements) == (rotation is not None)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([251, 257]), st.randoms(use_true_random=False))
def test_span_matches_the_breadth_first_closure_on_dihedral_covers(p, rng):
    """Reflections of Z/p, shuffled."""
    candidates = internal(build_dihedral_cover(2, p).branch_monodromy)
    rng.shuffle(candidates)
    assert_spans_agree(candidates, p)


# ---- groups named from their generators against the enumerated ones ----

NAMED = ("reflections", "transpositions")


def generator_cover(kind: str, size: int, seed: int) -> BranchedCover:
    """A cover of ``size`` sheets, relabelled at random, whose generators name its group or must not.

    Named: two reflections x -> 1 - x and x -> -x of Z/m (D_m), and each
    edge of a random tree twice (S_n, n >= 4).  Declined: the Klein four
    group, a cyclic group from c, c and c^-2, A_n from 3-cycles and their
    inverses, D_m from a rotation, its inverse and a reflection, and S_3
    from three transpositions.
    """
    rng = random.Random(seed)
    sheets = list(range(size))
    rng.shuffle(sheets)

    def power(k):  # x -> x + k (mod size)
        return [(x + k) % size for x in range(size)]

    def swaps(*pairs):
        images = list(range(size))
        for a, b in pairs:
            images[a], images[b] = b, a
        return images

    if kind == "reflections":
        reflection = [(1 - x) % size for x in range(size)]
        words = [reflection] * 2 + [[-x % size for x in range(size)]] * 2 * rng.randint(1, 3)
    elif kind == "transpositions":
        edges = [(i, rng.randrange(i)) for i in range(1, size)]
        rng.shuffle(edges)
        words = [swaps(e) for e in (edges + edges[::-1] if rng.randrange(2) else [e for e in edges for _ in (0, 1)])]
    elif kind == "klein-four":
        words = [swaps((0, 1), (2, 3))] * 2 + [swaps((0, 2), (1, 3))] * 2
    elif kind == "cyclic":
        words = [power(1), power(1), power(-2)]
    elif kind == "three-cycles":
        words = []
        for i in range(size - 2):  # (i i+1 i+2) and its inverse
            cycle = list(range(size))
            cycle[i], cycle[i + 1], cycle[i + 2] = i + 1, i + 2, i
            words += [cycle, [cycle.index(x) for x in range(size)]]
    elif kind == "rotation-and-reflection":
        words = [power(1), power(-1)] + [[-x % size for x in range(size)]] * 2
    else:  # "s3-transpositions"
        words = [swaps(e) for e in ((0, 1), (1, 2), (0, 2)) for _ in (0, 1)]
    return BranchedCover(size, rng.randint(0, 2), tuple(relabel(images, sheets) for images in words))


generator_cases = st.tuples(
    st.one_of(
        st.tuples(st.just("reflections"), st.sampled_from([3, 5, 7, 11, 13, 17, 4, 6, 9, 12, 15])),
        st.tuples(st.just("transpositions"), st.integers(4, 7)),
        st.tuples(st.just("klein-four"), st.just(4)),
        st.tuples(st.just("cyclic"), st.integers(3, 9)),
        st.tuples(st.just("three-cycles"), st.integers(4, 6)),
        st.tuples(st.just("rotation-and-reflection"), st.integers(3, 9)),
        st.tuples(st.just("s3-transpositions"), st.just(3)),
    ),
    st.integers(0, 10**6),
).map(lambda case: (*case[0], case[1]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(generator_cases)
@example(("reflections", 5, 1))  # p = 1 (mod 4): every reflection is even
@example(("reflections", 7, 1))  # p = 3 (mod 4): every reflection is odd
@example(("reflections", 257, 1))
@example(("reflections", 9, 1))  # composite m
@example(("reflections", 12, 1))  # composite m, one even and one odd reflection
@example(("transpositions", 7, 1))  # S_7, above the default bound
@example(("klein-four", 4, 1))
@example(("cyclic", 7, 1))
@example(("three-cycles", 5, 1))
@example(("rotation-and-reflection", 8, 1))
@example(("s3-transpositions", 3, 1))
def test_a_named_group_answers_as_the_enumerated_one(case):
    """Order, label, both cuts and both genera, read before any element, against the references."""
    kind, size, seed = case
    bound = 5040  # S_7
    cover = generator_cover(kind, size, seed)
    closures = []
    with pytest.MonkeyPatch.context() as patch:
        closure = monodromy._span
        patch.setattr(monodromy, "_span", lambda *args: closures.append(args) or closure(*args))
        group = generated_group(cover, bound)
        assert len(closures) == (kind not in NAMED)
        evens = even_subgroup(group)
        answers = [group.order, group.classification, evens.order,
                   quotient_genus(cover, evens), galois_closure_genus(cover)]
        if group.classification == "dihedral":
            rotations = cyclic_rotation_subgroup(group)
            answers += [rotations.order, quotient_genus(cover, rotations)]
    assert len(closures) == (kind not in NAMED)  # no answer enumerated a named group

    span = bfs_span(internal(cover.branch_monodromy), size, bound)
    elements = [Permutation(tuple(h)) for h in span]
    label = classify_by_orders(elements)
    even = {e.images for e in even_by_sign(elements)}
    expected = [len(span), label, len(even), coset_quotient_genus(cover, even), brute_regular_genus(cover)]
    if label == "dihedral":  # for m >= 3 an element of order m generates the rotations
        r = next(e for e in elements if 2 * e.order() == len(span))
        rotations = set(bfs_span([r.images], size, bound))
        expected += [len(rotations), coset_quotient_genus(cover, rotations)]
    assert answers == expected


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


# ---- cycle notation and transitivity against the readers and searches they replaced ----


def parsed_or_refused(parse, text, degree):
    """The images a parser reads, or the class of the exception it raised."""
    try:
        return parse(text, degree).images
    except Exception as error:  # noqa: BLE001 - the class is the outcome compared
        return type(error)


separators = st.sampled_from(["", " ", ",", ", ", " , ", "\t", "\x0b", "\x1c", ",,", " \t "])
between_cycles = st.sampled_from(["", "", "", " ", "\t", "\x0b", "\x1c", ","])  # a comma there is refused


@st.composite
def cycle_texts(draw):
    """(text, degree) over the characters of cycle notation and some whitespace.

    Half are any text over that alphabet, nearly all refused; half are
    disjoint cycles, now and then reaching one sheet past the range or
    repeating a sheet, with drawn separators after every parenthesis
    and entry, so most parse.
    """
    degree = draw(st.integers(0, 12))
    if draw(st.booleans()):
        return draw(st.text(alphabet="()0123456789, \t\x0b\x1c", max_size=30)), degree
    sheets = draw(st.permutations(range(degree + (draw(st.integers(0, 3)) == 0))))
    cycles = []
    for size in draw(st.lists(st.integers(0, 5), min_size=1, max_size=4)):
        cycles.append(sheets[:size])
        sheets = sheets[size:]
    if cycles and cycles[0] and draw(st.integers(0, 3)) == 0:
        cycles.append(cycles[0][-1:])
    text = "".join(
        "(" + draw(separators) + "".join(f"{i}{draw(separators.filter(bool))}" for i in c) + ")" + draw(between_cycles)
        for c in cycles
    )
    return text, degree


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(cycle_texts())
@example(("( 0 , 1 )(2\t3)", 4))
@example(("(0 1)(1 2)", 3))
@example(("(0\x1c1)\x0b", 2))
@example(("(" + "9" * 4400 + ")", 3))
@example(("", 0))
def test_from_cycles_matches_the_regular_expression_reader(case):
    text, degree = case
    assert parsed_or_refused(Permutation.from_cycles, text, degree) == parsed_or_refused(
        permutation_from_cycles, text, degree
    )


line_variants = st.sampled_from(["({} {})", "( {} , {} )", "({},{})", "(\t{}  {})", " ({} {}) "])


@st.composite
def tree_cover_texts(draw):
    """A cover file of a random labelled tree on 2-6 sheets: each edge on two adjacent lines, each spelled as drawn."""
    n = draw(st.integers(2, 6))
    edges = draw(st.permutations([(draw(st.integers(0, i - 1)), i) for i in range(1, n)]))
    lines = [draw(line_variants).format(a, b) for a, b in edges for _ in range(2)]
    return n, lines


@PROPERTY
@given(tree_cover_texts())
@example((3, ["(0 1)", "( 0 , 1 )", "(1 2)", "(1 2)"]))
def test_a_cover_file_parses_each_distinct_line_once(case):
    """Repeated and whitespace-variant lines: the cover equals the one parsed line by line."""
    n, lines = case
    cover = parse_cover(f"degree {n}; base_genus 0\n" + "\n".join(lines) + "\n")
    expected = BranchedCover(n, 0, tuple(permutation_from_cycles(line, n) for line in lines))
    assert cover == expected and hash(cover) == hash(expected)
    shared = {}
    for line, sigma in zip(lines, cover.branch_monodromy):
        assert shared.setdefault(line.strip(), sigma) is sigma  # one object per distinct line


def cycle_of(order) -> Permutation:
    """The n-cycle visiting the sheets in this order."""
    images = [0] * len(order)
    for i, j in zip(order, order[1:] + order[:1]):
        images[i] = j
    return Permutation(tuple(images))


@st.composite
def branch_lists(draw):
    """Branch permutations of 1-8 sheets multiplying to the identity, connected or not.

    ``ncycle``: the first two multiply to an n-cycle; ``split``: every
    permutation keeps the sheets below k together, so the cover is
    disconnected; ``any``: permutations drawn from all of S_n.
    """
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["ncycle", "split", "any"] if n > 1 else ["any"]))
    if kind == "split":
        k = draw(st.integers(1, n - 1))
        halves = st.tuples(st.permutations(range(k)), st.permutations(range(k, n)))
        perms = [Permutation((*low, *high)) for low, high in draw(st.lists(halves, max_size=3))]
    else:
        perms = draw(st.lists(permutations_of(n), max_size=3))
    if kind == "ncycle":
        a = draw(permutations_of(n))
        perms[:0] = [a, inverse(a).then(cycle_of(draw(st.permutations(range(n)))))]
    product = Permutation(tuple(range(n)))
    for q in perms:
        product = product.then(q)
    perms = [q for q in perms + [inverse(product)] if q != identity(n)]
    return n, perms


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(branch_lists())
@example((5, [cycle_of([0, 1, 2, 3, 4]), inverse(cycle_of([0, 1, 2, 3, 4]))]))  # r is the identity
@example((5, list(build_dihedral_cover(2, 5).branch_monodromy)))  # r is a 5-cycle
@example((4, [Permutation((1, 0, 2, 3))] * 2 + [Permutation((0, 2, 1, 3))] * 2 + [Permutation((0, 1, 3, 2))] * 2))
@example((4, [Permutation((1, 0, 2, 3))] * 2 + [Permutation((0, 1, 3, 2))] * 2))  # disconnected
def test_transitivity_matches_the_forward_image_search(case):
    """The n-cycle test on r, or else the forward-image walk, decides as a search over every permutation does."""
    n, perms = case
    try:
        BranchedCover(n, 0, tuple(perms))
    except MonodromyDataError as error:
        assert "not transitive" in str(error)
        assert not is_transitive(perms, n)
    else:
        assert is_transitive(perms, n)
