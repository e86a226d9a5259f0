import math
import random

import pytest

from corpus import D4_ROTATION_INVOLUTION, KLEIN_FOUR, NON_ASCII_HEADER, S5_CYCLE_AND_SWAP, run_cli
from oracles import (
    brute_closure,
    brute_regular_genus,
    classify_by_orders,
    composition_order,
    coset_quotient_genus,
    cycle_string,
    cycles,
    even_by_sign,
    identity,
    internal,
    inverse,
    is_transitive,
    plain_product,
    pointwise_rh_genus,
    rotations_of,
    sign,
)
from xiaofib import monodromy
from xiaofib.monodromy import (
    BranchedCover,
    EnumerationLimitError,
    GroupDescriptor,
    MonodromyDataError,
    Permutation,
    build_dihedral_cover,
    cyclic_rotation_subgroup,
    even_subgroup,
    galois_closure_genus,
    generated_group,
    load_cover,
    parse_cover,
    quotient_genus,
    ramification_profile,
    rh_genus,
)


def transposition(a, b, n=3):
    images = list(range(n))
    images[a], images[b] = b, a
    return Permutation(tuple(images))


def trigonal_cover():
    """Ten simple branch points on a degree-3 cover, full S3 monodromy."""
    t01 = transposition(0, 1)
    t12 = transposition(1, 2)
    return BranchedCover(3, 0, (t01, t01, t12, t12, t01, t01, t12, t12, t01, t01))


# ---- permutation algebra ----


def test_permutation_rejects_non_bijection():
    with pytest.raises(MonodromyDataError):
        Permutation((0, 0, 2))


def test_composition_is_left_to_right():
    a = Permutation((1, 0, 2))  # (0 1)
    b = Permutation((0, 2, 1))  # (1 2)
    assert a.then(b).images == (2, 0, 1)  # 0 -> 1 -> 2
    assert b.then(a).images == (1, 2, 0)


def test_inverse_order_sign():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 8)
        images = list(range(n))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        assert p.then(inverse(p)) == identity(n)
        assert inverse(p).then(p) == identity(n)
        assert sorted(map(len, cycles(p)), reverse=True) == list(p.cycle_type())
        assert sum(p.cycle_type()) == n
        q = p
        for _ in range(p.order() - 1):
            q = q.then(p)
        assert q == identity(n)
        assert sign(p) in (-1, 1)


def test_cycle_notation_roundtrip():
    p = Permutation.from_cycles("(0 1)(2 3)", 5)
    assert p.images == (1, 0, 3, 2, 4)
    assert Permutation.from_cycles(" ( 0 1 ) ( 2 3 ) ", 5) == p
    assert Permutation.from_cycles(cycle_string(p), 5) == p
    assert Permutation.from_cycles("()", 3) == identity(3)
    with pytest.raises(MonodromyDataError):
        Permutation.from_cycles("(0 1)(1 2)", 3)  # repeated index
    with pytest.raises(MonodromyDataError):
        Permutation.from_cycles("(0 7)", 3)
    with pytest.raises(MonodromyDataError):
        Permutation.from_cycles("0 1", 3)


# ---- cover validation ----


def test_cover_rejects_bad_data():
    t = transposition(0, 1)
    with pytest.raises(MonodromyDataError):
        BranchedCover(3, 0, (t,))  # product not identity
    with pytest.raises(MonodromyDataError):
        BranchedCover(3, 0, (t, t, identity(3)))  # identity branch
    far = transposition(0, 1, 4)
    with pytest.raises(MonodromyDataError):
        BranchedCover(4, 0, (far, far))  # sheet 2, 3 unreachable: disconnected
    with pytest.raises(MonodromyDataError):
        BranchedCover(3, -1, (t, t))


# ---- the branch word as runs ----

PRODUCT_NOT_ONE = "branch monodromy product is not the identity"


@pytest.mark.parametrize("copies", [1, 2, 4, 5])
def test_a_run_whose_residue_is_not_zero_and_whose_product_is_not_one_is_refused(copies):
    """(0 1 2) four or five times leaves its residue, once or twice: not the identity."""
    with pytest.raises(MonodromyDataError, match=f"^{PRODUCT_NOT_ONE}$"):
        BranchedCover(3, 0, (Permutation((1, 2, 0)),) * copies)


@pytest.mark.parametrize("copies", [3, 6])
def test_a_run_of_whole_orders_is_accepted_without_a_composition(monkeypatch, copies):
    thens = counting(monkeypatch, Permutation, "then")
    cover = BranchedCover(3, 0, (Permutation((1, 2, 0)),) * copies)
    assert thens["n"] == 0
    assert rh_genus(cover) == pointwise_rh_genus(cover) == copies - 2


def test_a_repeat_apart_is_a_run_of_its_own():
    """(0 1)(1 2)(0 1)(1 2) is a 3-cycle squared; merged into (0 1)^2 (1 2)^2 it would read 1."""
    a, b = transposition(0, 1), transposition(1, 2)
    with pytest.raises(MonodromyDataError, match=PRODUCT_NOT_ONE):
        BranchedCover(3, 0, (a, b, a, b))
    cover = BranchedCover(3, 0, (a, b) * 3)
    assert [k for _, k in cover._runs] == [1] * 6
    assert rh_genus(cover) == pointwise_rh_genus(cover) == 1


def random_word(rng):
    """A branch word of short and long runs over a few permutations of 2 to 5 sheets.

    One permutation comes twice, as distinct objects with equal images.
    Half the time the inverse of the product closes the word.
    """
    n = rng.randint(2, 5)
    pool = []
    while len(pool) < 2:
        images = list(range(n))
        rng.shuffle(images)
        if images != list(range(n)):
            pool.append(Permutation(tuple(images)))
    pool.append(Permutation(pool[0].images))
    word = []
    for _ in range(rng.randint(1, 6)):
        word += [rng.choice(pool)] * rng.choice((1, 2, 3, rng.randint(4, 40)))
    closing = inverse(Permutation(plain_product(word, n)))
    if rng.randrange(2) and closing != identity(n):
        word.append(closing)
    return n, tuple(word)


@pytest.mark.parametrize("seed", [101, 103, 107])
def test_the_run_length_check_and_genera_match_the_plain_product(monkeypatch, seed):
    """Same refusal and genera as one term per letter, and never more compositions than the plain product and r."""
    rng = random.Random(seed)
    thens = counting(monkeypatch, Permutation, "then")
    accepted = 0
    for _ in range(60):
        n, word = random_word(rng)
        one = plain_product(word, n) == tuple(range(n))
        before = thens["n"]
        try:
            cover, refusal = BranchedCover(n, 0, word), None
        except MonodromyDataError as error:
            refusal = str(error)
        assert thens["n"] - before <= len(word)  # len(word) - 1 for the plain product, 1 for r
        if not one:
            assert refusal == PRODUCT_NOT_ONE
            continue
        if not is_transitive(word, n):
            assert refusal == "monodromy group is not transitive: cover is disconnected"
            continue
        assert refusal is None
        accepted += 1
        group = generated_group(cover)
        assert rh_genus(cover) == pointwise_rh_genus(cover)
        assert galois_closure_genus(cover) == brute_regular_genus(cover)
        evens = even_by_sign(elements_of(cover))
        assert quotient_genus(cover, even_subgroup(group)) == coset_quotient_genus(cover, images_of(evens))
        if group.classification == "dihedral":
            rotations = cyclic_rotation_subgroup(group)
            assert quotient_genus(cover, rotations) == coset_quotient_genus(cover, rotations_of(group))
    assert 10 <= accepted <= 50


# ---- Riemann-Hurwitz ----


def test_rh_genus_examples():
    # ten transpositions on three sheets: the plane-quartic projection curve
    assert rh_genus(trigonal_cover()) == 3
    # identity cover of the line
    assert rh_genus(BranchedCover(1, 0, ())) == 0
    # six reflections on five sheets, cycle type (2, 2, 1)
    assert rh_genus(build_dihedral_cover(2, 5)) == 2


def test_rh_total_is_always_even_for_valid_covers():
    rng = random.Random(11)
    for g in range(2, 7):
        for p in (3, 5, 7, 11):
            cover = build_dihedral_cover(g, p)
            n = cover.degree
            total = sum(n - len(cycles(s)) for s in cover.branch_monodromy)
            assert total % 2 == 0
    for _ in range(20):
        # random tuples closed up by the inverse of their product
        n = rng.randint(2, 6)
        perms = []
        for _ in range(rng.randint(1, 4)):
            images = list(range(n))
            rng.shuffle(images)
            if images != list(range(n)):
                perms.append(Permutation(tuple(images)))
        if not perms:
            continue
        product = perms[0]
        for q in perms[1:]:
            product = product.then(q)
        if product != identity(n):
            perms.append(inverse(product))
        try:
            cover = BranchedCover(n, 0, tuple(perms))
        except MonodromyDataError:
            continue  # disconnected sample
        total = sum(n - len(cycles(s)) for s in cover.branch_monodromy)
        assert total % 2 == 0
        assert rh_genus(cover) >= 0


# ---- group enumeration and classification ----


def test_generated_group_examples():
    group = generated_group(trigonal_cover())
    assert group.order == 6
    assert group.classification == "dihedral"  # D_3 is S_3

    # six transpositions generating all of S_3
    t01, t12, t02 = transposition(0, 1), transposition(1, 2), transposition(0, 2)
    six = BranchedCover(3, 0, (t01, t01, t12, t12, t02, t02))
    small = generated_group(six)
    assert (small.order, small.classification) == (6, "dihedral")

    cycle = Permutation((1, 2, 3, 4, 0))
    cyclic_cover = BranchedCover(5, 0, (cycle, cycle, cycle, cycle, cycle))
    assert generated_group(cyclic_cover).classification == "cyclic"

    d5 = generated_group(build_dihedral_cover(2, 5))
    assert (d5.order, d5.classification) == (10, "dihedral")
    brute = brute_closure([p.images for p in build_dihedral_cover(2, 5).branch_monodromy], 5)
    assert d5.order == len(brute) and len(rotations_of(d5)) == 5 and rotations_of(d5) <= brute


def test_symmetric_classification():
    t01 = transposition(0, 1, 4)
    t12 = transposition(1, 2, 4)
    t23 = transposition(2, 3, 4)
    cover = BranchedCover(4, 0, (t01, t12, t23, t23, t12, t01))
    group = generated_group(cover)
    assert (group.order, group.classification) == (24, "symmetric")


def test_enumeration_limit():
    with pytest.raises(EnumerationLimitError):
        generated_group(trigonal_cover(), max_order=4)
    with pytest.raises(EnumerationLimitError):
        generated_group(trigonal_cover(), max_order=5)
    assert generated_group(trigonal_cover(), max_order=6).order == 6


def test_group_invariant_under_conjugation():
    rng = random.Random(3)
    cover = build_dihedral_cover(3, 5)
    base = generated_group(cover)
    for _ in range(5):
        images = list(range(cover.degree))
        rng.shuffle(images)
        c = Permutation(tuple(images))
        conjugated = tuple(inverse(c).then(s).then(c) for s in cover.branch_monodromy)
        moved = generated_group(BranchedCover(cover.degree, 0, conjugated))
        assert (moved.order, moved.classification) == (base.order, base.classification)


# ---- Galois closure and quotients ----


def test_galois_closure_examples():
    assert galois_closure_genus(trigonal_cover()) == 10
    cycle = Permutation((1, 2, 0))
    cyclic_cover = BranchedCover(3, 0, (cycle, cycle, cycle))
    assert galois_closure_genus(cyclic_cover) == rh_genus(cyclic_cover) == 1
    assert galois_closure_genus(build_dihedral_cover(2, 5)) == 6


def test_regular_cover_oracle_on_symmetric_groups():
    t01 = transposition(0, 1, 4)
    t12 = transposition(1, 2, 4)
    t23 = transposition(2, 3, 4)
    s4_cover = BranchedCover(4, 0, (t01, t12, t23, t23, t12, t01))
    assert galois_closure_genus(s4_cover) == brute_regular_genus(s4_cover)
    s3_cover = trigonal_cover()
    assert galois_closure_genus(s3_cover) == brute_regular_genus(s3_cover)


def test_quotient_examples():
    cover = trigonal_cover()
    group = generated_group(cover)
    assert quotient_genus(cover, even_subgroup(group)) == 4
    assert quotient_genus(cover, group) == 0
    d5_cover = build_dihedral_cover(2, 5)
    rotations = cyclic_rotation_subgroup(generated_group(d5_cover))
    assert quotient_genus(d5_cover, rotations) == 2


NOT_CUT = "neither this cover's group nor cut from it"


def refused(call, *args, match=NOT_CUT):
    """Assert that ``call(*args)`` raises a one-line ``MonodromyDataError`` matching ``match``."""
    with pytest.raises(MonodromyDataError, match=match) as refusal:
        call(*args)
    assert "\n" not in str(refusal.value)


def cut_by_hand(order, elements):
    """A descriptor that says it holds ``elements``, built by the constructor and cut from nothing."""
    return GroupDescriptor(order, "other", inside=set(internal(elements)))


def elements_of(cover):
    """The cover's monodromy group as permutations, closed by the breadth-first oracle."""
    return [Permutation(t) for t in sorted(brute_closure([s.images for s in cover.branch_monodromy], cover.degree))]


def test_quotient_containment_error():
    """A descriptor holding an element outside the group is refused like any the module did not cut."""
    cover = build_dihedral_cover(2, 5)
    refused(quotient_genus, cover, cut_by_hand(2, (identity(5), Permutation((1, 0, 2, 3, 4)))))


def test_quotient_rejects_non_subgroups():
    cover = build_dihedral_cover(2, 5)
    group = generated_group(cover)
    elements = elements_of(cover)
    reflections = [e for e in elements if e.order() == 2]
    refused(quotient_genus, cover, cut_by_hand(len(reflections), reflections))
    # subgroups of every index built by the constructor are refused too, and so is a copy of the group
    rotations = [e for e in elements if e.order() != 2]
    for subset in ((identity(5),), rotations, elements):
        refused(quotient_genus, cover, cut_by_hand(len(subset), subset))
    refused(quotient_genus, cover, GroupDescriptor(10, "dihedral", group._rotation, generators=group._generators))
    # a descriptor built by the constructor holds no generators: its rotation cut is refused alike
    refused(quotient_genus, cover, cyclic_rotation_subgroup(GroupDescriptor(10, "dihedral", group._rotation)))


def test_quotient_rejects_identity_holding_non_subgroups():
    """Sets that hold the identity are refused before any closure is taken."""
    cover = build_dihedral_cover(2, 5)
    r = Permutation(tuple(generated_group(cover)._rotation))
    refused(quotient_genus, cover, cut_by_hand(3, (identity(5), r, r.then(r))))
    # {1, a, b, ab} for non-commuting involutions: ab * b and a * ab stay inside, b * a does not
    s3_cover = trigonal_cover()
    a, b = transposition(0, 1), transposition(1, 2)
    refused(quotient_genus, s3_cover, cut_by_hand(4, (identity(3), a, b, a.then(b))))


def counting_compositions(monkeypatch):
    """Count compositions of group elements, each a call of a map that ``_right`` made."""
    calls = {"n": 0}
    kernel = monodromy._right

    def counted(second):
        compose = kernel(second)

        def composition(first):
            calls["n"] += 1
            return compose(first)

        return composition

    monkeypatch.setattr(monodromy, "_right", counted)
    return calls


S6_CHAIN = "degree 6; base_genus 0\n" + "".join(f"({i} {i + 1})\n" * 2 for i in range(5))


def public_copy(group):
    """The same order, label and rotation through the constructor: a descriptor the module did not cut."""
    return GroupDescriptor(group.order, group.classification, group._rotation)


def test_closure_composes_each_element_about_once(monkeypatch):
    """Whole cosets at a time: one composition per element, plus one per coset and generator.

    Transpositions name S_6, so its order costs no composition; the
    closure of the same generators is counted on its own.
    """
    cover = parse_cover(S6_CHAIN)
    calls = counting_compositions(monkeypatch)
    group = generated_group(cover)
    assert group.order == 720 and calls["n"] == 0
    assert len(monodromy._span(cover._generators, 6, 720)) == 720
    assert 0 < calls["n"] < 2 * 720  # breadth first, every element met every generator: about 720 x 5


def test_a_named_tower_never_enumerates(monkeypatch):
    """D_151 from two reflections, S_6 from transpositions, and every tower of the ledger."""
    from xiaofib import monodromy
    from xiaofib.ledger import verify_paper

    def no_closure(*args):
        raise AssertionError("enumerated a group its generators name")

    monkeypatch.setattr(monodromy, "_span", no_closure)
    assert tower(build_dihedral_cover(10, 151)) == (675, 1360, 10, "dihedral", 302)
    assert tower(parse_cover(S6_CHAIN)) == (0, 1081, 4, "symmetric", 720)
    assert verify_paper()[0] == 0


@pytest.mark.parametrize("make, cut, quotient", [
    pytest.param(lambda: parse_cover(S6_CHAIN), even_subgroup, 4, id="S6-even"),
    pytest.param(lambda: build_dihedral_cover(3, 151), cyclic_rotation_subgroup, 3, id="D151-rotations"),
])
def test_only_subgroups_cut_from_the_covers_own_group_skip_the_checks(monkeypatch, make, cut, quotient):
    """A parity kernel or a power set cut from ``generated_group(cover)`` is answered; a like one is refused.

    Deep copies, pickles, the constructor and the same cut of an equal
    cover's group give descriptors that the module did not cut from this
    cover's group: each is refused, without a composition.  A shallow
    copy of the cut keeps its parent, so it is answered alike.
    """
    import copy
    import pickle

    cover = make()
    group = generated_group(cover)
    subgroup = cut(group)
    twin = make()  # an equal cover with a group of its own
    others = [
        GroupDescriptor(subgroup.order, subgroup.classification, inside=subgroup._inside),
        copy.deepcopy(subgroup), pickle.loads(pickle.dumps(subgroup)), cut(generated_group(twin)),
        public_copy(group), copy.copy(group), pickle.loads(pickle.dumps(group)), generated_group(twin),
    ]
    for other in others:
        assert other._parent is not group and other is not group
    calls = counting_compositions(monkeypatch)
    assert quotient_genus(cover, subgroup) == quotient_genus(cover, copy.copy(subgroup)) == quotient
    assert quotient_genus(cover, group) == cover.base_genus  # index 1
    assert calls["n"] == 0
    for other in others:
        refused(quotient_genus, cover, other)
    assert calls["n"] == 0
    assert quotient_genus(twin, cut(generated_group(twin))) == quotient


# ---- exact routes against oracles on random transitive covers ----

SMALL_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def relabelled(cover, rng):
    """The same cover with its sheets renamed by a random permutation."""
    images = list(range(cover.degree))
    rng.shuffle(images)
    c = Permutation(tuple(images))
    conjugated = tuple(inverse(c).then(s).then(c) for s in cover.branch_monodromy)
    return BranchedCover(cover.degree, cover.base_genus, conjugated)


def random_dihedral_cover(rng):
    return relabelled(build_dihedral_cover(rng.randint(2, 6), rng.choice(SMALL_ODD_PRIMES)), rng)


def random_tree_cover(rng, n):
    """Each edge of a random labelled tree used twice: full S_n monodromy, product 1."""
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    rng.shuffle(edges)
    if rng.randrange(2):
        sequence = [e for e in edges for _ in range(2)]
    else:
        sequence = edges + edges[::-1]
    return relabelled(BranchedCover(n, 0, tuple(transposition(a, b, n) for a, b in sequence)), rng)


def random_cyclic_cover(rng):
    """Powers of an n-cycle whose exponents sum to 0 mod n and generate Z/n."""
    while True:
        n = rng.randint(2, 12)
        exponents = [rng.randrange(1, n) for _ in range(rng.randint(1, 4))]
        last = -sum(exponents) % n
        if last and math.gcd(n, *exponents) == 1:
            break
    cycle = Permutation(tuple((i + 1) % n for i in range(n)))

    def power(e):
        perm = identity(n)
        for _ in range(e):
            perm = perm.then(cycle)
        return perm

    return relabelled(BranchedCover(n, 0, tuple(power(e) for e in exponents + [last])), rng)


def random_covers(seed, count):
    rng = random.Random(seed)
    makers = (
        random_dihedral_cover,
        lambda r: random_tree_cover(r, 4),
        lambda r: random_tree_cover(r, 5),
        random_cyclic_cover,
    )
    return [makers[i % len(makers)](rng) for i in range(count)]


def test_order_is_the_repeated_composition_count():
    rng = random.Random(17)
    for cover in random_covers(17, 40):
        for sigma in cover.branch_monodromy:
            assert sigma.order() == composition_order(sigma)
        elements = elements_of(cover)
        assert generated_group(cover).order == len(elements)
        for element in rng.sample(elements, min(5, len(elements))):
            assert element.order() == composition_order(element)


def test_galois_closure_matches_the_regular_cover_oracle():
    for cover in random_covers(23, 40):
        assert galois_closure_genus(cover) == brute_regular_genus(cover)


def test_quotients_by_known_subgroups():
    """Trivial subgroup: the closure.  Sheet stabiliser: the cover.  Whole group: the base.

    The program answers for the whole group only; the coset-table oracle,
    the reference for quotients by any subgroup, answers the other two.
    """
    for cover in random_covers(29, 24):
        group = generated_group(cover)
        elements = images_of(elements_of(cover))
        fixing_0 = {images for images in elements if images[0] == 0}
        trivial = coset_quotient_genus(cover, {tuple(range(cover.degree))})
        assert trivial == galois_closure_genus(cover) == brute_regular_genus(cover)
        assert coset_quotient_genus(cover, fixing_0) == rh_genus(cover)
        assert quotient_genus(cover, group) == coset_quotient_genus(cover, elements)
        assert quotient_genus(cover, group) == cover.base_genus
        refused(quotient_genus, cover, cut_by_hand(1, (identity(cover.degree),)))


def test_memoised_group_still_enforces_the_bound():
    for cover in random_covers(37, 8):
        group = generated_group(cover)
        assert generated_group(cover, max_order=group.order) is group
        with pytest.raises(EnumerationLimitError):
            generated_group(cover, max_order=group.order - 1)
        with pytest.raises(EnumerationLimitError):
            galois_closure_genus(cover, max_order=group.order - 1)
        assert generated_group(cover) is group


def test_degree_above_the_bound_is_refused_before_enumeration(monkeypatch):
    def no_closure(*args):
        raise AssertionError("enumerated a cover of degree above the bound")

    monkeypatch.setattr(monodromy, "_span", no_closure)
    cover = build_dihedral_cover(2, 101)
    with pytest.raises(EnumerationLimitError, match="degree 101"):
        generated_group(cover, max_order=100)


def test_a_dihedral_group_above_the_bound_is_refused_at_build(monkeypatch):
    """D_p has order 2p: a prime p with p <= bound < 2p is refused before any closure."""
    def no_closure(*args):
        raise AssertionError("enumerated a dihedral group of order above the bound")

    with monkeypatch.context() as patched:
        patched.setattr(monodromy, "_span", no_closure)
        refusal = "^group closure exceeds the configured bound 5000$"
        for p in (2503, 4999):
            with pytest.raises(EnumerationLimitError, match=refusal):
                build_dihedral_cover(2, p)
        with pytest.raises(EnumerationLimitError, match="bound 13$"):
            build_dihedral_cover(2, 7, max_group_order=13)
    group = generated_group(build_dihedral_cover(2, 2477))  # 2 * 2477 = 4954 is within the bound
    assert (group.order, group.classification) == (4954, "dihedral")


# ---- index-2 quotients and generator parities against the coset-table and sign oracles ----


def random_small_cover(rng):
    """A random cover of degree at most 6 (S_7 exceeds the default group-order bound)."""
    while True:
        n = rng.randint(2, 6)
        perms = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(n))
            rng.shuffle(images)
            perms.append(Permutation(tuple(images)))
        product = perms[0]
        for q in perms[1:]:
            product = product.then(q)
        perms = [q for q in perms + [inverse(product)] if q != identity(n)]
        try:
            return BranchedCover(n, rng.randint(0, 2), tuple(perms))
        except MonodromyDataError:
            continue  # disconnected or no branch points


def small_covers(seed, count):
    """Random, tree, dihedral and cyclic covers of degree at most 7."""
    rng = random.Random(seed)
    makers = (
        random_small_cover,
        lambda r: random_tree_cover(r, r.randint(3, 6)),
        lambda r: relabelled(build_dihedral_cover(r.randint(2, 4), r.choice((3, 5, 7))), r),
        random_cyclic_cover,
    )
    covers = [makers[i % len(makers)](rng) for i in range(count)]
    return [cover for cover in covers if cover.degree <= 7]


def images_of(elements):
    return {e.images for e in elements}


def test_even_subgroup_matches_the_sign_filter():
    parities = set()
    for cover in small_covers(61, 40):
        group = generated_group(cover)
        evens = even_subgroup(group)
        assert evens.order == len(even_by_sign(elements_of(cover)))
        assert evens._inside == {h.images for h in group._generators if sign(h) == 1}
        parities.add(group.order // evens.order)
        # the generators are generated_group's: a descriptor it did not build has none to read
        for other in (public_copy(group), evens):
            refused(even_subgroup, other, match="generators")
    assert parities == {1, 2}


def test_index_one_and_two_quotients_match_the_coset_table():
    indices = []
    for cover in small_covers(67, 40):
        group = generated_group(cover)
        elements = elements_of(cover)
        for subgroup, members in ((group, elements), (even_subgroup(group), even_by_sign(elements))):
            assert quotient_genus(cover, subgroup) == coset_quotient_genus(cover, images_of(members))
            indices.append(group.order // subgroup.order)
    assert set(indices) == {1, 2} and indices.count(2) >= 10


@pytest.mark.parametrize("p", SMALL_ODD_PRIMES)
def test_rotation_quotients_match_the_coset_table(p):
    rng = random.Random(p)
    cover = relabelled(build_dihedral_cover(rng.randint(2, 6), p), rng)
    group = generated_group(cover)
    rotations = cyclic_rotation_subgroup(group)
    assert rotations.order == len(rotations_of(group)) == p
    assert quotient_genus(cover, rotations) == coset_quotient_genus(cover, rotations_of(group))


def counting(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` through a patched wrapper; returns the counter."""
    calls = {"n": 0}
    original = getattr(owner, name)

    def counted(*args):
        calls["n"] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_even_subgroup_of_s6_walks_no_cycles(monkeypatch):
    cover = random_tree_cover(random.Random(79), 6)
    group = generated_group(cover)
    walks = counting(monkeypatch, monodromy, "_cycle_lengths")
    alternating = even_subgroup(group)
    assert (group.order, alternating.order, walks["n"]) == (720, 360, 0)


@pytest.mark.parametrize("make, quotient", [
    # ten transpositions: the quotient by A_6 is a double line branched at ten points
    pytest.param(lambda: random_tree_cover(random.Random(83), 6), 4, id="S6"),
    pytest.param(lambda: build_dihedral_cover(3, 151), 3, id="D151"),
])
def test_a_tower_wraps_no_permutation_per_group_element(monkeypatch, make, quotient):
    cover = make()
    made = counting(monkeypatch, Permutation, "_unchecked")
    checked = counting(monkeypatch, Permutation, "__init__")
    group = generated_group(cover)
    subgroup = cyclic_rotation_subgroup(group) if group.classification == "dihedral" else even_subgroup(group)
    galois_closure_genus(cover)
    assert quotient_genus(cover, subgroup) == quotient
    assert made["n"] == checked["n"] == 0


# ---- classification against the eager oracle ----


def closure_group(generators, degree):
    """The elements of the group that image tuples generate, closed by the breadth-first oracle."""
    return [Permutation(t) for t in sorted(brute_closure(list(generators), degree))]


def pair_group(m, inverting, square):
    """Regular action of the order-2m group of the a^k x^e, k mod m and e mod 2.

    a^k x^e is the point 2k + e; x a x^-1 is a^-1 when ``inverting`` and a
    otherwise, and x^2 = a^square.  D_m, C_m x C_2 and the dicyclic groups
    are of this form.
    """

    def multiply(h, g):
        (k, e), (l, f) = divmod(h, 2), divmod(g, 2)
        k += -l if inverting and e else l
        if e and f:
            k += square
        return 2 * (k % m) + (e ^ f)

    right_by = [tuple(multiply(h, g) for h in range(2 * m)) for g in (2, 1)]  # a and x
    return closure_group(right_by, 2 * m)


def classified_families():
    """(name, group, label) for families whose label is known."""
    for n in range(1, 25):
        yield f"C{n}", closure_group([tuple((i + 1) % n for i in range(n))], n), "cyclic"
    for m in range(3, 25):
        natural = [tuple((i + 1) % m for i in range(m)), tuple(-i % m for i in range(m))]
        yield f"D{m}-natural", closure_group(natural, m), "dihedral"
        yield f"D{m}-regular", pair_group(m, inverting=True, square=0), "dihedral"
    for m in range(2, 13):
        yield f"C{m}xC2", pair_group(m, inverting=False, square=0), "cyclic" if m % 2 else "other"
        yield f"Dic{m}", pair_group(2 * m, inverting=True, square=m), "other"
    for n in range(3, 7):
        full = closure_group([tuple((i + 1) % n for i in range(n)), (1, 0, *range(2, n))], n)
        yield f"S{n}", full, "dihedral" if n == 3 else "symmetric"  # S_3 is D_3
        yield f"A{n}", list(even_by_sign(full)), "cyclic" if n == 3 else "other"


@pytest.mark.parametrize(
    "elements, label", [pytest.param(elements, label, id=name) for name, elements, label in classified_families()]
)
def test_classification_matches_the_eager_oracle_on_known_families(elements, label):
    assert monodromy._classify(internal(elements), ())[0] == classify_by_orders(elements) == label


def test_classification_matches_the_eager_oracle_on_random_subgroups():
    rng = random.Random(43)
    labels = set()
    for _ in range(80):
        n = rng.randint(1, 7)
        generators = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(n))
            if rng.randrange(2):
                rng.shuffle(images)
            else:  # a product of a few transpositions: small subgroups come up too
                for _ in range(rng.randint(1, 3)):
                    a, b = rng.randrange(n), rng.randrange(n)
                    images[a], images[b] = images[b], images[a]
            generators.append(tuple(images))
        elements = closure_group(generators, n)
        label = classify_by_orders(elements)
        assert monodromy._classify(internal(elements), ())[0] == label
        labels.add(label)
    assert labels == {"cyclic", "dihedral", "symmetric", "other"}


def tower(cover):
    """The numbers of a tower, in the order a tower op asks for them."""
    genus = rh_genus(cover)
    group = generated_group(cover)
    subgroup = cyclic_rotation_subgroup(group) if group.classification == "dihedral" else even_subgroup(group)
    return genus, galois_closure_genus(cover), quotient_genus(cover, subgroup), group.classification, group.order


@pytest.mark.parametrize("make, walks, answer", [
    # r alone: the two distinct reflections carry their cycle type from construction
    pytest.param(lambda: build_dihedral_cover(10, 151), 1, (675, 1360, 10, "dihedral", 302), id="D151"),
    # five distinct transpositions, each on two lines, and r: 16 walks before each line was parsed once
    pytest.param(lambda: parse_cover(S6_CHAIN), 6, (0, 1081, 4, "symmetric", 720), id="S6"),
])
def test_a_tower_walks_each_permutation_once(monkeypatch, make, walks, answer):
    """One cycle walk for r, the product of the first two, and one per distinct branch permutation.

    The reflections ``build_dihedral_cover`` makes carry their cycle type from construction.
    """
    counted = counting(monkeypatch, monodromy, "_cycle_lengths")
    assert tower(make()) == answer
    assert counted["n"] == walks


@pytest.mark.parametrize("g, p", [(2, 3), (3, 7), (10, 151), (50, 151), (2, 257)])
def test_a_dihedral_tower_composes_r_alone(monkeypatch, g, p):
    """One ``then`` call, for r = s_1 s_0, and no composition through ``_right``.

    The word's runs, s_1 twice and s_0 2g times, have residue 0 modulo the
    reflections' order 2, so the product check composes nothing; in D_p
    with p odd no involution is a rotation, and r commutes with itself,
    so the rotation cut composes nothing either.
    """
    thens = counting(monkeypatch, Permutation, "then")
    compositions = counting_compositions(monkeypatch)
    cover = build_dihedral_cover(g, p)
    assert (thens["n"], compositions["n"]) == (1, 0)
    assert tower(cover) == ((p - 1) * (g - 1) // 2, p * (g - 1) + 1, g, "dihedral", 2 * p)
    assert (thens["n"], compositions["n"]) == (1, 0)


@pytest.mark.parametrize("text, label, order", [
    pytest.param(S5_CYCLE_AND_SWAP, "symmetric", 120, id="S5-cycle-and-swap"),
    pytest.param(KLEIN_FOUR, "other", 4, id="Klein-four"),
])
def test_the_closure_starts_from_the_covers_own_r_composed_once(monkeypatch, text, label, order):
    """A tower whose group the closure enumerates composes r = first.then(second) once, with the cover.

    One ``then`` call of the cover's build makes the object the cover keeps
    as r.  The tower ops after it make no ``then`` call, hand the closure
    that object first, and apply no map ``_right`` makes of the second
    generator to the first: r is not composed again.
    """
    products, applied, closures = [], [], []
    then, right, span = Permutation.then, monodromy._right, monodromy._span

    def recording_then(first, second):
        products.append(then(first, second))
        return products[-1]

    def recording_right(s):
        compose = right(s)

        def composition(h):
            applied.append((h, s))
            return compose(h)

        return composition

    def recording_span(candidates, *args):
        closures.append(candidates)
        return span(candidates, *args)

    monkeypatch.setattr(Permutation, "then", recording_then)
    monkeypatch.setattr(monodromy, "_right", recording_right)
    monkeypatch.setattr(monodromy, "_span", recording_span)
    cover = parse_cover(text)
    built = products[:]  # the product check's and r's
    products.clear()
    assert tower(cover)[3:] == (label, order)
    assert products == []
    [candidates] = closures
    r = next(iter(candidates))  # the first candidate handed over
    assert [p for p in built if p is r] == [r]
    first, second = list({sigma.images: sigma for sigma in cover.branch_monodromy}.values())[:2]
    assert r == then(first, second)
    assert (first.images, second.images) not in applied


# ---- dihedral construction ----


def test_build_dihedral_cover_examples():
    assert rh_genus(build_dihedral_cover(2, 3)) == 1
    assert rh_genus(build_dihedral_cover(4, 3)) == 3
    cover = build_dihedral_cover(2, 5)
    assert rh_genus(cover) == 2
    assert galois_closure_genus(cover) == 6
    with pytest.raises(MonodromyDataError):
        build_dihedral_cover(1, 3)
    with pytest.raises(MonodromyDataError):
        build_dihedral_cover(2, 9)
    with pytest.raises(MonodromyDataError, match="at most 49999"):
        build_dihedral_cover(50_000, 3)


def test_dihedral_tower_grid():
    for g in range(2, 7):
        for p in (3, 5, 7, 11):
            cover = build_dihedral_cover(g, p)
            assert len(cover.branch_monodromy) == 2 * g + 2
            assert rh_genus(cover) == (p - 1) * (g - 1) // 2
            assert galois_closure_genus(cover) == p * (g - 1) + 1
            group = generated_group(cover)
            assert (group.order, group.classification) == (2 * p, "dihedral")
            rotations = cyclic_rotation_subgroup(group)
            assert (rotations.order, rotations.classification) == (p, "cyclic")
            assert quotient_genus(cover, rotations) == g


@pytest.mark.parametrize("p", [251, 257])
def test_dihedral_towers_on_both_sides_of_256_sheets(p):
    cover = build_dihedral_cover(2, p)
    group = generated_group(cover)
    assert (group.order, group.classification) == (2 * p, "dihedral")
    rotations = cyclic_rotation_subgroup(group)
    assert (rotations.order, rotations.classification) == (p, "cyclic")
    assert rh_genus(cover) == (p - 1) // 2
    assert galois_closure_genus(cover) == p + 1
    assert quotient_genus(cover, rotations) == 2
    assert len(rotations_of(group)) == p


def test_a_cover_of_256_sheets_matches_the_breadth_first_closure(tmp_path):
    """Reflections x -> -x and x -> 1 - x of Z/256: D_256, whose m is composite."""
    lines = ["degree 256; base_genus 0"]
    for a in (1, 1, 0, 0):
        pairs = {tuple(sorted((x, (a - x) % 256))) for x in range(256)}
        lines.append("".join(f"({x} {y})" for x, y in sorted(pairs) if x != y))
    path = tmp_path / "d256.txt"
    path.write_text("\n".join(lines) + "\n")
    cover = load_cover(str(path))
    group = generated_group(cover)
    expected = brute_closure([sigma.images for sigma in cover.branch_monodromy], 256)
    assert {tuple(h) for h in monodromy._span(cover._generators, 256, 512)} == expected
    assert (group.order, group.classification) == (512, "dihedral")
    rotations = cyclic_rotation_subgroup(group)
    assert quotient_genus(cover, rotations) == coset_quotient_genus(cover, rotations_of(group))
    assert galois_closure_genus(cover) == brute_regular_genus(cover)


def test_the_rotation_cut_makes_as_many_kernels_at_every_p():
    """The cut makes one kernel, for r, and tests by commutation only what may be a rotation: nothing here."""

    def kernels_made(p):
        cover = build_dihedral_cover(3, p)
        group = generated_group(cover)
        with pytest.MonkeyPatch.context() as patch:
            made = counting(patch, monodromy, "_right")
            rotations = cyclic_rotation_subgroup(group)
        assert quotient_genus(cover, rotations) == 3
        return made["n"]

    assert 0 < kernels_made(7) == kernels_made(151) == 1  # _right(r), applied to nothing


def polygon_cover(tmp_path, m):
    """A cover file of D_m on the vertices of an m-gon: the rotation x -> x + 1 and two reflections.

    Three distinct generators, one not an involution, so the closure
    enumerates the group and the classifier labels it.
    """
    def reflection(a):  # x -> a - x
        return "".join(f"({x} {(a - x) % m})" for x in range(m) if x < (a - x) % m)

    path = tmp_path / f"d{m}.txt"
    path.write_text(f"degree {m}; base_genus 0\n({' '.join(map(str, range(m)))})\n{reflection(0)}\n{reflection(-1)}\n")
    return load_cover(str(path))


S3_FROM_THREE_TRANSPOSITIONS = "degree 3; base_genus 0\n" + "".join(f"{t}\n{t}\n" for t in ("(0 1)", "(1 2)", "(0 2)"))


@pytest.mark.parametrize("make, enumerated", [
    *(pytest.param(lambda tmp_path, p=p: build_dihedral_cover(2, p), 0, id=f"D{p}-named") for p in (3, 251, 257)),
    pytest.param(lambda tmp_path: parse_cover(S3_FROM_THREE_TRANSPOSITIONS), 1, id="S3-transpositions"),
    pytest.param(lambda tmp_path: polygon_cover(tmp_path, 4), 1, id="D4-file"),
    pytest.param(lambda tmp_path: polygon_cover(tmp_path, 6), 1, id="D6-file"),
    # r^2 = (0 2)(1 3) is a branch element: an involution inside the rotations
    pytest.param(lambda tmp_path: parse_cover(D4_ROTATION_INVOLUTION), 1, id="D4-rotation-involution"),
])
def test_the_commutation_cut_matches_the_coset_oracle(monkeypatch, tmp_path, make, enumerated):
    cover = make(tmp_path)
    closures = counting(monkeypatch, monodromy, "_span")
    group = generated_group(cover)
    assert (group.classification, closures["n"]) == ("dihedral", enumerated)
    rotations = cyclic_rotation_subgroup(group)
    assert 2 * rotations.order == group.order == 2 * len(rotations_of(group))
    assert quotient_genus(cover, rotations) == coset_quotient_genus(cover, rotations_of(group))


def test_ramification_profiles():
    profiles = ramification_profile(build_dihedral_cover(2, 5))
    assert len(profiles) == 6
    assert set(profiles) == {(2, 2, 1)}
    assert ramification_profile(BranchedCover(1, 0, ())) == []
    profiles = ramification_profile(build_dihedral_cover(3, 3))
    assert len(profiles) == 8
    assert set(profiles) == {(2, 1)}


# ---- cover file format ----


def test_parse_cover():
    text = """
    degree 3; base_genus 0
    (0 1)
    (0 1)
    (1 2)
    (1 2)
    """
    cover = parse_cover(text)
    assert cover.degree == 3
    assert cover.base_genus == 0
    assert len(cover.branch_monodromy) == 4
    assert rh_genus(cover) == 0


def test_a_header_of_non_ascii_digits_is_refused(tmp_path):
    """``degree \u0663; base_genus \u0660`` spells 3 and 0 in Arabic-Indic digits: exit 2, one ``error:`` line."""
    path = tmp_path / "cover.txt"
    path.write_text(NON_ASCII_HEADER, encoding="utf-8")
    code, out, err = run_cli(["monodromy", "--file", str(path)])
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad header line")


def test_parse_cover_errors():
    with pytest.raises(MonodromyDataError):
        parse_cover("")
    with pytest.raises(MonodromyDataError):
        parse_cover("degree three; base_genus 0\n(0 1)")
    with pytest.raises(MonodromyDataError):
        parse_cover("degree 3; base_genus 0\n(0 1")
