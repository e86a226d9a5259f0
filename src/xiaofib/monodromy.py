"""Branched covers of a curve of genus b given by permutation monodromy.

A cover of degree n with k branch points is encoded by a tuple of
permutations (sigma_1, ..., sigma_k) of the sheet set {0, ..., n-1}.
Throughout the package tuples act left to right: sigma_1 is applied
first, and the product sigma_1 * sigma_2 * ... * sigma_k must be the
identity.  The base is the line when b = 0.  For b > 0 the monodromy
around the handles is taken as trivial: the group is generated by the
branch permutations alone, so a cover of more than one sheet with no
branch points (``degree 3; base_genus 1`` and nothing else) is refused
as disconnected.  All genus computations reduce to Riemann-Hurwitz on
cycle types, so branch points are abstract labels and carry no
coordinates.

A permutation is checked to be a bijection once, where it enters
(``Permutation(...)``); products of checked permutations, disjoint
cycles of sheets in range (``from_cycles``) and the reflections
``build_dihedral_cover`` makes are bijections by construction and are not
checked again.  ``parse_cover`` parses each distinct line once, so
repeated lines share one ``Permutation`` object; a cover file that is not
UTF-8 raises ``MonodromyDataError``.  A cover keeps its branch word as
runs: one (permutation, multiplicity) pair for each maximal run of one
object.  As sigma^k = sigma^(k mod ord sigma), the product check
composes only each run's residue, so the paper's word (s_1, s_1, s_0,
..., s_0), whose runs have even length and reflections of order 2, needs
no composition at all, and no word more than its plain product.  The
genera sum multiplicity times term over the runs.

A cover keeps one record of its generators: one ``Permutation`` per
distinct image tuple, in first-seen order, led by r = first.then(second)
when there are two or more.  r is composed there and nowhere else: the
product check starts from r when the first two residues are its
factors.  Every cycle type and order below is read from these objects'
memos (``cycle_type``, one walk that also keeps the order).  The
reflections of ``build_dihedral_cover`` carry theirs from construction,
so a dihedral cover walks r alone and composes r alone.  The walk of r
decides transitivity when r is an n-cycle (otherwise the cover follows
forward images).  Inside the module a group element is a permutation's
``images`` tuple, composed by one kernel, ``_right(s)``, the map
``h -> h then s`` through one ``itemgetter``.

``generated_group`` first names the group from that record: two distinct
involutions whose product r has order m >= 3 generate D_m, of order 2m,
with rotations <r>; transpositions on n >= 4 sheets generate S_n, of
order n!, because every cover is transitive.  A named group past
``max_order`` elements or ``errors.MAX_GROUP_CELLS`` cells, each element
costing its degree plus ``errors.ELEMENT_OVERHEAD`` cells (a tuple's
header, a dict slot and a list slot), is refused from its order alone.
Every other group comes from the closure of the record (Dimino's
algorithm, after Butler 1991), which walks the powers of r (of the first
generator when r = 1) and then builds the group a whole right coset at a
time; it refuses before a batch would pass either bound.  The enumerated group is
labelled at once (see ``_classify``) and its elements are dropped.  The
group is built once per cover and kept on it, so ``max_order`` bounds
that build alone; the genera read the kept group and take no bound.

A ``GroupDescriptor`` holds what a tower reads: the order, the label,
when the label is dihedral a rotation of half order, and the cover's
record.  ``cyclic_rotation_subgroup`` keeps the generators that commute
with the rotation, and ``even_subgroup`` reads its order off their
parities; both cuts record the descriptor they cut from and which of its
generators lie inside.  Every quotient the paper takes is by such a
subgroup, of index 1 or 2, so ``quotient_genus(cover, subgroup)``
answers only for the very descriptor ``generated_group`` keeps on the
cover and the subgroups cut from it, counting the branch points outside;
it refuses every other descriptor.  Descriptors compare by identity.
"""

from __future__ import annotations

import re
from functools import reduce
from itertools import accumulate, groupby, repeat
from math import factorial, lcm
from operator import itemgetter

from .errors import DEFAULT_MAX_GROUP_ORDER, ELEMENT_OVERHEAD, MAX_GROUP_CELLS, InputError
from .numerology import GENUS_LIMIT, is_odd_prime
from .record import Record

CYCLIC = "cyclic"
DIHEDRAL = "dihedral"
SYMMETRIC = "symmetric"
OTHER = "other"

# ``build_dihedral_cover`` refuses a base genus g whose 2g + 2 branch
# permutations exceed this, before building them; at the bound a
# ``monodromy --dihedral`` run takes about a second.
MAX_BRANCH_POINTS = 100_000


class MonodromyDataError(InputError, ValueError):
    """Monodromy data violates a structural invariant."""


class EnumerationLimitError(InputError, RuntimeError):
    """Group closure exceeded the configured element bound."""


def _numeral(text: str) -> int:
    """A decimal numeral of cover input as an ``int``."""
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise MonodromyDataError(f"number has too many digits: {text[:12]}...") from None


# Cycle notation with its whitespace removed
_CYCLE_NOTATION = re.compile(r"(?:\([0-9,]*\))*")
# The first line of a cover file; ``\d`` would take any Unicode decimal digit, the cycle notation only 0-9
_HEADER = re.compile(r"degree\s*([0-9]+)\s*;\s*base_genus\s*([0-9]+)")


class Permutation(Record):
    """Bijection of {0, ..., n-1}, stored as the tuple of images."""

    # ``_cycle_type``: cycle lengths sorted decreasingly, and ``_order``: their lcm, both set by
    # the first ``cycle_type`` or ``order`` call
    __slots__ = ("images", "_cycle_type", "_order")

    def __init__(self, images: tuple[int, ...]):
        images = tuple(images)
        self._set(images=images, _cycle_type=None, _order=None)
        if not all(type(i) is int for i in images):
            raise MonodromyDataError(f"permutation images must be integers: {images!r}")
        if sorted(images) != list(range(len(images))):
            raise MonodromyDataError(f"not a bijection of 0..{len(images) - 1}: {images!r}")

    @classmethod
    def _unchecked(cls, images: tuple[int, ...], cycle_type: tuple[int, ...] | None = None,
                   order: int | None = None) -> "Permutation":
        """Wrap images already known to form a bijection, skipping the check, with a cycle type and order if known."""
        perm = object.__new__(cls)  # set directly: every product of ``then`` comes through here
        object.__setattr__(perm, "images", images)
        object.__setattr__(perm, "_cycle_type", cycle_type)
        object.__setattr__(perm, "_order", order)
        return perm

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> "Permutation":
        """Parse cycle notation such as ``(0 1)(2 3)``, 0-based, whitespace-insensitive.

        Disjoint cycles of sheets in range form a bijection, so the images
        are not checked again.
        """
        if not _CYCLE_NOTATION.fullmatch("".join(text.split())):
            raise MonodromyDataError(f"unparseable cycle notation: {text!r}")
        images = list(range(degree))
        seen: set[int] = set()
        for body in text.replace("(", " ").replace(",", " ").split(")")[:-1]:  # ( and , separate entries
            cycle = [_numeral(e) for e in body.split()]
            if any(i >= degree for i in cycle):
                raise MonodromyDataError(f"sheet index out of range 0..{degree - 1}: {text!r}")
            if seen.intersection(cycle) or len(set(cycle)) != len(cycle):
                raise MonodromyDataError(f"repeated sheet index in cycles: {text!r}")
            seen.update(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return cls._unchecked(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def then(self, other: "Permutation") -> "Permutation":
        """Composite applying ``self`` first, then ``other``."""
        first, second = self.images, other.images
        if len(first) != len(second):
            raise MonodromyDataError("composing permutations of different degrees")
        # a one-index itemgetter returns a bare item; the only permutation of one sheet is the identity
        return Permutation._unchecked(itemgetter(*first)(second) if len(first) > 1 else second)

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths sorted decreasingly; sums to the degree.  Computed once, with the order."""
        if self._cycle_type is None:
            lengths = _cycle_lengths(self.images)
            self._set(_cycle_type=tuple(sorted(lengths, reverse=True)), _order=lcm(*lengths))
        return self._cycle_type

    def order(self) -> int:
        """Least common multiple of the cycle lengths."""
        self.cycle_type()
        return self._order


def _cycle_lengths(images) -> list[int]:
    """The length of each cycle of the permutation with these images, fixed points included."""
    seen = [False] * len(images)
    found = []
    for start in range(len(images)):
        if seen[start]:
            continue
        seen[start] = True
        j = images[start]
        length = 1
        while j != start:
            seen[j] = True
            j = images[j]
            length += 1
        found.append(length)
    return found


def _right(s):
    """The map ``h -> h then s`` on image tuples: the one composition kernel.

    ``itemgetter(*h)`` reads s[h[i]] for each i.  With one index it would
    return a bare item; the only permutation of one sheet is the identity,
    so there the map returns s.
    """
    return (lambda h: itemgetter(*h)(s)) if len(s) > 1 else (lambda h: s)


class BranchedCover(Record):
    """Degree-n cover of a genus-b curve, branch monodromy acting left to right."""

    # ``_runs``: (permutation object, multiplicity) for each maximal run of one object in the
    # branch word; ``_generators``: one permutation per distinct image tuple, in first-seen order,
    # led by r = first.then(second) when there are two or more; ``_group``: set by the first
    # ``generated_group`` call
    __slots__ = ("degree", "base_genus", "branch_monodromy", "_runs", "_generators", "_group")

    def __init__(self, degree: int, base_genus: int, branch_monodromy: tuple[Permutation, ...]):
        self._set(degree=degree, base_genus=base_genus, branch_monodromy=tuple(branch_monodromy), _group=None)
        if self.degree < 1:
            raise MonodromyDataError("cover degree must be positive")
        if self.base_genus < 0:
            raise MonodromyDataError("base genus must be non-negative")
        # The largest genus printed, the Galois closure's, is below |G| (b + k) for k branch
        # points, and the cell budget keeps |G| below 2.6 * 10^5: below this bound on b every
        # printed genus has far fewer than the interpreter's 4300 digits for int-to-text.
        if self.base_genus >= GENUS_LIMIT:
            raise MonodromyDataError("base genus must be below 10^2000")
        identity = tuple(range(self.degree))
        groups = (list(run) for _, run in groupby(self.branch_monodromy, id))  # maximal runs of one object
        runs = tuple((run[0], len(run)) for run in groups)
        distinct = {id(sigma): sigma for sigma, _ in runs}  # by object: no image tuple is hashed
        for sigma in distinct.values():
            if sigma.degree != self.degree:
                raise MonodromyDataError("permutation degree does not match cover degree")
            if sigma.images == identity:
                raise MonodromyDataError("branch permutations must be non-identity")
        gens = tuple({sigma.images: sigma for sigma in distinct.values()}.values())  # one per distinct image tuple
        if len(gens) > 1:
            gens = (gens[0].then(gens[1]), *gens)
        residues = [sigma for sigma, k in runs for _ in range(k % sigma.order())]  # sigma^k = sigma^(k mod ord)
        if residues and residues[:2] == list(gens[1:3]):  # equal images: their product is r, so start from it
            residues[:2] = gens[:1]
        if residues and reduce(Permutation.then, residues).images != identity:
            raise MonodromyDataError("branch monodromy product is not the identity")
        self._set(_runs=runs, _generators=gens)
        # an n-cycle in the group proves it transitive; otherwise follow forward images
        if not (gens and len(gens[0].cycle_type()) == 1) and not self._is_transitive([g.images for g in gens]):
            raise MonodromyDataError("monodromy group is not transitive: cover is disconnected")

    def _is_transitive(self, maps) -> bool:
        # Forward images suffice: a permutation that maps a finite set into
        # itself maps it onto itself, so the set is closed under its inverse too.
        reached = {0}
        frontier = [0]
        while frontier:
            i = frontier.pop()
            for images in maps:
                j = images[i]
                if j not in reached:
                    reached.add(j)
                    frontier.append(j)
        return len(reached) == self.degree


class GroupDescriptor:
    """A permutation group as a tower reads it: order, coarse label and, when dihedral, a rotation.

    ``generated_group`` passes ``generators``, the cover's own r and
    distinct generators; a cut passes ``parent``, the group it was cut
    from, and ``inside``, the image tuples of the parent's generators that
    lie in the subgroup.
    """

    __slots__ = ("order", "classification", "_rotation", "_generators", "_parent", "_inside")

    def __init__(self, order: int, classification: str | None, rotation=None, *,
                 generators=None, parent=None, inside=None):
        self.order, self.classification, self._rotation = order, classification, rotation
        self._generators, self._parent, self._inside = generators, parent, inside


def rh_genus(cover: BranchedCover) -> int:
    """Genus from Riemann-Hurwitz: 2g - 2 = n(2b - 2) + sum over cycles of (len - 1)."""
    n = cover.degree
    ramification = sum(k * (n - len(sigma.cycle_type())) for sigma, k in cover._runs)
    return _rh_solve(n, cover.base_genus, ramification)


def _rh_solve(degree: int, base_genus: int, ramification: int) -> int:
    """Solve 2g - 2 = degree * (2 * base_genus - 2) + ramification for g."""
    rhs = degree * (2 * base_genus - 2) + ramification
    if rhs % 2:
        raise MonodromyDataError(f"Riemann-Hurwitz total {rhs} is odd: malformed monodromy data")
    genus = (rhs + 2) // 2
    if genus < 0:
        raise MonodromyDataError(f"negative genus {genus}: malformed monodromy data")
    return genus


def ramification_profile(cover: BranchedCover) -> list[tuple[int, ...]]:
    """Cycle-length multiset over each branch point, sorted decreasingly."""
    return [sigma.cycle_type() for sigma in cover.branch_monodromy]


def _refuse_past_bound(total: int, degree: int, max_order: int) -> None:
    """Refuse a group of ``total`` elements past ``max_order`` or the cell budget, naming the bound it passes.

    Past both, the configured bound is named.
    """
    if total > min(max_order, MAX_GROUP_CELLS // (degree + ELEMENT_OVERHEAD)):
        if total > max_order:
            raise EnumerationLimitError(f"group closure exceeds the configured bound {max_order}")
        raise EnumerationLimitError(f"group closure of degree {degree} exceeds {MAX_GROUP_CELLS} cells")


def _span(candidates, degree: int, max_order: int) -> dict:
    """The group generated by the permutations ``candidates``, a whole right coset at a time, as a dict's keys.

    Dimino's algorithm (G. Butler, *Fundamental Algorithms for Permutation
    Groups*, LNCS 559, 1991).  The result's keys are image tuples.  The
    first candidate that is not the identity is taken first, and its
    powers are walked up to its order, read from its memo; a cover hands
    over r first, for two reflections a rotation.  A later candidate
    outside the span H joins it as right cosets of H: for each coset H r
    and each generator s taken, H r then s is the coset H (r s) when r s
    is outside the span, built in one pass in H's order.  Each element so
    costs one composition and one dict insert.  The keys keep that order:
    the identity, the powers of the first generator taken, then the
    second generator taken and the rest of its coset.  The size of each
    batch (an order, or |H|) is known before it is built, so
    ``EnumerationLimitError`` is raised before the span would pass
    ``max_order`` elements or ``MAX_GROUP_CELLS`` cells, each element
    costing its degree plus ``ELEMENT_OVERHEAD``.
    """
    span = dict.fromkeys([tuple(range(degree))])
    steps = []  # - then s, for each generator s taken
    for u in candidates:
        if u.images in span:
            continue
        steps.append(_right(u.images))
        if len(steps) == 1:  # u, u^2, ... up to its order, after the identity
            order = u.order()
            _refuse_past_bound(len(span) + order - 1, degree, max_order)
            powers = accumulate(repeat(steps[0], order - 2), lambda h, then_u: then_u(h), initial=u.images)
            span.update(dict.fromkeys(powers))
            continue
        cosets = [list(span)]  # the identity first, so each coset's first element is its representative
        for coset in cosets:  # grows as the loop runs
            for then_s in steps:
                if then_s(coset[0]) not in span:
                    _refuse_past_bound(len(span) + len(coset), degree, max_order)
                    fresh = list(map(then_s, coset))
                    span.update(dict.fromkeys(fresh))
                    cosets.append(fresh)
    return span


def _classify(members, generators) -> tuple:
    """Coarse label of the group whose elements are ``members``, with a rotation when dihedral.

    ``generators`` are the permutations the closure was handed, whose
    orders are memoised, or none.  Symmetric is tested first, and only when
    |G| = k! with k >= 4: a group of that order moving exactly k points is
    all of Sym of them, which is neither cyclic nor dihedral (S_3 is D_3
    and is left to the dihedral test).  A point every generator fixes is
    fixed by the group, so moved points are counted on the generators, or
    on every element when none are known.  One scan then reads element
    orders until the label is settled.  An element of order |G| makes G
    cyclic.  The first element r of order |G|/2, when |G| >= 6, settles
    the dihedral question with the first element s that does not commute
    with r: G is dihedral exactly when s and s r are involutions.  Such an
    s lies outside <r>, of index 2, so s s = (s r)(s r) = 1 gives
    s r s = r^-1, and r and s generate D_m.  Conversely in D_m with m >= 3
    every element of order m is a rotation, an element commutes with a
    rotation of order m exactly when it is a rotation, and every other
    element is a reflection; no s at all means r is central, which no
    rotation of D_m is.  So the label does not depend on the order of the
    elements.  A dihedral group is not abelian, so no cyclic label hides
    behind it.  A dihedral label comes with r, whose powers are the
    rotations; any other with None.
    """
    n = len(members)
    k = 4
    while factorial(k) < n:
        k += 1
    known = {g.images: g for g in generators}
    pool = list(known) or members  # the generators, or every element
    # a point is moved when its column of images is not constant
    if factorial(k) == n and sum(column.count(i) != len(pool) for i, column in enumerate(zip(*pool))) == k:
        return SYMMETRIC, None
    half = n // 2 if n % 2 == 0 and n >= 6 else None
    for r in members:
        order = known[r].order() if r in known else lcm(*_cycle_lengths(r))
        if order == n:
            return CYCLIC, None
        if order == half:
            half = None  # only the first element of order |G|/2 is tried
            then_r = _right(r)
            s = next((s for s in members if then_r(s) != _right(s)(r)), None)
            if s is not None:
                sr = then_r(s)
                if _right(s)(s) == _right(sr)(sr) == tuple(range(len(r))):
                    return DIHEDRAL, r
    return OTHER, None


def _refuse_degree_above(degree: int, max_order: int) -> None:
    """A transitive group has at least as many elements as sheets, so refuse a larger degree."""
    if degree > max_order:
        raise EnumerationLimitError(
            f"cover degree {degree} exceeds the configured group-order bound {max_order}"
        )


def generated_group(cover: BranchedCover, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> GroupDescriptor:
    """The monodromy group: named from its generators, or enumerated by closure and labelled.

    Two distinct involutions whose product r has order m generate the
    dihedral group of order 2m, with rotations <r>, and transpositions
    that generate a transitive group (every cover's does) generate all of
    S_n (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*,
    2005, 4.1; Dixon & Mortimer, *Permutation Groups*, 1996, 3.3).  So a
    D_m with m >= 3 or an S_n with n >= 4 is named from the cycle lengths
    of its generators and never enumerated; past the bound, it is refused
    from its order, with the message the closure would give: the
    configured bound's when the order is past ``max_order``, the cell
    budget's otherwise.  The closure answers every other group (the Klein
    four group and S_3 from transpositions, labelled other and dihedral,
    among them) and makes every other refusal.  The group is built once per cover and
    kept on it.  ``max_order`` bounds that build, and a cover of larger
    degree is refused before it; every later call returns the kept group,
    whatever its bound.
    """
    group = cover._group
    if group is None:
        n = cover.degree
        _refuse_degree_above(n, max_order)
        elements = cover._generators
        gens, order = elements[1:], 0  # past r: the distinct generators, when there are two or more
        if len(gens) == 2 and gens[0].order() == gens[1].order() == 2:  # two involutions
            label, order, r = DIHEDRAL, 2 * elements[0].order(), elements[0].images
        elif n >= 4 and gens and all(len(g.cycle_type()) == n - 1 for g in gens):  # transpositions
            label, order, r = SYMMETRIC, factorial(n), None
        if order > 4:  # m >= 3: D_2 is the Klein four group, labelled other
            _refuse_past_bound(order, n, max_order)
            group = GroupDescriptor(order, label, r, generators=elements)
        else:
            members = _span(elements, n, max_order)
            group = GroupDescriptor(len(members), *_classify(members, elements), generators=elements)
        cover._set(_group=group)
    return group


def cyclic_rotation_subgroup(group: GroupDescriptor) -> GroupDescriptor:
    """The cyclic index-2 subgroup of a dihedral group descriptor: the powers of its rotation.

    Every dihedral label is D_m with m >= 3, where an element commutes with
    a rotation r of order m exactly when it is a rotation: a reflection s
    has s r s = r^-1, which is not r.  So a generator h lies inside exactly
    when h r = r h, two compositions each, and no rotation is listed.  Two
    cases need no composition: r itself commutes with r, and when m is odd
    no involution is a rotation, since a rotation's order divides m (Holt,
    Eick & O'Brien, *Handbook of Computational Group Theory*, 2005, 4.1).
    A descriptor ``generated_group`` did not make holds no generators, and
    ``quotient_genus`` refuses its cut.
    """
    if group.classification != DIHEDRAL:
        raise MonodromyDataError("rotation subgroup is defined for dihedral groups only")
    r = group._rotation
    then_r = _right(r)
    odd = group.order // 2 % 2
    inside = {
        h.images for h in group._generators or ()
        if h.images is r or (not (odd and h.order() == 2) and then_r(h.images) == _right(h.images)(r))
    }
    return GroupDescriptor(group.order // 2, CYCLIC, parent=group, inside=inside)


def even_subgroup(group: GroupDescriptor) -> GroupDescriptor:
    """The subgroup of even permutations (alternating part), its order read off the generators' parities.

    It has index 2 when some generator is odd and is the whole group
    otherwise.  No tower reads its label, so it carries none.
    """
    if group._generators is None:
        raise MonodromyDataError("even subgroup needs the generators generated_group records")
    even = [h.images for h in group._generators if (h.degree - len(h.cycle_type())) % 2 == 0]
    order = group.order if len(even) == len(group._generators) else group.order // 2
    return GroupDescriptor(order, None, parent=group, inside=set(even))


def galois_closure_genus(cover: BranchedCover) -> int:
    """Genus of the regular cover on which the monodromy group acts by translation.

    Translation by sigma has no fixed element, so it splits the |G|
    elements into |G| / ord(sigma) cycles of length ord(sigma).
    """
    order = generated_group(cover).order
    ramification = sum(k * (order - order // sigma.order()) for sigma, k in cover._runs)
    return _rh_solve(order, cover.base_genus, ramification)


def quotient_genus(cover: BranchedCover, subgroup: GroupDescriptor) -> int:
    """Genus of the quotient of the Galois closure by ``subgroup``, of index 1 or 2.

    ``subgroup`` is the cover's own group, ``generated_group(cover)``, or a
    subgroup that ``even_subgroup`` or ``cyclic_rotation_subgroup`` cut
    from it; any other descriptor is refused.  A subgroup of index 2 is
    normal, so a branch permutation outside it swaps the two cosets and
    one inside it fixes both; branch points whose induced action is
    trivial are dropped.  Each run of the branch word is looked up once
    and counts its multiplicity when it lies outside.
    """
    group = generated_group(cover)
    if subgroup is not group and subgroup._parent is not group:
        raise MonodromyDataError(
            "subgroup is neither this cover's group nor cut from it by even_subgroup or cyclic_rotation_subgroup"
        )
    moved = 0 if subgroup is group else sum(k for sigma, k in cover._runs if sigma.images not in subgroup._inside)
    return _rh_solve(group.order // subgroup.order, cover.base_genus, moved)


def build_dihedral_cover(
    g: int, p: int, max_group_order: int = DEFAULT_MAX_GROUP_ORDER
) -> BranchedCover:
    """Degree-p cover of the line with 2g + 2 reflection branch points.

    Sheets are Z/p and each branch permutation is a reflection
    x -> a - x (mod p), so every profile is {2^((p-1)/2), 1}.  The tuple
    (s_1, s_1, s_0, ..., s_0) multiplies to the identity and generates
    the full dihedral group of order 2p because s_0 * s_1 is the unit
    rotation.  A degree above ``max_group_order``, a group order 2p above
    it, or more than ``MAX_BRANCH_POINTS`` branch points, is refused before
    any permutation is built.
    """
    if g < 2:
        raise MonodromyDataError("base hyperelliptic genus must be at least 2")
    if 2 * g + 2 > MAX_BRANCH_POINTS:
        raise MonodromyDataError(
            f"2g + 2 branch points exceed the limit {MAX_BRANCH_POINTS}: g must be at most "
            f"{MAX_BRANCH_POINTS // 2 - 1}"
        )
    _refuse_degree_above(p, max_group_order)
    if not is_odd_prime(p):
        raise MonodromyDataError(f"cover degree must be an odd prime, got {p}")
    if 2 * p > max_group_order:  # the group is D_p, of order 2p: its closure would pass the bound
        raise EnumerationLimitError(f"group closure exceeds the configured bound {max_group_order}")

    # x -> a - x fixes a/2 alone and swaps the other points in pairs, so no cycle walk is needed
    reflection = (2,) * ((p - 1) // 2) + (1,)
    s_1 = Permutation._unchecked((1, 0, *range(p - 1, 1, -1)), reflection, 2)  # x -> 1 - x
    s_0 = Permutation._unchecked((0, *range(p - 1, 0, -1)), reflection, 2)  # x -> -x
    return BranchedCover(p, 0, (s_1, s_1) + (s_0,) * (2 * g))


def parse_cover(text: str, max_group_order: int = DEFAULT_MAX_GROUP_ORDER) -> BranchedCover:
    """Parse the cover file format.

    First non-empty line: ``degree n; base_genus b``.  Each following
    non-empty line is one permutation in 0-based cycle notation, e.g.
    ``(0 1)(2 3)``.  Whitespace-insensitive.  A degree above
    ``max_group_order`` is refused before any permutation is built.  Each
    distinct line is parsed once, and its repeats share the one
    ``Permutation`` object.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise MonodromyDataError("empty cover description")
    header = _HEADER.fullmatch(lines[0])
    if not header:
        raise MonodromyDataError(f"bad header line {lines[0]!r}: expected 'degree n; base_genus b'")
    degree, base_genus = map(_numeral, header.groups())
    _refuse_degree_above(degree, max_group_order)
    parsed = {line: Permutation.from_cycles(line, degree) for line in dict.fromkeys(lines[1:])}
    return BranchedCover(degree, base_genus, tuple(map(parsed.__getitem__, lines[1:])))


def load_cover(path: str, max_group_order: int = DEFAULT_MAX_GROUP_ORDER) -> BranchedCover:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as error:  # read() decodes the whole file at once, so its position is the file's
        raise MonodromyDataError(f"cover file is not UTF-8 text: {error}") from None
    return parse_cover(text, max_group_order)
