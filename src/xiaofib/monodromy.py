"""Branched covers of the line given by permutation monodromy.

A cover of degree n with k branch points is encoded by a tuple of
permutations (sigma_1, ..., sigma_k) of the sheet set {0, ..., n-1}.
Throughout the package tuples act left to right: sigma_1 is applied
first, and the product sigma_1 * sigma_2 * ... * sigma_k must be the
identity.  All genus computations reduce to Riemann-Hurwitz on cycle
types, so branch points are abstract labels and carry no coordinates.

A permutation is checked to be a bijection once, where it enters
(``Permutation(...)``, ``from_cycles``); products and inverses of
checked permutations are bijections by construction and are not checked
again.  Group closure and coset tables work on bare image tuples and
compose them with one kernel, ``_then``; a group's elements are wrapped
as ``Permutation`` objects once, at the end.  Each permutation finds its
cycle lengths in one pass and keeps them for ``order``, ``sign`` and
``cycle_type``.
"""

from __future__ import annotations

import re
from functools import reduce
from math import factorial, lcm
from operator import itemgetter

from .errors import DEFAULT_MAX_GROUP_ORDER, InputError
from .numerology import is_odd_prime
from .record import Record

CYCLIC = "cyclic"
DIHEDRAL = "dihedral"
SYMMETRIC = "symmetric"
OTHER = "other"


class MonodromyDataError(InputError, ValueError):
    """Monodromy data violates a structural invariant."""


class EnumerationLimitError(InputError, RuntimeError):
    """Group closure exceeded the configured element bound."""


class SubgroupContainmentError(ValueError):
    """Claimed subgroup is not contained in the ambient group."""


def _numeral(text: str) -> int:
    """A decimal numeral of cover input as an ``int``."""
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise MonodromyDataError(f"number has too many digits: {text[:12]}...") from None


class Permutation(Record):
    """Bijection of {0, ..., n-1}, stored as the tuple of images."""

    # ``_cycle_type``: cycle lengths sorted decreasingly, set by the first ``cycle_type`` call
    __slots__ = ("images", "_cycle_type")

    def __init__(self, images: tuple[int, ...]):
        images = tuple(images)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_cycle_type", None)
        if not all(type(i) is int for i in images):
            raise MonodromyDataError(f"permutation images must be integers: {images!r}")
        if sorted(images) != list(range(len(images))):
            raise MonodromyDataError(f"not a bijection of 0..{len(images) - 1}: {images!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap images already known to form a bijection, skipping the check."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        object.__setattr__(perm, "_cycle_type", None)
        return perm

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, text: str, degree: int) -> "Permutation":
        """Parse cycle notation such as ``(0 1)(2 3)``, 0-based, whitespace-insensitive."""
        stripped = re.sub(r"\s+", "", text)
        if re.sub(r"\([0-9,]*\)", "", stripped):
            raise MonodromyDataError(f"unparseable cycle notation: {text!r}")
        images = list(range(degree))
        seen: set[int] = set()
        for body in re.findall(r"\(([^()]*)\)", text):
            entries = [e for e in re.split(r"[,\s]+", body.strip()) if e]
            cycle = [_numeral(e) for e in entries]
            if any(i < 0 or i >= degree for i in cycle):
                raise MonodromyDataError(f"sheet index out of range 0..{degree - 1}: {text!r}")
            if seen.intersection(cycle) or len(set(cycle)) != len(cycle):
                raise MonodromyDataError(f"repeated sheet index in cycles: {text!r}")
            seen.update(cycle)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def then(self, other: "Permutation") -> "Permutation":
        """Composite applying ``self`` first, then ``other``."""
        if other.degree != self.degree:
            raise MonodromyDataError("composing permutations of different degrees")
        return Permutation._unchecked(_then(self.images)(other.images))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.then(other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._unchecked(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """All cycles, fixed points included."""
        out = []
        seen = [False] * self.degree
        for start in range(self.degree):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                cycle.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cycle))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths sorted decreasingly; sums to the degree.  Computed once."""
        lengths = self._cycle_type
        if lengths is None:
            images = self.images
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
            lengths = tuple(sorted(found, reverse=True))
            object.__setattr__(self, "_cycle_type", lengths)
        return lengths

    def order(self) -> int:
        """Least common multiple of the cycle lengths."""
        return lcm(*self.cycle_type())

    def sign(self) -> int:
        return -1 if (self.degree - len(self.cycle_type())) % 2 else 1

    def moved_points(self) -> frozenset[int]:
        return frozenset(i for i, j in enumerate(self.images) if i != j)

    def cycle_string(self) -> str:
        parts = ["(" + " ".join(map(str, c)) + ")" for c in self.cycles() if len(c) > 1]
        return "".join(parts) if parts else "()"


def _same(images: tuple[int, ...]) -> tuple[int, ...]:
    return images


def _then(first: tuple[int, ...]):
    """The map ``second -> first then second`` on image tuples: the one composition kernel.

    ``itemgetter`` with a single index returns a bare item, not a
    1-tuple; the only permutation of one sheet is the identity, so at
    degree 1 the map is the identity.
    """
    return itemgetter(*first) if len(first) > 1 else _same


def _powers(images: tuple[int, ...], count: int) -> list[tuple[int, ...]]:
    """The first ``count`` powers of a permutation as image tuples, the identity first."""
    step = _then(images)  # r then r^k is r^(k+1)
    power = tuple(range(len(images)))
    out = []
    for _ in range(count):
        out.append(power)
        power = step(power)
    return out


def _distinct(perms) -> list[Permutation]:
    """``perms`` without repeats, in first-seen order."""
    return list(dict.fromkeys(perms))


class BranchedCover(Record):
    """Degree-n cover of a genus-b curve, branch monodromy acting left to right."""

    # ``_group``: the monodromy group, set by the first ``generated_group`` call that enumerates it
    __slots__ = ("degree", "base_genus", "branch_monodromy", "_group")

    def __init__(self, degree: int, base_genus: int, branch_monodromy: tuple[Permutation, ...]):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "base_genus", base_genus)
        object.__setattr__(self, "branch_monodromy", tuple(branch_monodromy))
        object.__setattr__(self, "_group", None)
        if self.degree < 1:
            raise MonodromyDataError("cover degree must be positive")
        if self.base_genus < 0:
            raise MonodromyDataError("base genus must be non-negative")
        for sigma in self.branch_monodromy:
            if sigma.degree != self.degree:
                raise MonodromyDataError("permutation degree does not match cover degree")
            if sigma.is_identity():
                raise MonodromyDataError("branch permutations must be non-identity")
        if self.branch_monodromy:
            product = reduce(Permutation.then, self.branch_monodromy)
            if not product.is_identity():
                raise MonodromyDataError("branch monodromy product is not the identity")
        if not self._is_transitive():
            raise MonodromyDataError("monodromy group is not transitive: cover is disconnected")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.degree == other.degree
            and self.base_genus == other.base_genus
            and self.branch_monodromy == other.branch_monodromy
        )

    def __hash__(self):
        return hash((self.degree, self.base_genus, self.branch_monodromy))

    def _is_transitive(self) -> bool:
        # Forward images suffice: a permutation that maps a finite set into
        # itself maps it onto itself, so the set is closed under its inverse too.
        maps = [sigma.images for sigma in _distinct(self.branch_monodromy)]
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


class GroupDescriptor(Record):
    """A concrete permutation group: order, coarse classification, full element list."""

    __slots__ = ("order", "classification", "elements")

    def __init__(self, order: int, classification: str, elements: tuple[Permutation, ...]):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "classification", classification)
        object.__setattr__(self, "elements", tuple(elements))
        if self.order != len(self.elements):
            raise MonodromyDataError("group order does not match element count")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.order == other.order
            and self.classification == other.classification
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.order, self.classification, self.elements))


def rh_genus(cover: BranchedCover) -> int:
    """Genus from Riemann-Hurwitz: 2g - 2 = n(2b - 2) + sum over cycles of (len - 1)."""
    n = cover.degree
    ramification = sum(n - len(sigma.cycle_type()) for sigma in cover.branch_monodromy)
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


def _span(
    candidates, degree: int, max_order: int, within: set[tuple[int, ...]] | None = None
) -> set[tuple[int, ...]]:
    """The group generated by ``candidates``, grown one generator at a time.

    Candidates, ``within`` and the result are image tuples.  A candidate
    already in the span is skipped, and each one taken at least doubles
    the span, so this costs O(|G| log |G|) compositions.  Raises
    ``EnumerationLimitError`` before the span exceeds ``max_order``
    elements and, when ``within`` is given, ``MonodromyDataError`` as soon
    as the span leaves it.
    """
    span = {tuple(range(degree))}
    generators: list[tuple[int, ...]] = []
    for u in candidates:
        if u in span:
            continue
        generators.append(u)
        # the old span is closed under the old generators; new elements meet all of them
        frontier = [_then(g)(u) for g in span]
        while frontier:
            fresh = []
            for h in frontier:
                if h in span:
                    continue
                if within is not None and h not in within:
                    raise MonodromyDataError("element set is not closed under composition")
                if len(span) >= max_order:
                    raise EnumerationLimitError(
                        f"group closure exceeds the configured bound {max_order}"
                    )
                span.add(h)
                fresh.append(h)
            frontier = []
            for h in fresh:
                frontier.extend(map(_then(h), generators))
    return span


def _classify(elements: list[Permutation]) -> str:
    n = len(elements)
    orders = [e.order() for e in elements]
    if n in orders:
        return CYCLIC
    if n % 2 == 0 and n >= 6:
        m = n // 2
        for r, order in zip(elements, orders):
            if order != m:
                continue
            rotations = set(_powers(r.images, m))
            identity = tuple(range(r.degree))
            r_inv = r.inverse().images
            for s in {e.images for e in elements} - rotations:
                then_s = _then(s)
                if then_s(s) == identity and _then(then_s(r.images))(s) == r_inv:
                    return DIHEDRAL
            break
    moved: set[int] = set()
    for e in elements:
        moved.update(e.moved_points())
    if len(moved) >= 3 and n == factorial(len(moved)):
        return SYMMETRIC
    return OTHER


def _refuse_degree_above(degree: int, max_order: int) -> None:
    """A transitive group has at least as many elements as sheets, so refuse a larger degree."""
    if degree > max_order:
        raise EnumerationLimitError(
            f"cover degree {degree} exceeds the configured group-order bound {max_order}"
        )


def generated_group(cover: BranchedCover, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> GroupDescriptor:
    """Enumerate the monodromy group by closure under composition and classify it.

    The group is enumerated once per cover and kept on it; ``max_order``
    is checked on every call, and a cover of larger degree is refused at once.
    """
    _refuse_degree_above(cover.degree, max_order)
    group = cover._group
    if group is None:
        branch_images = (sigma.images for sigma in cover.branch_monodromy)
        span = _span(branch_images, cover.degree, max_order)
        elements = [Permutation._unchecked(images) for images in sorted(span)]
        group = GroupDescriptor(len(elements), _classify(elements), tuple(elements))
        object.__setattr__(cover, "_group", group)
    elif group.order > max_order:
        raise EnumerationLimitError(f"group closure exceeds the configured bound {max_order}")
    return group


def group_from_elements(perms: list[Permutation]) -> GroupDescriptor:
    """Descriptor for an explicitly listed group; closure and identity are verified."""
    by_images = {p.images: p for p in perms}
    if not by_images:
        raise MonodromyDataError("a group needs at least the identity")
    degree = len(next(iter(by_images)))
    if any(len(images) != degree for images in by_images):
        raise MonodromyDataError("group elements of different degrees")
    if tuple(range(degree)) not in by_images:
        raise MonodromyDataError("element list is missing the identity")
    members = set(by_images)
    _span(members, degree, len(members), within=members)
    ordered = [by_images[images] for images in sorted(members)]
    return GroupDescriptor(len(ordered), _classify(ordered), tuple(ordered))


def cyclic_rotation_subgroup(group: GroupDescriptor) -> GroupDescriptor:
    """The cyclic index-2 subgroup of a dihedral group descriptor."""
    if group.classification != DIHEDRAL:
        raise MonodromyDataError("rotation subgroup is defined for dihedral groups only")
    m = group.order // 2
    for r in group.elements:
        if r.order() != m:
            continue
        rotations = sorted(_powers(r.images, m))
        return GroupDescriptor(m, CYCLIC, tuple(map(Permutation._unchecked, rotations)))
    raise MonodromyDataError("dihedral descriptor has no rotation of half order")


def even_subgroup(group: GroupDescriptor) -> GroupDescriptor:
    """The subgroup of even permutations (alternating part)."""
    evens = sorted((e for e in group.elements if e.sign() == 1), key=lambda p: p.images)
    return GroupDescriptor(len(evens), _classify(evens), tuple(evens))


def galois_closure_genus(cover: BranchedCover, max_order: int = DEFAULT_MAX_GROUP_ORDER) -> int:
    """Genus of the regular cover on which the monodromy group acts by translation.

    Translation by sigma has no fixed element, so it splits the |G|
    elements into |G| / ord(sigma) cycles of length ord(sigma).
    """
    order = generated_group(cover, max_order).order
    ramification = sum(order - order // sigma.order() for sigma in cover.branch_monodromy)
    return _rh_solve(order, cover.base_genus, ramification)


def quotient_genus(
    cover: BranchedCover,
    subgroup: GroupDescriptor,
    max_order: int = DEFAULT_MAX_GROUP_ORDER,
) -> int:
    """Genus of the quotient of the Galois closure by ``subgroup``.

    The monodromy acts on cosets of the subgroup inside the full monodromy
    group; branch points whose induced action is trivial are dropped.
    """
    group = generated_group(cover, max_order)
    members = {u.images for u in subgroup.elements}
    if not members <= {g.images for g in group.elements}:
        raise SubgroupContainmentError("subgroup element is not in the monodromy group")
    if tuple(range(cover.degree)) not in members:
        raise MonodromyDataError("subgroup is missing the identity")
    _span(members, cover.degree, len(members), within=members)
    # the right coset of g is {u then g : u in the subgroup}
    member_maps = [_then(u) for u in members]
    coset_of: dict[tuple[int, ...], int] = {}
    reps: list[tuple[int, ...]] = []
    for g in group.elements:
        g = g.images
        if g in coset_of:
            continue
        for u_then in member_maps:
            coset_of[u_then(g)] = len(reps)
        reps.append(g)
    action = {
        sigma: Permutation(tuple(coset_of[_then(rep)(sigma.images)] for rep in reps))
        for sigma in _distinct(cover.branch_monodromy)
    }
    induced = tuple(action[s] for s in cover.branch_monodromy if not action[s].is_identity())
    quotient = BranchedCover(len(reps), cover.base_genus, induced)
    return rh_genus(quotient)


def build_dihedral_cover(
    g: int, p: int, max_group_order: int = DEFAULT_MAX_GROUP_ORDER
) -> BranchedCover:
    """Degree-p cover of the line with 2g + 2 reflection branch points.

    Sheets are Z/p and each branch permutation is a reflection
    x -> a - x (mod p), so every profile is {2^((p-1)/2), 1}.  The tuple
    (s_1, s_1, s_0, ..., s_0) multiplies to the identity and generates
    the full dihedral group of order 2p because s_0 * s_1 is the unit
    rotation.  A degree above ``max_group_order`` is refused before any
    permutation is built.
    """
    if g < 2:
        raise MonodromyDataError("base hyperelliptic genus must be at least 2")
    _refuse_degree_above(p, max_group_order)
    if not is_odd_prime(p):
        raise MonodromyDataError(f"cover degree must be an odd prime, got {p}")

    def reflection(a: int) -> Permutation:
        return Permutation(tuple((a - x) % p for x in range(p)))

    s_1 = reflection(1)
    tup = (s_1, s_1) + (reflection(0),) * (2 * g)
    return BranchedCover(p, 0, tup)


def parse_cover(text: str, max_group_order: int = DEFAULT_MAX_GROUP_ORDER) -> BranchedCover:
    """Parse the cover file format.

    First non-empty line: ``degree n; base_genus b``.  Each following
    non-empty line is one permutation in 0-based cycle notation, e.g.
    ``(0 1)(2 3)``.  Whitespace-insensitive.  A degree above
    ``max_group_order`` is refused before any permutation is built.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise MonodromyDataError("empty cover description")
    header = re.fullmatch(r"degree\s*(\d+)\s*;\s*base_genus\s*(\d+)", lines[0].strip())
    if not header:
        raise MonodromyDataError(f"bad header line {lines[0]!r}: expected 'degree n; base_genus b'")
    degree = _numeral(header.group(1))
    base_genus = _numeral(header.group(2))
    _refuse_degree_above(degree, max_group_order)
    perms = tuple(Permutation.from_cycles(line, degree) for line in lines[1:])
    return BranchedCover(degree, base_genus, perms)


def load_cover(path: str, max_group_order: int = DEFAULT_MAX_GROUP_ORDER) -> BranchedCover:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_cover(handle.read(), max_group_order)
