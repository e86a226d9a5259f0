"""Branched covers of the line given by permutation monodromy.

A cover of degree n with k branch points is encoded by a tuple of
permutations (sigma_1, ..., sigma_k) of the sheet set {0, ..., n-1}.
Throughout the package tuples act left to right: sigma_1 is applied
first, and the product sigma_1 * sigma_2 * ... * sigma_k must be the
identity.  All genus computations reduce to Riemann-Hurwitz on cycle
types, so branch points are abstract labels and carry no coordinates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from math import factorial, lcm

from .numerology import is_odd_prime

DEFAULT_MAX_GROUP_ORDER = 5000

CYCLIC = "cyclic"
DIHEDRAL = "dihedral"
SYMMETRIC = "symmetric"
OTHER = "other"


class MonodromyDataError(ValueError):
    """Monodromy data violates a structural invariant."""


class EnumerationLimitError(RuntimeError):
    """Group closure exceeded the configured element bound."""


class SubgroupContainmentError(ValueError):
    """Claimed subgroup is not contained in the ambient group."""


@dataclass(frozen=True)
class Permutation:
    """Bijection of {0, ..., n-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(len(images))):
            raise MonodromyDataError(f"not a bijection of 0..{len(images) - 1}: {images!r}")

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
            cycle = [int(e) for e in entries]
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
        return Permutation(tuple(map(other.images.__getitem__, self.images)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.then(other)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

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
        """Cycle lengths sorted decreasingly; sums to the degree."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def order(self) -> int:
        """Least common multiple of the cycle lengths."""
        return lcm(*(len(c) for c in self.cycles()))

    def sign(self) -> int:
        return -1 if (self.degree - len(self.cycles())) % 2 else 1

    def moved_points(self) -> frozenset[int]:
        return frozenset(i for i, j in enumerate(self.images) if i != j)

    def cycle_string(self) -> str:
        parts = ["(" + " ".join(map(str, c)) + ")" for c in self.cycles() if len(c) > 1]
        return "".join(parts) if parts else "()"


def _distinct(perms) -> list[Permutation]:
    """``perms`` without repeats, in first-seen order."""
    return list(dict.fromkeys(perms))


@dataclass(frozen=True)
class BranchedCover:
    """Degree-n cover of a genus-b curve, branch monodromy acting left to right."""

    degree: int
    base_genus: int
    branch_monodromy: tuple[Permutation, ...]
    # the monodromy group, set by the first ``generated_group`` call that enumerates it
    _group: GroupDescriptor | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "branch_monodromy", tuple(self.branch_monodromy))
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


@dataclass(frozen=True)
class GroupDescriptor:
    """A concrete permutation group: order, coarse classification, full element list."""

    order: int
    classification: str
    elements: tuple[Permutation, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.order != len(self.elements):
            raise MonodromyDataError("group order does not match element count")


def rh_genus(cover: BranchedCover) -> int:
    """Genus from Riemann-Hurwitz: 2g - 2 = n(2b - 2) + sum over cycles of (len - 1)."""
    n = cover.degree
    ramification = sum(n - len(sigma.cycles()) for sigma in cover.branch_monodromy)
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
    candidates, degree: int, max_order: int, within: set[Permutation] | None = None
) -> set[Permutation]:
    """The group generated by ``candidates``, grown one generator at a time.

    A candidate already in the span is skipped, and each one taken at
    least doubles the span, so this costs O(|G| log |G|) compositions.
    Raises ``EnumerationLimitError`` before the span exceeds ``max_order``
    elements and, when ``within`` is given, ``MonodromyDataError`` as soon
    as the span leaves it.
    """
    span = {Permutation.identity(degree)}
    generators: list[Permutation] = []
    for u in candidates:
        if u in span:
            continue
        generators.append(u)
        # the old span is closed under the old generators; new elements meet all of them
        frontier = [g.then(u) for g in span]
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
            frontier = [h.then(s) for h in fresh for s in generators]
    return span


def _classify(elements: list[Permutation]) -> str:
    n = len(elements)
    orders = [e.order() for e in elements]
    if n in orders:
        return CYCLIC
    if n % 2 == 0 and n >= 6:
        m = n // 2
        element_set = set(elements)
        for r, order in zip(elements, orders):
            if order != m:
                continue
            rotations = set()
            power = Permutation.identity(r.degree)
            for _ in range(m):
                rotations.add(power)
                power = power.then(r)
            r_inv = r.inverse()
            for s in element_set - rotations:
                if s.then(s).is_identity() and s.then(r).then(s) == r_inv:
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
        span = _span(cover.branch_monodromy, cover.degree, max_order)
        elements = sorted(span, key=lambda p: p.images)
        group = GroupDescriptor(len(elements), _classify(elements), tuple(elements))
        object.__setattr__(cover, "_group", group)
    elif group.order > max_order:
        raise EnumerationLimitError(f"group closure exceeds the configured bound {max_order}")
    return group


def group_from_elements(perms: list[Permutation]) -> GroupDescriptor:
    """Descriptor for an explicitly listed group; closure and identity are verified."""
    elements = set(perms)
    if not elements:
        raise MonodromyDataError("a group needs at least the identity")
    degree = next(iter(elements)).degree
    if Permutation.identity(degree) not in elements:
        raise MonodromyDataError("element list is missing the identity")
    _span(elements, degree, len(elements), within=elements)
    ordered = sorted(elements, key=lambda p: p.images)
    return GroupDescriptor(len(ordered), _classify(ordered), tuple(ordered))


def cyclic_rotation_subgroup(group: GroupDescriptor) -> GroupDescriptor:
    """The cyclic index-2 subgroup of a dihedral group descriptor."""
    if group.classification != DIHEDRAL:
        raise MonodromyDataError("rotation subgroup is defined for dihedral groups only")
    m = group.order // 2
    for r in group.elements:
        if r.order() != m:
            continue
        rotations = []
        power = Permutation.identity(r.degree)
        for _ in range(m):
            rotations.append(power)
            power = power.then(r)
        return GroupDescriptor(m, CYCLIC, tuple(sorted(rotations, key=lambda p: p.images)))
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
    ambient = set(group.elements)
    members = set(subgroup.elements)
    for u in subgroup.elements:
        if u not in ambient:
            raise SubgroupContainmentError("subgroup element is not in the monodromy group")
    if Permutation.identity(cover.degree) not in members:
        raise MonodromyDataError("subgroup is missing the identity")
    _span(members, cover.degree, len(members), within=members)
    coset_of: dict[tuple[int, ...], int] = {}
    reps: list[Permutation] = []
    for g in group.elements:
        if g.images in coset_of:
            continue
        for u in subgroup.elements:
            coset_of[u.then(g).images] = len(reps)
        reps.append(g)
    action = {
        sigma: Permutation(tuple(coset_of[rep.then(sigma).images] for rep in reps))
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
    degree = int(header.group(1))
    base_genus = int(header.group(2))
    _refuse_degree_above(degree, max_group_order)
    perms = tuple(Permutation.from_cycles(line, degree) for line in lines[1:])
    return BranchedCover(degree, base_genus, perms)


def load_cover(path: str, max_group_order: int = DEFAULT_MAX_GROUP_ORDER) -> BranchedCover:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_cover(handle.read(), max_group_order)
