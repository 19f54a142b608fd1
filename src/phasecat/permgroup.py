"""Finite permutation groups and subgroup-level primitives.

Groups are given by generators acting on the points ``{0, ..., degree-1}``.
Elements are indexed by their position in the sorted element list, and all
subgroup machinery (lattice, conjugacy, transporters, normalizers, Weyl
groups) works on those indices through a dense Cayley table and an inverse
array, both built on first use.  Compact groups degenerate here to finite
ones: every morphism space downstream is already discrete, so the pi_0 step
of the discretized orbit category is the identity.

Everything is immutable after construction and all operations are pure.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import cached_property

from .errors import CapExceededError, ValidationError

Perm = tuple[int, ...]

#: Hard cap on group order; subgroup-lattice enumeration is exponential-ish.
ORDER_CAP = 1024
#: Orders above this trigger a runtime warning but still run.
ORDER_WARN = 200


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Composite permutation (p after q): x -> p[q[x]]."""
    return tuple(p[q[x]] for x in range(len(p)))


def check_perm(images, degree: int) -> Perm:
    """Validate an image array as a permutation of {0,...,degree-1}."""
    images = tuple(int(x) for x in images)
    if len(images) != degree:
        raise ValidationError(
            f"permutation has {len(images)} images, expected {degree}")
    if sorted(images) != list(range(degree)):
        raise ValidationError(f"images {images} are not a bijection "
                              f"on 0..{degree - 1}")
    return images


def parse_cycles(text: str, degree: int) -> list[int]:
    """Convert cycle notation like "(0 1)(2 3)" to an image array."""
    if not re.fullmatch(r"[\s,]*(\([\d\s,]*\)[\s,]*)*", text):
        raise ValidationError(f"malformed cycle notation: {text!r}")
    images = list(range(degree))
    for cyc in re.findall(r"\(([^)]*)\)", text):
        points = [int(p) for p in re.split(r"[\s,]+", cyc) if p]
        for a, b in zip(points, points[1:] + points[:1]):
            if not 0 <= a < degree:
                raise ValidationError(f"cycle point {a} out of range")
            images[a] = b
    if sorted(images) != list(range(degree)):
        raise ValidationError(f"cycles {text!r} do not form a permutation")
    return images


class FiniteGroup:
    """A permutation group with its full, canonically ordered element list.

    ``elements`` is the closure of the generators, sorted lexicographically
    by image tuple, so identical generator data always produces identical
    element indexing.  ``table`` and ``inverse`` are computed on first use.
    """

    def __init__(self, degree: int, generators, _elements=None):
        if degree <= 0:
            raise ValidationError("degree must be positive")
        self.degree = degree
        self.generators: tuple[Perm, ...] = tuple(
            check_perm(g, degree) for g in generators)
        if _elements is None:
            _elements = _closure_elements(degree, self.generators)
        self.elements: tuple[Perm, ...] = tuple(sorted(_elements))
        self._index: dict[Perm, int] = {
            p: i for i, p in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def identity_index(self) -> int:
        return self._index[identity_perm(self.degree)]

    def index(self, p: Perm) -> int:
        try:
            return self._index[tuple(p)]
        except KeyError:
            raise ValidationError(f"{p} is not an element of the group")

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """Cayley table: ``table[i][j]`` is the index of
        elements[i] * elements[j].

        Row i is left multiplication by element i.  Rows of a few
        generators are computed from the permutations; every other row is
        a composite ``row(s)[row(q)[j]]`` of rows already known, found
        breadth-first from the identity.
        """
        index, elements = self._index, self.elements
        rows = {self.identity_index: tuple(range(self.order))}
        used: list[tuple[int, ...]] = []
        for g in self.generators:
            if index[g] in rows:
                continue
            used.append(tuple(index[perm_mul(g, p)] for p in elements))
            frontier = list(rows)
            while frontier:
                nxt = []
                for q in frontier:
                    q_row = rows[q]
                    for s_row in used:
                        p = s_row[q]
                        if p not in rows:
                            rows[p] = tuple([s_row[x] for x in q_row])
                            nxt.append(p)
                frontier = nxt
        return tuple(rows[i] for i in range(self.order))

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        """``inverse[i]`` is the index of elements[i]^-1."""
        e = self.identity_index
        return tuple(row.index(e) for row in self.table)

    def mul(self, i: int, j: int) -> int:
        """Index of elements[i] * elements[j] (i applied after j)."""
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse[i]

    def conj(self, g: int, h: int) -> int:
        """Index of g h g^-1."""
        return self.table[self.table[g][h]][self.inverse[g]]

    def __repr__(self):
        return (f"FiniteGroup(degree={self.degree}, order={self.order}, "
                f"generators={len(self.generators)})")


def _closure_elements(degree: int, generators) -> set[Perm]:
    seen = {identity_perm(degree)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = perm_mul(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
                    if len(seen) > ORDER_CAP:
                        raise CapExceededError(
                            f"group order exceeds cap {ORDER_CAP}")
        frontier = nxt
    if len(seen) > ORDER_WARN:
        warnings.warn(
            f"group order {len(seen)} > {ORDER_WARN}; subgroup enumeration "
            "may be slow", stacklevel=3)
    return seen


def closure(degree: int, generators) -> FiniteGroup:
    """Smallest permutation group containing the generators."""
    return FiniteGroup(degree, generators)


def extend_generators(G: FiniteGroup, images, mul, one) -> tuple:
    """The homomorphism sending ``G.generators[i]`` to ``images[i]``, as a
    tuple indexed like ``G.elements``; ``mul(a, b)`` is a after b and
    ``one`` the identity's image.  Breadth-first along the generators'
    Cayley-table rows; an element reached twice with different images
    means the images break a relation of G."""
    if len(images) != len(G.generators):
        raise ValidationError("one image per group generator required")
    table = G.table
    rows = [table[G.index(g)] for g in G.generators]
    out = {G.identity_index: one}
    queue = [G.identity_index]
    for e in queue:
        for row, image in zip(rows, images):
            f, composed = row[e], mul(image, out[e])
            if f not in out:
                out[f] = composed
                queue.append(f)
            elif out[f] != composed:
                raise ValidationError("generator images do not satisfy the "
                                      "group's relations")
    return tuple(out[i] for i in range(G.order))


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of ``parent``, stored as a sorted element-index tuple."""
    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    @cached_property
    def generator_indices(self) -> tuple[int, ...]:
        """A generating tuple: each member, in order, that the earlier
        ones do not generate."""
        gens: list[int] = []
        span = {self.parent.identity_index}
        for h in self.members:
            if h not in span:
                gens.append(h)
                span = _generated(self.parent, gens)
        return tuple(gens)

    @cached_property
    def right_coset_min(self) -> tuple[int, ...]:
        """``right_coset_min[g]`` is min(H g), the canonical representative
        of the right coset of element g."""
        table = self.parent.table
        return tuple(min(col) for col in zip(*(table[h]
                                                for h in self.members)))

    def conjugate(self, g: int) -> "Subgroup":
        G = self.parent
        return Subgroup(G, tuple(G.conj(g, h) for h in self.members))

    def as_group(self) -> FiniteGroup:
        """The subgroup as a standalone FiniteGroup on the same points."""
        G = self.parent
        elems = {G.elements[i] for i in self.members}
        return FiniteGroup(G.degree, sorted(elems), _elements=elems)

    def __repr__(self):
        return f"Subgroup(order={self.order}, members={self.members})"


def subgroup_closure(G: FiniteGroup, seed) -> frozenset[int]:
    """The subgroup generated by a set of element indices."""
    return frozenset(_generated(G, seed))


def _generated(G: FiniteGroup, seed) -> set[int]:
    """Breadth-first search from the identity under left multiplication by
    the seed elements; in a finite group the positive words already
    contain every inverse."""
    rows = [G.table[s] for s in set(seed)]
    members = {G.identity_index}
    frontier = list(members)
    while frontier:
        nxt = []
        for x in frontier:
            for row in rows:
                y = row[x]
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return members


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, (G.identity_index,))


def full_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of G, sorted by (order, member tuple).

    Layered closure on the Cayley table: seed with all cyclic subgroups,
    then repeatedly extend each known subgroup H by one element g outside
    it.  Each known subgroup keeps the generator tuple it was found with,
    and the extension closes ``gens + (g,)``.  Every element of the coset
    gH gives the same extension, so one g per left coset is tried.
    Terminates because the subgroup lattice is finite; exhaustive because
    every subgroup is reachable by adjoining its elements one at a time.
    """
    if G.order > ORDER_CAP:
        raise CapExceededError(f"group order {G.order} exceeds {ORDER_CAP}")
    table = G.table
    known: dict[frozenset[int], tuple[int, ...]] = {
        frozenset({G.identity_index}): ()}
    for g in range(G.order):
        known.setdefault(subgroup_closure(G, (g,)), (g,))
    frontier = dict(known)
    while frontier:
        new: dict[frozenset[int], tuple[int, ...]] = {}
        for members, gens in frontier.items():
            tried = set(members)
            for g in range(G.order):
                if g in tried:
                    continue
                row = table[g]
                tried.update(row[h] for h in members)
                ext = subgroup_closure(G, gens + (g,))
                if ext not in known and ext not in new:
                    new[ext] = gens + (g,)
        known.update(new)
        frontier = new
    subs = [Subgroup(G, tuple(sorted(m))) for m in known]
    subs.sort(key=lambda s: (s.order, s.members))
    return subs


@dataclass(frozen=True)
class SubgroupClass:
    """A conjugacy class of subgroups with a canonical representative."""
    representative: Subgroup
    orbit_of_subgroups: tuple[Subgroup, ...]
    class_index: int

    @property
    def order(self) -> int:
        return self.representative.order

    def __repr__(self):
        return (f"SubgroupClass(#{self.class_index}, order={self.order}, "
                f"size={len(self.orbit_of_subgroups)})")


def conjugacy_classes_of_subgroups(
        G: FiniteGroup, subgroups: list[Subgroup] | None = None
) -> list[SubgroupClass]:
    """Partition of the subgroup lattice into conjugation orbits.

    Representatives are the subgroups with minimal member tuple in their
    orbit; classes are sorted by (order, representative members) and indexed
    in that order.
    """
    if subgroups is None:
        subgroups = all_subgroups(G)
    remaining = {s.members: s for s in subgroups}
    classes = []
    while remaining:
        members, sub = min(remaining.items())
        orbit = {}
        for g in range(G.order):
            c = sub.conjugate(g)
            orbit[c.members] = c
        for m in orbit:
            remaining.pop(m, None)
        reps = sorted(orbit)
        classes.append((Subgroup(G, reps[0]),
                        tuple(orbit[m] for m in reps)))
    classes.sort(key=lambda pair: (pair[0].order, pair[0].members))
    return [SubgroupClass(rep, orbit, i)
            for i, (rep, orbit) in enumerate(classes)]


def transporter(G: FiniteGroup, H0: Subgroup, H1: Subgroup) -> frozenset[int]:
    """{g in G | g H0 g^-1 <= H1}.

    Empty unless |H0| divides |H1|.  It suffices to conjugate H0's
    generators, and the set is a union of right cosets H1 g, so only the
    minimal element of each coset is tested.
    """
    if H1.order % H0.order:
        return frozenset()
    table, inverse = G.table, G.inverse
    target = H1.member_set
    gens = H0.generator_indices
    out: list[int] = []
    for g, rep in enumerate(H1.right_coset_min):
        if g != rep:
            continue
        row, g_inv = table[g], inverse[g]
        if all(table[row[h]][g_inv] in target for h in gens):
            out.extend(table[h][g] for h in H1.members)
    return frozenset(out)


def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    """{g | g H g^-1 = H}; for finite H, containment forces equality."""
    return Subgroup(G, tuple(sorted(transporter(G, H, H))))


def left_cosets(G: FiniteGroup, H: Subgroup,
                within: Subgroup | None = None) -> list[tuple[int, ...]]:
    """Left cosets gH inside ``within`` (default: all of G), each a sorted
    tuple, listed in order of their minimal element."""
    ambient = within.members if within is not None else range(G.order)
    seen: set[int] = set()
    cosets = []
    for g in ambient:
        if g in seen:
            continue
        coset = tuple(sorted(G.mul(g, h) for h in H.members))
        seen.update(coset)
        cosets.append(coset)
    cosets.sort(key=lambda c: c[0])
    return cosets


def weyl_group(G: FiniteGroup, H: Subgroup) -> FiniteGroup:
    """W_G(H) = N_G(H)/H as a permutation group on the cosets of H in N."""
    N = normalizer(G, H)
    cosets = left_cosets(G, H, within=N)
    where = {g: i for i, coset in enumerate(cosets) for g in coset}
    perms = {tuple(where[G.mul(n, c[0])] for c in cosets) for n in N.members}
    return FiniteGroup(len(cosets), sorted(perms), _elements=perms)
