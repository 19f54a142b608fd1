"""Finite permutation groups and subgroup-level primitives.

Groups are given by generators acting on the points ``{0, ..., degree-1}``.
Elements are indexed by their position in the sorted element list.  The
closure walk that finds them keeps each generator's row of products, and
data given on generators (the Cayley table, actions, representations)
extends to the whole group along those rows.  The conjugacy classes of
subgroups and their subconjugacy order come from one walk that extends a
single subgroup per class; the lattice is the union of their orbits, each
class keeps the walk's edges out of it, and the orbit category and the
degeneracy quiver search the order along them.  All subgroup
machinery (lattice, conjugacy, transporters, normalizers, Weyl groups)
works on the indices through a dense Cayley table and an inverse array,
both built on first use.  Compact groups degenerate here to finite ones:
every morphism space downstream is already discrete, so the pi_0 step of
the discretized orbit category is the identity.

Everything is immutable after construction and all operations are pure.
"""

from __future__ import annotations

import re
from functools import cached_property

from .errors import CapExceededError, Frozen, ValidationError

Perm = tuple[int, ...]

#: Hard cap on group order; subgroup-lattice enumeration is exponential-ish.
ORDER_CAP = 1024
#: Hard cap on the number of points acted on, checked before a permutation
#: of that length is built; a Weyl group acts on up to ORDER_CAP cosets.
DEGREE_CAP = 4 * ORDER_CAP
#: Hard cap on the subgroup classes of one class walk, checked as each new
#: class is found.  C2^7 has 29,212 classes, each a single subgroup, and
#: ``group info`` on it takes 2 to 4 s at about 104 MiB; C2^8 has 417,199.
CLASS_CAP = 2 ** 16


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Composite permutation (p after q): x -> p[q[x]]."""
    return tuple([p[x] for x in q])


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


def _check_degree(degree: int) -> None:
    if degree <= 0:
        raise ValidationError("degree must be positive")
    if degree > DEGREE_CAP:
        raise CapExceededError(
            f"degree {degree} exceeds DEGREE_CAP={DEGREE_CAP}")


def parse_cycles(text: str, degree: int) -> list[int]:
    """Convert cycle notation like "(0 1)(2 3)" to an image array."""
    _check_degree(degree)
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
    element indexing.  The closure walk records each generator's product
    with every element: ``_steps[s][i]`` is the index of
    ``generators[s] * elements[i]``.  Every extension of generator data to
    the whole group, the Cayley table included, follows these rows.
    ``table`` and ``inverse`` are computed on first use.
    """

    def __init__(self, degree: int, generators):
        _check_degree(degree)
        self.degree = degree
        self.generators: tuple[Perm, ...] = tuple(
            check_perm(g, degree) for g in generators)
        # breadth-first from the identity; found[i] is the i-th element
        # reached and steps[s][i] the position of generators[s] * found[i]
        found = [identity_perm(degree)]
        where = {found[0]: 0}
        steps: list[list[int]] = [[] for _ in self.generators]
        for p in found:
            for g, row in zip(self.generators, steps):
                q = perm_mul(g, p)
                i = where.get(q)
                if i is None:
                    i = where[q] = len(found)
                    found.append(q)
                    if i >= ORDER_CAP:
                        raise CapExceededError(
                            f"closure passed ORDER_CAP={ORDER_CAP}: "
                            f"{i + 1} elements found so far")
                row.append(i)
        self.elements: tuple[Perm, ...] = tuple(sorted(found))
        self._index: dict[Perm, int] = {
            p: i for i, p in enumerate(self.elements)}
        rank = [self._index[p] for p in found]
        self._steps: tuple[tuple[int, ...], ...] = tuple(
            tuple([rank[row[where[p]]] for p in self.elements])
            for row in steps)

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

        Row i is left multiplication by element i, so the rows are the
        left regular representation, extended from the generator rows.
        """
        return extend_generators(self, self._steps, perm_mul,
                                 tuple(range(self.order)))

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


def closure(degree: int, generators) -> FiniteGroup:
    """Smallest permutation group containing the generators."""
    return FiniteGroup(degree, generators)


def extend_generators(G: FiniteGroup, images, mul, one) -> tuple:
    """The homomorphism sending ``G.generators[i]`` to ``images[i]``, as a
    tuple indexed like ``G.elements``; ``mul(a, b)`` is a after b and
    ``one`` the identity's image.  Breadth-first along the closure walk's
    generator rows; an element reached twice with different images means
    the images break a relation of G."""
    if len(images) != len(G.generators):
        raise ValidationError("one image per group generator required")
    out = {G.identity_index: one}
    queue = [G.identity_index]
    for e in queue:
        for row, image in zip(G._steps, images):
            f, composed = row[e], mul(image, out[e])
            if f not in out:
                out[f] = composed
                queue.append(f)
            elif out[f] != composed:
                raise ValidationError("generator images do not satisfy the "
                                      "group's relations")
    return tuple(out[i] for i in range(G.order))


class Subgroup(Frozen):
    """A subgroup of ``parent``, stored as a sorted element-index tuple."""
    _fields = ("parent", "members")

    def __init__(self, parent: FiniteGroup, members: tuple[int, ...]):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "members", tuple(sorted(members)))

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
        return _span(self.parent, self.members)[0]

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

    def __repr__(self):
        return f"Subgroup(order={self.order}, members={self.members})"


def subgroup_closure(G: FiniteGroup, seed) -> frozenset[int]:
    """The subgroup generated by a set of element indices."""
    return _span(G, seed)[1]


def _span(G: FiniteGroup, seed) -> tuple[tuple[int, ...], frozenset[int]]:
    """The seed elements the earlier ones do not generate, and their span."""
    picks, span = (), frozenset({G.identity_index})
    for g in seed:
        if g not in span:
            span, picks = _extend(G, span, picks, g), picks + (g,)
    return picks, span


def _extend(G: FiniteGroup, H: frozenset[int], gens, g: int):
    """<H, g> for the subgroup H that ``gens`` generate: the union of the
    cosets x H reached from H by left multiplication by ``gens`` and g,
    which permutes the left cosets of H (Dimino's coset extension)."""
    table = G.table
    rows = [table[s] for s in (*gens, g)]
    members, reps = set(H), [G.identity_index]
    for x in reps:
        for row in rows:
            y = row[x]
            if y not in members:
                reps.append(y)
                members.update([table[y][h] for h in H])
    return frozenset(members)


class SubgroupClass(Frozen):
    """A conjugacy class of subgroups with a canonical representative.

    ``extensions`` are the classes of the subgroups <H, g> that the class
    walk reached from its first subgroup H: the edges of the subconjugacy
    order, which :func:`subconjugacy` searches.  They are left out of
    equality and hashing, which would otherwise walk the order."""
    _fields = ("representative", "orbit_of_subgroups", "class_index")
    __slots__ = (*_fields, "extensions")

    def __init__(self, representative: Subgroup,
                 orbit_of_subgroups: tuple[Subgroup, ...], class_index: int,
                 extensions: tuple[SubgroupClass, ...]):
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "orbit_of_subgroups", orbit_of_subgroups)
        object.__setattr__(self, "class_index", class_index)
        object.__setattr__(self, "extensions", extensions)

    @property
    def order(self) -> int:
        return self.representative.order

    def __repr__(self):
        return (f"SubgroupClass(#{self.class_index}, order={self.order}, "
                f"size={len(self.orbit_of_subgroups)})")


def conjugacy_classes_of_subgroups(
        G: FiniteGroup, subgroups: list[Subgroup] | None = None
) -> list[SubgroupClass]:
    """The conjugacy classes of subgroups of G and their subconjugacy
    order, by cyclic extension of class representatives.

    One walk from the trivial subgroup.  Each class extends only the first
    subgroup H found in it, by one element g per left coset gH (every
    element of gH gives the same extension), growing <H, g> from H by its
    cosets.  This reaches every class: if K = <K', g> and
    K' = x H x^-1, then x^-1 K x = <H, x^-1 g x>.  A new subgroup's orbit
    is closed under conjugation by G's generators at once, so a conjugate
    found later is not taken for a new class.  Each class keeps its edges
    H -> <H, g> as ``extensions``, and subconjugacy is their closure: for
    H < x K x^-1, the walk tries a g in x K x^-1 - H up to gH, and <H, g>
    has smaller index in x K x^-1.

    Representatives are the subgroups with minimal member tuple in their
    orbit; classes are sorted by (order, representative members) and
    indexed in that order.  Given ``subgroups``, only the classes that
    meet them are kept, indexed in the same order; the other classes of G
    are reached only along ``extensions`` and are indexed after them.
    """
    table, inverse = G.table, G.inverse
    # conjugations[s][h] is the index of g h g^-1, g the s-th generator
    conjugations = []
    for p in G.generators:
        g = G.index(p)
        conjugations.append([table[x][inverse[g]] for x in table[g]])
    trivial = frozenset({G.identity_index})
    seen = {trivial: 0}  # subgroup -> position of its class in the walk
    # per class: the generators of its first subgroup, its orbit with that
    # subgroup first, and the classes its extensions reach
    walk = [((), [trivial], set())]
    for gens, orbit, reached in walk:
        H = orbit[0]
        tried = set(H)
        for g in range(G.order):
            if g in tried:
                continue
            row = table[g]
            tried.update([row[h] for h in H])
            K = _extend(G, H, gens, g)
            if K not in seen:
                if len(walk) >= CLASS_CAP:
                    raise CapExceededError(
                        f"subgroup class walk passed CLASS_CAP={CLASS_CAP}: "
                        f"{len(walk) + 1} classes found so far")
                seen[K] = len(walk)
                conjugates = [K]
                for S in conjugates:
                    for conj in conjugations:
                        T = frozenset([conj[h] for h in S])
                        if T not in seen:
                            seen[T] = len(walk)
                            conjugates.append(T)
                walk.append((gens + (g,), conjugates, set()))
            reached.add(seen[K])
    orbits = [sorted([tuple(sorted(S)) for S in orbit])
              for _, orbit, _ in walk]
    order = sorted(range(len(walk)),
                   key=lambda w: (len(orbits[w][0]), orbits[w][0]))
    kept = order
    if subgroups is not None:
        given = {frozenset(s.members) for s in subgroups}
        kept = [w for w in order if not given.isdisjoint(walk[w][1])]
    # the kept classes are indexed first, the others after them
    index = {w: i for i, w in enumerate(kept)}
    for w in order:
        index.setdefault(w, len(index))
    made = {}
    for w in reversed(order):  # so each extension is made before its source
        orbit = tuple(Subgroup(G, m) for m in orbits[w])
        made[w] = SubgroupClass(orbit[0], orbit, index[w], tuple(
            [made[r] for r in sorted(walk[w][2], key=index.get)]))
    return [made[w] for w in kept]


def subconjugacy(classes: list[SubgroupClass]) -> list[list[int]]:
    """For each listed class, the ascending positions of the listed
    classes at or above it in the subconjugacy order.  A search along
    ``extensions`` through every class of G, listed or not, so a slice of
    the classes or the classes of some subgroups keep their order."""
    where = {c.representative.members: i for i, c in enumerate(classes)}
    out = []
    for c in classes:
        seen = {c.representative.members}
        reached = [c]
        for d in reached:
            for e in d.extensions:
                if e.representative.members not in seen:
                    seen.add(e.representative.members)
                    reached.append(e)
        out.append(sorted([where[k] for k in seen if k in where]))
    return out


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Every subgroup of G, sorted by (order, member tuple): the union of
    the orbits of its conjugacy classes."""
    subs = [s for c in conjugacy_classes_of_subgroups(G)
            for s in c.orbit_of_subgroups]
    subs.sort(key=lambda s: (s.order, s.members))
    return subs


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


def weyl_group(G: FiniteGroup, H: Subgroup) -> FiniteGroup:
    """W_G(H) = N_G(H)/H as a permutation group on the cosets of H in N,
    numbered in order of their minimal element and generated by the
    images of N's generators.  N normalizes H, so each coset nH is the
    right coset Hn, named by its minimal element."""
    N = normalizer(G, H)
    name = H.right_coset_min
    reps = sorted({name[n] for n in N.members})
    label = {r: i for i, r in enumerate(reps)}
    return FiniteGroup(len(reps), [[label[name[G.mul(n, r)]] for r in reps]
                                   for n in N.generator_indices])
