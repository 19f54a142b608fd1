"""Finite G-spaces: simplicial complexes with a group action.

A GComplex pairs a finite abstract simplicial complex with an action of a
FiniteGroup by simplicial automorphisms, given by one vertex image array per
group generator.  From it we compute fixed subcomplexes, their pi_0 (on the
1-skeleton, which determines connectivity), vertex isotropy/orbits, and the
full fixed-point presheaf over the subgroup classes.

"Fixed" means vertex-wise fixed.  An element that fixes a simplex setwise
but not pointwise triggers a warning recommending barycentric subdivision
(provided by :func:`subdivide`), after which setwise and pointwise fixing
agree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

from .errors import ValidationError
from .permgroup import (FiniteGroup, Subgroup, SubgroupClass, check_perm,
                        extend_generators, perm_mul)

Simplex = frozenset[int]


def close_under_faces(simplices) -> frozenset[Simplex]:
    out: set[Simplex] = set()
    stack = [frozenset(s) for s in simplices]
    for s in stack:
        if not s:
            raise ValidationError("empty simplex")
        if s not in out:
            out.add(s)
            for v in s:
                face = s - {v}
                if face and face not in out:
                    stack.append(face)
    return frozenset(out)


class GComplex:
    """A simplicial complex with a simplicial action of ``group``.

    ``generator_maps[i]`` is the vertex image array of ``group.generators[i]``;
    maps for every group element are derived by composing along the closure
    and checked for consistency (the generator maps must satisfy the group's
    relations).
    """

    def __init__(self, group: FiniteGroup, vertex_count: int, simplices,
                 generator_maps, warn_setwise: bool = True):
        if vertex_count <= 0:
            raise ValidationError("vertex count must be positive")
        self.group = group
        self.vertex_count = vertex_count
        self.simplices = close_under_faces(simplices)
        for s in self.simplices:
            for v in s:
                if not 0 <= v < vertex_count:
                    raise ValidationError(f"vertex {v} out of range")
        self.generator_maps = tuple(
            check_perm(m, vertex_count) for m in generator_maps)
        self.element_maps = extend_generators(
            group, self.generator_maps, perm_mul, tuple(range(vertex_count)))
        self._validate_simplicial(warn_setwise)

    def _validate_simplicial(self, warn_setwise: bool):
        # Every element map is a product of generator maps (consistent, as
        # extend_generators checked), so the generators carry simplices
        # to simplices iff every element does; only the setwise warning
        # needs the element maps.
        maps = self.element_maps if warn_setwise else self.generator_maps
        warned = False
        for vmap in maps:
            for s in self.simplices:
                image = frozenset(vmap[v] for v in s)
                if image not in self.simplices:
                    raise ValidationError(
                        f"vertex map {vmap} does not carry simplex "
                        f"{sorted(s)} to a simplex")
                if (warn_setwise and not warned and image == s
                        and any(vmap[v] != v for v in s)):
                    warnings.warn(
                        "an element fixes a simplex setwise but not "
                        "pointwise; fixed subcomplexes may miss topological "
                        "fixed points -- consider subdivide()", stacklevel=3)
                    warned = True

    def vertices(self) -> list[int]:
        return sorted(v for s in self.simplices if len(s) == 1 for v in s)


def fixed_subcomplex(X: GComplex, H: Subgroup) -> frozenset[Simplex]:
    """Simplices fixed vertex-wise by every element of H.

    A vertex fixed by every generator of H is fixed by H, so only the
    generators' maps are read.
    """
    fixed = set(range(X.vertex_count))
    for h in H.generator_indices:
        vmap = X.element_maps[h]
        fixed = {v for v in fixed if vmap[v] == v}
    return frozenset(s for s in X.simplices if s <= fixed)


def components(subset) -> list[tuple[int, ...]]:
    """Connected components of the 1-skeleton of a face-closed simplex set.

    Returns sorted vertex tuples, ordered (and identified) by minimal
    vertex.
    """
    subset = set(subset)
    verts = sorted({v for s in subset for v in s})
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s in subset:
        if len(s) == 2:
            a, b = sorted(s)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    comps: dict[int, list[int]] = {}
    for v in verts:
        comps.setdefault(find(v), []).append(v)
    return [tuple(sorted(comps[r])) for r in sorted(comps)]


def component_index(comps) -> dict[int, int]:
    """Vertex -> position of its component in a :func:`components` list."""
    return {v: i for i, comp in enumerate(comps) for v in comp}


def isotropy(X: GComplex, vertex: int) -> Subgroup:
    """Vertex stabilizer {g | g v = v} as a subgroup of X.group."""
    if not 0 <= vertex < X.vertex_count:
        raise ValidationError(f"vertex {vertex} out of range")
    members = tuple(g for g in range(X.group.order)
                    if X.element_maps[g][vertex] == vertex)
    return Subgroup(X.group, members)


def orbit_of(X: GComplex, vertex: int) -> frozenset[int]:
    if not 0 <= vertex < X.vertex_count:
        raise ValidationError(f"vertex {vertex} out of range")
    return frozenset(X.element_maps[g][vertex]
                     for g in range(X.group.order))


@dataclass
class FixPresheaf:
    """pi_0 of the fixed-point functor over the subgroup classes.

    ``comps[c]`` lists the components of Fix(H_c) for the class
    representative H_c; component ids are positions in that list, and
    ``vertex_component[c]`` maps each vertex of Fix(H_c) to its id.
    """
    X: GComplex
    classes: list[SubgroupClass]
    fixed: list[frozenset[Simplex]]
    comps: list[list[tuple[int, ...]]]

    def __post_init__(self):
        self.vertex_component = [component_index(c) for c in self.comps]

    def component_of_vertex(self, class_index: int, vertex: int) -> int:
        try:
            return self.vertex_component[class_index][vertex]
        except KeyError:
            raise ValidationError(
                f"vertex {vertex} not in Fix of class {class_index}") from None

    def induced_map(self, source_class: int, target_class: int,
                    g: int) -> list[int]:
        """The map pi0 Fix(H1) -> pi0 Fix(H0) induced by x |-> g^-1 x for a
        transporter element g (g H0 g^-1 <= H1).

        Returned as a list over target-class component ids giving
        source-class component ids.
        """
        X = self.X
        ginv = X.group.inv(g)
        out = []
        for comp in self.comps[target_class]:
            v = comp[0]
            out.append(self.component_of_vertex(
                source_class, X.element_maps[ginv][v]))
        return out

    def weyl_component_action(self, class_index: int, n: int) -> list[int]:
        """Permutation of Fix(H) components induced by x |-> n^-1 x for a
        normalizer element n."""
        return self.induced_map(class_index, class_index, n)


def pi0_fix_presheaf(X: GComplex,
                     classes: list[SubgroupClass]) -> FixPresheaf:
    fixed = [fixed_subcomplex(X, c.representative) for c in classes]
    comps = [components(f) for f in fixed]
    return FixPresheaf(X, classes, fixed, comps)


def subdivide(X: GComplex) -> GComplex:
    """Barycentric subdivision, with the action extended to barycenters.

    New vertices are the simplices of X (in sorted order); new simplices are
    the flags of proper inclusions.  A coface index ``up[i]`` lists, in
    vertex order, every simplex that properly contains simplex ``i``; it is
    built once from the faces of each simplex, and flags grow through it,
    so the work is proportional to the number of flags.
    """
    old = sorted(X.simplices, key=lambda s: (len(s), sorted(s)))
    where = {s: i for i, s in enumerate(old)}
    up: list[list[int]] = [[] for _ in old]
    for t, s in enumerate(old):
        verts = sorted(s)
        for k in range(1, len(verts)):
            for face in combinations(verts, k):
                up[where[frozenset(face)]].append(t)
    flags: list[tuple[int, ...]] = []

    def extend(chain: tuple[int, ...]):
        flags.append(chain)
        for t in up[chain[-1]]:
            extend(chain + (t,))

    for i in range(len(old)):
        extend((i,))
    gen_maps = []
    for vmap in X.generator_maps:
        gen_maps.append(tuple(where[frozenset(vmap[v] for v in s)]
                              for s in old))
    return GComplex(X.group, len(old), flags, gen_maps, warn_setwise=False)
