"""Finite G-spaces: simplicial complexes with a group action.

A GComplex pairs a finite abstract simplicial complex with an action of a
FiniteGroup by simplicial automorphisms, given by one vertex image array per
group generator.  From it we compute fixed subcomplexes, their pi_0 (on the
1-skeleton, which determines connectivity), vertex isotropy/orbits, and the
full fixed-point presheaf over the subgroup classes.

Every simplex set -- of a GComplex, of a subdivision and of a stratified
complex -- is built by :func:`close_under_faces`.  Every GComplex is checked
on its given simplices, which each generator map must carry to simplices,
and on the cycles of its element maps.  "Fixed" means vertex-wise fixed;
building warns exactly when some cycle's vertices form a simplex, that is
when some element fixes a simplex setwise but not pointwise, which
barycentric subdivision (:func:`subdivide`) rules out.
"""

from __future__ import annotations

import warnings
from itertools import permutations

from .errors import ValidationError
from .permgroup import (FiniteGroup, Subgroup, SubgroupClass, check_perm,
                        extend_generators, perm_mul)

Simplex = frozenset[int]


def close_under_faces(simplices, vertex_count: int) -> frozenset[Simplex]:
    """The given simplices with all their nonempty faces.

    Rejects a non-positive vertex count, an empty simplex and a vertex
    outside ``0 .. vertex_count-1``; only the given simplices are checked,
    as their faces use the same vertices.  A face is marked when it is
    pushed, so the stack holds each simplex at most once.
    """
    if vertex_count <= 0:
        raise ValidationError("vertex count must be positive")
    out: set[Simplex] = set()
    stack: list[Simplex] = []
    for s in simplices:
        s = frozenset(s)
        if not s:
            raise ValidationError("empty simplex")
        for v in s:
            if not 0 <= v < vertex_count:
                raise ValidationError(f"vertex {v} out of range")
        if s not in out:
            out.add(s)
            stack.append(s)
    for s in stack:
        for v in s:
            face = s - {v}
            if face and face not in out:
                out.add(face)
                stack.append(face)
    return frozenset(out)


class GComplex:
    """A simplicial complex with a simplicial action of ``group``.

    ``generator_maps[i]`` is the vertex image array of ``group.generators[i]``;
    maps for every group element are derived by composing along the closure
    and checked for consistency (the generator maps must satisfy the group's
    relations).  Every vertex must lie in a simplex, and each generator map
    must carry each given simplex to a simplex.  Building warns when some
    element fixes a simplex setwise but not pointwise.
    """

    def __init__(self, group: FiniteGroup, vertex_count: int, simplices,
                 generator_maps):
        self.group = group
        self.vertex_count = vertex_count
        given = list(simplices)
        self.simplices = close_under_faces(given, vertex_count)
        # the 0-simplices are distinct and in range, so there are
        # vertex_count of them exactly when every vertex lies in a simplex
        points = sorted(v for s in self.simplices if len(s) == 1 for v in s)
        if len(points) != vertex_count:
            v = next((i for i, p in enumerate(points) if i != p), len(points))
            raise ValidationError(f"vertex {v} lies in no simplex")
        self.generator_maps = tuple(
            check_perm(m, vertex_count) for m in generator_maps)
        self.element_maps = extend_generators(
            group, self.generator_maps, perm_mul, tuple(range(vertex_count)))
        self._validate_simplicial(given)

    def _validate_simplicial(self, given):
        # Every simplex is a face of a given one, so the generators carry
        # the face-closed complex into itself when they carry each given
        # simplex to a simplex.
        for vmap in self.generator_maps:
            for s in given:
                if frozenset([vmap[v] for v in s]) not in self.simplices:
                    raise ValidationError(
                        f"vertex map {vmap} does not carry simplex "
                        f"{sorted(s)} to a simplex")
        # If g s = s and g moves a vertex v of s, the <g>-orbit of v is a
        # face of s; so some element fixes a simplex setwise but not
        # pointwise exactly when some cycle of moved vertices is a simplex.
        for vmap in self.element_maps:
            walked = bytearray(len(vmap))
            for v, w in enumerate(vmap):
                if walked[v] or w == v:
                    continue
                cycle = [v]
                while w != v:
                    cycle.append(w)
                    walked[w] = 1
                    w = vmap[w]
                if frozenset(cycle) in self.simplices:
                    warnings.warn(
                        "an element fixes a simplex setwise but not "
                        "pointwise; fixed subcomplexes may miss topological "
                        "fixed points -- consider subdivide()", stacklevel=3)
                    return


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


class FixPresheaf:
    """pi_0 of the fixed-point functor over the subgroup classes.

    ``comps[c]`` lists the components of Fix(H_c) for the class
    representative H_c; component ids are positions in that list, and
    ``vertex_component[c]`` maps each vertex of Fix(H_c) to its id.
    """
    __slots__ = ("X", "comps", "vertex_component")

    def __init__(self, X: GComplex, comps: list[list[tuple[int, ...]]]):
        self.X = X
        self.comps = comps
        self.vertex_component = [component_index(c) for c in comps]

    def component_of_vertex(self, class_index: int, vertex: int) -> int:
        # a negative index wraps around; one past the end is an IndexError
        try:
            if class_index >= 0:
                return self.vertex_component[class_index][vertex]
        except (IndexError, KeyError):
            pass
        raise ValidationError(
            f"vertex {vertex} not in Fix of class {class_index}")

    def induced_map(self, source_class: int, target_class: int,
                    g: int) -> list[int]:
        """The map pi0 Fix(H1) -> pi0 Fix(H0) induced by x |-> g^-1 x for a
        transporter element g (g H0 g^-1 <= H1).

        Returned as a list over target-class component ids giving
        source-class component ids.
        """
        # a negative index wraps around; one past the end is an IndexError
        try:
            if source_class >= 0 and target_class >= 0 and g >= 0:
                source = self.vertex_component[source_class]
                act = self.X.element_maps[self.X.group.inv(g)]
                # not a comprehension: its own call doubled this on 3.11
                out = []
                for comp in self.comps[target_class]:
                    out.append(source[act[comp[0]]])
                return out
        except IndexError:
            pass
        except KeyError as e:
            raise ValidationError(f"vertex {e.args[0]} not in Fix of class "
                                  f"{source_class}") from None
        raise ValidationError(f"class {source_class} or {target_class}, or "
                              f"element {g}, out of range")


def pi0_fix_presheaf(X: GComplex,
                     classes: list[SubgroupClass]) -> FixPresheaf:
    return FixPresheaf(X, [components(fixed_subcomplex(X, c.representative))
                           for c in classes])


def subdivide(X: GComplex) -> GComplex:
    """Barycentric subdivision, with the action extended to barycenters.

    New vertices are the simplices of X in (size, sorted vertices) order;
    new simplices are the flags of proper inclusions.  Only the complete
    flags of X's maximal simplices are passed on, one per ordering of a
    maximal simplex's vertices; :func:`close_under_faces` adds the rest.
    """
    old = sorted(X.simplices, key=lambda s: (len(s), sorted(s)))
    where = {s: i for i, s in enumerate(old)}
    faces = {s - {v} for s in old for v in s}
    flags = [[where[frozenset(order[:k])] for k in range(1, len(s) + 1)]
             for s in old if s not in faces for order in permutations(s)]
    gen_maps = [tuple(where[frozenset(vmap[v] for v in s)] for s in old)
                for vmap in X.generator_maps]
    return GComplex(X.group, len(old), flags, gen_maps)
