"""Phase diagrams: the category of elements of pi_0 of the fixed-point
presheaf, the quotient functor from the transformation groupoid, the
forgetful functor to the orbit category, and the stratified-set variant.

Objects of the phase diagram are pairs (subgroup class H, component c of
Fix(H)); a morphism (H0,c0) -> (H1,c1) is an orbit-category morphism
alpha: H0 -> H1 whose induced map on components sends c1 to c0.  With this
direction convention, arrows run toward larger symmetry, matching the
symmetry-breaking reading of degenerations.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

from .category import FiniteCategory
from .errors import ValidationError
from .gspace import (FixPresheaf, GComplex, close_under_faces,
                     component_index, components, isotropy, pi0_fix_presheaf)
from .orbitcat import OrbitCategory, build_orbit_category
from .permgroup import FiniteGroup

Simplex = frozenset[int]


class PhaseObject(NamedTuple):
    """A phase object (H, c); as a tuple it is also the object's key."""
    subgroup_class: int
    component_id: int

    @property
    def label(self) -> str:
        return f"(H{self.subgroup_class},c{self.component_id})"


class PhaseCategory:
    """Phi_0[X/G] with its forgetful data down to O_0(G).

    ``objects[o]`` is the ``PhaseObject`` key of object o of ``category``;
    the data of a morphism is (orbit morphism, target component).
    """

    def __init__(self, orbit: OrbitCategory, presheaf: FixPresheaf):
        self.orbit = orbit
        self.presheaf = presheaf
        self.category = _build_phase(orbit, presheaf)
        self.objects = list(self.category.object_of)

    @property
    def aut_orders(self) -> list[int]:
        return [self.category.aut_order(o) for o in range(len(self.objects))]

    def object_index(self, subgroup_class: int, component_id: int) -> int:
        """The object (H, c), found by its key."""
        o = self.category.object_of.get(
            PhaseObject(subgroup_class, component_id))
        if o is None:
            raise ValidationError(
                f"no phase object (H{subgroup_class},c{component_id})")
        return o


def _build_phase(orbit: OrbitCategory, presheaf: FixPresheaf):
    objects = [PhaseObject(c, comp_id)
               for c, comps in enumerate(presheaf.comps)
               for comp_id in range(len(comps))]
    morphisms = []
    # the index of (m, 0); (m, c) follows it at start[m] + c
    start = []
    for m, om in enumerate(orbit.orbit_morphisms):
        start.append(len(morphisms))
        induced = presheaf.induced_map(om.source_class, om.target_class,
                                       om.coset_rep)
        for c1, c0 in enumerate(induced):
            morphisms.append((
                PhaseObject(om.source_class, c0),
                PhaseObject(om.target_class, c1),
                f"{orbit.category.morphisms[m].label}@c{c1}", (m, c1)))

    base = orbit.category

    def fill(cat) -> list[list[int]]:
        # the morphisms into (H, c) are (m1, c) over m1 into H, in the
        # same order, and (m2, c2) o (m1, c) = (m2 o m1, c2)
        return [[start[r] + c2 for r in base.columns[m2]]
                for m2, c2 in (b.data for b in cat.morphisms)]

    return FiniteCategory(
        {o: o.label for o in objects}, morphisms,
        [(base.identity[o.subgroup_class], o.component_id) for o in objects],
        fill)


def build_phase_diagram(G: FiniteGroup, X: GComplex,
                        orbit: OrbitCategory | None = None) -> PhaseCategory:
    """Grothendieck category of elements of pi_0 Fix over O_0(G)."""
    if X.group is not G:
        raise ValidationError("complex must carry an action of the group")
    if orbit is None:
        orbit = build_orbit_category(G)
    presheaf = pi0_fix_presheaf(X, orbit.classes)
    return PhaseCategory(orbit, presheaf)


class QuotientFunctor:
    """The functor [X/G] -> Phi_0[X/G] generalizing X -> pi_0 X.

    ``vertex_object[v]`` is the phase object of vertex v;
    ``arrow_image(g, v)`` is the phase morphism that the groupoid arrow
    g: v -> gv maps to.
    """
    __slots__ = ("phase", "vertex_object", "_conjugator")

    def __init__(self, phase: PhaseCategory, vertex_object: list[int],
                 _conjugator: list[int]):
        self.phase = phase
        self.vertex_object = vertex_object
        self._conjugator = _conjugator

    def arrow_image(self, g: int, v: int) -> int:
        X = self.phase.presheaf.X
        G = X.group
        # a negative index would wrap around to the last element or vertex,
        # and one past the end raises IndexError
        try:
            w = X.element_maps[g][v] if g >= 0 and v >= 0 else None
        except IndexError:
            w = None
        if w is None:
            raise ValidationError(
                f"no phase morphism for arrow (g={g}, v={v})")
        k0, k1 = self._conjugator[v], self._conjugator[w]
        # k1^-1 g k0 normalizes the class representative of Iso(v)
        n = G.mul(G.inv(k1), G.mul(g, k0))
        src = self.phase.objects[self.vertex_object[v]]
        dst = self.phase.objects[self.vertex_object[w]]
        base = self.phase.orbit.morphism_index(
            src.subgroup_class, dst.subgroup_class, n)
        m = self.phase.category.find((base, dst.component_id))
        if m is None:
            raise ValidationError(
                f"no phase morphism for arrow (g={g}, v={v})")
        mor = self.phase.category.morphisms[m]
        if (mor.src, mor.dst) != (self.vertex_object[v],
                                  self.vertex_object[w]):
            raise ValidationError(
                f"arrow image of (g={g}, v={v}) has wrong endpoints")
        return m


def quotient_functor(phase: PhaseCategory) -> QuotientFunctor:
    presheaf = phase.presheaf
    X, G = presheaf.X, presheaf.X.group
    classes = phase.orbit.classes
    class_of_members = {}  # subgroup -> position of its class in the list
    for c, cls in enumerate(classes):
        for sub in cls.orbit_of_subgroups:
            class_of_members[sub.members] = c

    maps = X.element_maps
    vertex_object: list[int] = []
    conjugator: list[int] = []
    for v in range(X.vertex_count):
        c = class_of_members.get(isotropy(X, v).members)
        if c is None:
            raise ValidationError(
                f"the isotropy class of vertex {v} is not listed")
        gens = classes[c].representative.generator_indices
        # k H k^-1 = Iso(v) exactly when H fixes k^-1 v, as both subgroups
        # have the same order; H's generators suffice
        for k in range(G.order):
            v_rep = maps[G.inv(k)][v]
            if all(maps[h][v_rep] == v_rep for h in gens):
                break
        conjugator.append(k)
        # v lies in Fix(k H k^-1); k^-1 v lies in Fix(H)
        comp = presheaf.component_of_vertex(c, v_rep)
        vertex_object.append(phase.object_index(c, comp))
    return QuotientFunctor(phase, vertex_object, conjugator)


class ForgetfulFunctor:
    """Phi_0[X/G] -> O_0(G): strips the component coordinate."""
    __slots__ = ("phase", "object_map", "morphism_map")

    def __init__(self, phase: PhaseCategory, object_map: list[int],
                 morphism_map: list[int]):
        self.phase = phase
        self.object_map = object_map
        self.morphism_map = morphism_map


def forgetful_functor(phase: PhaseCategory) -> ForgetfulFunctor:
    return ForgetfulFunctor(
        phase, [o.subgroup_class for o in phase.objects],
        [m.data[0] for m in phase.category.morphisms])


class StratifiedComplex:
    """A simplicial complex stratified over a finite poset.

    ``relations`` are pairs (i, j) meaning i <= j; the reflexive-transitive
    closure is taken.  The closure condition (faces live in lower strata)
    and the frontier condition (closure of a lower stratum is contained in
    the closure of any higher one) are both validated -- the latter is what
    makes i |-> pi_0(closure X_i) a functor on the poset.  Every vertex
    must lie in ``0 .. vertex_count-1``.
    """

    def __init__(self, vertex_count: int, simplices, assignment,
                 relations, codim=None):
        self.vertex_count = vertex_count
        raw = [frozenset(s) for s in simplices]
        if len(set(raw)) != len(raw):
            raise ValidationError("duplicate simplices")
        # a list that misses a face misses a facet of some listed simplex
        listed = set(raw)
        for s in raw:
            for v in s:
                face = s - {v}
                if face and face not in listed:
                    raise ValidationError(
                        f"simplex list not closed under faces: missing "
                        f"{sorted(face)}")
        close_under_faces(raw, vertex_count)
        if len(assignment) != len(raw):
            raise ValidationError("one stratum index per simplex required")
        self.simplices = raw
        self.assignment = {s: int(i) for s, i in zip(raw, assignment)}
        self.strata = sorted(set(self.assignment.values()))
        self.leq = _poset_closure(self.strata, relations)
        self.codim = dict(codim) if codim else None
        self._validate()

    def _validate(self):
        for s, i in self.assignment.items():
            for v in s:
                face = s - {v}
                if not face:
                    continue
                j = self.assignment[face]
                if (j, i) not in self.leq:
                    raise ValidationError(
                        f"closure condition violated: face {sorted(face)} "
                        f"(stratum {j}) of simplex {sorted(s)} (stratum {i})")
        closure = {i: self.stratum_closure(i) for i in self.strata}
        for (i, j) in sorted(self.leq):
            if i != j and not closure[i] <= closure[j]:
                s = next(iter(closure[i] - closure[j]))
                raise ValidationError(
                    f"frontier condition violated: stratum {i} <= {j} but "
                    f"simplex {sorted(s)} of closure({i}) is outside "
                    f"closure({j})")
        if self.codim is not None:
            for (i, j) in sorted(self.leq):
                ci, cj = self.codim.get(i), self.codim.get(j)
                if ci is None or cj is None:
                    continue
                if i != j and ci < cj:
                    warnings.warn(
                        f"codimension not monotone decreasing along "
                        f"{i} <= {j}", stacklevel=3)

    def stratum_closure(self, i: int) -> frozenset[Simplex]:
        own = [s for s, k in self.assignment.items() if k == i]
        return close_under_faces(own, self.vertex_count)


def _poset_closure(strata, relations) -> set[tuple[int, int]]:
    """Reflexive-transitive closure, by one search per stratum."""
    up: dict[int, set[int]] = {i: set() for i in strata}
    for (i, j) in relations:
        if i not in up or j not in up:
            raise ValidationError(f"relation ({i},{j}) names unused strata")
        up[int(i)].add(int(j))
    leq = set()
    for i in strata:
        reached, stack = {i}, [i]
        while stack:
            for j in up[stack.pop()] - reached:
                reached.add(j)
                stack.append(j)
        leq.update((i, j) for j in reached)
    for (i, j) in sorted(leq):
        if i < j and (j, i) in leq:
            raise ValidationError(f"poset relation has a cycle {i} ~ {j}")
    return leq


def strata_category(strat: StratifiedComplex) -> FiniteCategory:
    """Category of elements of i |-> pi_0(closure of stratum i).

    Objects are (stratum, component) pairs; there is exactly one arrow
    (i,c) -> (j,c') when i <= j and the closure inclusion carries c into c'.
    """
    comps = {i: components(strat.stratum_closure(i)) for i in strat.strata}
    objects = {(i, c): f"(S{i},c{c})"
               for i in strat.strata for c in range(len(comps[i]))}

    # the frontier condition puts closure(i) inside closure(j) for i <= j
    component_of = {i: component_index(comps[i]) for i in strat.strata}
    morphisms = []
    for (i, j) in sorted(strat.leq):
        for c, comp in enumerate(comps[i]):
            cj = component_of[j][comp[0]]
            morphisms.append(((i, c), (j, cj), f"{i}.c{c}<={j}", (i, c, j)))

    def fill(cat) -> list[list[int]]:
        # (j, c', k) o (i, c, j) = (i, c, k)
        mors, index = cat.morphisms, cat.morphism_of
        return [[index[(i, c, b.data[2])]
                 for i, c, _ in (mors[m1].data for m1 in cat.into[b.src])]
                for b in mors]

    return FiniteCategory(objects, morphisms,
                          [(i, c, i) for (i, c) in objects], fill)
