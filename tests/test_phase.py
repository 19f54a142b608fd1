import random
import re

import pytest

from phasecat import (GComplex, StratifiedComplex, ValidationError,
                      build_orbit_category, build_phase_diagram,
                      category_isomorphic, closure, components,
                      conjugacy_classes_of_subgroups, export_olog,
                      forgetful_functor, import_olog, quotient_functor,
                      strata_category, subdivide, weyl_group)
from phasecat import fixtures as fx
from phasecat.category import Morphism
from phasecat.errors import CapExceededError
from phasecat.phase import PhaseObject, QuotientFunctor, _poset_closure

from oracles import (bf_hom_sets, bf_iso_cost, bf_isomorphic, is_identity,
                     lookalike_category, one_arrow_category,
                     parallel_arrows_category, phase_fiber,
                     table_category, warshall_closure,
                     weyl_component_action)

GROUP_NAMES = ["trivial", "c2", "c4", "s3", "d4", "a4", "s4"]


def point_complex(G):
    gens = [[0]] * len(G.generators)
    return GComplex(G, 1, [[0]], gens)


@pytest.fixture(scope="module")
def reflection_phase(c2, square_reflection):
    orbit = build_orbit_category(c2)
    return build_phase_diagram(c2, square_reflection, orbit)


class TestBuildPhaseDiagram:
    @pytest.mark.parametrize("name", GROUP_NAMES)
    def test_point_space_recovers_orbit_category(self, name, groups):
        G = groups[name]
        orbit = build_orbit_category(G)
        phase = build_phase_diagram(G, point_complex(G), orbit)
        witness = category_isomorphic(phase.category, orbit.category)
        assert witness is not None

    def test_square_reflection_shape(self, reflection_phase):
        phase = reflection_phase
        assert len(phase.objects) == 3
        assert sorted(phase.aut_orders, reverse=True) == [2, 1, 1]
        cross = [m for m in range(len(phase.category.morphisms))
                 if phase.category.morphisms[m].src
                 != phase.category.morphisms[m].dst]
        # exactly one arrow into each C2-object, both out of the big
        # trivial-isotropy component
        targets = sorted(phase.category.morphisms[m].dst for m in cross)
        c2_objects = sorted(
            o for o in range(3)
            if phase.objects[o].subgroup_class != 0)
        assert targets == c2_objects
        assert all(phase.category.morphisms[m].src not in c2_objects
                   for m in cross)

    def test_square_halfturn_shape(self, c2, square_halfturn):
        phase = build_phase_diagram(c2, square_halfturn)
        assert len(phase.objects) == 1
        assert phase.aut_orders == [2]
        assert all(m.src == m.dst for m in phase.category.morphisms)

    def test_grothendieck_cardinality(self, reflection_phase):
        total = sum(len(c) for c in reflection_phase.presheaf.comps)
        assert len(reflection_phase.objects) == total

    def test_aut_matches_weyl_stabilizer(self, c2, reflection_phase):
        # independent count: orbit-stabilizer of the component under the
        # Weyl representatives acting on pi0 Fix(H)
        phase = reflection_phase
        pre = phase.presheaf
        for i, obj in enumerate(phase.objects):
            cls = phase.orbit.classes[obj.subgroup_class]
            auts = phase.orbit.category.hom(obj.subgroup_class,
                                            obj.subgroup_class)
            stab = 0
            for a in auts:
                om = phase.orbit.orbit_morphisms[a]
                act = weyl_component_action(pre, obj.subgroup_class,
                                            om.coset_rep)
                if act[obj.component_id] == obj.component_id:
                    stab += 1
            assert phase.aut_orders[i] == stab

    def test_category_laws(self, reflection_phase):
        assert reflection_phase.category.check_category_laws()

    def test_arrows_point_toward_larger_isotropy(self, reflection_phase):
        phase = reflection_phase
        for m in phase.category.morphisms:
            src_order = phase.orbit.classes[
                phase.objects[m.src].subgroup_class].order
            dst_order = phase.orbit.classes[
                phase.objects[m.dst].subgroup_class].order
            assert src_order <= dst_order


class TestQuotientFunctor:
    def test_classes_are_keyed_by_list_position(self):
        # the S3 point's isotropy is S3, class 3 of S3 and the only class
        # in the slice [3:]
        X = fx.load_complex("point_s3")
        G = X.group
        classes = conjugacy_classes_of_subgroups(G)
        phase = build_phase_diagram(
            G, X, build_orbit_category(G, classes[3:]))
        qf = quotient_functor(phase)
        assert phase.objects == [PhaseObject(0, 0)]
        assert qf.vertex_object == [0]
        assert qf.arrow_image(G.identity_index, 0) \
            == phase.category.identity[0]

    def test_unlisted_isotropy_class_is_refused(self):
        X = fx.load_complex("point_s3")
        G = X.group
        classes = conjugacy_classes_of_subgroups(G)
        phase = build_phase_diagram(
            G, X, build_orbit_category(G, classes[:3]))
        with pytest.raises(ValidationError,
                           match="isotropy class of vertex 0 is not listed"):
            quotient_functor(phase)

    def test_classical_pi0_for_trivial_group(self, groups):
        G = groups["trivial"]
        X = GComplex(G, 4, [[0, 1], [2, 3]], [])
        phase = build_phase_diagram(G, X)
        qf = quotient_functor(phase)
        assert len(phase.objects) == 2
        # vertices map onto their components
        assert qf.vertex_object[0] == qf.vertex_object[1]
        assert qf.vertex_object[2] == qf.vertex_object[3]
        assert qf.vertex_object[0] != qf.vertex_object[2]

    def test_square_reflection_object_map(self, c2, reflection_phase):
        qf = quotient_functor(reflection_phase)
        phase = reflection_phase
        refl_class = next(c.class_index for c in phase.orbit.classes
                          if c.order == 2)
        assert phase.objects[qf.vertex_object[0]].subgroup_class \
            == refl_class
        assert phase.objects[qf.vertex_object[2]].subgroup_class \
            == refl_class
        assert qf.vertex_object[0] != qf.vertex_object[2]
        triv_class = next(c.class_index for c in phase.orbit.classes
                          if c.order == 1)
        for v in (1, 3):
            assert phase.objects[qf.vertex_object[v]].subgroup_class \
                == triv_class

    @pytest.mark.parametrize("fixture_name",
                             ["square_reflection", "square_halfturn"])
    def test_functoriality_exhaustive(self, fixture_name, c2, request):
        X = request.getfixturevalue(fixture_name)
        phase = build_phase_diagram(c2, X)
        qf = quotient_functor(phase)
        G, cat = c2, phase.category
        # identities
        for v in range(X.vertex_count):
            assert qf.arrow_image(G.identity_index, v) \
                == cat.identity[qf.vertex_object[v]]
        # all composable pairs of groupoid arrows
        for v in range(X.vertex_count):
            for g1 in range(G.order):
                w = X.element_maps[g1][v]
                for g2 in range(G.order):
                    lhs = qf.arrow_image(G.mul(g2, g1), v)
                    rhs = cat.compose(qf.arrow_image(g2, w),
                                      qf.arrow_image(g1, v))
                    assert lhs == rhs


@pytest.fixture(scope="module")
def tetra_phase(groups, tetrahedron):
    return build_phase_diagram(groups["s4"], subdivide(tetrahedron))


def scan_morphism_index(orbit, c0, c1, rep):
    canon = min(orbit.group.mul(h, rep)
                for h in orbit.classes[c1].representative.members)
    found = [m for m in orbit.category.hom(c0, c1)
             if orbit.orbit_morphisms[m].coset_rep == canon]
    return found[0] if found else None


class TestLookups:
    """Each dict-backed lookup against a scan of the lists it indexes,
    S4 on the once-subdivided tetrahedron boundary."""

    def test_object_index(self, tetra_phase):
        phase = tetra_phase
        for c, comps in enumerate(phase.presheaf.comps):
            for comp in range(len(comps) + 1):
                want = [i for i, o in enumerate(phase.objects)
                        if (o.subgroup_class, o.component_id) == (c, comp)]
                if want:
                    assert phase.object_index(c, comp) == want[0]
                else:
                    with pytest.raises(ValidationError,
                                       match="no phase object"):
                        phase.object_index(c, comp)
        with pytest.raises(ValidationError):
            phase.object_index(len(phase.orbit.classes), 0)

    def test_morphism_index(self, tetra_phase):
        orbit = tetra_phase.orbit
        n = len(orbit.classes)
        outside = 0
        for c0 in range(n):
            for c1 in range(n):
                for rep in range(orbit.group.order):
                    want = scan_morphism_index(orbit, c0, c1, rep)
                    if want is None:
                        outside += 1
                        with pytest.raises(ValidationError,
                                           match="does not represent"):
                            orbit.morphism_index(c0, c1, rep)
                    else:
                        assert orbit.morphism_index(c0, c1, rep) == want
        assert outside > 0

    def test_arrow_image(self, keyed_categories):
        # every (g, v) on S4's tetrahedron, the setwise D4 square and the
        # subdivided D4 x C2 octahedron
        for name in ("phase_s4_tetra", "phase_square_d4", "phase_d4c2_octa"):
            phase = keyed_categories[1][name]
            qf = quotient_functor(phase)
            X = phase.presheaf.X
            G = X.group
            for g in range(G.order):
                for v in range(X.vertex_count):
                    w = X.element_maps[g][v]
                    k0, k1 = qf._conjugator[v], qf._conjugator[w]
                    n = G.mul(G.inv(k1), G.mul(g, k0))
                    src = phase.objects[qf.vertex_object[v]]
                    dst = phase.objects[qf.vertex_object[w]]
                    base = scan_morphism_index(
                        phase.orbit, src.subgroup_class, dst.subgroup_class,
                        n)
                    want = [m for m, mor in enumerate(phase.category.morphisms)
                            if mor.data == (base, dst.component_id)]
                    assert qf.arrow_image(g, v) == want[0], (name, g, v)
                    mor = phase.category.morphisms[want[0]]
                    assert (mor.src, mor.dst) == (qf.vertex_object[v],
                                                  qf.vertex_object[w])

    def test_arrow_image_names_a_missed_orbit_morphism(self, tetra_phase):
        # a conjugator that does not carry v into Fix of its class
        # representative gives an element outside every transporter coset,
        # and the orbit category's own message names it
        phase = tetra_phase
        qf = quotient_functor(phase)
        X = phase.presheaf.X
        G, maps = X.group, X.element_maps
        c = [phase.objects[o].subgroup_class for o in qf.vertex_object]
        g, v, w, k, n = next(
            (g, v, w, k, n) for v in range(X.vertex_count)
            for g in range(G.order) for w in [maps[g][v]] if w != v
            for k in range(G.order)
            for n in [G.mul(G.inv(qf._conjugator[w]), G.mul(g, k))]
            if scan_morphism_index(phase.orbit, c[v], c[w], n) is None)
        conjugator = list(qf._conjugator)
        conjugator[v] = k
        bad = QuotientFunctor(phase, qf.vertex_object, conjugator)
        with pytest.raises(ValidationError, match=re.escape(
                f"element {n} does not represent a morphism "
                f"{c[v]} -> {c[w]}")):
            bad.arrow_image(g, v)

    @pytest.mark.parametrize("name", ["phase_square_d4", "phase_s4_tetra"])
    def test_out_of_range_indices(self, name, keyed_categories):
        """An index past either end is refused, not wrapped around to the
        last element, vertex, class or representative: the ends first,
        then seeded draws up to three lengths away."""
        phase = keyed_categories[1][name]
        qf, orbit, X = quotient_functor(phase), phase.orbit, phase.presheaf.X
        order, nv, nc = X.group.order, X.vertex_count, len(orbit.classes)
        rng = random.Random(f"out of range: {name}")
        arrows = [(-1, 0), (0, -1), (order, 0), (0, nv)]
        lookups = [(0, 0, -1), (0, 0, order), (0, -1, 0), (0, nc, 0)]

        def outside(n):
            return rng.choice([rng.randint(-3 * n, -1),
                               rng.randint(n, 4 * n)])

        for _ in range(40):
            g, v = rng.randrange(order), rng.randrange(nv)
            c0, c1 = rng.randrange(nc), rng.randrange(nc)
            arrows += [(outside(order), v), (g, outside(nv))]
            lookups += [(c0, outside(nc), rng.randrange(order)),
                        (c0, c1, outside(order))]
        for g, v in arrows:
            with pytest.raises(ValidationError, match=re.escape(
                    f"no phase morphism for arrow (g={g}, v={v})")):
                qf.arrow_image(g, v)
        for c0, c1, rep in lookups:
            with pytest.raises(ValidationError, match=re.escape(
                    f"element {rep} does not represent a morphism "
                    f"{c0} -> {c1}")):
                orbit.morphism_index(c0, c1, rep)

    def test_arrow_image_checks_endpoints(self, tetra_phase):
        # move vertex v to another component of its own fiber: the arrow
        # g: v -> w found by (orbit morphism, component of w) then starts
        # at v's true object, not the recorded one
        phase = tetra_phase
        qf = quotient_functor(phase)
        X = phase.presheaf.X
        v, g, other = next(
            (v, g, o) for v in range(X.vertex_count)
            for g in range(X.group.order) if X.element_maps[g][v] != v
            for o in phase_fiber(
                phase, phase.objects[qf.vertex_object[v]].subgroup_class)
            if o != qf.vertex_object[v])
        vertex_object = list(qf.vertex_object)
        vertex_object[v] = other
        bad = QuotientFunctor(phase, vertex_object, qf._conjugator)
        with pytest.raises(ValidationError, match="wrong endpoints"):
            bad.arrow_image(g, v)


class TestForgetfulFunctor:
    def test_point_space_is_isomorphism(self, s3):
        orbit = build_orbit_category(s3)
        phase = build_phase_diagram(s3, point_complex(s3), orbit)
        ff = forgetful_functor(phase)
        assert sorted(ff.object_map) == list(range(len(orbit.classes)))
        assert sorted(ff.morphism_map) \
            == list(range(len(orbit.category.morphisms)))

    def test_fiber_sizes(self, c2, reflection_phase):
        phase = reflection_phase
        for c, comps in enumerate(phase.presheaf.comps):
            assert len(phase_fiber(phase, c)) == len(comps)

    def test_empty_fiber_over_free_class(self, c2, square_halfturn):
        phase = build_phase_diagram(c2, square_halfturn)
        free = next(c.class_index for c in phase.orbit.classes
                    if c.order == 2)
        assert phase_fiber(phase, free) == []

    def test_is_a_functor(self, reflection_phase):
        phase = reflection_phase
        ff = forgetful_functor(phase)
        cat, base = phase.category, phase.orbit.category
        for o in range(len(cat.objects)):
            assert ff.morphism_map[cat.identity[o]] \
                == base.identity[ff.object_map[o]]
        for (m2, m1), r in cat.compose_table.items():
            assert base.compose_table[(ff.morphism_map[m2],
                                       ff.morphism_map[m1])] \
                == ff.morphism_map[r]


SEGMENT = dict(vertex_count=3,
               simplices=[[0], [1], [2], [0, 1], [1, 2]],
               assignment=[1, 0, 1, 1, 1],
               relations=[(0, 1)])


class TestStrataCategory:
    def test_segment_with_midpoint(self):
        strat = StratifiedComplex(**SEGMENT)
        cat = strata_category(strat)
        assert len(cat.objects) == 2
        non_id = [m for m in range(len(cat.morphisms))
                  if not is_identity(cat, m)]
        assert len(non_id) == 1
        assert cat.check_category_laws()

    def test_single_stratum_discrete(self):
        strat = StratifiedComplex(4, [[0], [1], [2], [3], [0, 1]],
                                  [0, 0, 0, 0, 0], [])
        cat = strata_category(strat)
        # two components of the only stratum, no cross arrows
        assert len(cat.objects) == 3
        assert all(is_identity(cat, m)
                   for m in range(len(cat.morphisms)))

    def test_nchain_is_linear_poset(self):
        strat = fx.load_stratified("nchain4")
        cat = strata_category(strat)
        assert len(cat.objects) == 4
        for a in range(4):
            for b in range(4):
                expected = 1 if a <= b else 0
                assert len(cat.hom(a, b)) == expected
        assert cat.check_category_laws()

    def test_closure_condition_violation_rejected(self):
        # an edge in the low stratum with a vertex in the high one
        with pytest.raises(ValidationError, match="closure condition"):
            StratifiedComplex(2, [[0], [1], [0, 1]], [0, 1, 0], [(0, 1)])

    def test_unclosed_list_names_the_first_missing_facet(self):
        # [0, 2] is the first listed simplex with a facet not listed
        with pytest.raises(ValidationError,
                           match=r"not closed under faces: missing \[2\]$"):
            StratifiedComplex(4, [[0], [1], [0, 2], [0, 1, 3]],
                              [0, 0, 0, 0], [])

    def test_frontier_violation_rejected(self):
        # declared 0 <= 1 but stratum 0 is nowhere near stratum 1
        with pytest.raises(ValidationError, match="frontier"):
            StratifiedComplex(3, [[0], [1], [2], [1, 2]],
                              [0, 1, 1, 1], [(0, 1)])

    def test_frontier_names_the_least_violating_pair(self):
        # a chain of 300 singleton strata: every pair i < j is in the
        # order and violates the frontier condition
        n = 300
        with pytest.raises(ValidationError,
                           match=r"stratum 0 <= 1 but simplex \[0\]"):
            StratifiedComplex(n, [[i] for i in range(n)], list(range(n)),
                              [(i, i + 1) for i in range(n - 1)])

    @pytest.mark.parametrize("seed", range(20))
    def test_poset_closure_matches_warshall(self, seed):
        # seeds below 10 draw forward edges only, the rest any edges
        rng = random.Random(seed)
        strata = sorted(rng.sample(range(40), rng.randint(2, 12)))
        relations = [tuple(sorted(rng.sample(strata, 2)) if seed < 10
                           else rng.choices(strata, k=2))
                     for _ in range(rng.randint(0, 15))]
        leq = warshall_closure(strata, relations)
        cycles = sorted((i, j) for (i, j) in leq if i < j and (j, i) in leq)
        if cycles:
            i, j = cycles[0]
            with pytest.raises(ValidationError,
                               match=f"has a cycle {i} ~ {j}$"):
                _poset_closure(strata, relations)
        else:
            assert _poset_closure(strata, relations) == leq

    def test_out_of_range_vertex_rejected(self):
        spec = {"vertices": 1, "simplices": [[5], [7], [5, 7]],
                "assignment": [0, 0, 1], "poset": [[0, 1]]}
        with pytest.raises(ValidationError, match="vertex 5 out of range"):
            fx.strata_from_spec(spec)

    def test_codim_warning(self):
        with pytest.warns(UserWarning, match="codimension"):
            StratifiedComplex(**SEGMENT, codim={0: 0, 1: 5})

    def test_matches_phase_objects_on_square(self, c2, square_reflection):
        # strata = isotropy level sets of the reflection square; closures
        # of the strata match the fixed subcomplexes, so the object count
        # agrees with the phase diagram's
        phase = build_phase_diagram(c2, square_reflection)
        simplices = sorted(square_reflection.simplices,
                           key=lambda s: (len(s), sorted(s)))
        assignment = []
        for s in simplices:
            fixed = all(square_reflection.element_maps[g][v] == v
                        for g in range(c2.order) for v in s)
            assignment.append(0 if fixed else 1)
        strat = StratifiedComplex(4, [sorted(s) for s in simplices],
                                  assignment, [(0, 1)])
        cat = strata_category(strat)
        assert len(cat.objects) == len(phase.objects)


class TestCategoryIsomorphic:
    def test_identity_witness(self, s3):
        cat = build_orbit_category(s3).category
        w = category_isomorphic(cat, cat)
        assert w is not None

    def test_poset_vs_discrete_fails(self):
        a = StratifiedComplex(**SEGMENT)
        b = StratifiedComplex(3, [[0], [1], [2], [0, 1]],
                              [0, 0, 1, 0], [])
        cat_a = strata_category(a)
        cat_b = strata_category(b)
        assert len(cat_a.objects) == len(cat_b.objects) == 2
        assert category_isomorphic(cat_a, cat_b) is None

    def test_witness_is_functorial(self, s3):
        orbit = build_orbit_category(s3)
        phase = build_phase_diagram(s3, point_complex(s3), orbit)
        w = category_isomorphic(phase.category, orbit.category)
        A, B = phase.category, orbit.category
        for (m2, m1), r in A.compose_table.items():
            assert B.compose_table[(w.morphism_map[m2],
                                    w.morphism_map[m1])] \
                == w.morphism_map[r]

    def test_agrees_with_brute_force(self, iso_inputs):
        """Each input against itself, every other input with its counts
        and a seeded relabelled copy: the search finds a witness exactly
        when the brute force finds an isomorphism, and every witness is
        a functor."""
        rng = random.Random("isomorphism oracle")
        for name, cat in iso_inputs.items():
            assert bf_iso_cost(cat) <= 10 ** 5, name
            copy = _relabelled(rng, cat)
            others = [(other, iso_inputs[other]) for other in iso_inputs
                      if other != name]
            for other, cat_b in [(name, cat), ("copy", copy), *others]:
                w = category_isomorphic(cat, cat_b)
                assert (w is not None) == bf_isomorphic(cat, cat_b), \
                    (name, other)
                if w is not None:
                    _assert_functor(w, cat, cat_b)

    def test_moved_entry_agrees_with_brute_force(self, iso_inputs):
        """A relabelled copy with one entry moved to another morphism of
        its hom-set, against the input, against itself relabelled again,
        and the input against it: the search and the brute force agree
        on None versus a witness."""
        rng = random.Random("isomorphism oracle, moved entries")
        found = missed = 0
        for name, cat in iso_inputs.items():
            if all(len(ms) < 2 for ms in bf_hom_sets(cat).values()):
                continue  # no entry can move
            for _ in range(3):
                bad = _relabelled(rng, cat, moved=True)
                again = _relabelled(rng, bad)
                for a, b in ((bad, cat), (cat, bad), (bad, again)):
                    w = category_isomorphic(a, b)
                    assert (w is not None) == bf_isomorphic(a, b), name
                    if w is not None:
                        _assert_functor(w, a, b)
                        found += 1
                    else:
                        missed += 1
        assert found > 0 and missed > 0

    @pytest.mark.parametrize("n", [1000, 3000])
    def test_thousands_of_generators(self, n):
        """One search step per generator, with no recursion to run out
        of: n parallel arrows against themselves give a functor."""
        cat = parallel_arrows_category(n)
        assert len(cat._generators()) == n
        other = parallel_arrows_category(n)
        w = category_isomorphic(cat, other)
        assert w is not None
        _assert_functor(w, cat, other)

    def test_size_guard(self):
        n = 65
        objs = [f"o{i}" for i in range(n)]
        mors = [Morphism(i, i, f"id{i}") for i in range(n)]
        table = {(i, i): i for i in range(n)}
        cat = table_category(objs, mors, list(range(n)), table)
        small = table_category(objs[:1], mors[:1], [0], {(0, 0): 0})
        for a, b in ((cat, cat), (small, cat), (cat, small)):
            with pytest.raises(CapExceededError,
                               match=r"over 65 objects exceeds "
                                     r"ISO_OBJECT_GUARD=64"):
                category_isomorphic(a, b)


@pytest.fixture(scope="module")
def iso_inputs(groups):
    """The two bundled strata categories, the orbit category and the
    point phase diagram of four small groups, two five-object look-alike
    categories, every endomorphism monoid C2 in one and {1, e} in the
    other, two nine-object ones that differ only at the last object, and
    seven objects with one more arrow, 0 -> 6 in one and an idempotent on
    0 in the other."""
    cats = {name: strata_category(fx.load_stratified(name))
            for name in sorted(fx.STRATIFIED)}
    cats["lookalike_c2"] = lookalike_category([True] * 5)
    cats["lookalike_idempotent"] = lookalike_category([False] * 5)
    cats["lookalike_c2_9"] = lookalike_category([True] * 9)
    cats["lookalike_late_idempotent"] = lookalike_category([True] * 8
                                                           + [False])
    cats["one_arrow"] = one_arrow_category(7, 0, 6)
    cats["one_loop"] = one_arrow_category(7, 0, 0)
    for name in ("trivial", "c2", "c4", "s3"):
        G = groups[name]
        orbit = build_orbit_category(G)
        cats[f"orbit_{name}"] = orbit.category
        cats[f"point_{name}"] = build_phase_diagram(
            G, point_complex(G), orbit).category
    return cats


def _relabelled(rng, cat, moved=False):
    """``cat`` with its objects and its morphisms shuffled, rebuilt from
    a dict table; with ``moved``, one entry whose hom-set has another
    morphism is moved to it."""
    objs = rng.sample(range(len(cat.objects)), len(cat.objects))
    mors = rng.sample(range(len(cat.morphisms)), len(cat.morphisms))
    new_obj = {o: k for k, o in enumerate(objs)}
    new = {m: k for k, m in enumerate(mors)}
    morphisms = [Morphism(new_obj[a.src], new_obj[a.dst], a.label)
                 for a in map(cat.morphisms.__getitem__, mors)]
    table = {(new[m2], new[m1]): new[r]
             for (m2, m1), r in cat.compose_table.items()}
    if moved:
        def hom(m2, m1):
            ends = (morphisms[m1].src, morphisms[m2].dst)
            return [m for m, a in enumerate(morphisms)
                    if (a.src, a.dst) == ends]
        key = rng.choice([k for k in sorted(table) if len(hom(*k)) > 1])
        table[key] = rng.choice([m for m in hom(*key) if m != table[key]])
    return table_category([cat.objects[o] for o in objs], morphisms,
                          [new[cat.identity[o]] for o in objs], table)


def _assert_functor(w, A, B):
    """``w`` is bijective on objects and morphisms, keeps endpoints and
    identities, and is functorial on every pair of A's table."""
    assert sorted(w.object_map) == list(range(len(B.objects)))
    assert sorted(w.morphism_map) == list(range(len(B.morphisms)))
    for m, a in enumerate(A.morphisms):
        b = B.morphisms[w.morphism_map[m]]
        assert (b.src, b.dst) == (w.object_map[a.src], w.object_map[a.dst])
    assert [w.morphism_map[e] for e in A.identity] \
        == [B.identity[o] for o in w.object_map]
    for (m2, m1), r in A.compose_table.items():
        assert B.compose_table[w.morphism_map[m2], w.morphism_map[m1]] \
            == w.morphism_map[r]


# D6 and D4 x C2 on the benchmark's base generators, and the octahedron
# boundary D4 x C2 acts on: a square equator and two poles
D6 = [[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]]
D4C2 = [[1, 2, 3, 0, 4, 5], [1, 0, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]]
OCTAHEDRON = [[a, (a + 1) % 4, pole] for a in range(4) for pole in (4, 5)]


@pytest.fixture(scope="module")
def keyed_categories(groups, c2s4, tetra_phase):
    """Every bundled and benchmark orbit category, phase diagram and
    strata category, each with the keys of its objects in index order,
    and each again as its olog round trip, keyed by object id; and the
    phase diagrams by the same names."""
    more = {"d6": closure(6, D6), "d4c2": closure(6, D4C2), "c2s4": c2s4}
    cats = {}
    for name, G in {**groups, **more}.items():
        oc = build_orbit_category(G)
        cats[f"orbit_{name}"] = (oc.category, list(range(len(oc.classes))))
    with pytest.warns(UserWarning, match="setwise"):
        spaces = {name: fx.load_complex(name) for name in fx.COMPLEXES}
        spaces["d4c2_octa"] = subdivide(GComplex(
            more["d4c2"], 6, OCTAHEDRON, more["d4c2"].generators))
    phases = {f"phase_{name}": build_phase_diagram(X.group, X)
              for name, X in spaces.items()}
    phases["phase_s4_tetra"] = tetra_phase
    for name, ph in phases.items():
        cats[name] = (ph.category,
                      [PhaseObject(c, k)
                       for c, comps in enumerate(ph.presheaf.comps)
                       for k in range(len(comps))])
    for name in sorted(fx.STRATIFIED):
        strat = fx.load_stratified(name)
        cats[f"strata_{name}"] = (strata_category(strat), [
            (i, c) for i in strat.strata
            for c in range(len(components(strat.stratum_closure(i))))])
    for name, (cat, keys) in list(cats.items()):
        cats[f"{name}_olog"] = (import_olog(export_olog(cat)),
                                [f"o{k}" for k in range(len(keys))])
    return cats, phases


class TestKeyedLookup:
    """Every builder keys its category once, so each morphism is found
    again through its data, each object through its key, and each
    hom-set is read from the same index."""

    def test_hom_is_the_brute_force_filter(self, keyed_categories):
        cats, _ = keyed_categories
        empty = 0
        for name, (cat, _) in cats.items():
            ends = [(m.src, m.dst) for m in cat.morphisms]
            n = len(cat.objects)
            for a in range(n):
                for b in range(n):
                    want = [m for m, e in enumerate(ends) if e == (a, b)]
                    got = cat.hom(a, b)
                    assert got == want, (name, a, b)
                    empty += not want
                    # a copy: changing it leaves the stored hom-set alone
                    got.append(-1)
                    assert cat.hom(a, b) == want, (name, a, b)
        assert empty > 0

    def test_each_object_found_by_its_key(self, keyed_categories):
        cats, _ = keyed_categories
        for name, (cat, keys) in cats.items():
            assert len(cat.object_of) == len(keys) == len(cat.objects), name
            assert [cat.object_of[key] for key in keys] \
                == list(range(len(keys))), name

    def test_phase_object_index(self, keyed_categories):
        cats, phases = keyed_categories
        for name, ph in phases.items():
            keys = cats[name][1]
            for o, (c, k) in enumerate(keys):
                assert ph.object_index(c, k) == o, name
            comps = ph.presheaf.comps
            absent = [(-1, 0), (len(comps), 0)] + [
                (c, len(cs)) for c, cs in enumerate(comps)]
            for c, k in absent:
                with pytest.raises(ValidationError,
                                   match=rf"^no phase object \(H{c},c{k}\)$"):
                    ph.object_index(c, k)

    @staticmethod
    def categories(tetra_phase):
        cats = {"orbit_s4": tetra_phase.orbit.category,
                "tetra_phase": tetra_phase.category}
        for name in sorted(fx.STRATIFIED):
            cats[name] = strata_category(fx.load_stratified(name))
        return cats

    def test_find_returns_each_morphism(self, tetra_phase):
        for name, cat in self.categories(tetra_phase).items():
            for i, m in enumerate(cat.morphisms):
                # an orbit morphism is found by its plain tuple as well
                assert cat.find(m.data) == i == cat.find(tuple(m.data)), \
                    name

    def test_absent_key_is_none(self, tetra_phase):
        orbit = tetra_phase.orbit
        absent = {"orbit_s4": (0, 0, orbit.group.order),
                  "tetra_phase": (len(orbit.category.morphisms), 0)}
        for name, cat in self.categories(tetra_phase).items():
            key = absent.get(name, (0, len(cat.objects), 0))
            assert cat.find(key) is None, name
            assert cat.find(None) is None, name

    def test_strata_tables_follow_the_poset_rule(self):
        # (i,c,j) then (j,c',k) is (i,c,k), checked over all pairs
        for name in sorted(fx.STRATIFIED):
            cat = strata_category(fx.load_stratified(name))
            mors = cat.morphisms
            for m1, a in enumerate(mors):
                for m2, b in enumerate(mors):
                    assert ((m2, m1) in cat.compose_table) \
                        == (a.dst == b.src), name
                    if a.dst != b.src:
                        continue
                    (i, c, j), (j2, _, k) = a.data, b.data
                    assert j2 == j, name
                    r = cat.compose_table[(m2, m1)]
                    assert mors[r].data == (i, c, k), name

    def test_duplicate_data_rejected(self):
        from phasecat.category import FiniteCategory
        mors = [(0, 0, "id", "k"), (0, 0, "s", "k")]
        with pytest.raises(ValidationError, match="distinct"):
            FiniteCategory({0: "pt"}, mors, ["k"],
                           lambda _: [[0, 1], [1, 0]])
