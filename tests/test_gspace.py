import itertools
import random
import warnings

import pytest

import oracles
from phasecat import (GComplex, ValidationError, components,
                      conjugacy_classes_of_subgroups, fixed_subcomplex,
                      isotropy, orbit_of, pi0_fix_presheaf, subdivide)
from phasecat import fixtures as fx
from phasecat.permgroup import all_subgroups, closure


HEXAGON_DIAGONALS = ([[i, (i + 1) % 6] for i in range(6)]
                     + [[i, i + 3] for i in range(3)])
ROTATION = [1, 2, 3, 4, 5, 0]


def hexagon_with_diagonals():
    """C6 rotating a hexagon that also has its three long diagonals: r^3
    flips each diagonal, and no generator fixes a simplex setwise."""
    return GComplex(closure(6, [ROTATION]), 6, HEXAGON_DIAGONALS, [ROTATION])


def s3_triangle(s3):
    """S3 permuting the vertices of a triangle boundary; a transposition
    flips an edge."""
    return GComplex(s3, 3, [[0, 1], [1, 2], [2, 0]], [[1, 0, 2], [1, 2, 0]])


#: name -> builder from the group fixtures, for the warning exactness test
SETWISE_CASES = {
    **{name: (lambda groups, name=name: fx.load_complex(name))
       for name in fx.COMPLEXES},
    "hexagon_diagonals": lambda groups: hexagon_with_diagonals(),
    "s3_triangle": lambda groups: s3_triangle(groups["s3"]),
    "tetrahedron": lambda groups: GComplex(
        groups["s4"], 4, itertools.combinations(range(4), 3),
        groups["s4"].generators),
}
SETWISE_MOVED = {"square_d4", "hexagon_diagonals", "s3_triangle",
                 "tetrahedron"}


def build_recording_warning(build):
    """(build(), whether building warned about a setwise fix)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        X = build()
    return X, any("setwise" in str(w.message) for w in caught)


def assert_subdivision_matches_scan(X):
    sd = subdivide(X)
    count, simplices, maps = oracles.bf_subdivide(X.simplices,
                                                  X.generator_maps)
    assert sd.vertex_count == count
    assert sd.simplices == simplices
    assert sd.generator_maps == maps


class TestValidation:
    def test_rejects_non_simplicial_map(self, c2):
        # swap 0<->1 does not preserve the edge {1,2}
        with pytest.raises(ValidationError):
            GComplex(c2, 3, [[0, 1], [1, 2]], [[1, 0, 2]])

    def test_rejects_relation_violation(self, s3):
        # sending the 3-cycle generator to a swap breaks r^3 = 1
        with pytest.raises(ValidationError):
            GComplex(s3, 2, [[0], [1]], [[0, 1], [1, 0]])

    def test_warns_on_setwise_fixed_edge(self, c2):
        # edge flip fixes {0,1} setwise but not pointwise
        with pytest.warns(UserWarning):
            GComplex(c2, 2, [[0, 1]], [[1, 0]])

    def test_rejects_relation_respecting_non_simplicial_map(self):
        # (0 1 3)(2 5 4) respects r^6 = 1 but sends edge {0,1} to {1,3}
        with pytest.raises(ValidationError, match="does not carry"):
            GComplex(closure(6, [ROTATION]), 6, HEXAGON_DIAGONALS,
                     [[1, 3, 5, 0, 2, 4]])

    def test_setwise_warning_scans_every_element(self):
        # only r^3, not the generator r, fixes a diagonal setwise
        with pytest.warns(UserWarning, match="setwise"):
            hexagon_with_diagonals()

    @pytest.mark.parametrize("name", sorted(SETWISE_CASES))
    def test_warns_exactly_when_setwise_moved(self, groups, name):
        X, warned = build_recording_warning(
            lambda: SETWISE_CASES[name](groups))
        moved = oracles.bf_setwise_moved(X.simplices, X.element_maps)
        assert warned == moved == (name in SETWISE_MOVED)
        sd, warned = build_recording_warning(lambda: subdivide(X))
        assert not warned
        assert not oracles.bf_setwise_moved(sd.simplices, sd.element_maps)

    def test_rejects_out_of_range_vertex(self, c2):
        with pytest.raises(ValidationError, match="vertex 4 out of range"):
            GComplex(c2, 4, [[0, 1], [1, 4]], [[1, 0, 3, 2]])

    def test_rejects_empty_simplex(self, c2):
        with pytest.raises(ValidationError, match="empty simplex"):
            GComplex(c2, 2, [[0], []], [[1, 0]])

    def test_rejects_vertex_in_no_simplex(self, groups, c2):
        # building on would drop vertex 2 from every fixed subcomplex
        with pytest.raises(ValidationError,
                           match="^vertex 2 lies in no simplex$"):
            GComplex(c2, 3, [[0], [1]], [[1, 0, 2]])
        with pytest.raises(ValidationError,
                           match="^vertex 1 lies in no simplex$"):
            GComplex(c2, 4, [[0], [2, 3]], [[0, 1, 3, 2]])
        # the least missing vertex is found from the simplices alone, so a
        # huge vertex count costs no memory
        with pytest.raises(ValidationError,
                           match="^vertex 1 lies in no simplex$"):
            GComplex(groups["trivial"], 10 ** 9, [[0]], [])

    def test_faces_added_automatically(self, square_reflection):
        sizes = sorted(len(s) for s in square_reflection.simplices)
        assert sizes == [1, 1, 1, 1, 2, 2, 2, 2]


D4C2 = [[1, 2, 3, 0, 4, 5], [1, 0, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]]
#: the bundled groups and D4 x C2, each acting on its own points
CHECKED_GROUPS = sorted(fx.GROUPS) + ["d4c2"]


def random_given(rng, G):
    """Random simplices on the points of G, every point among them; with
    probability 1/2 closed under G's generators, so some lists are
    invariant and some are not."""
    n = G.degree
    given = [[v] for v in range(n)] + [
        rng.sample(range(n), rng.randint(1, min(n, 4)))
        for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.5:
        for s in given:
            for g in G.generators:
                image = sorted(g[v] for v in s)
                if image not in given:
                    given.append(image)
    return given


class TestChecksMatchBruteForce:
    """On seeded random complexes, GComplex refuses a map exactly when
    some element carries some simplex of the face closure outside it, and
    warns exactly when some element fixes a simplex setwise but not
    pointwise."""

    @pytest.mark.parametrize("name", CHECKED_GROUPS)
    def test_random_complexes(self, groups, name):
        G = closure(6, D4C2) if name == "d4c2" else groups[name]
        elements = oracles.bf_closure(G.degree, G.generators)
        rng = random.Random(name)
        seen = set()
        for _ in range(40):
            given = random_given(rng, G)
            faces = {frozenset(f) for s in given
                     for r in range(1, len(s) + 1)
                     for f in itertools.combinations(s, r)}
            carried = all(frozenset(g[v] for v in s) in faces
                          for g in elements for s in faces)
            try:
                X, warned = build_recording_warning(
                    lambda: GComplex(G, G.degree, iter(given),
                                     G.generators))
            except ValidationError as exc:
                assert "does not carry" in str(exc) and not carried
                seen.add("refused")
                continue
            assert carried and X.simplices == faces
            assert warned == oracles.bf_setwise_moved(faces, elements)
            seen.add("warned" if warned else "accepted")
            _, warned = build_recording_warning(lambda: subdivide(X))
            assert not warned
        # every outcome occurs where the points allow it: one point is
        # fixed by every element, and every complex on two is invariant
        assert len(seen) == min(G.degree, 3)


class TestFixedSubcomplex:
    def test_reflection_fixes_two_isolated_vertices(self, c2,
                                                    square_reflection):
        fix = fixed_subcomplex(square_reflection, oracles.full_subgroup(c2))
        assert fix == frozenset({frozenset({0}), frozenset({2})})

    def test_trivial_subgroup_fixes_everything(self, c2, square_reflection):
        fix = fixed_subcomplex(square_reflection,
                               oracles.trivial_subgroup(c2))
        assert fix == square_reflection.simplices

    def test_halfturn_fixes_nothing(self, c2, square_halfturn):
        assert fixed_subcomplex(square_halfturn, oracles.full_subgroup(c2)) \
            == frozenset()

    def test_matches_all_members_scan(self, groups, tetrahedron):
        X = subdivide(tetrahedron)
        subgroups = all_subgroups(groups["s4"])
        assert len(subgroups) == 30
        for H in subgroups:
            assert fixed_subcomplex(X, H) == oracles.bf_fixed_subcomplex(
                X.simplices, X.element_maps, H.members)

    def test_monotone_in_subgroup(self, c2, square_reflection):
        small = fixed_subcomplex(square_reflection,
                                 oracles.trivial_subgroup(c2))
        big = fixed_subcomplex(square_reflection, oracles.full_subgroup(c2))
        assert big <= small


class TestComponents:
    def test_path_is_connected(self):
        path = [frozenset(s) for s in
                ({0}, {1}, {2}, {3}, {0, 1}, {1, 2}, {2, 3})]
        assert components(path) == [(0, 1, 2, 3)]

    def test_two_isolated_vertices(self):
        assert components([frozenset({0}), frozenset({2})]) \
            == [(0,), (2,)]

    def test_square_boundary_connected(self, square_reflection):
        assert components(square_reflection.simplices) == [(0, 1, 2, 3)]


class TestIsotropyAndOrbits:
    def test_fixed_vertex_has_full_isotropy(self, c2, square_reflection):
        assert isotropy(square_reflection, 0).order == 2
        assert orbit_of(square_reflection, 0) == frozenset({0})

    def test_moved_vertex(self, c2, square_reflection):
        assert isotropy(square_reflection, 1).order == 1
        assert orbit_of(square_reflection, 1) == frozenset({1, 3})

    def test_free_action_vertex(self, c2, square_halfturn):
        assert isotropy(square_halfturn, 0).order == 1
        assert orbit_of(square_halfturn, 0) == frozenset({0, 2})

    def test_orbit_stabilizer(self, c2, square_reflection, square_halfturn):
        for X in (square_reflection, square_halfturn):
            for v in range(X.vertex_count):
                assert len(orbit_of(X, v)) * isotropy(X, v).order \
                    == X.group.order

    def test_vertex_out_of_range(self, square_reflection):
        with pytest.raises(ValidationError):
            isotropy(square_reflection, 9)


class TestFixPresheaf:
    def test_point_every_class_one_component(self, s3):
        X = GComplex(s3, 1, [[0]], [[0], [0]])
        classes = conjugacy_classes_of_subgroups(s3)
        pre = pi0_fix_presheaf(X, classes)
        assert all(len(c) == 1 for c in pre.comps)

    def test_square_reflection_components(self, c2, square_reflection):
        classes = conjugacy_classes_of_subgroups(c2)
        pre = pi0_fix_presheaf(square_reflection, classes)
        triv = next(c.class_index for c in classes if c.order == 1)
        refl = next(c.class_index for c in classes if c.order == 2)
        assert len(pre.comps[triv]) == 1
        assert len(pre.comps[refl]) == 2
        # the unique arrow sends both reflection components to the big one
        assert pre.induced_map(triv, refl, c2.identity_index) == [0, 0]

    def test_halfturn_components(self, c2, square_halfturn):
        classes = conjugacy_classes_of_subgroups(c2)
        pre = pi0_fix_presheaf(square_halfturn, classes)
        triv = next(c.class_index for c in classes if c.order == 1)
        free = next(c.class_index for c in classes if c.order == 2)
        assert len(pre.comps[triv]) == 1
        assert len(pre.comps[free]) == 0

    def test_induced_map_coset_independent(self, s3):
        # exhaustive over transporter elements: the induced component map
        # must not depend on the representative
        from phasecat.permgroup import transporter
        with pytest.warns(UserWarning, match="setwise"):
            X = s3_triangle(s3)
        classes = conjugacy_classes_of_subgroups(s3)
        pre = pi0_fix_presheaf(X, classes)
        for c0 in classes:
            for c1 in classes:
                trans = transporter(s3, c0.representative,
                                    c1.representative)
                # per H1-coset the induced map must be constant
                for g in trans:
                    h1 = c1.representative
                    for h in h1.members:
                        assert pre.induced_map(
                            c0.class_index, c1.class_index, g) \
                            == pre.induced_map(
                                c0.class_index, c1.class_index,
                                s3.mul(h, g))

    def test_component_of_vertex_matches_scan(self, groups, tetrahedron):
        X = subdivide(tetrahedron)
        pre = pi0_fix_presheaf(X,
                               conjugacy_classes_of_subgroups(groups["s4"]))
        for c, comps in enumerate(pre.comps):
            for v in range(X.vertex_count):
                want = [i for i, comp in enumerate(comps) if v in comp]
                if want:
                    assert pre.component_of_vertex(c, v) == want[0]
                else:
                    with pytest.raises(ValidationError, match="not in Fix"):
                        pre.component_of_vertex(c, v)

    def test_out_of_range_indices(self, c2, square_reflection,
                                  square_halfturn):
        """-1 and one past the end of the classes, the vertices and the
        group are refused: a negative index would wrap around to the last
        entry, and one past the end would raise IndexError."""
        classes = conjugacy_classes_of_subgroups(c2)
        pre = pi0_fix_presheaf(square_reflection, classes)
        n_classes, n_verts = len(classes), square_reflection.vertex_count
        assert pre.component_of_vertex(0, 0) == 0
        for c, v in ((-1, 0), (n_classes, 0), (0, -1), (0, n_verts)):
            with pytest.raises(ValidationError,
                               match=f"vertex {v} not in Fix of class {c}$"):
                pre.component_of_vertex(c, v)
        assert pre.induced_map(0, 1, 0) == [0, 0]
        for c0, c1, g in ((-1, 1, 0), (n_classes, 1, 0), (0, -1, 0),
                          (0, n_classes, 0), (0, 1, -1), (0, 1, c2.order)):
            with pytest.raises(ValidationError,
                               match=f"class {c0} or {c1}, or element {g}, "
                                     f"out of range"):
                pre.induced_map(c0, c1, g)
        # in range, but the half turn fixes no vertex of the square
        free = pi0_fix_presheaf(square_halfturn, classes)
        with pytest.raises(ValidationError,
                           match="vertex 0 not in Fix of class 1$"):
            free.induced_map(1, 0, 0)

    def test_weyl_action_well_defined(self, c2, square_reflection):
        # elements of H act trivially on Fix(H), so the normalizer action
        # on components factors through W(H)
        classes = conjugacy_classes_of_subgroups(c2)
        pre = pi0_fix_presheaf(square_reflection, classes)
        refl = next(c.class_index for c in classes if c.order == 2)
        for n in range(c2.order):
            for h in range(2):
                assert oracles.weyl_component_action(pre, refl, n) \
                    == oracles.weyl_component_action(pre, refl,
                                                     c2.mul(h, n))


class TestSubdivide:
    def test_subdivision_counts(self, c2, square_reflection):
        sd = subdivide(square_reflection)
        # 8 simplices become vertices; each edge contributes 2 new edges
        assert sd.vertex_count == 8
        assert sorted(len(s) for s in sd.simplices).count(2) == 8

    def test_setwise_fix_resolved_by_subdivision(self, c2):
        import warnings
        with pytest.warns(UserWarning):
            X = GComplex(c2, 2, [[0, 1]], [[1, 0]])
        sd = subdivide(X)
        # the flipped edge's barycenter is a genuine fixed vertex now
        fix = fixed_subcomplex(sd, oracles.full_subgroup(c2))
        assert len(fix) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            subdivide(X)  # no setwise warning after subdivision

    @pytest.mark.parametrize("times", [0, 1, 2])
    def test_tetrahedron_matches_coface_scan(self, times, tetrahedron):
        X = tetrahedron
        for _ in range(times):
            X = subdivide(X)
        assert_subdivision_matches_scan(X)

    def test_small_complexes_match_coface_scan(self, square_reflection):
        assert_subdivision_matches_scan(square_reflection)
        with pytest.warns(UserWarning, match="setwise"):
            X = hexagon_with_diagonals()
        assert_subdivision_matches_scan(X)

    def test_mixed_dimensions_match_coface_scan(self, c2):
        # maximal simplices of three dimensions: the triangle {0,1,2},
        # the edge {2,3} hanging off it and the isolated vertex 4; the
        # swap of 0 and 1 flips the triangle onto itself
        with pytest.warns(UserWarning, match="setwise"):
            X = GComplex(c2, 5, [[0, 1, 2], [2, 3], [4]],
                         [[1, 0, 2, 3, 4]])
        assert_subdivision_matches_scan(X)
