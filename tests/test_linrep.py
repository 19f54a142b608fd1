import itertools
import random
from fractions import Fraction

import pytest

from phasecat import (LinearAction, ValidationError, averaging_projector,
                      conjugacy_classes_of_subgroups, degeneracy_quiver,
                      fix_subspace, isotypic_decomposition, relative_normal)
from phasecat import fixtures as fx
from phasecat import linrep, ratmat
from phasecat.errors import CapExceededError
from phasecat.linrep import DIMENSION_CAP
from phasecat.permgroup import (Subgroup, all_subgroups, closure,
                                subgroup_closure, transporter)

from oracles import (all_pairs_subconjugacy_covers, bf_averaging_projector,
                     bf_fix_subspace, bf_isotypic_decomposition, bf_mat_mul,
                     bf_rref, bf_relative_normal, element_matrices,
                     full_subgroup, trivial_subgroup, zeros)

F = Fraction


@pytest.fixture(scope="module")
def c2_plane(c2):
    return fx.load_representation("c2_plane", c2)


@pytest.fixture(scope="module")
def s3_standard(s3):
    return fx.load_representation("s3_standard", s3)


class TestLinearAction:
    def test_rejects_singular_generator(self, c2):
        with pytest.raises(ValidationError):
            LinearAction(c2, 2, [[[1, 0], [1, 0]]])

    def test_rejects_relation_violation(self, c2):
        # a matrix of infinite order cannot represent an involution
        with pytest.raises(ValidationError):
            LinearAction(c2, 2, [[[1, 1], [0, 1]]])

    def test_rejects_wrong_shape(self, c2):
        with pytest.raises(ValidationError):
            LinearAction(c2, 3, [[[1, 0], [0, -1]]])

    def test_identity_element_gets_identity_matrix(self, s3_standard, s3):
        assert s3_standard.matrix(s3.identity_index) \
            == ratmat.eye(2)

    def test_is_a_homomorphism(self, s3_standard, s3):
        for a in range(s3.order):
            for b in range(s3.order):
                assert s3_standard.matrix(s3.mul(a, b)) \
                    == bf_mat_mul(s3_standard.matrix(a),
                                  s3_standard.matrix(b))

    def test_entries_written_differently_give_equal_matrices(self, c2, s3):
        # an involution with den 2 entries, and S3's standard
        # representation conjugated by diag(2, 1/3)
        spellings = [
            [[[0, 2], ["1/2", 0]]],
            [[["0/7", "4/2"], ["2/4", "-0"]]],
            [[[F(0), F(2)], [F(1, 2), F(0)]]],
        ]
        c2_actions = [LinearAction(c2, 2, gens) for gens in spellings]
        s3_gens = fx.REPRESENTATIONS["s3_standard"]["generators"]
        T, T_inv = ((F(2), F(0)), (F(0), F(1, 3))), \
            ((F(1, 2), F(0)), (F(0), F(3)))
        conj = [bf_mat_mul(bf_mat_mul(T, ratmat.as_mat(m)), T_inv)
                for m in s3_gens]
        s3_actions = [
            LinearAction(s3, 2, conj),
            LinearAction(s3, 2, [[[str(x) for x in row] for row in m]
                                 for m in conj]),
            LinearAction(s3, 2, [[[f"{3 * x.numerator}/{3 * x.denominator}"
                                   for x in row] for row in m]
                                 for m in conj])]
        for actions in (c2_actions, s3_actions):
            want = element_matrices(actions[0])
            assert any(x.denominator > 1 for m in want for row in m
                       for x in row)
            for action in actions[1:]:
                assert repr(element_matrices(action)) == repr(want)

    def test_rational_relation_violation_keeps_its_message(self, c2, s3):
        message = "generator images do not satisfy the group's relations"
        # invertible, but its square is not the identity
        with pytest.raises(ValidationError, match=message):
            LinearAction(c2, 2, [[["1/2", 0], [0, 2]]])
        # S3's generators conjugated by two different rational matrices
        gens = [ratmat.as_mat(m)
                for m in fx.REPRESENTATIONS["s3_standard"]["generators"]]
        T, T_inv = ((F(1), F(1, 2)), (F(0), F(1))), \
            ((F(1), F(-1, 2)), (F(0), F(1)))
        moved = [bf_mat_mul(bf_mat_mul(T, gens[0]), T_inv), gens[1]]
        with pytest.raises(ValidationError, match=message):
            LinearAction(s3, 2, moved)

    def test_dimension_cap_comes_before_any_matrix(self, c2):
        # every bundled representation and every representation of the
        # benchmark (at most 6) lies under the cap
        assert DIMENSION_CAP >= max(
            [spec["dim"] for spec in fx.REPRESENTATIONS.values()] + [6])
        trivial = closure(1, [])
        assert LinearAction(trivial, DIMENSION_CAP, []).matrix(0) \
            == ratmat.eye(DIMENSION_CAP)
        message = (f"dimension {DIMENSION_CAP + 1} exceeds "
                   f"DIMENSION_CAP={DIMENSION_CAP}")
        with pytest.raises(CapExceededError, match=message):
            LinearAction(trivial, DIMENSION_CAP + 1, [])
        with pytest.raises(CapExceededError, match="DIMENSION_CAP="):
            LinearAction(c2, 10**9, [[[1]]])


class TestAveragingProjector:
    @pytest.mark.parametrize("rep", ["c2_plane", "s3_standard"])
    def test_idempotent_and_equivariant(self, rep, request):
        action = request.getfixturevalue(rep)
        for H in all_subgroups(action.group):
            P = averaging_projector(action, H)
            assert bf_mat_mul(P, P) == P
            for h in H.members:
                R = action.matrix(h)
                assert bf_mat_mul(R, P) == P
                assert bf_mat_mul(P, R) == P

    def test_c2_projector_explicit(self, c2_plane):
        P = averaging_projector(c2_plane, full_subgroup(c2_plane.group))
        assert P == ratmat.as_mat([[1, 0], [0, 0]])

    def test_s3_full_group_projector_is_zero(self, s3_standard):
        P = averaging_projector(s3_standard, full_subgroup(s3_standard.group))
        assert P == zeros(2, 2)


class TestFixSubspace:
    def test_trivial_subgroup_fixes_everything(self, s3_standard):
        basis = fix_subspace(s3_standard, trivial_subgroup(s3_standard.group))
        assert len(basis) == 2

    def test_s3_dims_by_class(self, s3_standard, s3):
        dims = sorted(
            len(fix_subspace(s3_standard, c.representative))
            for c in conjugacy_classes_of_subgroups(s3))
        # trivial: 2, each reflection: 1, rotation and full group: 0
        assert dims == [0, 0, 1, 2]

    def test_constant_on_conjugacy_class(self, s3_standard, s3):
        for c in conjugacy_classes_of_subgroups(s3):
            dims = {len(fix_subspace(s3_standard, sub))
                    for sub in c.orbit_of_subgroups}
            assert len(dims) == 1

    def test_monotone_in_subgroup(self, s3_standard, s3):
        subs = all_subgroups(s3)
        for h0 in subs:
            for h1 in subs:
                if h0.member_set <= h1.member_set:
                    assert len(fix_subspace(s3_standard, h1)) \
                        <= len(fix_subspace(s3_standard, h0))

    def test_vectors_are_actually_fixed(self, s3_standard, s3):
        for sub in all_subgroups(s3):
            for v in fix_subspace(s3_standard, sub):
                for h in sub.members:
                    column = tuple(zip(v))
                    assert bf_mat_mul(s3_standard.matrix(h), column) \
                        == column


class TestRelativeNormal:
    def test_c2_breaking_direction(self, c2_plane, c2):
        triv = trivial_subgroup(c2)
        full = full_subgroup(c2)
        rn = relative_normal(c2_plane, triv, full, c2.identity_index)
        assert rn.dimension == 1
        # the broken direction is the -1 eigenvector; the nontrivial
        # element of C2 acts on it by -1
        nontriv = next(g for g in range(2) if g != c2.identity_index)
        assert rn.restricted[nontriv] == ratmat.as_mat([[-1]])

    def test_equal_subgroups_give_zero(self, s3_standard, s3):
        for sub in all_subgroups(s3):
            rn = relative_normal(s3_standard, sub, sub, s3.identity_index)
            assert rn.dimension == 0

    def test_s3_reflection_to_full(self, s3_standard, s3):
        refl = next(s for s in all_subgroups(s3) if s.order == 2)
        full = full_subgroup(s3)
        rn = relative_normal(s3_standard, refl, full, s3.identity_index)
        assert rn.dimension == 1

    def test_dimension_additivity(self, s3_standard, s3):
        # dim Fix(H0) = dim Fix(g^-1 H1 g) + dim normal
        from phasecat.permgroup import transporter
        subs = all_subgroups(s3)
        for h0 in subs:
            for h1 in subs:
                t = transporter(s3, h0, h1)
                for g in t:
                    rn = relative_normal(s3_standard, h0, h1, g)
                    K = h1.conjugate(s3.inv(g))
                    assert len(fix_subspace(s3_standard, h0)) \
                        == len(fix_subspace(s3_standard, K)) + rn.dimension

    def test_restricted_matrices_form_an_action(self, s3_standard, s3):
        triv = trivial_subgroup(s3)
        refl = next(s for s in all_subgroups(s3) if s.order == 2)
        rn = relative_normal(s3_standard, triv, refl, s3.identity_index)
        acting = rn.acting_subgroup
        for a in acting.members:
            assert ratmat.is_invertible(rn.restricted[a])
            for b in acting.members:
                assert bf_mat_mul(rn.restricted[a], rn.restricted[b]) \
                    == rn.restricted[s3.mul(a, b)]

    def test_bad_witness_rejected(self, s3_standard, s3):
        refl = next(s for s in all_subgroups(s3) if s.order == 2)
        a3 = next(s for s in all_subgroups(s3) if s.order == 3)
        with pytest.raises(ValidationError):
            relative_normal(s3_standard, refl, a3, s3.identity_index)

    def test_witness_accepted_exactly_on_the_transporter(self, s3_standard,
                                                         s3):
        from phasecat.permgroup import transporter
        subs = all_subgroups(s3)
        for h0 in subs:
            for h1 in subs:
                t = transporter(s3, h0, h1)
                for g in (-1, *range(s3.order), s3.order):
                    if g in t:
                        relative_normal(s3_standard, h0, h1, g)
                        continue
                    with pytest.raises(ValidationError,
                                       match="does not conjugate H0 into H1"):
                        relative_normal(s3_standard, h0, h1, g)

    def test_action_leaving_the_basis_is_inconsistent(self, s3):
        # the identity acts (it lies in K and normalizes H0) but neither
        # H0's generators nor K's read its form; given a rotation's form,
        # it moves the reflection's -1 line off itself
        action = fx.load_representation("s3_standard", s3)
        triv = trivial_subgroup(s3)
        refl = next(s for s in all_subgroups(s3) if s.order == 2)
        rotation = next(g for g in range(s3.order)
                        if len(subgroup_closure(s3, (g,))) == 3)
        forms = list(action.forms)
        forms[s3.identity_index] = forms[rotation]
        action.forms = tuple(forms)
        with pytest.raises(ValidationError,
                           match="^inconsistent linear system$"):
            relative_normal(action, triv, refl, s3.identity_index)


class TestDegeneracyQuiver:
    def test_every_cover_is_a_walk_edge(self, groups, c2s4):
        # if K covers H, the walk tries some g in K - H, and <H, g> = K
        for G in [*groups.values(), c2s4]:
            classes = conjugacy_classes_of_subgroups(G)
            for a, b, _ in linrep.subconjugacy_covers(G, classes):
                assert any(e is classes[b] for e in classes[a].extensions)

    def test_c2_quiver(self, c2_plane, c2):
        q = degeneracy_quiver(c2_plane)
        assert [n.fix_dimension for n in q.nodes] == [2, 1]
        assert len(q.arrows) == 1
        (arrow,) = q.arrows
        assert (arrow.source, arrow.target) == (0, 1)
        assert arrow.normal.dimension == 1

    def test_s3_quiver(self, s3_standard, s3):
        q = degeneracy_quiver(s3_standard)
        by_order = {q.nodes[i].subgroup_class.order: i
                    for i in range(len(q.nodes))}
        assert q.nodes[by_order[1]].fix_dimension == 2
        assert q.nodes[by_order[2]].fix_dimension == 1
        assert q.nodes[by_order[3]].fix_dimension == 0
        assert q.nodes[by_order[6]].fix_dimension == 0
        # covers: 1->C2, 1->C3, C2->S3, C3->S3
        pairs = sorted((a.source, a.target) for a in q.arrows)
        expected = sorted([(by_order[1], by_order[2]),
                           (by_order[1], by_order[3]),
                           (by_order[2], by_order[6]),
                           (by_order[3], by_order[6])])
        assert pairs == expected

    def test_classes_of_another_group_rejected(self, s3_standard, groups):
        # C2's members (0,) and (0, 1) are element indices of S3 too, and
        # S4's run past them; both lists are refused
        for name in ("c2", "s4"):
            with pytest.raises(ValidationError,
                               match="must be of the action's group"):
                degeneracy_quiver(
                    s3_standard, conjugacy_classes_of_subgroups(groups[name]))

    def test_arrow_dimension_bookkeeping(self, s3_standard, c2_plane):
        for action in (s3_standard, c2_plane):
            q = degeneracy_quiver(action)
            for a in q.arrows:
                src = q.nodes[a.source]
                K = q.nodes[a.target].subgroup_class.representative \
                    .conjugate(action.group.inv(a.witness))
                assert src.fix_dimension \
                    == len(fix_subspace(action, K)) + a.normal.dimension


class TestIsotypicDecomposition:
    def test_c2_splits_into_eigenlines(self, c2_plane, c2):
        pieces = isotypic_decomposition(c2_plane, full_subgroup(c2))
        assert sorted(pieces) == [1, 2]
        assert len(pieces[1]) == 1 and len(pieces[2]) == 1
        assert pieces[1][0][1] == 0  # +1 eigenvector is the x-axis

    def test_s3_rotation_subgroup(self, s3_standard, s3):
        a3 = next(s for s in all_subgroups(s3) if s.order == 3)
        pieces = isotypic_decomposition(s3_standard, a3)
        # the standard representation restricted to C3 is the rational
        # irreducible of the primitive cube roots of unity
        assert sorted(pieces) == [3]
        assert len(pieces[3]) == 2

    def test_trivial_subgroup(self, s3_standard, s3):
        pieces = isotypic_decomposition(s3_standard, trivial_subgroup(s3))
        assert sorted(pieces) == [1]
        assert len(pieces[1]) == 2

    def test_non_cyclic_rejected(self, s3):
        # 3-dimensional permutation representation of S3
        perm = LinearAction(s3, 3, [
            [[0, 1, 0], [1, 0, 0], [0, 0, 1]],
            [[0, 0, 1], [1, 0, 0], [0, 1, 0]]])
        with pytest.raises(ValidationError):
            isotypic_decomposition(perm, full_subgroup(s3))

    def test_permutation_rep_of_c2(self, c2):
        swap = LinearAction(c2, 2, [[[0, 1], [1, 0]]])
        pieces = isotypic_decomposition(swap, full_subgroup(c2))
        assert {d: len(b) for d, b in pieces.items()} == {1: 1, 2: 1}


D4C2 = [[1, 2, 3, 0, 4, 5], [1, 0, 3, 2, 4, 5], [0, 1, 2, 3, 5, 4]]


def permutation_matrices(images_list, dim):
    """e_i -> e_p(i) for each image array p."""
    mats = []
    for p in images_list:
        m = [[0] * dim for _ in range(dim)]
        for i, img in enumerate(p):
            m[img][i] = 1
        mats.append(m)
    return mats


def rationally_conjugated(mats, seed):
    """T M T^-1 for a seeded invertible rational T, so the kernels see
    fractions rather than 0/1 entries."""
    dim = len(mats[0])
    rng = random.Random(seed)
    while True:
        T = [[F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(dim)]
             for _ in range(dim)]
        if ratmat.is_invertible(ratmat.as_mat(T)):
            break
    aug = [row + [F(int(i == j)) for j in range(dim)]
           for i, row in enumerate(T)]
    T_inv = [row[dim:] for row in bf_rref(aug)[0]]
    return [bf_mat_mul(bf_mat_mul(ratmat.as_mat(T), ratmat.as_mat(m)),
                       ratmat.as_mat(T_inv)) for m in mats]


@pytest.fixture(scope="module")
def oracle_reps(c2_plane, s3_standard, groups):
    """The bundled representations, the permutation representations of
    the exact benchmark workload (S4 on points and on 2-subsets, D4 x C2
    on six points) and rational conjugates of two of them."""
    s4 = groups["s4"]
    d4c2 = closure(6, D4C2)
    pairs = list(itertools.combinations(range(4), 2))
    where = {frozenset(p): i for i, p in enumerate(pairs)}
    pair_images = [[where[frozenset(g[v] for v in p)] for p in pairs]
                   for g in s4.generators]
    q4 = permutation_matrices(s4.generators, 4)
    q6 = permutation_matrices(d4c2.generators, 6)
    return {"c2_plane": c2_plane, "s3_standard": s3_standard,
            "s4_q4": LinearAction(s4, 4, q4),
            "s4_pairs_q6": LinearAction(
                s4, 6, permutation_matrices(pair_images, 6)),
            "d4c2_q6": LinearAction(d4c2, 6, q6),
            "s4_q4_rational": LinearAction(
                s4, 4, rationally_conjugated(q4, "s4")),
            "d4c2_q6_rational": LinearAction(
                d4c2, 6, rationally_conjugated(q6, "d4c2"))}


class TestGeneratorKernelsMatchProjectors:
    """Oracle: fixed spaces and relative normals from generators equal the
    averaging-projector and solve-based constructions, entry for entry."""

    def test_fix_subspace_on_every_subgroup(self, oracle_reps):
        for name, action in oracle_reps.items():
            for H in all_subgroups(action.group):
                assert repr(fix_subspace(action, H)) \
                    == repr(bf_fix_subspace(action, H.members)), (name, H)

    def test_trivial_subgroup_fixes_the_standard_basis(self, oracle_reps):
        for action in oracle_reps.values():
            basis = fix_subspace(action, trivial_subgroup(action.group))
            assert basis == list(ratmat.eye(action.dimension))

    def test_relative_normal_on_every_class_pair(self, oracle_reps):
        for name, action in oracle_reps.items():
            G = action.group
            reps = [c.representative
                    for c in conjugacy_classes_of_subgroups(G)]
            fixes = [bf_fix_subspace(action, h.members) for h in reps]
            for (h0, fix0), h1 in itertools.product(zip(reps, fixes), reps):
                t = transporter(G, h0, h1)
                if not t:
                    continue
                rn = relative_normal(action, h0, h1, min(t))
                basis, restricted = bf_relative_normal(action, fix0, h0, h1,
                                                       min(t))
                assert repr(rn.basis) == repr(basis), (name, h0, h1)
                assert repr(rn.restricted) == repr(restricted)
                assert rn.acting_subgroup.members == tuple(restricted)

    def test_quiver_arrows(self, oracle_reps):
        for name, action in oracle_reps.items():
            q = degeneracy_quiver(action)
            classes = [n.subgroup_class for n in q.nodes]
            assert [(a.source, a.target, a.witness) for a in q.arrows] \
                == all_pairs_subconjugacy_covers(action.group, classes), name
            for a in q.arrows:
                h0 = q.nodes[a.source].subgroup_class.representative
                h1 = q.nodes[a.target].subgroup_class.representative
                basis, restricted = bf_relative_normal(
                    action, bf_fix_subspace(action, h0.members), h0, h1,
                    a.witness)
                assert repr(a.normal.basis) == repr(basis), name
                assert repr(a.normal.restricted) == repr(restricted), name

    def test_transporter_once_per_arrow(self, oracle_reps, monkeypatch):
        # the witness of each cover; the acting elements are found in K
        calls = []
        monkeypatch.setattr(linrep, "transporter",
                            lambda *a: calls.append(a) or transporter(*a))
        for name, action in oracle_reps.items():
            del calls[:]
            q = degeneracy_quiver(action)
            assert len(calls) == len(q.arrows), name

    def test_quiver_on_every_other_class(self, c2s4):
        action = LinearAction(c2s4, 6,
                              permutation_matrices(c2s4.generators, 6))
        classes = conjugacy_classes_of_subgroups(c2s4)[::2]
        q = degeneracy_quiver(action, classes)
        assert [n.subgroup_class for n in q.nodes] == classes
        assert [(a.source, a.target, a.witness) for a in q.arrows] \
            == all_pairs_subconjugacy_covers(c2s4, classes)

    def test_averaging_projector_on_every_subgroup(self, oracle_reps):
        for name, action in oracle_reps.items():
            for H in all_subgroups(action.group):
                assert repr(averaging_projector(action, H)) \
                    == repr(bf_averaging_projector(action, H.members)), \
                    (name, H)

    def test_isotypic_decomposition_on_every_cyclic_subgroup(self,
                                                            oracle_reps):
        for name, action in oracle_reps.items():
            G = action.group
            cyclic = [H for H in all_subgroups(G)
                      if any(subgroup_closure(G, (h,)) == H.member_set
                             for h in H.members)]
            assert len(cyclic) > 1
            for H in cyclic:
                assert repr(isotypic_decomposition(action, H)) \
                    == repr(bf_isotypic_decomposition(action, H)), (name, H)
