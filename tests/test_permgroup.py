import random

import pytest

import oracles
from phasecat import (CapExceededError, ValidationError, all_subgroups,
                      build_orbit_category, closure,
                      conjugacy_classes_of_subgroups, normalizer,
                      transporter, weyl_group)
from phasecat import fixtures as fx
from phasecat.permgroup import (ORDER_CAP, Subgroup, extend_generators,
                                left_cosets, perm_mul, subgroup_closure,
                                trivial_subgroup)


def naive_subgroup_closure(G, seed):
    """Reference closure: add pairwise products and inverses of everything
    found so far until nothing new appears."""
    members = {G.identity_index, *seed}
    while True:
        new = {G.mul(a, b) for a in members for b in members} \
            | {G.inv(a) for a in members}
        if new <= members:
            return frozenset(members)
        members |= new


class TestClosure:
    def test_s3_from_transposition_and_cycle(self):
        G = closure(3, [[1, 0, 2], [1, 2, 0]])
        assert G.order == 6
        # oracle: fixpoint iteration over pairwise products
        assert set(G.elements) == oracles.bf_closure(
            3, [(1, 0, 2), (1, 2, 0)])

    def test_empty_generators_give_trivial_group(self):
        G = closure(3, [])
        assert G.order == 1
        assert G.elements == ((0, 1, 2),)

    def test_cyclic_4(self):
        G = closure(4, [[1, 2, 3, 0]])
        assert G.order == 4
        assert set(G.elements) == oracles.bf_closure(4, [(1, 2, 3, 0)])

    def test_closure_is_idempotent(self, groups):
        for G in groups.values():
            again = closure(G.degree, G.elements)
            assert again.elements == G.elements

    def test_degree_zero_rejected(self):
        with pytest.raises(ValidationError):
            closure(0, [])

    def test_non_bijective_generator_rejected(self):
        with pytest.raises(ValidationError):
            closure(3, [[0, 0, 1]])

    def test_wrong_length_generator_rejected(self):
        with pytest.raises(ValidationError):
            closure(3, [[1, 0]])

    def test_cap_exceeded(self):
        # symmetric group on 7 points has order 5040 > cap
        assert ORDER_CAP == 1024
        gens = [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]
        with pytest.raises(CapExceededError):
            closure(7, gens)


class TestCayleyTable:
    def test_table_matches_permutation_products(self, groups):
        for G in groups.values():
            for i, p in enumerate(G.elements):
                for j, q in enumerate(G.elements):
                    assert G.elements[G.mul(i, j)] == oracles.compose(p, q)
                assert G.elements[G.inv(i)] == oracles.invert(p)

    def test_built_on_first_use(self):
        G = closure(3, [[1, 0, 2], [1, 2, 0]])
        assert "table" not in vars(G)
        G.mul(1, 2)
        assert "table" in vars(G)

    def test_table_from_many_generators(self, groups):
        # every element as a generator, as Subgroup.as_group does
        G = groups["s4"]
        again = closure(G.degree, G.elements)
        assert again.table == G.table


class TestExtendGenerators:
    @pytest.mark.parametrize("name", sorted(fx.GROUPS))
    def test_regular_action_is_a_homomorphism(self, name):
        G = fx.load_group(name)
        rows = [G.table[G.index(g)] for g in G.generators]
        img = extend_generators(G, rows, perm_mul, tuple(range(G.order)))
        assert len(img) == G.order
        for a in range(G.order):
            for b in range(G.order):
                assert img[G.mul(a, b)] == perm_mul(img[a], img[b])

    def test_broken_relation_rejected(self, s3):
        # generators (0 1) and (0 1 2); the 3-cycle sent to the
        # transposition breaks c^3 = 1
        t, c = s3.generators
        assert (t, c) == ((1, 0, 2), (1, 2, 0))
        with pytest.raises(ValidationError, match="relations"):
            extend_generators(s3, [t, t], perm_mul, (0, 1, 2))


class TestSubgroupClosure:
    def test_single_elements_match_naive_closure(self, groups):
        for G in groups.values():
            for g in range(G.order):
                assert subgroup_closure(G, (g,)) \
                    == naive_subgroup_closure(G, (g,))

    def test_random_pairs_match_naive_closure(self, groups):
        rng = random.Random(20120203)
        for G in groups.values():
            for _ in range(20):
                seed = (rng.randrange(G.order), rng.randrange(G.order))
                assert subgroup_closure(G, seed) \
                    == naive_subgroup_closure(G, seed)

    def test_empty_seed_is_trivial(self, s3):
        assert subgroup_closure(s3, ()) == frozenset({s3.identity_index})


class TestSymmetricGroupS5:
    def test_lattice_classes_and_orbit_category(self):
        G = closure(5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]])
        subs = all_subgroups(G)
        classes = conjugacy_classes_of_subgroups(G, subs)
        # literature values for S5
        assert (G.order, len(subs), len(classes)) == (120, 156, 19)
        oc = build_orbit_category(G, classes)
        # one morphism H -> K per H-fixed coset of G/K
        expected = 0
        for c0 in classes:
            H = c0.representative.members
            for c1 in classes:
                K = c1.representative
                for coset in left_cosets(G, K):
                    if all(G.mul(h, coset[0]) in coset for h in H):
                        expected += 1
        assert len(oc.category.morphisms) == expected
        assert oc.category.check_category_laws()


class TestSubgroups:
    def test_s3_has_six_subgroups(self, s3):
        subs = all_subgroups(s3)
        assert len(subs) == 6
        oracle = oracles.bf_subgroups_by_subsets(s3.elements)
        ours = {frozenset(s3.elements[i] for i in sub.members)
                for sub in subs}
        assert ours == oracle

    def test_trivial_group(self):
        G = closure(1, [])
        assert len(all_subgroups(G)) == 1

    def test_cyclic4_divisor_lattice(self):
        G = closure(4, [[1, 2, 3, 0]])
        subs = all_subgroups(G)
        # one subgroup per divisor of 4
        assert sorted(s.order for s in subs) == [1, 2, 4]

    def test_lagrange_on_all_fixtures(self, groups):
        for G in groups.values():
            for sub in all_subgroups(G):
                assert G.order % sub.order == 0

    def test_s4_pair_generated_oracle(self, groups):
        G = groups["s4"]
        subs = all_subgroups(G)
        oracle = oracles.bf_subgroups_by_pairs(G.elements)
        ours = {frozenset(G.elements[i] for i in sub.members)
                for sub in subs}
        assert ours == oracle
        assert len(subs) == 30

    def test_sorted_deterministically(self, groups):
        for G in groups.values():
            subs = all_subgroups(G)
            keys = [(s.order, s.members) for s in subs]
            assert keys == sorted(keys)


class TestConjugacyClasses:
    def test_s3_four_classes(self, s3):
        assert len(conjugacy_classes_of_subgroups(s3)) == 4

    def test_s4_eleven_classes(self, groups):
        assert len(conjugacy_classes_of_subgroups(groups["s4"])) == 11

    def test_abelian_one_class_per_subgroup(self, groups):
        for name in ("trivial", "c2", "c4"):
            G = groups[name]
            subs = all_subgroups(G)
            classes = conjugacy_classes_of_subgroups(G, subs)
            assert len(classes) == len(subs)
            assert all(len(c.orbit_of_subgroups) == 1 for c in classes)

    def test_partition_property(self, groups):
        for G in groups.values():
            subs = all_subgroups(G)
            classes = conjugacy_classes_of_subgroups(G, subs)
            assert sum(len(c.orbit_of_subgroups) for c in classes) \
                == len(subs)

    def test_matches_orbit_oracle(self, groups):
        for name in ("s3", "d4", "a4"):
            G = groups[name]
            subs = all_subgroups(G)
            sets = {frozenset(G.elements[i] for i in s.members)
                    for s in subs}
            oracle = oracles.bf_conjugation_orbits(G.elements, sets)
            classes = conjugacy_classes_of_subgroups(G, subs)
            assert len(classes) == len(oracle)

    def test_equal_order_within_class(self, groups):
        for G in groups.values():
            for c in conjugacy_classes_of_subgroups(G):
                assert {s.order for s in c.orbit_of_subgroups} \
                    == {c.representative.order}


class TestTransporter:
    def test_lagrange_obstruction(self, s3):
        subs = all_subgroups(s3)
        h2 = next(s for s in subs if s.order == 2)
        h3 = next(s for s in subs if s.order == 3)
        assert transporter(s3, h2, h3) == frozenset()

    def test_trivial_source_transports_everywhere(self, groups):
        for G in groups.values():
            triv = trivial_subgroup(G)
            for sub in all_subgroups(G):
                assert transporter(G, triv, sub) \
                    == frozenset(range(G.order))

    def test_self_transporter_of_order2_is_normalizer(self, s3):
        h2 = next(s for s in all_subgroups(s3) if s.order == 2)
        t = transporter(s3, h2, h2)
        # direct check over all 6 elements
        expected = {g for g in range(s3.order)
                    if all(s3.conj(g, h) in h2.member_set
                           for h in h2.members)}
        assert t == frozenset(expected)
        assert len(t) == 2

    def test_stability_under_multiplication(self, groups):
        # closed under left H1- and right H0-multiplication
        for G in groups.values():
            if G.order > 48:
                continue
            subs = all_subgroups(G)
            for h0 in subs:
                for h1 in subs:
                    t = transporter(G, h0, h1)
                    for g in t:
                        for h in h1.members:
                            assert G.mul(h, g) in t
                        for h in h0.members:
                            assert G.mul(g, h) in t


class TestWeylGroup:
    def test_weyl_of_whole_group_is_trivial(self, groups):
        for G in groups.values():
            full = Subgroup(G, tuple(range(G.order)))
            assert weyl_group(G, full).order == 1

    def test_weyl_of_trivial_is_whole_group(self, s3):
        assert weyl_group(s3, trivial_subgroup(s3)).order == 6

    def test_weyl_of_alternating_in_s3(self, s3):
        a3 = next(s for s in all_subgroups(s3) if s.order == 3)
        assert weyl_group(s3, a3).order == 2

    def test_order_identity(self, groups):
        for G in groups.values():
            for sub in all_subgroups(G):
                n = normalizer(G, sub)
                w = weyl_group(G, sub)
                assert w.order * sub.order == n.order
