import random

import pytest

import oracles
from phasecat import (CapExceededError, GComplex,
                      LinearAction, ValidationError, all_subgroups,
                      build_orbit_category, closure,
                      conjugacy_classes_of_subgroups, normalizer,
                      subconjugacy, transporter, weyl_group)
from phasecat import fixtures as fx
from phasecat.permgroup import (DEGREE_CAP, ORDER_CAP, Subgroup,
                                extend_generators, parse_cycles, perm_mul,
                                subgroup_closure)

# Beyond the bundled groups: D6, D4 x C2 and C2 x S4 on the benchmark's
# base generators, S5 and C2^5.
MORE_GROUPS = {
    "d6": (6, [[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]]),
    "d4c2": (6, [[1, 2, 3, 0, 4, 5], [1, 0, 3, 2, 4, 5],
                 [0, 1, 2, 3, 5, 4]]),
    "c2s4": (6, [[1, 0, 2, 3, 4, 5], [1, 2, 3, 0, 4, 5],
                 [0, 1, 2, 3, 5, 4]]),
    "s5": (5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]),
    "c2^5": (10, [[j ^ 1 if j // 2 == i else j for j in range(10)]
                  for i in range(5)]),
}


def named_group(name):
    return (closure(*MORE_GROUPS[name]) if name in MORE_GROUPS
            else fx.load_group(name))


def class_data(classes):
    return [(c.class_index, c.representative.members,
             tuple(s.members for s in c.orbit_of_subgroups))
            for c in classes]


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
        with pytest.raises(CapExceededError,
                           match=r"closure passed ORDER_CAP=1024: "
                                 r"1025 elements"):
            closure(7, gens)

    def test_degree_cap_comes_before_any_permutation(self):
        # a Weyl group acts on up to ORDER_CAP cosets
        assert DEGREE_CAP >= ORDER_CAP
        assert closure(DEGREE_CAP, []).order == 1
        message = f"degree {DEGREE_CAP + 1} exceeds DEGREE_CAP={DEGREE_CAP}"
        with pytest.raises(CapExceededError, match=message):
            closure(DEGREE_CAP + 1, [])
        with pytest.raises(CapExceededError, match=message):
            parse_cycles("(0 1)", DEGREE_CAP + 1)


class TestCayleyTable:
    def test_table_matches_permutation_products(self, groups):
        for G in groups.values():
            for i, p in enumerate(G.elements):
                for j, q in enumerate(G.elements):
                    assert G.elements[G.mul(i, j)] == oracles.compose(p, q)
                assert G.elements[G.inv(i)] == oracles.invert(p)
            # the closure walk's generator rows
            assert [[G.elements[k] for k in row] for row in G._steps] \
                == [[oracles.compose(g, p) for p in G.elements]
                    for g in G.generators]

    def test_built_on_first_use(self):
        G = closure(3, [[1, 0, 2], [1, 2, 0]])
        # actions extend generator data along the generator rows alone
        GComplex(G, 3, [(0,), (1,), (2,)], G.generators)
        LinearAction(G, 2, [[[0, 1], [1, 0]], [[0, -1], [1, -1]]])
        assert "table" not in vars(G)
        G.mul(1, 2)
        assert "table" in vars(G)

    def test_table_from_many_generators(self, groups):
        # every element as a generator, the largest generating set
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


class TestGeneratingSets:
    """``generator_indices`` picks each member, in order, that the picks
    before it do not generate."""

    @pytest.mark.parametrize("name", sorted(fx.GROUPS) + ["d4c2"])
    def test_picks_against_naive_closure(self, name):
        G = named_group(name)
        subs = all_subgroups(G)
        for H in subs + [normalizer(G, s) for s in subs]:
            picks = H.generator_indices
            spans = [naive_subgroup_closure(G, picks[:i])
                     for i in range(len(picks) + 1)]
            n = 0  # the picks before h
            for h in H.members:
                if h in picks:
                    assert h not in spans[n], (name, H.members, h)
                    n += 1
                else:
                    assert h in spans[n], (name, H.members, h)
            assert spans[-1] == H.member_set, (name, H.members)


class TestWalkOnElementaryAbelian:
    """Oracle: C2^k has [k, r]_2 subgroups of rank r, each its own class;
    one of rank r lies in [k - r, s]_2 subgroups of rank r + s, and the
    walk extends it by one g per coset gH other than H, to
    2^(k - r) - 1 distinct subgroups H u gH."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_gaussian_binomial_counts(self, k):
        G = closure(2 * k, [[j ^ 1 if j // 2 == i else j
                             for j in range(2 * k)] for i in range(k)])
        g = oracles.gaussian_binomial_2
        classes = conjugacy_classes_of_subgroups(G)
        assert len(classes) == sum(g(k, r) for r in range(k + 1))
        for c, up in zip(classes, subconjugacy(classes)):
            assert len(c.orbit_of_subgroups) == 1
            r = c.order.bit_length() - 1
            assert len(c.extensions) == len(set(map(id, c.extensions))) \
                == 2 ** (k - r) - 1
            assert len(up) == sum(g(k - r, s) for s in range(k - r + 1))
        edges = sum(g(k, r) * (2 ** (k - r) - 1) for r in range(k + 1))
        assert sum(len(c.extensions) for c in classes) == edges
        if k == 6:
            assert edges == 23562

    def test_two_walks_compare_equal_and_every_class_hashes(self):
        # equality and hashing leave the extensions out, so neither walks
        # the order
        G = closure(10, MORE_GROUPS["c2^5"][1])
        first = conjugacy_classes_of_subgroups(G)
        second = conjugacy_classes_of_subgroups(G)
        assert first == second
        assert len(set(first) | set(second)) == len(first)


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
        for c1 in classes:
            K = [G.elements[k] for k in c1.representative.members]
            cosets = oracles.left_cosets(G.elements, K)
            for c0 in classes:
                H = [G.elements[h] for h in c0.representative.members]
                for coset in cosets:
                    x = min(coset)
                    if all(oracles.compose(h, x) in coset for h in H):
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

    @pytest.mark.parametrize("name", sorted(fx.GROUPS) + sorted(MORE_GROUPS))
    def test_walk_matches_two_pass_reference(self, name):
        # every subgroup extended, then partitioned by conjugating with
        # every element of G
        G = named_group(name)
        subs = oracles.layered_subgroups(G)
        assert [s.members for s in all_subgroups(G)] == subs
        assert class_data(conjugacy_classes_of_subgroups(G)) \
            == oracles.conjugation_partition(G, subs)

    @pytest.mark.parametrize("picks", [(1, 5), (6, 1, 5), (10, 14), ()])
    def test_given_subgroups_keep_the_classes_they_meet(self, groups,
                                                        picks):
        # S4 subgroups by position in the lattice: 1 and 6 lie in the
        # class of the transpositions, 5 in that of the double
        # transpositions, 10 has order 3 and 14 is cyclic of order 4; no
        # list is closed under conjugation, and the kept classes are
        # indexed anew
        G = groups["s4"]
        subs = all_subgroups(G)
        given = [subs[i] for i in picks]
        kept = conjugacy_classes_of_subgroups(G, given)
        assert class_data(kept) \
            == oracles.conjugation_partition(G, [s.members for s in given])
        assert subconjugacy(kept) == oracles.bf_subconjugacy(kept)
        # the classes the given subgroups miss are reached only along the
        # extensions, and are indexed after the kept ones
        reached, seen = list(kept), set(map(id, kept))
        for c in reached:
            for e in c.extensions:
                if id(e) not in seen:
                    seen.add(id(e))
                    reached.append(e)
        assert all(c.class_index >= len(kept) for c in reached[len(kept):])
        assert len({c.class_index for c in reached}) == len(reached)

    @pytest.mark.parametrize("name", sorted(fx.GROUPS) + sorted(MORE_GROUPS))
    def test_subconjugate_to_is_containment_in_a_conjugate(self, name):
        classes = conjugacy_classes_of_subgroups(named_group(name))
        assert subconjugacy(classes) == oracles.bf_subconjugacy(classes)

    @pytest.mark.parametrize("step", [2, 3])
    @pytest.mark.parametrize("name", sorted(fx.GROUPS) + sorted(MORE_GROUPS))
    def test_subconjugacy_of_a_slice_passes_through_unlisted_classes(
            self, name, step):
        classes = conjugacy_classes_of_subgroups(named_group(name))[::step]
        assert subconjugacy(classes) == oracles.bf_subconjugacy(classes)

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
            triv = oracles.trivial_subgroup(G)
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
        assert weyl_group(s3, oracles.trivial_subgroup(s3)).order == 6

    def test_weyl_of_alternating_in_s3(self, s3):
        a3 = next(s for s in all_subgroups(s3) if s.order == 3)
        assert weyl_group(s3, a3).order == 2

    def test_elements_equal_coset_action(self, groups):
        s5 = closure(5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]])
        for G in [*groups.values(), s5]:
            for c in conjugacy_classes_of_subgroups(G):
                H = [G.elements[h] for h in c.representative.members]
                assert list(weyl_group(G, c.representative).elements) \
                    == oracles.bf_weyl_elements(G.elements, H)

    def test_order_identity(self, groups):
        for G in groups.values():
            for sub in all_subgroups(G):
                n = normalizer(G, sub)
                w = weyl_group(G, sub)
                assert w.order * sub.order == n.order
