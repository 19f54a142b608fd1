import pytest

import oracles
from phasecat import (ValidationError, build_orbit_category,
                      conjugacy_classes_of_subgroups, weyl_group)
from phasecat.category import FiniteCategory

GROUP_NAMES = ["trivial", "c2", "c4", "s3", "d4", "a4", "s4"]


def elements_of(G, sub):
    return [G.elements[i] for i in sub.members]


@pytest.fixture(scope="module")
def orbit_cats(groups):
    return {name: build_orbit_category(groups[name])
            for name in GROUP_NAMES}


class TestHomSets:
    def test_s3_trivial_to_alternating_has_two_morphisms(self, orbit_cats):
        oc = orbit_cats["s3"]
        a3 = next(c.class_index for c in oc.classes if c.order == 3)
        triv = next(c.class_index for c in oc.classes if c.order == 1)
        assert len(oc.hom_set(triv, a3)) == 2

    def test_no_arrows_into_smaller_subgroups(self, orbit_cats):
        # finite analog of the dimension filtration
        for oc in orbit_cats.values():
            for c0 in oc.classes:
                for c1 in oc.classes:
                    if c0.order > c1.order:
                        assert oc.hom_set(c0.class_index,
                                          c1.class_index) == []

    def test_endo_hom_size_is_weyl_order(self, orbit_cats, groups):
        for name, oc in orbit_cats.items():
            G = groups[name]
            for c in oc.classes:
                w = weyl_group(G, c.representative)
                assert len(oc.hom_set(c.class_index, c.class_index)) \
                    == w.order

    @pytest.mark.parametrize("name", GROUP_NAMES)
    def test_equivariant_map_oracle(self, name, groups, orbit_cats):
        G = groups[name]
        oc = orbit_cats[name]
        for c0 in oc.classes:
            for c1 in oc.classes:
                expected = oracles.bf_equivariant_map_count(
                    G.elements, elements_of(G, c0.representative),
                    elements_of(G, c1.representative))
                assert len(oc.hom_set(c0.class_index,
                                      c1.class_index)) == expected


class TestComposition:
    def test_identity_laws_and_associativity(self, orbit_cats):
        for oc in orbit_cats.values():
            assert oc.category.check_category_laws()

    def test_unique_arrow_composed_with_automorphism(self, orbit_cats):
        oc = orbit_cats["s3"]
        triv = next(c.class_index for c in oc.classes if c.order == 1)
        a3 = next(c.class_index for c in oc.classes if c.order == 3)
        # only one coset exists 1 -> A3-side? there are two; compose each
        # automorphism of the trivial object with each arrow and land in
        # the same hom-set
        arrows = oc.category.hom(triv, a3)
        for aut in oc.category.hom(triv, triv):
            for arr in arrows:
                assert oc.compose(arr, aut) in arrows

    def test_aut_group_isomorphic_to_weyl(self, orbit_cats, groups):
        # multiplication-table comparison for |W| <= 12
        for name, oc in orbit_cats.items():
            G = groups[name]
            for c in oc.classes:
                w = weyl_group(G, c.representative)
                if w.order > 12:
                    continue
                auts = oc.category.hom(c.class_index, c.class_index)
                assert len(auts) == w.order
                # the automorphisms form a group: closed, with identity
                # and inverses, matching W's order profile
                table = {(a, b): oc.compose(a, b)
                         for a in auts for b in auts}
                assert set(table.values()) <= set(auts)
                orders = sorted(_element_order(oc, a, auts) for a in auts)
                worders = sorted(_perm_order(w, i) for i in range(w.order))
                assert orders == worders

    def test_non_composable_pair_rejected(self, orbit_cats):
        oc = orbit_cats["s3"]
        triv = next(c.class_index for c in oc.classes if c.order == 1)
        a3 = next(c.class_index for c in oc.classes if c.order == 3)
        arr = oc.category.hom(triv, a3)[0]
        with pytest.raises(ValidationError):
            oc.compose(arr, arr)


def _with_table(cat, table):
    return FiniteCategory(cat.objects, cat.morphisms, cat.identity, table)


def _brute_force_law_violation(cat):
    """True if some unit or associativity law fails, by scanning every
    morphism and every triple of morphisms."""
    table = cat.compose_table
    for m, mor in enumerate(cat.morphisms):
        if (table[(m, cat.identity[mor.src])] != m
                or table[(cat.identity[mor.dst], m)] != m):
            return True
    return _first_associativity_failure(cat) is not None


class TestLawCheckRejects:
    """The law check must fail exactly on tables that break a law."""

    def test_every_single_entry_substitution(self, orbit_cats):
        cat = orbit_cats["s3"].category
        assert len(cat.morphisms) == 18
        variants = broken = 0
        for key, r in cat.compose_table.items():
            m2, m1 = key
            src, dst = cat.morphisms[m1].src, cat.morphisms[m2].dst
            for other in cat.hom(src, dst):
                if other == r:
                    continue
                table = dict(cat.compose_table)
                table[key] = other
                bad = _with_table(cat, table)
                variants += 1
                if _brute_force_law_violation(bad):
                    broken += 1
                    with pytest.raises(ValidationError):
                        bad.check_category_laws()
                else:
                    assert bad.check_category_laws()
        assert variants > 0 and broken > 0

    def test_missing_pair(self, orbit_cats):
        cat = orbit_cats["s3"].category
        for key in cat.compose_table:
            table = dict(cat.compose_table)
            del table[key]
            with pytest.raises(ValidationError,
                               match=r"missing composition \(%d,%d\)"
                               % key):
                _with_table(cat, table).check_category_laws()

    def test_broken_unit(self, orbit_cats):
        cat = orbit_cats["s3"].category
        for obj, e in enumerate(cat.identity):
            for m in cat.hom(obj, obj):
                if m == e:
                    continue
                table = dict(cat.compose_table)
                table[(m, e)] = e
                with pytest.raises(ValidationError, match="unit fails"):
                    _with_table(cat, table).check_category_laws()

    def test_first_failing_triple_is_named(self, orbit_cats):
        cat = orbit_cats["s3"].category
        named = 0
        for key in cat.compose_table:
            if cat.is_identity(key[0]) or cat.is_identity(key[1]):
                continue
            src = cat.morphisms[key[1]].src
            dst = cat.morphisms[key[0]].dst
            for other in cat.hom(src, dst):
                table = dict(cat.compose_table)
                table[key] = other
                bad = _with_table(cat, table)
                first = _first_associativity_failure(bad)
                if first is None:
                    continue
                named += 1
                with pytest.raises(
                        ValidationError,
                        match=r"associativity fails on \(%d,%d,%d\)\Z"
                        % first):
                    bad.check_category_laws()
        assert named > 0


def _first_associativity_failure(cat):
    """The first (m3, m2, m1) that breaks associativity, scanning m1, then
    m2, then m3 in index order."""
    mors, table = cat.morphisms, cat.compose_table
    for m1 in range(len(mors)):
        for m2 in range(len(mors)):
            if mors[m2].src != mors[m1].dst:
                continue
            for m3 in range(len(mors)):
                if mors[m3].src == mors[m2].dst and \
                        table[(m3, table[(m2, m1)])] \
                        != table[(table[(m3, m2)], m1)]:
                    return (m3, m2, m1)
    return None


def _element_order(oc, a, auts):
    obj = oc.category.morphisms[a].src
    e = oc.category.identity[obj]
    k, cur = 1, a
    while cur != e:
        cur = oc.compose(a, cur)
        k += 1
    return k


def _perm_order(w, i):
    e = w.identity_index
    k, cur = 1, i
    while cur != e:
        cur = w.mul(i, cur)
        k += 1
    return k


class TestObjects:
    def test_trivial_group_category(self, orbit_cats):
        cat = orbit_cats["trivial"].category
        assert len(cat.objects) == 1
        assert len(cat.morphisms) == 1

    def test_c2_hom_profile(self, orbit_cats):
        oc = orbit_cats["c2"]
        assert len(oc.classes) == 2
        triv = next(c.class_index for c in oc.classes if c.order == 1)
        full = next(c.class_index for c in oc.classes if c.order == 2)
        assert len(oc.category.hom(triv, triv)) == 2
        assert len(oc.category.hom(triv, full)) == 1
        assert len(oc.category.hom(full, full)) == 1
        assert oc.category.hom(full, triv) == []

    def test_s3_has_four_objects(self, orbit_cats):
        assert len(orbit_cats["s3"].category.objects) == 4
