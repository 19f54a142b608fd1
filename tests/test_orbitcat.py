import itertools
import random

import pytest

import oracles
from phasecat import (ValidationError, build_orbit_category,
                      build_phase_diagram, conjugacy_classes_of_subgroups,
                      export_olog, import_olog, strata_category, subdivide,
                      weyl_group)
from phasecat import fixtures as fx
from phasecat import orbitcat
from phasecat.category import FiniteCategory, Morphism
from phasecat.permgroup import closure, transporter

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
    return oracles.table_category(cat.objects, cat.morphisms, cat.identity,
                                  table)


def _brute_force_law_violation(cat, table):
    """True if some unit or associativity law fails under the dict
    ``table``, by scanning every morphism and every triple of morphisms."""
    for m, mor in enumerate(cat.morphisms):
        if (table[(m, cat.identity[mor.src])] != m
                or table[(cat.identity[mor.dst], m)] != m):
            return True
    return oracles.bf_first_associativity_failure(cat, table) is not None


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
                if _brute_force_law_violation(bad, table):
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
        """Each unit pair m o id and id o m set to a parallel morphism,
        alone and with another such break: the first unit failure of the
        brute-force scan is the one named."""
        rng = random.Random("broken units")
        for name in ("s3", "d4"):
            cat = orbit_cats[name].category
            breaks = []
            for m, mor in enumerate(cat.morphisms):
                others = [o for o in cat.hom(mor.src, mor.dst) if o != m]
                if others:
                    breaks.append(((m, cat.identity[mor.src]), others[0]))
                    breaks.append(((cat.identity[mor.dst], m), others[-1]))
            assert breaks, name
            for key, value in breaks:
                for extra in ((), (rng.choice(breaks),)):
                    table = dict(cat.compose_table)
                    for k, v in ((key, value), *extra):
                        table[k] = v
                    bad = _with_table(cat, table)
                    want = _outcome(oracles.bf_check_category_laws, bad,
                                    table)
                    assert "unit fails" in want, (name, key)
                    assert _outcome(FiniteCategory.check_category_laws,
                                    bad) == want, (name, key, extra)

    def test_first_failing_triple_is_named(self, orbit_cats):
        cat = orbit_cats["s3"].category
        named = 0
        for key in cat.compose_table:
            if oracles.is_identity(cat, key[0]) or oracles.is_identity(cat, key[1]):
                continue
            src = cat.morphisms[key[1]].src
            dst = cat.morphisms[key[0]].dst
            for other in cat.hom(src, dst):
                table = dict(cat.compose_table)
                table[key] = other
                bad = _with_table(cat, table)
                first = oracles.bf_first_associativity_failure(bad, table)
                if first is None:
                    continue
                named += 1
                with pytest.raises(
                        ValidationError,
                        match=r"associativity fails on \(%d,%d,%d\)\Z"
                        % first):
                    bad.check_category_laws()
        assert named > 0


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


def _outcome(check, cat, *args):
    """True, or the message of the ValidationError that ``check(cat,
    *args)`` raises."""
    try:
        return check(cat, *args)
    except ValidationError as exc:
        return str(exc)


def _first_failure_near(cat, table, key):
    """The triple ``oracles.bf_first_associativity_failure`` names, for a
    dict ``table`` that differs from an associative one only at ``key`` =
    (b, a).

    A triple (m3, m2, m1) reads entry (b, a) only when m1 == a or
    m3 == b, so every other triple holds as in the associative table.
    Only the triples with m1 == a or m3 == b are scanned, in the same
    order."""
    b, a = key
    mors = cat.morphisms
    out = {}
    for m, mor in enumerate(mors):
        out.setdefault(mor.src, []).append(m)
    for m1, mor in enumerate(mors):
        for m2 in out.get(mor.dst, []):
            x = table[(m2, m1)]
            if m1 == a:
                m3s = out.get(mors[m2].dst, [])
            else:
                m3s = [b] if mors[b].src == mors[m2].dst else []
            for m3 in m3s:
                if table[(m3, x)] != table[(table[(m3, m2)], m1)]:
                    return (m3, m2, m1)
    return None


def _concrete_category(rng, sizes, generators):
    """Objects are sets of the given sizes and morphisms the functions
    that the identities and ``generators`` random functions give under
    composition, in a shuffled order; associative by construction."""
    ids = [(o, o, tuple(range(n))) for o, n in enumerate(sizes)]
    reached = set(ids)
    for _ in range(generators):
        s, d = rng.randrange(len(sizes)), rng.randrange(len(sizes))
        reached.add((s, d, tuple(rng.randrange(sizes[d])
                                 for _ in range(sizes[s]))))
    while True:
        new = {(s1, d2, tuple(f2[i] for i in f1))
               for s1, d1, f1 in reached for s2, d2, f2 in reached
               if d1 == s2} - reached
        if not new:
            break
        reached |= new
    mors = sorted(reached)
    rng.shuffle(mors)
    index = {m: i for i, m in enumerate(mors)}
    table = {(index[g], index[f]): index[(f[0], g[1],
                                          tuple(g[2][i] for i in f[2]))]
             for f in mors for g in mors if f[1] == g[0]}
    return oracles.table_category(
        [f"X{o}" for o in range(len(sizes))],
        [Morphism(s, d, str(f)) for s, d, f in mors],
        [index[e] for e in ids], table)


def _randomized(rng, cat, mode):
    """``cat`` as it is (mode 0), with one entry replaced by another
    morphism of the same hom-set (mode 1), or with every entry that
    involves no identity drawn at random from its hom-set (mode 2)."""
    table = dict(cat.compose_table)
    keys = list(table)
    if mode == 2:
        keys = [k for k in keys
                if not (oracles.is_identity(cat, k[0]) or oracles.is_identity(cat, k[1]))]
    elif mode == 1:
        keys = [rng.choice(keys)]
    else:
        keys = []
    for m2, m1 in keys:
        table[(m2, m1)] = rng.choice(cat.hom(cat.morphisms[m1].src,
                                             cat.morphisms[m2].dst))
    return _with_table(cat, table)


@pytest.fixture(scope="module")
def tetra_phase(groups, tetrahedron):
    return build_phase_diagram(groups["s4"], subdivide(tetrahedron))


class TestLawCheckOracle:
    """The law check gathers associativity only for generator middles
    (Light's test); brute force over every pair and triple must agree on
    pass or fail and on the first failing triple."""

    def test_every_unital_table_on_three_elements(self):
        morphisms = [Morphism(0, 0, "e"), Morphism(0, 0, "a"),
                     Morphism(0, 0, "b")]
        units = {**{(m, 0): m for m in range(3)},
                 **{(0, m): m for m in range(3)}}
        passed = 0
        for values in itertools.product(range(3), repeat=4):
            table = dict(units)
            table.update(zip([(1, 1), (1, 2), (2, 1), (2, 2)], values))
            cat = oracles.table_category(["pt"], morphisms, [0], table)
            want = _outcome(oracles.bf_check_category_laws, cat, table)
            assert _outcome(FiniteCategory.check_category_laws, cat) == want
            passed += want is True
        assert 0 < passed < 81

    def test_seeded_small_tables(self):
        rng = random.Random("law check tables")
        passed = 0
        for i in range(300):
            if i % 2:
                # one object with four morphisms, found by rejection
                cat = _concrete_category(rng, [3], rng.randint(1, 3))
                while len(cat.morphisms) != 4:
                    cat = _concrete_category(rng, [3], rng.randint(1, 3))
            else:
                cat = _concrete_category(rng, [2, 2], rng.randint(2, 4))
            cat = _randomized(rng, cat, i // 2 % 3)
            want = _outcome(oracles.bf_check_category_laws, cat,
                            dict(cat.compose_table))
            assert _outcome(FiniteCategory.check_category_laws, cat) \
                == want, i
            passed += want is True
        assert 0 < passed < 300

    @pytest.mark.parametrize("name,sample", [
        ("d4", None), ("a4", None), ("tetra_phase", 300)])
    def test_every_single_entry_substitution(self, name, sample, orbit_cats,
                                             tetra_phase):
        """Every entry replaced by every other morphism of its hom-set; on
        tetra_phase, ``sample`` of its 29,888 such variants, drawn with a
        fixed seed."""
        cat = (tetra_phase.category if name == "tetra_phase"
               else orbit_cats[name].category)
        entries = dict(cat.compose_table)
        assert oracles.bf_first_associativity_failure(cat, entries) is None
        variants = [(key, other) for key, r in entries.items()
                    for other in cat.hom(cat.morphisms[key[1]].src,
                                         cat.morphisms[key[0]].dst)
                    if other != r]
        if sample:
            variants = random.Random(name).sample(variants, sample)
        for i, (key, other) in enumerate(variants):
            table = dict(entries)
            table[key] = other
            bad = _with_table(cat, table)
            want = _outcome(oracles.bf_check_category_laws, bad, table,
                            lambda c, t: _first_failure_near(c, t, key))
            if i % 50 == 0:  # the pruned scan against the full one
                assert _outcome(oracles.bf_check_category_laws, bad,
                                table) == want
            assert _outcome(FiniteCategory.check_category_laws, bad) \
                == want, (key, other)
        assert len(variants) > 0

    def test_generators_reach_every_morphism(self, orbit_cats, tetra_phase):
        """Each picked generator lies outside the closure of the identities
        and the generators before it; every other morphism lies inside."""
        cats = {name: oc.category for name, oc in orbit_cats.items()}
        cats["tetra_phase"] = tetra_phase.category
        for name in sorted(fx.STRATIFIED):
            cats[name] = strata_category(fx.load_stratified(name))
        for name, cat in cats.items():
            generators = cat._generators()
            reached = oracles.bf_composition_closure(cat, cat.identity)
            for m in range(len(cat.morphisms)):
                assert (m in generators) == (m not in reached), (name, m)
                if m in generators:
                    reached = oracles.bf_composition_closure(
                        cat, reached | {m})
            assert reached == set(range(len(cat.morphisms))), name
            assert len(generators) < len(cat.morphisms) or \
                len(cat.morphisms) == len(cat.objects), name


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


def _c2k(k):
    """C2^k acting on 2k points, one swap of (2i, 2i+1) per factor."""
    return closure(2 * k, [[j ^ 1 if j // 2 == i else j
                            for j in range(2 * k)] for i in range(k)])


class TestSubconjugatePairsOnly:
    """Only subconjugate pairs of classes can have a morphism, and only
    they are handed to the transporter."""

    # C2^4 has 1, 15, 35, 15 and 1 subgroups of order 1, 2, 4, 8 and 16,
    # which contain 1, 2, 5, 16 and 67 subgroups: 513 pairs, not 67^2
    @pytest.mark.parametrize("name,want", [("c2s4", 224), ("c2^4", 513)])
    def test_one_transporter_call_per_subconjugate_pair(
            self, name, want, c2s4, monkeypatch):
        G = c2s4 if name == "c2s4" else _c2k(4)
        classes = conjugacy_classes_of_subgroups(G)
        calls = []
        monkeypatch.setattr(orbitcat, "transporter",
                            lambda *a: calls.append(a) or transporter(*a))
        build_orbit_category(G, classes)
        pairs = sum(map(len, oracles.bf_subconjugacy(classes)))
        assert len(calls) == pairs == want

    @pytest.mark.parametrize("step", [1, 2])
    def test_morphisms_equal_the_all_pairs_scan(self, c2s4, step):
        # step 2 keeps every other class, so part of the order lies
        # outside the list
        classes = conjugacy_classes_of_subgroups(c2s4)[::step]
        assert build_orbit_category(c2s4, classes).orbit_morphisms \
            == oracles.all_pairs_orbit_morphisms(c2s4, classes)


class TestSizeOracle:
    """The orbit category of C2^k against Gaussian binomials."""

    @pytest.mark.parametrize("k,want", [
        (1, (4, 8)), (2, (21, 85)), (3, (150, 1250)), (4, (1503, 26359))])
    def test_elementary_abelian(self, k, want):
        assert oracles.c2k_orbit_sizes(k) == want
        cat = build_orbit_category(_c2k(k)).category
        assert (len(cat.morphisms), len(cat.compose_table)) == want

    def test_unbuilt_sizes(self):
        assert oracles.c2k_orbit_sizes(5)[1] == 821_132
        assert oracles.c2k_orbit_sizes(6)[1] == 38_729_665


def _every_category(orbit_cats, tetra_phase):
    """Every bundled orbit category, tetra_phase, the strata categories
    and an imported olog."""
    cats = {name: oc.category for name, oc in orbit_cats.items()}
    cats["tetra_phase"] = tetra_phase.category
    for name in sorted(fx.STRATIFIED):
        cats[name] = strata_category(fx.load_stratified(name))
    cats["imported_d4"] = import_olog(export_olog(orbit_cats["d4"].category))
    return cats


class TestColumnTable:
    """``compose_table`` reads the columns as a mapping, and the
    constructor names the first bad entry."""

    def test_view_is_the_brute_force_table(self, orbit_cats, tetra_phase):
        for name, cat in _every_category(orbit_cats, tetra_phase).items():
            mors = cat.morphisms
            want = {(m2, m1): cat.compose(m2, m1)
                    for m1, a in enumerate(mors)
                    for m2, b in enumerate(mors) if a.dst == b.src}
            table = cat.compose_table
            assert dict(table) == want == dict(table.items()), name
            assert list(table) == sorted(want), name
            inn = [sum(m.dst == y for m in mors)
                   for y in range(len(cat.objects))]
            out = [sum(m.src == y for m in mors)
                   for y in range(len(cat.objects))]
            assert len(table) == sum(map(int.__mul__, inn, out)), name

    def test_view_refuses_other_pairs(self, orbit_cats):
        cat = orbit_cats["s3"].category
        table, n = cat.compose_table, len(cat.morphisms)
        pairs = [(m2, m1) for m2 in range(-1, n + 1)
                 for m1 in range(-1, n + 1)]
        for pair in pairs:
            defined = (0 <= min(pair) and max(pair) < n
                       and cat.morphisms[pair[1]].dst
                       == cat.morphisms[pair[0]].src)
            assert (pair in table) == defined, pair
            if not defined:
                with pytest.raises(KeyError):
                    table[pair]
                # an index at -1 or M is refused, not wrapped or overrun
                with pytest.raises(ValidationError, match=(
                        f"morphisms {pair[0]} and {pair[1]} not composable")):
                    cat.compose(*pair)

    shape_error = ("one composition column required per morphism, "
                   "no longer than its pairs")

    @staticmethod
    def columns_of(cat):
        return [list(column) for column in cat.columns]

    def rebuilt(self, cat, columns):
        return FiniteCategory(
            dict(enumerate(cat.objects)),
            [(m.src, m.dst, m.label, m.data) for m in cat.morphisms],
            [cat.morphisms[e].data for e in cat.identity],
            lambda _: columns)

    def test_rebuilt_from_its_columns(self, orbit_cats, tetra_phase):
        for name, cat in _every_category(orbit_cats, tetra_phase).items():
            again = self.rebuilt(cat, cat.columns)
            assert again.compose_table == cat.compose_table, name
            assert again.check_category_laws()

    def raises(self, cat, columns) -> str:
        with pytest.raises(ValidationError) as exc:
            self.rebuilt(cat, columns)
        return str(exc.value)

    def test_bad_entries_named(self, orbit_cats):
        cat = orbit_cats["s3"].category
        n = len(cat.morphisms)
        ends = [(m.src, m.dst) for m in cat.morphisms]
        checked = 0
        for m2, column in enumerate(cat.columns):
            for k, r in enumerate(column):
                m1 = cat.into[ends[m2][0]][k]
                wrong = next(o for o in range(n) if ends[o] != ends[r])
                entry = f"composition table entry ({m2},{m1})"
                for value, message in (
                        (None, f"missing composition ({m2},{m1})"),
                        (-1, f"{entry}->-1 mismatched"),
                        (n, f"{entry}->{n} mismatched"),
                        ("0", f"{entry}->'0' mismatched"),
                        # an int by value, but no entry: a pass built on
                        # min() or isinstance would take them
                        (True, f"{entry}->True mismatched"),
                        (1.0, f"{entry}->1.0 mismatched"),
                        (wrong, f"{entry}->{wrong} mismatched")):
                    columns = self.columns_of(cat)
                    columns[m2][k] = value
                    assert self.raises(cat, columns) == message
                    checked += 1
        assert checked == 7 * len(cat.compose_table)

    def test_short_and_long_columns(self, orbit_cats):
        cat = orbit_cats["s3"].category
        for m2, column in enumerate(cat.columns):
            m1 = cat.into[cat.morphisms[m2].src][-1]
            columns = self.columns_of(cat)
            columns[m2].pop()
            assert self.raises(cat, columns) \
                == f"missing composition ({m2},{m1})"
            columns[m2] += [column[-1], column[-1]]
            assert self.raises(cat, columns) == self.shape_error

    def test_missing_pairs_named_in_scan_order(self, orbit_cats):
        """Of several absent pairs, the one the brute-force law check
        names first."""
        rng = random.Random("missing pairs")
        for name in ("s3", "d4", "a4"):
            cat = orbit_cats[name].category
            keys = list(cat.compose_table)
            for _ in range(40):
                table = dict(cat.compose_table)
                for key in rng.sample(keys, rng.randint(2, 5)):
                    del table[key]
                with pytest.raises(ValidationError) as want:
                    oracles.bf_check_category_laws(cat, table)
                with pytest.raises(ValidationError) as got:
                    oracles.table_category(cat.objects, cat.morphisms,
                                           cat.identity, table)
                assert str(got.value) == str(want.value)

    def test_one_column_per_morphism(self, orbit_cats):
        cat = orbit_cats["s3"].category
        assert self.raises(cat, cat.columns[:-1]) == self.shape_error
        assert self.raises(cat, cat.columns + [()]) == self.shape_error
