"""Independent brute-force oracles, kept deliberately separate from the
library implementations they check."""

import functools
import itertools
import json
import math
from fractions import Fraction


def compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def invert(p):
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def bf_closure(degree, generators):
    """Fixpoint iteration over pairwise products of permutation tuples."""
    elems = {tuple(range(degree))}
    elems.update(tuple(g) for g in generators)
    while True:
        new = {compose(a, b) for a in elems for b in elems} \
            | {invert(a) for a in elems}
        if new <= elems:
            return elems
        elems |= new


def bf_subgroups_by_subsets(elements):
    """All subgroups of a group given by its element tuples, by filtering
    every subset.  Only viable for tiny groups."""
    elements = sorted(elements)
    identity = tuple(range(len(elements[0])))
    subgroups = set()
    for r in range(1, len(elements) + 1):
        for cand in itertools.combinations(elements, r):
            s = set(cand)
            if identity not in s:
                continue
            if all(compose(a, b) in s and invert(a) in s
                   for a in s for b in s):
                subgroups.add(frozenset(s))
    return subgroups


def bf_subgroups_by_pairs(elements):
    """Subgroups generated by every pair of elements.  Complete whenever
    all subgroups are 2-generated (true for every group of order <= 24
    used in the fixtures)."""
    elements = sorted(elements)
    degree = len(elements[0])
    out = {frozenset({tuple(range(degree))})}
    for a, b in itertools.combinations_with_replacement(elements, 2):
        out.add(frozenset(bf_closure(degree, [a, b])))
    return out


def left_cosets(group_elements, subgroup_elements):
    cosets = set()
    for g in group_elements:
        cosets.add(frozenset(compose(g, h) for h in subgroup_elements))
    return sorted(cosets, key=sorted)


def bf_weyl_elements(group_elements, subgroup_elements):
    """N/H acting on the cosets of H in its normalizer N, as the sorted
    image tuples of every n in N: the cosets are numbered in order of
    their least element tuple, and n sends coset c to the coset n c."""
    H = set(subgroup_elements)
    N = [g for g in group_elements
         if {compose(compose(g, h), invert(g)) for h in H} == H]
    cosets = sorted({frozenset(compose(n, h) for h in H) for n in N},
                    key=min)
    where = {c: i for i, c in enumerate(cosets)}
    return sorted({tuple(where[frozenset(compose(n, x) for x in c)]
                         for c in cosets) for n in N})


def bf_equivariant_map_count(group_elements, h0_elements, h1_elements):
    """Count equivariant maps G/H0 -> G/H1 by enumerating candidate images
    of the base coset and checking well-definedness and equivariance
    pointwise on every coset."""
    cosets0 = left_cosets(group_elements, h0_elements)
    cosets1 = left_cosets(group_elements, h1_elements)

    def coset1_of(g):
        return next(c for c in cosets1 if g in c)

    count = 0
    for target in cosets1:
        a = sorted(target)[0]
        # f(g H0) := g a H1; well defined iff the value is constant on
        # each H0-coset, equivariance is then automatic but checked anyway
        images = {}
        ok = True
        for c0 in cosets0:
            vals = {coset1_of(compose(g, a)) for g in c0}
            if len(vals) != 1:
                ok = False
                break
            images[c0] = next(iter(vals))
        if not ok:
            continue
        for g in group_elements:
            for c0 in cosets0:
                moved = frozenset(compose(g, x) for x in c0)
                expect = frozenset(compose(g, x) for x in images[c0])
                if images[next(c for c in cosets0 if c == moved)] != expect:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def bf_conjugation_orbits(group_elements, subgroup_sets):
    """Partition subgroups (as frozensets of tuples) into conjugation
    orbits."""
    remaining = set(subgroup_sets)
    orbits = []
    while remaining:
        seed = next(iter(remaining))
        orbit = set()
        for g in group_elements:
            gi = invert(g)
            orbit.add(frozenset(compose(compose(g, h), gi) for h in seed))
        remaining -= orbit
        orbits.append(orbit)
    return orbits


def trivial_subgroup(G):
    """{e}, the bottom of the lattice: its fixed set is the whole space."""
    from phasecat.permgroup import Subgroup
    return Subgroup(G, (G.identity_index,))


def full_subgroup(G):
    """G itself, the top of the lattice."""
    from phasecat.permgroup import Subgroup
    return Subgroup(G, tuple(range(G.order)))


def layered_subgroups(G):
    """Every subgroup of a library group as a member tuple, sorted by
    (order, members): seed with the cyclic subgroups, then extend every
    known subgroup by one element per left coset, closing the generators
    it was found with plus that element, until nothing new appears."""
    from phasecat.permgroup import subgroup_closure
    known = {frozenset({G.identity_index}): ()}
    for g in range(G.order):
        known.setdefault(subgroup_closure(G, (g,)), (g,))
    frontier = dict(known)
    while frontier:
        new = {}
        for members, gens in frontier.items():
            tried = set(members)
            for g in range(G.order):
                if g in tried:
                    continue
                tried.update(G.mul(g, h) for h in members)
                ext = subgroup_closure(G, gens + (g,))
                if ext not in known and ext not in new:
                    new[ext] = gens + (g,)
        known.update(new)
        frontier = new
    return sorted((tuple(sorted(m)) for m in known),
                  key=lambda m: (len(m), m))


def conjugation_partition(G, subgroups):
    """The conjugation orbits that meet the given member tuples, each
    taken by conjugating its least remaining member with every element of
    G, as (index, representative, orbit) with the least tuple as
    representative, sorted and indexed by (order, representative)."""
    remaining = set(subgroups)
    orbits = []
    while remaining:
        seed = min(remaining)
        orbit = sorted({tuple(sorted(G.conj(g, h) for h in seed))
                        for g in range(G.order)})
        remaining -= set(orbit)
        orbits.append(orbit)
    orbits.sort(key=lambda orbit: (len(orbit[0]), orbit[0]))
    return [(i, orbit[0], tuple(orbit)) for i, orbit in enumerate(orbits)]


def bf_subconjugacy(classes):
    """Per class a, the ascending positions of the classes b with a member
    that contains a's representative."""
    orbits = [[set(S.members) for S in b.orbit_of_subgroups]
              for b in classes]
    out = []
    for a in classes:
        rep = set(a.representative.members)
        out.append([i for i, orbit in enumerate(orbits)
                    if any(rep <= S for S in orbit)])
    return out


def all_pairs_orbit_morphisms(G, classes):
    """(c0, c1, rep) for each ordered pair of classes and each minimal
    representative of a transporter coset, by calling the transporter on
    every pair."""
    from phasecat.permgroup import transporter
    out = []
    for c0, a in enumerate(classes):
        for c1, b in enumerate(classes):
            canon = b.representative.right_coset_min
            t = transporter(G, a.representative, b.representative)
            out.extend((c0, c1, g) for g in sorted({canon[x] for x in t}))
    return out


def all_pairs_subconjugacy_covers(G, classes):
    """(a, b, minimal witness) for each covering pair of the subconjugacy
    order on the given classes: the transporter on every ordered pair
    gives the order, and a pair is a cover unless a third class of the
    list lies strictly between."""
    from phasecat.permgroup import transporter
    n = len(classes)
    leq = [[False] * n for _ in range(n)]
    wit = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            t = transporter(G, classes[a].representative,
                            classes[b].representative)
            if t:
                leq[a][b] = True
                wit[a][b] = min(t)
    covers = []
    for a in range(n):
        for b in range(n):
            if a == b or not leq[a][b]:
                continue
            # distinct classes subconjugate both ways would be equal, so
            # the order is strict off the diagonal
            if any(leq[a][c] and leq[c][b] for c in range(n)
                   if c != a and c != b):
                continue
            covers.append((a, b, wit[a][b]))
    return covers


def warshall_closure(strata, relations):
    """The reflexive-transitive closure of ``relations`` on ``strata`` as
    a set of pairs, by Warshall's algorithm on a boolean matrix."""
    where = {s: k for k, s in enumerate(strata)}
    n = len(strata)
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i, j in relations:
        reach[where[i]][where[j]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                reach[i] = [x or y for x, y in zip(reach[i], reach[k])]
    return {(strata[i], strata[j])
            for i in range(n) for j in range(n) if reach[i][j]}


def bf_subdivide(simplices, generator_maps):
    """Barycentric subdivision by scanning every simplex for the cofaces
    of each flag's top element.  Returns (vertex count, simplices,
    generator maps) with vertices numbered as the sorted simplex list."""
    old = sorted((frozenset(s) for s in simplices),
                 key=lambda s: (len(s), sorted(s)))
    where = {s: i for i, s in enumerate(old)}
    flags = set()

    def extend(chain):
        flags.add(frozenset(where[s] for s in chain))
        for s in old:
            if chain[-1] < s:
                extend(chain + [s])

    for s in old:
        extend([s])
    maps = tuple(tuple(where[frozenset(vmap[v] for v in s)] for s in old)
                 for vmap in generator_maps)
    return len(old), frozenset(flags), maps


def bf_setwise_moved(simplices, element_maps):
    """True when some element map sends a simplex onto itself and moves
    one of its vertices."""
    return any(frozenset(vmap[v] for v in s) == s
               and any(vmap[v] != v for v in s)
               for vmap in element_maps for s in simplices)


def bf_fixed_subcomplex(simplices, element_maps, members):
    """Simplices whose every vertex is fixed by every listed element."""
    return frozenset(s for s in simplices
                     if all(element_maps[h][v] == v
                            for h in members for v in s))


def bf_pi0(simplices):
    """Components of a simplex set, all vertices of each simplex joined,
    not only the ends of its edges: sorted vertex tuples, ordered by
    least vertex."""
    comps: list[set] = []
    for s in simplices:
        meets = [c for c in comps if c & s]
        comps = [c for c in comps if not c & s] + [set(s).union(*meets)]
    return sorted(tuple(sorted(c)) for c in comps)


def bf_olog_json(data):
    """The stdlib's indented, key-sorted JSON text plus a final newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# -- category laws and olog I/O ---------------------------------------------

def table_category(objects, morphisms, identity, table):
    """The ``FiniteCategory`` whose composition columns are read from a
    dict ``table`` of ``(m2, m1) -> m2 o m1``; a composable pair absent
    from it becomes a ``None`` entry, which the constructor names.
    Objects are keyed by position, and a morphism without data by its
    index."""
    from phasecat.category import FiniteCategory
    records = [(m.src, m.dst, m.label, i if m.data is None else m.data)
               for i, m in enumerate(morphisms)]

    def fill(cat):
        return [[table.get((m2, m1)) for m1 in cat.into[b.src]]
                for m2, b in enumerate(cat.morphisms)]

    return FiniteCategory(dict(enumerate(objects)), records,
                          [records[e][3] for e in identity], fill)


def lookalike_category(kinds):
    """One object per entry of ``kinds``, each with a two-element
    endomorphism monoid and no other morphism: C2 for a true entry, {1, e}
    with e o e = e for a false one.  Every hom-set size matches between
    any two objects, so only the monoids tell them apart."""
    from phasecat.category import Morphism
    morphisms, table = [], {}
    for i, group in enumerate(kinds):
        e, a = 2 * i, 2 * i + 1
        morphisms += [Morphism(i, i, f"id{i}"), Morphism(i, i, f"a{i}")]
        table.update({(e, e): e, (a, e): a, (e, a): a,
                      (a, a): e if group else a})
    return table_category([f"o{i}" for i in range(len(kinds))], morphisms,
                          range(0, 2 * len(kinds), 2), table)


def parallel_arrows_category(n):
    """Two objects and n parallel arrows 0 -> 1 that compose only with
    the identities, so each arrow is a generator of the law check."""
    from phasecat.category import Morphism
    morphisms = [Morphism(0, 0, "id0"), Morphism(1, 1, "id1")]
    morphisms += [Morphism(0, 1, f"a{k}") for k in range(n)]
    table = {(0, 0): 0, (1, 1): 1}
    for a in range(2, n + 2):
        table[1, a] = table[a, 0] = a
    return table_category(["x", "y"], morphisms, [0, 1], table)


def one_arrow_category(n, src, dst):
    """n objects with only their identities, and one more arrow from
    object ``src`` to object ``dst``; when they are equal it is an
    idempotent endomorphism.  Any two such categories of n objects have
    equal object and morphism counts."""
    from phasecat.category import Morphism
    morphisms = [Morphism(i, i, f"id{i}") for i in range(n)]
    morphisms.append(Morphism(src, dst, "a"))
    table = {(i, i): i for i in range(n)}
    table.update({(dst, n): n, (n, src): n})
    if src == dst:
        table[n, n] = n
    return table_category([f"o{i}" for i in range(n)], morphisms,
                          range(n), table)


def is_identity(cat, m):
    return cat.identity[cat.morphisms[m].src] == m


def gaussian_binomial_2(n, r):
    """[n, r]_2: the number of r-dimensional subspaces of F_2^n."""
    num = den = 1
    for i in range(r):
        num *= 2 ** (n - i) - 1
        den *= 2 ** (i + 1) - 1
    return num // den


def c2k_orbit_sizes(k):
    """(morphisms, composable pairs) of the orbit category of C2^k, in
    closed form.  Its objects are the subgroups, [k, e]_2 of dimension e;
    Hom(G/H, G/K) has |G/K| = 2^(k - dim K) elements when H <= K and none
    otherwise.  So an object of dimension e has in(e) = 2^(k-e) sum_d
    [e, d]_2 morphisms into it and out(e) = sum_f [k-e, f-e]_2 2^(k-f)
    out of it, and the pairs number sum_y in(y) out(y)."""
    g = gaussian_binomial_2
    into = [2 ** (k - e) * sum(g(e, d) for d in range(e + 1))
            for e in range(k + 1)]
    out = [sum(g(k - e, f - e) * 2 ** (k - f) for f in range(e, k + 1))
           for e in range(k + 1)]
    return (sum(g(k, e) * into[e] for e in range(k + 1)),
            sum(g(k, e) * into[e] * out[e] for e in range(k + 1)))


def bf_first_associativity_failure(cat, table):
    """The first (m3, m2, m1) that breaks associativity, scanning m1, then
    m2, then m3 in index order over the composable triples; ``table``
    maps (m2, m1) to m2 o m1."""
    mors = cat.morphisms
    out = {}
    for m, mor in enumerate(mors):
        out.setdefault(mor.src, []).append(m)
    for m1, a in enumerate(mors):
        for m2 in out.get(a.dst, []):
            x = table[(m2, m1)]
            for m3 in out.get(mors[m2].dst, []):
                if table[(m3, x)] != table[(table[(m3, m2)], m1)]:
                    return (m3, m2, m1)
    return None


def bf_check_category_laws(cat, table,
                           first_failure=bf_first_associativity_failure):
    """Every composable pair, unit and triple of ``cat``'s morphisms under
    ``table``, a dict of (m2, m1) -> m2 o m1, scanned in index order; a
    failure raises ``ValidationError`` with the library's message.
    ``first_failure(cat, table)`` names the first failing triple, or
    None."""
    from phasecat import ValidationError
    mors = cat.morphisms
    for m1, a in enumerate(mors):
        for m2, b in enumerate(mors):
            if a.dst == b.src and (m2, m1) not in table:
                raise ValidationError(f"missing composition ({m2},{m1})")
    for m, mor in enumerate(mors):
        if table[(m, cat.identity[mor.src])] != m:
            raise ValidationError(f"right unit fails at {m}")
        if table[(cat.identity[mor.dst], m)] != m:
            raise ValidationError(f"left unit fails at {m}")
    first = first_failure(cat, table)
    if first is not None:
        raise ValidationError("associativity fails on (%d,%d,%d)" % first)
    return True


def bf_hom_sets(cat):
    """Every hom-set of ``cat``, empty ones included, keyed by (x, y), by
    a filter of all its morphisms."""
    n = len(cat.objects)
    return {(x, y): [m for m, mor in enumerate(cat.morphisms)
                     if (mor.src, mor.dst) == (x, y)]
            for x in range(n) for y in range(n)}


def bf_iso_cost(cat):
    """The product of the hom-set factorials: how many morphism maps
    ``bf_isomorphic_connected`` tries for each object bijection."""
    return math.prod(map(math.factorial, map(len, bf_hom_sets(cat).values())))


def bf_components(cat):
    """The connected components of ``cat``, each a category of its own:
    the classes of objects joined by a chain of morphisms, found by
    merging the endpoints of every morphism, with their morphisms and
    the table between them."""
    from phasecat.category import Morphism
    root = list(range(len(cat.objects)))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for mor in cat.morphisms:
        root[find(mor.src)] = find(mor.dst)
    parts = {}
    for x in range(len(cat.objects)):
        parts.setdefault(find(x), []).append(x)
    out = []
    for objs in parts.values():
        obj = {x: k for k, x in enumerate(objs)}
        mors = [m for m, mor in enumerate(cat.morphisms) if mor.src in obj]
        new = {m: k for k, m in enumerate(mors)}
        out.append(table_category(
            [cat.objects[x] for x in objs],
            [Morphism(obj[cat.morphisms[m].src], obj[cat.morphisms[m].dst],
                      cat.morphisms[m].label) for m in mors],
            [new[cat.identity[x]] for x in objs],
            {(new[m2], new[m1]): new[r]
             for (m2, m1), r in cat.compose_table.items() if m1 in new}))
    return out


def bf_isomorphic(A, B):
    """True when some functor A -> B is bijective on objects and on
    morphisms.  Such a functor maps each connected component of A onto
    one of B, so each component of A is matched with the first unused
    component of B isomorphic to it (isomorphism is an equivalence, so
    any such match serves), by ``bf_isomorphic_connected``."""
    if (len(A.objects), len(A.morphisms)) != (len(B.objects),
                                              len(B.morphisms)):
        return False
    left = bf_components(B)
    for part in bf_components(A):
        match = next((k for k, other in enumerate(left)
                      if bf_isomorphic_connected(part, other)), None)
        if match is None:
            return False
        del left[match]
    return True


def bf_isomorphic_connected(A, B):
    """``bf_isomorphic`` by trying everything: every object bijection
    that keeps each hom-set size, then every choice of one bijection per
    hom-set, is checked on the identities and on every composable pair
    of A."""
    if (len(A.objects), len(A.morphisms)) != (len(B.objects),
                                              len(B.morphisms)):
        return False
    hom_a, hom_b = bf_hom_sets(A), bf_hom_sets(B)
    table_a, table_b = dict(A.compose_table), dict(B.compose_table)
    for obj in itertools.permutations(range(len(A.objects))):
        blocks = [(ms, hom_b[obj[x], obj[y]])
                  for (x, y), ms in hom_a.items()]
        if any(len(ms) != len(images) for ms, images in blocks):
            continue
        for choice in itertools.product(*(itertools.permutations(images)
                                          for _, images in blocks)):
            f = [None] * len(A.morphisms)
            for (ms, _), images in zip(blocks, choice):
                for m, t in zip(ms, images):
                    f[m] = t
            if (all(f[e] == B.identity[obj[o]]
                    for o, e in enumerate(A.identity))
                    and all(table_b[f[m2], f[m1]] == f[r]
                            for (m2, m1), r in table_a.items())):
                return True
    return False


def bf_composition_closure(cat, seeds):
    """The morphisms reached from ``seeds`` by composing any two reached
    ones, until nothing new appears."""
    reached, table = set(seeds), dict(cat.compose_table)
    while True:
        new = {table[(x, y)] for x in reached for y in reached
               if (x, y) in table} - reached
        if not new:
            return reached
        reached |= new


def bf_export_olog(category, phase=None):
    """Olog export record by record: arrow ids in morphism order, every
    table entry sorted and the identity pairs dropped afterwards."""
    objects = []
    for o in range(len(category.objects)):
        entry = {"id": f"o{o}", "label": category.objects[o],
                 "autOrder": category.aut_order(o)}
        if phase is not None:
            entry["subgroupClass"] = phase.objects[o].subgroup_class
            entry["componentId"] = phase.objects[o].component_id
        objects.append(entry)
    identities = set(category.identity)
    arrow_id = {}
    arrows = []
    for m, mor in enumerate(category.morphisms):
        if m in identities:
            continue
        aid = arrow_id[m] = f"m{len(arrows)}"
        arrows.append({"id": aid, "src": f"o{mor.src}",
                       "dst": f"o{mor.dst}", "label": mor.label})
    table = dict(category.compose_table)
    compositions = []
    for m2, m1 in sorted(pair for pair in table
                         if pair[0] in arrow_id and pair[1] in arrow_id):
        r = table[m2, m1]
        rid = (f"id:o{category.morphisms[r].src}"
               if r in identities else arrow_id[r])
        compositions.append({"left": arrow_id[m2], "right": arrow_id[m1],
                             "result": rid})
    return {"objects": objects, "arrows": arrows,
            "compositions": compositions}


def _bf_records(data, key, fields):
    from phasecat import ValidationError
    if not isinstance(data, dict):
        raise ValidationError("olog: expected a JSON object at top level")
    records = data.get(key, [])
    if not isinstance(records, list):
        raise ValidationError(f"{key}: expected a list of objects")
    for i, record in enumerate(records):
        for field in fields:
            if not (isinstance(record, dict)
                    and isinstance(record.get(field), str)):
                raise ValidationError(
                    f"{key}[{i}]: expected an object with a string {field!r}")
    return records


def bf_import_olog(data):
    """Olog import record by record: each record and triple is checked on
    its own, the table is filled by a unit-first composition over every
    composable pair, and the laws are checked by brute force."""
    from phasecat import ValidationError
    from phasecat.category import Morphism
    records = _bf_records(data, "objects", ("id",))
    arrows = _bf_records(data, "arrows", ("id", "src", "dst"))
    compositions = _bf_records(data, "compositions",
                               ("left", "right", "result"))
    for key, listed in (("objects", records), ("arrows", arrows)):
        for i, record in enumerate(listed):
            if not isinstance(record.get("label", ""), str):
                raise ValidationError(f"{key}[{i}]: expected a string "
                                      f"'label'")
    objects = {o["id"]: o.get("label", o["id"]) for o in records}
    if len(objects) != len(records):
        raise ValidationError("duplicate object ids")
    identity_keys = [f"id:{oid}" for oid in objects]
    morphisms = {key: Morphism(oid, oid, key, key)
                 for oid, key in zip(objects, identity_keys)}
    for a in arrows:
        if a["src"] not in objects or a["dst"] not in objects:
            raise ValidationError(
                f"arrow {a['id']} has dangling endpoint "
                f"{a['src']}->{a['dst']}")
        if a["id"] in morphisms:
            raise ValidationError(f"duplicate arrow id {a['id']}")
        morphisms[a["id"]] = Morphism(a["src"], a["dst"],
                                      a.get("label", a["id"]), a["id"])
    table = {}
    for c in compositions:
        left, right, result = c["left"], c["right"], c["result"]
        try:
            b, a, res = morphisms[left], morphisms[right], morphisms[result]
        except KeyError as exc:
            mid = exc.args[0]
            raise ValidationError(
                f"identity of unknown object {mid[3:]}"
                if mid.startswith("id:")
                else f"composition names unknown arrow {mid}") from None
        if a.dst != b.src or res.src != a.src or res.dst != b.dst:
            raise ValidationError(f"inconsistent composition triple "
                                  f"({left},{right})->{result}")
        if table.setdefault((left, right), result) != result:
            raise ValidationError(
                f"conflicting composition triple for ({left},{right})")
    units = set(identity_keys)

    def compose(d2, d1):
        if d1 in units:
            return d2
        if d2 in units:
            return d1
        try:
            return table[(d2, d1)]
        except KeyError:
            raise ValidationError(
                f"missing composition ({d2},{d1})") from None

    position = {key: o for o, key in enumerate(objects)}
    mors = [Morphism(position[m.src], position[m.dst], m.label, m.data)
            for m in morphisms.values()]
    index = {m.data: i for i, m in enumerate(mors)}
    int_table = {(m2, m1): index[compose(b.data, a.data)]
                 for m2, b in enumerate(mors)
                 for m1, a in enumerate(mors) if a.dst == b.src}
    cat = table_category(list(objects.values()), mors,
                         [index[k] for k in identity_keys], int_table)
    bf_check_category_laws(cat, int_table)
    return cat


# -- exact linear algebra over Fraction -------------------------------------

def bf_rref(A):
    """Gauss-Jordan over Fraction: each pivot row is divided by its pivot
    and cleared from every other row, column by column."""
    rows = [list(r) for r in A]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), pivots


def bf_kernel_basis(A):
    """Null-space basis read off bf_rref: one vector per free column."""
    if not A:
        return []
    R, pivots = bf_rref(A)
    ncols = len(A[0])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -R[r][f]
        basis.append(tuple(v))
    return basis


def bf_solve(A, B):
    """The solution X of A X = B for every column of B, from one reduction
    of the augmented matrix (A | B); None when some column makes the
    system inconsistent."""
    ncols = len(A[0])
    R, pivots = bf_rref(tuple(tuple(row) + tuple(bb)
                              for row, bb in zip(A, B)))
    if pivots and pivots[-1] >= ncols:
        return None
    X = [[Fraction(0)] * len(B[0]) for _ in range(ncols)]
    for r, p in enumerate(pivots):
        X[p] = list(R[r][ncols:])
    return tuple(tuple(row) for row in X)


def zeros(n, m):
    """The n x m zero matrix of Fractions."""
    return tuple(tuple(Fraction(0) for _ in range(m)) for _ in range(n))


def bf_mat_mul(A, B):
    """The Fraction product A B; zero products are skipped."""
    cols = tuple(zip(*B))
    return tuple(tuple(sum((a * b for a, b in zip(row, col) if a and b),
                           Fraction(0))
                       for col in cols) for row in A)


def element_matrices(action):
    """The matrix of every group element, in element order."""
    return tuple(map(action.matrix, range(action.group.order)))


def bf_averaging_projector(action, members):
    """(1/|H|) times the entrywise sum of rho(h) over every member h."""
    d = action.dimension
    total = [[Fraction(0)] * d for _ in range(d)]
    for h in members:
        for i, row in enumerate(action.matrix(h)):
            for j, x in enumerate(row):
                if x:
                    total[i][j] += x
    return tuple(tuple(x / len(members) for x in row) for row in total)


@functools.lru_cache(maxsize=1024)
def _bf_projector(action, members):
    """bf_averaging_projector, once per action and sorted member tuple:
    every H0 below K asks for the projector of the same K."""
    return bf_averaging_projector(action, members)


def bf_fix_subspace(action, members):
    """Fix(H) as the kernel of P - I, P the averaging projector of H."""
    P = bf_averaging_projector(action, members)
    return bf_kernel_basis(tuple(
        tuple(x - (i == j) for j, x in enumerate(row))
        for i, row in enumerate(P)))


def bf_relative_normal(action, fix0, H0, H1, witness):
    """(basis, restricted) of the adjacency H0 -> H1: the part of Fix(H0)
    killed by the averaging projector of K = witness^-1 H1 witness, and
    each element of K normalizing H0 in basis coordinates, from one
    elimination of the basis augmented by the images of every such
    element.  fix0 is bf_fix_subspace(action, H0.members), built once per
    H0 by the caller."""
    G = action.group
    K = [G.conj(G.inv(witness), h) for h in H1.members]
    basis = []
    if fix0:
        cols = tuple(zip(*fix0))
        reduced = bf_mat_mul(_bf_projector(action, tuple(sorted(K))), cols)
        basis = [tuple(sum((a * x for a, x in zip(row, c)), Fraction(0))
                       for row in cols)
                 for c in bf_kernel_basis(reduced)]
    h0 = set(H0.members)
    acting = [k for k in sorted(K) if {G.conj(k, h) for h in h0} == h0]
    if not basis:
        return basis, {k: () for k in acting}
    B, b = tuple(zip(*basis)), len(basis)
    images = [bf_mat_mul(action.matrix(k), B) for k in acting]
    X = bf_solve(B, tuple(sum(rows, ()) for rows in zip(*images)))
    return basis, {k: tuple(row[i * b:(i + 1) * b] for row in X)
                   for i, k in enumerate(acting)}


def bf_cyclotomic(n):
    """Coefficients (low degree first) of the n-th cyclotomic polynomial:
    x^n - 1 divided by every Phi_d with d a proper divisor of n."""
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d:
            continue
        den = bf_cyclotomic(d)
        out = [Fraction(0)] * (len(poly) - len(den) + 1)
        for i in range(len(out) - 1, -1, -1):
            out[i] = poly[i + len(den) - 1] / den[-1]
            for j, c in enumerate(den):
                poly[i + j] -= out[i] * c
        assert not any(poly[:len(den) - 1])
        poly = out
    return poly


def bf_isotypic_decomposition(action, H):
    """{d: kernel of Phi_d(rho(h))} over the divisors d of |H| with a
    non-zero kernel, h the first member of order |H|, Phi_d(rho(h)) the
    Fraction sum of c_i rho(h)^i over plain matrix powers."""
    G = action.group

    def order(g):
        k, power = 1, g
        while power != G.identity_index:
            k, power = k + 1, G.mul(g, power)
        return k

    h = next(g for g in H.members if order(g) == H.order)
    d = action.dimension
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(d))
                     for i in range(d))
    out = {}
    for n in range(1, H.order + 1):
        if H.order % n:
            continue
        total, power = [[Fraction(0)] * d for _ in range(d)], identity
        for c in bf_cyclotomic(n):
            for i in range(d):
                for j in range(d):
                    total[i][j] += c * power[i][j]
            power = bf_mat_mul(action.matrix(h), power)
        basis = bf_kernel_basis(tuple(map(tuple, total)))
        if basis:
            out[n] = basis
    return out


# -- fixed-point data and phase diagrams --------------------------------------

def weyl_component_action(presheaf, class_index, n):
    """The permutation of the components of Fix(H) induced by x |-> n^-1 x
    for a normalizer element n."""
    return presheaf.induced_map(class_index, class_index, n)


def phase_fiber(phase, class_index):
    """The phase objects lying over one orbit-category object."""
    return [i for i, o in enumerate(phase.objects)
            if o.subgroup_class == class_index]


# -- polynomials --------------------------------------------------------------

def bf_germ_terms(variable_count, terms):
    """PolyGerm's canonical terms as first written: every coefficient
    rebuilt as Fraction(0) + Fraction(c), zeros dropped, sorted by
    exponents.  Raises ValueError where PolyGerm must raise."""
    canon = {}
    for exps, coeff in terms:
        exps = tuple(int(e) for e in exps)
        if len(exps) != variable_count or any(e < 0 for e in exps):
            raise ValueError(exps)
        canon[exps] = canon.get(exps, Fraction(0)) + Fraction(coeff)
    canon = {e: c for e, c in sorted(canon.items()) if c != 0}
    if (0,) * variable_count in canon:
        raise ValueError("constant term")
    return tuple(canon.items())


def max_degree(germ):
    """Largest total degree among a germ's terms, 0 for the zero germ."""
    return max((sum(e) for e, _ in germ.terms), default=0)


def bf_poly_power(terms, k):
    """k-fold product of an {exponents: Fraction} dict, one Fraction
    product at a time."""
    return bf_poly_product(len(next(iter(terms))), [terms] * k)


def bf_poly_product(nvars, factors):
    """The product of {exponents: Fraction} dicts in ``nvars`` variables,
    one Fraction product at a time."""
    out = {(0,) * nvars: Fraction(1)}
    for terms in factors:
        nxt = {}
        for ea, ca in out.items():
            for eb, cb in terms.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                nxt[e] = nxt.get(e, Fraction(0)) + ca * cb
        out = {e: c for e, c in nxt.items() if c != 0}
    return out


def bf_standard_monomials(partials, nvars, degree):
    """Non-leading monomials of span{m * df_i} truncated above `degree`,
    by Fraction elimination with every lead normalised to 1; the lead is
    the lowest monomial by (total degree, exponents)."""
    def key(e):
        return (sum(e), e)

    monomials = sorted((e for e in itertools.product(range(degree + 1),
                                                     repeat=nvars)
                        if sum(e) <= degree), key=key)
    rows = []
    for p in partials:
        for m in monomials:
            row = {tuple(a + b for a, b in zip(e, m)): c
                   for e, c in p.items() if sum(e) + sum(m) <= degree}
            if row:
                rows.append(row)
    leads = bf_leads(rows, key)
    return [m for m in monomials if m not in leads]


def bf_leads(rows, key):
    """Leads of the span of sparse rows ({column: value}): Fraction
    elimination with every lead normalised to 1, the lead being the
    column of least key."""
    echelon = {}
    for row in rows:
        row = {e: Fraction(c) for e, c in row.items() if c != 0}
        while row:
            lead = min(row, key=key)
            other = echelon.get(lead)
            if other is None:
                echelon[lead] = {e: c / row[lead] for e, c in row.items()}
                break
            f = row[lead]
            for e, c in other.items():
                row[e] = row.get(e, Fraction(0)) - f * c
            row = {e: c for e, c in row.items() if c != 0}
    return set(echelon)


# -- large deviations ---------------------------------------------------------

def _bf_moments(outcomes, theta):
    shift = max(theta * v for v, _ in outcomes)
    z = [(v, p * math.exp(theta * v - shift)) for v, p in outcomes]
    total = sum(w for _, w in z)
    m1 = sum(v * w for v, w in z) / total
    m2 = sum(v * v * w for v, w in z) / total
    return shift + math.log(total), m1, m2 - m1 * m1


def bf_legendre(outcomes, x):
    """Gamma*(x) for (value, probability) outcomes: a doubling bracket,
    bisection to 1e-12 in theta (or to adjacent floats), then four Newton
    steps of length at most 1, and theta*x - Gamma(theta)."""
    a, b = -1.0, 1.0
    while _bf_moments(outcomes, a)[1] > x:
        a *= 2.0
    while _bf_moments(outcomes, b)[1] < x:
        b *= 2.0
    while True:
        mid = 0.5 * (a + b)
        if b - a <= 1e-12 or mid in (a, b):
            break
        if _bf_moments(outcomes, mid)[1] < x:
            a = mid
        else:
            b = mid
    theta = 0.5 * (a + b)
    for _ in range(4):
        _, m1, var = _bf_moments(outcomes, theta)
        if var <= 0:
            break
        theta -= max(-1.0, min(1.0, (m1 - x) / var))
    return theta * x - _bf_moments(outcomes, theta)[0]
