"""Independent brute-force oracles, kept deliberately separate from the
library implementations they check."""

import itertools
import json


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


def bf_olog_json(data):
    """The stdlib's indented, key-sorted JSON text plus a final newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
