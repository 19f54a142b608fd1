"""Finite categories with explicit hom-sets and composition tables.

This is the shared output shape for the orbit category, the phase diagram,
stratified-set diagrams and imported ologs, each built by ``keyed_category``
from records named by keys: objects by an ordered key -> label mapping, and
morphisms by distinct ``data``, with ``src`` and ``dst`` given as object
keys and stored as object positions (``FiniteCategory.find`` maps data back
to a position).  Associativity and unit laws are checkable exhaustively.
Every walk over composable pairs goes through a per-object index of
morphisms by source or target, so its cost is the number of pairs, not M^2."""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from dataclasses import dataclass
from operator import itemgetter
from typing import Any

from .errors import CapExceededError, ValidationError

#: categoryIsomorphic refuses categories bigger than this.
ISO_OBJECT_GUARD = 64


@dataclass(frozen=True)
class Morphism:
    src: Hashable
    dst: Hashable
    label: str
    data: Any = None


def by_endpoint(morphisms: list[Morphism], n_objects: int,
                end: str) -> list[list[int]]:
    """Morphism indices grouped by their ``end`` ("src" or "dst") object,
    each list ascending."""
    out: list[list[int]] = [[] for _ in range(n_objects)]
    for i, m in enumerate(morphisms):
        out[getattr(m, end)].append(i)
    return out


class FiniteCategory:
    """Objects, morphisms, identities and a total composition table.

    ``compose_table[(m2, m1)]`` is the index of m2 after m1, defined exactly
    when ``morphisms[m1].dst == morphisms[m2].src``.
    """

    def __init__(self, objects: list[str], morphisms: list[Morphism],
                 identity: list[int],
                 compose_table: dict[tuple[int, int], int]):
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.identity = list(identity)
        self.compose_table = dict(compose_table)
        self._hom: dict[tuple[int, int], list[int]] = {}
        for i, m in enumerate(self.morphisms):
            self._hom.setdefault((m.src, m.dst), []).append(i)
        self._by_data = {m.data: i for i, m in enumerate(self.morphisms)}
        self._validate()

    def _validate(self):
        if len(self.identity) != len(self.objects):
            raise ValidationError("one identity required per object")
        for o, i in enumerate(self.identity):
            m = self.morphisms[i]
            if m.src != o or m.dst != o:
                raise ValidationError(f"identity of object {o} has "
                                      f"endpoints ({m.src},{m.dst})")
        for (m2, m1), r in self.compose_table.items():
            a, b, c = self.morphisms[m1], self.morphisms[m2], self.morphisms[r]
            if a.dst != b.src or c.src != a.src or c.dst != b.dst:
                raise ValidationError(
                    f"composition table entry ({m2},{m1})->{r} mismatched")

    def find(self, data) -> int | None:
        """The index of the morphism carrying ``data``, or None."""
        return self._by_data.get(data)

    def hom(self, src: int, dst: int) -> list[int]:
        return list(self._hom.get((src, dst), []))

    def compose(self, m2: int, m1: int) -> int:
        if self.morphisms[m1].dst != self.morphisms[m2].src:
            raise ValidationError(f"morphisms {m2} and {m1} not composable")
        return self.compose_table[(m2, m1)]

    def is_identity(self, m: int) -> bool:
        return self.identity[self.morphisms[m].src] == m

    def aut_order(self, obj: int) -> int:
        return len(self._hom.get((obj, obj), []))

    def check_category_laws(self):
        """Exhaustively verify totality, units and associativity.

        Each morphism m: x -> y gets its left-composition column, the
        composites m o m1 over every m1 into x.  Associativity for a
        composable pair (m3, m2) over all m1 at once is then one gather:
        m3's column read at the positions of m2's column must equal the
        column of m3 o m2.  The gathers for one m2 and all its m3 run
        together.
        """
        n = len(self.objects)
        into = by_endpoint(self.morphisms, n, "dst")
        outgoing = by_endpoint(self.morphisms, n, "src")
        table = self.compose_table
        try:
            column = [tuple([table[(m, m1)] for m1 in into[mor.src]])
                      for m, mor in enumerate(self.morphisms)]
        except KeyError:
            for m1, a in enumerate(self.morphisms):
                for m2 in outgoing[a.dst]:
                    if (m2, m1) not in table:
                        raise ValidationError(
                            f"missing composition ({m2},{m1})") from None
            raise
        for m, mor in enumerate(self.morphisms):
            if self.compose(m, self.identity[mor.src]) != m:
                raise ValidationError(f"right unit fails at {m}")
            if self.compose(self.identity[mor.dst], m) != m:
                raise ValidationError(f"left unit fails at {m}")
        position = [0] * len(self.morphisms)
        for ms in into:
            for k, m in enumerate(ms):
                position[m] = k
        columns_from = [[column[m3] for m3 in ms] for ms in outgoing]
        for m2, b in enumerate(self.morphisms):
            at = [position[r] for r in column[m2]]
            # itemgetter of one index returns an item, not a 1-tuple
            gather = (itemgetter(*at) if len(at) > 1
                      else lambda col, k=at[0]: (col[k],))
            cols3 = columns_from[b.dst]
            left = list(map(gather, cols3))
            right = list(map(column.__getitem__,
                             map(itemgetter(position[m2]), cols3)))
            if left != right:
                self._raise_first_associativity_failure(outgoing)
        return True

    def _raise_first_associativity_failure(self, outgoing):
        """Name the first failing triple in (m1, m2, m3) order."""
        for m1, a in enumerate(self.morphisms):
            for m2 in outgoing[a.dst]:
                for m3 in outgoing[self.morphisms[m2].dst]:
                    left = self.compose(m3, self.compose(m2, m1))
                    right = self.compose(self.compose(m3, m2), m1)
                    if left != right:
                        raise ValidationError(
                            f"associativity fails on ({m3},{m2},{m1})")


def keyed_category(objects: Mapping[Hashable, str], morphisms: list[Morphism],
                   identity_keys, compose_on_data) -> FiniteCategory:
    """The category on the keys of ``objects``, labelled by its values, with
    morphisms named by distinct ``data``: ``identity_keys[o]`` names object
    o's identity and ``compose_on_data(d2, d1)`` names d2 after d1.
    """
    position = {key: o for o, key in enumerate(objects)}
    morphisms = [Morphism(position[m.src], position[m.dst], m.label, m.data)
                 for m in morphisms]
    index = {m.data: i for i, m in enumerate(morphisms)}
    if len(index) != len(morphisms):
        raise ValidationError("morphism data must be distinct")
    into = by_endpoint(morphisms, len(objects), "dst")
    # filled in ascending (m2, m1), the order export_olog sorts it into
    table = {(m2, m1): index[compose_on_data(b.data, morphisms[m1].data)]
             for m2, b in enumerate(morphisms) for m1 in into[b.src]}
    return FiniteCategory(list(objects.values()), morphisms,
                          [index[k] for k in identity_keys], table)


@dataclass
class IsoWitness:
    """A category isomorphism: bijections on objects and on morphisms."""
    object_map: list[int]
    morphism_map: list[int]


def category_isomorphic(A: FiniteCategory,
                        B: FiniteCategory) -> IsoWitness | None:
    """Search for an isomorphism of finite categories.

    Backtracks over object bijections (pruned by hom-set cardinalities),
    then over morphism bijections with forced closure under composition.
    Intended for desk-scale categories only.
    """
    most = max(len(A.objects), len(B.objects))
    if most > ISO_OBJECT_GUARD:
        raise CapExceededError(
            f"isomorphism search over {most} objects exceeds "
            f"ISO_OBJECT_GUARD={ISO_OBJECT_GUARD}")
    if (len(A.objects) != len(B.objects)
            or len(A.morphisms) != len(B.morphisms)):
        return None

    n = len(A.objects)

    def hom_signature(C: FiniteCategory, o: int):
        ins = sorted(len(C.hom(x, o)) for x in range(len(C.objects)))
        outs = sorted(len(C.hom(o, x)) for x in range(len(C.objects)))
        return tuple(ins), tuple(outs)

    sig_a = [hom_signature(A, o) for o in range(n)]
    sig_b = [hom_signature(B, o) for o in range(n)]

    obj_map: list[int] = [-1] * n
    used_obj = [False] * n

    def objects_ok(i: int, j: int) -> bool:
        if sig_a[i] != sig_b[j]:
            return False
        for x in range(n):
            if obj_map[x] < 0:
                continue
            if len(A.hom(i, x)) != len(B.hom(j, obj_map[x])):
                return False
            if len(A.hom(x, i)) != len(B.hom(obj_map[x], j)):
                return False
        return True

    def assign_objects(i: int):
        if i == n:
            got = _find_morphism_map(A, B, obj_map)
            if got is not None:
                yield got
            return
        for j in range(n):
            if used_obj[j] or not objects_ok(i, j):
                continue
            obj_map[i] = j
            used_obj[j] = True
            yield from assign_objects(i + 1)
            obj_map[i] = -1
            used_obj[j] = False

    for mmap in assign_objects(0):
        return IsoWitness(object_map=list(obj_map), morphism_map=mmap)
    return None


def _find_morphism_map(A: FiniteCategory, B: FiniteCategory,
                       obj_map: list[int]) -> list[int] | None:
    nm = len(A.morphisms)
    mmap = [-1] * nm
    used = [False] * nm
    # target candidates by (src, dst) under the object bijection
    comp_a: dict[int, list[tuple[int, int]]] = {m: [] for m in range(nm)}
    for (m2, m1), r in A.compose_table.items():
        comp_a[m2].append((m2, m1))
        comp_a[m1].append((m2, m1))

    def assign(m: int, target: int, trail: list[int]) -> bool:
        """Set mmap[m] = target and propagate forced compositions."""
        if mmap[m] >= 0:
            return mmap[m] == target
        if used[target]:
            return False
        ma, mb = A.morphisms[m], B.morphisms[target]
        if obj_map[ma.src] != mb.src or obj_map[ma.dst] != mb.dst:
            return False
        mmap[m] = target
        used[target] = True
        trail.append(m)
        for (m2, m1) in comp_a[m]:
            if mmap[m2] < 0 or mmap[m1] < 0:
                continue
            r = A.compose_table[(m2, m1)]
            rb = B.compose_table.get((mmap[m2], mmap[m1]))
            if rb is None:
                return False
            if not assign(r, rb, trail):
                return False
        return True

    def undo(trail: list[int], mark: int):
        while len(trail) > mark:
            m = trail.pop()
            used[mmap[m]] = False
            mmap[m] = -1

    trail: list[int] = []
    for o, i in enumerate(A.identity):
        if not assign(i, B.identity[obj_map[o]], trail):
            undo(trail, 0)
            return None

    def next_unassigned() -> int | None:
        best, best_count = None, None
        for m in range(nm):
            if mmap[m] >= 0:
                continue
            ma = A.morphisms[m]
            cands = sum(
                1 for t in B.hom(obj_map[ma.src], obj_map[ma.dst])
                if not used[t])
            if best_count is None or cands < best_count:
                best, best_count = m, cands
        return best

    def search() -> bool:
        m = next_unassigned()
        if m is None:
            return True
        ma = A.morphisms[m]
        for t in B.hom(obj_map[ma.src], obj_map[ma.dst]):
            if used[t]:
                continue
            mark = len(trail)
            if assign(m, t, trail) and search():
                return True
            undo(trail, mark)
        return False

    if search():
        return list(mmap)
    undo(trail, 0)
    return None
