"""Finite categories whose composition table is stored as columns.

This is the shared output shape for the orbit category, the phase diagram,
stratified-set diagrams and imported ologs.  Each is built from objects
named by key and morphisms named by their distinct ``data``, and the one
constructor indexes both: ``object_of`` maps a key to its object,
``find`` a datum to its morphism, and ``hom`` reads a stored hom-set.
The columns are filled by morphism index.  The table is the data, in one
form: ``columns[m2]`` holds m2 o m1 for each m1 into the source of m2,
ascending, so every walk over composable pairs costs the number of pairs,
not M^2.  The constructor checks each entry's place and endpoints; the
law check then tests the units entry by entry, and associativity only for
middles drawn from a generating set (Light's test), which implies it for
every middle."""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Hashable, Iterable, Mapping
from itertools import compress, count
from operator import itemgetter, ne
from typing import Any

from .errors import CapExceededError, Frozen, ValidationError

#: category_isomorphic refuses categories with more objects than this.
ISO_OBJECT_GUARD = 64


class Morphism(Frozen):
    __slots__ = _fields = ("src", "dst", "label", "data")

    def __init__(self, src: Hashable, dst: Hashable, label: str,
                 data: Any = None):
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "data", data)


class FiniteCategory:
    """Objects, morphisms, identities and a total composition table:
    ``columns[m2][k]`` is m2 o ``into[src m2][k]``, and
    ``position[m1]`` is m1's place in ``into[dst m1]``.

    The category on the keys of ``objects``, labelled by its values, with
    one morphism per ``(src, dst, label, data)`` record of ``morphisms``:
    src and dst are object keys, and the data are distinct.
    ``identity_keys[o]`` names object o's identity.  ``object_of`` maps
    each key to its object and ``morphism_of`` each datum to its morphism.

    ``fill(cat)`` returns the composition table by index: column b holds
    b o m1 for each m1 of ``cat.into[cat.morphisms[b].src]``.  It is
    called once the objects, morphisms, identities and incidence lists
    are in place.
    """

    def __init__(self, objects: Mapping[Hashable, str],
                 morphisms: Iterable[tuple], identity_keys: Iterable,
                 fill: Callable[[FiniteCategory], Iterable[Iterable[int]]]):
        self.object_of = at = {key: o for o, key in enumerate(objects)}
        self.objects = list(objects.values())
        self.morphisms = [Morphism(at[s], at[d], label, data)
                          for s, d, label, data in morphisms]
        self.morphism_of = dict(zip((m.data for m in self.morphisms),
                                    count()))
        if len(self.morphism_of) != len(self.morphisms):
            raise ValidationError("morphism data must be distinct")
        self.into, self.outgoing, self.position, self._hom_sets = _incidence(
            len(self.objects), self.morphisms)
        self.identity = list(map(self.morphism_of.__getitem__, identity_keys))
        self.columns = list(map(tuple, fill(self)))
        self._validate()
        #: the columns read as a mapping ``(m2, m1) -> m2 o m1``
        self.compose_table: Mapping[tuple[int, int], int] = _ColumnTable(self)

    def _validate(self):
        if len(self.identity) != len(self.objects):
            raise ValidationError("one identity required per object")
        for o, i in enumerate(self.identity):
            m = self.morphisms[i]
            if m.src != o or m.dst != o:
                raise ValidationError(f"identity of object {o} has "
                                      f"endpoints ({m.src},{m.dst})")
        columns = self.columns
        src = [m.src for m in self.morphisms]
        dst = [m.dst for m in self.morphisms]
        if len(columns) != len(src) or any(
                len(c) > len(self.into[x]) for c, x in zip(columns, src)):
            raise ValidationError("one composition column required per "
                                  "morphism, no longer than its pairs")
        # over m1, then m2: the brute-force law check's order
        for m1, k in enumerate(self.position):
            for m2 in self.outgoing[dst[m1]]:
                r = columns[m2][k] if k < len(columns[m2]) else None
                if r is None:
                    raise ValidationError(f"missing composition ({m2},{m1})")
                if not (type(r) is int and 0 <= r < len(src)
                        and src[r] == src[m1] and dst[r] == dst[m2]):
                    raise ValidationError(f"composition table entry "
                                          f"({m2},{m1})->{r!r} mismatched")

    def find(self, data) -> int | None:
        """The index of the morphism carrying ``data``, or None."""
        return self.morphism_of.get(data)

    def hom(self, src: int, dst: int) -> list[int]:
        return list(self._hom_sets.get((src, dst), ()))

    def compose(self, m2: int, m1: int) -> int:
        # a negative index would wrap around to the last morphism, and one
        # past the end raises IndexError
        try:
            if (m2 >= 0 and m1 >= 0
                    and self.morphisms[m1].dst == self.morphisms[m2].src):
                return self.columns[m2][self.position[m1]]
        except IndexError:
            pass
        raise ValidationError(f"morphisms {m2} and {m1} not composable")

    def aut_order(self, obj: int) -> int:
        return len(self._hom_sets.get((obj, obj), ()))

    def check_category_laws(self):
        """Verify the units and associativity of the total table, exactly.

        Each morphism m: x -> y has its left-composition column, the
        composites m o m1 over every m1 into x, and associativity for a
        middle m2 over all its m1 and m3 is one gather over the columns
        (``_failures``).  The gathers run only for m2 in a generating set
        (Light's associativity test; Clifford & Preston, *The Algebraic
        Theory of Semigroups* I, 1.2).  That is exact once the table is
        total with valid endpoints and the units hold.

        Call b *good* when (c o b) o a = c o (b o a) for every a into the
        source of b and every c out of its target.  An identity is good,
        since both sides are c o a.  If b and b' are good and b' o b is
        defined, then for every a into the source of b and every c out of
        the target of b'

            (c o (b' o b)) o a = ((c o b') o b) o a     b' good, inner b
                               = (c o b') o (b o a)     b good
                               = c o (b' o (b o a))     b' good
                               = c o ((b' o b) o a)     b good, outer b'

        so b' o b is good.  The good morphisms thus contain the closure
        of the identities and the generators under composition, which is
        every morphism.  Only when a generator fails do the gathers run
        over every middle, to name the first failing triple.
        """
        for m, mor in enumerate(self.morphisms):
            if self.compose(m, self.identity[mor.src]) != m:
                raise ValidationError(f"right unit fails at {m}")
            if self.compose(self.identity[mor.dst], m) != m:
                raise ValidationError(f"left unit fails at {m}")
        if next(self._failures(self._generators()), None) is not None:
            # the least (m1, m2, m3) is the first in a scan over m1, then
            # m2, then m3 in index order
            m1, m2, m3 = min(self._failures(range(len(self.morphisms))))
            raise ValidationError(f"associativity fails on ({m3},{m2},{m1})")
        return True

    def _generators(self) -> list[int]:
        """The morphisms, in index order, that the composition closure of
        the identities and the ones picked before does not reach.

        The closure is every word g o ... o g' o identity, grown by a
        search that composes each newly reached morphism after the
        picked generators out of its target, read from their columns."""
        morphisms, columns = self.morphisms, self.columns
        reached = [False] * len(morphisms)
        for e in self.identity:
            reached[e] = True
        # the columns of the generators picked so far, by source
        picked_from: list[list[tuple]] = [[] for _ in self.into]
        generators = []
        for g, mor in enumerate(morphisms):
            if reached[g]:
                continue
            generators.append(g)
            picked_from[mor.src].append(columns[g])
            # g after every morphism reached so far, g itself included
            stack = list(compress(columns[g], map(reached.__getitem__,
                                                  self.into[mor.src])))
            while stack:
                y = stack.pop()
                if not reached[y]:
                    reached[y] = True
                    stack.extend(map(itemgetter(self.position[y]),
                                     picked_from[morphisms[y].dst]))
        return generators

    def _failures(self, middles):
        """For each m2 of ``middles`` and each m3 out of its target, the
        least m1 into its source with (m3 o m2) o m1 != m3 o (m2 o m1),
        as (m1, m2, m3).

        For one m2 all its triples are one gather: m3's column read at
        the positions of m2's column must equal the column of m3 o m2."""
        columns, position = self.columns, self.position
        for m2 in middles:
            at = [position[r] for r in columns[m2]]
            # itemgetter of one index returns an item, not a 1-tuple
            gather = (itemgetter(*at) if len(at) > 1
                      else lambda col, k=at[0]: (col[k],))
            b = self.morphisms[m2]
            m3s = self.outgoing[b.dst]
            cols3 = list(map(columns.__getitem__, m3s))
            left = list(map(gather, cols3))
            right = list(map(columns.__getitem__,
                             map(itemgetter(position[m2]), cols3)))
            if left == right:
                continue
            m1s = self.into[b.src]
            for m3, got, want in zip(m3s, left, right):
                if got != want:
                    k = next(k for k, pair in enumerate(zip(got, want))
                             if pair[0] != pair[1])
                    yield m1s[k], m2, m3


class _ColumnTable(Mapping):
    """``compose_table``: the columns read as a mapping, iterated in
    ascending (m2, m1); it stores nothing but the entry count."""

    def __init__(self, cat: FiniteCategory):
        self._cat = cat
        self._len = sum(map(len, cat.columns))

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, pair: tuple[int, int]) -> int:
        (m2, m1), mors = pair, self._cat.morphisms
        if (0 <= min(pair) <= max(pair) < len(mors)
                and mors[m1].dst == mors[m2].src):
            return self._cat.columns[m2][self._cat.position[m1]]
        raise KeyError(pair)

    def __iter__(self):
        cat = self._cat
        return ((m2, m1) for m2, b in enumerate(cat.morphisms)
                for m1 in cat.into[b.src])


def _incidence(n_objects: int, morphisms: list[Morphism]):
    """``into[x]`` and ``outgoing[x]``, the morphisms into and out of each
    object x in ascending order, ``position[m]``, m's place in
    ``into[dst m]``, and the hom-sets, ascending, keyed by
    ``(src, dst)``."""
    into: list[list[int]] = [[] for _ in range(n_objects)]
    outgoing: list[list[int]] = [[] for _ in range(n_objects)]
    position = []
    hom_sets: dict[tuple[int, int], list[int]] = defaultdict(list)
    for m, mor in enumerate(morphisms):
        position.append(len(into[mor.dst]))
        into[mor.dst].append(m)
        outgoing[mor.src].append(m)
        hom_sets[mor.src, mor.dst].append(m)
    return into, outgoing, position, hom_sets


class IsoWitness:
    """A category isomorphism: bijections on objects and on morphisms."""
    __slots__ = ("object_map", "morphism_map")

    def __init__(self, object_map: list[int], morphism_map: list[int]):
        self.object_map = object_map
        self.morphism_map = morphism_map


def category_isomorphic(A: FiniteCategory,
                        B: FiniteCategory) -> IsoWitness | None:
    """Search for an isomorphism of finite categories.

    One backtracking search takes A's objects in index order.  Object i
    goes, with its identity, to an unused object of B with the same
    signature (endomorphism, idempotent and unfixed-by-identity counts,
    sorted in- and out-hom-set sizes; the multisets must agree) and
    hom-set sizes to and from every object placed before it.  Then the generators of A's law check
    (``_generators``, Light's test) whose later endpoint is i branch over
    the unused morphisms of B's hom-set between their endpoints' images.
    Placing a morphism places every composite of two placed parts.  That
    is exact: a conflict in a partial map is one in every extension, and
    every morphism is a generator after one reached before it, so
    placing the identities and generators places every morphism and
    checks each composable pair.  Exponential in the worst case (it
    decides graph isomorphism): a conflict that shows only at a late
    object recurs for every placement of the objects before it.
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
    # size[x][y] = |hom(x, y)|, and each object's signature
    size_a, size_b = ([[len(C._hom_sets.get((x, y), ())) for y in range(n)]
                       for x in range(n)] for C in (A, B))
    sig_a, sig_b = ([(size[x][x], _endomorphism_counts(C, x),
                      sorted(col), sorted(row))
                     for x, (row, col) in enumerate(zip(size, zip(*size)))]
                    for C, size in ((A, size_a), (B, size_b)))
    if sorted(sig_a) != sorted(sig_b):
        return None
    # each object's identity, then the generators whose later endpoint it is
    steps = sorted(A.identity + A._generators(), key=lambda m: (
        max(A.morphisms[m].src, A.morphisms[m].dst),
        A.identity[A.morphisms[m].src] != m))
    mmap = [-1] * len(A.morphisms)
    used = [False] * len(B.morphisms)
    trail: list[int] = []

    def image(x: int) -> int:
        """Where placed object x went: its identity's endpoint."""
        return B.morphisms[mmap[A.identity[x]]].src

    def targets(m: int) -> list[int]:
        a = A.morphisms[m]
        if m != A.identity[a.src]:
            return [t for t in B._hom_sets.get((image(a.src), image(a.dst)),
                                               ()) if not used[t]]
        i, placed = a.src, list(map(image, range(a.src)))
        # B's object j is placed exactly when its identity is
        return [B.identity[j] for j in range(n)
                if not used[B.identity[j]] and sig_a[i] == sig_b[j]
                and all(size_a[i][x] == size_b[j][y]
                        and size_a[x][i] == size_b[y][j]
                        for x, y in enumerate(placed))]

    def assign(m: int, target: int) -> bool:
        """Set mmap[m] = target and every composite that forces."""
        todo = [(m, target)]
        while todo:
            m, t = todo.pop()
            if mmap[m] == t:
                continue
            if mmap[m] >= 0 or used[t]:
                return False
            mmap[m] = t
            used[t] = True
            trail.append(m)
            # mmap keeps endpoints, so each image pair is composable
            a, col_b = A.morphisms[m], B.columns[t]
            k, kb = A.position[m], B.position[t]
            todo.extend((r, col_b[B.position[mmap[m1]]])
                        for m1, r in zip(A.into[a.src], A.columns[m])
                        if mmap[m1] >= 0)
            todo.extend((A.columns[m2][k], B.columns[mmap[m2]][kb])
                        for m2 in A.outgoing[a.dst] if mmap[m2] >= 0)
        return True

    def undo(mark: int):
        while len(trail) > mark:
            used[mmap[trail[-1]]] = False
            mmap[trail.pop()] = -1

    def unplaced(s: int) -> int:
        """The first step from s on that is not placed yet: a generator
        placed by propagation does not branch."""
        while s < len(steps) and mmap[steps[s]] >= 0:
            s += 1
        return s

    def search() -> bool:
        """Depth first over the steps, on a stack of (step, targets left
        to try, trail mark) rather than one call per step, so a thousand
        generators do not exhaust the recursion limit."""
        stack = []
        s = unplaced(0)
        while s < len(steps):
            stack.append((s, iter(targets(steps[s])), len(trail)))
            while True:
                if not stack:
                    return False
                s, left, mark = stack[-1]
                undo(mark)
                t = next(left, None)
                if t is None:
                    stack.pop()
                elif assign(steps[s], t):
                    break
            s = unplaced(s + 1)
        return True

    if search():
        return IsoWitness(object_map=list(map(image, range(n))),
                          morphism_map=mmap)
    return None


def _endomorphism_counts(C: FiniteCategory, x: int) -> tuple[int, int]:
    """Counts at object x that an isomorphism keeps: its idempotents
    (e o e = e), and the morphisms into or out of x that its identity
    does not fix, which only a table breaking a unit law has."""
    e = C.identity[x]
    return (sum(C.columns[m][C.position[m]] == m
                for m in C._hom_sets.get((x, x), ())),
            sum(map(ne, C.columns[e], C.into[x]))
            + sum(C.columns[m][C.position[e]] != m for m in C.outgoing[x]))
