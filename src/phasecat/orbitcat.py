"""The discretized orbit category of a finite permutation group.

Objects are conjugacy classes of subgroups; a morphism H0 -> H1 is a class
of transporter elements under left H1-multiplication, i.e. the coset datum
of an equivariant map G/H0 -> G/H1 (acting by x H0 |-> x g^-1 H1).  This
quotient reproduces Aut(H) = N(H)/H and matches the brute-force count of
equivariant maps between coset spaces, which is the ground truth the
category is meant to model.
"""

from __future__ import annotations

from itertools import count
from typing import NamedTuple

from .category import FiniteCategory
from .errors import ValidationError
from .permgroup import (FiniteGroup, Subgroup, SubgroupClass,
                        conjugacy_classes_of_subgroups, subconjugacy,
                        transporter)


class OrbitMorphism(NamedTuple):
    """A morphism of the orbit category, by canonical transporter coset rep.

    As a tuple it is also the morphism's key: ``category.find((c0, c1, g))``.
    """
    source_class: int
    target_class: int
    coset_rep: int


def transporter_coset_reps(G: FiniteGroup, H0: Subgroup,
                           H1: Subgroup) -> list[int]:
    """Canonical (minimal) representatives of the H1-cosets H1*g of the
    transporter of H0 into H1; one per equivariant map G/H0 -> G/H1."""
    canon = H1.right_coset_min
    return sorted({canon[g] for g in transporter(G, H0, H1)})


class OrbitCategory:
    """O_0(G) together with the class data used to build it.

    ``orbit_morphisms[m]`` is the data of morphism m of ``category``.
    """

    def __init__(self, G: FiniteGroup,
                 classes: list[SubgroupClass] | None = None):
        self.group = G
        self.classes = (classes if classes is not None
                        else conjugacy_classes_of_subgroups(G))
        if any(c.representative.parent is not G for c in self.classes):
            raise ValidationError("subgroup classes must be of the group")
        self.category = _build(G, self.classes)
        self.orbit_morphisms = [m.data for m in self.category.morphisms]

    def hom_set(self, c0: int, c1: int) -> list[OrbitMorphism]:
        return [self.orbit_morphisms[m] for m in self.category.hom(c0, c1)]

    def morphism_index(self, c0: int, c1: int, rep: int) -> int:
        """Index of the morphism c0 -> c1 whose coset contains element rep."""
        # a negative index would wrap around to the last class or element,
        # and one past the end raises IndexError
        try:
            canon = (self.classes[c1].representative.right_coset_min[rep]
                     if c1 >= 0 and rep >= 0 else None)
        except IndexError:
            canon = None
        m = self.category.find((c0, c1, canon))
        if m is None:
            raise ValidationError(
                f"element {rep} does not represent a morphism {c0} -> {c1}")
        return m

    def compose(self, m2: int, m1: int) -> int:
        return self.category.compose(m2, m1)


def _build(G: FiniteGroup, classes: list[SubgroupClass]):
    objects = {c: f"H{cls.class_index}|{cls.order}"
               for c, cls in enumerate(classes)}
    canon = [cls.representative.right_coset_min for cls in classes]
    morphisms = []
    # hom[c0][c1][g]: the index of the morphism c0 -> c1 whose coset holds
    # g, or None; blocks[c1]: the (c0, reps) of the morphisms into c1, in
    # index order
    hom: list[dict[int, list]] = [{} for _ in classes]
    blocks: list[list] = [[] for _ in classes]
    for c0, up in enumerate(subconjugacy(classes)):
        for c1 in up:
            reps = transporter_coset_reps(G, classes[c0].representative,
                                          classes[c1].representative)
            at = dict(zip(reps, count(len(morphisms))))
            hom[c0][c1] = list(map(at.get, canon[c1]))
            blocks[c1].append((c0, reps))
            morphisms.extend((c0, c1, f"g{g}:{c0}->{c1}",
                              OrbitMorphism(c0, c1, g)) for g in reps)

    def fill(cat) -> list[list[int]]:
        # (c1, c2, g2) o (c0, c1, g1) = (c0, c2, canon[c2][g2 g1])
        columns = []
        for c1, c2, g2 in (b.data for b in cat.morphisms):
            product = G.table[g2].__getitem__
            column: list[int] = []
            for c0, reps in blocks[c1]:
                column += map(hom[c0][c2].__getitem__, map(product, reps))
            columns.append(column)
        return columns

    return FiniteCategory(
        objects, morphisms,
        [(c, c, canon[c][G.identity_index]) for c in range(len(classes))],
        fill)


def build_orbit_category(G: FiniteGroup,
                         classes: list[SubgroupClass] | None = None
                         ) -> OrbitCategory:
    """O_0(G): subgroup classes as objects, transporter cosets as arrows."""
    return OrbitCategory(G, classes)
