"""Finite groups acting linearly over exact rationals.

Fixed subspaces are computed by averaging projectors, symmetry-breaking
adjacencies carry relative normal spaces ("order parameter" directions),
and the whole bookkeeping is collected into the degeneracy quiver: one node
per subgroup class with its fixed-subspace dimension, one arrow per
subconjugacy covering relation with the dimension lost along it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ratmat
from .errors import ValidationError
from .permgroup import (FiniteGroup, Subgroup, SubgroupClass,
                        conjugacy_classes_of_subgroups, extend_generators,
                        subgroup_closure, transporter)
from .ratmat import Mat, Vec


class LinearAction:
    """A rational matrix representation of a FiniteGroup.

    One invertible matrix per generator; matrices for all elements are
    derived along the closure and checked against the group's relations.
    """

    def __init__(self, group: FiniteGroup, dimension: int,
                 generator_matrices):
        if dimension <= 0:
            raise ValidationError("dimension must be positive")
        self.group = group
        self.dimension = dimension
        mats = tuple(ratmat.as_mat(m) for m in generator_matrices)
        for k, m in enumerate(mats):
            if len(m) != dimension or (m and len(m[0]) != dimension):
                raise ValidationError(f"generator matrix {k} is not "
                                      f"{dimension}x{dimension}")
            if not ratmat.is_invertible(m):
                raise ValidationError(f"generator matrix {k} is singular")
        self.generator_matrices = mats
        self.element_matrices = extend_generators(
            group, mats, ratmat.mat_mul, ratmat.eye(dimension))

    def matrix(self, g: int) -> Mat:
        return self.element_matrices[g]


def averaging_projector(action: LinearAction, H: Subgroup) -> Mat:
    """P = (1/|H|) sum over h of rho(h); idempotent with image Fix(H)."""
    d = action.dimension
    total = ratmat.zeros(d, d)
    for h in H.members:
        total = ratmat.mat_add(total, action.matrix(h))
    return ratmat.mat_scale(Fraction(1, H.order), total)


def fix_subspace(action: LinearAction, H: Subgroup) -> list[Vec]:
    """Canonical basis of {v | rho(h) v = v for all h in H}."""
    P = averaging_projector(action, H)
    return ratmat.kernel_basis(ratmat.mat_sub(P, ratmat.eye(action.dimension)))


@dataclass
class RelativeNormal:
    """Complement of the higher fixed subspace inside the lower one.

    ``basis`` spans ker(P_K) intersected with Fix(H0), where K is the
    H1-conjugate containing H0; ``restricted`` maps each element of
    K meeting the normalizer of H0 (the part of the gained symmetry that
    acts on Fix(H0)) to its matrix in ``basis`` coordinates.
    """
    basis: list[Vec]
    acting_subgroup: Subgroup
    restricted: dict[int, Mat]

    @property
    def dimension(self) -> int:
        return len(self.basis)


def relative_normal(action: LinearAction, H0: Subgroup, H1: Subgroup,
                    witness: int) -> RelativeNormal:
    """Normal data of the adjacency H0 -> H1 along a transporter witness.

    Requires witness g with g H0 g^-1 <= H1; then K = g^-1 H1 g contains H0
    and Fix(K) <= Fix(H0).  The complement is cut out of Fix(H0) by the
    K-averaging projector, so it is canonical and K-stable where K acts.
    """
    G = action.group
    if witness not in transporter(G, H0, H1):
        raise ValidationError(
            f"witness {witness} does not conjugate H0 into H1")
    K = H1.conjugate(G.inv(witness))
    if not H0.member_set <= K.member_set:
        raise ValidationError("conjugated H1 does not contain H0")
    fix0 = fix_subspace(action, H0)
    PK = averaging_projector(action, K)
    basis = ratmat.intersect(fix0, PK)

    acting_members = tuple(sorted(
        K.member_set & transporter(G, H0, H0)))
    acting = Subgroup(G, acting_members)
    restricted: dict[int, Mat] = {}
    cols = ratmat.transpose(ratmat.as_mat(basis)) if basis else None
    for k in acting.members:
        if not basis:
            restricted[k] = ()
            continue
        images = [ratmat.mat_vec(action.matrix(k), b) for b in basis]
        coord_cols = [ratmat.solve(cols, img) for img in images]
        restricted[k] = ratmat.transpose(ratmat.as_mat(coord_cols))
    return RelativeNormal(basis, acting, restricted)


@dataclass
class QuiverNode:
    subgroup_class: SubgroupClass
    fix_dimension: int
    fix_basis: list[Vec]


@dataclass
class QuiverArrow:
    source: int
    target: int
    witness: int
    normal: RelativeNormal


@dataclass
class DegeneracyQuiver:
    nodes: list[QuiverNode]
    arrows: list[QuiverArrow]


def subconjugacy_covers(G: FiniteGroup,
                        classes: list[SubgroupClass]) -> list[tuple[int,
                                                                    int, int]]:
    """Covering relations of the subconjugacy order on classes, each with a
    minimal transporter witness."""
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


def degeneracy_quiver(action: LinearAction,
                      classes: list[SubgroupClass] | None = None
                      ) -> DegeneracyQuiver:
    """One node per subgroup class, one arrow per subconjugacy cover.

    Arrow dimension bookkeeping is exact:
    dim Fix(H0) = dim Fix(conjugated H1) + normal dimension.
    """
    G = action.group
    if classes is None:
        classes = conjugacy_classes_of_subgroups(G)
    nodes = []
    for c in classes:
        basis = fix_subspace(action, c.representative)
        nodes.append(QuiverNode(c, len(basis), basis))
    arrows = []
    for (a, b, g) in subconjugacy_covers(G, classes):
        normal = relative_normal(action, classes[a].representative,
                                 classes[b].representative, g)
        arrows.append(QuiverArrow(a, b, g, normal))
    return DegeneracyQuiver(nodes, arrows)


def _cyclotomic(n: int) -> list[Fraction]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial."""
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]  # x^n - 1
    for d in range(1, n):
        if n % d:
            continue
        poly = _polydiv(poly, _cyclotomic(d))
    return poly


def _polydiv(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    num = list(num)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        coeff = num[i + len(den) - 1] / den[-1]
        out[i] = coeff
        for j, d in enumerate(den):
            num[i + j] -= coeff * d
    if any(x != 0 for x in num[:len(den) - 1]):
        raise ValidationError("inexact polynomial division")
    return out


def isotypic_decomposition(action: LinearAction,
                           H: Subgroup) -> dict[int, list[Vec]]:
    """Rational isotypic pieces of a cyclic subgroup's action.

    The absolute slice of a node: for cyclic H = <h> of order m, the space
    splits as the kernels of the cyclotomic factors Phi_d(rho(h)), d | m.
    Only nontrivial pieces are returned.
    """
    gens = [h for h in H.members
            if subgroup_closure(action.group, (h,)) == H.member_set]
    if not gens:
        raise ValidationError("isotypic decomposition needs a cyclic "
                              "subgroup")
    M = action.matrix(min(gens))
    m = H.order
    out: dict[int, list[Vec]] = {}
    total = 0
    for d in range(1, m + 1):
        if m % d:
            continue
        coeffs = _cyclotomic(d)
        acc = ratmat.zeros(action.dimension, action.dimension)
        power = ratmat.eye(action.dimension)
        for c in coeffs:
            acc = ratmat.mat_add(acc, ratmat.mat_scale(c, power))
            power = ratmat.mat_mul(M, power)
        basis = ratmat.kernel_basis(acc)
        if basis:
            out[d] = basis
            total += len(basis)
    if total != action.dimension:
        raise ValidationError("isotypic pieces do not fill the space")
    return out
