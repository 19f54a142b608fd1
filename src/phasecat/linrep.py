"""Finite groups acting linearly over exact rationals.

Fixed subspaces are computed from a subgroup's generators, as the kernel
of the stacked rho(s) - I; symmetry-breaking adjacencies carry relative
normal spaces ("order parameter" directions),
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


def _fixed_space(mats, dimension: int) -> list[Vec]:
    """Canonical basis of the vectors every matrix in ``mats`` fixes: the
    kernel of the stacked M - I, or of one zero row when there is none."""
    eye = ratmat.eye(dimension)
    stacked = tuple(row for M in mats for row in ratmat.mat_sub(M, eye))
    return ratmat.kernel_basis(stacked or ratmat.zeros(1, dimension))


def fix_subspace(action: LinearAction, H: Subgroup) -> list[Vec]:
    """Canonical basis of {v | rho(h) v = v for all h in H}, cut out by
    the generators of H alone."""
    return _fixed_space([action.matrix(s) for s in H.generator_indices],
                        action.dimension)


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
    and Fix(K) <= Fix(H0).  The complement is cut out of Fix(H0) by
    ker P_K, P_K the K-averaging projector, so it is canonical and
    K-stable where K acts.  ker P_K is the annihilator of the vectors that
    the transposes rho(s)^T fix, s running over the generators of K, and
    the restricted matrices come from one left inverse of the basis.
    """
    return _relative_normal(action, fix_subspace(action, H0), H0, H1,
                            witness)


def _relative_normal(action: LinearAction, fix0: list[Vec], H0: Subgroup,
                     H1: Subgroup, witness: int) -> RelativeNormal:
    """relative_normal, given the basis fix0 of Fix(H0)."""
    G = action.group
    # range check first: a negative witness would wrap around G.inverse
    K = H1.conjugate(G.inv(witness)) if 0 <= witness < G.order else None
    if K is None or not H0.member_set <= K.member_set:
        raise ValidationError(
            f"witness {witness} does not conjugate H0 into H1")
    d = action.dimension
    # K is generated by the conjugates of H1's generators
    gens = [G.conj(G.inv(witness), h) for h in H1.generator_indices]
    annihilator = _fixed_space(
        [ratmat.transpose(action.matrix(s)) for s in gens], d)
    basis = ratmat.intersect(fix0, tuple(annihilator))

    acting_members = tuple(sorted(
        K.member_set & transporter(G, H0, H0)))
    acting = Subgroup(G, acting_members)
    if not basis:
        return RelativeNormal(basis, acting, {k: () for k in acting.members})
    cols = ratmat.transpose(basis)
    # the basis is independent, so the first len(basis) rows of the
    # reduced [cols | I] read [I | left] with left * cols = I
    R, _ = ratmat.rref(tuple(c + e for c, e in zip(cols, ratmat.eye(d))))
    left = tuple(row[len(basis):] for row in R[:len(basis)])
    restricted: dict[int, Mat] = {}
    for k in acting.members:
        image = ratmat.mat_mul(action.matrix(k), cols)
        restricted[k] = ratmat.mat_mul(left, image)
        if ratmat.mat_mul(cols, restricted[k]) != image:
            raise ValidationError("inconsistent linear system")
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
        normal = _relative_normal(action, nodes[a].fix_basis,
                                  classes[a].representative,
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
