"""Finite groups acting linearly over exact rationals.

Fixed subspaces are computed from a subgroup's generators, as the kernel
of the stacked rho(s) - I; symmetry-breaking adjacencies carry relative
normal spaces ("order parameter" directions),
and the whole bookkeeping is collected into the degeneracy quiver: one node
per subgroup class with its fixed-subspace dimension, one arrow per
subconjugacy covering relation with the dimension lost along it.
"""

from __future__ import annotations

from . import ratmat
from .errors import CapExceededError, ValidationError
from .permgroup import (FiniteGroup, Subgroup, SubgroupClass,
                        conjugacy_classes_of_subgroups, extend_generators,
                        subconjugacy, subgroup_closure, transporter)
from .ratmat import Form, Mat, Vec

#: Hard cap on the dimension of a representation, checked before any
#: matrix is built.  At the cap, the matrices of all 1024 elements of
#: C2^10 (ten generators, so ten products per element) build in about
#: 16 s at under 40 MiB; time grows as the cube of the dimension.
DIMENSION_CAP = 32


class LinearAction:
    """A rational matrix representation of a FiniteGroup.

    One invertible matrix per generator; the canonical integer form
    (``ratmat.Form``) of every element is derived along the closure and
    checked against the group's relations.  An element's Fraction matrix
    is built on first use.
    """

    def __init__(self, group: FiniteGroup, dimension: int,
                 generator_matrices):
        if dimension <= 0:
            raise ValidationError("dimension must be positive")
        if dimension > DIMENSION_CAP:
            raise CapExceededError(f"dimension {dimension} exceeds "
                                   f"DIMENSION_CAP={DIMENSION_CAP}")
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
        self.forms: tuple[Form, ...] = extend_generators(
            group, [ratmat.form(m) for m in mats], ratmat.form_mul,
            ratmat.form(ratmat.eye(dimension)))
        self._matrices: list[Mat | None] = [None] * group.order

    def matrix(self, g: int) -> Mat:
        m = self._matrices[g]
        if m is None:
            m = self._matrices[g] = ratmat.to_mat(*self.forms[g])
        return m


def averaging_projector(action: LinearAction, H: Subgroup) -> Mat:
    """P = (1/|H|) sum over h of rho(h); idempotent with image Fix(H)."""
    rows, den = ratmat.form_sum([action.forms[h] for h in H.members])
    return ratmat.to_mat(rows, den * H.order)


def _fixed_space(forms, dimension: int, constraints=()) -> Form:
    """The form of the canonical basis of the vectors every N / den in
    ``forms`` fixes and every integer row of ``constraints`` annihilates:
    the kernel of the stacked N - den I and constraint rows, or of one
    zero row when there is none."""
    stacked = [[x - den if i == j else x for j, x in enumerate(row)]
               for rows, den in forms for i, row in enumerate(rows)]
    stacked += constraints
    return ratmat.kernel(stacked or [[0] * dimension])


def fix_subspace(action: LinearAction, H: Subgroup) -> list[Vec]:
    """Canonical basis of {v | rho(h) v = v for all h in H}, cut out by
    the generators of H alone."""
    return list(ratmat.to_mat(*_fixed_space(
        [action.forms[s] for s in H.generator_indices], action.dimension)))


class RelativeNormal:
    """Complement of the higher fixed subspace inside the lower one.

    ``basis`` spans ker(P_K) intersected with Fix(H0), where K is the
    H1-conjugate containing H0; ``restricted`` maps each element of
    K that normalizes H0 (the part of the gained symmetry that acts on
    Fix(H0)) to its matrix in ``basis`` coordinates.
    """
    __slots__ = ("basis", "acting_subgroup", "restricted")

    def __init__(self, basis: list[Vec], acting_subgroup: Subgroup,
                 restricted: dict[int, Mat]):
        self.basis = basis
        self.acting_subgroup = acting_subgroup
        self.restricted = restricted

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
    the transposes rho(s)^T fix, s running over the generators of K (kept
    as integer rows), so the basis is one kernel: of H0's generator rows
    stacked with the annihilator rows.  That basis is the identity on the
    kernel's free columns, so each restricted matrix is the image of the
    basis read at those columns.

    The acting elements are the k in K that conjugate each generator of
    H0 into H0: conjugation by k is a homomorphism, so k H0 k^-1 <= H0,
    and H0 is finite, so k H0 k^-1 = H0 and k normalizes H0.
    """
    G = action.group
    # range check first: a negative witness would wrap around G.inverse
    K = H1.conjugate(G.inv(witness)) if 0 <= witness < G.order else None
    if K is None or not H0.member_set <= K.member_set:
        raise ValidationError(
            f"witness {witness} does not conjugate H0 into H1")
    d = action.dimension
    # K is generated by the conjugates of H1's generators
    gens = [G.conj(G.inv(witness), h) for h in H1.generator_indices]
    transposes = [(ratmat.transpose(N), den)
                  for N, den in (action.forms[s] for s in gens)]
    annihilator, _ = _fixed_space(transposes, d)
    rows, dc = _fixed_space([action.forms[s] for s in H0.generator_indices],
                            d, annihilator)
    basis = list(ratmat.to_mat(rows, dc))

    h0 = H0.member_set
    acting = Subgroup(G, tuple(
        k for k in K.members
        if all(G.conj(k, h) in h0 for h in H0.generator_indices)))
    if not basis:
        return RelativeNormal(basis, acting, {k: () for k in acting.members})
    cols = ratmat.transpose(rows)
    # basis vector k is 1 at its free column, its last nonzero entry
    free = [max(j for j, x in enumerate(row) if x) for row in rows]
    restricted: dict[int, Mat] = {}
    for k in acting.members:
        N, den = action.forms[k]
        # rho(k) cols = image / (den dc), restricted[k] = r / (den dc)
        image = ratmat.int_mul(N, cols)
        r = [image[f] for f in free]
        if ratmat.int_mul(cols, r) != [[dc * x for x in row]
                                       for row in image]:
            raise ValidationError("inconsistent linear system")
        restricted[k] = ratmat.to_mat(r, den * dc)
    return RelativeNormal(basis, acting, restricted)


class QuiverNode:
    __slots__ = ("subgroup_class", "fix_dimension", "fix_basis")

    def __init__(self, subgroup_class: SubgroupClass, fix_dimension: int,
                 fix_basis: list[Vec]):
        self.subgroup_class = subgroup_class
        self.fix_dimension = fix_dimension
        self.fix_basis = fix_basis


class QuiverArrow:
    __slots__ = ("source", "target", "witness", "normal")

    def __init__(self, source: int, target: int, witness: int,
                 normal: RelativeNormal):
        self.source = source
        self.target = target
        self.witness = witness
        self.normal = normal


class DegeneracyQuiver:
    __slots__ = ("nodes", "arrows")

    def __init__(self, nodes: list[QuiverNode], arrows: list[QuiverArrow]):
        self.nodes = nodes
        self.arrows = arrows


def subconjugacy_covers(G: FiniteGroup,
                        classes: list[SubgroupClass]) -> list[tuple[int,
                                                                    int, int]]:
    """Covering relations of the subconjugacy order on classes, each with a
    minimal transporter witness.  Class b covers a when it is strictly
    above a and above no other class strictly above a."""
    above = [set(up) - {a} for a, up in enumerate(subconjugacy(classes))]
    covers = []
    for a, up in enumerate(above):
        for b in sorted(up.difference(*(above[c] for c in up))):
            witness = min(transporter(G, classes[a].representative,
                                      classes[b].representative))
            covers.append((a, b, witness))
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
    if any(c.representative.parent is not G for c in classes):
        raise ValidationError("subgroup classes must be of the action's "
                              "group")
    nodes = []
    for c in classes:
        basis = fix_subspace(action, c.representative)
        nodes.append(QuiverNode(c, len(basis), basis))
    arrows = [QuiverArrow(a, b, g, relative_normal(
        action, classes[a].representative, classes[b].representative, g))
        for (a, b, g) in subconjugacy_covers(G, classes)]
    return DegeneracyQuiver(nodes, arrows)


def _cyclotomic(n: int) -> list[int]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d:
            continue
        poly = _polydiv(poly, _cyclotomic(d))
    return poly


def _polydiv(num: list[int], den: list[int]) -> list[int]:
    """num / den for a monic integer den that divides num exactly."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        coeff = out[i] = num[i + len(den) - 1]
        for j, d in enumerate(den):
            num[i + j] -= coeff * d
    if any(num[:len(den) - 1]):
        raise ValidationError("inexact polynomial division")
    return out


def isotypic_decomposition(action: LinearAction,
                           H: Subgroup) -> dict[int, list[Vec]]:
    """Rational isotypic pieces of a cyclic subgroup's action.

    The absolute slice of a node: for cyclic H = <h> of order m, the space
    splits as the kernels of the cyclotomic factors Phi_d(rho(h)), d | m.
    With rho(h) = N / den, Horner's rule on integer rows gives
    den^deg(Phi_d) Phi_d(rho(h)), which has the same kernel.
    Only nontrivial pieces are returned.
    """
    # the least generator: members are ascending
    h = next((h for h in H.members
              if subgroup_closure(action.group, (h,)) == H.member_set), None)
    if h is None:
        raise ValidationError("isotypic decomposition needs a cyclic "
                              "subgroup")
    N, den = action.forms[h]
    m = H.order
    out: dict[int, list[Vec]] = {}
    total = 0
    for d in range(1, m + 1):
        if m % d:
            continue
        *coeffs, top = _cyclotomic(d)
        acc = [[top if i == j else 0 for j in range(action.dimension)]
               for i in range(action.dimension)]
        scale = 1
        for c in reversed(coeffs):
            scale *= den
            acc = ratmat.int_mul(acc, N)
            for i, row in enumerate(acc):
                row[i] += c * scale
        basis = list(ratmat.to_mat(*ratmat.kernel(acc)))
        if basis:
            out[d] = basis
            total += len(basis)
    if total != action.dimension:
        raise ValidationError("isotypic pieces do not fill the space")
    return out
