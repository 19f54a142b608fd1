"""Small exact linear algebra over the rationals.

Matrices are tuples of row tuples of Fraction; vectors are tuples.  Enough
row reduction to get ranks, kernels, canonical subspace bases and exact
solves -- idempotence and dimension bookkeeping downstream are asserted as
equalities, so no floating point is allowed here.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def as_mat(rows) -> Mat:
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValidationError("ragged matrix")
    return out


def zeros(n: int, m: int) -> Mat:
    return tuple(tuple(Fraction(0) for _ in range(m)) for _ in range(n))


def eye(n: int) -> Mat:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def mat_add(A: Mat, B: Mat) -> Mat:
    return tuple(tuple(a + b for a, b in zip(ra, rb))
                 for ra, rb in zip(A, B))


def mat_sub(A: Mat, B: Mat) -> Mat:
    return tuple(tuple(a - b for a, b in zip(ra, rb))
                 for ra, rb in zip(A, B))


def mat_scale(c, A: Mat) -> Mat:
    c = Fraction(c)
    return tuple(tuple(c * a for a in row) for row in A)


def mat_mul(A: Mat, B: Mat) -> Mat:
    if A and B and len(A[0]) != len(B):
        raise ValidationError("dimension mismatch in matrix product")
    bt = tuple(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, col))
                       for col in bt) for row in A)


def mat_vec(A: Mat, v: Vec) -> Vec:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def transpose(A: Mat) -> Mat:
    return tuple(zip(*A))


def rref(A: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    rows = [list(r) for r in A]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots: list[int] = []
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


def rank(A: Mat) -> int:
    return len(rref(A)[1])


def kernel_basis(A: Mat) -> list[Vec]:
    """Canonical basis of the null space, from the reduced echelon form."""
    if not A:
        return []
    R, pivots = rref(A)
    ncols = len(A[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -R[r][f]
        basis.append(tuple(v))
    return basis


def is_invertible(A: Mat) -> bool:
    return len(A) == len(A[0]) and rank(A) == len(A)


def solve(A: Mat, b: Vec) -> Vec:
    """One exact solution of A x = b; raises if inconsistent."""
    ncols = len(A[0])
    aug = tuple(row + (bb,) for row, bb in zip(A, b))
    R, pivots = rref(aug)
    if ncols in pivots:
        raise ValidationError("inconsistent linear system")
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = R[r][ncols]
    return tuple(x)


def coordinates(basis: list[Vec], v: Vec) -> Vec:
    """Coordinates of v in the span of ``basis``; raises if outside."""
    A = transpose(as_mat(basis)) if basis else zeros(len(v), 0)
    return solve(A, v)


def intersect(basis_a: list[Vec], constraint: Mat) -> list[Vec]:
    """Basis of {v in span(basis_a) | constraint @ v = 0}, expressed as
    ambient vectors."""
    if not basis_a:
        return []
    cols = transpose(as_mat(basis_a))
    reduced = mat_mul(constraint, cols)
    out = []
    for c in kernel_basis(reduced):
        out.append(mat_vec(cols, c))
    return out
