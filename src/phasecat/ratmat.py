"""Small exact linear algebra over the rationals.

Matrices are tuples of row tuples of Fraction; vectors are tuples.  Enough
row reduction to get ranks, kernels and canonical subspace bases --
idempotence and dimension bookkeeping downstream are asserted as
equalities, so no floating point is allowed here.

Products and eliminations run on integer rows: a matrix is scaled by the
common denominator of its entries once, and each returned entry is built
as one Fraction at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

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


def _int_rows(A: Mat) -> tuple[list[list[int]], int]:
    """Integer rows N and the common denominator den with A = N / den."""
    ratios = [[x.as_integer_ratio() for x in row] for row in A]
    den = lcm(*(d for row in ratios for _, d in row))
    return [[n * (den // d) for n, d in row] for row in ratios], den


def _combine(A: Mat, B: Mat, sign: int) -> Mat:
    """A + sign * B on integer rows over the common denominator."""
    a, da = _int_rows(A)
    b, db = _int_rows(B)
    den = lcm(da, db)
    sa, sb = den // da, sign * (den // db)
    return tuple(tuple(Fraction(sa * x + sb * y, den) for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def mat_add(A: Mat, B: Mat) -> Mat:
    return _combine(A, B, 1)


def mat_sub(A: Mat, B: Mat) -> Mat:
    return _combine(A, B, -1)


def mat_scale(c, A: Mat) -> Mat:
    c = Fraction(c)
    return tuple(tuple(c * a for a in row) for row in A)


def mat_mul(A: Mat, B: Mat) -> Mat:
    if A and B and len(A[0]) != len(B):
        raise ValidationError("dimension mismatch in matrix product")
    a, da = _int_rows(A)
    b, db = _int_rows(B)
    den = da * db
    bt = tuple(zip(*b))
    return tuple(tuple(Fraction(sum(map(mul, row, col)), den)
                       for col in bt) for row in a)


def mat_vec(A: Mat, v: Vec) -> Vec:
    a, da = _int_rows(A)
    (x,), dx = _int_rows((v,))
    den = da * dx
    return tuple(Fraction(sum(map(mul, row, x)), den) for row in a)


def transpose(A: Mat) -> Mat:
    return tuple(zip(*A))


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _reduce(A: Mat) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan on the integer rows of A.

    Row i becomes p * row_i - q * row_r, divided by the gcd of its
    entries, so the integers stay small.  Returns the rows, row k a
    multiple of the k-th row of the reduced echelon form, and the pivots.
    """
    rows = [_primitive(row) for row in _int_rows(A)[0]]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                g = gcd(top[c], rows[i][c])
                p, q = top[c] // g, rows[i][c] // g
                rows[i] = _primitive([p * x - q * y
                                      for x, y in zip(rows[i], top)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref(A: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot column indices; each pivot row
    is divided by its pivot once, and the rows past the rank are zero."""
    rows, pivots = _reduce(A)
    out = [tuple(Fraction(x, row[c]) for x in row)
           for row, c in zip(rows, pivots)]
    out += [tuple(map(Fraction, row)) for row in rows[len(pivots):]]
    return tuple(out), pivots


def rank(A: Mat) -> int:
    return len(_reduce(A)[1])


def kernel_basis(A: Mat) -> list[Vec]:
    """Canonical basis of the null space, from the reduced echelon form."""
    if not A:
        return []
    rows, pivots = _reduce(A)
    ncols = len(A[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = Fraction(-row[f], row[p])
        basis.append(tuple(v))
    return basis


def is_invertible(A: Mat) -> bool:
    return len(A) == len(A[0]) and rank(A) == len(A)


def intersect(basis_a: list[Vec], constraint: Mat) -> list[Vec]:
    """Basis of {v in span(basis_a) | constraint @ v = 0}, expressed as
    ambient vectors."""
    if not basis_a:
        return []
    if not constraint:
        return list(as_mat(basis_a))
    cols = transpose(as_mat(basis_a))
    reduced = mat_mul(constraint, cols)
    out = []
    for c in kernel_basis(reduced):
        out.append(mat_vec(cols, c))
    return out
