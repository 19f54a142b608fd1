"""Small exact linear algebra over the rationals.

A matrix comes in two forms.  ``Mat`` is a tuple of row tuples of
Fraction (vectors are tuples): what callers pass in and get back.
``Form`` is ``(rows, den)``, integer rows N over the smallest positive
den with A = N / den; the smallest den makes the form canonical, so two
forms are equal exactly when their matrices are.  Products, sums and
eliminations run on integer rows, and each returned Fraction is built
once at the end; the ``Mat`` functions are adapters over them.

Row reduction gives ranks, kernels and canonical subspace bases --
idempotence and dimension bookkeeping downstream are asserted as
equalities, so no floating point is allowed here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import ValidationError

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
Form = tuple[tuple[tuple[int, ...], ...], int]


def as_mat(rows) -> Mat:
    out = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValidationError("ragged matrix")
    return out


def eye(n: int) -> Mat:
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def transpose(A: Mat) -> Mat:
    return tuple(zip(*A))


# -- integer rows ------------------------------------------------------------

def form(A: Mat) -> Form:
    """The canonical form of A: den is the lcm of the entry denominators,
    which no prime divides together with every entry of N."""
    ratios = [[x.as_integer_ratio() for x in row] for row in A]
    den = lcm(*(d for row in ratios for _, d in row))
    return tuple(tuple(n * (den // d) for n, d in row)
                 for row in ratios), den


def canonical(rows, den: int) -> Form:
    """The form of rows / den, for integer rows and den > 0."""
    g = gcd(den, *(x for row in rows for x in row))
    return tuple(tuple(x // g for x in row) for row in rows), den // g


def to_mat(rows, den: int) -> Mat:
    """rows / den, one Fraction per entry."""
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def int_mul(a, b) -> list[list[int]]:
    """The product of two integer matrices."""
    bt = tuple(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def form_mul(a: Form, b: Form) -> Form:
    return canonical(int_mul(a[0], b[0]), a[1] * b[1])


def form_sum(forms) -> Form:
    """The form of the sum of the forms' matrices."""
    den = lcm(*(d for _, d in forms))
    scales = [den // d for _, d in forms]
    return canonical([[sum(map(mul, scales, column)) for column in zip(*rows)]
                      for rows in zip(*(r for r, _ in forms))], den)


def _primitive(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def reduce_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan on integer rows.

    Row i becomes p * row_i - q * row_r, divided by the gcd of its
    entries, so the integers stay small.  Returns the rows, row k a
    multiple of the k-th row of the reduced echelon form, and the pivots.
    """
    rows = [_primitive(row) for row in rows]
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


def int_kernel_basis(rows) -> list[Vec]:
    """Canonical basis of the null space of non-empty integer rows, from
    the reduced echelon form; scaling a row leaves it unchanged."""
    reduced, pivots = reduce_rows(rows)
    ncols = len(reduced[0])
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = Fraction(-row[f], row[p])
        basis.append(tuple(v))
    return basis


# -- Fraction adapters -------------------------------------------------------

def mat_mul(A: Mat, B: Mat) -> Mat:
    if A and B and len(A[0]) != len(B):
        raise ValidationError("dimension mismatch in matrix product")
    a, da = form(A)
    b, db = form(B)
    return to_mat(int_mul(a, b), da * db)


def mat_vec(A: Mat, v: Vec) -> Vec:
    a, da = form(A)
    (x,), dx = form((v,))
    den = da * dx
    return tuple(Fraction(sum(map(mul, row, x)), den) for row in a)


def rref(A: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and pivot column indices; each pivot row
    is divided by its pivot once, and the rows past the rank are zero."""
    rows, pivots = reduce_rows(form(A)[0])
    out = [tuple(Fraction(x, row[c]) for x in row)
           for row, c in zip(rows, pivots)]
    out += [tuple(map(Fraction, row)) for row in rows[len(pivots):]]
    return tuple(out), pivots


def rank(A: Mat) -> int:
    return len(reduce_rows(form(A)[0])[1])


def kernel_basis(A: Mat) -> list[Vec]:
    """Canonical basis of the null space, from the reduced echelon form."""
    return int_kernel_basis(form(A)[0]) if A else []


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
