"""Small exact linear algebra over the rationals.

A matrix comes in two forms.  ``Mat`` is a tuple of row tuples of
Fraction (vectors are tuples): what callers pass in and get back.
``Form`` is ``(rows, den)``, integer rows N over the smallest positive
den with A = N / den; the smallest den makes the form canonical, so two
forms are equal exactly when their matrices are.  Products, sums and
eliminations run on integer rows; ``form`` and ``to_mat`` cross between
the two forms, and each returned Fraction is built once at the end.

``echelon`` is the package's one fraction-free elimination, on sparse
integer rows keyed by column.  The Milnor elimination of ``singularity``
extends its kept rows once per total degree; Gauss-Jordan
(``reduce_rows``), kernels and ranks are built on it, so the
a * row - b * kept step is written once.  Idempotence and dimension
bookkeeping downstream are asserted as equalities, so no floating point
is allowed here.
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


# -- fraction-free elimination ----------------------------------------------

def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items()} if g > 1 else row


def _step(row: dict[int, int], kept: dict[int, int],
          c: int) -> dict[int, int]:
    """a * row - b * kept with a * row[c] = b * kept[c], so column c drops
    out, divided by the gcd of its entries so the integers stay small."""
    g = gcd(kept[c], row[c])
    a, b = kept[c] // g, row[c] // g
    out = {e: a * x for e, x in row.items()}
    for e, x in kept.items():
        out[e] = out.get(e, 0) - b * x
    return _primitive({e: x for e, x in out.items() if x})


def echelon(rows, kept=None) -> dict:
    """Fraction-free elimination of sparse integer rows ({column: value},
    any ordered columns) into ``kept``, an earlier call's result or none:
    the kept rows, each keyed by its lead, its lowest column.

    A row meeting a kept row at its lead takes one elimination step; a
    lead is never normalised, since scaling a row does not move it, and a
    kept row never changes.  Kept rows are primitive when the rows given
    are.
    """
    kept = {} if kept is None else kept
    for row in sorted(rows, key=len):
        while row:
            lead = min(row)
            other = kept.get(lead)
            if other is None:
                kept[lead] = row
                break
            row = _step(row, other, lead)
    return kept


def reduce_rows(rows) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan on dense integer rows: ``echelon``, then
    a back pass clearing each pivot column above its row with the same
    step.  Returns the rows, row k a primitive multiple of the k-th row of
    the reduced echelon form and the rows past the rank zero, and the
    pivots in ascending order."""
    ncols = len(rows[0]) if rows else 0
    kept = echelon([_primitive({c: x for c, x in enumerate(row) if x})
                    for row in rows])
    pivots = sorted(kept)
    # from the last pivot down, so each row used is already reduced
    for k in range(len(pivots) - 1, 0, -1):
        p = pivots[k]
        for q in pivots[:k]:
            if p in kept[q]:
                kept[q] = _step(kept[q], kept[p], p)
    out = [[kept[p].get(c, 0) for c in range(ncols)] for p in pivots]
    out += [[0] * ncols for _ in range(len(rows) - len(pivots))]
    return out, pivots


def kernel(rows) -> Form:
    """The form of the canonical null-space basis of non-empty integer
    rows: for each free column f, the vector with 1 at f, 0 at the other
    free columns and -row[f] / row[p] at the pivot p of each reduced row.

    It is the one basis of the null space that is the identity on the free
    columns, so it depends on the space alone: scaling, reordering or
    adding rows that cut out the same space leaves it unchanged.  A reduced
    row has no entry left of its pivot, so the vector of f is nonzero only
    at f and at pivots left of f: its last nonzero entry is the 1 at f."""
    reduced, pivots = reduce_rows(rows)
    ncols = len(reduced[0])
    den = lcm(*(row[p] for row, p in zip(reduced, pivots)))
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = den
        for row, p in zip(reduced, pivots):
            v[p] = -row[f] * (den // row[p])
        basis.append(v)
    return canonical(basis, den)


def rank(A: Mat) -> int:
    return len(reduce_rows(form(A)[0])[1])


def is_invertible(A: Mat) -> bool:
    return len(A) == len(A[0]) and rank(A) == len(A)
