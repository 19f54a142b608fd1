"""Integer-row kernels of ratmat against the Fraction oracles: a seeded
corpus of random matrices, with zero rows and columns, 1 x n and n x 1
shapes, rank-deficient products and large denominators, and the edge
shapes of the one fraction-free elimination spelled out."""

import random
from fractions import Fraction
from math import gcd

import pytest

from phasecat import ratmat

from oracles import bf_kernel_basis, bf_leads, bf_mat_mul, bf_rref

F = Fraction
CORPUS_SIZE = 2000


def _entry(rng, style):
    if style == "sparse" and rng.random() < 0.6:
        return F(0)
    if style == "large":
        return F(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
    return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5, 7, 12)))


def _matrix(rng, n, m, style):
    return tuple(tuple(_entry(rng, style) for _ in range(m))
                 for _ in range(n))


def _corpus_matrix(rng):
    n, m = rng.randint(1, 7), rng.randint(1, 7)
    kind = rng.randrange(6)
    if kind == 0:
        n = 1
    elif kind == 1:
        m = 1
    style = rng.choice(("small", "sparse", "large"))
    if kind == 2 and min(n, m) > 1:
        k = rng.randint(1, min(n, m) - 1)
        A = bf_mat_mul(_matrix(rng, n, k, style), _matrix(rng, k, m, style))
    else:
        A = _matrix(rng, n, m, style)
    rows = [list(r) for r in A]
    if kind == 3:
        rows[rng.randrange(n)] = [F(0)] * m
    if kind == 4:
        c = rng.randrange(m)
        for row in rows:
            row[c] = F(0)
    if kind == 5 and n > 1:
        a, b = rng.sample(range(n), 2)
        s = F(rng.randint(-5, 5), rng.randint(1, 4))
        rows[a] = [s * x for x in rows[b]]
    return tuple(tuple(r) for r in rows)


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random("ratmat-corpus")
    return [_corpus_matrix(rng) for _ in range(CORPUS_SIZE)]


def test_corpus_covers_the_edge_shapes(corpus):
    shapes = {(len(A), len(A[0])) for A in corpus}
    assert any(n == 1 for n, _ in shapes) and any(m == 1 for _, m in shapes)
    assert any(any(all(x == 0 for x in row) for row in A) for A in corpus)
    assert any(any(all(x == 0 for x in col) for col in zip(*A))
               for A in corpus)
    assert any(len(bf_rref(A)[1]) < min(len(A), len(A[0])) for A in corpus)
    assert any(x.denominator > 10**6 for A in corpus for row in A
               for x in row)


def rref_of_rows(rows, pivots):
    """The reduced echelon form read off reduce_rows: each pivot row
    divided by its pivot, the zero rows past the rank as they are."""
    return tuple(tuple(F(x, row[c]) for x in row)
                 for row, c in zip(rows, pivots)) \
        + tuple(tuple(map(F, row)) for row in rows[len(pivots):])


def test_rref_equals_fraction_elimination(corpus):
    # repr also pins the entry type: every entry becomes a Fraction
    for A in corpus:
        rows, pivots = ratmat.reduce_rows(ratmat.form(A)[0])
        assert repr((rref_of_rows(rows, pivots), pivots)) \
            == repr(bf_rref(A)), A


def test_kernel_and_rank_equal_fraction_elimination(corpus):
    for A in corpus:
        basis = list(ratmat.to_mat(*ratmat.kernel(ratmat.form(A)[0])))
        assert repr(basis) == repr(bf_kernel_basis(A)), A
        assert ratmat.rank(A) == len(bf_rref(A)[1])


def test_products_equal_fraction_products(corpus):
    rng = random.Random("ratmat-products")
    for A in corpus:
        B = _matrix(rng, len(A[0]), rng.randint(1, 5),
                    rng.choice(("small", "sparse", "large")))
        (a, da), (b, db) = ratmat.form(A), ratmat.form(B)
        assert repr(ratmat.to_mat(ratmat.int_mul(a, b), da * db)) \
            == repr(bf_mat_mul(A, B))


def test_sums_equal_fraction_sums(corpus):
    rng = random.Random("ratmat-sums")
    for A in corpus[:500]:
        B = _matrix(rng, len(A), len(A[0]), "large")
        C = _matrix(rng, len(A), len(A[0]), "small")
        for terms in ((A, B), (A, B, C)):
            got = ratmat.to_mat(*ratmat.form_sum(
                [ratmat.form(T) for T in terms]))
            assert repr(got) == repr(tuple(
                tuple(sum(entries, F(0)) for entries in zip(*rows))
                for rows in zip(*terms)))


def test_forms_are_canonical(corpus):
    # den is the smallest: no prime divides it and every entry, so the
    # forms of two matrices are equal exactly when the matrices are
    rng = random.Random("ratmat-forms")
    for A in corpus[:500]:
        rows, den = ratmat.form(A)
        assert den > 0 and gcd(den, *(x for row in rows for x in row)) == 1
        assert repr(ratmat.to_mat(rows, den)) == repr(A)
        k = rng.randint(2, 30)
        assert ratmat.canonical([[k * x for x in row] for row in rows],
                                k * den) == (rows, den)
        B = _matrix(rng, len(A[0]), rng.randint(1, 5), "small")
        assert ratmat.form_mul(ratmat.form(A), ratmat.form(B)) \
            == ratmat.form(bf_mat_mul(A, B))


def test_reduced_rows_stay_primitive(corpus):
    # the fraction-free rows are divided by their gcd, so no common
    # factor builds up; row k is a multiple of the k-th reduced row
    for A in corpus[:500]:
        rows, pivots = ratmat.reduce_rows(ratmat.form(A)[0])
        R, _ = bf_rref(A)
        for k, row in enumerate(rows):
            if not any(row):
                continue
            assert gcd(*row) == 1, (A, row)
            assert all(F(x, row[pivots[k]]) == r for x, r in zip(row, R[k]))


@pytest.mark.parametrize("rows", [
    pytest.param([], id="empty"),
    pytest.param([[]], id="no-columns"),
    pytest.param([[0, 0, 0], [0, 0, 0]], id="all-zero"),
    pytest.param([[0, 2, 4], [0, 1, 3], [0, 5, -1]], id="zero-column"),
    pytest.param([[1, 2, 3], [1, 2, 3], [2, 4, 6], [0, 1, 1]],
                 id="repeated"),
    pytest.param([[0, 6, -4, 10]], id="single-row"),
])
def test_reduce_rows_edge_shapes(rows):
    # rows past the rank come back zero and the pivots ascend
    out, pivots = ratmat.reduce_rows(rows)
    A = tuple(tuple(map(F, row)) for row in rows)
    assert repr((rref_of_rows(out, pivots), pivots)) == repr(bf_rref(A))
    assert len(out) == len(rows)
    assert all(not any(row) for row in out[len(pivots):])
    assert pivots == sorted(set(pivots))


def test_echelon_rows_stay_primitive():
    # primitive rows in: every kept row is primitive and keyed by its
    # lead, its lowest column, and the leads are those of Fraction
    # elimination
    rng = random.Random("echelon-rows")
    for _ in range(200):
        rows = []
        for _ in range(rng.randint(1, 12)):
            row = {c: rng.randint(-30, 30)
                   for c in rng.sample(range(25), rng.randint(1, 8))}
            row = {c: x for c, x in row.items() if x}
            g = gcd(*row.values())
            if g:
                rows.append({c: x // g for c, x in row.items()})
        echelon = ratmat.echelon([dict(r) for r in rows])
        for lead, row in echelon.items():
            assert gcd(*row.values()) == 1, row
            assert lead == min(row)
        assert set(echelon) == bf_leads(rows, lambda c: c)


class TestIntersect:
    def test_no_constraint_rows_keeps_basis_a(self):
        basis_a = [(F(1), F(0)), (F(0), F(1))]
        out = ratmat.intersect(basis_a, ())
        assert ratmat.rank(tuple(out)) == 2
        assert ratmat.rank(tuple(out) + tuple(basis_a)) == 2

    def test_no_constraint_rows_spans_basis_a_in_general(self):
        rng = random.Random("intersect-empty")
        for _ in range(50):
            n, d = rng.randint(1, 4), rng.randint(4, 6)
            basis_a = list(_matrix(rng, n, d, "small"))
            out = ratmat.intersect(basis_a, ())
            r = ratmat.rank(tuple(basis_a))
            assert ratmat.rank(tuple(out)) == r
            assert ratmat.rank(tuple(out) + tuple(basis_a)) == r

    def test_constraint_cuts_out_its_null_space(self):
        basis_a = [(F(1), F(0), F(0)), (F(0), F(1), F(0))]
        out = ratmat.intersect(basis_a, ((1, 1, 0),))
        assert out == [(F(-1), F(1), F(0))]
