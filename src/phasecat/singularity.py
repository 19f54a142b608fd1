"""Local algebras, Milnor numbers, Euler gradings and the ADE corpus.

The Milnor number mu is the dimension of the local algebra, the quotient
of the local ring at the origin by the Jacobian ideal J of the germ.  It
is computed Macaulay-style: truncate at a total degree D (work modulo the
D+1st power of the maximal ideal m), row reduce the multiples of the
partials with the lowest monomial in graded-lex order as the leading
term, and read off the standard (non-leading) monomials.  The monomials
are numbered as columns, so the reduction is ``ratmat.echelon``, the
package's one fraction-free elimination.  When no standard monomial has
degree D, m^D lies in J + m^(D+1), so Nakayama's lemma gives m^D in J and
mu is exactly the number of standard monomials.  The degrees D = 1, 2, 4,
8, then 25 % more each step, are tried up to TRUNCATION_CAP.

NonIsolated is raised only with a proof: a coordinate subspace of
positive dimension on which every partial vanishes, so that it lies in
the critical locus.  A germ with neither a certificate by TRUNCATION_CAP
nor such a subspace raises CapExceededError.

Everything is exact rational arithmetic; quotient dimensions over the
rationals agree with the complex ones for the linear algebra performed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from operator import add

from . import ratmat
from .errors import (CapExceededError, Frozen, PhasecatError,
                     ValidationError)
from .germs import VAR_NAMES, PolyGerm, parse_germ

TRUNCATION_CAP = 40


class NonIsolated(PhasecatError):
    """The critical locus of the germ has positive dimension at 0."""


class QuasihomogeneousGerm(Frozen):
    """A germ together with rational weights giving every term degree 1."""
    __slots__ = _fields = ("germ", "weights")

    def __init__(self, germ: PolyGerm, weights: tuple[Fraction, ...]):
        weights = tuple(Fraction(w) for w in weights)
        object.__setattr__(self, "germ", germ)
        object.__setattr__(self, "weights", weights)
        if len(weights) != self.germ.variable_count:
            raise ValidationError("one weight per variable required")
        for exps, _ in self.germ.terms:
            deg = sum(w * e for w, e in zip(weights, exps))
            if deg != 1:
                raise ValidationError(
                    f"monomial {exps} has weight degree {deg}, expected 1")

    def monomial_weight(self, exps) -> Fraction:
        return sum(w * e for w, e in zip(self.weights, exps))


class LocalAlgebra:
    """Monomial basis of the Jacobian quotient and its dimension mu."""
    __slots__ = ("germ", "monomial_basis")

    def __init__(self, germ: PolyGerm,
                 monomial_basis: list[tuple[int, ...]]):
        self.germ = germ
        self.monomial_basis = monomial_basis

    @property
    def dimension(self) -> int:
        return len(self.monomial_basis)


def _graded_lex(nvars: int, total: int) -> list[tuple[int, ...]]:
    """The monomials of one total degree, in ascending lex order."""
    if nvars == 1:
        return [(total,)]
    return [(a,) + rest for a in range(total + 1)
            for rest in _graded_lex(nvars - 1, total - a)]


def _truncations(partials, nvars: int):
    """Yield (D, standard monomials of span{m * df_i} modulo degree > D
    terms) for each D of the ladder up to TRUNCATION_CAP.

    The monomials are numbered in graded-lex order, so ``ratmat.echelon``
    keys each row by its lowest monomial, and a row whose lead has degree
    D has no other degree; the standard (non-leading) monomials, in
    graded-lex order, form a basis of the quotient by the truncated
    Jacobian ideal.  One monomial list grows a total degree at a time as
    the ladder climbs.  The rows are the partials, scaled to integers
    once, times each monomial that keeps their lowest term within D.
    """
    scaled = []
    for p in partials:
        if p:
            den = lcm(*(c.denominator for c in p.values()))
            scaled.append([(e, sum(e), c.numerator * (den // c.denominator))
                           for e, c in p.items()])
    # the monomials of total degree d are monomials[starts[d]:starts[d+1]]
    monomials, column, starts = [], {}, [0]
    degree = 1
    while True:
        for total in range(len(starts) - 1, degree + 1):
            for m in _graded_lex(nvars, total):
                column[m] = len(monomials)
                monomials.append(m)
            starts.append(len(monomials))
        rows = []
        for terms in scaled:
            room = degree - min(d for _, d, _ in terms)
            for dm in range(room + 1):
                for m in monomials[starts[dm]:starts[dm + 1]]:
                    rows.append({column[tuple(map(add, e, m))]: c
                                 for e, d, c in terms if d + dm <= degree})
        leads = ratmat.echelon(rows)
        standard = [m for i, m in enumerate(monomials) if i not in leads]
        del rows, leads  # each rung eliminates afresh; hold no old rows
        yield degree, standard
        if degree >= TRUNCATION_CAP:
            return
        degree = min(TRUNCATION_CAP,
                     degree + (degree if degree < 8 else degree // 4))


def local_algebra(f: PolyGerm) -> LocalAlgebra:
    """Jacobian-quotient basis, certified by Nakayama's lemma.

    Raises NonIsolated when every partial vanishes on a coordinate
    subspace of positive dimension, and CapExceededError when no degree up
    to TRUNCATION_CAP certifies the quotient.
    """
    n = f.variable_count
    partials = [f.derivative(v) for v in range(n)]
    for size in range(n):
        for zeros in itertools.combinations(range(n), size):
            if all(any(e[i] for i in zeros) for p in partials for e in p):
                where = (" = ".join([VAR_NAMES[i] for i in zeros] + ["0"])
                         if zeros else "the whole space")
                raise NonIsolated(f"{f}: every partial vanishes on {where}")
    for degree, standard in _truncations(partials, n):
        # no standard monomial of degree D: m^D lies in J + m^(D+1), so in
        # J by Nakayama, and every larger D would give the same basis
        if all(sum(m) < degree for m in standard):
            return LocalAlgebra(f, standard)
    raise CapExceededError(f"{f}: mu not certified up to truncation "
                           f"degree TRUNCATION_CAP={TRUNCATION_CAP}")


def milnor_number(f: PolyGerm) -> int:
    """dim of the local algebra; finite exactly for isolated singularities."""
    return local_algebra(f).dimension


def weight_milnor(weights) -> Fraction:
    """Product formula prod(1/w_i - 1); the standard cross-check for the
    Milnor number of a quasihomogeneous germ."""
    out = Fraction(1)
    for w in weights:
        w = Fraction(w)
        if not 0 < w < 1:
            raise ValidationError(f"weight {w} outside (0,1)")
        out *= (1 / w - 1)
    return out


def euler_apply(q: QuasihomogeneousGerm):
    """Apply the Euler derivation D = sum w_i x_i d/dx_i to the germ.

    Monomials are eigenvectors with eigenvalue equal to their weight
    degree; on the germ itself D acts as the identity.
    """
    return {e: c * q.monomial_weight(e) for e, c in dict(q.germ.terms).items()
            if c * q.monomial_weight(e) != 0}


def euler_eigenvalue(q: QuasihomogeneousGerm, monomial) -> Fraction:
    return q.monomial_weight(monomial)


def spectrum_grading(q: QuasihomogeneousGerm) -> list[Fraction]:
    """Sorted Euler eigenvalues of the local-algebra monomial basis."""
    algebra = local_algebra(q.germ)
    return sorted(q.monomial_weight(m) for m in algebra.monomial_basis)


def modality(mu: int, codim: int) -> int:
    """(mu - 1) - codim; negative values signal inconsistent inputs."""
    if codim < 0:
        raise ValidationError("codimension must be nonnegative")
    m = (mu - 1) - codim
    if m < 0:
        raise ValidationError(
            f"modality (mu-1)-codim = {m} is negative; inconsistent inputs")
    return m


def stabilize(f: PolyGerm) -> PolyGerm:
    """Append a fresh square variable; the Milnor number is unchanged."""
    if f.variable_count >= 3:
        raise ValidationError("stabilization supported only below 3 "
                              "variables")
    n = f.variable_count
    terms = {e + (0,): c for e, c in f.terms}
    square = (0,) * n + (2,)
    terms[square] = terms.get(square, Fraction(0)) + 1
    return PolyGerm(n + 1, tuple(terms.items()))


class CorpusEntry(Frozen):
    __slots__ = _fields = ("name", "normal_form", "weights", "mu", "codim")

    def __init__(self, name: str, normal_form: str,
                 weights: tuple[Fraction, ...], mu: int, codim: int):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "normal_form", normal_form)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "codim", codim)

    @property
    def germ(self) -> PolyGerm:
        return parse_germ(self.normal_form)

    @property
    def quasihomogeneous(self) -> QuasihomogeneousGerm:
        return QuasihomogeneousGerm(self.germ, self.weights)


class AdjacencyCorpus:
    """The bundled ADE entries with their degeneration arrows."""
    __slots__ = ("entries", "arrows")

    def __init__(self, entries: dict[str, CorpusEntry],
                 arrows: list[tuple[str, str]]):
        self.entries = entries
        self.arrows = arrows

    def has_arrow(self, src: str, dst: str) -> bool:
        return (src, dst) in set(self.arrows)


def corpus_adjacency() -> AdjacencyCorpus:
    """Load the bundled simple-singularity corpus (A_k, D_k, E6, E7, E8)."""
    import json
    from importlib import resources
    raw = json.loads(resources.files("phasecat.data")
                     .joinpath("ade_corpus.json").read_text())
    entries = {}
    for e in raw["entries"]:
        entries[e["name"]] = CorpusEntry(
            name=e["name"], normal_form=e["form"],
            weights=tuple(Fraction(w) for w in e["weights"]),
            mu=int(e["mu"]), codim=int(e["codim"]))
    arrows = [(a, b) for a, b in raw["arrows"]]
    return AdjacencyCorpus(entries, arrows)


class RelativeCokernel:
    __slots__ = ("dimension", "top_weight")

    def __init__(self, dimension: int, top_weight: Fraction | None):
        self.dimension = dimension
        self.top_weight = top_weight


def relative_cokernel(corpus: AdjacencyCorpus, src: str,
                      dst: str) -> RelativeCokernel:
    """Cokernel data of a corpus degeneration arrow.

    Only the dimension (the Milnor-number drop) and, for unit jumps, the
    weight of the unique extra basis monomial (the top of the source's
    grading) are computed; the algebra map itself has no pinned-down
    formula.
    """
    if src == dst:
        return RelativeCokernel(0, None)
    if not corpus.has_arrow(src, dst):
        raise ValidationError(f"no corpus adjacency arrow {src} -> {dst}")
    f, g = corpus.entries[src], corpus.entries[dst]
    dim = f.mu - g.mu
    top = None
    if dim == 1:
        top = max(spectrum_grading(f.quasihomogeneous))
    return RelativeCokernel(dim, top)
