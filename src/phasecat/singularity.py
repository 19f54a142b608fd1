"""Local algebras, Milnor numbers, Euler gradings and the ADE corpus.

The Milnor number mu is the dimension of the local algebra, the quotient
of the local ring at the origin by the Jacobian ideal J of the germ.  It
is computed Macaulay-style, one total degree at a time (Lazard): at D =
0, 1, 2, ... the rows m * df_i whose lowest term has degree D join one
``ratmat.echelon`` elimination, each row's lead its lowest monomial in
graded-lex order.  The leads of degree <= D are those of the elimination
truncated at D (modulo m^(D+1)): truncating the row space gives the span
of the truncated rows, the later rows vanishing there, and truncation
keeps the lowest monomials of the span up to degree D.  When no standard
(non-leading) monomial has degree D, m^D lies in J + m^(D+1), so
Nakayama's lemma gives m^D in J and mu is exactly the number of standard
monomials.

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
from operator import add

from . import ratmat
from .errors import (CapExceededError, Frozen, PhasecatError,
                     ValidationError)
from .germs import VAR_NAMES, PolyGerm, integer_terms, parse_germ

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
    """Yield (D, the standard monomials of degree <= D, in graded-lex
    order) for D = 0, 1, ... up to TRUNCATION_CAP.  A column is (total
    degree, exponents), so a row's lead is its graded-lex lowest
    monomial; each row is built once, on the partial scaled to integers,
    and kept up to degree TRUNCATION_CAP."""
    # (lowest degree, [(exponents, degree, integer coefficient)])
    scaled = [(min(map(sum, p)), [(e, sum(e), c) for e, c in
                                  integer_terms(p)[1].items()])
              for p in partials if p]
    monomials, kept, standard = [], {}, []
    for degree in range(TRUNCATION_CAP + 1):
        # monomials[d]: the monomials of total degree d
        monomials.append(_graded_lex(nvars, degree))
        rows = [{(d + degree - low, tuple(map(add, e, m))): c
                 for e, d, c in terms if d + degree - low <= TRUNCATION_CAP}
                for low, terms in scaled if low <= degree
                for m in monomials[degree - low]]
        ratmat.echelon(rows, kept)
        standard = standard + [m for m in monomials[degree]
                               if (degree, m) not in kept]
        yield degree, standard


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
                raise NonIsolated(f"{_excerpt(f)}: every partial vanishes "
                                  f"on {where}")
    for degree, standard in _truncations(partials, n):
        # no standard monomial of degree D (the last is the highest): m^D
        # lies in J + m^(D+1), so in J by Nakayama, and every larger D
        # would give the same basis
        if not standard or sum(standard[-1]) < degree:
            return LocalAlgebra(f, standard)
    raise CapExceededError(f"{_excerpt(f)}: mu not certified up to truncation"
                           f" degree TRUNCATION_CAP={TRUNCATION_CAP}")


def _excerpt(f: PolyGerm) -> str:
    """The germ's text, cut after 60 characters: one short line."""
    text = str(f)
    return text if len(text) <= 60 else \
        f"{text[:60]}... ({len(f.terms)} terms)"


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
