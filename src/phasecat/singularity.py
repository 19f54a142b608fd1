"""Local algebras, Milnor numbers, Euler gradings and the ADE corpus.

The Milnor number is the dimension of the quotient of the polynomial ring
by the Jacobian ideal of the germ, computed Macaulay-style: truncate at a
total degree D (work modulo the D+1st power of the maximal ideal), row
reduce the multiples of the partials, and accept the quotient dimension
once it is stable across three consecutive truncation degrees.  Failure to
stabilize up to the degree cap is reported as NonIsolated -- a heuristic
signal, but also the mathematically expected answer for non-isolated
inputs.

Everything is exact rational arithmetic; quotient dimensions over the
rationals agree with the complex ones for the linear algebra performed.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .errors import ValidationError
from .germs import PolyGerm, parse_germ

TRUNCATION_CAP = 40
STABLE_RUNS = 3


class NonIsolated(Exception):
    """Raised when the Jacobian quotient dimension does not stabilize."""


@dataclass(frozen=True)
class QuasihomogeneousGerm:
    """A germ together with rational weights giving every term degree 1."""
    germ: PolyGerm
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        weights = tuple(Fraction(w) for w in self.weights)
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


@dataclass
class LocalAlgebra:
    """Monomial basis of the Jacobian quotient and its dimension mu."""
    germ: PolyGerm
    monomial_basis: list[tuple[int, ...]]

    @property
    def dimension(self) -> int:
        return len(self.monomial_basis)


def _monomials_up_to(nvars: int, degree: int):
    for total in range(degree + 1):
        for cuts in itertools.combinations_with_replacement(
                range(nvars), total):
            exps = [0] * nvars
            for c in cuts:
                exps[c] += 1
            yield tuple(exps)


def _mono_key(exps):
    return (sum(exps), exps)


def _truncated_quotient(partials, nvars: int, degree: int):
    """Standard monomials of span{m * df_i} modulo degree > `degree` terms.

    Sparse elimination keyed by graded-lex leading monomial; the standard
    (non-leading) monomials of total degree <= degree form a basis of the
    quotient by the truncated Jacobian ideal.
    """
    echelon: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}
    rows = []
    for p in partials:
        if not p:
            continue
        mindeg = min(sum(e) for e in p)
        for m in _monomials_up_to(nvars, degree - mindeg):
            row = {}
            for e, c in p.items():
                shifted = tuple(a + b for a, b in zip(e, m))
                if sum(shifted) <= degree:
                    row[shifted] = row.get(shifted, Fraction(0)) + c
            if row:
                rows.append(row)
    rows.sort(key=len)
    for row in rows:
        while row:
            lead = max(row, key=_mono_key)
            other = echelon.get(lead)
            if other is None:
                inv = 1 / row[lead]
                echelon[lead] = {e: c * inv for e, c in row.items()}
                break
            factor = row[lead]
            for e, c in other.items():
                row[e] = row.get(e, Fraction(0)) - factor * c
            row = {e: c for e, c in row.items() if c != 0}
    standard = [m for m in _monomials_up_to(nvars, degree)
                if m not in echelon]
    return standard


def local_algebra(f: PolyGerm) -> LocalAlgebra:
    """Jacobian-quotient basis; raises NonIsolated if it never stabilizes."""
    partials = [f.derivative(v) for v in range(f.variable_count)]
    if any(not p for p in partials):
        # a partial vanishes identically: the quotient contains a free
        # variable, so the singularity line is positive-dimensional
        raise NonIsolated(str(f))
    start = max(4, 2 * f.max_degree())
    history = []
    degree = start
    while degree <= TRUNCATION_CAP:
        standard = _truncated_quotient(partials, f.variable_count, degree)
        history.append((degree, len(standard), standard))
        if (len(history) >= STABLE_RUNS
                and len({h[1] for h in history[-STABLE_RUNS:]}) == 1):
            basis = sorted(history[-1][2], key=_mono_key)
            return LocalAlgebra(f, basis)
        degree += 2
    raise NonIsolated(str(f))


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


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    normal_form: str
    weights: tuple[Fraction, ...]
    mu: int
    codim: int

    @property
    def germ(self) -> PolyGerm:
        return parse_germ(self.normal_form)

    @property
    def quasihomogeneous(self) -> QuasihomogeneousGerm:
        return QuasihomogeneousGerm(self.germ, self.weights)


@dataclass
class AdjacencyCorpus:
    """The bundled ADE entries with their degeneration arrows."""
    entries: dict[str, CorpusEntry]
    arrows: list[tuple[str, str]]

    def has_arrow(self, src: str, dst: str) -> bool:
        return (src, dst) in set(self.arrows)


def corpus_adjacency() -> AdjacencyCorpus:
    """Load the bundled simple-singularity corpus (A_k, D_k, E6, E7, E8)."""
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


@dataclass
class RelativeCokernel:
    dimension: int
    top_weight: Fraction | None


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
