import itertools
import random
import re
from fractions import Fraction

import pytest

from phasecat import (CapExceededError, NonIsolated, QuasihomogeneousGerm,
                      ValidationError, corpus_adjacency, euler_apply,
                      euler_eigenvalue, local_algebra, milnor_number,
                      modality, parse_germ, relative_cokernel,
                      spectrum_grading, stabilize, weight_milnor)
from phasecat import singularity

from oracles import bf_standard_monomials

F = Fraction


@pytest.fixture(scope="module")
def corpus():
    return corpus_adjacency()


def bf_milnor_one_variable(k):
    """mu of x^{k+1} is k: the Jacobian ideal is (x^k)."""
    return k


class TestMilnorNumber:
    def test_a3_plane_curve(self):
        assert milnor_number(parse_germ("x^4")) == 3

    def test_e6(self):
        assert milnor_number(parse_germ("x^3 + y^4")) == 6

    def test_a_series_oracle(self):
        for k in range(1, 9):
            f = parse_germ(f"x^{k + 1}")
            assert milnor_number(f) == bf_milnor_one_variable(k)

    def test_morse_point(self):
        assert milnor_number(parse_germ("x^2 + y^2")) == 1

    def test_three_variables(self):
        assert milnor_number(parse_germ("x^2 + y^2 + z^2")) == 1
        assert milnor_number(parse_germ("x^3 + y^3 + z^3")) == 8

    def test_corpus_values(self, corpus):
        for entry in corpus.entries.values():
            assert milnor_number(entry.germ) == entry.mu

    def test_weight_formula_cross_check(self, corpus):
        for entry in corpus.entries.values():
            assert weight_milnor(entry.weights) == entry.mu

    def test_coefficients_do_not_matter(self):
        assert milnor_number(parse_germ("2*x^3 + 1/3*y^4")) == 6

    def test_non_isolated_rejected(self):
        with pytest.raises(NonIsolated):
            milnor_number(parse_germ("x^2*y"))

    def test_vanishing_partial_rejected_fast(self):
        # "y^2" read in two variables: the x-partial vanishes identically
        with pytest.raises(NonIsolated):
            milnor_number(parse_germ("y^2"))

    def test_basis_is_monomial_and_deterministic(self):
        alg = local_algebra(parse_germ("x^3 + y^4"))
        assert alg.dimension == 6
        assert alg.monomial_basis == [(0, 0), (0, 1), (1, 0), (0, 2),
                                      (1, 1), (1, 2)]


def substitute(germ, images: dict) -> str:
    """The germ's text with each variable replaced by its image."""
    return re.sub("[xyz]", lambda m: images.get(m.group(), m.group()),
                  str(germ))


class TestCertifiedMilnor:
    """Oracles: the weight formula prod(1/w - 1) of the principal part,
    finite determinacy and invariance under linear coordinate changes."""

    @pytest.mark.parametrize("text,weights", [
        ("x^2 + y^2 + z^2 + (x + y)^200", ("1/2", "1/2", "1/2")),
        ("x^3 + y^5 + (x + y)^50", ("1/3", "1/5")),
        ("x^2 + y^3 + x^41", ("1/2", "1/3")),
        ("x^20", ("1/20",)),
        ("x^3 + y^19", ("1/3", "1/19")),
        ("x^2 + y^2 + z^30", ("1/2", "1/2", "1/30")),
    ])
    def test_high_degree_germs(self, text, weights):
        want = weight_milnor([F(w) for w in weights])
        assert milnor_number(parse_germ(text)) == want

    @pytest.mark.parametrize("exponents", [
        (25,), (2, 21), (3, 22), (4, 21), (2, 3, 21), (3, 3, 21)])
    def test_brieskorn_pham_ladder(self, exponents):
        text = " + ".join(f"{v}^{k}" for v, k in zip("xyz", exponents))
        want = weight_milnor([F(1, k) for k in exponents])
        assert milnor_number(parse_germ(text)) == want

    def test_finite_determinacy(self, corpus):
        # f is (mu+1)-determined: terms of order >= mu+2 leave mu alone
        for entry in corpus.entries.values():
            d = entry.mu + 2
            tail = {1: [f"x^{d}", f"3*x^{d + 1}"],
                    2: [f"(x + y)^{d}", f"x*y^{d}"]}
            for extra in tail[entry.germ.variable_count] + [f"x^{d + 25}"]:
                f = parse_germ(f"{entry.normal_form} + {extra}")
                assert milnor_number(f) == entry.mu, (entry.name, extra)

    @pytest.mark.parametrize("images", [
        {"x": "(x + y)"}, {"y": "(y - 2*x)"},
        {"x": "(x + y)", "y": "(x - y)"}])
    def test_linear_coordinate_change(self, corpus, images):
        for entry in corpus.entries.values():
            germ = entry.germ
            if germ.variable_count == 1:
                germ = stabilize(germ)
            f = parse_germ(substitute(germ, images))
            assert milnor_number(f) == entry.mu, (entry.name, str(f))

    @pytest.mark.parametrize("text,where", [
        ("x^2*y", "x = 0"), ("y^2", "y = 0"), ("(x - y)^2*z", "x = y = 0")])
    def test_non_isolated_names_its_subspace(self, text, where):
        with pytest.raises(NonIsolated,
                           match=f": every partial vanishes on {where}$"):
            milnor_number(parse_germ(text))

    @pytest.mark.parametrize("text,error,suffix", [
        ("(x+y+z)^200", CapExceededError,
         ": mu not certified up to truncation degree TRUNCATION_CAP=40"),
        ("(x+y)^150*z^2", NonIsolated, ": every partial vanishes on z = 0")])
    def test_huge_germ_named_by_an_excerpt(self, text, error, suffix):
        with pytest.raises(error) as exc:
            milnor_number(parse_germ(text))
        message = str(exc.value)
        assert message.endswith(suffix) and len(message) < 200, message
        assert message.startswith(str(parse_germ(text))[:60] + "... (")

    def test_cap_error_without_proof(self, monkeypatch):
        # (x-y)^2 is singular along x = y, which no coordinate test sees
        monkeypatch.setattr(singularity, "TRUNCATION_CAP", 6)
        with pytest.raises(CapExceededError, match="TRUNCATION_CAP=6"):
            milnor_number(parse_germ("x^2 - 2*x*y + y^2"))


class TestWeightMilnor:
    def test_bad_weight_rejected(self):
        with pytest.raises(ValidationError):
            weight_milnor([F(1)])
        with pytest.raises(ValidationError):
            weight_milnor([F(1, 2), F(3, 2)])

    def test_e8(self):
        assert weight_milnor([F(1, 3), F(1, 5)]) == 8


class TestQuasihomogeneous:
    def test_accepts_valid_weights(self):
        q = QuasihomogeneousGerm(parse_germ("x^3 + y^4"),
                                 (F(1, 3), F(1, 4)))
        assert q.monomial_weight((1, 1)) == F(7, 12)

    def test_rejects_wrong_weights(self):
        with pytest.raises(ValidationError):
            QuasihomogeneousGerm(parse_germ("x^3 + y^4"),
                                 (F(1, 3), F(1, 3)))

    def test_rejects_weight_count_mismatch(self):
        with pytest.raises(ValidationError):
            QuasihomogeneousGerm(parse_germ("x^3"), (F(1, 3), F(1, 4)))


class TestEulerGrading:
    def test_germ_is_fixed_by_euler_derivation(self, corpus):
        for entry in corpus.entries.values():
            q = entry.quasihomogeneous
            assert euler_apply(q) == dict(q.germ.terms)

    def test_monomial_eigenvalue(self):
        q = QuasihomogeneousGerm(parse_germ("x^3 + y^4"),
                                 (F(1, 3), F(1, 4)))
        assert euler_eigenvalue(q, (1, 1)) == F(7, 12)

    def test_spectrum_of_cusp(self):
        q = QuasihomogeneousGerm(parse_germ("x^3"), (F(1, 3),))
        assert spectrum_grading(q) == [F(0), F(1, 3)]

    def test_spectrum_of_morse(self):
        q = QuasihomogeneousGerm(parse_germ("x^2"), (F(1, 2),))
        assert spectrum_grading(q) == [F(0)]

    def test_e6_spectrum_exact(self):
        q = QuasihomogeneousGerm(parse_germ("x^3 + y^4"),
                                 (F(1, 3), F(1, 4)))
        assert spectrum_grading(q) == [F(0), F(1, 4), F(1, 3), F(1, 2),
                                       F(7, 12), F(5, 6)]

    def test_duality_of_spectrum(self, corpus):
        # the grading is symmetric about half the maximal eigenvalue
        for entry in corpus.entries.values():
            spec = spectrum_grading(entry.quasihomogeneous)
            top = sum(1 - 2 * w for w in entry.weights)
            assert len(spec) == entry.mu
            assert spec[-1] == top
            assert [top - s for s in reversed(spec)] == spec


class TestModality:
    def test_simple_singularities_have_modality_zero(self, corpus):
        for entry in corpus.entries.values():
            assert modality(entry.mu, entry.codim) == 0

    def test_positive_modality(self):
        assert modality(10, 8) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            modality(3, 5)

    def test_negative_codim_rejected(self):
        with pytest.raises(ValidationError):
            modality(3, -1)


class TestStabilize:
    def test_adds_square_variable(self):
        g = stabilize(parse_germ("x^3"))
        assert g.variable_count == 2
        assert dict(g.terms) == {(3, 0): F(1), (0, 2): F(1)}

    def test_preserves_milnor_number(self, corpus):
        for name in ("A2", "A3", "D4", "E6"):
            entry = corpus.entries[name]
            assert milnor_number(stabilize(entry.germ)) == entry.mu

    def test_refuses_three_variables(self):
        with pytest.raises(ValidationError):
            stabilize(parse_germ("x*y*z"))


class TestCorpus:
    def test_entry_names(self, corpus):
        expected = {f"A{k}" for k in range(1, 9)} \
            | {f"D{k}" for k in range(4, 9)} | {"E6", "E7", "E8"}
        assert set(corpus.entries) == expected

    def test_codim_is_mu_minus_one(self, corpus):
        for entry in corpus.entries.values():
            assert entry.codim == entry.mu - 1

    def test_arrows_drop_mu_by_one(self, corpus):
        for src, dst in corpus.arrows:
            assert corpus.entries[src].mu - corpus.entries[dst].mu == 1

    def test_expected_arrows_present(self, corpus):
        for pair in (("A3", "A2"), ("D5", "D4"), ("D4", "A3"),
                     ("E6", "A5"), ("E6", "D5"), ("E7", "E6"),
                     ("E8", "D7")):
            assert corpus.has_arrow(*pair)

    def test_no_upward_arrows(self, corpus):
        for src, dst in corpus.arrows:
            assert not corpus.has_arrow(dst, src)


class TestRelativeCokernel:
    def test_a2_to_a1(self, corpus):
        rc = relative_cokernel(corpus, "A2", "A1")
        assert rc.dimension == 1
        assert rc.top_weight == F(1, 3)

    def test_self_is_zero(self, corpus):
        rc = relative_cokernel(corpus, "E6", "E6")
        assert rc.dimension == 0
        assert rc.top_weight is None

    def test_e6_to_d5(self, corpus):
        rc = relative_cokernel(corpus, "E6", "D5")
        assert rc.dimension == 1
        assert rc.top_weight == F(5, 6)

    def test_missing_arrow_rejected(self, corpus):
        with pytest.raises(ValidationError):
            relative_cokernel(corpus, "A2", "E6")


def seeded_brieskorn_pham(seed, count):
    """Germs sum of c_i x_i^e_i with rational c_i and e_i in 2..7."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        terms = [f"{rng.choice('+-')} {rng.randint(1, 9)}/{rng.randint(1, 9)}"
                 f"*{v}^{rng.randint(2, 7)}" for v in "xyz"[:n]]
        out.append(parse_germ(" ".join(terms)))
    return out


class TestIntegerElimination:
    """Oracle: the fraction-free Milnor elimination leaves the same
    standard monomials as Fraction elimination with normalised leads, at
    every degree of the truncation ladder up to the certified one."""

    @staticmethod
    def check(germ):
        n = germ.variable_count
        partials = [germ.derivative(v) for v in range(n)]
        for degree, got in singularity._truncations(partials, n):
            want = bf_standard_monomials(partials, n, degree)
            assert got == want, (str(germ), degree)
            if all(sum(m) < degree for m in want):
                return

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    def test_monomials_in_graded_lex_order(self, nvars):
        listed = [m for total in range(8)
                  for m in singularity._graded_lex(nvars, total)]
        oracle = sorted((e for e in itertools.product(range(8),
                                                      repeat=nvars)
                         if sum(e) < 8), key=lambda e: (sum(e), e))
        assert listed == oracle

    def test_ade_corpus(self, corpus):
        for entry in corpus.entries.values():
            self.check(entry.germ)
            germ = entry.germ
            if germ.variable_count == 1:
                germ = stabilize(germ)
            self.check(parse_germ(substitute(
                germ, {"x": "(1/2*x + 3*y)", "y": "(x - 2/3*y)"})))

    def test_seeded_brieskorn_pham(self):
        for germ in seeded_brieskorn_pham("bp-oracle", 12):
            self.check(germ)


class TestSingleElimination:
    """One elimination grown a degree at a time: each degree only adds
    standard monomials of that degree, and each row m * df_i is built and
    handed to ``ratmat.echelon`` once."""

    @staticmethod
    def germs(corpus):
        return ([entry.germ for entry in corpus.entries.values()]
                + seeded_brieskorn_pham("bp-single-elimination", 12))

    def test_each_degree_extends_the_last(self, corpus):
        for germ in self.germs(corpus):
            n = germ.variable_count
            partials = [germ.derivative(v) for v in range(n)]
            before = []
            for want, (degree, standard) in enumerate(
                    singularity._truncations(partials, n)):
                assert degree == want, str(germ)
                assert standard[:len(before)] == before, (str(germ), degree)
                assert all(sum(m) == degree
                           for m in standard[len(before):]), str(germ)
                if all(sum(m) < degree for m in standard):
                    break
                before = standard
            assert standard == local_algebra(germ).monomial_basis

    def test_each_row_reaches_the_elimination_once(self, corpus,
                                                    monkeypatch):
        from math import comb
        from phasecat import ratmat
        eliminate, handed = ratmat.echelon, []

        def counted(rows, *kept):
            rows = list(rows)
            handed.append(len(rows))
            return eliminate(rows, *kept)

        monkeypatch.setattr(ratmat, "echelon", counted)
        for germ in self.germs(corpus):
            handed.clear()
            basis = local_algebra(germ).monomial_basis
            # the certified D: one above the top basis degree, since the
            # standard monomials are closed under division
            top = max(map(sum, basis), default=-1) + 1
            n = germ.variable_count
            lows = [min(map(sum, p)) for p in
                    (germ.derivative(v) for v in range(n)) if p]
            # the monomials m of degree at most top - low number
            # comb(top - low + n, n)
            want = sum(comb(top - low + n, n) for low in lows if low <= top)
            assert sum(handed) == want, (str(germ), handed)
