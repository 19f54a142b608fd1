import random
from fractions import Fraction

import pytest

from phasecat import ParseError, PolyGerm, ValidationError, parse_germ
from phasecat.errors import CapExceededError
from phasecat.germs import DEGREE_CAP

from oracles import (bf_germ_terms, bf_poly_power, bf_poly_product,
                     max_degree)

F = Fraction


class TestParse:
    def test_e6_normal_form(self):
        g = parse_germ("x^3 + y^4")
        assert g.variable_count == 2
        assert dict(g.terms) == {(3, 0): F(1), (0, 4): F(1)}

    def test_d_series_shape(self):
        g = parse_germ("x^2*y + y^4")
        assert dict(g.terms) == {(2, 1): F(1), (0, 4): F(1)}

    def test_rational_coefficients(self):
        g = parse_germ("1/2*x^2 - 3/4*x*y")
        assert dict(g.terms) == {(2, 0): F(1, 2), (1, 1): F(-3, 4)}

    def test_three_variables(self):
        g = parse_germ("x*y*z + z^2")
        assert g.variable_count == 3
        assert dict(g.terms) == {(1, 1, 1): F(1), (0, 0, 2): F(1)}

    def test_whitespace_insensitive(self):
        assert parse_germ("x^3+y^4") == parse_germ("  x^3   + y^4 ")

    def test_parentheses_and_cancellation(self):
        g = parse_germ("(x + y)^2 - 2*x*y")
        assert dict(g.terms) == {(2, 0): F(1), (0, 2): F(1)}

    def test_leading_minus(self):
        g = parse_germ("-x^2 + y^3")
        assert dict(g.terms) == {(2, 0): F(-1), (0, 3): F(1)}

    def test_deterministic_term_order(self):
        a = parse_germ("y^4 + x^3")
        b = parse_germ("x^3 + y^4")
        assert a.terms == b.terms

    def test_unused_leading_variable_kept_by_position(self):
        # y alone still lives in a two-variable ring
        g = parse_germ("y^2")
        assert g.variable_count == 2
        assert dict(g.terms) == {(0, 2): F(1)}


class TestParseErrors:
    def test_constant_term_rejected(self):
        with pytest.raises(ValidationError, match="constant term"):
            parse_germ("x + 1")

    def test_unknown_character_with_position(self):
        with pytest.raises(ParseError) as exc:
            parse_germ("x^2 + w")
        assert exc.value.position == 6
        assert "position 6" in str(exc.value)

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse_germ("x^-2")

    def test_missing_exponent(self):
        with pytest.raises(ParseError, match="exponent"):
            parse_germ("x^ + y")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError, match="'\\)'"):
            parse_germ("(x + y")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_germ("x^2 )")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_germ("")

    def test_missing_denominator(self):
        with pytest.raises(ParseError, match="denominator"):
            parse_germ("1/x")

    @pytest.mark.parametrize("text,position", [
        ("1/0*x", 0), ("x^2 + 3/00*y^3", 6)])
    def test_zero_denominator(self, text, position):
        with pytest.raises(ParseError, match="zero denominator") as exc:
            parse_germ(text)
        assert exc.value.position == position

    @pytest.mark.parametrize("text,degree", [
        (f"x^{DEGREE_CAP}", DEGREE_CAP),
        (f"(x*y)^{DEGREE_CAP // 2}", DEGREE_CAP),
        (f"x + 2^{DEGREE_CAP}*y", 1)])
    def test_power_at_cap(self, text, degree):
        assert max_degree(parse_germ(text)) == degree

    @pytest.mark.parametrize("text", [
        f"x^{DEGREE_CAP + 1}", f"(x*y)^{DEGREE_CAP // 2 + 1}",
        f"x + 2^{DEGREE_CAP + 1}*y", "x^1000000000"])
    def test_power_past_cap(self, text):
        with pytest.raises(CapExceededError, match="DEGREE_CAP"):
            parse_germ(text)


class TestProducts:
    """A product's factor degrees are added up and checked against
    DEGREE_CAP before any multiplication, and the factors are multiplied
    on integer coefficients over one denominator."""

    @pytest.mark.parametrize("text", [
        f"x^{DEGREE_CAP - 50}*y^50", f"x*(y + z)^{DEGREE_CAP - 1}",
        f"3*x^{DEGREE_CAP}*1/2"])
    def test_product_at_cap(self, text):
        assert max_degree(parse_germ(text)) == DEGREE_CAP

    @pytest.mark.parametrize("text", [
        f"x^{DEGREE_CAP - 50}*y^51", f"x*y*(y + z)^{DEGREE_CAP - 1}",
        "*".join(["(x+y+z)"] * 300)])
    def test_product_past_cap(self, text):
        with pytest.raises(CapExceededError, match="DEGREE_CAP"):
            parse_germ(text)

    def test_two_hundred_factors_are_the_power(self):
        product = parse_germ("*".join(["(x+y+z)"] * DEGREE_CAP))
        assert product.terms == parse_germ(f"(x+y+z)^{DEGREE_CAP}").terms

    def test_seeded_rational_factors(self):
        """Oracle: the Fraction product of the factors parsed one by
        one."""
        rng = random.Random("germ-products")
        monomials = ["x", "y", "z", "x*y", "y^2", "x*z^2", "2/7*x^3"]

        def padded(text):
            germ = parse_germ(text)
            return {e + (0,) * (3 - len(e)): c for e, c in germ.terms}

        for _ in range(40):
            factors = [" ".join(
                f"{rng.choice('+-')} {rng.randint(1, 9)}/{rng.randint(1, 9)}"
                f"*{m}" for m in rng.sample(monomials, rng.randint(1, 3)))
                for _ in range(rng.randint(2, 5))]
            text = "*".join(f"({f})" for f in factors)
            want = bf_poly_product(3, map(padded, factors))
            assert padded(text) == want, text


class TestIntegerPowers:
    """Oracle: a power multiplied out on integer coefficients equals the
    repeated Fraction product of its base."""

    @staticmethod
    def check(base, k):
        want = bf_poly_power(dict(parse_germ(base).terms), k)
        assert dict(parse_germ(f"({base})^{k}").terms) == want, (base, k)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_rational_trinomial(self, k):
        self.check("1/2*x + 3*y - 1/3*z", k)

    def test_seeded_rational_bases(self):
        rng = random.Random("germ-powers")
        monomials = ["x", "y", "z", "x*y", "y^2", "x*z^2", "2/7*x^3"]
        for _ in range(40):
            base = " ".join(
                f"{rng.choice('+-')} {rng.randint(1, 9)}/{rng.randint(1, 9)}"
                f"*{m}" for m in rng.sample(monomials, rng.randint(1, 4)))
            self.check(base, rng.randint(1, 12))

    @pytest.mark.parametrize("count", [1, 2, 5, 6, 7])
    def test_seeded_bases_by_term_count(self, count):
        # a power peels one term t off its base: a 1-term base leaves no
        # rest, a 2-term base a single-term rest, and in a dense base the
        # terms of t^(n-k) * R^k collide across k
        rng = random.Random(f"germ-peeling:{count}")
        monomials = ["x", "y", "z", "x*y", "y^2", "x*z", "y*z^2", "x^2",
                     "z^3"]
        for _ in range(6):
            base = " ".join(
                f"{rng.choice('+-')} {rng.randint(1, 9)}/{rng.randint(1, 9)}"
                f"*{m}" for m in rng.sample(monomials, count))
            self.check(base, rng.randint(1, 8))


class TestPolyGerm:
    def test_rejects_constant(self):
        with pytest.raises(ValidationError):
            PolyGerm(1, (((0,), F(1)),))

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValidationError):
            PolyGerm(1, (((-1,), F(1)),))

    def test_rejects_too_many_variables(self):
        with pytest.raises(ValidationError):
            PolyGerm(4, ())

    def test_like_terms_merged(self):
        g = PolyGerm(1, (((2,), F(1)), ((2,), F(2))))
        assert dict(g.terms) == {(2,): F(3)}

    def test_max_degree(self):
        assert max_degree(parse_germ("x^3 + y^4")) == 4
        assert max_degree(parse_germ("x")) == 1

    def test_seeded_terms_match_rebuilt_construction(self):
        # Fraction, int, str and float coefficients, repeated exponents
        # (some cancelling), zeros, and the shapes PolyGerm rejects
        rng = random.Random("polygerm-terms")
        coeffs = [lambda: F(rng.randint(-9, 9), rng.randint(1, 9)),
                  lambda: rng.randint(-3, 3), lambda: "-3/4",
                  lambda: 0.5, lambda: F(0)]
        for _ in range(400):
            n = rng.randint(1, 3)
            terms = []
            for _ in range(rng.randint(0, 8)):
                exps = tuple(rng.randint(-1 if rng.random() < 0.02 else 0, 3)
                             for _ in range(n + (rng.random() < 0.02)))
                terms.append((exps, rng.choice(coeffs)()))
                if terms and rng.random() < 0.3:
                    exps, c = rng.choice(terms)
                    terms.append((exps, -F(c) if rng.random() < 0.5
                                  else rng.choice(coeffs)()))
            try:
                want = bf_germ_terms(n, terms)
            except ValueError:
                with pytest.raises(ValidationError):
                    PolyGerm(n, tuple(terms))
                continue
            got = PolyGerm(n, tuple(terms)).terms
            assert got == want, terms
            assert all(type(c) is F for _, c in got)

    def test_derivative(self):
        g = parse_germ("x^3 + x*y^2")
        assert g.derivative(0) == {(2, 0): F(3), (0, 2): F(1)}
        assert g.derivative(1) == {(1, 1): F(2)}

    def test_derivative_of_independent_variable(self):
        assert parse_germ("y^2").derivative(0) == {}

    def test_str_round_trip(self):
        for text in ("x^3 + y^4", "x^2*y - y^4", "1/2*x^2",
                     "-x + y^2", "x*y*z + z^3"):
            g = parse_germ(text)
            assert parse_germ(str(g)) == g
