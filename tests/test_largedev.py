import math
import random

import pytest

from phasecat import (DiscreteObservable, RateProfile, ValidationError,
                      bernoulli, binary_entropy, cgf, cgf_prime, cramer,
                      largedev, legendre)
from phasecat.errors import CapExceededError

from oracles import bf_legendre

BERNOULLI_PS = (0.1, 0.3, 0.5, 0.7)


def bernoulli_cgf(p, theta):
    return math.log(1.0 - p * (1.0 - math.exp(theta)))


def bernoulli_rate(p, x):
    """Relative entropy form of the Bernoulli Legendre transform."""
    return x * math.log(x / p) + (1 - x) * math.log((1 - x) / (1 - p))


class TestObservable:
    def test_mean_and_support(self):
        obs = DiscreteObservable(((-1.0, 0.25), (0.0, 0.5), (2.0, 0.25)))
        assert obs.mean == pytest.approx(0.25)
        assert obs.support == (-1.0, 2.0)

    def test_rejects_nonpositive_probability(self):
        with pytest.raises(ValidationError):
            DiscreteObservable(((0.0, 0.0), (1.0, 1.0)))

    def test_rejects_bad_total(self):
        with pytest.raises(ValidationError):
            DiscreteObservable(((0.0, 0.4), (1.0, 0.4)))

    def test_rejects_degenerate_support(self):
        with pytest.raises(ValidationError):
            DiscreteObservable(((1.0, 0.5), (1.0, 0.5)))

    @pytest.mark.parametrize("outcomes", [
        ((0, math.nan), (1, 1)),
        ((0, .5), (math.nan, .5)),
        ((0, math.inf), (1, .5)),
        ((-math.inf, .5), (1, .5)),
    ])
    def test_rejects_non_finite(self, outcomes):
        # NaN slips past every comparison, so it needs its own check
        with pytest.raises(ValidationError, match="finite"):
            DiscreteObservable(outcomes)

    def test_bernoulli_parameter_range(self):
        with pytest.raises(ValidationError):
            bernoulli(0.0)
        with pytest.raises(ValidationError):
            bernoulli(1.0)


class TestCGF:
    def test_zero_at_origin(self):
        for p in BERNOULLI_PS:
            assert cgf(bernoulli(p), 0.0) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("p", BERNOULLI_PS)
    def test_bernoulli_closed_form(self, p):
        obs = bernoulli(p)
        for theta in (-2.0, -1.0, 0.0, 1.0, 2.0, 10.0, -30.0):
            assert cgf(obs, theta) \
                == pytest.approx(bernoulli_cgf(p, theta), abs=1e-12)

    def test_two_point_example(self):
        obs = DiscreteObservable(((0.0, 0.5), (2.0, 0.5)))
        assert cgf(obs, 1.0) \
            == pytest.approx(math.log((1.0 + math.e ** 2) / 2.0))

    def test_large_theta_no_overflow(self):
        obs = bernoulli(0.5)
        g = cgf(obs, 800.0)
        assert math.isfinite(g)
        assert g == pytest.approx(800.0 + math.log(0.5), abs=1e-9)

    def test_rejects_non_finite_theta(self):
        with pytest.raises(ValidationError):
            cgf(bernoulli(0.5), math.inf)

    def test_derivative_matches_finite_difference(self):
        obs = bernoulli(0.3)
        for theta in (-1.0, 0.0, 0.5, 2.0):
            h = 1e-6
            fd = (cgf(obs, theta + h) - cgf(obs, theta - h)) / (2 * h)
            assert cgf_prime(obs, theta) == pytest.approx(fd, abs=1e-8)

    def test_convexity_second_differences(self):
        obs = bernoulli(0.3)
        h = 1e-3
        prev2, prev1 = cgf(obs, -5.0), cgf(obs, -5.0 + h)
        theta = -5.0 + 2 * h
        while theta <= 5.0:
            cur = cgf(obs, theta)
            assert cur - 2 * prev1 + prev2 >= -1e-9
            prev2, prev1 = prev1, cur
            theta += h


class TestLegendre:
    def test_zero_at_mean(self):
        for p in BERNOULLI_PS:
            assert abs(legendre(bernoulli(p), p)) <= 1e-12

    @pytest.mark.parametrize("p", BERNOULLI_PS)
    def test_bernoulli_relative_entropy(self, p):
        obs = bernoulli(p)
        for k in range(1, 20):
            x = k / 20.0
            assert legendre(obs, x) \
                == pytest.approx(bernoulli_rate(p, x), abs=1e-9)

    def test_boundary_rejected(self):
        obs = bernoulli(0.5)
        for x in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValidationError):
                legendre(obs, x)

    def test_narrow_hull(self):
        # the root sits at |theta| ~ 7e6, where adjacent floats are further
        # apart than THETA_TOL; by the affine law
        # Gamma*_{wL}(wx) = Gamma*_L(x) the answer is the Bernoulli rate
        obs = DiscreteObservable(((0, .5), (1e-6, .5)))
        assert legendre(obs, 1e-9) == pytest.approx(
            bernoulli_rate(0.5, 1e-3), rel=1e-6)

    @pytest.mark.parametrize("a,b", [(1e-6, 0), (1e6, 0), (-1e6, 0),
                                     (-3, 7)])
    def test_affine_law(self, a, b):
        # Gamma*_{aL+b}(ax+b) = Gamma*_L(x) on interior points of the hull;
        # b stays 0 at the extreme scales, where rounding a*x + b alone
        # would move the value by more than the tolerance
        outcomes = ((-1.0, 0.2), (0.5, 0.5), (2.0, 0.3))
        obs = DiscreteObservable(outcomes)
        moved = DiscreteObservable(tuple((a * v + b, p)
                                         for v, p in outcomes))
        for k in range(1, 41):
            x = -1.0 + 3.0 * k / 41
            assert legendre(moved, a * x + b) == pytest.approx(
                legendre(obs, x), rel=1e-9)

    def test_bracket_cap(self, monkeypatch):
        # the first probe, Newton's step from 0, lands at |theta| ~ 2e6,
        # and the narrow-hull root at ~ 7e6 lies past its second doubling
        monkeypatch.setattr(largedev, "BRACKET_CAP", 2)
        obs = DiscreteObservable(((0, .5), (1e-6, .5)))
        with pytest.raises(CapExceededError, match="BRACKET_CAP=2"):
            legendre(obs, 1e-9)
        with pytest.raises(CapExceededError, match="BRACKET_CAP=2"):
            legendre(obs, 1e-6 - 1e-9)

    def test_bracket_overflow(self):
        # the root, theta ~ log(1e9) / 1e-307, is past the largest float
        obs = DiscreteObservable(((0.0, 0.5), (1e-307, 0.5)))
        with pytest.raises(CapExceededError, match="finite theta"):
            legendre(obs, 1e-307 * (1 - 1e-9))

    def test_newton_cap(self, monkeypatch):
        # the root at theta = log 3.5 takes four Newton steps after the
        # first probe
        monkeypatch.setattr(largedev, "NEWTON_CAP", 2)
        with pytest.raises(CapExceededError, match="NEWTON_CAP=2"):
            legendre(bernoulli(0.3), 0.6)

    def test_fenchel_inequality(self):
        # theta*x <= Gamma(theta) + Gamma*(x) for all theta, x
        obs = DiscreteObservable(((-1.0, 0.3), (0.0, 0.2), (1.0, 0.5)))
        for theta in (-3.0, -1.0, 0.0, 0.7, 2.5):
            g = cgf(obs, theta)
            for k in range(1, 10):
                x = -1.0 + 2.0 * k / 10.0
                assert theta * x <= g + legendre(obs, x) + 1e-9

    def test_convex_in_x(self):
        obs = bernoulli(0.4)
        xs = [0.05 + 0.9 * k / 40 for k in range(41)]
        vals = [legendre(obs, x) for x in xs]
        for i in range(1, len(vals) - 1):
            assert vals[i + 1] - 2 * vals[i] + vals[i - 1] >= -1e-9

    def test_nonnegative(self):
        obs = DiscreteObservable(((0.0, 0.25), (1.0, 0.25), (3.0, 0.5)))
        for k in range(1, 30):
            x = 3.0 * k / 30.0
            assert legendre(obs, x) >= -1e-12


def seeded_laws(seed, count, decades=6):
    """(outcomes, xs): k = 2-6 outcomes with weights down to 1e-3 on hulls
    10^-decades to 10^decades wide, offset by up to a width from 0, with
    adjacent values at least half a width over k - 1 apart; the xs reach
    within 1e-6 of a width of both ends."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(2, 6)
        width = 10.0 ** rng.uniform(-decades, decades)
        offset = width * rng.uniform(-1, 1)
        fracs = ([0.0] + [(i + rng.uniform(-0.25, 0.25)) / (k - 1)
                          for i in range(1, k - 1)] + [1.0])
        weights = [10.0 ** rng.uniform(-3, 0) for _ in fracs]
        total = sum(weights)
        outcomes = tuple((offset + width * u, w / total)
                         for u, w in zip(fracs, weights))
        lo, hi = outcomes[0][0], outcomes[-1][0]
        near = [10.0 ** -rng.uniform(1, 6) for _ in range(3)]
        xs = ([lo + (hi - lo) * t for t in near]
              + [hi - (hi - lo) * t for t in near]
              + [lo + (hi - lo) * rng.random() for _ in range(4)])
        out.append((outcomes, [x for x in xs if lo < x < hi]))
    return out


def bench_shaped_laws():
    """The distribution shapes of the benchmark's rate rung: the fixture
    Bernoullis, 3-5 values on a quarter grid of [-2, 3] with integer
    weights 1-9 and their affine images, and two three-point laws."""
    laws = [((0.0, 1.0 - p), (1.0, p)) for p in BERNOULLI_PS]
    rng = random.Random("rate-rung")
    grid = [-2.0 + 0.25 * i for i in range(21)]
    for _ in range(12):
        k = rng.randint(3, 5)
        values = sorted(rng.sample(grid, k))
        weights = [rng.randint(1, 9) for _ in range(k)]
        base = tuple((v, w / sum(weights)) for v, w in zip(values, weights))
        a, b = rng.choice((0.5, 0.75, 1.5, 2.0)), rng.choice((-1.0, 0.5, 1.0))
        laws += [base, tuple((a * v + b, p) for v, p in base)]
    laws += [((-5.0, 0.01), (0.0, 0.98), (7.0, 0.01)),
             ((-1.0, 0.2), (0.5, 0.5), (2.0, 0.3))]
    return [DiscreteObservable(law) for law in laws]


class TestConjugateRoot:
    def test_matches_bisection_oracle(self):
        # the oracle forms theta*x - Gamma(theta), which loses about
        # |theta*x| ulps; the value gaps keep |theta*x| below ~1e3
        for outcomes, xs in seeded_laws("legendre-oracle", 150):
            obs = DiscreteObservable(outcomes)
            for x in xs:
                assert abs(legendre(obs, x)
                           - bf_legendre(obs.outcomes, x)) <= 1e-12, \
                    (outcomes, x)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_residual_and_evaluations_on_bench_laws(self, scale):
        # Newton stops once its step is a few ulps of theta (or of
        # 1/width), so |Gamma'(theta) - x| <= var * step stays at rounding
        # level relative to the hull width; the first probe, Newton's step
        # from 0, makes the count independent of the hull's scale
        for law in bench_shaped_laws():
            obs = DiscreteObservable(tuple((scale * v, p)
                                           for v, p in law.outcomes))
            lo, hi = obs.support
            for k in range(1, 100):
                x = lo + (hi - lo) * k / 100
                theta, evaluations, residual, value = \
                    largedev._conjugate_root(obs, x)
                assert residual <= 1e-12 * (hi - lo), (obs, x)
                assert evaluations <= 16, (obs, x)
                assert value == legendre(obs, x)
                assert abs(cgf_prime(obs, theta) - x) <= 1e-12 * (hi - lo)

    def test_extreme_hull_widths(self):
        # the moments are taken of (l - x) over a power of two near the
        # width, so squares of l - x neither overflow (|l - x| > ~1e154)
        # nor underflow (< ~1e-154) into a variance that forces bisection
        for outcomes, xs in seeded_laws("legendre-extreme", 300, 300):
            obs = DiscreteObservable(outcomes)
            lo, hi = obs.support
            for x in xs:
                _, evaluations, residual, _ = largedev._conjugate_root(obs, x)
                assert evaluations <= 20, (outcomes, x)
                assert residual <= 1e-12 * (hi - lo), (outcomes, x)

    def test_power_of_two_scaling_is_exact(self):
        # scaling a law and x by 2^k scales every step by 2^-k exactly:
        # theta scales by 2^-k, the residual by 2^k, and the evaluation
        # count and the value stay the same, out to hulls 1e+-280 wide
        rng = random.Random("legendre-scaling")
        for outcomes, xs in seeded_laws("legendre-scaled", 60):
            lo, hi = outcomes[0][0], outcomes[-1][0]
            k = round(rng.uniform(-280, 280) * math.log2(10)
                      - math.log2(hi - lo))
            obs = DiscreteObservable(outcomes)
            moved = DiscreteObservable(tuple((math.ldexp(v, k), p)
                                             for v, p in outcomes))
            for x in xs:
                theta, evaluations, residual, value = \
                    largedev._conjugate_root(obs, x)
                assert largedev._conjugate_root(moved, math.ldexp(x, k)) \
                    == (math.ldexp(theta, -k), evaluations,
                        math.ldexp(residual, k), value), (outcomes, x, k)

    def test_exact_root_at_the_mean(self):
        # Gamma'(0) - x is exactly 0, so theta stays at 0
        obs = DiscreteObservable(((0.0, 0.5), (2.0, 0.5)))
        theta, _, residual, value = largedev._conjugate_root(obs, 1.0)
        assert (theta, residual, value) == (0.0, 0.0, 0.0)


class TestCramer:
    def test_sum_with_legendre_is_zero(self):
        obs = bernoulli(0.3)
        for k in range(1, 10):
            x = k / 10.0
            assert cramer(obs, x) + legendre(obs, x) == 0.0

    def test_nonpositive(self):
        obs = bernoulli(0.7)
        for k in range(1, 10):
            assert cramer(obs, k / 10.0) <= 1e-12

    def test_uniform_coin_rate_is_entropy_defect(self):
        # for p = 1/2: C(x) = S(x) - log 2
        obs = bernoulli(0.5)
        for k in range(1, 10):
            x = k / 10.0
            assert cramer(obs, x) \
                == pytest.approx(binary_entropy(x) - math.log(2.0),
                                 abs=1e-9)


class TestBinaryEntropy:
    def test_endpoints_vanish(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2.0))
        assert binary_entropy(0.3) < binary_entropy(0.5)

    def test_symmetry(self):
        for x in (0.1, 0.25, 0.4):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x))

    def test_domain_checked(self):
        with pytest.raises(ValidationError):
            binary_entropy(-0.1)
        with pytest.raises(ValidationError):
            binary_entropy(1.1)


class TestRateProfile:
    def test_bundles_everything(self):
        rp = RateProfile(bernoulli(0.3))
        assert rp.observable.mean == pytest.approx(0.3)
        assert rp.cgf(0.0) == pytest.approx(0.0, abs=1e-15)
        assert rp.conjugate(0.3) == pytest.approx(0.0, abs=1e-12)
        assert rp.cramer(0.5) == -rp.conjugate(0.5)
