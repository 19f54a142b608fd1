"""Cumulant generating functions, Legendre transforms and Cramer functions
for finite discrete observables.

The CGF Gamma(theta) = log E exp(theta L) is evaluated with a max-shift for
overflow safety.  The convex conjugate Gamma*(x) = sup_theta (theta x -
Gamma(theta)) is found by monotone root-finding on Gamma'(theta) = x
(bisection bracketed by strict convexity, polished with damped Newton
steps); the Cramer function is its negative.  Natural logarithms
throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapExceededError, ValidationError

PROB_TOL = 1e-12
THETA_TOL = 1e-12
# theta = +-2^k stays finite for k < 1024
BRACKET_CAP = 1024
# halving the widest finite bracket down to adjacent floats takes about
# 2100 steps
BISECTION_CAP = 2200


@dataclass(frozen=True)
class DiscreteObservable:
    """A finite distribution of (value, probability) outcomes."""
    outcomes: tuple[tuple[float, float], ...]

    def __post_init__(self):
        outcomes = tuple((float(v), float(p)) for v, p in self.outcomes)
        object.__setattr__(self, "outcomes", outcomes)
        # NaN passes every comparison below, so check finiteness first
        if not all(math.isfinite(v) and math.isfinite(p)
                   for v, p in outcomes):
            raise ValidationError(
                "outcome values and probabilities must be finite")
        if any(p <= 0 for _, p in outcomes):
            raise ValidationError("probabilities must be positive")
        total = sum(p for _, p in outcomes)
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"probabilities sum to {total}, not 1")
        if len({v for v, _ in outcomes}) < 2:
            raise ValidationError(
                "need at least 2 distinct values for a nondegenerate "
                "conjugate domain")

    @property
    def mean(self) -> float:
        return sum(v * p for v, p in self.outcomes)

    @property
    def support(self) -> tuple[float, float]:
        values = [v for v, _ in self.outcomes]
        return min(values), max(values)


def bernoulli(p: float) -> DiscreteObservable:
    if not 0 < p < 1:
        raise ValidationError("Bernoulli parameter must be in (0,1)")
    return DiscreteObservable(((0.0, 1.0 - p), (1.0, p)))


def cgf(obs: DiscreteObservable, theta: float) -> float:
    """Gamma(theta) = log sum p_i exp(theta l_i), max-shifted."""
    if not math.isfinite(theta):
        raise ValidationError("theta must be finite")
    shift = max(theta * v for v, _ in obs.outcomes)
    return shift + math.log(
        sum(p * math.exp(theta * v - shift) for v, p in obs.outcomes))


def _tilted_moments(obs: DiscreteObservable, theta: float):
    shift = max(theta * v for v, _ in obs.outcomes)
    z = [(v, p * math.exp(theta * v - shift)) for v, p in obs.outcomes]
    total = sum(w for _, w in z)
    m1 = sum(v * w for v, w in z) / total
    m2 = sum(v * v * w for v, w in z) / total
    return m1, m2 - m1 * m1


def cgf_prime(obs: DiscreteObservable, theta: float) -> float:
    """Gamma'(theta): the mean of the exponentially tilted distribution;
    strictly increasing in theta."""
    return _tilted_moments(obs, theta)[0]


def legendre(obs: DiscreteObservable, x: float) -> float:
    """Gamma*(x) = sup_theta (theta x - Gamma(theta)).

    Defined for x strictly inside the outcome hull; boundary or outside
    points have an infinite (or boundary-limit) rate and are rejected.
    """
    lo, hi = obs.support
    if not lo < x < hi:
        raise ValidationError(
            f"x={x} outside the open outcome hull ({lo}, {hi}); "
            "rate is infinite or a boundary limit")
    a, b = -1.0, 1.0
    for _ in range(BRACKET_CAP):
        if not cgf_prime(obs, a) > x:
            break
        a *= 2.0
    else:
        raise CapExceededError(
            f"no lower theta bracket for x={x} within BRACKET_CAP="
            f"{BRACKET_CAP} doublings")
    for _ in range(BRACKET_CAP):
        if not cgf_prime(obs, b) < x:
            break
        b *= 2.0
    else:
        raise CapExceededError(
            f"no upper theta bracket for x={x} within BRACKET_CAP="
            f"{BRACKET_CAP} doublings")
    for _ in range(BISECTION_CAP):
        mid = 0.5 * (a + b)
        # stop at the tolerance, or when no float lies strictly between
        if b - a <= THETA_TOL or mid in (a, b):
            break
        if cgf_prime(obs, mid) < x:
            a = mid
        else:
            b = mid
    else:
        raise CapExceededError(
            f"bisection for x={x} did not settle within BISECTION_CAP="
            f"{BISECTION_CAP} steps")
    theta = 0.5 * (a + b)
    for _ in range(4):
        m1, var = _tilted_moments(obs, theta)
        if var <= 0:
            break
        step = (m1 - x) / var
        if abs(step) > 1.0:
            step = math.copysign(1.0, step)
        theta -= step
    return theta * x - cgf(obs, theta)


def cramer(obs: DiscreteObservable, x: float) -> float:
    """C(x) = -Gamma*(x)."""
    return -legendre(obs, x)


def binary_entropy(x: float) -> float:
    """S(x) = -x log x - (1-x) log(1-x); endpoint limits are 0."""
    if not 0 <= x <= 1:
        raise ValidationError("binary entropy needs x in [0,1]")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


@dataclass
class RateProfile:
    """An observable bundled with its CGF, conjugate and Cramer function."""
    observable: DiscreteObservable

    @property
    def mean_value(self) -> float:
        return self.observable.mean

    def cgf(self, theta: float) -> float:
        return cgf(self.observable, theta)

    def conjugate(self, x: float) -> float:
        return legendre(self.observable, x)

    def cramer(self, x: float) -> float:
        return cramer(self.observable, x)
