"""Cumulant generating functions, Legendre transforms and Cramer functions
for finite discrete observables.

The CGF Gamma(theta) = log E exp(theta L) is evaluated with a max-shift for
overflow safety.  The convex conjugate Gamma*(x) = sup_theta (theta x -
Gamma(theta)) is found by solving Gamma'(theta) = x, which has one root
since Gamma' is strictly increasing: Newton's step from theta = 0 is
doubled until it brackets the root, and Newton steps converge on it from
the end nearer the root, with a bisection whenever a step leaves the
bracket or fails to halve the step before last.  One pass over the
outcomes gives Gamma, Gamma' and Gamma'' together, so the last step also
gives the rate.
The Cramer function is the conjugate's negative.  Natural logarithms
throughout.
"""

from __future__ import annotations

import math
import sys

from .errors import CapExceededError, Frozen, ValidationError

PROB_TOL = 1e-12
# doubling a positive float overflows within 2098 steps (2^-1074 to
# 2^1024), so the overflow check ends a bracket search before this cap
BRACKET_CAP = 2100
# every step halves something: a bisection the bracket, an accepted
# Newton step the step before last; between the widest finite bracket
# and adjacent floats each can halve about 2100 times, hence twice that
NEWTON_CAP = 4400


class DiscreteObservable(Frozen):
    """A finite distribution of (value, probability) outcomes."""
    __slots__ = _fields = ("outcomes",)

    def __init__(self, outcomes: tuple[tuple[float, float], ...]):
        outcomes = tuple((float(v), float(p)) for v, p in outcomes)
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
    return _tilted(obs, theta, 0.0)[0]


def _tilted(obs: DiscreteObservable, theta: float, center: float,
            unit: float = 1.0):
    """(Gamma(theta) - theta*center, (Gamma'(theta) - center)/unit,
    Gamma''(theta)/unit**2) in one max-shifted pass over the outcomes.

    The tilted mean and variance are taken of (l - center)/unit: centred
    at the target x, the variance near the root and the residual
    Gamma' - x come out without cancellation, and with ``unit`` a power of
    two on the scale of the hull width the squares neither overflow nor
    underflow, whatever that width.
    """
    shift = max(theta * (v - center) for v, _ in obs.outcomes)
    total = s1 = s2 = 0.0
    for v, p in obs.outcomes:
        d = v - center
        w = p * math.exp(theta * d - shift)
        total += w
        d /= unit
        s1 += d * w
        s2 += d * d * w
    m1 = s1 / total
    return shift + math.log(total), m1, s2 / total - m1 * m1


def cgf_prime(obs: DiscreteObservable, theta: float) -> float:
    """Gamma'(theta): the mean of the exponentially tilted distribution;
    strictly increasing in theta."""
    return _tilted(obs, theta, 0.0)[1]


def _conjugate_root(obs: DiscreteObservable, x: float):
    """Solve Gamma'(theta) = x by safeguarded Newton (rtsafe: Press et al.,
    Numerical Recipes, section 9.4).

    Returns ``(theta, evaluations, residual, value)``: the root, the number
    of moment evaluations spent on it, |Gamma'(theta) - x| and Gamma*(x),
    the last two read off the final evaluation.
    """
    lo, hi = obs.support
    if not lo < x < hi:
        raise ValidationError(
            f"x={x} outside the open outcome hull ({lo}, {hi}); "
            "rate is infinite or a boundary limit")
    # moments in units of a power of two at most twice the hull width,
    # which scales them exactly (f = (Gamma' - x)/unit, var = Gamma''/unit**2)
    # and keeps the squares of l - x finite and normal; a step in theta
    # is then -f/var/unit
    unit = math.ldexp(1.0, math.frexp(0.5 * hi - 0.5 * lo)[1] + 1)
    theta = 0.0
    state = g, f, var = _tilted(obs, theta, x, unit)
    evaluations = 1
    # The first probe is Newton's step from 0, which puts theta on the
    # scale of the root whatever the hull width (or +-1 when that step
    # is 0 or not finite); it doubles until Gamma' - x changes sign, and
    # Newton goes on from the end of that bracket nearer the root.
    side = math.copysign(1.0, f)
    end = -f / var / unit if var > 0 else math.inf
    if not 0 < abs(end) < math.inf:
        end = -side
    for _ in range(BRACKET_CAP):
        at_end = _tilted(obs, end, x, unit)
        evaluations += 1
        if not at_end[1] * side > 0:
            break
        theta, state, end = end, at_end, 2.0 * end
        if math.isinf(end):
            break
    if at_end[1] * side > 0:
        raise CapExceededError(
            f"no {'lower' if side > 0 else 'upper'} theta bracket for "
            f"x={x} within BRACKET_CAP={BRACKET_CAP} doublings of a "
            "finite theta")
    a, b = min(theta, end), max(theta, end)
    if abs(at_end[1]) < abs(state[1]):
        theta, state = end, at_end
    g, f, var = state
    # Newton stops at a step of 4 ulps of theta, or of 1/width when theta
    # is smaller: theta enters only through theta*(l - x), whose spread
    # is the hull width
    floor = sys.float_info.epsilon / (hi - lo)
    step = last = b - a
    for _ in range(NEWTON_CAP):
        if f > 0:
            b = theta
        elif f < 0:
            a = theta
        else:
            break
        tol = 4 * max(math.ulp(theta), floor)
        newton = -f / var / unit if var > 0 else math.inf
        if abs(newton) <= tol:
            break
        # bisect when Newton leaves the bracket or does not halve the
        # step before last
        if a < theta + newton < b and abs(newton) <= 0.5 * abs(last):
            last, step = step, newton
            theta += newton
        else:
            mid = 0.5 * (a + b)
            if b - a <= tol or mid in (a, b):
                break
            last, step = step, mid - theta
            theta = mid
        g, f, var = _tilted(obs, theta, x, unit)
        evaluations += 1
    else:
        raise CapExceededError(
            f"root of Gamma'(theta) = x for x={x} not settled within "
            f"NEWTON_CAP={NEWTON_CAP} steps")
    return theta, evaluations, abs(f) * unit, -g


def legendre(obs: DiscreteObservable, x: float) -> float:
    """Gamma*(x) = sup_theta (theta x - Gamma(theta)).

    Defined for x strictly inside the outcome hull; boundary or outside
    points have an infinite (or boundary-limit) rate and are rejected.
    """
    return _conjugate_root(obs, x)[3]


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


class RateProfile:
    """An observable bundled with its CGF, conjugate and Cramer function."""
    __slots__ = ("observable",)

    def __init__(self, observable: DiscreteObservable):
        self.observable = observable

    def cgf(self, theta: float) -> float:
        return cgf(self.observable, theta)

    def conjugate(self, x: float) -> float:
        return legendre(self.observable, x)

    def cramer(self, x: float) -> float:
        return cramer(self.observable, x)
