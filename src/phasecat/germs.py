"""Polynomial germs in up to three variables, with a small parser.

Terms map exponent tuples to rational coefficients; the constant term must
vanish (these are germs of functions vanishing at the origin).  The parser
is a recursive-descent reader for expressions over x, y, z with +, -, *,
^ and parenthesized subexpressions; coefficients may be integers or
rationals written p/q.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import CapExceededError, Frozen, ValidationError

MAX_VARIABLES = 3
#: Largest degree of a power (exponent times base degree, a constant base
#: counting as 1) or a product (its factors' degrees added up), checked
#: before either is multiplied out on integer coefficients.
DEGREE_CAP = 200
VAR_NAMES = ("x", "y", "z")


class PolyGerm(Frozen):
    __slots__ = _fields = ("variable_count", "terms")

    def __init__(self, variable_count: int,
                 terms: tuple[tuple[tuple[int, ...], Fraction], ...]):
        if not 1 <= variable_count <= MAX_VARIABLES:
            raise ValidationError(
                f"variable count must be 1..{MAX_VARIABLES}")
        canon = {}
        for exps, coeff in terms:
            exps = tuple(map(int, exps))
            if len(exps) != variable_count:
                raise ValidationError("exponent tuple length mismatch")
            if min(exps) < 0:
                raise ValidationError("negative exponent")
            # a Fraction is kept as it is; sums only on a repeated exponent
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            canon[exps] = canon[exps] + coeff if exps in canon else coeff
        canon = {e: canon[e] for e in sorted(canon) if canon[e]}
        zero = (0,) * variable_count
        if zero in canon:
            raise ValidationError("nonzero constant term: not a germ "
                                  "vanishing at 0")
        object.__setattr__(self, "variable_count", variable_count)
        object.__setattr__(self, "terms", tuple(canon.items()))

    def derivative(self, var: int) -> dict[tuple[int, ...], Fraction]:
        # distinct terms have distinct derivatives, none of them zero
        return {e[:var] + (e[var] - 1,) + e[var + 1:]: c * e[var]
                for e, c in self.terms if e[var]}

    def __str__(self):
        parts = []  # a sign, then a monomial, per term
        for exps, coeff in self.terms:
            factors = [str(abs(coeff))] if abs(coeff) != 1 or not any(exps) \
                else []
            factors += [VAR_NAMES[v] + (f"^{e}" if e > 1 else "")
                        for v, e in enumerate(exps) if e]
            parts += ["-" if coeff < 0 else "+", "*".join(factors)]
        if not parts:
            return "0"
        return ("-" if parts[0] == "-" else "") + " ".join(parts[1:])


class ParseError(ValidationError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


_TOKEN = re.compile(r"\s*(\d+|[xyz]|[-+*^()/])")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                bad_at = len(text) - len(stripped)
                raise ParseError(f"unexpected character {stripped[0]!r}",
                                 bad_at)
            self.tokens.append((m.group(1), m.start(1)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def here(self) -> int:
        return (self.tokens[self.i][1] if self.i < len(self.tokens)
                else len(self.text))

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok[0]

    def expr(self) -> dict[tuple[int, int, int], Fraction]:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        total = self.term()
        if sign < 0:
            total = _add({}, total, sign)
        while self.peek() in ("+", "-"):
            sign = 1 if self.take() == "+" else -1
            total = _add(total, self.term(), sign)
        return total

    def term(self) -> dict[tuple[int, int, int], Fraction]:
        pos, factors = self.here(), [self.factor()]
        degree = max(map(sum, factors[0]), default=0)
        while self.peek() == "*":
            self.take()
            factors.append(self.factor())
            degree += max(map(sum, factors[-1]), default=0)
            if degree > DEGREE_CAP:
                raise CapExceededError(
                    f"product of degree {degree} or more at position {pos} "
                    f"exceeds DEGREE_CAP={DEGREE_CAP}")
        if len(factors) == 1:
            return factors[0]
        out, den = {(0, 0, 0): 1}, 1
        for d, scaled in map(integer_terms, factors):
            out, den = _mul(out, scaled), den * d
        return {e: Fraction(c, den) for e, c in out.items()}

    def factor(self) -> dict[tuple[int, int, int], Fraction]:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            pos = self.here()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            tok = self.peek()
            if tok is None or not tok.isdigit():
                raise ParseError("exponent must be an integer", pos)
            self.take()
            if neg:
                raise ParseError("negative exponent", pos)
            power = int(tok)
            degree = max([sum(e) for e in base] + [1])
            if power * degree > DEGREE_CAP:
                raise CapExceededError(
                    f"power {power} of a degree-{degree} base at position "
                    f"{pos} exceeds DEGREE_CAP={DEGREE_CAP}")
            den, scaled = integer_terms(base)
            return {e: Fraction(c, den ** power)
                    for e, c in _power(scaled, power).items()}
        return base

    def atom(self) -> dict[tuple[int, int, int], Fraction]:
        tok = self.peek()
        pos = self.here()
        if tok is None:
            raise ParseError("unexpected end of expression", pos)
        if tok == "(":
            self.take()
            inner = self.expr()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.here())
            self.take()
            return inner
        if tok in VAR_NAMES:
            self.take()
            exps = [0, 0, 0]
            exps[VAR_NAMES.index(tok)] = 1
            return {tuple(exps): Fraction(1)}
        if tok.isdigit():
            self.take()
            num = int(tok)
            if self.peek() == "/":
                self.take()
                den_tok = self.peek()
                if den_tok is None or not den_tok.isdigit():
                    raise ParseError("expected denominator", self.here())
                self.take()
                if not int(den_tok):
                    raise ParseError("zero denominator", pos)
                return {(0, 0, 0): Fraction(num, int(den_tok))}
            return {(0, 0, 0): Fraction(num)}
        raise ParseError(f"unexpected token {tok!r}", pos)


def _add(a, b, sign: int):
    """a + sign * b."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c != 0}


def integer_terms(terms) -> tuple[int, dict]:
    """(den, N) with terms = N / den: integer coefficients over the lcm
    of the Fraction coefficients' denominators."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, {e: c.numerator * (den // c.denominator)
                 for e, c in terms.items()}


def _mul(a, b):
    """Product of two term dicts; coefficients may be Fractions or ints."""
    out: dict[tuple[int, int, int], Fraction | int] = {}
    get = out.get
    for (b0, b1, b2), cb in b.items():
        for (a0, a1, a2), ca in a.items():
            e = (a0 + b0, a1 + b1, a2 + b2)
            out[e] = get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c != 0}


def _power(base, n: int):
    """base^n for a term dict with integer coefficients.

    One term t is peeled off, base = t + R, and (t + R)^n = sum_k C(n, k)
    t^(n-k) R^k: R^k comes from the linear ``_mul`` loop (a squaring step
    of a dense base costs more than the whole loop), and t^(n-k) and
    C(n, k) are single terms taken from their neighbours.
    """
    if not base:
        return {} if n else {(0, 0, 0): 1}
    (te, tc), *rest = base.items()
    rest = dict(rest)
    t_powers = [((0, 0, 0), 1)]
    for _ in range(n):
        e, c = t_powers[-1]
        t_powers.append(((e[0] + te[0], e[1] + te[1], e[2] + te[2]), c * tc))
    out: dict[tuple[int, int, int], int] = {}
    r_power, binomial = {(0, 0, 0): 1}, 1
    for k in range(n + 1):
        (e0, e1, e2), c = t_powers[n - k]
        c *= binomial
        for e, cr in r_power.items():
            key = (e[0] + e0, e[1] + e1, e[2] + e2)
            out[key] = out.get(key, 0) + c * cr
        if k == n or not rest:
            break
        r_power = _mul(r_power, rest)
        binomial = binomial * (n - k) // (k + 1)
    return {e: c for e, c in out.items() if c != 0}


def parse_germ(text: str) -> PolyGerm:
    """Parse an expression over x, y, z into a PolyGerm.

    Rejects unknown characters, negative exponents and a nonzero constant
    term, reporting the offending position where applicable.
    """
    parser = _Parser(text)
    terms = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input {parser.peek()!r}", parser.here())
    used = [v for v in range(MAX_VARIABLES)
            if any(e[v] for e in terms)]
    nvars = (max(used) + 1) if used else 1
    trimmed = {e[:nvars]: c for e, c in terms.items()}
    return PolyGerm(nvars, tuple(trimmed.items()))
