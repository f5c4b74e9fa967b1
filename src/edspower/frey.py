"""Auxiliary curves over Q(sqrt(a)) attached to v^2 - a*u^4 = d*w^(4l).

A solution gives the curve Y^2 = X(X^2 + 4u*sqrt(a) X + 2*sqrt(a)(v +
u^2*sqrt(a))).  Its discriminant and c4 have closed forms supported, away
from the primes dividing 2ad, entirely on v +- u^2*sqrt(a); the reduction
type there is read off the discriminant valuation, and the exponent law
l | v_P(delta) is what the downstream bound ledger consumes.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd

from . import arith
from .arith import DEFAULT_BUDGET, Budget
from .errors import BudgetExhausted
from .quadfield import QuadElement, QuadPrime, prime_valuation


class Reduction(str, enum.Enum):
    GOOD = "good"
    MULTIPLICATIVE = "multiplicative"


@dataclass(frozen=True)
class FreySolution:
    """(a, d, u, v, w, ell) with v^2 - a*u^4 = d*w^(4*ell).

    a is squarefree >= 1, d >= 1, u, v, w nonzero, gcd(u, v) | a*d.  ell is
    carried as data and not required prime; fixtures use ell = 1 to
    exercise the formulas on real sequence data.
    """

    a: int
    d: int
    u: int
    v: int
    w: int
    ell: int


@dataclass(frozen=True)
class FreyCurve:
    solution: FreySolution
    a2_coeff: QuadElement  # 4u*sqrt(a)
    a4_coeff: QuadElement  # 2*sqrt(a)*(v + u^2*sqrt(a))
    delta: QuadElement
    c4: QuadElement
    bad_primes: frozenset[int]

    @property
    def field_label(self) -> int:
        return self.solution.a


def bad_set(a: int, d: int, budget: Budget = DEFAULT_BUDGET) -> set[int]:
    """The rational primes dividing 2*a*d."""
    f = arith.factorize(2 * a * d, budget)
    if not f.is_complete:
        raise BudgetExhausted(f"could not fully factor 2ad = {2 * a * d}")
    return set(f.factors)


def construct(s: FreySolution, budget: Budget = DEFAULT_BUDGET) -> FreyCurve:
    """Validate the solution and build the curve with closed-form invariants."""
    if s.a < 1:
        raise ValueError("a must be a positive integer")
    if s.d < 1:
        raise ValueError("d must be a positive integer")
    if s.u == 0 or s.v == 0 or s.w == 0:
        raise ValueError("u, v, w must all be nonzero")
    if s.ell < 1:
        raise ValueError("ell must be a positive integer")
    # |v^2 - a*u^4| has at most lhs_bits bits and d*w^(4*ell) at least
    # 4*ell*(bits(w) - 1): a right side that must be larger is rejected before
    # w^(4*ell) is built, which for a large ell would not fit in memory
    lhs_bits = max(2 * s.v.bit_length(), s.a.bit_length() + 4 * s.u.bit_length()) + 1
    if (4 * s.ell * (s.w.bit_length() - 1) > lhs_bits
            or s.v**2 - s.a * s.u**4 != s.d * s.w ** (4 * s.ell)):
        raise ValueError("v^2 - a*u^4 = d*w^(4*ell) fails")
    if (s.a * s.d) % gcd(s.u, s.v) != 0:
        raise ValueError("gcd(u, v) does not divide a*d")
    # last: the one factorization, of 2ad, so malformed input spends no
    # budget; its primes settle both the squarefree check and the bad set
    f = arith.factorize(2 * s.a * s.d, budget)
    if any(s.a % (p * p) == 0 for p in f.factors):
        raise ValueError(f"a = {s.a} is not squarefree")
    if not f.is_complete:
        raise BudgetExhausted(f"factoring budget exhausted on cofactor {f.unfactored_cofactor}")

    a, u, v = s.a, s.u, s.v
    sqrt_a = QuadElement(a, 0, 1)
    plus = QuadElement(a, v, u * u)  # v + u^2*sqrt(a)
    minus = QuadElement(a, v, -(u * u))  # v - u^2*sqrt(a)
    a2_coeff = 4 * u * sqrt_a
    a4_coeff = 2 * sqrt_a * plus
    # nonzero: v = +-u^2*sqrt(a) would make v^2 - a*u^4 = 0 < d*w^(4*ell)
    delta = -512 * a * sqrt_a * plus * plus * minus
    # sign convention follows the standard c4 = b2^2 - 24 b4, which expands
    # here to 160*a*u^2 - 96*v*sqrt(a)
    c4 = 32 * sqrt_a * (5 * u * u * sqrt_a - 3 * v)
    return FreyCurve(
        solution=s,
        a2_coeff=a2_coeff,
        a4_coeff=a4_coeff,
        delta=delta,
        c4=c4,
        bad_primes=frozenset(f.factors),
    )


def _require_good_prime(F: FreyCurve, P: QuadPrime) -> None:
    if P.a != F.field_label:
        raise ValueError("prime and curve live in different fields")
    if P.p in F.bad_primes:
        raise ValueError(f"p = {P.p} is in the bad set {sorted(F.bad_primes)}")


def classify_reduction(F: FreyCurve, P: QuadPrime) -> Reduction:
    """Good or multiplicative reduction at a prime outside the bad set.

    Away from the bad set the model is minimal and semistable; observing
    v_P(delta) > 0 together with v_P(c4) > 0 would mean additive reduction
    and is reported as a fault.
    """
    _require_good_prime(F, P)
    if prime_valuation(F.delta, P) == 0:
        return Reduction.GOOD
    if prime_valuation(F.c4, P) != 0:
        raise ArithmeticError(
            f"additive reduction at p = {P.p} outside the bad set; model not semistable"
        )
    return Reduction.MULTIPLICATIVE


def exponent_divisibility(F: FreyCurve, P: QuadPrime) -> tuple[int, bool]:
    """(v_P(delta), ell | v_P(delta)) at a prime outside the bad set.

    The valuation is computed from the factor supported outside the bad
    set: v_P(delta) = 2*v_P(v + u^2*sqrt(a)) + v_P(v - u^2*sqrt(a)).
    """
    _require_good_prime(F, P)
    s = F.solution
    plus = QuadElement(s.a, s.v, s.u * s.u)
    minus = QuadElement(s.a, s.v, -(s.u * s.u))
    val = 2 * prime_valuation(plus, P) + prime_valuation(minus, P)
    return val, val % s.ell == 0
