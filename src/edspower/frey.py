"""Auxiliary curves over Q(sqrt(a)) attached to v^2 - a*u^4 = d*w^(4l).

A solution gives the curve Y^2 = X(X^2 + 4u*sqrt(a) X + 2*sqrt(a)(v +
u^2*sqrt(a))).  Its coefficients, discriminant and c4 are built directly
from their closed forms in a, u and v.  Away from the primes dividing 2ad
the discriminant is supported entirely on v +- u^2*sqrt(a); the reduction
type there is read off its valuation, and the exponent law
l | v_P(delta) is what the downstream bound ledger consumes.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd

from . import arith
from .arith import DEFAULT_BUDGET, Budget
from .errors import BudgetExhausted
from .quadfield import QuadElement, QuadPrime, _require_squarefree, prime_valuation


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
        raise BudgetExhausted(f"could not fully factor {2 * a * d}")
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
    a, u, v = s.a, s.u, s.v
    n = v * v - a * u**4
    # d*w^(4*ell) has more than 4*ell*(bits(w) - 1) bits: a right side that
    # must outgrow n is rejected before w^(4*ell) is built, which for a large
    # ell would not fit in memory
    if 4 * s.ell * (s.w.bit_length() - 1) > n.bit_length() or n != s.d * s.w ** (4 * s.ell):
        raise ValueError("v^2 - a*u^4 = d*w^(4*ell) fails")
    if (a * s.d) % gcd(u, v) != 0:
        raise ValueError("gcd(u, v) does not divide a*d")
    # last: the one factorization, of 2ad, so malformed input spends no
    # budget; its primes settle both the squarefree check and the bad set
    f = arith.factorize(2 * a * s.d, budget)
    _require_squarefree(a, f)
    return FreyCurve(
        solution=s,
        a2_coeff=QuadElement(a, 0, 4 * u),
        a4_coeff=QuadElement(a, 2 * a * u * u, 2 * v),
        # -512*a*n*(a*u^2 + v*sqrt(a)), nonzero as n = d*w^(4*ell) >= 1
        delta=QuadElement(a, -512 * a * n * (a * u * u), -512 * a * n * v),
        # the standard c4 = b2^2 - 24*b4
        c4=QuadElement(a, 160 * a * u * u, -96 * v),
        bad_primes=frozenset(f.factors),
    )


def _delta_valuation(F: FreyCurve, P: QuadPrime) -> int:
    """v_P(delta) = 2*v_P(v + u^2*sqrt(a)) + v_P(v - u^2*sqrt(a)) outside the bad set.

    prime_valuation refuses a prime of another field.
    """
    if P.p in F.bad_primes:
        raise ValueError(f"p = {P.p} is in the bad set {sorted(F.bad_primes)}")
    s = F.solution
    plus = QuadElement(s.a, s.v, s.u * s.u)
    minus = QuadElement(s.a, s.v, -(s.u * s.u))
    return 2 * prime_valuation(plus, P) + prime_valuation(minus, P)


def classify_reduction(F: FreyCurve, P: QuadPrime) -> Reduction:
    """Good or multiplicative reduction at a prime outside the bad set.

    Away from the bad set the model is minimal and semistable; observing
    v_P(delta) > 0 together with v_P(c4) > 0 would mean additive reduction
    and is reported as a fault.
    """
    if _delta_valuation(F, P) == 0:
        return Reduction.GOOD
    if prime_valuation(F.c4, P) != 0:
        raise ArithmeticError(
            f"additive reduction at p = {P.p} outside the bad set; model not semistable"
        )
    return Reduction.MULTIPLICATIVE


def exponent_divisibility(F: FreyCurve, P: QuadPrime) -> tuple[int, bool]:
    """(v_P(delta), ell | v_P(delta)) at a prime outside the bad set."""
    val = _delta_valuation(F, P)
    return val, val % F.solution.ell == 0
