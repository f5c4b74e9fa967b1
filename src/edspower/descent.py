"""Quartic descent from sequence terms on y^2 = x(x^2 + b).

A term mP = (A/B^2, C/B^3) with B = w^l satisfies C^2 = A(A^2 + b*w^(4l)).
Splitting A = a*u^2 into squarefree and square parts forces A^2 + b*w^(4l)
= a*v^2 with |C| = a*u*v, which rearranges to the quartic equation
v^2 - a*u^4 = (b/a)*w^(4l) feeding the curve construction over Q(sqrt(a)).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod

from .arith import DEFAULT_BUDGET, Budget, exact_root, valuation
from .curve import Curve
from .eds import EDSTerm
from .errors import HypothesisError, _require_positive
from .frey import FreySolution, bad_set


@dataclass(frozen=True)
class DescentDatum:
    """The decomposition data of one sequence term.

    A = a*u^2 with a squarefree dividing b; v^2 - a*u^4 = (b/a)*w^(4*ell);
    C = (sign) * a*u*v with u, v positive; w^ell = B.
    """

    m: int
    a: int
    u: int
    v: int
    w: int
    ell: int
    b: int


def decompose(c: Curve, t: EDSTerm, ell: int, w: int, budget: Budget = DEFAULT_BUDGET) -> DescentDatum:
    """Decompose a term whose B equals w**ell.

    The harness mode ell = 1, w = B exercises every identity on arbitrary
    terms; genuine power mode passes the actual root and exponent.  The
    budget covers factoring 2b; A is never factored.
    """
    b = c.b
    _require_positive(ell, "ell")
    _require_positive(w, "w")
    if t.A == 0:
        raise HypothesisError("term comes from the 2-torsion point (0, 0)")
    if exact_root(t.B, ell) != w:
        raise ValueError("w^ell does not equal B")
    if t.C * t.C != t.A * (t.A * t.A + b * t.B**4):
        raise ArithmeticError("term fails C^2 = A(A^2 + b*B^4)")

    # the check above rejects A < 0 and, as A = a*u^2 with a squarefree, gives
    # |C| = a*u*v with a*v^2 = A^2 + b*w^(4*ell): the quartic once a | b.  So
    # a is the product of the primes of b at which A has odd valuation, and
    # A = a*u^2 holds exactly when A / a is a square
    a = prod(p for p in bad_set(1, b, budget) if b % p == 0 and valuation(t.A, p) % 2)
    u = isqrt(t.A // a)
    if a * u * u != t.A:
        raise ArithmeticError("squarefree part of A does not divide b")
    v = abs(t.C) // (a * u)
    if b % gcd(u, v) != 0:
        raise ArithmeticError("gcd(u, v) does not divide b")
    return DescentDatum(m=t.m, a=a, u=u, v=v, w=w, ell=ell, b=b)


def to_frey(d: DescentDatum) -> FreySolution:
    """Map the descent datum to the quartic-equation solution it witnesses."""
    return FreySolution(a=d.a, d=d.b // d.a, u=d.u, v=d.v, w=d.w, ell=d.ell)
