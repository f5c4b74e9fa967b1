"""Elliptic divisibility sequences.

The multiples of a non-torsion rational point P on y^2 = x(x^2 + b) have
the shape mP = (A_m / B_m^2, C_m / B_m^3) in lowest terms with B_m > 0.
This module reads the triples off the integer elliptic net of P
(curve.net), single terms and whole prefixes alike, and checks the
divisibility laws the sequence {B_m} satisfies: strong divisibility,
valuation growth, primitive divisors, and scans for perfect powers among
the terms.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import arith
from .arith import Budget, DEFAULT_BUDGET
from .curve import Curve, Point, net


@dataclass(frozen=True)
class EDSTerm:
    """Normalized triple for mP = (A/B^2, C/B^3), gcd(A,B) = gcd(C,B) = 1, B > 0."""

    m: int
    A: int
    B: int
    C: int


@dataclass(frozen=True)
class Sequence:
    curve: Curve
    generator: Point
    terms: tuple[EDSTerm, ...]


@dataclass(frozen=True)
class PrimitiveDivisors:
    """Primes dividing B_m but no earlier term.

    complete is False when the factoring budget left a composite cofactor,
    in which case further primitive primes may exist beyond those listed.
    """

    primes: frozenset[int]
    complete: bool


def term(c: Curve, P: Point, m: int) -> EDSTerm:
    """The m-th sequence triple for generator P."""
    if m < 1:
        raise ValueError("index m must be positive")
    return EDSTerm(m, *net(c, P)(m))


def generate(c: Curve, P: Point, M: int) -> Sequence:
    """Terms 1..M of the sequence of generator P."""
    if M < 1:
        raise ValueError("M must be positive")
    return extend(Sequence(c, P, ()), M)


def extend(s: Sequence, M: int) -> Sequence:
    """A sequence with at least M terms, reusing the ones already computed.

    Terms L+1..M come from a fresh net of the generator, whose memo
    reaches them in about 2(M - L) net steps.
    """
    if M <= len(s.terms):
        return s
    f = net(s.curve, s.generator)
    new = tuple(EDSTerm(m, *f(m)) for m in range(len(s.terms) + 1, M + 1))
    return Sequence(s.curve, s.generator, s.terms + new)


def _get_B(s: Sequence, m: int) -> int:
    if not 1 <= m <= len(s.terms):
        raise ValueError(f"index {m} outside the generated range 1..{len(s.terms)}")
    return s.terms[m - 1].B


def check_strong_divisibility(s: Sequence, m: int, n: int) -> bool:
    """gcd(B_m, B_n) = B_gcd(m,n)?"""
    return gcd(_get_B(s, m), _get_B(s, n)) == _get_B(s, gcd(m, n))


def check_valuation_growth(s: Sequence, p: int, n: int, k: int) -> bool:
    """v_p(B_{nk}) = v_p(B_n) + v_p(k)?  Requires v_p(B_n) > 0."""
    if k < 1:
        raise ValueError("multiplier k must be positive")
    v_n = arith.valuation(_get_B(s, n), p)
    if v_n == 0:
        raise ValueError(f"v_{p}(B_{n}) = 0; the growth law needs a positive valuation")
    return arith.valuation(_get_B(s, n * k), p) == v_n + arith.valuation(k, p)


def primitive_divisors(s: Sequence, m: int, budget: Budget = DEFAULT_BUDGET) -> PrimitiveDivisors:
    """Primes dividing B_m but none of B_1 .. B_{m-1}, up to factoring effort.

    By strong divisibility the first index whose term a prime divides
    divides every index whose term it divides, so a prime of B_m is
    primitive exactly when it divides no B_{m/r} for a prime r | m.  A term
    B_m = 1 needs no case of its own: factorize(1) is empty and complete.
    """
    f = arith.factorize(_get_B(s, m), budget)
    below = [_get_B(s, m // r) for r, _, _ in arith.trial_factors(m, m)]
    prim = frozenset(p for p in f.factors if all(B % p for B in below))
    return PrimitiveDivisors(prim, f.is_complete)


def scan_powers(s: Sequence) -> list[tuple[int, int, int]]:
    """All (m, ell, w) with B_m = w**ell > 1 and ell >= 2 maximal.

    Terms equal to 1 are never reported: the power scan tracks w > 1.
    """
    hits = []
    for t in s.terms:
        if t.B > 1:
            pp = arith.perfect_power(t.B)
            if pp is not None:
                w, ell = pp
                hits.append((t.m, ell, w))
    return hits
