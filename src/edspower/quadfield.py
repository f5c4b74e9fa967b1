"""The field K = Q(sqrt(a)) for squarefree a >= 1: elements and primes.

An element x + y*sqrt(a) of Z[sqrt(a)] is a value with integer
coordinates; the package builds its elements from closed forms and does
no arithmetic on them.  When a = 1 the field collapses to Q and y is
folded into x on construction.  prime_valuation reads v_P(z) at a prime
P over an odd rational prime from the coordinates and the norm.

primes_above factors a label under the default budget and refuses it
when a prime divides it twice or the factorization is incomplete; labels
the package builds from primes it has already found go to _primes_above
unchecked.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from math import gcd

from . import arith
from .errors import BudgetExhausted


class SplitType(str, enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


@dataclass(frozen=True)
class QuadElement:
    """x + y*sqrt(a) with integers x, y; the field label a is squarefree >= 1."""

    a: int
    x: int
    y: int = 0

    def __post_init__(self):
        if not isinstance(self.a, int) or self.a < 1:
            raise ValueError("field label a must be a positive integer")
        if not isinstance(self.x, int) or not isinstance(self.y, int):
            raise ValueError("coordinates must be integers")
        if self.a == 1 and self.y:
            # sqrt(1) = 1: the element is rational
            object.__setattr__(self, "x", self.x + self.y)
            object.__setattr__(self, "y", 0)

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __str__(self):
        if self.y == 0:
            return str(self.x)
        return f"{self.x} + {self.y}*sqrt({self.a})"


@dataclass(frozen=True)
class QuadPrime:
    """A prime of Q(sqrt(a)) over the rational prime p.

    For split primes, root is a square root of a modulo p; the two
    conjugate primes carry the two roots.  Inert and ramified primes have
    no root.
    """

    a: int
    p: int
    kind: SplitType
    root: int | None
    residue_norm: int


def _require_squarefree(a: int, f: arith.Factorization) -> None:
    """a has no square factor, read off a factorization f that holds every prime of a."""
    if any(a % (p * p) == 0 for p in f.factors):
        raise ValueError(f"a = {a} is not squarefree")
    if not f.is_complete:
        raise BudgetExhausted(f"factoring budget exhausted on cofactor {f.unfactored_cofactor}")


def _sqrt_mod_p(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p (a must be a residue), by Tonelli-Shanks.

    The search for a non-residue starts at 2, so for p = 3 mod 4 the root is
    a^((p+1)/4) and for p = 5 mod 8 it is r or r*2^((p-1)/4), r = a^((p+3)/8).
    """
    a %= p
    if a == 0:
        return 0  # Tonelli-Shanks would never see t = 1
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _primes_above(a: int, p: int) -> list[QuadPrime]:
    """primes_above for a squarefree a and a prime p, checking neither."""
    if a == 1:
        # rational field: one split entry (the two "primes" coincide with p),
        # root 1 so that x + y*root = x + y
        return [QuadPrime(a, p, SplitType.SPLIT, 1, p)]
    if a % p == 0 or (p == 2 and a % 4 == 3):
        return [QuadPrime(a, p, SplitType.RAMIFIED, None, p)]
    # a is a square mod p (mod 8 when p = 2) exactly when p splits
    if not (a % 8 == 1 if p == 2 else pow(a, (p - 1) // 2, p) == 1):
        return [QuadPrime(a, p, SplitType.INERT, None, p * p)]
    # over 2 (a = 1 mod 8) the root 1 serves both primes
    r = _sqrt_mod_p(a, p) if p != 2 else 1
    return [QuadPrime(a, p, SplitType.SPLIT, r, p), QuadPrime(a, p, SplitType.SPLIT, (p - r) % p, p)]


def primes_above(a: int, p: int) -> list[QuadPrime]:
    """The primes of Q(sqrt(a)) over p, split ones with their roots mod p."""
    if not isinstance(a, int) or a < 1:
        raise ValueError("a must be a positive integer")
    if a > 1:
        _require_squarefree(a, arith.factorize(a))
    if p < 2 or not arith.is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    return _primes_above(a, p)


def prime_valuation(z: QuadElement, P: QuadPrime) -> int:
    """v_P(z) at a split or inert prime P over an odd p not dividing a.

    With g = gcd(x, y) and z = g*z', P and its conjugate cannot both divide
    z', as their product p would divide both coordinates of z'.  So v_P(z)
    is v_p(g), plus v_p(N(z')) when P is split and x' + y'*root = 0 (mod p).
    """
    if P.a != z.a:
        raise ValueError("element and prime live in different fields")
    if z.is_zero:
        raise ValueError("valuation of 0 is infinite")
    if P.p == 2:
        raise ValueError("valuations at primes over 2 are out of scope")
    if z.a % P.p == 0:
        raise ValueError("valuations at primes dividing a are out of scope")
    if P.kind is SplitType.RAMIFIED:
        raise ValueError("valuations at ramified primes are out of scope")
    g = gcd(z.x, z.y)
    v = arith.valuation(g, P.p)
    if P.kind is SplitType.SPLIT:
        x, y = z.x // g, z.y // g
        if (x + y * P.root) % P.p == 0:
            v += arith.valuation(x * x - z.a * y * y, P.p)
    return v
