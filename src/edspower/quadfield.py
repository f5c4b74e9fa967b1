"""Arithmetic in K = Q(sqrt(a)) for squarefree a >= 1.

Elements are kept in Z[sqrt(a)] coordinates x + y*sqrt(a).  When a = 1 the
field collapses to Q and y is folded into x on construction.  Valuations
are only ever requested at odd unramified primes p not dividing 2a; there
the index of Z[sqrt(a)] in the maximal order is invertible, so the
coordinate restriction is harmless.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from . import arith
from .arith import DEFAULT_BUDGET, Budget


class SplitType(str, enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


@dataclass(frozen=True)
class QuadElement:
    """x + y*sqrt(a) with rational x, y; the field label a is squarefree >= 1."""

    a: int
    x: Fraction
    y: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.a, int) or self.a < 1:
            raise ValueError("field label a must be a positive integer")
        x = Fraction(self.x)
        y = Fraction(self.y)
        if self.a == 1:
            # sqrt(1) = 1: the element is rational
            x, y = x + y, Fraction(0)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def norm(self) -> Fraction:
        return self.x * self.x - self.a * self.y * self.y

    def conjugate(self) -> "QuadElement":
        return QuadElement(self.a, self.x, -self.y)

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    @property
    def is_integral(self) -> bool:
        return self.x.denominator == 1 and self.y.denominator == 1

    def _coerce(self, other):
        if isinstance(other, QuadElement):
            if other.a != self.a:
                raise ValueError("elements live in different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElement(self.a, Fraction(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElement(self.a, self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __neg__(self):
        return QuadElement(self.a, -self.x, -self.y)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElement(self.a, self.x - o.x, self.y - o.y)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElement(
            self.a,
            self.x * o.x + self.a * self.y * o.y,
            self.x * o.y + self.y * o.x,
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QuadElement(self.a, Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self):
        if self.y == 0:
            return str(self.x)
        return f"{self.x} + {self.y}*sqrt({self.a})"


@dataclass(frozen=True)
class QuadPrime:
    """A prime of Q(sqrt(a)) over the rational prime p.

    For split primes, root is a square root of a modulo p**precision; the
    two conjugate primes carry the two roots.  Inert and ramified primes
    have no root.
    """

    a: int
    p: int
    kind: SplitType
    root: int | None
    residue_norm: int
    precision: int = 1


def _require_field_label(a: int, budget: Budget = DEFAULT_BUDGET) -> None:
    if not isinstance(a, int) or a < 1:
        raise ValueError("a must be a positive integer")
    if a > 1 and not arith.is_squarefree(a, budget):
        raise ValueError(f"a = {a} is not squarefree")


def splitting_type(a: int, p: int) -> SplitType:
    """How the rational prime p behaves in Q(sqrt(a)).

    a = 1 returns split by convention (the two "primes" coincide with p
    itself; callers never rely on the distinction).
    """
    _require_field_label(a)
    if p < 2 or not arith.is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    if a == 1:
        return SplitType.SPLIT
    if p == 2:
        if a % 2 == 0 or a % 4 == 3:
            return SplitType.RAMIFIED
        return SplitType.SPLIT if a % 8 == 1 else SplitType.INERT
    if a % p == 0:
        return SplitType.RAMIFIED
    legendre = pow(a, (p - 1) // 2, p)
    return SplitType.SPLIT if legendre == 1 else SplitType.INERT


def _sqrt_mod_p(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p (a must be a residue)."""
    a %= p
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return r
    if p % 8 == 5:
        r = pow(a, (p + 3) // 8, p)
        if r * r % p == a:
            return r
        return r * pow(2, (p - 1) // 4, p) % p
    # Tonelli-Shanks for p = 1 mod 8
    q = p - 1
    s = 0
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


def _lift_root(a: int, p: int, r: int, precision: int) -> int:
    """Hensel lift: a root of x^2 = a mod p into a root mod p**precision."""
    if precision < 1:
        raise ValueError("precision must be >= 1")
    if p == 2:
        # a = 1 mod 8; climb one bit at a time from the root 1 mod 8
        if a % 8 != 1:
            raise ValueError("2-adic square roots need a = 1 mod 8")
        root, k = 1, 3
        while k < precision:
            mod_next = 1 << (k + 1)
            if (root * root - a) % mod_next != 0:
                root += 1 << (k - 1)
            if (root * root - a) % mod_next != 0:
                raise ArithmeticError("2-adic lift failed to progress")
            k += 1
        return root % (1 << precision)
    mod = p
    while mod < p**precision:
        mod_next = min(mod * mod, p**precision)
        # Newton step: r <- r - (r^2 - a) / (2r)
        inv = pow(2 * r % mod_next, -1, mod_next)
        r = (r - (r * r - a) * inv) % mod_next
        mod = mod_next
    if (r * r - a) % p**precision != 0:
        raise ArithmeticError("Hensel lift failed to reach the requested precision")
    return r


def primes_above(a: int, p: int, precision: int = 1) -> list[QuadPrime]:
    """The primes of Q(sqrt(a)) over p, with split roots lifted mod p**precision."""
    kind = splitting_type(a, p)
    if kind is SplitType.INERT:
        return [QuadPrime(a, p, kind, None, p * p, precision)]
    if kind is SplitType.RAMIFIED:
        return [QuadPrime(a, p, kind, None, p, precision)]
    if a == 1:
        # rational field: a single entry, root 1 so that x + y*root = x + y
        return [QuadPrime(a, p, kind, 1, p, precision)]
    base = _sqrt_mod_p(a, p) if p != 2 else 1
    r = _lift_root(a, p, base, precision)
    mod = p**precision
    return [
        QuadPrime(a, p, kind, r, p, precision),
        QuadPrime(a, p, kind, (mod - r) % mod, p, precision),
    ]


def prime_valuation(z: QuadElement, P: QuadPrime) -> int:
    """v_P(z) for integral z and a split or inert prime P with p odd, p not dividing 2a.

    Inert: v_p(norm)/2.  Split: the p-adic valuation of x + y*root with the
    root Hensel-lifted until the valuation resolves below the precision;
    the conjugate valuations are checked to sum to v_p(norm).
    """
    if P.a != z.a:
        raise ValueError("element and prime live in different fields")
    if z.is_zero:
        raise ValueError("valuation of 0 is infinite")
    if not z.is_integral:
        raise ValueError("prime_valuation needs integer coordinates")
    if P.p == 2:
        raise ValueError("valuations at primes over 2 are out of scope")
    if z.a % P.p == 0:
        raise ValueError("valuations at primes dividing a are out of scope")
    if P.kind is SplitType.RAMIFIED:
        raise ValueError("valuations at ramified primes are out of scope")
    n = int(z.norm())
    v_norm = arith.valuation(n, P.p)
    if P.kind is SplitType.INERT:
        if v_norm % 2 != 0:
            raise ArithmeticError("odd norm valuation at an inert prime")
        return v_norm // 2
    # split
    if v_norm == 0:
        return 0
    x, y = int(z.x), int(z.y)
    if P.root is None:
        raise ValueError("split prime is missing its root")
    t = max(P.precision, 1)
    cap = 4 * (v_norm + 2)
    while True:
        if t > cap:
            raise ArithmeticError("lift precision exhausted without resolving the valuation")
        base = P.root if t <= P.precision else _lift_root(z.a, P.p, P.root % P.p, t)
        mod = P.p**t
        here = (x + y * base) % mod
        conj = (x - y * base) % mod
        if here == 0 or conj == 0:
            t *= 2
            continue
        v_here = arith.valuation(here, P.p)
        v_conj = arith.valuation(conj, P.p)
        if v_here + v_conj != v_norm:
            raise ArithmeticError("conjugate valuations do not add up to the norm valuation")
        return v_here
