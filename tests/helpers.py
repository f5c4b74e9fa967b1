"""Slow reference computations the tests compare against."""
from __future__ import annotations

from edspower import add


def iroot_oracle(n: int, k: int) -> int:
    """floor(n ** (1/k)) by bisection."""
    assert n >= 0 and k >= 1
    if n < 2:
        return n
    # root < 2**ceil(bits/k); keeps bisection iterates small for large k
    lo, hi = 1, 1 << ((n.bit_length() + k - 1) // k)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def factor_oracle(n: int) -> dict[int, int]:
    """Complete factorization by unbounded trial division.  Small n only."""
    assert n >= 1
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime_oracle(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def perfect_power_oracle(n: int) -> tuple[int, int] | None:
    """Maximal (base, exp) with base**exp == n, exp >= 2, by direct root search."""
    assert n > 1
    for exp in range(n.bit_length(), 1, -1):
        base = iroot_oracle(n, exp)
        if base**exp == n:
            return base, exp
    return None


def torsion_oracle(c, P) -> bool:
    """True iff nP = infinity for some n <= 12, by repeated addition.

    12 bounds the order of any rational torsion point (Mazur).
    """
    Q = P
    for _ in range(12):
        if Q.is_infinity:
            return True
        Q = add(c, Q, P)
    return False
