"""Slow reference computations the tests compare against."""
from __future__ import annotations

from edspower import DEFAULT_BUDGET, add, extend, factorize, valuation


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


def primitive_primes_oracle(s, m: int, primes) -> frozenset[int]:
    """The primes among `primes` that divide B_m and none of B_1..B_{m-1}."""
    Bm = s.terms[m - 1].B
    earlier = [t.B for t in s.terms[: m - 1]]
    return frozenset(p for p in primes if Bm % p == 0 and all(B % p for B in earlier))


def find_k_p0_oracle(s, q: int, T, search_cap: int, budget=DEFAULT_BUDGET):
    """(k, p0) by factoring each index term q^j in full, or None up to search_cap.

    p0 is the least primitive prime outside T among the primes the budget
    finds, primitivity checked against every earlier term.
    """
    v1 = valuation(s.terms[0].B, q)
    j = 1
    while q**j <= search_cap:
        index = q**j
        s = extend(s, index)
        primes = factorize(s.terms[index - 1].B, budget).factors
        found = sorted(p for p in primitive_primes_oracle(s, index, primes) if p not in T)
        if found:
            return v1 + j, found[0]
        j += 1
    return None
